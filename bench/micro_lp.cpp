// Ablation: sparse-LU revised simplex vs tableau simplex (vs brute force on
// tiny instances) on allocation-shaped LPs of growing size, all through the
// unified lp::solve entry point.
//
// Two fixtures, both posing the FULL compact allocation model
// (figbench::full_compact_model: every d_k and every perturbation row) as
// LP-substrate stress:
//   * figbench::compact_allocation_lp -- the dense complete-graph model;
//   * figbench::banded_sharing_system -- a banded ring-of-time-zones system
//     whose rows keep O(1) nonzeros as n grows, the regime the sparse basis
//     exists for.
//
// Before the google-benchmark registrations run, main() executes the
// LPSCALE sweep: n in {100, 500, 1000} on the banded fixture. Every consult
// is a cold revised solve from the slack basis. Each n runs consults of the
// full model through lp::solve, and consults through alloc::Allocator --
// the production path, which poses the requester's support model, solves
// it and certifies it. One machine-readable line per configuration:
//
//   LPSCALE n=<n> model=<full|support> certified=<0|1> consults_per_s=<r>
//     iterations=<it> basis_nnz=<z> lu_nnz=<z> fill_ratio=<f>
//     refactorizations=<c> max_eta=<e>
//
// tools/bench.sh tees these into bench_results/lpscale_summary.txt and
// tools/bench_lp_json.py folds them into BENCH_lp.json ("scaling" block).
// The sweep doubles as the release gate: main() exits 1 unless every
// consult of every configuration solves Optimal (is granted, for the
// allocator arm) AND certifies against the problem it posed (so the
// n = 1000 allocator consults cover the production path end-to-end), and
// at n = 100 the support model serves >= 10x the full model's consults/s --
// the decision production depends on: pose the requester's reach, not all
// n principals.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "agree/capacity.h"
#include "alloc/allocator.h"
#include "alloc/support_model.h"
#include "fig_common.h"
#include "lp/certify.h"
#include "lp/solve.h"

namespace {

using namespace agora;
using figbench::compact_allocation_lp;

lp::SolveOptions backend_opts(lp::Backend backend) {
  lp::SolveOptions opts;
  opts.backend = backend;
  return opts;
}

// --- LPSCALE sweep ---------------------------------------------------------

/// What each timed consult poses: the full compact model through lp::solve,
/// or the requester's support model through alloc::Allocator.
enum class Model { Full, Support };

const char* to_string(Model m) { return m == Model::Full ? "full" : "support"; }

struct ScalePoint {
  std::size_t n = 0;
  Model model = Model::Full;
  bool certified = false;
  bool optimal = false;
  double consults_per_s = 0.0;
  lp::SolveResult result;
};

/// Request i of a run: a rotating requester and amount, so every consult
/// solves against a genuinely different binding set.
std::size_t requester(int i, std::size_t n) { return static_cast<std::size_t>(i) * 17 % n; }
double amount(int i, double available) {
  return available * (0.05 + 0.95 * static_cast<double>(i % 8) / 8.0);
}

/// Full-model arm: solve + certify the full banded model once for
/// telemetry, then time a run of workspace consults, each repointing the
/// model at the next request (bounds + rhs motion that
/// repatch_standard_form_rhs absorbs without a rebuild) and solving it cold.
/// Only the solves are timed; the certification of each answer is not. Reps
/// are sized so the n = 1000 configuration finishes in about ten seconds.
ScalePoint run_full_point(std::size_t n) {
  ScalePoint pt;
  pt.n = n;
  pt.model = Model::Full;
  const agree::AgreementSystem sys = figbench::banded_sharing_system(n);
  const agree::CapacityReport rep = agree::compute_capacities(
      sys, figbench::sparse_bench_alloc_options().transitive);
  lp::Problem p = figbench::full_compact_model(sys, rep, /*a=*/0, rep.capacity[0] * 0.5);
  const lp::SolveOptions opts;

  lp::SolveWorkspace ws;
  pt.result = lp::solve(p, opts, &ws);
  pt.optimal = pt.result.optimal();
  lp::Verifier verifier(opts.tols);
  pt.certified = verifier.certify(p, pt.result).certified;

  const int reps = n >= 1000 ? 20 : (n >= 500 ? 50 : 200);
  std::chrono::duration<double> elapsed{0.0};
  for (int i = 0; i < reps; ++i) {
    const std::size_t a = requester(i, n);
    figbench::repoint_full_compact_model(p, rep, a, amount(i, rep.capacity[a]));
    const auto t0 = std::chrono::steady_clock::now();
    const lp::SolveResult r = lp::solve(p, opts, &ws);
    elapsed += std::chrono::steady_clock::now() - t0;
    benchmark::DoNotOptimize(r.objective);
    if (!r.optimal()) pt.optimal = false;
    if (!verifier.certify(p, r).certified) pt.certified = false;
  }
  pt.consults_per_s = elapsed.count() > 0.0 ? reps / elapsed.count() : 0.0;
  return pt;
}

/// Support-model arm: the shipped consult. Telemetry comes from solving the
/// first request's support model (alloc::SupportModel, what the allocator
/// poses); throughput times alloc::Allocator::allocate end to end -- model
/// build, solve, certification -- and every consult must be granted and
/// certified.
ScalePoint run_support_point(std::size_t n) {
  ScalePoint pt;
  pt.n = n;
  pt.model = Model::Support;
  const alloc::Allocator al(figbench::banded_sharing_system(n),
                            figbench::sparse_bench_alloc_options());
  const agree::CapacityReport& rep = al.capacities();
  alloc::SupportModel model;
  const lp::Problem& p = model.build(al.system(), rep, /*a=*/0, rep.capacity[0] * 0.5);
  pt.result = lp::solve(p, lp::SolveOptions{}, &model.workspace());
  pt.optimal = pt.result.optimal();
  pt.certified = lp::Verifier().certify(p, pt.result).certified;

  const int reps = 200;
  std::chrono::duration<double> elapsed{0.0};
  for (int i = 0; i < reps; ++i) {
    const std::size_t a = requester(i, n);
    const auto t0 = std::chrono::steady_clock::now();
    const alloc::AllocationPlan plan = al.allocate(a, amount(i, al.available_to(a)));
    elapsed += std::chrono::steady_clock::now() - t0;
    benchmark::DoNotOptimize(plan.theta);
    if (!plan.satisfied()) pt.optimal = false;
    if (!plan.certified) pt.certified = false;
  }
  pt.consults_per_s = elapsed.count() > 0.0 ? reps / elapsed.count() : 0.0;
  return pt;
}

void print_scale_point(const ScalePoint& pt) {
  const lp::SolveStats& s = pt.result.stats;
  const double fill = s.basis_nnz > 0
                          ? static_cast<double>(s.lu_nnz) /
                                static_cast<double>(s.basis_nnz)
                          : 0.0;
  std::printf(
      "LPSCALE n=%zu model=%s certified=%d consults_per_s=%.2f "
      "iterations=%llu basis_nnz=%llu lu_nnz=%llu fill_ratio=%.3f "
      "refactorizations=%llu max_eta=%llu\n",
      pt.n, to_string(pt.model),
      pt.certified && pt.optimal ? 1 : 0, pt.consults_per_s,
      static_cast<unsigned long long>(pt.result.iterations),
      static_cast<unsigned long long>(s.basis_nnz),
      static_cast<unsigned long long>(s.lu_nnz), fill,
      static_cast<unsigned long long>(s.refactorizations),
      static_cast<unsigned long long>(s.max_eta_count));
}

/// Records a gate failure unless every consult of `pt` solved Optimal and
/// certified.
ScalePoint gated(const ScalePoint& pt, bool& ok) {
  print_scale_point(pt);
  if (!pt.certified || !pt.optimal) {
    std::fprintf(stderr, "GATE: %s n=%zu failed to solve+certify\n", to_string(pt.model),
                 pt.n);
    ok = false;
  }
  return pt;
}

/// Returns false (gate failure) unless every configuration solves and
/// certifies every consult and, at n = 100, the support model serves
/// >= 10x the full model's consults/s.
bool run_scaling_sweep() {
  bool ok = true;
  double full_100 = 0.0;
  double support_100 = 0.0;
  for (const std::size_t n : {std::size_t{100}, std::size_t{500}, std::size_t{1000}}) {
    const double full = gated(run_full_point(n), ok).consults_per_s;
    // The production path: alloc::Allocator consults.
    const double support = gated(run_support_point(n), ok).consults_per_s;
    if (n == 100) {
      full_100 = full;
      support_100 = support;
    }
  }
  const double ratio = full_100 > 0.0 ? support_100 / full_100 : 0.0;
  std::printf("LPSCALE support_over_full_n100=%.2f\n", ratio);
  if (ratio < 10.0) {
    std::fprintf(stderr,
                 "GATE: support/full consults_per_s at n=100 is %.2fx (< 10x)\n", ratio);
    ok = false;
  }
  return ok;
}

// --- google-benchmark registrations (small-n ablation) ---------------------

void BM_TableauSimplex(benchmark::State& state) {
  const lp::Problem p = compact_allocation_lp(static_cast<std::size_t>(state.range(0)));
  const lp::SolveOptions opts = backend_opts(lp::Backend::Tableau);
  for (auto _ : state) {
    const lp::SolveResult r = lp::solve(p, opts);
    benchmark::DoNotOptimize(r.objective);
  }
}
BENCHMARK(BM_TableauSimplex)->Arg(5)->Arg(10)->Arg(20)->Arg(40);

void BM_RevisedSimplexSparse(benchmark::State& state) {
  const lp::Problem p = compact_allocation_lp(static_cast<std::size_t>(state.range(0)));
  const lp::SolveOptions opts = backend_opts(lp::Backend::Revised);
  for (auto _ : state) {
    const lp::SolveResult r = lp::solve(p, opts);
    benchmark::DoNotOptimize(r.objective);
  }
}
BENCHMARK(BM_RevisedSimplexSparse)->Arg(5)->Arg(10)->Arg(20)->Arg(40);

void BM_BruteForce(benchmark::State& state) {
  const lp::Problem p = compact_allocation_lp(static_cast<std::size_t>(state.range(0)));
  lp::SolveOptions opts;
  opts.backend = lp::Backend::BruteForce;
  for (auto _ : state) {
    const lp::SolveResult r = lp::solve(p, opts);
    benchmark::DoNotOptimize(r.objective);
  }
}
BENCHMARK(BM_BruteForce)->Arg(3)->Arg(4);

}  // namespace

int main(int argc, char** argv) {
  const bool gates_ok = run_scaling_sweep();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return gates_ok ? 0 : 1;
}
