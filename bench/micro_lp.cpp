// Ablation: sparse-LU revised simplex vs dense-inverse revised simplex vs
// tableau simplex (vs brute force on tiny instances) on allocation-shaped
// LPs of growing size, all through the unified lp::solve entry point.
//
// Two fixtures:
//   * figbench::compact_allocation_lp -- the dense complete-graph model the
//     Allocator's compact path solves;
//   * figbench::banded_sharing_system -- a banded ring-of-time-zones system
//     whose rows keep O(1) nonzeros as n grows, consulted through
//     alloc::AllocationModelCache exactly like the production allocator --
//     the regime the sparse basis exists for.
//
// Before the google-benchmark registrations run, main() executes the
// LPSCALE sweep: n in {100, 500, 1000} on the banded fixture. Each n runs
// warm consults on the sparse basis and on the dense inverse (only through
// n = 500 -- m^2 storage makes it the foil, not the subject), and cold
// consults on the sparse basis -- the path every alloc::Allocator consult
// takes. One machine-readable line per configuration:
//
//   LPSCALE n=<n> backend=<sparse-lu|dense-inverse> start=<warm|cold>
//     certified=<0|1> consults_per_s=<r> iterations=<it> basis_nnz=<z>
//     lu_nnz=<z> fill_ratio=<f> refactorizations=<c> max_eta=<e>
//
// tools/bench.sh tees these into bench_results/lpscale_summary.txt and
// tools/bench_lp_json.py folds them into BENCH_lp.json ("scaling" block).
// The sweep doubles as the release gate: main() exits 1 unless every
// consult of every configuration solves Optimal AND certifies against the
// original problem (so the cold n = 1000 sparse consults cover the
// production path end-to-end), and the sparse basis beats the dense inverse
// by >= 5x warm consults/s at n = 100.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "agree/capacity.h"
#include "alloc/model_cache.h"
#include "fig_common.h"
#include "lp/certify.h"
#include "lp/solve.h"

namespace {

using namespace agora;
using figbench::compact_allocation_lp;

lp::SolveOptions backend_opts(lp::Backend backend, lp::BasisRep basis) {
  lp::SolveOptions opts;
  opts.backend = backend;
  opts.basis = basis;
  return opts;
}

// --- LPSCALE sweep ---------------------------------------------------------

/// How each timed consult starts: from the previous optimal basis (the warm
/// start lp::solve offers workspace callers) or from the slack basis (what
/// alloc::Allocator does before every consult).
enum class Start { Warm, Cold };

const char* to_string(Start s) { return s == Start::Warm ? "warm" : "cold"; }

struct ScalePoint {
  std::size_t n = 0;
  lp::BasisRep basis = lp::BasisRep::SparseLu;
  Start start = Start::Warm;
  bool certified = false;
  bool optimal = false;
  double consults_per_s = 0.0;
  lp::SolveResult result;
};

/// Solve + certify the banded fixture once for telemetry, then time a run of
/// consults for throughput. Every consult must solve Optimal and certify.
ScalePoint run_scale_point(std::size_t n, lp::BasisRep basis, Start start) {
  ScalePoint pt;
  pt.n = n;
  pt.basis = basis;
  pt.start = start;
  const agree::AgreementSystem sys = figbench::banded_sharing_system(n);
  const agree::CapacityReport rep = agree::compute_capacities(
      sys, figbench::sparse_bench_alloc_options().transitive);
  alloc::AllocationModelCache cache;
  cache.build(sys, rep);
  cache.patch(rep, /*a=*/0, rep.capacity[0] * 0.5);
  const lp::SolveOptions opts = backend_opts(lp::Backend::Revised, basis);

  lp::SolveWorkspace& ws = cache.workspace();
  pt.result = lp::solve(cache.problem(), opts, &ws);
  pt.optimal = pt.result.optimal();
  lp::Verifier verifier(opts.tols);
  pt.certified = verifier.certify(cache.problem(), pt.result).certified;

  // Throughput: consults against the cached model, the allocator's
  // per-request pattern -- AllocationModelCache::patch points the model at
  // requester a's entitlements and amount (bounds + rhs motion that
  // repatch_standard_form_rhs absorbs without a rebuild). A warm consult
  // starts from the previous optimal basis; a cold one invalidates the
  // workspace first, as alloc::Allocator does. Rotating the requester makes
  // every consult solve against a genuinely different binding set (~10
  // warm pivots at n = 100). Only the solves are timed; the certification
  // of each answer is not. Reps are sized so each n = 1000 configuration
  // finishes in under twenty seconds.
  const int reps = n >= 1000 ? 20 : (n >= 500 ? 50 : 200);
  std::chrono::duration<double> elapsed{0.0};
  for (int i = 0; i < reps; ++i) {
    const std::size_t a = static_cast<std::size_t>(i) * 17 % n;
    cache.patch(rep, a,
                rep.capacity[a] * (0.05 + 0.95 * static_cast<double>(i % 8) / 8.0));
    if (start == Start::Cold) ws.invalidate();
    const auto t0 = std::chrono::steady_clock::now();
    const lp::SolveResult r = lp::solve(cache.problem(), opts, &ws);
    elapsed += std::chrono::steady_clock::now() - t0;
    benchmark::DoNotOptimize(r.objective);
    if (!r.optimal()) pt.optimal = false;
    if (!verifier.certify(cache.problem(), r).certified) pt.certified = false;
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
      "LPSCALE n=%zu backend=%s start=%s certified=%d consults_per_s=%.2f "
      "iterations=%llu basis_nnz=%llu lu_nnz=%llu fill_ratio=%.3f "
      "refactorizations=%llu max_eta=%llu\n",
      pt.n, lp::to_string(pt.basis), to_string(pt.start),
      pt.certified && pt.optimal ? 1 : 0, pt.consults_per_s,
      static_cast<unsigned long long>(pt.result.iterations),
      static_cast<unsigned long long>(s.basis_nnz),
      static_cast<unsigned long long>(s.lu_nnz), fill,
      static_cast<unsigned long long>(s.refactorizations),
      static_cast<unsigned long long>(s.max_eta_count));
}

/// Runs one configuration and records a gate failure unless every consult
/// solved Optimal and certified.
ScalePoint gated_point(std::size_t n, lp::BasisRep basis, Start start, bool& ok) {
  const ScalePoint pt = run_scale_point(n, basis, start);
  print_scale_point(pt);
  if (!pt.certified || !pt.optimal) {
    std::fprintf(stderr, "GATE: %s %s n=%zu failed to solve+certify\n",
                 lp::to_string(basis), to_string(start), n);
    ok = false;
  }
  return pt;
}

/// Returns false (gate failure) unless every configuration solves and
/// certifies every consult and sparse >= 5x dense (warm) at n = 100.
bool run_scaling_sweep() {
  bool ok = true;
  double sparse_100 = 0.0;
  double dense_100 = 0.0;
  for (const std::size_t n : {std::size_t{100}, std::size_t{500}, std::size_t{1000}}) {
    const ScalePoint sparse = gated_point(n, lp::BasisRep::SparseLu, Start::Warm, ok);
    if (n == 100) sparse_100 = sparse.consults_per_s;
    if (n <= 500) {  // dense m^2 storage is the foil; skip it at n = 1000
      const ScalePoint dense = gated_point(n, lp::BasisRep::DenseInverse, Start::Warm, ok);
      if (n == 100) dense_100 = dense.consults_per_s;
    }
    // The production path: the sparse basis from the slack basis each time.
    gated_point(n, lp::BasisRep::SparseLu, Start::Cold, ok);
  }
  const double speedup = dense_100 > 0.0 ? sparse_100 / dense_100 : 0.0;
  std::printf("LPSCALE speedup_n100=%.2f\n", speedup);
  if (speedup < 5.0) {
    std::fprintf(stderr,
                 "GATE: sparse/dense consults_per_s at n=100 is %.2fx (< 5x)\n",
                 speedup);
    ok = false;
  }
  return ok;
}

// --- google-benchmark registrations (small-n ablation) ---------------------

void BM_TableauSimplex(benchmark::State& state) {
  const lp::Problem p = compact_allocation_lp(static_cast<std::size_t>(state.range(0)));
  const lp::SolveOptions opts =
      backend_opts(lp::Backend::Tableau, lp::BasisRep::DenseInverse);
  for (auto _ : state) {
    const lp::SolveResult r = lp::solve(p, opts);
    benchmark::DoNotOptimize(r.objective);
  }
}
BENCHMARK(BM_TableauSimplex)->Arg(5)->Arg(10)->Arg(20)->Arg(40);

void BM_RevisedSimplexDense(benchmark::State& state) {
  const lp::Problem p = compact_allocation_lp(static_cast<std::size_t>(state.range(0)));
  const lp::SolveOptions opts =
      backend_opts(lp::Backend::Revised, lp::BasisRep::DenseInverse);
  for (auto _ : state) {
    const lp::SolveResult r = lp::solve(p, opts);
    benchmark::DoNotOptimize(r.objective);
  }
}
BENCHMARK(BM_RevisedSimplexDense)->Arg(5)->Arg(10)->Arg(20)->Arg(40);

void BM_RevisedSimplexSparse(benchmark::State& state) {
  const lp::Problem p = compact_allocation_lp(static_cast<std::size_t>(state.range(0)));
  const lp::SolveOptions opts =
      backend_opts(lp::Backend::Revised, lp::BasisRep::SparseLu);
  for (auto _ : state) {
    const lp::SolveResult r = lp::solve(p, opts);
    benchmark::DoNotOptimize(r.objective);
  }
}
BENCHMARK(BM_RevisedSimplexSparse)->Arg(5)->Arg(10)->Arg(20)->Arg(40);

/// Same solver, but with a persistent workspace: rhs/bounds are unchanged
/// between iterations, so every solve after the first warm-starts from the
/// optimal basis and should price once and pivot zero times.
void BM_RevisedSimplexWarm(benchmark::State& state) {
  const lp::Problem p = compact_allocation_lp(static_cast<std::size_t>(state.range(0)));
  const lp::SolveOptions opts =
      backend_opts(lp::Backend::Revised, lp::BasisRep::SparseLu);
  lp::SolveWorkspace ws;
  for (auto _ : state) {
    const lp::SolveResult r = lp::solve(p, opts, &ws);
    benchmark::DoNotOptimize(r.objective);
  }
}
BENCHMARK(BM_RevisedSimplexWarm)->Arg(5)->Arg(10)->Arg(20)->Arg(40);

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
