// micro_certify -- the cost of certified enforcement: a Figure-13-like
// consult sequence (256 spare-refresh + allocate consults against 10
// proxies with distance-decay agreements), every LP answer verified against
// the problem posed and an uncertified one denied. Each consult is one cold
// revised solve followed by lp::Verifier, and the solve pipeline times both
// inside the same consult: lp.pipeline.stage.cold-revised.seconds (the
// solve) and lp.pipeline.certify.seconds (the certificate check). The
// overhead is the ratio of the two histogram sums over the sequence, so it
// is never the difference of two separately timed runs.
//
// main() runs one untimed warm-up pass, then kPasses measured passes over
// the sequence against a private metrics registry, and prints one line
//
//   CERTIFY overhead_pct=... certified_solves=... fallbacks=...
//     uncertified_grants=... solve_seconds=... certify_seconds=...
//
// consumed by tools/bench.sh into BENCH_lp.json. It exits 1 when the
// overhead exceeds kMaxOverheadPct, when a satisfied plan carries no
// certificate, or when either histogram's count differs from the certified
// solves -- the last stops a build with observability compiled out
// (-DAGORA_OBS=OFF, no timings recorded) from passing vacuously.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <span>
#include <vector>

#include "agree/topology.h"
#include "alloc/allocator.h"
#include "obs/metrics.h"
#include "obs/sink.h"
#include "util/rng.h"

namespace {

using namespace agora;

constexpr std::size_t kProxies = 10;
constexpr std::size_t kConsults = 256;
constexpr int kPasses = 10;
constexpr double kMaxOverheadPct = 10.0;

struct Consult {
  std::vector<double> spare;
  std::size_t origin = 0;
  double overflow = 0.0;
};

struct Scenario {
  agree::AgreementSystem sys;
  std::vector<Consult> consults;
};

/// Deterministic consult stream: seeded spare capacities, origins and
/// overflow amounts.
Scenario make_scenario() {
  Scenario sc;
  sc.sys = agree::AgreementSystem(kProxies);
  sc.sys.relative = agree::distance_decay(kProxies, {0.20, 0.10, 0.05, 0.03});
  Pcg32 rng(20260806);
  std::vector<double> base(kProxies);
  for (double& b : base) b = rng.uniform(8.0, 16.0);
  sc.sys.capacity = base;
  sc.consults.resize(kConsults);
  for (Consult& c : sc.consults) {
    c.spare.resize(kProxies);
    for (std::size_t i = 0; i < kProxies; ++i) c.spare[i] = base[i] * rng.uniform(0.2, 1.0);
    c.origin = rng.uniform_u32(kProxies);
    c.overflow = rng.uniform(0.5, 6.0);
  }
  return sc;
}

alloc::AllocationPlan consult(const alloc::Allocator& al, const Consult& c) {
  const double reachable = al.available_to(c.origin);
  const double x = std::min(c.overflow, reachable * (1.0 - 1e-9));
  return al.allocate(c.origin, std::max(0.0, x));
}

struct SequenceOutcome {
  std::uint64_t consults = 0;
  std::uint64_t certified = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t uncertified_grants = 0;
  std::uint64_t satisfied = 0;
};

/// One pass over the full consult sequence against a persistent allocator,
/// recording the certification outcome of every plan.
void run_pass(alloc::Allocator& al, const Scenario& sc, SequenceOutcome& out) {
  for (const Consult& c : sc.consults) {
    al.set_capacities(std::span<const double>(c.spare));
    const alloc::AllocationPlan plan = consult(al, c);
    benchmark::DoNotOptimize(plan.theta);
    ++out.consults;
    if (plan.certified) ++out.certified;
    out.fallbacks += plan.solver_fallbacks;
    if (plan.satisfied()) {
      ++out.satisfied;
      if (!plan.certified) ++out.uncertified_grants;
    }
  }
}

void BM_CertifiedConsult(benchmark::State& state) {
  const Scenario sc = make_scenario();
  alloc::Allocator al(sc.sys);
  std::size_t step = 0;
  for (auto _ : state) {
    const Consult& c = sc.consults[step++ % sc.consults.size()];
    al.set_capacities(std::span<const double>(c.spare));
    const alloc::AllocationPlan plan = consult(al, c);
    benchmark::DoNotOptimize(plan.theta);
  }
}
BENCHMARK(BM_CertifiedConsult);

bool verify_and_summarize() {
  const Scenario sc = make_scenario();
  obs::MetricsRegistry registry;
  alloc::AllocatorOptions opts;
  opts.sink = obs::Sink{&registry, nullptr};
  alloc::Allocator al(sc.sys, opts);
  SequenceOutcome warm, out;
  run_pass(al, sc, warm);  // model build and first-touch costs stay out
  registry.reset();
  for (int pass = 0; pass < kPasses; ++pass) run_pass(al, sc, out);

  const obs::LogHistogram& solve = registry.histogram("lp.pipeline.stage.cold-revised.seconds");
  const obs::LogHistogram& certify = registry.histogram("lp.pipeline.certify.seconds");
  const double overhead_pct = solve.sum() > 0.0 ? certify.sum() / solve.sum() * 100.0 : 0.0;
  std::printf(
      "CERTIFY overhead_pct=%.2f certified_solves=%llu fallbacks=%llu uncertified_grants=%llu "
      "solve_seconds=%.6f certify_seconds=%.6f\n",
      overhead_pct, static_cast<unsigned long long>(out.certified),
      static_cast<unsigned long long>(out.fallbacks),
      static_cast<unsigned long long>(out.uncertified_grants), solve.sum(), certify.sum());
  bool ok = true;
  if (out.uncertified_grants != 0) {
    std::fprintf(stderr, "FATAL: %llu satisfied plans carried no certificate\n",
                 static_cast<unsigned long long>(out.uncertified_grants));
    ok = false;
  }
  if (out.satisfied > 0 && out.certified == 0) {
    std::fprintf(stderr, "FATAL: certification produced zero certificates\n");
    ok = false;
  }
  if (solve.count() != out.certified || certify.count() != out.certified) {
    std::fprintf(stderr,
                 "GATE: timed %llu solves and %llu certifications for %llu certified "
                 "consults (observability compiled out?)\n",
                 static_cast<unsigned long long>(solve.count()),
                 static_cast<unsigned long long>(certify.count()),
                 static_cast<unsigned long long>(out.certified));
    ok = false;
  }
  if (overhead_pct > kMaxOverheadPct) {
    std::fprintf(stderr, "GATE: certification overhead %.2f%% exceeds %.0f%%\n", overhead_pct,
                 kMaxOverheadPct);
    ok = false;
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  if (!verify_and_summarize()) return 1;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
