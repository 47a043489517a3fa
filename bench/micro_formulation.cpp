// Ablation: the allocator's compact support model (at most n+1 variables)
// vs the paper's verbatim model (n^2 + n + 1 variables, the test oracle in
// tests/oracle_models.h) -- identical optima (tested), very different cost.
#include <benchmark/benchmark.h>

#include "agree/topology.h"
#include "alloc/allocator.h"
#include "alloc/hierarchical.h"
#include "lp/solve.h"
#include "oracle_models.h"
#include "util/rng.h"

namespace {

using namespace agora;

agree::AgreementSystem make_system(std::size_t n) {
  Pcg32 rng(n * 13 + 5);
  agree::AgreementSystem sys(n);
  for (std::size_t i = 0; i < n; ++i) sys.capacity[i] = rng.uniform(5.0, 20.0);
  sys.relative = agree::complete_graph(n, 0.8 / static_cast<double>(n));
  return sys;
}

alloc::AllocatorOptions bench_options() {
  alloc::AllocatorOptions opts;
  // Prune negligible transitive paths: the exact DFS is factorial on the
  // complete fixture graph and would dominate (and at n = 20, hang) setup.
  opts.transitive.prune_below = 1e-8;
  return opts;
}

void BM_Compact(benchmark::State& state) {
  const alloc::Allocator allocator(make_system(static_cast<std::size_t>(state.range(0))),
                                   bench_options());
  const double x = allocator.available_to(0) * 0.5;
  for (auto _ : state) {
    const alloc::AllocationPlan plan = allocator.allocate(0, x);
    benchmark::DoNotOptimize(plan.theta);
  }
}

/// The same consult posed as the paper's model: build and solve per
/// iteration, as the allocator builds and solves its model per consult.
void BM_FullPaper(benchmark::State& state) {
  const alloc::Allocator allocator(make_system(static_cast<std::size_t>(state.range(0))),
                                   bench_options());
  const double x = allocator.available_to(0) * 0.5;
  for (auto _ : state) {
    const oracle::PaperModel m =
        oracle::paper_model(allocator.system(), allocator.capacities(), 0, x);
    const lp::SolveResult r = lp::solve(m.problem);
    benchmark::DoNotOptimize(r.objective);
  }
}
BENCHMARK(BM_Compact)->Arg(5)->Arg(10)->Arg(20);
BENCHMARK(BM_FullPaper)->Arg(5)->Arg(10)->Arg(20);

void BM_Hierarchical(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<std::size_t> groups(n);
  for (std::size_t i = 0; i < n; ++i) groups[i] = i / 5;  // groups of 5
  alloc::HierarchicalAllocator h(make_system(n), groups, bench_options());
  const double x = 4.0;
  for (auto _ : state) {
    const alloc::AllocationPlan plan = h.allocate(0, x);
    benchmark::DoNotOptimize(plan.theta);
  }
}
BENCHMARK(BM_Hierarchical)->Arg(10)->Arg(20);

}  // namespace

BENCHMARK_MAIN();
