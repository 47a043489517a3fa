#include "fig_common.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <utility>

#include "agree/capacity.h"
#include "agree/topology.h"
#include "obs/export.h"
#include "util/flags.h"
#include "util/rng.h"

namespace agora::figbench {

FigOptions parse_fig_options(int argc, char** argv, const std::string& figure) {
  Flags flags;
  flags.define("seed", std::to_string(kSeedBase),
               "base RNG seed for the workload traces (proxy p uses seed+p)");
  flags.define("metrics-out", "",
               "write an observability snapshot (registry metrics + trace events of the "
               "final run) to this file; .csv extension selects CSV, anything else JSON "
               "lines");
  try {
    flags.parse(argc, argv);
  } catch (const PreconditionError& err) {
    std::fprintf(stderr, "%s\n", err.what());
    std::exit(2);
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.help_text(figure + " reproduction harness").c_str());
    std::exit(0);
  }
  FigOptions opts;
  opts.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  opts.metrics_out = flags.get("metrics-out");
  return opts;
}

void write_fig_metrics(const FigOptions& opts, const proxysim::SimMetrics& last) {
  if (opts.metrics_out.empty()) return;
  obs::Sink snap = obs::Sink::global();
  snap.events = nullptr;  // only the run's own stream, not the global ring
  try {
    obs::write_snapshot(opts.metrics_out, snap, last.events);
    std::printf("\n[metrics snapshot: %s, %zu events, %llu overwritten]\n",
                opts.metrics_out.c_str(), last.events.size(),
                static_cast<unsigned long long>(last.events_overwritten));
  } catch (const IoError& err) {
    std::fprintf(stderr, "metrics snapshot failed: %s\n", err.what());
  }
}

agree::AgreementSystem complete_sharing_system(std::size_t n) {
  Pcg32 rng(n * 7 + 1);
  agree::AgreementSystem sys(n);
  for (std::size_t i = 0; i < n; ++i) sys.capacity[i] = rng.uniform(5.0, 20.0);
  sys.relative = agree::complete_graph(n, 0.8 / static_cast<double>(n));
  return sys;
}

alloc::AllocatorOptions bench_alloc_options() {
  alloc::AllocatorOptions opts;
  // Exact simple-path enumeration is factorial on complete graphs; prune
  // negligible path products so fixture setup stays tractable at n = 40.
  opts.transitive.prune_below = 1e-8;
  return opts;
}

lp::Problem full_compact_model(const agree::AgreementSystem& sys,
                               const agree::CapacityReport& rep, std::size_t a,
                               double amount) {
  const std::size_t n = sys.size();
  lp::Problem p(lp::Sense::Minimize);
  for (std::size_t k = 0; k < n; ++k) p.add_variable(0.0, rep.entitlement(k, a));
  const std::size_t theta = p.add_variable(0.0, lp::kInfinity, 1.0);
  std::vector<std::pair<std::size_t, double>> terms;
  for (std::size_t k = 0; k < n; ++k) terms.emplace_back(k, 1.0);
  p.add_constraint_sparse(terms, lp::Relation::Equal, amount);
  for (std::size_t i = 0; i < n; ++i) {
    terms.clear();
    for (std::size_t k = 0; k < n; ++k) {
      const double coeff = k == i ? sys.retained[i] : rep.shares(k, i);
      if (coeff > 0.0) terms.emplace_back(k, coeff);
    }
    terms.emplace_back(theta, -1.0);
    p.add_constraint_sparse(terms, lp::Relation::LessEqual, 0.0);
  }
  return p;
}

void repoint_full_compact_model(lp::Problem& p, const agree::CapacityReport& rep,
                                std::size_t a, double amount) {
  for (std::size_t k = 0; k < rep.capacity.size(); ++k)
    p.set_bounds(k, 0.0, rep.entitlement(k, a));
  p.set_rhs(0, amount);
}

lp::Problem compact_allocation_lp(std::size_t n) {
  const agree::AgreementSystem sys = complete_sharing_system(n);
  const agree::CapacityReport rep =
      agree::compute_capacities(sys, bench_alloc_options().transitive);
  return full_compact_model(sys, rep, /*a=*/0, rep.capacity[0] * 0.5);
}

agree::AgreementSystem banded_sharing_system(std::size_t n) {
  Pcg32 rng(n * 13 + 5);
  agree::AgreementSystem sys(n);
  for (std::size_t i = 0; i < n; ++i) sys.capacity[i] = rng.uniform(5.0, 20.0);
  // Neighbors at ring distance 1..3 get a decaying share; the trailing 0.0
  // applies to every farther distance, so the direct matrix is a band.
  sys.relative = agree::distance_decay(n, {0.25, 0.12, 0.06, 0.0});
  return sys;
}

alloc::AllocatorOptions sparse_bench_alloc_options() {
  alloc::AllocatorOptions opts;
  // Two transitive hops widen the band to ~12 neighbors but keep row
  // density independent of n; without the cap the closure over a ring
  // eventually densifies the entitlement matrix.
  opts.transitive.max_level = 2;
  opts.transitive.prune_below = 1e-8;
  return opts;
}

agree::AgreementSystem island_economy() {
  const std::size_t n = kIslands * kPerIsland;
  agree::AgreementSystem sys(n);
  for (std::size_t i = 0; i < n; ++i)
    sys.capacity[i] = 10.0 + static_cast<double>(i % kPerIsland);
  for (std::size_t g = 0; g < kIslands; ++g)
    for (std::size_t i = g * kPerIsland; i < (g + 1) * kPerIsland; ++i)
      for (std::size_t j = g * kPerIsland; j < (g + 1) * kPerIsland; ++j)
        if (i != j) sys.relative(i, j) = kIslandShare;
  return sys;
}

agree::AgreementSystem bridged_economy() {
  agree::AgreementSystem sys = island_economy();
  for (std::size_t g = 0; g < kIslands; ++g) {
    const std::size_t a = g * kPerIsland + (kPerIsland - 1);
    const std::size_t b = ((g + 1) % kIslands) * kPerIsland;
    sys.relative(a, b) = kBridgeShare;
    sys.relative(b, a) = kBridgeShare;
  }
  return sys;
}

trace::Generator make_generator() {
  trace::GeneratorConfig cfg;
  cfg.peak_rate = kPeakRate;
  return trace::Generator(cfg, trace::DiurnalProfile::berkeley_like());
}

std::vector<std::vector<trace::TraceRequest>> make_traces(double gap_seconds,
                                                          std::size_t proxies,
                                                          std::uint64_t seed_base) {
  const trace::Generator gen = make_generator();
  std::vector<std::vector<trace::TraceRequest>> traces;
  traces.reserve(proxies);
  for (std::size_t p = 0; p < proxies; ++p)
    traces.push_back(gen.generate(seed_base + p, gap_seconds * static_cast<double>(p)));
  return traces;
}

proxysim::SimConfig base_config(std::size_t proxies) {
  proxysim::SimConfig cfg;
  cfg.num_proxies = proxies;
  cfg.scheduler = proxysim::SchedulerKind::None;
  return cfg;
}

proxysim::SimMetrics run_sim(const proxysim::SimConfig& cfg,
                             const std::vector<std::vector<trace::TraceRequest>>& traces) {
  proxysim::Simulator sim(cfg);
  return sim.run(traces);
}

std::vector<double> hourly_means(const SlottedSeries& s) {
  std::vector<double> hours(24, 0.0);
  std::vector<StreamingStats> acc(24);
  const double slots_per_hour = 3600.0 / s.slot_width();
  for (std::size_t i = 0; i < s.slots(); ++i) {
    auto h = static_cast<std::size_t>(static_cast<double>(i) / slots_per_hour);
    if (h >= 24) h = 23;
    acc[h].merge(s.slot(i));
  }
  for (std::size_t h = 0; h < 24; ++h) hours[h] = acc[h].mean();
  return hours;
}

void banner(const std::string& figure, const std::string& description) {
  std::printf("\n=== %s ===\n%s\n\n", figure.c_str(), description.c_str());
}

void emit(const std::string& name, const Table& table) {
  table.write_pretty(std::cout, 3);
  std::error_code ec;
  std::filesystem::create_directories("bench_results", ec);
  if (!ec) {
    const std::string path = "bench_results/" + name + ".csv";
    try {
      table.save_csv(path);
      std::printf("\n[saved %s]\n", path.c_str());
    } catch (const IoError&) {
      // Read-only working directory: console output stands on its own.
    }
  }
}

}  // namespace agora::figbench
