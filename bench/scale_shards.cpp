// scale_shards -- shard-count sweep for the EnforcementEngine (DESIGN.md
// §11.6): a 64-participant economy built as 8 complete-graph sharing islands
// of 8, measured at 1/2/4/8 worker shards.
//
// Connectivity partitioning turns each island into its own shard, so an
// admission consult solves a 9-variable LP instead of the 65-variable
// full-system LP the direct path (threads=1: one shard over everything)
// solves. Simplex cost grows superlinearly in the variable count, which is
// where the speedup comes from -- the sweep's throughput ratio is real even
// on a single-core host, because the win is smaller LPs, not parallelism.
//
// Two phases per shard count:
//   * throughput -- pipelined waves of submit() (one per participant),
//     futures drained per wave: consults/sec over >= 0.5 s of waves,
//   * latency    -- serial blocking consult() round trips: p50/p99 micros,
//     with a recorded p99 regression bound (kP99BoundUs) and a single retry
//     when an environmental outlier trips it.
//
// A second sweep (DESIGN.md §15) runs the same islands joined into ONE
// component by weak ring bridges, federated off/on x 1/2/4/8 threads.
// Without federation a single component at threads>1 falls back to full
// replicas (every shard solves the 65-variable LP); with federation the
// bridges are cut, each shard solves its 9-variable local+bank LP, and the
// sweep records the measured optimality gap the engine reports per epoch.
//
// Usage: scale_shards [out.json]   (default BENCH_engine.json)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "fig_common.h"
#include "util/rng.h"

namespace {

using Clock = std::chrono::steady_clock;

using agora::figbench::bridged_economy;
using agora::figbench::island_economy;
using agora::figbench::kBridgeShare;
using agora::figbench::kIslands;
using agora::figbench::kIslandShare;
using agora::figbench::kPerIsland;

struct SweepPoint {
  std::size_t threads = 0;
  std::size_t shards = 0;
  std::uint64_t consults = 0;
  double consults_per_sec = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  bool latency_retried = false;  ///< first latency pass tripped the p99 bound
};

/// Regression bound on the serial consult p99. Historic runs sit well under
/// it at every shard count (p99 < 750 us even at threads=1, where the whole
/// 65-variable LP runs per consult); a single scheduler hiccup on a busy
/// host can blow one probe past it, which is noise, not a regression. The
/// latency phase therefore retries ONCE when the bound trips, and only a
/// second failure is reported (p99_within_bound=false in the JSON).
constexpr double kP99BoundUs = 1500.0;

struct LatencyPhase {
  double p50_us = 0.0;
  double p99_us = 0.0;
};

LatencyPhase measure_latency(agora::engine::EnforcementEngine& eng,
                             const std::vector<double>& amounts) {
  const std::size_t n = amounts.size();
  constexpr std::size_t kProbes = 512;
  std::vector<double> lat_us(kProbes);
  for (std::size_t k = 0; k < kProbes; ++k) {
    const std::size_t i = k % n;
    const auto a = Clock::now();
    (void)eng.consult(i, amounts[i]);
    lat_us[k] = std::chrono::duration<double, std::micro>(Clock::now() - a).count();
  }
  std::sort(lat_us.begin(), lat_us.end());
  LatencyPhase out;
  out.p50_us = lat_us[kProbes / 2];
  out.p99_us = lat_us[(kProbes * 99) / 100];
  return out;
}

SweepPoint measure(const agora::agree::AgreementSystem& sys, std::size_t threads) {
  agora::engine::EngineOptions opts;
  opts.threads = threads;
  opts.sink = agora::obs::Sink::none();
  opts.alloc.sink = agora::obs::Sink::none();
  agora::engine::EnforcementEngine eng(sys, opts);

  const std::size_t n = sys.size();
  agora::Pcg32 rng(7);
  std::vector<double> amounts(n);
  for (std::size_t i = 0; i < n; ++i) amounts[i] = rng.uniform(0.5, 4.0);

  // Warm-up: one consult per participant sizes every shard's model and
  // solver scratch.
  for (std::size_t i = 0; i < n; ++i) (void)eng.consult(i, amounts[i]);

  SweepPoint pt;
  pt.threads = threads;
  pt.shards = eng.num_shards();

  // Throughput: pipelined waves, one submit per participant, drained per
  // wave, until at least half a second has been measured.
  std::vector<std::future<agora::engine::EngineResult>> wave;
  wave.reserve(n);
  const auto t0 = Clock::now();
  double elapsed = 0.0;
  while (elapsed < 0.5) {
    wave.clear();
    for (std::size_t i = 0; i < n; ++i) wave.push_back(eng.submit(i, amounts[i]));
    for (auto& f : wave) (void)f.get();
    pt.consults += n;
    elapsed = std::chrono::duration<double>(Clock::now() - t0).count();
  }
  pt.consults_per_sec = static_cast<double>(pt.consults) / elapsed;

  // Latency: serial blocking consults, round-robin over participants. A
  // p99 past the regression bound gets one retry -- see kP99BoundUs.
  LatencyPhase lat = measure_latency(eng, amounts);
  if (lat.p99_us > kP99BoundUs) {
    pt.latency_retried = true;
    lat = measure_latency(eng, amounts);
  }
  pt.p50_us = lat.p50_us;
  pt.p99_us = lat.p99_us;
  return pt;
}

// ------------------------------------------------- single-component sweep ---

struct FedPoint {
  bool fed_requested = false;
  bool federated = false;
  bool replicated = false;
  std::size_t threads = 0;
  std::size_t shards = 0;
  std::uint64_t consults = 0;
  double consults_per_sec = 0.0;
  double certified_pct = 0.0;
  double gap_last_rel = 0.0;
  double gap_max_rel = 0.0;
  std::uint64_t gap_probes = 0;
  std::uint64_t credits = 0;
  std::uint64_t settlements = 0;
};

FedPoint measure_single_component(const agora::agree::AgreementSystem& sys,
                                  std::size_t threads, bool fed_on) {
  agora::engine::EngineOptions opts;
  opts.threads = threads;
  opts.sink = agora::obs::Sink::none();
  opts.alloc.sink = agora::obs::Sink::none();
  // One connected 64-node component: bound the transitive DFS the same way
  // the federation test suites do.
  opts.alloc.transitive.max_level = 3;
  opts.federation.enabled = fed_on;
  opts.federation.gap_probes = 4;
  agora::engine::EnforcementEngine eng(sys, opts);

  const std::size_t n = sys.size();
  agora::Pcg32 rng(7);
  std::vector<double> amounts(n);
  for (std::size_t i = 0; i < n; ++i) amounts[i] = rng.uniform(0.5, 4.0);
  for (std::size_t i = 0; i < n; ++i) (void)eng.consult(i, amounts[i]);

  FedPoint pt;
  pt.fed_requested = fed_on;
  pt.federated = eng.federated();
  pt.replicated = eng.replicated();
  pt.threads = threads;
  pt.shards = eng.num_shards();

  std::uint64_t granted = 0, certified = 0;
  std::vector<std::future<agora::engine::EngineResult>> wave;
  wave.reserve(n);
  const auto t0 = Clock::now();
  double elapsed = 0.0;
  while (elapsed < 0.5) {
    wave.clear();
    for (std::size_t i = 0; i < n; ++i) wave.push_back(eng.submit(i, amounts[i]));
    for (auto& f : wave) {
      const agora::engine::EngineResult res = f.get();
      if (res.plan.satisfied()) {
        ++granted;
        if (res.plan.certified) ++certified;
      }
    }
    pt.consults += n;
    elapsed = std::chrono::duration<double>(Clock::now() - t0).count();
  }
  pt.consults_per_sec = static_cast<double>(pt.consults) / elapsed;
  pt.certified_pct =
      granted == 0 ? 0.0
                   : 100.0 * static_cast<double>(certified) / static_cast<double>(granted);

  // An epoch boundary at unchanged capacities: drains the shard gap rings
  // and (federated) probes the exact global LP for the optimality gap.
  eng.settle();
  const agora::engine::EngineStats st = eng.stats();
  pt.gap_last_rel = st.federation.last_gap_rel;
  pt.gap_max_rel = st.federation.max_gap_rel;
  pt.gap_probes = st.federation.gap_probes;
  pt.credits = st.federation.credits;
  pt.settlements = st.federation.settlements;
  return pt;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_engine.json";
  const agora::agree::AgreementSystem sys = island_economy();

  std::vector<SweepPoint> sweep;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    sweep.push_back(measure(sys, threads));
    const SweepPoint& pt = sweep.back();
    std::printf(
        "threads=%zu shards=%zu  %10.0f consults/s  p50 %7.1f us  p99 %7.1f us%s%s\n",
        pt.threads, pt.shards, pt.consults_per_sec, pt.p50_us, pt.p99_us,
        pt.latency_retried ? "  [retried]" : "",
        pt.p99_us > kP99BoundUs ? "  ** p99 OVER BOUND **" : "");
  }
  const double speedup = sweep.back().consults_per_sec / sweep.front().consults_per_sec;
  std::printf("speedup 8 vs 1 threads: %.2fx\n", speedup);

  // Single-component sweep: federated off (full-replica fallback) vs on
  // (edge-scored cut + border credits), threads 1/2/4/8.
  const agora::agree::AgreementSystem one = bridged_economy();
  std::vector<FedPoint> fed_sweep;
  for (const bool fed_on : {false, true}) {
    for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
      fed_sweep.push_back(measure_single_component(one, threads, fed_on));
      const FedPoint& pt = fed_sweep.back();
      std::printf(
          "one-component fed=%s threads=%zu shards=%zu%s  %10.0f consults/s  "
          "certified %.1f%%  gap last/max %.4f/%.4f\n",
          pt.fed_requested ? "on " : "off", pt.threads, pt.shards,
          pt.replicated ? " (replicated)" : pt.federated ? " (federated)" : "",
          pt.consults_per_sec, pt.certified_pct, pt.gap_last_rel, pt.gap_max_rel);
    }
  }
  // fed_sweep rows: [0..3] = off x threads{1,2,4,8}, [4..7] = on x same.
  const double speedup_fed = fed_sweep[7].consults_per_sec / fed_sweep[4].consults_per_sec;
  const double speedup_rep = fed_sweep[3].consults_per_sec / fed_sweep[0].consults_per_sec;
  std::printf("one-component speedup 8 vs 1 shards: federated %.2fx, replicated %.2fx\n",
              speedup_fed, speedup_rep);

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "scale_shards: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"benchmark\": \"engine_scale_shards\",\n");
  std::fprintf(f,
               "  \"economy\": {\"participants\": %zu, \"islands\": %zu, "
               "\"per_island\": %zu, \"share\": %.2f},\n",
               kIslands * kPerIsland, kIslands, kPerIsland, kIslandShare);
  std::fprintf(f, "  \"p99_bound_us\": %.1f,\n", kP99BoundUs);
  std::fprintf(f, "  \"sweep\": [\n");
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const SweepPoint& pt = sweep[i];
    std::fprintf(f,
                 "    {\"threads\": %zu, \"shards\": %zu, \"consults\": %llu, "
                 "\"consults_per_sec\": %.1f, \"p50_us\": %.2f, \"p99_us\": %.2f, "
                 "\"p99_within_bound\": %s, \"latency_retried\": %s}%s\n",
                 pt.threads, pt.shards, static_cast<unsigned long long>(pt.consults),
                 pt.consults_per_sec, pt.p50_us, pt.p99_us,
                 pt.p99_us <= kP99BoundUs ? "true" : "false",
                 pt.latency_retried ? "true" : "false",
                 i + 1 < sweep.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"single_component\": {\n");
  std::fprintf(f, "    \"bridge_share\": %.2f,\n", kBridgeShare);
  std::fprintf(f, "    \"sweep\": [\n");
  for (std::size_t i = 0; i < fed_sweep.size(); ++i) {
    const FedPoint& pt = fed_sweep[i];
    std::fprintf(f,
                 "      {\"federated_requested\": %s, \"federated\": %s, "
                 "\"replicated\": %s, \"threads\": %zu, \"shards\": %zu, "
                 "\"consults\": %llu, \"consults_per_sec\": %.1f, "
                 "\"certified_grant_pct\": %.1f, \"gap_last_rel\": %.6f, "
                 "\"gap_max_rel\": %.6f, \"gap_probes\": %llu, \"credits\": %llu, "
                 "\"settlements\": %llu}%s\n",
                 pt.fed_requested ? "true" : "false", pt.federated ? "true" : "false",
                 pt.replicated ? "true" : "false", pt.threads, pt.shards,
                 static_cast<unsigned long long>(pt.consults), pt.consults_per_sec,
                 pt.certified_pct, pt.gap_last_rel, pt.gap_max_rel,
                 static_cast<unsigned long long>(pt.gap_probes),
                 static_cast<unsigned long long>(pt.credits),
                 static_cast<unsigned long long>(pt.settlements),
                 i + 1 < fed_sweep.size() ? "," : "");
  }
  std::fprintf(f, "    ],\n");
  std::fprintf(f, "    \"speedup_fed_8_vs_1\": %.3f,\n", speedup_fed);
  std::fprintf(f, "    \"speedup_replicated_8_vs_1\": %.3f\n", speedup_rep);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"speedup_8_vs_1\": %.3f\n}\n", speedup);
  std::fclose(f);
  std::printf("scale_shards: wrote %s\n", out_path.c_str());
  return 0;
}
