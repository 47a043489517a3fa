// scale_shards -- shard-count sweep for the EnforcementEngine (DESIGN.md
// §11.6): a 64-participant economy built as 8 complete-graph sharing islands
// of 8, measured at 1/2/4/8 worker shards.
//
// Connectivity partitioning turns each island into its own shard, so an
// admission consult solves a 9-variable LP instead of the 65-variable
// full-system LP. The support model gives the one-shard consult that same
// island-sized LP, so what the ratio measures now is mostly parallelism.
//
// Two phases per sweep point:
//   * throughput -- pipelined waves of submit() (one per participant),
//     futures drained per wave: consults/sec over >= 0.5 s of waves,
//   * latency    -- serial blocking consult() round trips: p50/p99 micros.
//     The median p99 over the runs is held to a recorded regression bound
//     (kP99BoundUs).
//
// A second sweep runs the same islands joined into ONE component by weak
// ring bridges: the exact one-shard point, then 2/4/8 threads, where the
// engine hash-routes requests over full replicas (DESIGN.md §11.2). Every
// point solves the same global min-theta LP per consult, so the sweep
// measures queueing and parallelism, never a different answer.
//
// Each point is measured kRuns times, interleaved across thread counts (one
// round visits every point before the next round starts), so host drift
// spreads over all points instead of landing on one. Every run builds a
// fresh engine and warms it with one consult per participant. The file
// records each point's median and interquartile range beside the raw runs.
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

constexpr std::size_t kRuns = 5;
constexpr std::size_t kThreads[] = {1, 2, 4, 8};

/// Regression bound on the serial consult p99, checked against the median
/// p99 over kRuns runs (historic single runs sit well under it at every
/// shard count; a median is not moved by one scheduler hiccup).
constexpr double kP99BoundUs = 1500.0;

/// Median and quartiles of a sample (linear interpolation between ranks).
struct Summary {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  double iqr() const { return q3 - q1; }
};

Summary summarize(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const auto at = [&](double p) {
    const double r = p * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(r);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (r - static_cast<double>(lo)) * (v[hi] - v[lo]);
  };
  return Summary{at(0.5), at(0.25), at(0.75)};
}

/// One measured run of one sweep point.
struct Run {
  std::size_t shards = 0;
  bool replicated = false;
  double consults_per_sec = 0.0;
  double certified_pct = 0.0;  ///< certified share of granted consults
  double p50_us = 0.0;
  double p99_us = 0.0;
};

std::vector<double> request_amounts(std::size_t n) {
  agora::Pcg32 rng(7);
  std::vector<double> amounts(n);
  for (std::size_t i = 0; i < n; ++i) amounts[i] = rng.uniform(0.5, 4.0);
  return amounts;
}

/// Throughput phase: pipelined waves, one submit per participant, drained
/// per wave, until at least half a second has been measured.
void measure_throughput(agora::engine::EnforcementEngine& eng,
                        const std::vector<double>& amounts, Run& run) {
  const std::size_t n = amounts.size();
  std::uint64_t consults = 0, granted = 0, certified = 0;
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
    consults += n;
    elapsed = std::chrono::duration<double>(Clock::now() - t0).count();
  }
  run.consults_per_sec = static_cast<double>(consults) / elapsed;
  run.certified_pct =
      granted == 0 ? 0.0
                   : 100.0 * static_cast<double>(certified) / static_cast<double>(granted);
}

/// Latency phase: serial blocking consults, round-robin over participants.
void measure_latency(agora::engine::EnforcementEngine& eng,
                     const std::vector<double>& amounts, Run& run) {
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
  run.p50_us = lat_us[kProbes / 2];
  run.p99_us = lat_us[(kProbes * 99) / 100];
}

/// One run on a fresh engine: warm-up (one consult per participant sizes
/// every shard's model and solver scratch), throughput, then latency when
/// asked for.
Run measure(const agora::agree::AgreementSystem& sys,
            const agora::engine::EngineOptions& opts, bool latency) {
  agora::engine::EnforcementEngine eng(sys, opts);
  const std::vector<double> amounts = request_amounts(sys.size());
  for (std::size_t i = 0; i < sys.size(); ++i) (void)eng.consult(i, amounts[i]);
  Run run;
  run.shards = eng.num_shards();
  run.replicated = eng.replicated();
  measure_throughput(eng, amounts, run);
  if (latency) measure_latency(eng, amounts, run);
  return run;
}

/// Every run of one sweep point.
struct Point {
  std::size_t threads = 0;
  std::vector<Run> runs;

  std::vector<double> field(double Run::*f) const {
    std::vector<double> out;
    for (const Run& r : runs) out.push_back(r.*f);
    return out;
  }
  Summary summary(double Run::*f) const { return summarize(field(f)); }
  // The partition is a pure function of (economy, threads): every run
  // sees the same shard layout.
  std::size_t shards() const { return runs.front().shards; }
  bool replicated() const { return runs.front().replicated; }
  double min_certified_pct() const {
    double m = 100.0;
    for (const Run& r : runs) m = std::min(m, r.certified_pct);
    return m;
  }
};

/// kRuns rounds, each visiting every thread count in order.
std::vector<Point> sweep(const agora::agree::AgreementSystem& sys, bool latency,
                         std::size_t max_level) {
  std::vector<Point> points;
  for (const std::size_t t : kThreads) points.push_back(Point{t, {}});
  for (std::size_t round = 0; round < kRuns; ++round) {
    for (Point& pt : points) {
      agora::engine::EngineOptions opts;
      opts.threads = pt.threads;
      opts.sink = agora::obs::Sink::none();
      opts.alloc.sink = agora::obs::Sink::none();
      if (max_level > 0) opts.alloc.transitive.max_level = max_level;
      pt.runs.push_back(measure(sys, opts, latency));
    }
  }
  return points;
}

void print_runs(std::FILE* f, const char* key, const Point& pt, double Run::*field) {
  std::fprintf(f, "\"%s\": [", key);
  for (std::size_t r = 0; r < pt.runs.size(); ++r)
    std::fprintf(f, "%s%.2f", r ? ", " : "", pt.runs[r].*field);
  std::fprintf(f, "]");
}

void print_summary(std::FILE* f, const char* key, const Summary& s) {
  std::fprintf(f, "\"%s\": %.2f, \"%s_q1\": %.2f, \"%s_q3\": %.2f, \"%s_iqr\": %.2f", key,
               s.median, key, s.q1, key, s.q3, key, s.iqr());
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_engine.json";

  const std::vector<Point> islands = sweep(island_economy(), /*latency=*/true, 0);
  for (const Point& pt : islands) {
    const Summary tput = pt.summary(&Run::consults_per_sec);
    const Summary p99 = pt.summary(&Run::p99_us);
    std::printf(
        "threads=%zu shards=%zu  %10.0f consults/s (IQR %.0f)  p50 %7.1f us  "
        "p99 %7.1f us (IQR %.1f)%s\n",
        pt.threads, pt.shards(), tput.median, tput.iqr(), pt.summary(&Run::p50_us).median,
        p99.median, p99.iqr(), p99.median > kP99BoundUs ? "  ** p99 OVER BOUND **" : "");
  }
  const double speedup = islands.back().summary(&Run::consults_per_sec).median /
                         islands.front().summary(&Run::consults_per_sec).median;
  std::printf("speedup 8 vs 1 threads (medians): %.2fx\n", speedup);

  // Single-component sweep: the transitive DFS over the connected 64-node
  // economy is bounded at 3 hops, as in commit_onecomp.
  const std::vector<Point> one = sweep(bridged_economy(), /*latency=*/false, 3);
  for (const Point& pt : one) {
    const Summary tput = pt.summary(&Run::consults_per_sec);
    std::printf("one-component threads=%zu shards=%zu%s  %10.0f consults/s (IQR %.0f)  "
                "certified %.1f%%\n",
                pt.threads, pt.shards(), pt.replicated() ? " (replicated)" : " (exact)",
                tput.median, tput.iqr(), pt.min_certified_pct());
  }
  const double speedup_rep = one.back().summary(&Run::consults_per_sec).median /
                             one.front().summary(&Run::consults_per_sec).median;
  std::printf("one-component speedup 8 vs 1 shards (medians): replicated %.2fx\n",
              speedup_rep);

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
  std::fprintf(f, "  \"runs_per_point\": %zu,\n", kRuns);
  std::fprintf(f, "  \"p99_bound_us\": %.1f,\n", kP99BoundUs);
  std::fprintf(f, "  \"sweep\": [\n");
  for (std::size_t i = 0; i < islands.size(); ++i) {
    const Point& pt = islands[i];
    const Summary p99 = pt.summary(&Run::p99_us);
    std::fprintf(f, "    {\"threads\": %zu, \"shards\": %zu, ", pt.threads, pt.shards());
    print_summary(f, "consults_per_sec", pt.summary(&Run::consults_per_sec));
    std::fprintf(f, ", ");
    print_summary(f, "p50_us", pt.summary(&Run::p50_us));
    std::fprintf(f, ", ");
    print_summary(f, "p99_us", p99);
    std::fprintf(f, ", \"p99_within_bound\": %s, ",
                 p99.median <= kP99BoundUs ? "true" : "false");
    print_runs(f, "consults_per_sec_runs", pt, &Run::consults_per_sec);
    std::fprintf(f, ", ");
    print_runs(f, "p99_us_runs", pt, &Run::p99_us);
    std::fprintf(f, "}%s\n", i + 1 < islands.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"single_component\": {\n");
  std::fprintf(f, "    \"bridge_share\": %.2f,\n", kBridgeShare);
  std::fprintf(f, "    \"sweep\": [\n");
  for (std::size_t i = 0; i < one.size(); ++i) {
    const Point& pt = one[i];
    std::fprintf(f, "      {\"threads\": %zu, \"shards\": %zu, \"replicated\": %s, ",
                 pt.threads, pt.shards(), pt.replicated() ? "true" : "false");
    print_summary(f, "consults_per_sec", pt.summary(&Run::consults_per_sec));
    std::fprintf(f, ", \"certified_grant_pct\": %.1f, ", pt.min_certified_pct());
    print_runs(f, "consults_per_sec_runs", pt, &Run::consults_per_sec);
    std::fprintf(f, "}%s\n", i + 1 < one.size() ? "," : "");
  }
  std::fprintf(f, "    ],\n");
  std::fprintf(f, "    \"speedup_replicated_8_vs_1\": %.3f\n", speedup_rep);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"speedup_8_vs_1\": %.3f\n}\n", speedup);
  std::fclose(f);
  std::printf("scale_shards: wrote %s\n", out_path.c_str());
  return 0;
}
