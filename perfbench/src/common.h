// common.h -- shared plumbing of the agora benchmark: arguments, the
// result every workload returns, percentiles, and process measurements.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "lp/solve_pipeline.h"
#include "spans.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  /// Where the traced run writes its spans (empty: keep them in memory only).
  std::string spans_out;
};

/// What one workload run reports. `e2e` and `layer` are keyed by the metric
/// names declared in main.cpp; a workload fills the ones its run measures.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;
  /// Sample count behind every reported percentile, by percentile name.
  std::map<std::string, std::uint64_t> samples;
  std::vector<std::string> errors;

  /// Record a failed correctness gate; the run then exits non-zero.
  void gate(bool ok, const std::string& what) {
    if (ok) return;
    correct = false;
    errors.push_back(what);
  }
};

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample; 0 if empty.
double percentile(std::vector<double> v, double q);

double median(std::vector<double> v);

double mean(const std::vector<double>& v);

/// Peak resident set size of this process so far, in MB.
double peak_rss_mb();

/// Traced vs untraced primary metric, as a percentage cost of tracing.
/// `higher_is_better` flips the sign convention so a positive value always
/// means tracing made the metric worse.
double overhead_pct(double untraced, double traced, bool higher_is_better);

/// Fill the lp.* per-layer metrics from the solve-chain telemetry gathered
/// between two solver_stats() readings.
void fill_lp_layers(std::map<std::string, double>& layer, const agora::lp::PipelineStats& before,
                    const agora::lp::PipelineStats& after);

/// Mean operations per drained shard-queue batch between two stats() readings.
double batch_mean(const agora::engine::EngineStats& before, const agora::engine::EngineStats& after);

// One entry point per workload (serve_zipf.cpp, commit_onecomp.cpp,
// case_study_day.cpp). Each measures for `args.seconds`; with args.trace it
// spends half the time untraced and half traced, and fills `layer` only.
Outcome run_serve_zipf(const Args& args);
Outcome run_commit_onecomp(const Args& args);
Outcome run_case_study_day(const Args& args);

}  // namespace perfbench
