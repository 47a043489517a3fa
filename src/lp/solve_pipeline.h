// solve_pipeline.h -- the certified production LP solve.
//
// One revised-simplex solve (presolved unless the caller passes a
// workspace, see solve.h), then lp::Verifier certifies the answer against
// the ORIGINAL problem, using only the problem data. A certified answer is
// returned as trustworthy; an uncertified one never is. The caller then gets
// the attempt plus its rejection reason under PipelineStage::Exhausted, with
// certified() == false, and enforcement layers map that to an explicit
// conservative denial. The tableau and brute-force backends stay reachable
// through lp::solve as independent test and bench oracles, not as fallback
// stages: on every benchmark workload the revised answer certified on the
// first attempt (DESIGN.md §9.1).
//
// Telemetry (attempts, certification failures, exhausted solves,
// accumulated solver health counters) is kept in PipelineStats so operators
// can see degradation *before* it becomes wrong answers.
#pragma once

#include <cstdint>

#include "lp/certify.h"
#include "lp/problem.h"
#include "lp/result.h"
#include "lp/solve.h"
#include "lp/workspace.h"
#include "obs/sink.h"

namespace agora::lp {

enum class PipelineStage : int {
  ColdRevised = 0,
  Exhausted = 1,
};
inline constexpr int kPipelineStages = 1;

inline const char* to_string(PipelineStage s) {
  switch (s) {
    case PipelineStage::ColdRevised: return "cold-revised";
    case PipelineStage::Exhausted: return "exhausted";
  }
  return "unknown";
}

struct PipelineOptions {
  /// Solve knobs (presolve switch, basis representation, tolerances,
  /// iteration caps); the Verifier uses `solve.tols` too. The pipeline is
  /// the revised engine's, so `solve.backend` must stay Backend::Revised
  /// (the default); the constructor rejects anything else.
  SolveOptions solve;
  /// Telemetry destination. Metric handles are resolved once at pipeline
  /// construction; the solve path itself never touches the registry map.
  /// Events carry the solve ordinal as their time (the pipeline has no
  /// clock), so identically seeded runs emit identical streams.
  obs::Sink sink = obs::Sink::global();
};

struct PipelineStats {
  std::uint64_t solves = 0;
  /// Per-stage attempt / certification-failure counters, indexed by
  /// PipelineStage (Exhausted excluded).
  std::uint64_t attempts[kPipelineStages] = {};
  std::uint64_t failures[kPipelineStages] = {};
  std::uint64_t certified = 0;     ///< solves that returned a certified answer
  std::uint64_t primal_only = 0;   ///< ... of which only primal-certified
  std::uint64_t exhausted = 0;     ///< solves whose answer did not certify
  /// Solver health counters accumulated over every attempt.
  SolveStats solver;
};

/// Merge `from` into `into`: counters add, high-water marks take the max.
/// The aggregation every multi-pipeline owner needs (the engine's per-shard
/// allocators, a rebuilt allocator carrying its predecessor's telemetry).
void accumulate(PipelineStats& into, const PipelineStats& from);

struct PipelineResult {
  SolveResult result;
  Certificate certificate;
  /// Stage that produced `result` (Exhausted when it did not certify;
  /// certificate.reject then says why it was rejected).
  PipelineStage stage = PipelineStage::Exhausted;
  /// Stages tried beyond the first: always 0 with the one-stage chain, kept
  /// so plan and simulator telemetry (`solver_fallbacks`) keep their shape.
  std::uint64_t fallbacks = 0;

  bool certified() const { return certificate.certified; }
};

class SolvePipeline {
 public:
  explicit SolvePipeline(PipelineOptions opts = {});

  /// Solve and certify. `ws` (optional) follows the RevisedSimplexSolver
  /// workspace contract: scratch and the rhs repatch, no presolve.
  PipelineResult solve(const Problem& p, SolveWorkspace* ws = nullptr);

  const PipelineStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }
  const PipelineOptions& options() const { return opts_; }

 private:
  /// Registry handles cached at construction so the solve path is
  /// allocation-free (see obs/metrics.h: references are stable for the
  /// registry's lifetime).
  struct StageObs {
    obs::Counter* attempts = nullptr;
    obs::Counter* failures = nullptr;
    obs::LogHistogram* seconds = nullptr;
  };

  PipelineOptions opts_;
  PipelineStats stats_;
  Verifier verifier_;
  StageObs stage_obs_[kPipelineStages];
  obs::Counter* obs_solves_ = nullptr;
  obs::Counter* obs_certified_ = nullptr;
  obs::Counter* obs_exhausted_ = nullptr;
  obs::LogHistogram* obs_solve_seconds_ = nullptr;
  obs::LogHistogram* obs_iterations_ = nullptr;
};

}  // namespace agora::lp
