// solve_pipeline.h -- staged, self-verifying LP solve chain.
//
// A single simplex implementation answering alone is a single point of
// failure. The pipeline escalates through a fixed chain --
//
//     warm revised -> cold revised -> two-phase tableau
//
// where the warm stage runs only when the caller passes a workspace that
// holds a previous optimal basis (alloc::Allocator invalidates its
// workspace before every consult, so only tests reach that stage) -- and
// after EVERY attempt asks lp::Verifier to certify the answer against the
// original problem. The tableau is the one independent engine in the
// chain: it shares no basis machinery with the revised solver, so it can
// rescue an answer the revised solver got wrong. The first certified
// answer wins; an uncertified answer is never returned as trustworthy.
// When the whole chain is exhausted the caller gets the last attempt plus
// its rejection reason, with certified() == false -- enforcement layers
// map that to an explicit conservative denial.
//
// Per-stage telemetry (attempts, certification failures, fallback depth,
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
  WarmRevised = 0,
  ColdRevised = 1,
  Tableau = 2,
  Exhausted = 3,
};
inline constexpr int kPipelineStages = 3;

inline const char* to_string(PipelineStage s) {
  switch (s) {
    case PipelineStage::WarmRevised: return "warm-revised";
    case PipelineStage::ColdRevised: return "cold-revised";
    case PipelineStage::Tableau: return "tableau";
    case PipelineStage::Exhausted: return "exhausted";
  }
  return "unknown";
}

struct PipelineOptions {
  /// Solve knobs (presolve switch, basis representation, tolerances,
  /// iteration caps) shared by the stages; the Verifier uses `solve.tols`
  /// too. Each stage fixes its own engine, so `solve.backend` must stay
  /// Backend::Revised (the default); the constructor rejects anything else.
  /// Presolve only runs on the first attempt -- fallback stages solve the
  /// original problem directly so the cross-check is independent of the
  /// reductions too.
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
  std::uint64_t exhausted = 0;     ///< solves where no stage certified
  std::uint64_t max_fallback_depth = 0;  ///< worst # of extra stages needed
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
  /// Stage that produced `result` (Exhausted when nothing certified; the
  /// result is then the last attempt and certificate.reject says why it was
  /// rejected).
  PipelineStage stage = PipelineStage::Exhausted;
  /// Stages tried beyond the first (0 on the happy path).
  std::uint64_t fallbacks = 0;

  bool certified() const { return certificate.certified; }
};

class SolvePipeline {
 public:
  explicit SolvePipeline(PipelineOptions opts = {});

  /// Run the chain. `ws` (optional) follows the RevisedSimplexSolver
  /// workspace contract; the warm stage runs only when it holds a warm
  /// basis. When a revised answer fails certification the workspace is
  /// invalidated before the next stage, so a poisoned basis cannot survive
  /// into later solves.
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
