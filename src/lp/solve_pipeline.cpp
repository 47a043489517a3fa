#include "lp/solve_pipeline.h"

#include <algorithm>
#include <string>

#include "obs/timer.h"
#include "util/error.h"

namespace agora::lp {

namespace {

void accumulate(SolveStats& into, const SolveStats& s) {
  into.refactorizations += s.refactorizations;
  into.residual_refactorizations += s.residual_refactorizations;
  into.refinement_steps += s.refinement_steps;
  into.bland_pivots += s.bland_pivots;
  into.condition_estimate = std::max(into.condition_estimate, s.condition_estimate);
  into.max_xb_residual = std::max(into.max_xb_residual, s.max_xb_residual);
  // Snapshot-style gauges: keep the high-water mark, not a meaningless sum.
  into.basis_nnz = std::max(into.basis_nnz, s.basis_nnz);
  into.lu_nnz = std::max(into.lu_nnz, s.lu_nnz);
  into.max_eta_count = std::max(into.max_eta_count, s.max_eta_count);
  into.presolve_rows_removed = std::max(into.presolve_rows_removed, s.presolve_rows_removed);
  into.presolve_cols_removed = std::max(into.presolve_cols_removed, s.presolve_cols_removed);
}

}  // namespace

void accumulate(PipelineStats& into, const PipelineStats& from) {
  into.solves += from.solves;
  for (int s = 0; s < kPipelineStages; ++s) {
    into.attempts[s] += from.attempts[s];
    into.failures[s] += from.failures[s];
  }
  into.certified += from.certified;
  into.primal_only += from.primal_only;
  into.exhausted += from.exhausted;
  accumulate(into.solver, from.solver);
}

SolvePipeline::SolvePipeline(PipelineOptions opts)
    : opts_(opts), verifier_(opts.solve.tols) {
  AGORA_REQUIRE(opts_.solve.backend == Backend::Revised,
                "the solve pipeline runs the revised engine; solve.backend must stay Revised");
  // Resolve all metric handles up front; solve() then only bumps atomics.
  for (int i = 0; i < kPipelineStages; ++i) {
    const std::string prefix =
        std::string("lp.pipeline.stage.") + to_string(static_cast<PipelineStage>(i));
    stage_obs_[i].attempts = &opts_.sink.counter(prefix + ".attempts");
    stage_obs_[i].failures = &opts_.sink.counter(prefix + ".cert_failures");
    stage_obs_[i].seconds = &opts_.sink.histogram(prefix + ".seconds");
  }
  obs_solves_ = &opts_.sink.counter("lp.pipeline.solves");
  obs_certified_ = &opts_.sink.counter("lp.pipeline.certified");
  obs_exhausted_ = &opts_.sink.counter("lp.pipeline.exhausted");
  obs_solve_seconds_ = &opts_.sink.histogram("lp.pipeline.solve.seconds");
  obs_iterations_ = &opts_.sink.histogram("lp.pipeline.iterations");
}

PipelineResult SolvePipeline::solve(const Problem& p, SolveWorkspace* ws) {
  ++stats_.solves;
  obs_solves_->inc();
  // Event time = solve ordinal: deterministic under identical inputs.
  const double ordinal = static_cast<double>(stats_.solves);
  const auto actor = static_cast<std::uint32_t>(stats_.solves);
  opts_.sink.event(ordinal, obs::EventKind::LpSolveStarted, actor);
  obs::ScopedTimer solve_timer(obs_solve_seconds_);
  PipelineResult out;

  constexpr int kStage = static_cast<int>(PipelineStage::ColdRevised);
  const double stage_start = obs::kEnabled ? obs::now_seconds() : 0.0;
  out.result = lp::solve(p, opts_.solve, ws);
  ++stats_.attempts[kStage];
  accumulate(stats_.solver, out.result.stats);
  if constexpr (obs::kEnabled) {
    stage_obs_[kStage].attempts->inc();
    stage_obs_[kStage].seconds->observe(obs::now_seconds() - stage_start);
  }

  out.certificate = verifier_.certify(p, out.result);
  if (out.certificate.certified) {
    ++stats_.certified;
    if (out.certificate.primal_only) ++stats_.primal_only;
    obs_certified_->inc();
    obs_iterations_->observe(static_cast<double>(out.result.iterations));
    opts_.sink.event(ordinal, obs::EventKind::LpSolveCertified, actor,
                     static_cast<std::uint32_t>(kStage), 0.0,
                     static_cast<double>(out.result.iterations));
    out.stage = PipelineStage::ColdRevised;
    return out;
  }

  ++stats_.failures[kStage];
  stage_obs_[kStage].failures->inc();
  ++stats_.exhausted;
  obs_exhausted_->inc();
  opts_.sink.event(ordinal, obs::EventKind::LpSolveExhausted, actor);
  out.stage = PipelineStage::Exhausted;
  return out;
}

}  // namespace agora::lp
