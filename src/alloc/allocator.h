// allocator.h -- LP-based enforcement of sharing agreements (Section 3).
//
// Given an AgreementSystem and a request (principal A wants amount x of the
// resource), the allocator decides which principals' physical capacity to
// draw on, such that
//
//   * every draw is covered by a (possibly transitive) agreement:
//       0 <= d_k <= U_kA (entitlement of A at k; own node bounded by V_A),
//   * the request is met:  sum_k d_k = x,
//   * the *global perturbation* theta = max_i (C_i - C'_i) is minimized,
//     leaving the system maximally able to serve future requests from any
//     principal (the paper's optimization criterion).
//
// The LP posed is the compact model's restriction to the requester's
// support (support_model.h). The full compact model has draw variables d_k
// plus theta; the capacity drop at i is the linear map
// drop_i = sum_k d_k * That_ki with That_ii = retained_i and That_ki = K_ki,
// so it is (n+1) variables and (n+1) rows. Its restriction keeps only the
// d_k with U_kA > 0, and only the perturbation rows those columns touch. The
// restriction is exact -- a dropped d_k is fixed at 0 by its bounds, and
// with those at 0 a dropped row reads -theta <= 0, implied by theta >= 0 --
// so the pipeline certifies an answer with the same status and optimum as
// the full model's, and the draw is lifted back to n coordinates with zeros
// elsewhere.
//
// The paper's constraint (3), C'_A = C_A - x, conflicts with constraint (5)
// whenever capacity is drawn over an agreement with share < 1 (see
// DESIGN.md), so the allocator drops it. The paper's verbatim model
// (n^2 + n + 1 variables, constraints (1)-(6)), the full compact model and
// constraint (3) live on as test oracles (tests/oracle_models.h).
//
// Every LP runs through lp::SolvePipeline: one cold revised-simplex solve,
// certified by lp::Verifier; an answer that does not certify is a
// conservative denial. Each consult starts from the slack basis, so a plan
// is a pure function of (system state, request) and never of the consults
// that came before it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "agree/capacity.h"
#include "agree/matrices.h"
#include "alloc/allocator_base.h"
#include "alloc/plan.h"
#include "alloc/support_model.h"
#include "lp/problem.h"
#include "lp/result.h"
#include "lp/solve_pipeline.h"

namespace agora::alloc {

struct AllocatorOptions {
  agree::TransitiveOptions transitive;  ///< level limit etc. (Figs 8-11)
  /// LP tolerances and iteration caps (see lp/solve.h), with lp's own
  /// defaults. `solve.backend` must stay Revised: the solve pipeline
  /// rejects any other engine at construction.
  lp::SolveOptions solve;
  /// Telemetry destination, propagated into the solve pipeline. Metric
  /// handles are resolved once at Allocator construction.
  obs::Sink sink = obs::Sink::global();
};

class Allocator : public AllocatorBase {
 public:
  Allocator(agree::AgreementSystem sys, AllocatorOptions opts = {});

  /// Availability report (T/K shares, entitlements U, capacities C).
  const agree::CapacityReport& capacities() const { return report_; }
  const agree::AgreementSystem& system() const override { return sys_; }
  std::size_t size() const override { return sys_.size(); }

  /// Decide an allocation for principal `a` requesting `amount`. Does not
  /// mutate the system; call apply() to commit the plan.
  AllocationPlan allocate(std::size_t a, double amount) const override;

  /// Largest request principal `a` could have satisfied right now (C_a).
  double available_to(std::size_t a) const override { return report_.capacity.at(a); }

  /// Commit a plan: subtract draws from capacities and recompute the
  /// availability report.
  void apply(const AllocationPlan& plan) override;

  /// Return capacity to principals (e.g. when borrowed work completes).
  void release(const std::vector<double>& give_back) override;

  /// Replace all capacities (the simulator refreshes V_i each epoch from
  /// LRM reports) without touching the agreement matrices. A no-op (skipping
  /// the O(n^2) availability refresh) when the vector is unchanged. The span
  /// overload copies into existing storage and is allocation-free.
  void set_capacities(std::vector<double> v);
  void set_capacities(std::span<const double> v) override;

  /// Degradation telemetry of the certified solve (attempts, certification
  /// failures, exhausted solves, solver health counters).
  const lp::PipelineStats* solver_stats() const override { return &pipeline_.stats(); }

 private:
  /// Pose the requester's support model, solve and certify it, and lift the
  /// answer back to a plan over all n principals.
  AllocationPlan solve_support(std::size_t a, double amount) const;
  /// Refresh entitlements/capacities from the cached share matrix. The
  /// transitive closure depends only on S, so capacity updates (which the
  /// simulator performs every scheduling epoch) stay O(n^2).
  void refresh_availability();

  agree::AgreementSystem sys_;
  AllocatorOptions opts_;
  agree::CapacityReport report_;
  /// Cached registry handles (see obs/metrics.h); plan counters mutate
  /// behind const allocate().
  obs::LogHistogram* obs_plan_seconds_ = nullptr;
  obs::Counter* obs_clamp_k_ = nullptr;
  obs::Counter* obs_clamp_u_ = nullptr;
  obs::Counter* obs_plans_satisfied_ = nullptr;
  obs::Counter* obs_plans_insufficient_ = nullptr;
  obs::Counter* obs_plans_denied_ = nullptr;
  obs::Counter* obs_plans_failed_ = nullptr;
  /// Per-consult support model + solver scratch, mutable behind const
  /// allocate(). Not synchronized: one Allocator serves one allocate() at a
  /// time.
  mutable SupportModel model_;
  /// Certified solve chain (statistics mutate behind const allocate()).
  mutable lp::SolvePipeline pipeline_;
};

}  // namespace agora::alloc
