// plan.h -- the outcome of one allocation decision.
#pragma once

#include <cstdint>
#include <vector>

#include "util/status.h"

namespace agora::alloc {

enum class PlanStatus {
  Satisfied,     ///< the full requested amount was allocated
  Insufficient,  ///< the requester's capacity C_A is below the request
  SolverFailed,  ///< the LP solver gave up (iteration limit); should not
                 ///< happen on well-formed systems
  Denied,        ///< conservative denial: the certified solve chain was
                 ///< exhausted without a verifiable answer, so no grant is
                 ///< issued (never an uncertified grant)
};

/// The agora::Status a plan outcome maps to (DESIGN.md §11.5): the unified
/// error currency carried by engine submit results and rms replies.
inline Status to_status(PlanStatus s) {
  switch (s) {
    case PlanStatus::Satisfied: return Status();
    case PlanStatus::Insufficient: return Status::insufficient();
    case PlanStatus::SolverFailed: return Status::solver_failed();
    case PlanStatus::Denied: return Status::denied();
  }
  return Status::internal("unknown PlanStatus");
}

struct AllocationPlan {
  PlanStatus status = PlanStatus::Insufficient;

  /// Physical amount drawn from each principal's capacity (d_k in DESIGN.md;
  /// V_k - V'_k in the paper). Sums to the request when Satisfied.
  std::vector<double> draw;

  /// Optimal global perturbation theta = max_i (C_i - C'_i).
  double theta = 0.0;

  /// Availability before and after the allocation.
  std::vector<double> capacity_before;
  std::vector<double> capacity_after;

  /// Simplex iterations spent.
  std::uint64_t lp_iterations = 0;

  /// True when the LP answer behind this plan (grant OR denial) carries an
  /// lp::Certificate that survived independent verification.
  bool certified = false;

  /// Solve stages tried beyond the first before an answer certified. The
  /// certified solve is one stage (lp::SolvePipeline), so this reads 0.
  std::uint64_t solver_fallbacks = 0;

  /// Capacity-snapshot epoch this decision was made against, stamped by the
  /// engine (see engine::CapacitySnapshot::epoch). 0 for plans produced by a
  /// bare Allocator outside the engine.
  std::uint64_t decision_epoch = 0;

  bool satisfied() const { return status == PlanStatus::Satisfied; }
  /// Unified-status view of `status` (see to_status(PlanStatus)).
  Status to_status() const { return alloc::to_status(status); }
  double total_drawn() const {
    double s = 0.0;
    for (double d : draw) s += d;
    return s;
  }
};

}  // namespace agora::alloc
