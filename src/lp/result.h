// result.h -- outcome of an LP solve. Infeasible/unbounded are *expected*
// outcomes, reported in-band rather than thrown.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "lp/tolerances.h"

namespace agora::lp {

enum class Status {
  Optimal,
  Infeasible,
  Unbounded,
  IterationLimit,
};

inline const char* to_string(Status s) {
  switch (s) {
    case Status::Optimal: return "optimal";
    case Status::Infeasible: return "infeasible";
    case Status::Unbounded: return "unbounded";
    case Status::IterationLimit: return "iteration-limit";
  }
  return "unknown";
}

/// Per-solve numerical health counters, populated by the revised simplex
/// (the tableau solver fills what applies). Consumed by lp::SolvePipeline's
/// degradation telemetry.
struct SolveStats {
  /// Full basis-inverse rebuilds (pivot-count cadence + residual-triggered).
  std::uint64_t refactorizations = 0;
  /// The subset of refactorizations forced by an x_B residual check.
  std::uint64_t residual_refactorizations = 0;
  /// Iterative-refinement corrections applied to x_B.
  std::uint64_t refinement_steps = 0;
  /// Pivots taken under Bland's rule (stall / anti-cycling mode).
  std::uint64_t bland_pivots = 0;
  /// Cheap condition estimate ||B||_inf * |u_max/u_min| of the sparse-LU
  /// basis at the last refactorization (0 when none happened).
  double condition_estimate = 0.0;
  /// Worst relative ||b - B x_B||_inf observed during the solve.
  double max_xb_residual = 0.0;
  /// Sparse-LU basis telemetry: nonzeros of the factored basis columns, of
  /// L+U, and the worst product-form eta-file length, all at/since the last
  /// refactorization.
  std::uint64_t basis_nnz = 0;
  std::uint64_t lu_nnz = 0;
  std::uint64_t max_eta_count = 0;
};

struct SolveResult {
  Status status = Status::Infeasible;
  /// Objective value in the problem's own sense (only valid when Optimal).
  double objective = 0.0;
  /// Primal solution in the problem's original variables.
  std::vector<double> x;
  /// Shadow prices: duals[i] is the rate of change of the optimal objective
  /// (in the problem's own sense) per unit increase of constraint i's rhs.
  /// Valid only when Optimal; empty if the solver did not compute them.
  std::vector<double> duals;
  /// Farkas certificate for Status::Infeasible: standard-form row
  /// multipliers y with y'A_j <= 0 for every non-artificial column and
  /// y'b > 0 (see lp::Verifier::certify_infeasible). Empty if the solver
  /// did not produce one (e.g. the zero-variable quick path).
  std::vector<double> farkas;
  /// Unboundedness certificate for Status::Unbounded: a standard-form ray d
  /// with d >= 0, A d = 0 and c'd < 0; `x` then holds the feasible point the
  /// ray improves from.
  std::vector<double> ray;
  /// Simplex iterations across both phases.
  std::uint64_t iterations = 0;
  /// Numerical health counters for this solve.
  SolveStats stats;

  bool optimal() const { return status == Status::Optimal; }
};

/// Solver tuning knobs shared by both simplex implementations.
struct SolverOptions {
  /// Feasibility / reduced-cost tolerance.
  double tol = 1e-9;
  /// Hard cap on simplex iterations per phase.
  std::uint64_t max_iterations = 100000;
  /// After this many consecutive degenerate pivots, switch to Bland's rule
  /// (guarantees termination at the cost of speed).
  std::uint64_t stall_threshold = 64;
  /// Centralized numerical thresholds (shared with the certification
  /// layer; see tolerances.h).
  Tolerances tols;
};

}  // namespace agora::lp
