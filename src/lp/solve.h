// solve.h -- the single public LP entry point.
//
//   SolveResult r = lp::solve(problem);                       // defaults
//   SolveResult r = lp::solve(problem, opts);                 // tuned
//   SolveResult r = lp::solve(problem, opts, &workspace);     // amortized
//
// Callers pick a Backend instead of instantiating a concrete solver class;
// the concrete implementations (SimplexSolver, RevisedSimplexSolver,
// brute_force_solve) are an internal detail of src/lp and their headers are
// not installed. Revised is the production engine; Tableau and BruteForce
// are independent test and bench oracles. SolveOptions also owns the
// presolve switch: by default a workspace-free solve runs presolve ->
// reduced solve -> postsolve, with the mapped result (primal, duals,
// objective) valid for -- and certifiable against -- the ORIGINAL problem.
// Presolve is transparently skipped when it cannot help or would break a
// stronger contract:
//
//   * workspace solves never presolve: the rhs repatch keys on the original
//     problem (the allocator's consults are workspace solves of a support
//     model it already trimmed to the requester's reach, see
//     alloc/support_model.h);
//   * a non-Optimal reduced outcome (infeasible/unbounded/decided-
//     infeasible) falls back to solving the original problem directly, so
//     Farkas/ray certificates always refer to the caller's problem;
//   * the brute-force backend is a test oracle for tiny problems and always
//     solves the original directly.
//
// Production solves go through lp::SolvePipeline (solve_pipeline.h), which
// runs the revised backend and certifies its answer.
//
// With `presolve = false` the call is bit-identical to invoking the chosen
// concrete solver directly, which is exactly what the historical API did.
#pragma once

#include <cstdint>

#include "lp/problem.h"
#include "lp/result.h"
#include "lp/tolerances.h"
#include "lp/workspace.h"

namespace agora::lp {

enum class Backend {
  /// Revised simplex over a factored basis (sparse LU by default): the
  /// production engine, and the only backend that uses a SolveWorkspace.
  Revised,
  /// Dense two-phase tableau simplex: the simple, auditable reference that
  /// tests and benches check the revised engine against.
  Tableau,
  /// Exhaustive basic-solution enumeration: exact test oracle for tiny
  /// problems.
  /// Cannot detect unboundedness; throws PreconditionError past
  /// `brute_force_max_bases`.
  BruteForce,
};

inline const char* to_string(Backend b) {
  switch (b) {
    case Backend::Revised: return "revised";
    case Backend::Tableau: return "tableau";
    case Backend::BruteForce: return "brute-force";
  }
  return "unknown";
}

/// Every knob of an LP solve in one struct: backend choice, presolve switch,
/// solver tuning, and the centralized numerical tolerances.
struct SolveOptions {
  Backend backend = Backend::Revised;
  /// Run presolve -> solve -> postsolve (see file comment for when it is
  /// transparently skipped). Off reproduces the historical direct solve
  /// bit for bit.
  bool presolve = true;
  /// Basis representation for the revised backend.
  BasisRep basis = BasisRep::SparseLu;
  /// Feasibility / reduced-cost tolerance.
  double tol = 1e-9;
  /// Hard cap on simplex iterations per phase.
  std::uint64_t max_iterations = 100000;
  /// Consecutive degenerate pivots before switching to Bland's rule.
  std::uint64_t stall_threshold = 64;
  /// Basis-enumeration cap for Backend::BruteForce.
  std::uint64_t brute_force_max_bases = 200'000;
  /// Centralized numerical thresholds (shared with presolve and the
  /// certification layer).
  Tolerances tols;

  /// The solver-level subset, for the concrete implementations.
  SolverOptions solver_options() const {
    SolverOptions o;
    o.tol = tol;
    o.max_iterations = max_iterations;
    o.stall_threshold = stall_threshold;
    o.basis = basis;
    o.tols = tols;
    return o;
  }
};

/// Solve `p` with the selected backend. `ws` (revised backend only) supplies
/// reusable scratch; every solve is cold, so the answer equals the
/// workspace-free solve with presolve off. See the file comment for the
/// presolve contract.
SolveResult solve(const Problem& p, const SolveOptions& opts = {},
                  SolveWorkspace* ws = nullptr);

}  // namespace agora::lp
