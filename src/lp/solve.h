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
// are independent test and bench oracles. Every call solves the problem it
// is given, cold, with no reductions: the allocator's consults already pose
// the requester's support model (alloc/support_model.h), which is the exact
// presolve of the full allocation LP.
//
// Production solves go through lp::SolvePipeline (solve_pipeline.h), which
// runs the revised backend and certifies its answer.
#pragma once

#include <cstdint>

#include "lp/problem.h"
#include "lp/result.h"
#include "lp/tolerances.h"
#include "lp/workspace.h"

namespace agora::lp {

enum class Backend {
  /// Revised simplex over a sparse LU basis: the production engine, and the
  /// only backend that uses a SolveWorkspace.
  Revised,
  /// Dense two-phase tableau simplex: an independent reference for small
  /// problems, up to a few dozen rows (the test corpora reach 60). Its
  /// answers are trusted only once lp::Verifier certifies them: on 200
  /// banded full compact allocation models at n = 100 (101 rows) it took
  /// up to 11,891 pivots (the revised engine averaged 127) and 144 answers
  /// failed certification (bad Farkas certificates, primal-infeasible
  /// "optimal" points).
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

/// Every knob of an LP solve in one struct: backend choice, solver tuning,
/// and the centralized numerical tolerances.
struct SolveOptions {
  Backend backend = Backend::Revised;
  /// Feasibility / reduced-cost tolerance.
  double tol = 1e-9;
  /// Hard cap on simplex iterations per phase.
  std::uint64_t max_iterations = 100000;
  /// Consecutive degenerate pivots before switching to Bland's rule.
  std::uint64_t stall_threshold = 64;
  /// Basis-enumeration cap for Backend::BruteForce.
  std::uint64_t brute_force_max_bases = 200'000;
  /// Centralized numerical thresholds (shared with the certification
  /// layer).
  Tolerances tols;

  /// The solver-level subset, for the concrete implementations.
  SolverOptions solver_options() const {
    SolverOptions o;
    o.tol = tol;
    o.max_iterations = max_iterations;
    o.stall_threshold = stall_threshold;
    o.tols = tols;
    return o;
  }
};

/// Solve `p` with the selected backend. `ws` (revised backend only) supplies
/// reusable scratch; every solve is cold, so the answer equals the
/// workspace-free solve.
SolveResult solve(const Problem& p, const SolveOptions& opts = {},
                  SolveWorkspace* ws = nullptr);

}  // namespace agora::lp
