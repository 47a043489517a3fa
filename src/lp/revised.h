// revised.h -- revised primal simplex over a sparse LU basis.
//
// Identical interface and semantics to SimplexSolver, but iterates on the
// factored m x m basis instead of the full tableau: pricing touches original
// (sparse-ish) columns, so per-iteration work follows the factor and column
// nonzeros instead of O(m * n). This is the production engine behind
// lp::solve and lp::SolvePipeline; the micro_lp bench quantifies the
// difference. Every solve is a cold two-phase solve from the slack/artificial
// basis.
#pragma once

#include "lp/problem.h"
#include "lp/result.h"
#include "lp/workspace.h"

namespace agora::lp {

class RevisedSimplexSolver {
 public:
  explicit RevisedSimplexSolver(SolverOptions opts = {}) : opts_(opts) {}

  /// One-shot cold solve.
  SolveResult solve(const Problem& p) const;

  /// Amortized solve: `ws` (when non-null) supplies reusable scratch and
  /// the standard-form rhs repatch (workspace.h). The answer is bit-identical
  /// to the workspace-free solve.
  SolveResult solve(const Problem& p, SolveWorkspace* ws) const;

 private:
  SolverOptions opts_;
};

}  // namespace agora::lp
