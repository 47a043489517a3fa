#include "lp/solve.h"

#include "lp/brute_force.h"
#include "lp/revised.h"
#include "lp/simplex.h"

namespace agora::lp {

SolveResult solve(const Problem& p, const SolveOptions& opts, SolveWorkspace* ws) {
  switch (opts.backend) {
    case Backend::Revised:
      return RevisedSimplexSolver(opts.solver_options()).solve(p, ws);
    case Backend::Tableau:
      return SimplexSolver(opts.solver_options()).solve(p);
    case Backend::BruteForce: {
      BruteForceOptions bf;
      bf.max_bases = opts.brute_force_max_bases;
      bf.tol = opts.tol;
      return brute_force_solve(p, bf);
    }
  }
  AGORA_INVARIANT(false, "unknown backend");
  return {};
}

}  // namespace agora::lp
