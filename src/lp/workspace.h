// workspace.h -- reusable scratch for the revised simplex.
//
// The enforcement loop solves thousands of small LPs back to back. A
// SolveWorkspace passed to RevisedSimplexSolver::solve amortizes every
// per-solve allocation (the standard-form conversion, the factored basis,
// the pricing vectors) across calls. It also keeps the last standard form,
// so a problem that only moved its rhs or bound values since the previous
// solve is repatched in O(rows) instead of rebuilt
// (repatch_standard_form_rhs). Nothing else carries over: every solve starts
// cold from the slack/artificial basis, and its answer is bit-identical to
// the workspace-free solve.
//
// A workspace is single-threaded state: share one per (solver, model)
// pairing, never across concurrent solves.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "lp/sparse_lu.h"
#include "lp/standard_form.h"

namespace agora::lp {

struct SolveWorkspace {
  // Contents are meaningless between solves, but the heap blocks persist
  // so steady-state solves allocate nothing.
  StandardForm sf;                  ///< standard-form rebuild/repatch target.
  std::vector<std::size_t> basis;   ///< current basis, length m.
  SparseLu slu;                     ///< factored basis.
  std::vector<double> rho;          ///< refinement correction scratch.
  std::vector<double> xb;           ///< current basic solution B^-1 b.
  std::vector<double> cb;           ///< basic cost gather.
  std::vector<double> y;            ///< btran output (simplex multipliers).
  std::vector<double> w;            ///< ftran output (pivot column).
  std::vector<double> cost1;        ///< phase-1 cost vector.
  std::vector<double> resid;        ///< b - B x_B residual / refinement scratch.
  std::vector<double> ysol;         ///< standard-form solution gather.
  std::vector<bool> in_basis;       ///< per-column basis membership.
  std::vector<bool> allowed;        ///< per-column entry permission.
  /// Basis updates since the last refactorization of this solve; counts
  /// across the phase-1 -> phase-2 transition, where the eta file persists.
  std::uint64_t pivots_since_factor = 0;
};

}  // namespace agora::lp
