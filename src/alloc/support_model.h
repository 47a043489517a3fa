// support_model.h -- the compact allocation LP restricted to the requester's
// support.
//
// The compact relaxed program of a request (a, x) is
//
//   min theta  s.t.  sum_k d_k = x                              (demand)
//                    sum_k That_ki d_k - theta <= 0  for all i   (perturb_i)
//                    0 <= d_k <= U_ka,  theta >= 0
//
// with That_ii = retained_i and That_ki = K_ki. Most draws of a sparse
// agreement graph have U_ka = 0, so the model posed here keeps only the
// requester's support:
//
//   * columns: d_k for each k with U_ka > 0, in ascending k, then theta;
//   * rows: demand, then perturb_i in ascending i for each i that some
//     support column touches (That_ki > 0).
//
// This is an exact restriction of the full (n+1)-column model. A dropped
// column is fixed at 0 by its bounds. With those columns at 0, a dropped
// row reads -theta <= 0, which theta >= 0 already implies. So lifting a
// support point (zero draws elsewhere) maps the support model's feasible
// set onto the full model's with the same objective: both programs have the
// same status and the same optimum, and a certificate for the support model
// is one for the request. The LP's size follows how far the requester's
// agreements reach, not n.
//
// Where the support is full and every row is touched (e.g. a complete
// graph), the model is coefficient- and order-identical to the full model
// (d_0..d_{n-1}, theta; demand, then perturb_0..perturb_{n-1}), so those
// consults solve exactly as the full model would.
//
// A consult whose support differs from the last one's rebuilds the model
// from unnamed variables and sparse rows; the term scratch, the row marks
// and the solver workspace keep their storage between consults. The rows
// are a function of the support, K and retained only, so a consult with
// the last one's support (every consult on a complete graph) moves only the
// draw bounds and the demand rhs, which the solver re-reads without
// rebuilding its standard form (lp::repatch_standard_form_rhs). That is
// why one SupportModel must serve one agreement system: K and retained may
// not change between builds (an Allocator's never do). Not thread-safe:
// one belongs to one Allocator.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "agree/capacity.h"
#include "agree/matrices.h"
#include "lp/problem.h"
#include "lp/workspace.h"

namespace agora::alloc {

class SupportModel {
 public:
  /// Pose the support model of principal `a` requesting `amount` under the
  /// entitlements of `report`. `sys.retained` and `report.shares` must be
  /// the same in every call.
  const lp::Problem& build(const agree::AgreementSystem& sys,
                           const agree::CapacityReport& report, std::size_t a, double amount);

  const lp::Problem& problem() const { return problem_; }
  /// Principal k of each support column, ascending; theta is the column
  /// after the last of them.
  const std::vector<std::size_t>& columns() const { return cols_; }
  /// Scratch for the revised solver. Only the standard form carries from
  /// one consult to the next (for the rhs repatch); every solve is cold.
  lp::SolveWorkspace& workspace() { return ws_; }

 private:
  lp::Problem problem_;
  lp::SolveWorkspace ws_;
  std::vector<std::size_t> cols_;
  std::vector<std::size_t> support_;  ///< this consult's support, then swapped
  std::vector<char> touched_;
  std::vector<std::pair<std::size_t, double>> terms_;
};

}  // namespace agora::alloc
