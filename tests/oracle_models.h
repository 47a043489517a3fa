// oracle_models.h -- the allocation LPs the allocator does not pose, kept as
// test (and bench) oracles for the support model it does pose.
//
//   * full_compact_model: the full (n+1)-column compact LP, built the way the
//     allocator posed every compact consult before it restricted the model
//     to the requester's support: one ModelBuilder pass with unnamed
//     variables d_0..d_{n-1} (0 <= d_k <= U_ka) then theta, the demand row,
//     then one perturbation row per principal i,
//     sum_k That_ki d_k - theta <= 0 (That_ii = retained_i, That_ki = K_ki).
//   * paper_model: the paper's verbatim variable set -- V'_i, C'_i, theta and
//     I'_ij, i.e. n^2 + n + 1 variables -- with constraints (1), (2), (4),
//     (5) and (6).
//
// With `exact`, either model also carries the paper's constraint (3): the
// requester's capacity drops by exactly the request (C'_A = C_A - x). It
// conflicts with (5) whenever capacity is drawn over an agreement with
// share < 1 (DESIGN.md), which is why the allocator drops it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "agree/capacity.h"
#include "agree/matrices.h"
#include "lp/model_builder.h"
#include "lp/problem.h"
#include "util/matrix.h"

namespace agora::oracle {

inline lp::Problem full_compact_model(const agree::AgreementSystem& sys,
                                      const agree::CapacityReport& report, std::size_t a,
                                      double amount, bool exact = false) {
  const std::size_t n = sys.size();
  lp::ModelBuilder mb(lp::Sense::Minimize);
  std::vector<lp::Var> d = mb.add_vars(n, 0.0, 0.0);
  const lp::Var theta = mb.add_var(0.0);
  mb.add(lp::sum(d) == 0.0, "demand");
  for (std::size_t i = 0; i < n; ++i) {
    lp::LinExpr drop;
    for (std::size_t k = 0; k < n; ++k) {
      const double coeff = k == i ? sys.retained[i] : report.shares(k, i);
      if (coeff > 0.0) drop += coeff * d[k];
    }
    mb.add(drop - 1.0 * theta <= 0.0, "perturb");
  }
  if (exact) {
    // Constraint (3): the drop at the requester equals the request.
    lp::LinExpr drop_a;
    for (std::size_t k = 0; k < n; ++k) {
      const double coeff = k == a ? sys.retained[a] : report.shares(k, a);
      if (coeff > 0.0) drop_a += coeff * d[k];
    }
    mb.add(drop_a == amount, "exact_drop_at_requester");
  }
  mb.minimize(lp::LinExpr(theta));
  lp::Problem p = std::move(mb.problem());
  for (std::size_t k = 0; k < n; ++k) p.set_bounds(k, 0.0, report.entitlement(k, a));
  p.set_rhs(0, amount);
  return p;
}

/// The paper's model and where its variables sit.
struct PaperModel {
  lp::Problem problem;
  std::vector<std::size_t> vprime;  ///< V'_i columns
  std::vector<std::size_t> cprime;  ///< C'_i columns
  std::size_t theta = 0;

  /// Draw d_i = V_i - V'_i of an optimal solution `x`.
  std::vector<double> draw(const agree::AgreementSystem& sys, const std::vector<double>& x) const {
    std::vector<double> d(vprime.size());
    for (std::size_t i = 0; i < d.size(); ++i)
      d[i] = std::max(0.0, sys.capacity[i] - x[vprime[i]]);
    return d;
  }
};

inline PaperModel paper_model(const agree::AgreementSystem& sys,
                              const agree::CapacityReport& report, std::size_t a,
                              double amount, bool exact = false) {
  const std::size_t n = sys.size();
  lp::ModelBuilder mb(lp::Sense::Minimize);
  std::vector<lp::Var> vprime(n), cprime(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Constraint (4): 0 <= V_i - V'_i <= I_iA (own node: <= V_A).
    const double max_draw = i == a ? sys.capacity[a] : report.entitlement(i, a);
    vprime[i] = mb.add_var(std::max(0.0, sys.capacity[i] - max_draw), sys.capacity[i]);
  }
  for (std::size_t i = 0; i < n; ++i) cprime[i] = mb.add_var(0.0, lp::kInfinity);
  const lp::Var theta = mb.add_var(0.0);

  // I'_ij variables plus constraint (1): I'_ij = V'_i * T_ij.
  std::vector<std::vector<lp::Var>> iprime(n, std::vector<lp::Var>(n));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      iprime[i][j] = mb.add_var(0.0, lp::kInfinity);
      mb.add(1.0 * iprime[i][j] - report.shares(i, j) * vprime[i] == 0.0, "flow");
    }
  }
  // Constraint (2): C'_i = retained_i * V'_i + sum_{k != i} I'_ki.
  for (std::size_t i = 0; i < n; ++i) {
    lp::LinExpr rhs = sys.retained[i] * vprime[i];
    for (std::size_t k = 0; k < n; ++k)
      if (k != i) rhs += lp::LinExpr(iprime[k][i]);
    mb.add(1.0 * cprime[i] - rhs == 0.0, "capacity");
  }
  // Constraint (3).
  if (exact) mb.add(1.0 * cprime[a] == report.capacity[a] - amount, "exact");
  // Constraint (5): sum_i (V_i - V'_i) = x.
  lp::LinExpr drawn;
  for (std::size_t i = 0; i < n; ++i) drawn += -1.0 * vprime[i];
  mb.add(drawn == amount - agora::sum(sys.capacity), "demand");
  // Constraint (6): C_i - theta <= C'_i <= C_i.
  for (std::size_t i = 0; i < n; ++i) {
    mb.add(1.0 * cprime[i] + 1.0 * theta >= report.capacity[i], "lower");
    mb.add(1.0 * cprime[i] <= report.capacity[i], "upper");
  }
  mb.minimize(lp::LinExpr(theta));

  PaperModel m;
  m.problem = std::move(mb.problem());
  for (std::size_t i = 0; i < n; ++i) {
    m.vprime.push_back(vprime[i].index);
    m.cprime.push_back(cprime[i].index);
  }
  m.theta = theta.index;
  return m;
}

}  // namespace agora::oracle
