// full_compact_model.h -- the full (n+1)-column compact allocation LP, the
// oracle the allocator's support model is checked against.
//
// Built the way the allocator posed every relaxed compact consult before it
// restricted the model to the requester's support: one ModelBuilder pass
// with unnamed variables d_0..d_{n-1} (0 <= d_k <= U_ka) then theta, the
// demand row, then one perturbation row per principal i,
// sum_k That_ki d_k - theta <= 0 (That_ii = retained_i, That_ki = K_ki).
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "agree/capacity.h"
#include "agree/matrices.h"
#include "lp/model_builder.h"
#include "lp/problem.h"

namespace agora::oracle {

inline lp::Problem full_compact_model(const agree::AgreementSystem& sys,
                                      const agree::CapacityReport& report, std::size_t a,
                                      double amount) {
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
  mb.minimize(lp::LinExpr(theta));
  lp::Problem p = std::move(mb.problem());
  for (std::size_t k = 0; k < n; ++k) p.set_bounds(k, 0.0, report.entitlement(k, a));
  p.set_rhs(0, amount);
  return p;
}

}  // namespace agora::oracle
