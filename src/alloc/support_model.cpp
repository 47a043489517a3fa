#include "alloc/support_model.h"

namespace agora::alloc {

const lp::Problem& SupportModel::build(const agree::AgreementSystem& sys,
                                       const agree::CapacityReport& report, std::size_t a,
                                       double amount) {
  const std::size_t n = sys.size();
  support_.clear();
  for (std::size_t k = 0; k < n; ++k)
    if (report.entitlement(k, a) > 0.0) support_.push_back(k);
  if (problem_.num_variables() > 0 && support_ == cols_) {
    // The last consult's support: its rows are this consult's rows, so only
    // the bounds and the demand move.
    for (std::size_t j = 0; j < cols_.size(); ++j)
      problem_.set_bounds(j, 0.0, report.entitlement(cols_[j], a));
    problem_.set_rhs(0, amount);
    return problem_;
  }
  cols_.swap(support_);

  // Rows some support column touches, read off K row by row.
  touched_.assign(n, 0);
  for (const std::size_t k : cols_) {
    const double* row = report.shares.row(k).data();
    for (std::size_t i = 0; i < n; ++i)
      if ((i == k ? sys.retained[k] : row[i]) > 0.0) touched_[i] = 1;
  }

  problem_ = lp::Problem(lp::Sense::Minimize);
  for (const std::size_t k : cols_) problem_.add_variable(0.0, report.entitlement(k, a));
  const std::size_t theta = problem_.add_variable(0.0, lp::kInfinity, 1.0);

  terms_.clear();
  for (std::size_t j = 0; j < cols_.size(); ++j) terms_.emplace_back(j, 1.0);
  problem_.add_constraint_sparse(terms_, lp::Relation::Equal, amount);

  for (std::size_t i = 0; i < n; ++i) {
    if (!touched_[i]) continue;
    terms_.clear();
    for (std::size_t j = 0; j < cols_.size(); ++j) {
      const std::size_t k = cols_[j];
      const double coeff = k == i ? sys.retained[i] : report.shares(k, i);
      if (coeff > 0.0) terms_.emplace_back(j, coeff);
    }
    terms_.emplace_back(theta, -1.0);
    problem_.add_constraint_sparse(terms_, lp::Relation::LessEqual, 0.0);
  }
  return problem_;
}

}  // namespace agora::alloc
