#include "alloc/allocator.h"

#include <algorithm>
#include <cmath>

#include "obs/timer.h"

namespace agora::alloc {

namespace {
lp::PipelineOptions pipeline_options(const AllocatorOptions& opts) {
  lp::PipelineOptions po;
  po.solve = opts.solve;
  po.sink = opts.sink;
  return po;
}
}  // namespace

Allocator::Allocator(agree::AgreementSystem sys, AllocatorOptions opts)
    : sys_(std::move(sys)),
      opts_(opts),
      pipeline_(pipeline_options(opts)) {
  sys_.validate(/*allow_overdraft=*/true);
  obs_plan_seconds_ = &opts_.sink.histogram("alloc.plan.seconds");
  obs_clamp_k_ = &opts_.sink.counter("alloc.clamp.overdraft_k");
  obs_clamp_u_ = &opts_.sink.counter("alloc.clamp.entitlement_u");
  obs_plans_satisfied_ = &opts_.sink.counter("alloc.plans.satisfied");
  obs_plans_insufficient_ = &opts_.sink.counter("alloc.plans.insufficient");
  obs_plans_denied_ = &opts_.sink.counter("alloc.plans.denied");
  obs_plans_failed_ = &opts_.sink.counter("alloc.plans.solver_failed");
  // The expensive part (simple-path enumeration) depends only on S; do it
  // once and keep the K matrix cached across capacity updates.
  Matrix t = agree::transitive_shares(sys_.relative, opts_.transitive);
  if constexpr (obs::kEnabled) {
    std::uint64_t clamped = 0;
    for (double v : t.flat())
      if (v > 1.0) ++clamped;
    obs_clamp_k_->inc(clamped);
  }
  report_.shares = agree::overdraft_clamp(std::move(t));
  refresh_availability();
}

void Allocator::refresh_availability() {
  const std::size_t n = sys_.size();
  std::uint64_t u_clamps = 0;
  report_.entitlement.assign(n, n);  // reuses storage on repeated refreshes
  report_.capacity.assign(n, 0.0);
  for (std::size_t k = 0; k < n; ++k) {
    const double vk = sys_.capacity[k];
    report_.entitlement(k, k) = sys_.retained[k] * vk;
    for (std::size_t i = 0; i < n; ++i) {
      if (i == k) continue;
      const double raw = vk * report_.shares(k, i) + sys_.absolute(k, i);
      if (raw > vk) ++u_clamps;
      report_.entitlement(k, i) = std::min(raw, vk);
    }
  }
  obs_clamp_u_->inc(u_clamps);
  for (std::size_t i = 0; i < n; ++i) {
    double c = report_.entitlement(i, i);
    for (std::size_t k = 0; k < n; ++k)
      if (k != i) c += report_.entitlement(k, i);
    report_.capacity[i] = c;
  }
}

AllocationPlan Allocator::allocate(std::size_t a, double amount) const {
  AGORA_REQUIRE(a < sys_.size(), "unknown principal");
  AGORA_REQUIRE(amount >= 0.0 && std::isfinite(amount), "request must be non-negative");

  obs::ScopedTimer plan_timer(obs_plan_seconds_);
  AllocationPlan plan = solve_support(a, amount);
  if constexpr (obs::kEnabled) {
    switch (plan.status) {
      case PlanStatus::Satisfied: obs_plans_satisfied_->inc(); break;
      case PlanStatus::Insufficient: obs_plans_insufficient_->inc(); break;
      case PlanStatus::Denied: obs_plans_denied_->inc(); break;
      case PlanStatus::SolverFailed: obs_plans_failed_->inc(); break;
    }
  }
  return plan;
}

AllocationPlan Allocator::solve_support(std::size_t a, double amount) const {
  const std::size_t n = sys_.size();
  AllocationPlan plan;
  plan.capacity_before = report_.capacity;

  // The support model's columns are model_.columns(), then theta. Every
  // solve starts cold from the slack basis, so a plan is a pure function of
  // (snapshot, request): the plan cache, replicated shards and
  // snapshot-restored GRM replicas rely on it. The workspace supplies
  // scratch and, when the support repeats the last consult's, the
  // standard-form rhs repatch.
  const lp::Problem& p = model_.build(sys_, report_, a, amount);
  const lp::PipelineResult pr = pipeline_.solve(p, &model_.workspace());
  const lp::SolveResult& r = pr.result;
  plan.certified = pr.certified();
  plan.solver_fallbacks = pr.fallbacks;
  plan.lp_iterations = r.iterations;
  if (!plan.certified) {
    // The solve produced no verifiable answer: deny rather than grant on an
    // unchecked solution. (A certified answer is never IterationLimit.)
    plan.status = PlanStatus::Denied;
    return plan;
  }
  if (r.status != lp::Status::Optimal) {
    plan.status = PlanStatus::Insufficient;
    return plan;
  }

  plan.status = PlanStatus::Satisfied;
  const std::vector<std::size_t>& cols = model_.columns();
  plan.theta = r.x[cols.size()];
  // drop_i = sum_k d_k * That_ki, accumulated in ascending k over the drawn
  // columns only, reading K row by row.
  plan.draw.assign(n, 0.0);
  std::vector<double>& after = plan.capacity_after;
  after.assign(n, 0.0);
  for (std::size_t j = 0; j < cols.size(); ++j) {
    const std::size_t k = cols[j];
    const double dk = std::max(0.0, r.x[j]);
    plan.draw[k] = dk;
    if (dk == 0.0) continue;
    const double* row = report_.shares.row(k).data();
    for (std::size_t i = 0; i < n; ++i) after[i] += dk * (i == k ? sys_.retained[k] : row[i]);
  }
  for (std::size_t i = 0; i < n; ++i) after[i] = report_.capacity[i] - after[i];
  return plan;
}

void Allocator::apply(const AllocationPlan& plan) {
  AGORA_REQUIRE(plan.satisfied(), "cannot apply an unsatisfied plan");
  AGORA_REQUIRE(plan.draw.size() == sys_.size(), "plan size mismatch");
  bool changed = false;
  for (std::size_t i = 0; i < sys_.size(); ++i) {
    AGORA_REQUIRE(plan.draw[i] <= sys_.capacity[i] + 1e-7,
                  "plan draws more than a principal owns");
    const double next = std::max(0.0, sys_.capacity[i] - plan.draw[i]);
    if (next != sys_.capacity[i]) {
      sys_.capacity[i] = next;
      changed = true;
    }
  }
  // Entitlements depend only on capacities here, so a zero-delta plan (e.g.
  // an amount of 0, common in traces) skips the O(n^2) refresh.
  if (changed) refresh_availability();
}

void Allocator::release(const std::vector<double>& give_back) {
  AGORA_REQUIRE(give_back.size() == sys_.size(), "release size mismatch");
  bool changed = false;
  for (std::size_t i = 0; i < sys_.size(); ++i) {
    AGORA_REQUIRE(give_back[i] >= 0.0, "release must be non-negative");
    if (give_back[i] > 0.0) {
      sys_.capacity[i] += give_back[i];
      changed = true;
    }
  }
  if (changed) refresh_availability();
}

void Allocator::set_capacities(std::vector<double> v) {
  AGORA_REQUIRE(v.size() == sys_.size(), "capacity vector size mismatch");
  for (double x : v) AGORA_REQUIRE(x >= 0.0 && std::isfinite(x), "capacities must be >= 0");
  if (v == sys_.capacity) return;  // epoch refresh with unchanged loads
  sys_.capacity = std::move(v);
  refresh_availability();
}

void Allocator::set_capacities(std::span<const double> v) {
  AGORA_REQUIRE(v.size() == sys_.size(), "capacity vector size mismatch");
  for (double x : v) AGORA_REQUIRE(x >= 0.0 && std::isfinite(x), "capacities must be >= 0");
  if (std::equal(v.begin(), v.end(), sys_.capacity.begin())) return;
  sys_.capacity.assign(v.begin(), v.end());
  refresh_availability();
}

}  // namespace agora::alloc
