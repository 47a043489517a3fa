#include "alloc/hierarchical.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "lp/model_builder.h"
#include "obs/timer.h"

namespace agora::alloc {

namespace {
lp::PipelineOptions fine_pipeline_options(const AllocatorOptions& opts) {
  lp::PipelineOptions po;
  po.solve = opts.solve;
  po.sink = opts.sink;
  return po;
}
}  // namespace

HierarchicalAllocator::HierarchicalAllocator(agree::AgreementSystem sys,
                                             std::vector<std::size_t> group_of,
                                             AllocatorOptions opts)
    : sys_(std::move(sys)),
      group_of_(std::move(group_of)),
      opts_(opts),
      fine_pipeline_(fine_pipeline_options(opts)) {
  sys_.validate(/*allow_overdraft=*/true);
  AGORA_REQUIRE(group_of_.size() == sys_.size(), "group assignment size mismatch");
  std::size_t ng = 0;
  for (std::size_t g : group_of_) ng = std::max(ng, g + 1);
  groups_.resize(ng);
  for (std::size_t i = 0; i < group_of_.size(); ++i) {
    AGORA_REQUIRE(group_of_[i] < ng, "bad group index");
    groups_[group_of_[i]].members.push_back(i);
  }
  for (std::size_t g = 0; g < ng; ++g)
    AGORA_REQUIRE(!groups_[g].members.empty(), "empty group " + std::to_string(g));
  group_cache_.resize(ng);
  obs_plan_seconds_ = &opts_.sink.histogram("alloc.hier.plan.seconds");
  obs_own_group_ = &opts_.sink.counter("alloc.hier.own_group");
  obs_coarse_solves_ = &opts_.sink.counter("alloc.hier.coarse_solves");
  obs_fine_solves_ = &opts_.sink.counter("alloc.hier.fine_solves");
  obs_flat_fallbacks_ = &opts_.sink.counter("alloc.hier.flat_fallbacks");
  rebuild();
}

Allocator& HierarchicalAllocator::group_allocator(std::size_t g) const {
  if (!group_cache_[g]) group_cache_[g] = std::make_unique<Allocator>(group_system(g), opts_);
  return *group_cache_[g];
}

Allocator& HierarchicalAllocator::coarse_allocator() const {
  if (!coarse_cache_) coarse_cache_ = std::make_unique<Allocator>(coarse_system(), opts_);
  return *coarse_cache_;
}

Allocator& HierarchicalAllocator::flat_allocator() const {
  if (!flat_cache_) flat_cache_ = std::make_unique<Allocator>(sys_, opts_);
  return *flat_cache_;
}

void HierarchicalAllocator::rebuild() {
  full_report_ = agree::compute_capacities(sys_, opts_.transitive);
}

agree::AgreementSystem HierarchicalAllocator::group_system(std::size_t g) const {
  const auto& members = groups_[g].members;
  agree::AgreementSystem sub(members.size());
  for (std::size_t a = 0; a < members.size(); ++a) {
    sub.capacity[a] = sys_.capacity[members[a]];
    sub.retained[a] = sys_.retained[members[a]];
    for (std::size_t b = 0; b < members.size(); ++b) {
      if (a == b) continue;
      sub.relative(a, b) = sys_.relative(members[a], members[b]);
      sub.absolute(a, b) = sys_.absolute(members[a], members[b]);
    }
  }
  return sub;
}

agree::AgreementSystem HierarchicalAllocator::coarse_system() const {
  const std::size_t ng = groups_.size();
  agree::AgreementSystem coarse(ng);
  for (std::size_t g = 0; g < ng; ++g) {
    double cap = 0.0;
    for (std::size_t m : groups_[g].members) cap += sys_.capacity[m];
    coarse.capacity[g] = cap;
  }
  // Inter-group share: capacity-weighted member shares crossing the
  // boundary; with zero group capacity fall back to a plain average.
  for (std::size_t g = 0; g < ng; ++g) {
    for (std::size_t h = 0; h < ng; ++h) {
      if (g == h) continue;
      double share = 0.0, abs_amount = 0.0;
      for (std::size_t i : groups_[g].members) {
        double out = 0.0;
        for (std::size_t j : groups_[h].members) {
          out += sys_.relative(i, j);
          abs_amount += sys_.absolute(i, j);
        }
        // Each member can give at most `out` of its own capacity to group h.
        const double weight = coarse.capacity[g] > 0.0
                                  ? sys_.capacity[i] / coarse.capacity[g]
                                  : 1.0 / static_cast<double>(groups_[g].members.size());
        share += std::min(out, 1.0) * weight;
      }
      coarse.relative(g, h) = std::min(share, 1.0);
      coarse.absolute(g, h) = abs_amount;
    }
    // Keep the coarse system valid even if member rows sum close to 1.
    double row = 0.0;
    for (std::size_t h = 0; h < ng; ++h) row += coarse.relative(g, h);
    if (row > 1.0) {
      for (std::size_t h = 0; h < ng; ++h) coarse.relative(g, h) /= row;
    }
  }
  return coarse;
}

AllocationPlan HierarchicalAllocator::allocate(std::size_t a, double amount) const {
  AGORA_REQUIRE(a < sys_.size(), "unknown principal");
  AGORA_REQUIRE(amount >= 0.0 && std::isfinite(amount), "request must be non-negative");
  const std::size_t n = sys_.size();
  const std::size_t ga = group_of_[a];

  obs::ScopedTimer plan_timer(obs_plan_seconds_);
  AllocationPlan plan;
  plan.capacity_before = full_report_.capacity;
  plan.draw.assign(n, 0.0);

  // --- Own group: the requester's own group can satisfy the request. ------
  {
    std::size_t local_a = 0;
    for (std::size_t m = 0; m < groups_[ga].members.size(); ++m)
      if (groups_[ga].members[m] == a) local_a = m;
    Allocator& group_alloc = group_allocator(ga);
    if (group_alloc.available_to(local_a) >= amount - 1e-9) {
      const AllocationPlan sub_plan = group_alloc.allocate(local_a, amount);
      if (sub_plan.satisfied()) {
        obs_own_group_->inc();
        for (std::size_t m = 0; m < groups_[ga].members.size(); ++m)
          plan.draw[groups_[ga].members[m]] = sub_plan.draw[m];
        plan.status = PlanStatus::Satisfied;
        plan.certified = sub_plan.certified;
        plan.solver_fallbacks = sub_plan.solver_fallbacks;
        plan.lp_iterations = sub_plan.lp_iterations;
        plan.capacity_after = plan.capacity_before;
        // Report theta with the same meaning as the flat allocator: the
        // largest *global* availability drop (the group LP's theta only
        // covers the subgroup).
        plan.theta = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
          double drop = 0.0;
          for (std::size_t k = 0; k < n; ++k)
            drop += plan.draw[k] * (k == i ? sys_.retained[i] : full_report_.shares(k, i));
          plan.capacity_after[i] = plan.capacity_before[i] - drop;
          plan.theta = std::max(plan.theta, drop);
        }
        return plan;
      }
    }
  }

  // --- Coarse level: distribute the request across groups. -----------------
  obs_coarse_solves_->inc();
  const AllocationPlan coarse_plan = coarse_allocator().allocate(ga, amount);
  plan.lp_iterations += coarse_plan.lp_iterations;
  plan.solver_fallbacks += coarse_plan.solver_fallbacks;
  if (!coarse_plan.satisfied()) {
    obs_flat_fallbacks_->inc();
    // The coarse model under-approximates reachable capacity (it collapses
    // member-level detail); fall back to the flat LP before giving up.
    AllocationPlan flat_plan = flat_allocator().allocate(a, amount);
    flat_plan.lp_iterations += plan.lp_iterations;
    return flat_plan;
  }

  // --- Fine level: split each group's contribution among its members. -----
  double total_theta = 0.0;
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    const double x_g = coarse_plan.draw[g];
    if (x_g <= 1e-12) continue;
    const auto& members = groups_[g].members;

    // Distribute x_g among members: minimize the max member draw subject to
    // each member's entitlement toward the requester in the full system.
    lp::ModelBuilder mb(lp::Sense::Minimize);
    std::vector<lp::Var> d(members.size());
    for (std::size_t m = 0; m < members.size(); ++m) {
      const std::size_t i = members[m];
      const double cap = i == a ? sys_.capacity[a] : full_report_.entitlement(i, a);
      d[m] = mb.add_var(0.0, cap);
    }
    const lp::Var t = mb.add_var(0.0);
    mb.add(lp::sum(d) == x_g);
    for (std::size_t m = 0; m < members.size(); ++m) mb.add(1.0 * d[m] - 1.0 * t <= 0.0);
    mb.minimize(lp::LinExpr(t));
    obs_fine_solves_->inc();
    const lp::PipelineResult pr = fine_pipeline_.solve(mb.problem());
    const lp::SolveResult& r = pr.result;
    plan.solver_fallbacks += pr.fallbacks;
    plan.lp_iterations += r.iterations;
    if (!pr.certified() || r.status != lp::Status::Optimal) {
      // Member entitlements cannot cover the coarse assignment (or its
      // answer did not certify); flat solve.
      obs_flat_fallbacks_->inc();
      AllocationPlan flat_plan = flat_allocator().allocate(a, amount);
      flat_plan.lp_iterations += plan.lp_iterations;
      return flat_plan;
    }
    for (std::size_t m = 0; m < members.size(); ++m) plan.draw[members[m]] = r.x[d[m].index];
    total_theta = std::max(total_theta, r.x[t.index]);
  }

  plan.status = PlanStatus::Satisfied;
  plan.certified = coarse_plan.certified;  // and every fine solve certified
  (void)total_theta;  // fine-level balance metric; global theta reported below
  plan.capacity_after = plan.capacity_before;
  plan.theta = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double drop = 0.0;
    for (std::size_t k = 0; k < n; ++k)
      drop += plan.draw[k] * (k == i ? sys_.retained[i] : full_report_.shares(k, i));
    plan.capacity_after[i] = plan.capacity_before[i] - drop;
    plan.theta = std::max(plan.theta, drop);
  }
  return plan;
}

void HierarchicalAllocator::propagate_capacities() {
  rebuild();
  // Capacity motion does not change share matrices, so live caches are
  // refreshed in place; the coarse system's shares *are* capacity-weighted,
  // so that cache is dropped and lazily rebuilt.
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    if (!group_cache_[g]) continue;
    std::vector<double> caps(groups_[g].members.size());
    for (std::size_t m = 0; m < caps.size(); ++m) caps[m] = sys_.capacity[groups_[g].members[m]];
    group_cache_[g]->set_capacities(std::move(caps));
  }
  if (flat_cache_) flat_cache_->set_capacities(sys_.capacity);
  coarse_cache_.reset();
}

void HierarchicalAllocator::apply(const AllocationPlan& plan) {
  AGORA_REQUIRE(plan.satisfied(), "cannot apply an unsatisfied plan");
  AGORA_REQUIRE(plan.draw.size() == sys_.size(), "plan size mismatch");
  for (std::size_t i = 0; i < sys_.size(); ++i)
    sys_.capacity[i] = std::max(0.0, sys_.capacity[i] - plan.draw[i]);
  propagate_capacities();
}

void HierarchicalAllocator::release(const std::vector<double>& give_back) {
  AGORA_REQUIRE(give_back.size() == sys_.size(), "release size mismatch");
  for (std::size_t i = 0; i < sys_.size(); ++i) {
    AGORA_REQUIRE(give_back[i] >= 0.0, "release must be non-negative");
    sys_.capacity[i] += give_back[i];
  }
  propagate_capacities();
}

void HierarchicalAllocator::set_capacities(std::span<const double> v) {
  AGORA_REQUIRE(v.size() == sys_.size(), "capacity vector size mismatch");
  for (double x : v) AGORA_REQUIRE(x >= 0.0 && std::isfinite(x), "capacities must be >= 0");
  if (std::equal(v.begin(), v.end(), sys_.capacity.begin())) return;
  sys_.capacity.assign(v.begin(), v.end());
  propagate_capacities();
}

}  // namespace agora::alloc
