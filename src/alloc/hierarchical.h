// hierarchical.h -- multi-grid allocation for hierarchical agreement
// structures (Section 3.2):
//
// "once a request comes to a group, and that group cannot satisfy the
//  request, we use LP to find the distribution of resources among groups;
//  based on the distribution result, we run LP inside each group to further
//  refine the resource allocation, iterating this process as required."
//
// The coarse level aggregates each group into one super-principal (capacity
// = sum of members; inter-group share = capacity-weighted sum of member
// shares crossing the boundary). The fine level distributes each group's
// assigned contribution among its members, bounding each member's draw by
// its entitlement toward the requester in the *full* system.
//
// This trades a single (n+1)-variable LP for one (g+1)-variable LP plus a
// handful of (|group|+1)-variable LPs -- the micro_formulation bench
// measures the crossover.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "alloc/allocator.h"

namespace agora::alloc {

class HierarchicalAllocator : public AllocatorBase {
 public:
  /// `group_of[i]` assigns principal i to a group (0-based, contiguous).
  HierarchicalAllocator(agree::AgreementSystem sys, std::vector<std::size_t> group_of,
                        AllocatorOptions opts = {});

  std::size_t num_groups() const { return groups_.size(); }
  const agree::AgreementSystem& system() const override { return sys_; }
  std::size_t size() const override { return sys_.size(); }

  /// Allocate `amount` for principal `a` using the two-level scheme.
  /// When a's own group can cover the request, only that group's LP runs.
  AllocationPlan allocate(std::size_t a, double amount) const override;

  /// Largest request principal `a` could have satisfied right now, in the
  /// *full* system (the two-level scheme may place less; see allocate()).
  double available_to(std::size_t a) const override { return full_report_.capacity.at(a); }

  /// Commit a plan (subtract draws, refresh caches).
  void apply(const AllocationPlan& plan) override;

  /// Return capacity to principals (inverse of apply for completed work).
  void release(const std::vector<double>& give_back) override;

  /// Replace all capacities without touching the agreement structure; live
  /// per-group caches are refreshed in place, the capacity-weighted coarse
  /// cache is dropped and lazily rebuilt.
  void set_capacities(std::span<const double> v) override;

  /// Telemetry of the fine-level (within-group) certified solve chain; the
  /// per-level Allocators carry their own pipelines.
  const lp::PipelineStats* solver_stats() const override { return &fine_pipeline_.stats(); }

 private:
  /// Shared tail of apply/release/set_capacities: sys_.capacity changed;
  /// refresh the full report and push new capacities into live caches.
  void propagate_capacities();

  struct Group {
    std::vector<std::size_t> members;
  };

  /// Sub-system induced by one group (agreements internal to the group).
  agree::AgreementSystem group_system(std::size_t g) const;
  /// Coarse system over groups.
  agree::AgreementSystem coarse_system() const;
  void rebuild();

  // Lazily built, persistent per-level Allocators. Building an Allocator
  // runs the transitive-closure share computation, so reconstructing one per
  // allocate() (the historical behavior) dominated trace-driven runs. The
  // share matrices depend only on the agreement structure, which is fixed,
  // so apply() just pushes new capacities into live caches -- except the
  // coarse level, whose inter-group shares are capacity-weighted and must be
  // rebuilt (it is reset and re-created on next use).
  Allocator& group_allocator(std::size_t g) const;
  Allocator& coarse_allocator() const;
  Allocator& flat_allocator() const;

  agree::AgreementSystem sys_;
  std::vector<std::size_t> group_of_;
  std::vector<Group> groups_;
  AllocatorOptions opts_;
  agree::CapacityReport full_report_;  ///< entitlements in the full system
  mutable std::vector<std::unique_ptr<Allocator>> group_cache_;
  mutable std::unique_ptr<Allocator> coarse_cache_;
  mutable std::unique_ptr<Allocator> flat_cache_;
  /// Certified solve chain for the fine-level (within-group) LPs; the
  /// per-level Allocators carry their own pipelines.
  mutable lp::SolvePipeline fine_pipeline_;
  /// Cached registry handles (see obs/metrics.h).
  obs::LogHistogram* obs_plan_seconds_ = nullptr;
  obs::Counter* obs_own_group_ = nullptr;
  obs::Counter* obs_coarse_solves_ = nullptr;
  obs::Counter* obs_fine_solves_ = nullptr;
  obs::Counter* obs_flat_fallbacks_ = nullptr;
};

}  // namespace agora::alloc
