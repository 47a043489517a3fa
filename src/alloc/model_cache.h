// model_cache.h -- amortized model structure for the compact allocation LP.
//
// The compact formulation's constraint matrix depends only on the transitive
// share matrix K and the retained fractions -- both fixed for an Allocator's
// lifetime. Requests and capacity updates move only the draw-variable upper
// bounds (U_kA entitlements) and the demand right-hand side. So the model is
// built ONCE (unnamed variables, no string churn) and thereafter patched in
// place before each solve: no ModelBuilder, no vector reallocation, no
// per-request Problem construction.
//
// The cache also owns the lp::SolveWorkspace threaded into the revised
// solver, so successive solves of the patched model reuse its scratch and
// repatch the standard-form rhs instead of rebuilding it. (The Allocator
// invalidates the warm basis before each consult; see allocator.cpp.)
//
// The cached Problem is coefficient-identical to what the historical
// per-request ModelBuilder path produced (variables in the same order: d_0..
// d_{n-1} then theta; rows: demand then perturb_0..perturb_{n-1}), so any
// engine run on it yields bit-identical results to the legacy path.
//
// Not thread-safe: a cache belongs to one Allocator and must not be used by
// concurrent solves.
#pragma once

#include <cstddef>

#include "agree/capacity.h"
#include "agree/matrices.h"
#include "lp/problem.h"
#include "lp/workspace.h"

namespace agora::alloc {

class AllocationModelCache {
 public:
  bool built() const { return built_; }

  /// Build the compact relaxed model structure (bounds and rhs are
  /// placeholders; patch() must run before any solve).
  void build(const agree::AgreementSystem& sys, const agree::CapacityReport& report);

  /// Point the model at request (a, amount) under the current entitlements:
  /// d_k in [0, U_kA] and demand rhs = amount.
  void patch(const agree::CapacityReport& report, std::size_t a, double amount);

  lp::Problem& problem() { return problem_; }
  lp::SolveWorkspace& workspace() { return ws_; }

  /// Drop the cached structure (and warm-start state). The next solve
  /// rebuilds. Call if the agreement matrices ever change.
  void invalidate() {
    built_ = false;
    ws_.invalidate();
  }

 private:
  bool built_ = false;
  std::size_t n_ = 0;
  lp::Problem problem_;
  lp::SolveWorkspace ws_;
};

}  // namespace agora::alloc
