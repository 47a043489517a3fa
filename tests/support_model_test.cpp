// support_model_test.cpp -- the allocator's support model is an exact
// restriction of the full compact model.
//
// A relaxed compact consult poses only the requester's support: the d_k with
// U_ka > 0 and the perturbation rows those columns touch (support_model.h).
// These tests compare the allocator's plans against lp::solve (tableau) on
// the full (n+1)-column model over seeded random systems -- zero
// capacities, partial retention, absolute agreements, amounts of 0 and
// above C_a, and a requester nobody shares with -- and pin that a full
// support (a complete graph) reproduces the full model's answer bit for
// bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include "agree/topology.h"
#include "alloc/allocator.h"
#include "alloc/support_model.h"
#include "full_compact_model.h"
#include "lp/certify.h"
#include "lp/solve.h"
#include "lp/solve_pipeline.h"
#include "util/rng.h"

namespace agora {
namespace {

/// Sparse random economy. Principal 0 has no capacity and nobody shares
/// with it, so its support is empty.
agree::AgreementSystem random_system(Pcg32& rng, std::size_t n) {
  agree::AgreementSystem sys(n);
  for (std::size_t i = 0; i < n; ++i) {
    sys.capacity[i] = i == 0 || rng.next_double() < 0.15 ? 0.0 : rng.uniform(1.0, 20.0);
    if (rng.next_double() < 0.25) sys.retained[i] = rng.uniform(0.2, 1.0);
    double budget = 1.0;
    for (std::size_t j = 1; j < n; ++j) {
      if (j == i) continue;
      if (rng.next_double() < 0.3) {
        const double s = rng.uniform(0.0, budget * 0.5);
        sys.relative(i, j) = s;
        budget -= s;
      }
      if (rng.next_double() < 0.1) sys.absolute(i, j) = rng.uniform(0.0, 5.0);
    }
  }
  return sys;
}

TEST(SupportModel, PlansMatchTheFullCompactModel) {
  lp::SolveOptions tableau;
  tableau.backend = lp::Backend::Tableau;
  std::size_t consults = 0, satisfied = 0, insufficient = 0, partial_support = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Pcg32 rng(seed * 7919);
    const std::size_t n = 2 + rng.uniform_u32(11);
    const alloc::Allocator al(random_system(rng, n));
    for (std::size_t a = 0; a < n; ++a) {
      const double ca = al.available_to(a);
      for (const double amount : {0.0, ca * 0.3, ca * 0.9, ca, ca * 1.5 + 1.0}) {
        const std::string tag = "seed " + std::to_string(seed) + " a " + std::to_string(a) +
                                " amount " + std::to_string(amount);
        const alloc::AllocationPlan plan = al.allocate(a, amount);
        const lp::Problem full = oracle::full_compact_model(al.system(), al.capacities(), a,
                                                            amount);
        // The tableau is the oracle: an engine independent of the revised
        // one the allocator runs, and its answer is itself certified.
        const lp::SolveResult want = lp::solve(full, tableau);
        ASSERT_TRUE(lp::Verifier().certify(full, want).certified) << tag;
        ++consults;
        std::size_t support = 0;
        for (std::size_t k = 0; k < n; ++k)
          if (al.capacities().entitlement(k, a) > 0.0) ++support;
        if (support < n) ++partial_support;

        EXPECT_TRUE(plan.certified) << tag;
        if (want.status == lp::Status::Infeasible) {
          EXPECT_EQ(plan.status, alloc::PlanStatus::Insufficient) << tag;
          ++insufficient;
          continue;
        }
        ASSERT_EQ(want.status, lp::Status::Optimal) << tag;
        ASSERT_EQ(plan.status, alloc::PlanStatus::Satisfied) << tag;
        ++satisfied;
        const double theta = want.x[n];
        EXPECT_NEAR(plan.theta, theta, 1e-9 * std::max(1.0, std::fabs(theta))) << tag;
        std::vector<double> lifted = plan.draw;
        lifted.push_back(plan.theta);
        EXPECT_LE(full.max_violation(lifted), 1e-9) << tag;
      }
    }
    // The requester nobody shares with: nothing to draw on, so any positive
    // amount is Insufficient and amount 0 is granted with theta 0.
    EXPECT_EQ(al.allocate(0, 1.0).status, alloc::PlanStatus::Insufficient);
    const alloc::AllocationPlan zero = al.allocate(0, 0.0);
    EXPECT_EQ(zero.status, alloc::PlanStatus::Satisfied);
    EXPECT_EQ(zero.theta, 0.0);
  }
  // The corpus exercises both outcomes and mostly partial supports.
  EXPECT_GT(satisfied, consults / 3);
  EXPECT_GT(insufficient, consults / 10);
  EXPECT_GT(partial_support, consults / 2);
}

TEST(SupportModel, FullModelAtFullAvailabilityCertifiesOnTheRevisedEngine) {
  // Regression: on PlansMatchTheFullCompactModel's system for seed 2, the
  // FULL model of requester 1 asking for all it can get used to come back
  // from the revised engine with theta = 0 and the demand row violated by
  // the whole amount (a zero-level artificial grew in phase 2). It must
  // certify on the one stage, presolved or as a workspace solve.
  Pcg32 rng(2 * 7919);
  const std::size_t n = 2 + rng.uniform_u32(11);
  const alloc::Allocator al(random_system(rng, n));
  const std::size_t a = 1;
  const double amount = al.available_to(a);
  ASSERT_GT(amount, 0.0);
  const lp::Problem full = oracle::full_compact_model(al.system(), al.capacities(), a, amount);
  lp::SolvePipeline pipeline;
  lp::SolveWorkspace ws;
  for (lp::SolveWorkspace* w : {static_cast<lp::SolveWorkspace*>(nullptr), &ws}) {
    const lp::PipelineResult pr = pipeline.solve(full, w);
    ASSERT_TRUE(pr.certified()) << (pr.certificate.reject ? pr.certificate.reject : "");
    EXPECT_EQ(pr.stage, lp::PipelineStage::ColdRevised);
    EXPECT_EQ(pr.fallbacks, 0u);
    ASSERT_EQ(pr.result.status, lp::Status::Optimal);
    EXPECT_LE(full.max_violation(pr.result.x), 1e-9);
  }
  EXPECT_EQ(pipeline.stats().exhausted, 0u);
  const alloc::AllocationPlan plan = al.allocate(a, amount);
  EXPECT_TRUE(plan.certified);
  EXPECT_TRUE(plan.satisfied());
}

TEST(SupportModel, FullSupportIsBitIdenticalToTheFullModel) {
  // A complete graph gives every requester the full support and touches
  // every row, so the support model is the full model: the cold certified
  // solve of each must return the same bits.
  for (const std::size_t n : {std::size_t{4}, std::size_t{9}, std::size_t{16}}) {
    agree::AgreementSystem sys(n);
    sys.relative = agree::complete_graph(n, 0.7 / static_cast<double>(n));
    Pcg32 rng(n);
    for (double& c : sys.capacity) c = rng.uniform(2.0, 12.0);
    alloc::AllocatorOptions opts;
    opts.transitive.max_level = 3;  // keeps the closure tractable at n = 16
    const alloc::Allocator al(sys, opts);
    lp::SolvePipeline pipeline(lp::PipelineOptions{});
    for (std::size_t a = 0; a < n; ++a) {
      const double amount = al.available_to(a) * (0.1 + 0.05 * static_cast<double>(a));
      const alloc::AllocationPlan plan = al.allocate(a, amount);
      const lp::Problem full =
          oracle::full_compact_model(al.system(), al.capacities(), a, amount);
      lp::SolveWorkspace ws;
      const lp::PipelineResult want = pipeline.solve(full, &ws);
      ASSERT_TRUE(want.certified());
      ASSERT_EQ(want.result.status, lp::Status::Optimal);
      ASSERT_TRUE(plan.satisfied());
      EXPECT_EQ(plan.theta, want.result.x[n]) << "n " << n << " a " << a;
      for (std::size_t k = 0; k < n; ++k)
        EXPECT_EQ(plan.draw[k], std::max(0.0, want.result.x[k])) << "n " << n << " k " << k;
      EXPECT_EQ(plan.lp_iterations, want.result.iterations);
      EXPECT_EQ(plan.solver_fallbacks, want.fallbacks);
    }
  }
}

TEST(SupportModel, RepeatedSupportPatchesToTheFreshModel) {
  // A consult with the last one's support only moves bounds and the demand
  // rhs; the patched model must equal a model built fresh for it.
  Pcg32 rng(4242);
  const alloc::Allocator al(random_system(rng, 9));
  alloc::SupportModel reused;
  for (std::size_t a = 0; a < al.size(); ++a) {
    for (const double amount : {1.0, 3.5, 0.0}) {
      const lp::Problem& p = reused.build(al.system(), al.capacities(), a, amount);
      alloc::SupportModel fresh;
      const lp::Problem& q = fresh.build(al.system(), al.capacities(), a, amount);
      ASSERT_EQ(reused.columns(), fresh.columns());
      ASSERT_EQ(p.num_constraints(), q.num_constraints());
      EXPECT_EQ(p.lower_bounds(), q.lower_bounds());
      EXPECT_EQ(p.upper_bounds(), q.upper_bounds());
      EXPECT_EQ(p.objective(), q.objective());
      for (std::size_t i = 0; i < p.num_constraints(); ++i) {
        EXPECT_EQ(p.constraint(i).coeffs, q.constraint(i).coeffs);
        EXPECT_EQ(p.constraint(i).rel, q.constraint(i).rel);
        EXPECT_EQ(p.constraint(i).rhs, q.constraint(i).rhs);
      }
    }
  }
}

}  // namespace
}  // namespace agora
