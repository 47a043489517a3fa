// lp_workspace_test.cpp -- a reused SolveWorkspace changes nothing about
// what is computed, and the allocator's cached support model that shares its
// workspace decides like an LP built from scratch.
//
// Invariant under test: a workspace carries scratch and the last standard
// form (for the O(rows) rhs repatch), never a basis, so a workspace solve is
// bit-identical to a fresh presolve-off solve. That must hold over fuzzed
// bound/rhs perturbation sequences, across switches between matrices that
// share one workspace, and through an infeasible -> feasible recovery; the
// fresh answers themselves must agree with the tableau and (on tiny
// instances) brute-force vertex enumeration. One layer up, the allocator's
// consults must agree with an lp::solve of the same LP built from scratch.
// The LpWarmstart / AllocatorWarmstart suite names predate cold-only solves.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <string>
#include <vector>

#include "agree/topology.h"
#include "alloc/allocator.h"
#include "lp/brute_force.h"
#include "lp/model_builder.h"
#include "lp/solve.h"
#include "util/rng.h"

namespace agora::lp {
namespace {

constexpr double kTol = 1e-7;

/// Thin shims over lp::solve so the fuzz loops below read like the solver
/// calls they compare. Presolve is off: a workspace solve never presolves,
/// so the fresh solve it must reproduce is the presolve-off one.
struct RevisedRunner {
  SolveResult solve(const Problem& p, SolveWorkspace* ws = nullptr) const {
    SolveOptions o;
    o.backend = Backend::Revised;
    o.presolve = false;
    return lp::solve(p, o, ws);
  }
};
struct TableauRunner {
  SolveResult solve(const Problem& p) const {
    SolveOptions o;
    o.backend = Backend::Tableau;
    o.presolve = false;
    return lp::solve(p, o);
  }
};

/// The allocation-LP shape used by the amortized path: n draws in
/// [0, u_k], theta; sum d == amount; per-row drop - theta <= 0.
struct CompactFixture {
  Problem problem;
  std::size_t n = 0;

  static CompactFixture make(std::size_t n, Pcg32& rng) {
    CompactFixture f;
    f.n = n;
    ModelBuilder mb(Sense::Minimize);
    std::vector<Var> d = mb.add_vars(n, 0.0, 1.0);
    const Var theta = mb.add_var(0.0);
    mb.add(sum(d) == 1.0, "demand");
    for (std::size_t i = 0; i < n; ++i) {
      LinExpr drop;
      for (std::size_t k = 0; k < n; ++k) {
        const double c = k == i ? rng.uniform(0.5, 1.0) : rng.uniform(0.0, 0.4);
        if (c > 0.02) drop += c * d[k];
      }
      mb.add(drop - 1.0 * theta <= 0.0, "perturb");
    }
    mb.minimize(LinExpr(theta));
    f.problem = std::move(mb.problem());
    return f;
  }

  /// Random bound/rhs perturbation -- the motion the workspace's standard
  /// form absorbs by repatching instead of rebuilding.
  void perturb(Pcg32& rng) {
    for (std::size_t k = 0; k < n; ++k) problem.set_bounds(k, 0.0, rng.uniform(0.0, 2.0));
    problem.set_rhs(0, rng.uniform(0.0, 1.5));
  }
};

/// Bit-identity: what a reused workspace must give against a fresh solve.
void expect_identical(const SolveResult& want, const SolveResult& got, const char* tag) {
  ASSERT_EQ(want.status, got.status) << tag;
  EXPECT_EQ(want.objective, got.objective) << tag;
  EXPECT_EQ(want.x, got.x) << tag;
  EXPECT_EQ(want.duals, got.duals) << tag;
  EXPECT_EQ(want.farkas, got.farkas) << tag;
  EXPECT_EQ(want.iterations, got.iterations) << tag;
}

/// Agreement to tolerance: what independent engines must give.
void expect_same_result(const SolveResult& want, const SolveResult& got, const char* tag) {
  ASSERT_EQ(want.status, got.status) << tag;
  if (want.status != Status::Optimal) return;
  EXPECT_NEAR(want.objective, got.objective, kTol) << tag;
  ASSERT_EQ(want.duals.size(), got.duals.size()) << tag;
  for (std::size_t i = 0; i < want.duals.size(); ++i)
    EXPECT_NEAR(want.duals[i], got.duals[i], kTol) << tag << " dual " << i;
}

TEST(LpWarmstart, NullWorkspaceIsTheColdSolve) {
  Pcg32 rng(11);
  CompactFixture f = CompactFixture::make(6, rng);
  RevisedRunner solver;
  const SolveResult a = solver.solve(f.problem);
  const SolveResult b = solver.solve(f.problem, nullptr);
  ASSERT_EQ(a.status, b.status);
  ASSERT_EQ(a.status, Status::Optimal);
  EXPECT_EQ(a.objective, b.objective);  // bit-identical, not just close
  EXPECT_EQ(a.x, b.x);
  EXPECT_EQ(a.duals, b.duals);
  EXPECT_EQ(a.iterations, b.iterations);
}

TEST(LpWarmstart, FuzzedPerturbationsMatchColdTableauAndBruteForce) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Pcg32 rng(seed * 977);
    const std::size_t n = 2 + seed % 3;  // tiny: brute force stays cheap
    CompactFixture f = CompactFixture::make(n, rng);
    RevisedRunner revised;
    TableauRunner tableau;
    SolveWorkspace ws;
    for (int step = 0; step < 40; ++step) {
      f.perturb(rng);
      const SolveResult fresh = revised.solve(f.problem);
      const SolveResult reused = revised.solve(f.problem, &ws);
      const SolveResult tab = tableau.solve(f.problem);
      const SolveResult brute = brute_force_solve(f.problem);
      expect_identical(fresh, reused, "reused vs fresh");
      expect_same_result(fresh, tab, "tableau vs fresh");
      ASSERT_EQ(fresh.status, brute.status) << "brute vs fresh";
      if (fresh.status == Status::Optimal) {
        EXPECT_NEAR(fresh.objective, brute.objective, kTol) << "brute objective";
      }
    }
  }
}

TEST(LpWarmstart, LargerFuzzedSequencesStayBitIdentical) {
  Pcg32 rng(31337);
  CompactFixture f = CompactFixture::make(12, rng);
  RevisedRunner revised;
  SolveWorkspace ws;
  for (int step = 0; step < 120; ++step) {
    f.perturb(rng);
    expect_identical(revised.solve(f.problem), revised.solve(f.problem, &ws), "reused vs fresh");
  }
}

TEST(LpWarmstart, StructureSwitchesStayBitIdentical) {
  Pcg32 rng(7);
  CompactFixture small = CompactFixture::make(4, rng);
  CompactFixture big = CompactFixture::make(9, rng);
  RevisedRunner revised;
  SolveWorkspace ws;
  // Alternate between two different matrices through ONE workspace: every
  // switch rebuilds the standard form, every repeat repatches it, and both
  // must reproduce the fresh answers.
  for (int step = 0; step < 20; ++step) {
    CompactFixture& f = step % 4 < 2 ? small : big;
    f.perturb(rng);
    expect_identical(revised.solve(f.problem), revised.solve(f.problem, &ws),
                     "reused vs fresh across structure switches");
  }
}

TEST(LpWarmstart, InfeasibleAndUnboundedPerturbationsAreDetected) {
  Pcg32 rng(99);
  CompactFixture f = CompactFixture::make(5, rng);
  RevisedRunner revised;
  SolveWorkspace ws;
  f.perturb(rng);
  expect_identical(revised.solve(f.problem), revised.solve(f.problem, &ws), "feasible");
  // Demand beyond the sum of the bounds: infeasible, with the same Farkas
  // certificate as the fresh solve.
  f.problem.set_rhs(0, 1e6);
  const SolveResult infeasible = revised.solve(f.problem, &ws);
  EXPECT_EQ(infeasible.status, Status::Infeasible);
  expect_identical(revised.solve(f.problem), infeasible, "infeasible");
  // And recovery back to a feasible rhs reproduces the fresh answer.
  f.problem.set_rhs(0, 0.25);
  const SolveResult back = revised.solve(f.problem, &ws);
  EXPECT_EQ(back.status, Status::Optimal);
  expect_identical(revised.solve(f.problem), back, "recovery after infeasible");
}

}  // namespace
}  // namespace agora::lp

namespace agora::alloc {
namespace {

/// The compact allocation LP for (a, amount) built from scratch out of the
/// allocator's own availability report: d_k in [0, U_ka], sum d = amount,
/// sum_k d_k * That_ki <= theta for every i, minimize theta.
lp::Problem compact_lp(const Allocator& al, std::size_t a, double amount) {
  const std::size_t n = al.size();
  const agree::CapacityReport& rep = al.capacities();
  lp::ModelBuilder mb(lp::Sense::Minimize);
  std::vector<lp::Var> d(n);
  for (std::size_t k = 0; k < n; ++k) d[k] = mb.add_var(0.0, rep.entitlement(k, a));
  const lp::Var theta = mb.add_var(0.0);
  mb.add(lp::sum(d) == amount);
  for (std::size_t i = 0; i < n; ++i) {
    lp::LinExpr drop;
    for (std::size_t k = 0; k < n; ++k) {
      const double c = k == i ? al.system().retained[i] : rep.shares(k, i);
      if (c > 0.0) drop += c * d[k];
    }
    mb.add(drop - 1.0 * theta <= 0.0);
  }
  mb.minimize(lp::LinExpr(theta));
  return std::move(mb.problem());
}

/// Check one consult against two independent oracles on the rebuilt LP:
/// the presolved revised solve and the direct tableau solve.
void expect_matches_oracles(const Allocator& al, std::size_t a, double amount,
                            const AllocationPlan& plan, const std::string& tag) {
  const lp::Problem p = compact_lp(al, a, amount);
  lp::SolveOptions tableau;
  tableau.backend = lp::Backend::Tableau;
  tableau.presolve = false;
  for (const lp::SolveOptions& o : {lp::SolveOptions{}, tableau}) {
    const lp::SolveResult r = lp::solve(p, o);
    ASSERT_EQ(r.status == lp::Status::Optimal, plan.satisfied())
        << tag << " backend " << lp::to_string(o.backend);
    if (plan.satisfied()) {
      EXPECT_TRUE(plan.certified) << tag;
      EXPECT_NEAR(r.objective, plan.theta, 1e-7) << tag << " " << lp::to_string(o.backend);
    }
  }
}

/// Lockstep fuzz at the allocator level: an allocator driven through random
/// allocate/apply/release/set_capacities sequences must decide every consult
/// the way the oracles decide the same LP built from scratch.
TEST(AllocatorWarmstart, LockstepEnginesAgreeOverRequestReleaseSequences) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Pcg32 rng(seed * 12345);
    const std::size_t n = 4 + seed;
    agree::AgreementSystem sys(n);
    sys.relative = agree::complete_graph(n, 0.6 / static_cast<double>(n));
    for (std::size_t i = 0; i < n; ++i) sys.capacity[i] = rng.uniform(5.0, 15.0);
    Allocator al(sys);

    for (int step = 0; step < 60; ++step) {
      const std::size_t a = rng.uniform_u32(static_cast<std::uint32_t>(n));
      const int action = static_cast<int>(rng.uniform_u32(4));
      if (action == 0) {
        std::vector<double> caps(n);
        for (double& c : caps) c = rng.uniform(2.0, 15.0);
        al.set_capacities(caps);
        continue;
      }
      if (action == 1) {
        std::vector<double> back(n, 0.0);
        for (double& b : back) b = rng.uniform(0.0, 0.5);
        al.release(back);
        continue;
      }
      const double amount =
          std::min(al.available_to(a) * rng.uniform(0.0, 0.9), rng.uniform(0.0, 8.0));
      const AllocationPlan plan = al.allocate(a, amount);
      expect_matches_oracles(al, a, amount, plan,
                             "seed " + std::to_string(seed) + " step " + std::to_string(step));
      if (action == 3 && plan.satisfied()) al.apply(plan);  // sometimes commit
    }
  }
}

/// Repeated identical requests against an unchanged system: every answer is
/// the oracle's, and every repeat is bit-identical to the first.
TEST(AllocatorWarmstart, RepeatedIdenticalRequestsStaySatisfiedAndStable) {
  agree::AgreementSystem sys(6);
  sys.relative = agree::distance_decay(6, {0.25, 0.10});
  for (std::size_t i = 0; i < 6; ++i) sys.capacity[i] = 10.0;
  Allocator al(sys);
  const AllocationPlan first = al.allocate(2, 4.0);
  ASSERT_TRUE(first.satisfied());
  expect_matches_oracles(al, 2, 4.0, first, "first");
  for (int i = 0; i < 20; ++i) {
    const AllocationPlan p = al.allocate(2, 4.0);
    ASSERT_TRUE(p.satisfied());
    EXPECT_EQ(p.theta, first.theta);
    EXPECT_EQ(p.draw, first.draw);
  }
}

}  // namespace
}  // namespace agora::alloc
