// Adversarial corpus for the certified solve: cycling-prone and degenerate
// problems, near-singular bases, wild coefficient ranges, random
// ill-conditioned systems and long workspace-reusing perturbation sequences.
// The contract under attack is always the same: every solve either returns
// a *certified* answer or an explicitly typed degraded status -- never a
// silent wrong answer.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <random>
#include <vector>

#include "lp/brute_force.h"
#include "lp/certify.h"
#include "lp/problem.h"
#include "lp/solve.h"
#include "lp/solve_pipeline.h"
#include "lp/workspace.h"

namespace agora::lp {
namespace {

// Beale's classic cycling example: Dantzig pricing with a naive tie-break
// cycles forever on this LP. Optimum is -0.05 at (0.04, 0, 1, 0).
Problem beale() {
  Problem p(Sense::Minimize);
  p.add_variable("x1", 0.0, kInfinity, -0.75);
  p.add_variable("x2", 0.0, kInfinity, 150.0);
  p.add_variable("x3", 0.0, kInfinity, -0.02);
  p.add_variable("x4", 0.0, kInfinity, 6.0);
  p.add_constraint({0.25, -60.0, -0.04, 9.0}, Relation::LessEqual, 0.0);
  p.add_constraint({0.5, -90.0, -0.02, 3.0}, Relation::LessEqual, 0.0);
  p.add_constraint({0.0, 0.0, 1.0, 0.0}, Relation::LessEqual, 1.0);
  return p;
}

// min 2x + 3y over x + y >= 4, x <= 3, y <= 3: optimum x = 3, y = 1.
Problem two_var_corpus() {
  Problem p(Sense::Minimize);
  p.add_variable("x", 0.0, kInfinity, 2.0);
  p.add_variable("y", 0.0, kInfinity, 3.0);
  p.add_constraint({1.0, 1.0}, Relation::GreaterEqual, 4.0);
  p.add_constraint({1.0, 0.0}, Relation::LessEqual, 3.0);
  p.add_constraint({0.0, 1.0}, Relation::LessEqual, 3.0);
  return p;
}

TEST(Adversarial, BealeCyclingExampleCertifiesOnBothEngines) {
  const Problem p = beale();
  // Each engine alone, without presolve, so the anti-cycling of the engine
  // itself is what gets certified.
  for (const Backend backend : {Backend::Revised, Backend::Tableau}) {
    SolveOptions o;
    o.backend = backend;
    o.presolve = false;
    const SolveResult r = solve(p, o);
    const Certificate cert = Verifier(o.tols).certify(p, r);
    ASSERT_TRUE(cert.certified)
        << "backend " << to_string(backend) << ": "
        << (cert.reject ? cert.reject : "uncertified");
    EXPECT_EQ(cert.claim, Certificate::Claim::Optimal);
    EXPECT_NEAR(r.objective, -0.05, 1e-6);
  }
  // And the production chain.
  SolvePipeline pl;
  const PipelineResult pr = pl.solve(p);
  ASSERT_TRUE(pr.certified());
  EXPECT_NEAR(pr.result.objective, -0.05, 1e-6);
}

TEST(Adversarial, DegenerateTiesCertify) {
  // The optimum (1, 1) is degenerate: three constraints meet where only two
  // are needed, so ratio tests tie and pivots can stall at zero step length.
  Problem p(Sense::Maximize);
  p.add_variable("x", 0.0, kInfinity, 1.0);
  p.add_variable("y", 0.0, kInfinity, 1.0);
  p.add_constraint({1.0, 0.0}, Relation::LessEqual, 1.0);
  p.add_constraint({0.0, 1.0}, Relation::LessEqual, 1.0);
  p.add_constraint({1.0, 1.0}, Relation::LessEqual, 2.0);
  SolvePipeline pl;
  const PipelineResult pr = pl.solve(p);
  ASSERT_TRUE(pr.certified());
  EXPECT_NEAR(pr.result.objective, 2.0, 1e-9);
}

TEST(Adversarial, NearSingularBasisCertifiesOrDegradesTyped) {
  // Two almost-parallel rows: the optimal basis is within 1e-10 of
  // singular, so the basis inverse is enormous and every elementary update
  // amplifies error. Whatever happens must be certified or typed.
  Problem p(Sense::Minimize);
  p.add_variable("x", 0.0, 10.0, -1.0);
  p.add_variable("y", 0.0, 10.0, -1.0);
  p.add_constraint({1.0, 1.0}, Relation::LessEqual, 2.0);
  p.add_constraint({1.0, 1.0 + 1e-10}, Relation::LessEqual, 2.0);
  SolvePipeline pl;
  const PipelineResult pr = pl.solve(p);
  EXPECT_TRUE(pr.certified() || pr.stage == PipelineStage::Exhausted);
  if (pr.certified() && pr.certificate.claim == Certificate::Claim::Optimal) {
    const SolveResult exact = brute_force_solve(p);
    ASSERT_EQ(exact.status, Status::Optimal);
    EXPECT_NEAR(pr.result.objective, exact.objective, 1e-6 * (1.0 + std::fabs(exact.objective)));
  }
}

TEST(Adversarial, CoefficientsSpanningEightOrdersOfMagnitude) {
  // Columns at 1e-8 and 1e8 in the same rows: absolute-epsilon tests either
  // drown the small column in noise or treat the large one as violated.
  // The relative (norm-scaled) tolerance policy must certify this anyway.
  Problem p(Sense::Minimize);
  p.add_variable("tiny", 0.0, kInfinity, 1e-8);
  p.add_variable("huge", 0.0, kInfinity, 1e8);
  p.add_variable("unit", 0.0, kInfinity, 1.0);
  p.add_constraint({1e8, 1.0, 0.0}, Relation::GreaterEqual, 1e8);
  p.add_constraint({0.0, 1e-8, 1.0}, Relation::GreaterEqual, 1.0);
  SolvePipeline pl;
  const PipelineResult pr = pl.solve(p);
  ASSERT_TRUE(pr.certified())
      << (pr.certificate.reject ? pr.certificate.reject : "uncertified");
  EXPECT_EQ(pr.certificate.claim, Certificate::Claim::Optimal);
  // Optimum: tiny = 1, unit = 1, huge = 0 -> objective 1e-8 + 1.
  EXPECT_NEAR(pr.result.objective, 1.0 + 1e-8, 1e-6);
}

TEST(Adversarial, RandomIllConditionedSystemsNeverAnswerSilentlyWrong) {
  std::mt19937 rng(20260806u);
  std::uniform_real_distribution<double> mag(-2.0, 2.0);   // 10^mag coefficient scales
  std::uniform_real_distribution<double> rhs_draw(0.5, 2.0);
  std::uniform_int_distribution<int> sign(0, 1);
  std::uniform_int_distribution<int> rel3(0, 2);

  std::size_t certified = 0;
  for (int trial = 0; trial < 40; ++trial) {
    Problem p(Sense::Minimize);
    for (int j = 0; j < 4; ++j)
      p.add_variable(0.0, 10.0, (sign(rng) ? 1.0 : -1.0) * std::pow(10.0, mag(rng)));
    for (int i = 0; i < 3; ++i) {
      std::vector<double> row(4);
      for (double& a : row) a = (sign(rng) ? 1.0 : -1.0) * std::pow(10.0, mag(rng));
      const Relation rel = rel3(rng) == 0   ? Relation::LessEqual
                           : rel3(rng) == 1 ? Relation::GreaterEqual
                                            : Relation::Equal;
      p.add_constraint(row, rel, (sign(rng) ? 1.0 : -1.0) * rhs_draw(rng));
    }

    SolvePipeline pl;
    const PipelineResult pr = pl.solve(p);
    // The load-bearing invariant: certified, or explicitly exhausted.
    ASSERT_TRUE(pr.certified() || pr.stage == PipelineStage::Exhausted)
        << "trial " << trial << " returned an untyped answer";
    if (!pr.certified()) continue;
    ++certified;
    // Cross-check certified claims against exact enumeration (all variables
    // boxed, so Unbounded is impossible).
    const SolveResult exact = brute_force_solve(p);
    if (pr.certificate.claim == Certificate::Claim::Optimal) {
      ASSERT_EQ(exact.status, Status::Optimal) << "trial " << trial;
      EXPECT_NEAR(pr.result.objective, exact.objective,
                  1e-5 * (1.0 + std::fabs(exact.objective)))
          << "trial " << trial;
    } else if (pr.certificate.claim == Certificate::Claim::Infeasible) {
      EXPECT_EQ(exact.status, Status::Infeasible) << "trial " << trial;
    }
  }
  // The chain should survive the vast majority of the corpus, not just the
  // odd lucky instance.
  EXPECT_GE(certified, 35u);
}

TEST(Adversarial, WorkspaceSequenceRecertifiesAcrossThousandPerturbations) {
  // One workspace across a thousand rhs moves: each solve repatches the
  // standard form in place and must still certify and match the
  // workspace-free solve bit for bit.
  Problem p = two_var_corpus();
  SolvePipeline pl;
  SolveWorkspace ws;
  SolveOptions fresh_opts;
  fresh_opts.presolve = false;  // what a workspace solve runs
  for (int i = 0; i <= 1000; ++i) {
    p.set_rhs(0, 4.0 + 0.002 * (i % 37));
    p.set_rhs(1, 3.0 + 0.01 * (i % 11));
    const PipelineResult pr = pl.solve(p, &ws);
    ASSERT_TRUE(pr.certified())
        << "solve " << i << ": "
        << (pr.certificate.reject ? pr.certificate.reject : "uncertified");
    const SolveResult fresh = lp::solve(p, fresh_opts);
    ASSERT_EQ(pr.result.x, fresh.x) << "solve " << i;
    ASSERT_EQ(pr.result.duals, fresh.duals) << "solve " << i;
  }
  EXPECT_EQ(pl.stats().solves, 1001u);
  EXPECT_EQ(pl.stats().certified, 1001u);
  EXPECT_EQ(pl.stats().exhausted, 0u);
}

TEST(Adversarial, StallDetectionReportsBlandPivots) {
  // Force Bland's rule on by making every pivot degenerate: a cascade of
  // zero-rhs rows. The solve must terminate, certify, and account for the
  // anti-cycling pivots it took (possibly zero if Dantzig escapes early --
  // the hard requirement is termination + certification).
  Problem p(Sense::Minimize);
  p.add_variable("a", 0.0, kInfinity, -1.0);
  p.add_variable("b", 0.0, kInfinity, -1.0);
  p.add_variable("c", 0.0, kInfinity, 2.0);
  p.add_constraint({1.0, -1.0, 1.0}, Relation::LessEqual, 0.0);
  p.add_constraint({-1.0, 1.0, 1.0}, Relation::LessEqual, 0.0);
  p.add_constraint({1.0, 1.0, -1.0}, Relation::LessEqual, 1.0);
  SolvePipeline pl;
  const PipelineResult pr = pl.solve(p);
  EXPECT_TRUE(pr.certified() || pr.stage == PipelineStage::Exhausted);
  if (pr.certified() && pr.certificate.claim == Certificate::Claim::Optimal) {
    const SolveResult exact = brute_force_solve(p);
    if (exact.status == Status::Optimal) {
      EXPECT_NEAR(pr.result.objective, exact.objective, 1e-6);
    }
  }
}

}  // namespace
}  // namespace agora::lp
