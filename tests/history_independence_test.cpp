// history_independence_test.cpp -- a plan is a pure function of (snapshot,
// request).
//
// The plan cache serves a plan solved for an earlier consult, replicated
// shards each solve on their own allocator, and a snapshot-restored GRM
// replica rebuilds its allocators from scratch. All three are exact only if
// an allocator's answer never depends on the consults, commits and releases
// it saw before. These tests drive allocators through different histories
// to the same state and require bit-identical plans for the same request.
// What makes it hold: every LP solve starts cold from the slack basis, and
// the solver workspace an allocator reuses carries scratch and the last
// standard form, never a basis.
#include <gtest/gtest.h>

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "agree/topology.h"
#include "alloc/allocator.h"
#include "rms/replica/state_machine.h"
#include "util/rng.h"

namespace agora {
namespace {

constexpr std::size_t kSites = 8;

/// Uniform complete sharing with equal capacities: symmetric, so most
/// requests have many optimal vertices and a solver's path picks one.
agree::AgreementSystem symmetric_system() {
  agree::AgreementSystem sys(kSites);
  sys.relative = agree::complete_graph(kSites, 0.6 / static_cast<double>(kSites));
  for (double& c : sys.capacity) c = 10.0;
  return sys;
}

/// Distance-decayed sharing (Figure 13's shape) with seeded capacities.
agree::AgreementSystem decay_system() {
  agree::AgreementSystem sys(kSites);
  sys.relative = agree::distance_decay(kSites, {0.2, 0.1, 0.05});
  Pcg32 rng(77);
  for (double& c : sys.capacity) c = rng.uniform(6.0, 14.0);
  return sys;
}

void expect_same_plan(const alloc::AllocationPlan& want, const alloc::AllocationPlan& got,
                      const std::string& tag) {
  ASSERT_EQ(want.status, got.status) << tag;
  EXPECT_EQ(want.certified, got.certified) << tag;
  EXPECT_EQ(want.theta, got.theta) << tag;
  EXPECT_EQ(want.draw, got.draw) << tag;
  EXPECT_EQ(want.capacity_after, got.capacity_after) << tag;
  EXPECT_EQ(want.lp_iterations, got.lp_iterations) << tag;
  EXPECT_EQ(want.solver_fallbacks, got.solver_fallbacks) << tag;
}

/// Random consults, commits and releases; ends by restoring `target`.
void wear(alloc::Allocator& al, Pcg32& rng, const std::vector<double>& target) {
  const std::size_t n = al.size();
  std::vector<std::vector<double>> granted;
  for (int step = 0; step < 80; ++step) {
    const std::size_t a = rng.uniform_u32(static_cast<std::uint32_t>(n));
    const double amount = al.available_to(a) * rng.uniform(0.05, 0.6);
    const alloc::AllocationPlan plan = al.allocate(a, amount);
    if (plan.satisfied() && rng.uniform_u32(2) == 0) {
      al.apply(plan);
      granted.push_back(plan.draw);
    }
    if (!granted.empty() && rng.uniform_u32(3) == 0) {
      al.release(granted.back());
      granted.pop_back();
    }
  }
  al.set_capacities(std::span<const double>(target));
}

TEST(HistoryIndependence, AllocatorPlansIgnorePriorConsults) {
  for (const agree::AgreementSystem& sys : {symmetric_system(), decay_system()}) {
    // `fresh` starts at the snapshot with no history; `worn` starts from
    // other capacities and is driven there through consults, commits and
    // releases; `reversed` sees the probe requests in the opposite order.
    agree::AgreementSystem other = sys;
    for (double& c : other.capacity) c *= 1.7;
    alloc::Allocator fresh(sys), worn(other), reversed(sys);
    Pcg32 rng(2024);
    wear(worn, rng, sys.capacity);

    std::vector<std::pair<std::size_t, double>> probes;
    for (std::size_t a = 0; a < kSites; ++a)
      for (double frac : {0.1, 0.45, 0.9}) probes.emplace_back(a, fresh.available_to(a) * frac);

    std::vector<alloc::AllocationPlan> backward(probes.size());
    for (std::size_t i = probes.size(); i-- > 0;)
      backward[i] = reversed.allocate(probes[i].first, probes[i].second);
    for (std::size_t i = 0; i < probes.size(); ++i) {
      const auto [a, amount] = probes[i];
      const alloc::AllocationPlan want = fresh.allocate(a, amount);
      ASSERT_TRUE(want.satisfied()) << "probe " << i;
      expect_same_plan(want, worn.allocate(a, amount), "worn probe " + std::to_string(i));
      expect_same_plan(want, backward[i], "reversed probe " + std::to_string(i));
    }
  }
}

rms::AllocationRequest request(std::uint64_t id, std::size_t principal, double amount) {
  rms::AllocationRequest req;
  req.request_id = id;
  req.principal = principal;
  req.amounts = {amount};
  return req;
}

TEST(HistoryIndependence, RestoredGrmDecidesLikeTheLeader) {
  rms::GrmStateMachine leader({symmetric_system()}, {}, {});
  for (std::size_t s = 0; s < kSites; ++s) leader.register_site(s);
  Pcg32 rng(31);
  std::uint64_t id = 0, seq = 0;
  double now = 0.0;
  const auto report_all = [&](rms::GrmStateMachine& sm) {
    for (std::size_t s = 0; s < kSites; ++s) {
      rms::AvailabilityReport rep;
      rep.lrm = s;
      rep.available = {10.0};
      rep.report_seq = seq;
      sm.apply_report(rep, now);
    }
  };
  // The leader decides a long history: reports refill availability, grants
  // drain it.
  for (int round = 0; round < 6; ++round) {
    ++seq;
    report_all(leader);
    for (int k = 0; k < 12; ++k) {
      now += 1.0;
      (void)leader.decide(request(++id, rng.uniform_u32(kSites), rng.uniform(0.5, 6.0)), now,
                          true);
    }
  }

  rms::GrmStateMachine replica({symmetric_system()}, {}, {});
  replica.restore(leader.snapshot());
  ASSERT_EQ(leader.digest(), replica.digest());
  std::uint64_t granted = 0;
  for (int k = 0; k < 24; ++k) {
    if (k == 12) {
      ++seq;
      report_all(leader);
      report_all(replica);
    }
    now += 1.0;
    const rms::AllocationRequest req =
        request(++id, rng.uniform_u32(kSites), rng.uniform(0.5, 6.0));
    const auto want = leader.decide(req, now, true);
    const auto got = replica.decide(req, now, true);
    ASSERT_EQ(want.kind, got.kind) << "request " << req.request_id;
    EXPECT_EQ(want.reply.draws, got.reply.draws) << "request " << req.request_id;
    ASSERT_EQ(leader.digest(), replica.digest()) << "request " << req.request_id;
    if (want.reply.granted) ++granted;
  }
  EXPECT_GT(granted, 0u);  // the comparison covered real plans, not only denials
}

}  // namespace
}  // namespace agora
