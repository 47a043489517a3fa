// Tests for the sharded enforcement engine (DESIGN.md §11): partitioning,
// threads=1 decision identity against the direct Allocator path (including
// byte-identical trace-event streams and same-seed simulator runs),
// component-exact sharded decisions, the unified Status surface of
// submit(), snapshot epochs, and certification inheritance.
#include <gtest/gtest.h>

#include <cstring>
#include <future>
#include <vector>

#include "agree/topology.h"
#include "engine/engine.h"
#include "engine/partition.h"
#include "obs/event_ring.h"
#include "proxysim/simulator.h"
#include "trace/generator.h"
#include "util/error.h"

namespace agora::engine {
namespace {

/// `islands` complete-graph economies of `per` participants each, glued
/// into one AgreementSystem with zero cross-island agreements.
agree::AgreementSystem island_economy(std::size_t islands, std::size_t per, double share,
                                      double cap = 10.0) {
  const std::size_t n = islands * per;
  agree::AgreementSystem sys(n);
  for (std::size_t i = 0; i < n; ++i) sys.capacity[i] = cap + static_cast<double>(i % per);
  for (std::size_t g = 0; g < islands; ++g)
    for (std::size_t i = 0; i < per; ++i)
      for (std::size_t j = 0; j < per; ++j)
        if (i != j) sys.relative(g * per + i, g * per + j) = share;
  return sys;
}

agree::AgreementSystem connected_economy(std::size_t n, double share) {
  agree::AgreementSystem sys(n);
  for (std::size_t i = 0; i < n; ++i) sys.capacity[i] = 5.0 + static_cast<double>(i);
  sys.relative = agree::complete_graph(n, share);
  return sys;
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  return a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Field-by-field, bit-exact plan comparison (the threads=1 guarantee).
void expect_identical(const alloc::AllocationPlan& e, const alloc::AllocationPlan& d) {
  EXPECT_EQ(e.status, d.status);
  EXPECT_TRUE(bitwise_equal(e.draw, d.draw));
  EXPECT_EQ(e.theta, d.theta);
  EXPECT_TRUE(bitwise_equal(e.capacity_before, d.capacity_before));
  EXPECT_TRUE(bitwise_equal(e.capacity_after, d.capacity_after));
  EXPECT_EQ(e.lp_iterations, d.lp_iterations);
  EXPECT_EQ(e.certified, d.certified);
  EXPECT_EQ(e.solver_fallbacks, d.solver_fallbacks);
}

// -------------------------------------------------------------- partition ---

TEST(Partition, IslandsBecomeComponents) {
  const auto sys = island_economy(4, 3, 0.2);
  const Partition p = partition_participants(sys, 4);
  EXPECT_EQ(p.components, 4u);
  EXPECT_EQ(p.shards, 4u);
  EXPECT_FALSE(p.replicated);
  // Every island lands on exactly one shard, members ascending.
  for (std::size_t i = 0; i < sys.size(); ++i)
    EXPECT_EQ(p.shard_of[i], p.shard_of[(i / 3) * 3]);
  std::size_t total = 0;
  for (const auto& m : p.members) {
    EXPECT_TRUE(std::is_sorted(m.begin(), m.end()));
    total += m.size();
  }
  EXPECT_EQ(total, sys.size());
}

TEST(Partition, ShardCountClampsToComponents) {
  const auto sys = island_economy(2, 4, 0.2);
  const Partition p = partition_participants(sys, 8);
  EXPECT_EQ(p.components, 2u);
  EXPECT_EQ(p.shards, 2u);  // cannot split a component
  EXPECT_FALSE(p.replicated);
}

TEST(Partition, ConnectedEconomyFallsBackToReplicas) {
  const auto sys = connected_economy(6, 0.1);
  const Partition p = partition_participants(sys, 3);
  EXPECT_EQ(p.components, 1u);
  EXPECT_EQ(p.shards, 3u);
  EXPECT_TRUE(p.replicated);
  for (std::size_t i = 0; i < sys.size(); ++i) EXPECT_EQ(p.shard_of[i], i % 3);
  for (const auto& m : p.members) EXPECT_EQ(m.size(), sys.size());
}

TEST(Partition, SingleShardOwnsEverything) {
  const auto sys = island_economy(3, 2, 0.5);
  const Partition p = partition_participants(sys, 1);
  EXPECT_EQ(p.shards, 1u);
  EXPECT_FALSE(p.replicated);
  EXPECT_EQ(p.members[0].size(), sys.size());
}

TEST(Partition, LptBalancesUnevenComponents) {
  // Islands of sizes 4, 2, 2 onto 2 shards: LPT puts the 4 alone.
  agree::AgreementSystem sys(8);
  for (std::size_t i = 0; i < 8; ++i) sys.capacity[i] = 1.0;
  auto connect = [&](std::size_t a, std::size_t b) { sys.relative(a, b) = 0.1; };
  connect(0, 1); connect(1, 2); connect(2, 3);
  connect(4, 5);
  connect(6, 7);
  const Partition p = partition_participants(sys, 2);
  EXPECT_EQ(p.components, 3u);
  EXPECT_EQ(p.shards, 2u);
  EXPECT_EQ(p.members[0].size(), 4u);
  EXPECT_EQ(p.members[1].size(), 4u);  // 2 + 2
}

// --------------------------------------------- threads=1 decision identity ---

TEST(EngineSerial, PlansAreBitIdenticalToDirectAllocator) {
  const auto sys = connected_economy(6, 0.15);
  // Isolated sinks so the two paths' event streams can be compared 1:1.
  obs::EventRing direct_ring(1 << 12), engine_ring(1 << 12);
  obs::MetricsRegistry direct_reg, engine_reg;

  alloc::AllocatorOptions aopts;
  aopts.sink = obs::Sink{&direct_reg, &direct_ring};
  alloc::Allocator direct(sys, aopts);

  EngineOptions eopts;
  eopts.threads = 1;
  eopts.alloc.sink = obs::Sink{&engine_reg, &engine_ring};
  eopts.sink = eopts.alloc.sink;
  EnforcementEngine eng(sys, eopts);
  EXPECT_EQ(eng.num_shards(), 1u);

  // The scheduler-bridge call sequence: epoch refresh, availability query,
  // consult, commit, release -- repeated.
  std::vector<double> caps = sys.capacity;
  for (int round = 0; round < 6; ++round) {
    const std::size_t a = static_cast<std::size_t>(round) % sys.size();
    caps[a] = 4.0 + static_cast<double>(round);
    direct.set_capacities(std::span<const double>(caps));
    eng.set_capacities(std::span<const double>(caps));
    EXPECT_EQ(direct.available_to(a), eng.available_to(a));
    const double want = 0.5 * direct.available_to(a) + static_cast<double>(round);
    const alloc::AllocationPlan dp = direct.allocate(a, want);
    const alloc::AllocationPlan ep = eng.consult(a, want);
    expect_identical(ep, dp);
    if (dp.satisfied()) {
      direct.apply(dp);
      eng.apply(ep);
      for (std::size_t i = 0; i < sys.size(); ++i)
        EXPECT_EQ(direct.available_to(i), eng.available_to(i));
      std::vector<double> back(sys.size(), 0.25);
      direct.release(back);
      eng.release(back);
    }
  }
  eng.drain();

  // Byte-identical event streams: the engine's worker emits exactly the LP
  // pipeline events the direct allocator emits, and nothing else (engine
  // batch events require coalescing, which serial use cannot produce).
  const auto de = direct_ring.snapshot();
  const auto ee = engine_ring.snapshot();
  ASSERT_EQ(de.size(), ee.size());
  for (std::size_t i = 0; i < de.size(); ++i) EXPECT_EQ(de[i], ee[i]);
  for (const auto& ev : ee) EXPECT_NE(ev.kind, obs::EventKind::EngineBatch);

  // And the aggregated solve-chain telemetry matches the direct pipeline.
  const lp::PipelineStats* es = eng.solver_stats();
  ASSERT_NE(es, nullptr);
  EXPECT_EQ(es->solves, direct.solver_stats()->solves);
  EXPECT_EQ(es->certified, direct.solver_stats()->certified);
}

TEST(EngineSerial, SimulatorTracesAreByteIdenticalSameSeed) {
  trace::GeneratorConfig gc;
  gc.peak_rate = 6.0;
  const trace::Generator gen(gc, trace::DiurnalProfile::flat(1.0, 3000.0, 10));
  const std::vector<std::vector<trace::TraceRequest>> traces{
      gen.generate(1), gen.generate(2), gen.generate(3)};

  auto run = [&](std::size_t threads) {
    proxysim::SimConfig cfg;
    cfg.num_proxies = 3;
    cfg.horizon = 3000.0;
    cfg.slot_width = 300.0;
    cfg.scheduler = proxysim::SchedulerKind::Lp;
    cfg.agreements = agree::complete_graph(3, 0.3);
    cfg.scheduler_threads = threads;
    cfg.event_ring_capacity = 1 << 16;
    cfg.sink = obs::Sink::none();
    cfg.alloc_opts.sink = obs::Sink::none();
    proxysim::Simulator sim(cfg);
    return sim.run(traces);
  };

  const proxysim::SimMetrics direct = run(0);
  const proxysim::SimMetrics engine = run(1);
  EXPECT_EQ(direct.total_requests, engine.total_requests);
  EXPECT_EQ(direct.redirected_requests, engine.redirected_requests);
  EXPECT_EQ(direct.scheduler_consults, engine.scheduler_consults);
  EXPECT_EQ(direct.certified_consults, engine.certified_consults);
  EXPECT_EQ(direct.lp_iterations, engine.lp_iterations);
  EXPECT_DOUBLE_EQ(direct.mean_wait(), engine.mean_wait());
  EXPECT_EQ(direct.requests_by_slot, engine.requests_by_slot);
  EXPECT_EQ(direct.redirected_by_slot, engine.redirected_by_slot);
  ASSERT_EQ(direct.events.size(), engine.events.size());
  for (std::size_t i = 0; i < direct.events.size(); ++i)
    EXPECT_TRUE(direct.events[i] == engine.events[i]) << "event " << i << " differs";
}

// ----------------------------------------------------- sharded exactness ---

TEST(EngineSharded, ComponentLocalDecisionsMatchGlobalAllocator) {
  const auto sys = island_economy(4, 4, 0.25);
  alloc::Allocator direct(sys);
  EngineOptions eopts;
  eopts.sink = obs::Sink::none();
  eopts.alloc.sink = obs::Sink::none();
  eopts.threads = 4;
  EnforcementEngine eng(sys, eopts);
  EXPECT_EQ(eng.num_shards(), 4u);
  EXPECT_FALSE(eng.replicated());

  for (std::size_t a = 0; a < sys.size(); ++a) {
    const double want = 0.7 * direct.available_to(a);
    const alloc::AllocationPlan dp = direct.allocate(a, want);
    const alloc::AllocationPlan ep = eng.consult(a, want);
    ASSERT_EQ(ep.status, dp.status) << "principal " << a;
    EXPECT_NEAR(ep.theta, dp.theta, 1e-9);
    EXPECT_NEAR(ep.total_drawn(), dp.total_drawn(), 1e-9);
    ASSERT_EQ(ep.draw.size(), sys.size());
    // Draws never cross a component boundary.
    for (std::size_t i = 0; i < sys.size(); ++i) {
      if (i / 4 != a / 4) {
        EXPECT_EQ(ep.draw[i], 0.0) << "cross-island draw at " << i;
      }
    }
    EXPECT_TRUE(ep.certified);
  }
}

TEST(EngineSharded, ReplicatedModeStaysExactUnderMutation) {
  const auto sys = connected_economy(5, 0.2);
  alloc::Allocator direct(sys);
  EngineOptions eopts;
  eopts.sink = obs::Sink::none();
  eopts.alloc.sink = obs::Sink::none();
  eopts.threads = 3;
  EnforcementEngine eng(sys, eopts);
  EXPECT_TRUE(eng.replicated());

  for (std::size_t a = 0; a < sys.size(); ++a) {
    const double want = 0.4 * direct.available_to(a);
    const alloc::AllocationPlan dp = direct.allocate(a, want);
    const alloc::AllocationPlan ep = eng.consult(a, want);
    ASSERT_TRUE(dp.satisfied());
    expect_identical(ep, dp);  // every replica solves the same global model
    direct.apply(dp);
    eng.apply(ep);  // broadcast: replicas stay identical
    for (std::size_t i = 0; i < sys.size(); ++i)
      EXPECT_EQ(direct.available_to(i), eng.available_to(i));
  }
}

// ------------------------------------------------------- status & submit ---

TEST(EngineStatus, SubmitResolvesWithStatusInsteadOfThrowing) {
  EngineOptions eopts;
  eopts.sink = obs::Sink::none();
  eopts.alloc.sink = obs::Sink::none();
  EnforcementEngine eng(island_economy(2, 2, 0.3), eopts);

  EngineResult bad = eng.submit(99, 1.0).get();
  EXPECT_EQ(bad.status.code(), StatusCode::InvalidArgument);
  EXPECT_TRUE(bad.plan.draw.empty());

  EngineResult neg = eng.submit(0, -1.0).get();
  EXPECT_EQ(neg.status.code(), StatusCode::InvalidArgument);

  EngineResult ok = eng.submit(0, 1.0).get();
  EXPECT_EQ(ok.status.code(), StatusCode::Ok);
  EXPECT_TRUE(ok.status.ok());
  EXPECT_TRUE(ok.plan.satisfied());

  EngineResult big = eng.submit(0, 1e9).get();
  EXPECT_EQ(big.status.code(), StatusCode::Insufficient);
  EXPECT_EQ(big.plan.status, alloc::PlanStatus::Insufficient);
}

TEST(EngineStatus, ConsultThrowsLikeDirectAllocator) {
  EngineOptions eopts;
  eopts.sink = obs::Sink::none();
  eopts.alloc.sink = obs::Sink::none();
  EnforcementEngine eng(island_economy(2, 2, 0.3), eopts);
  EXPECT_THROW(eng.consult(99, 1.0), PreconditionError);
  EXPECT_THROW(eng.consult(0, -2.0), PreconditionError);
  EXPECT_THROW((void)eng.allocate(99, 1.0), PreconditionError);  // AllocatorBase view
}

TEST(EngineStatus, PlanStatusMapsToUnifiedStatus) {
  EXPECT_EQ(alloc::to_status(alloc::PlanStatus::Satisfied).code(), StatusCode::Ok);
  EXPECT_EQ(alloc::to_status(alloc::PlanStatus::Insufficient).code(),
            StatusCode::Insufficient);
  EXPECT_EQ(alloc::to_status(alloc::PlanStatus::Denied).code(), StatusCode::Denied);
  EXPECT_EQ(alloc::to_status(alloc::PlanStatus::SolverFailed).code(),
            StatusCode::SolverFailed);
  const Status s = to_status(PreconditionError("nope"));
  EXPECT_EQ(s.code(), StatusCode::InvalidArgument);
  EXPECT_EQ(to_status(InternalError("bug")).code(), StatusCode::Internal);
  EXPECT_EQ(to_status(IoError("disk")).code(), StatusCode::Io);
  EXPECT_EQ(Status::unavailable().to_string(), "unavailable");
}

// --------------------------------------------------------------- snapshot ---

TEST(EngineSnapshot, EpochAdvancesOnEveryMutation) {
  EngineOptions eopts;
  eopts.sink = obs::Sink::none();
  eopts.alloc.sink = obs::Sink::none();
  EnforcementEngine eng(island_economy(2, 3, 0.2), eopts);
  EXPECT_EQ(eng.epoch(), 0u);

  const auto before = eng.snapshot();
  std::vector<double> caps(eng.size(), 7.0);
  eng.set_capacities(std::span<const double>(caps));
  EXPECT_EQ(eng.epoch(), 1u);
  // Snapshots are immutable: the pre-mutation view is unchanged.
  EXPECT_EQ(before->epoch, 0u);
  const auto after = eng.snapshot();
  for (double c : after->capacity) EXPECT_EQ(c, 7.0);

  const alloc::AllocationPlan plan = eng.consult(0, 2.0);
  ASSERT_TRUE(plan.satisfied());
  eng.apply(plan);
  EXPECT_EQ(eng.epoch(), 2u);
  eng.release(std::vector<double>(eng.size(), 0.5));
  EXPECT_EQ(eng.epoch(), 3u);
}

TEST(EngineSnapshot, StatsReportShardLayout) {
  EngineOptions eopts;
  eopts.sink = obs::Sink::none();
  eopts.alloc.sink = obs::Sink::none();
  eopts.threads = 2;
  EnforcementEngine eng(island_economy(2, 3, 0.2), eopts);
  (void)eng.consult(0, 1.0);
  (void)eng.consult(3, 1.0);
  eng.drain();
  const EngineStats st = eng.stats();
  EXPECT_EQ(st.shards, 2u);
  EXPECT_EQ(st.components, 2u);
  EXPECT_FALSE(st.replicated);
  std::uint64_t consults = 0;
  std::size_t participants = 0;
  for (const auto& s : st.shard) {
    consults += s.consults;
    participants += s.participants;
  }
  EXPECT_EQ(consults, 2u);
  EXPECT_EQ(participants, 6u);
  EXPECT_EQ(eng.shard_of(0), eng.shard_of(2));
}

// ------------------------------------------------------------ certification ---

TEST(EngineCertify, CertificationStaysOnByDefault) {
  EngineOptions eopts;
  eopts.sink = obs::Sink::none();
  eopts.alloc.sink = obs::Sink::none();
  eopts.threads = 2;
  EnforcementEngine eng(island_economy(2, 4, 0.25), eopts);
  const alloc::AllocationPlan plan = eng.consult(1, 3.0);
  ASSERT_TRUE(plan.satisfied());
  EXPECT_TRUE(plan.certified);  // no uncertified grant through the engine
  const lp::PipelineStats* st = eng.solver_stats();
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(st->certified, st->solves);
  EXPECT_EQ(st->exhausted, 0u);
}

// ---------------------------------------------------------------- shutdown ---

TEST(EngineShutdown, EveryPendingFutureResolvesWithAStatus) {
  EngineOptions eopts;
  eopts.threads = 2;
  eopts.sink = obs::Sink::none();
  eopts.alloc.sink = obs::Sink::none();
  EnforcementEngine eng(island_economy(2, 4, 0.3), eopts);

  // Flood the shard queues well past what the workers can process before
  // shutdown lands, then shut down immediately: queued consults must
  // resolve fast with Unavailable, never hang or break their promise.
  std::vector<std::future<EngineResult>> futs;
  futs.reserve(400);
  for (int i = 0; i < 400; ++i)
    futs.push_back(eng.submit(static_cast<std::size_t>(i % 8), 0.5));
  eng.shutdown();

  std::size_t decided = 0, unavailable = 0;
  for (auto& f : futs) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready)
        << "a future was left pending after shutdown()";
    const EngineResult res = f.get();  // never throws broken_promise
    switch (res.status.code()) {
      case StatusCode::Ok:
      case StatusCode::Insufficient:
      case StatusCode::Denied:
      case StatusCode::SolverFailed:
        ++decided;
        break;
      case StatusCode::Unavailable:
        ++unavailable;
        EXPECT_TRUE(res.plan.draw.empty());  // fail-fast: nothing was solved
        break;
      default:
        FAIL() << "unexpected status " << res.status.to_string();
    }
  }
  EXPECT_EQ(decided + unavailable, 400u);
}

TEST(EngineShutdown, IsIdempotentAndRejectsLateTraffic) {
  EngineOptions eopts;
  eopts.sink = obs::Sink::none();
  eopts.alloc.sink = obs::Sink::none();
  EnforcementEngine eng(island_economy(2, 2, 0.3), eopts);
  EXPECT_TRUE(eng.submit(0, 1.0).get().status.ok());
  eng.shutdown();
  eng.shutdown();  // second call is a no-op

  // Post-shutdown submissions resolve immediately with Unavailable; the
  // blocking façade maps that to the same exception a bad argument gets.
  EngineResult late = eng.submit(0, 1.0).get();
  EXPECT_EQ(late.status.code(), StatusCode::Unavailable);
  EXPECT_THROW(eng.consult(0, 1.0), PreconditionError);
  EXPECT_EQ(eng.solver_stats(), nullptr);
  // Snapshot reads still work: the published state outlives the workers.
  EXPECT_EQ(eng.snapshot()->capacity.size(), 4u);
}

}  // namespace
}  // namespace agora::engine
