// Unit and invariant tests for the proxy case-study simulator: conservation,
// determinism, the event order at equal instants, the no-sharing baseline,
// LP vs endpoint redirection, redirect costs and capacity scaling.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <ostream>
#include <utility>
#include <vector>

#include "agree/topology.h"
#include "proxysim/simulator.h"
#include "trace/generator.h"
#include "util/error.h"

namespace agora::proxysim {
namespace {

using trace::DiurnalProfile;
using trace::TraceRequest;

/// Hand-built request with a fixed demand (response length chosen so that
/// a + b*x equals `demand` under the default cost model).
TraceRequest req_at(double t, double demand) {
  TraceRequest r;
  r.arrival = t;
  r.response_bytes = static_cast<std::uint64_t>((demand - 0.1) / 1e-6);
  return r;
}

SimConfig small_config(std::size_t proxies, double horizon = 1000.0) {
  SimConfig cfg;
  cfg.num_proxies = proxies;
  cfg.horizon = horizon;
  cfg.slot_width = horizon / 10.0;
  return cfg;
}

// ------------------------------------------------------------ basic queue ---

TEST(Simulator, SingleRequestZeroWait) {
  Simulator sim(small_config(1));
  const auto m = sim.run({{req_at(10.0, 1.0)}});
  EXPECT_EQ(m.total_requests, 1u);
  EXPECT_EQ(m.wait_overall.count(), 1u);
  EXPECT_NEAR(m.mean_wait(), 0.0, 1e-12);
}

TEST(Simulator, FifoQueueingWaits) {
  // Two back-to-back 2s jobs arriving together: the second waits 2s.
  Simulator sim(small_config(1));
  const auto m = sim.run({{req_at(10.0, 2.0), req_at(10.0, 2.0)}});
  EXPECT_EQ(m.wait_overall.count(), 2u);
  EXPECT_NEAR(m.wait_overall.max(), 2.0, 1e-9);
  EXPECT_NEAR(m.mean_wait(), 1.0, 1e-9);
}

TEST(Simulator, PowerScalesServiceTime) {
  SimConfig cfg = small_config(1);
  cfg.power = {2.0};  // double-speed proxy
  Simulator sim(cfg);
  const auto m = sim.run({{req_at(10.0, 2.0), req_at(10.0, 2.0)}});
  EXPECT_NEAR(m.wait_overall.max(), 1.0, 1e-9);  // 2s demand / power 2
}

TEST(Simulator, CostModelCapsDemand) {
  CostModel cost;
  EXPECT_NEAR(cost.demand(0), 0.1, 1e-12);
  EXPECT_NEAR(cost.demand(1000000), 1.1, 1e-12);
  EXPECT_NEAR(cost.demand(1000000000), 30.0, 1e-12);  // capped at c
}

TEST(Simulator, ConservationWithEmptyTraces) {
  // Proxies 0, 2 and 4 receive no requests of their own but absorb
  // redirected work; proxy 3's trace ends a third of the way in.
  trace::GeneratorConfig gc;
  gc.peak_rate = 12.0;
  trace::Generator gen(gc, DiurnalProfile::flat(1.0, 2000.0, 10));
  SimConfig cfg = small_config(5, 2000.0);
  cfg.scheduler = SchedulerKind::Lp;
  cfg.agreements = agree::complete_graph(5, 0.2);
  cfg.event_ring_capacity = 1 << 16;  // room for every event of the run
  auto early = gen.generate(2);
  std::erase_if(early, [](const TraceRequest& r) { return r.arrival >= 700.0; });
  const auto m = Simulator(cfg).run({{}, gen.generate(1), {}, early, {}});
  EXPECT_GT(m.redirected_requests, 0u);
  EXPECT_EQ(m.wait_overall.count(), m.total_requests);
  std::uint64_t per_proxy = 0;
  for (const auto& s : m.per_proxy_wait) per_proxy += s.count();
  EXPECT_EQ(per_proxy, m.total_requests);
  for (std::size_t p : {0u, 2u, 4u}) EXPECT_EQ(m.per_proxy_wait[p].count(), 0u);
  if (!obs::kEnabled) return;
  ASSERT_EQ(m.events_overwritten, 0u) << "test run must fit in the ring";
  std::vector<std::uint64_t> admitted_at(5, 0);
  for (const auto& ev : m.events)
    if (ev.kind == obs::EventKind::RequestAdmitted) ++admitted_at[ev.actor];
  EXPECT_EQ(std::accumulate(admitted_at.begin(), admitted_at.end(), std::uint64_t{0}),
            m.total_requests);
  EXPECT_GT(admitted_at[0] + admitted_at[2] + admitted_at[4], 0u);
}

TEST(Simulator, ConservationEveryRequestServedOnce) {
  trace::GeneratorConfig gc;
  gc.peak_rate = 5.0;
  trace::Generator gen(gc, DiurnalProfile::flat(1.0, 2000.0, 10));
  SimConfig cfg = small_config(3, 2000.0);
  cfg.scheduler = SchedulerKind::Lp;
  cfg.agreements = agree::complete_graph(3, 0.3);
  Simulator sim(cfg);
  const auto m = sim.run({gen.generate(1), gen.generate(2), gen.generate(3)});
  EXPECT_EQ(m.wait_overall.count(), m.total_requests);
  std::uint64_t per_proxy = 0;
  for (const auto& s : m.per_proxy_wait) per_proxy += s.count();
  EXPECT_EQ(per_proxy, m.total_requests);
}

TEST(Simulator, DeterministicAcrossRuns) {
  trace::GeneratorConfig gc;
  gc.peak_rate = 4.0;
  trace::Generator gen(gc, DiurnalProfile::flat(1.0, 2000.0, 10));
  SimConfig cfg = small_config(2, 2000.0);
  cfg.scheduler = SchedulerKind::Lp;
  cfg.agreements = agree::complete_graph(2, 0.5);
  const auto traces = {gen.generate(1), gen.generate(2)};
  std::vector<std::vector<TraceRequest>> ts(traces);
  const auto a = Simulator(cfg).run(ts);
  const auto b = Simulator(cfg).run(ts);
  EXPECT_DOUBLE_EQ(a.mean_wait(), b.mean_wait());
  EXPECT_EQ(a.redirected_requests, b.redirected_requests);
  EXPECT_EQ(a.scheduler_consults, b.scheduler_consults);
}

TEST(Simulator, RequestCountsPerSlot) {
  Simulator sim(small_config(1, 1000.0));  // 10 slots of 100s
  const auto m = sim.run({{req_at(50.0, 0.5), req_at(150.0, 0.5), req_at(155.0, 0.5)}});
  EXPECT_EQ(m.requests_by_slot[0], 1u);
  EXPECT_EQ(m.requests_by_slot[1], 2u);
  EXPECT_EQ(m.requests_by_slot[2], 0u);
}

TEST(Simulator, RejectsUnsortedTraces) {
  Simulator sim(small_config(1));
  EXPECT_THROW(sim.run({{req_at(10.0, 1.0), req_at(5.0, 1.0)}}), PreconditionError);

  // An unsorted pair at the very end of the last proxy's trace. Proxy 0's
  // burst would consult the scheduler long before a run reached it: every
  // trace is validated up front, so the run throws with no consult made.
  obs::MetricsRegistry reg;
  SimConfig cfg = small_config(3);
  cfg.scheduler = SchedulerKind::Lp;
  cfg.agreements = agree::complete_graph(3, 0.5);
  cfg.queue_threshold = 2.0;
  cfg.consult_cooldown = 1.0;
  cfg.sink = obs::Sink{&reg, nullptr};
  cfg.alloc_opts.sink = cfg.sink;
  std::vector<TraceRequest> burst, tail;
  for (int i = 0; i < 20; ++i) burst.push_back(req_at(10.0, 1.0));
  for (int i = 0; i < 20; ++i) tail.push_back(req_at(20.0 + i, 0.5));
  tail.push_back(req_at(900.0, 0.5));
  tail.push_back(req_at(899.0, 0.5));
  EXPECT_THROW(Simulator(cfg).run({burst, {}, tail}), PreconditionError);
  if (!obs::kEnabled) return;
  EXPECT_EQ(reg.counter("proxysim.bridge.plans").value(), 0u);
  // The same traces, sorted, do consult: the zero above is not vacuous.
  std::swap(tail[tail.size() - 2], tail.back());
  Simulator(cfg).run({burst, {}, tail});
  EXPECT_GT(reg.counter("proxysim.bridge.plans").value(), 0u);
}

TEST(Simulator, RejectsWrongTraceCount) {
  Simulator sim(small_config(2));
  EXPECT_THROW(sim.run({{req_at(1.0, 1.0)}}), PreconditionError);
}

// ------------------------------------------------------ event order at ties ---
//
// At equal instants the simulator processes completions, then arrivals (in
// proxy-index, then trace order), then delayed scheduler decisions. These
// tests pin that order through the admission stream.

/// Cost model with exactly representable demands: `demand` seconds of work
/// is a response of demand * 1024 bytes, so completion times are exact.
SimConfig exact_config(std::size_t proxies) {
  SimConfig cfg = small_config(proxies);
  cfg.cost.base = 0.0;
  cfg.cost.per_byte = 1.0 / 1024.0;
  return cfg;
}

TraceRequest exact_req(double t, double demand) {
  TraceRequest r;
  r.arrival = t;
  r.response_bytes = static_cast<std::uint64_t>(demand * 1024.0);
  return r;
}

struct Admission {
  std::uint32_t proxy;
  double time;
  double wait;
  friend bool operator==(const Admission&, const Admission&) = default;
  friend std::ostream& operator<<(std::ostream& os, const Admission& a) {
    return os << "(proxy " << a.proxy << ", t=" << a.time << ", wait " << a.wait << ")";
  }
};

std::vector<Admission> admissions(const SimMetrics& m) {
  std::vector<Admission> out;
  for (const auto& ev : m.events)
    if (ev.kind == obs::EventKind::RequestAdmitted) out.push_back({ev.actor, ev.time, ev.a});
  return out;
}

TEST(SimulatorEventOrder, EqualArrivalsAdmitLowerProxyFirst) {
  // Proxies 0 and 4 have empty traces; proxy 3's ends before the tie.
  const std::vector<std::vector<TraceRequest>> traces{
      {},
      {exact_req(10.0, 1.0)},
      {exact_req(10.0, 1.0), exact_req(10.0, 1.0)},
      {exact_req(5.0, 1.0)},
      {},
      {exact_req(3.0, 1.0), exact_req(10.0, 1.0), exact_req(12.0, 1.0)}};
  const auto m = Simulator(exact_config(traces.size())).run(traces);
  if (!obs::kEnabled) GTEST_SKIP() << "observability compiled out";
  const std::vector<Admission> want{
      {5, 3.0, 0.0},   {3, 5.0, 0.0},  {1, 10.0, 0.0}, {2, 10.0, 0.0},
      {5, 10.0, 0.0},  {2, 11.0, 1.0}, {5, 12.0, 0.0}};
  EXPECT_EQ(admissions(m), want);
  EXPECT_EQ(m.total_requests, 7u);
  EXPECT_EQ(m.per_proxy_wait[0].count() + m.per_proxy_wait[4].count(), 0u);
}

TEST(SimulatorEventOrder, CompletionAtAnArrivalInstantIsProcessedFirst) {
  // Proxy 0's zero-demand job completes at the instant it arrives, which is
  // also the arrival instant of its second job and of proxy 1's job. The
  // completion frees proxy 0 first, so its second job starts at once --
  // ahead of proxy 1's admission.
  const std::vector<std::vector<TraceRequest>> traces{
      {exact_req(10.0, 0.0), exact_req(10.0, 2.0)}, {exact_req(10.0, 1.0)}};
  const auto m = Simulator(exact_config(2)).run(traces);
  if (!obs::kEnabled) GTEST_SKIP() << "observability compiled out";
  const std::vector<Admission> want{{0, 10.0, 0.0}, {0, 10.0, 0.0}, {1, 10.0, 0.0}};
  EXPECT_EQ(admissions(m), want);
}

TEST(SimulatorEventOrder, DelayedDecisionAtAnArrivalInstantComesAfterTheArrival) {
  // Proxy 0 gets six 1 s jobs at t=10; the sixth pushes its backlog past the
  // threshold and consults once (long cooldown). The decision lands at t=12,
  // the instant proxy 1's only job arrives. At t=12 proxy 0's completion
  // runs first, then proxy 1's arrival (admitted with no wait), then the
  // decision -- which now sees proxy 1 busy and moves a single job there,
  // where it waits behind proxy 1's own.
  SimConfig cfg = exact_config(2);
  cfg.scheduler = SchedulerKind::Lp;
  cfg.agreements = agree::complete_graph(2, 0.5);
  cfg.queue_threshold = 4.0;
  cfg.consult_cooldown = 1000.0;
  cfg.decision_latency = 2.0;
  std::vector<TraceRequest> burst(6, exact_req(10.0, 1.0));
  const auto m = Simulator(cfg).run({burst, {exact_req(12.0, 1.0)}});
  if (!obs::kEnabled) GTEST_SKIP() << "observability compiled out";
  EXPECT_EQ(m.scheduler_consults, 1u);
  EXPECT_EQ(m.redirected_requests, 1u);
  const std::vector<Admission> want{{0, 10.0, 0.0}, {0, 11.0, 1.0}, {0, 12.0, 2.0},
                                    {1, 12.0, 0.0}, {0, 13.0, 3.0}, {1, 13.0, 3.0},
                                    {0, 14.0, 4.0}};
  EXPECT_EQ(admissions(m), want);
}

// -------------------------------------------------------------- redirection ---

/// One overloaded proxy (burst of work) next to an idle one.
std::vector<std::vector<TraceRequest>> burst_and_idle() {
  std::vector<TraceRequest> burst;
  for (int i = 0; i < 40; ++i) burst.push_back(req_at(10.0 + 0.01 * i, 1.0));
  return {burst, {}};
}

TEST(Simulator, NoSchedulerMeansNoRedirection) {
  SimConfig cfg = small_config(2);
  cfg.scheduler = SchedulerKind::None;
  const auto m = Simulator(cfg).run(burst_and_idle());
  EXPECT_EQ(m.redirected_requests, 0u);
  // 40 jobs of 1s each arriving at once: the last waits ~39s.
  EXPECT_NEAR(m.wait_overall.max(), 39.0, 0.5);
}

TEST(Simulator, LpSchedulerRedirectsUnderOverload) {
  SimConfig cfg = small_config(2);
  cfg.scheduler = SchedulerKind::Lp;
  cfg.agreements = agree::complete_graph(2, 0.5);
  cfg.queue_threshold = 4.0;
  cfg.consult_cooldown = 1.0;
  cfg.planning_window = 60.0;
  const auto m = Simulator(cfg).run(burst_and_idle());
  EXPECT_GT(m.redirected_requests, 0u);
  EXPECT_GT(m.scheduler_consults, 0u);
  // Offloading halves the backlog; worst wait clearly below no-sharing's 39.
  EXPECT_LT(m.wait_overall.max(), 30.0);
}

TEST(Simulator, ZeroAgreementsBehaveLikeNoSharing) {
  SimConfig none = small_config(2);
  none.scheduler = SchedulerKind::None;
  SimConfig lp = small_config(2);
  lp.scheduler = SchedulerKind::Lp;
  lp.agreements = Matrix(2, 2);  // all-zero shares
  const auto a = Simulator(none).run(burst_and_idle());
  const auto b = Simulator(lp).run(burst_and_idle());
  EXPECT_EQ(b.redirected_requests, 0u);
  EXPECT_DOUBLE_EQ(a.mean_wait(), b.mean_wait());
}

TEST(Simulator, RedirectCostAddsDemand) {
  SimConfig cheap = small_config(2);
  cheap.scheduler = SchedulerKind::Lp;
  cheap.agreements = agree::complete_graph(2, 0.5);
  cheap.queue_threshold = 4.0;
  cheap.consult_cooldown = 1.0;
  SimConfig costly = cheap;
  costly.redirect_cost = 0.5;  // half the job size: clearly visible
  const auto a = Simulator(cheap).run(burst_and_idle());
  const auto b = Simulator(costly).run(burst_and_idle());
  ASSERT_GT(a.redirected_requests, 0u);
  ASSERT_GT(b.redirected_requests, 0u);
  // The redirected work carries extra demand, so total busy time grows and
  // mean wait cannot improve.
  EXPECT_GE(b.mean_wait(), a.mean_wait() - 1e-9);
}

TEST(Simulator, EndpointSchedulerAlsoRedirects) {
  SimConfig cfg = small_config(2);
  cfg.scheduler = SchedulerKind::Endpoint;
  cfg.agreements = agree::complete_graph(2, 0.5);
  cfg.queue_threshold = 4.0;
  cfg.consult_cooldown = 1.0;
  const auto m = Simulator(cfg).run(burst_and_idle());
  EXPECT_GT(m.redirected_requests, 0u);
  EXPECT_LT(m.wait_overall.max(), 39.0);
}

TEST(Simulator, LpBeatsEndpointWhenNeighborsAreBusy) {
  // Three proxies: 0 overloaded, 1 also busy, 2 idle. Agreements are
  // distance-decayed (0 shares more with 1 than with 2), so the endpoint
  // scheme pushes work to the *busy* neighbor 1 while the LP scheme sees
  // availability and prefers 2.
  std::vector<TraceRequest> burst0, busy1;
  for (int i = 0; i < 40; ++i) burst0.push_back(req_at(10.0 + 0.01 * i, 1.0));
  for (int i = 0; i < 200; ++i) busy1.push_back(req_at(5.0 + 0.5 * i, 0.5));
  const std::vector<std::vector<TraceRequest>> traces{burst0, busy1, {}};

  SimConfig base = small_config(3);
  base.agreements = Matrix{{0.0, 0.3, 0.1}, {0.3, 0.0, 0.1}, {0.1, 0.1, 0.0}};
  base.queue_threshold = 4.0;
  base.consult_cooldown = 1.0;

  SimConfig lp = base;
  lp.scheduler = SchedulerKind::Lp;
  SimConfig ep = base;
  ep.scheduler = SchedulerKind::Endpoint;

  const auto ml = Simulator(lp).run(traces);
  const auto me = Simulator(ep).run(traces);
  // Origin-0 clients should fare better under the LP scheme.
  EXPECT_LT(ml.per_proxy_wait[0].mean(), me.per_proxy_wait[0].mean());
}

TEST(Simulator, RedirectedFractionSmallUnderMildLoad) {
  trace::GeneratorConfig gc;
  gc.peak_rate = 6.0;  // moderate utilization
  trace::Generator gen(gc, DiurnalProfile::flat(1.0, 3000.0, 10));
  SimConfig cfg = small_config(3, 3000.0);
  cfg.scheduler = SchedulerKind::Lp;
  cfg.agreements = agree::complete_graph(3, 0.2);
  Simulator sim(cfg);
  const auto m = sim.run({gen.generate(1), gen.generate(2), gen.generate(3)});
  EXPECT_LT(m.redirected_fraction(), 0.2);
}

TEST(Simulator, WaitQuantilesTrackDistribution) {
  Simulator sim(small_config(1));
  // Ten simultaneous 1 s jobs: waits are exactly 0,1,...,9 seconds.
  std::vector<TraceRequest> jobs;
  for (int i = 0; i < 10; ++i) jobs.push_back(req_at(10.0, 1.0));
  const auto m = sim.run({jobs});
  EXPECT_NEAR(m.wait_quantile(0.5), 4.5, 0.6);
  EXPECT_NEAR(m.wait_quantile(1.0), 9.0, 0.2);
  EXPECT_LE(m.wait_quantile(0.1), m.wait_quantile(0.9));
}

TEST(Simulator, PerProxySeriesSumToGlobal) {
  trace::GeneratorConfig gc;
  gc.peak_rate = 3.0;
  trace::Generator gen(gc, DiurnalProfile::flat(1.0, 2000.0, 10));
  SimConfig cfg = small_config(2, 2000.0);
  Simulator sim(cfg);
  const auto m = sim.run({gen.generate(5), gen.generate(6)});
  std::uint64_t total = 0;
  for (const auto& s : m.wait_by_slot_per_proxy) total += s.total_count();
  EXPECT_EQ(total, m.wait_by_slot.total_count());
}

// ------------------------------------------------------------ observability ---

TEST(Simulator, IdenticallySeededRunsProduceIdenticalMetricsAndEvents) {
  trace::GeneratorConfig gc;
  gc.peak_rate = 6.0;
  trace::Generator gen(gc, DiurnalProfile::flat(1.0, 3000.0, 10));
  SimConfig cfg = small_config(3, 3000.0);
  cfg.scheduler = SchedulerKind::Lp;
  cfg.agreements = agree::complete_graph(3, 0.3);
  const std::vector<std::vector<TraceRequest>> ts{gen.generate(1), gen.generate(2),
                                                  gen.generate(3)};
  const auto a = Simulator(cfg).run(ts);
  const auto b = Simulator(cfg).run(ts);

  EXPECT_EQ(a.total_requests, b.total_requests);
  EXPECT_EQ(a.redirected_requests, b.redirected_requests);
  EXPECT_EQ(a.scheduler_consults, b.scheduler_consults);
  EXPECT_EQ(a.certified_consults, b.certified_consults);
  EXPECT_EQ(a.degraded_consults, b.degraded_consults);
  EXPECT_EQ(a.lp_iterations, b.lp_iterations);
  EXPECT_DOUBLE_EQ(a.mean_wait(), b.mean_wait());
  EXPECT_DOUBLE_EQ(a.redirected_demand, b.redirected_demand);
  EXPECT_EQ(a.requests_by_slot, b.requests_by_slot);
  EXPECT_EQ(a.redirected_by_slot, b.redirected_by_slot);
  EXPECT_EQ(a.consults_by_slot, b.consults_by_slot);
  EXPECT_EQ(a.degraded_by_slot, b.degraded_by_slot);

  // The event stream is deterministic element by element: every event
  // carries domain time only (virtual seconds / solve ordinals), never
  // wall-clock, so the two runs must match exactly.
  EXPECT_EQ(a.events_overwritten, b.events_overwritten);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i)
    EXPECT_TRUE(a.events[i] == b.events[i]) << "event " << i << " differs";
}

TEST(Simulator, EventStreamAccountsForEveryAdmission) {
  trace::GeneratorConfig gc;
  gc.peak_rate = 4.0;
  trace::Generator gen(gc, DiurnalProfile::flat(1.0, 2000.0, 10));
  SimConfig cfg = small_config(2, 2000.0);
  cfg.scheduler = SchedulerKind::Lp;
  cfg.agreements = agree::complete_graph(2, 0.5);
  cfg.event_ring_capacity = 1 << 16;  // room for every event of the run
  Simulator sim(cfg);
  const auto m = sim.run({gen.generate(1), gen.generate(2)});
  if (!obs::kEnabled) GTEST_SKIP() << "observability compiled out";
  ASSERT_EQ(m.events_overwritten, 0u) << "test run must fit in the ring";

  std::uint64_t admitted = 0, redirected = 0, consults = 0;
  for (const auto& ev : m.events) {
    switch (ev.kind) {
      case obs::EventKind::RequestAdmitted:
        ++admitted;
        EXPECT_LT(ev.actor, cfg.num_proxies);
        EXPECT_GE(ev.a, 0.0);  // wait
        EXPECT_GT(ev.b, 0.0);  // demand
        break;
      case obs::EventKind::RequestRedirected: ++redirected; break;
      case obs::EventKind::ConsultStarted: ++consults; break;
      default: break;
    }
  }
  EXPECT_EQ(admitted, m.total_requests);
  EXPECT_EQ(redirected, m.redirected_requests);
  EXPECT_EQ(consults, m.scheduler_consults);
}

TEST(Simulator, SmallEventRingOverwritesOldestButKeepsTotals) {
  trace::GeneratorConfig gc;
  gc.peak_rate = 5.0;
  trace::Generator gen(gc, DiurnalProfile::flat(1.0, 2000.0, 10));
  SimConfig cfg = small_config(2, 2000.0);
  cfg.event_ring_capacity = 64;
  Simulator sim(cfg);
  const auto m = sim.run({gen.generate(3), gen.generate(4)});
  if (!obs::kEnabled) GTEST_SKIP() << "observability compiled out";
  EXPECT_LE(m.events.size(), 64u);
  EXPECT_EQ(m.events_overwritten + m.events.size(), m.total_requests)
      << "no-scheduler run emits exactly one admission event per request";
}

TEST(Simulator, PrivateSinkIsolatesRegistryTotals) {
  obs::MetricsRegistry reg;
  SimConfig cfg = small_config(1);
  cfg.sink = obs::Sink{&reg, nullptr};
  Simulator sim(cfg);
  const auto m = sim.run({{req_at(10.0, 1.0), req_at(10.0, 1.0)}});
  if (!obs::kEnabled) GTEST_SKIP() << "observability compiled out";
  EXPECT_EQ(m.total_requests, 2u);
  EXPECT_EQ(reg.counter("sim.requests.total").value(), 2u);
  EXPECT_DOUBLE_EQ(reg.gauge("sim.wait.mean_seconds").value(), m.mean_wait());
}

}  // namespace
}  // namespace agora::proxysim
