// case_study_day -- the paper's Section 4 evaluation: ten proxies, one
// 24-hour synthetic trace each (the figure harnesses' calibrated generator,
// peak 9.5 req/s, 1 h time-zone gap), scheduled by the LP scheme over
// Figure 13's distance-decay agreements through proxysim::Simulator::run.
//
// A day is millions of requests but only a few thousand LP consults, so the
// discrete-event loop does nearly all the work: this workload predicts "no
// change" for LP, engine and network work and guards the paper's own
// outcome (mean wait, deterministic per seed).
#include <cstdint>
#include <optional>

#include "agree/topology.h"
#include "common.h"
#include "fig_common.h"
#include "obs/metrics.h"
#include "proxysim/scheduler_bridge.h"
#include "proxysim/simulator.h"

namespace perfbench {
namespace {

namespace fb = agora::figbench;
using agora::proxysim::SimMetrics;
using Traces = std::vector<std::vector<agora::trace::TraceRequest>>;

constexpr int kSetups = 3;

agora::proxysim::SimConfig lp_config(agora::obs::Sink sink) {
  agora::proxysim::SimConfig cfg = fb::base_config();
  cfg.scheduler = agora::proxysim::SchedulerKind::Lp;
  cfg.agreements = agora::agree::distance_decay(fb::kProxies, {0.20, 0.10, 0.05, 0.03});
  cfg.sink = sink;
  cfg.alloc_opts.sink = sink;
  return cfg;
}

struct Days {
  std::uint64_t days = 0;
  double seconds = 0.0;
  std::vector<double> day_s;  ///< wall time of each day
  std::optional<SimMetrics> first;
  bool repeatable = true;  ///< every day reproduced the first bit for bit
};

/// Simulate whole days back to back while another fits in `seconds` (at
/// least one). Every day replays the same traces, so each must reproduce the
/// first exactly.
Days run_days(const Traces& traces, agora::obs::Sink sink, double seconds, SpanRecorder& rec) {
  const std::uint32_t s_run = rec.name_id("proxysim.run");
  Days d;
  double day_s = 0.0;
  do {
    const Clock::time_point t0 = Clock::now();
    const ScopedSpan span(rec, s_run, d.days + 1);
    agora::proxysim::Simulator sim(lp_config(sink));
    SimMetrics m = sim.run(traces);
    day_s = seconds_between(t0, Clock::now());
    d.seconds += day_s;
    d.day_s.push_back(day_s);
    ++d.days;
    if (!d.first) {
      d.first = std::move(m);
    } else {
      d.repeatable = d.repeatable && m.mean_wait() == d.first->mean_wait() &&
                     m.scheduler_consults == d.first->scheduler_consults &&
                     m.redirected_requests == d.first->redirected_requests;
    }
  } while (d.seconds + day_s <= seconds);
  return d;
}

double counter(agora::obs::MetricsRegistry& reg, const std::string& name) {
  return static_cast<double>(reg.counter(name).value());
}

}  // namespace

Outcome run_case_study_day(const Args& args) {
  Outcome out;

  // Set-up: generate the ten day-long traces and build the LP scheduler's
  // allocator (transitive closure), kSetups times; the median is setup_s.
  std::vector<double> setup_s, generate_s, build_s;
  Traces traces;
  for (int i = 0; i < kSetups; ++i) {
    traces.clear();
    traces.shrink_to_fit();
    const Clock::time_point t0 = Clock::now();
    traces = fb::make_traces(fb::kHour, fb::kProxies, args.seed);
    const Clock::time_point t1 = Clock::now();
    { const agora::proxysim::SchedulerBridge bridge(lp_config(agora::obs::Sink::none())); }
    const Clock::time_point t2 = Clock::now();
    generate_s.push_back(seconds_between(t0, t1));
    build_s.push_back(seconds_between(t1, t2));
    setup_s.push_back(seconds_between(t0, t2));
  }
  std::uint64_t generated = 0;
  for (const auto& t : traces) generated += t.size();

  SpanRecorder untraced(false);
  SpanRecorder rec(args.trace);
  agora::obs::MetricsRegistry base_reg;
  std::optional<Days> base;
  if (args.trace) base = run_days(traces, {&base_reg, nullptr}, args.seconds / 2, untraced);
  agora::obs::MetricsRegistry reg;
  const Days d = run_days(traces, {&reg, nullptr}, args.trace ? args.seconds / 2 : args.seconds, rec);
  const SimMetrics& m = *d.first;

  // Gates: every generated request served exactly once, days reproducible,
  // and no redirect planned on an uncertified grant.
  out.gate(m.total_requests == generated && m.wait_overall.count() == generated,
           "case_study_day: " + std::to_string(generated) + " requests generated but " +
               std::to_string(m.wait_overall.count()) + " served");
  out.gate(d.repeatable, "case_study_day: replaying the same day changed its outcome");
  const double satisfied = counter(reg, "alloc.plans.satisfied");
  out.gate(satisfied <= static_cast<double>(m.certified_consults * d.days),
           "case_study_day: a redirect was planned on an uncertified grant");

  out.attempted = m.scheduler_consults;
  out.failed = m.degraded_consults;
  const double throughput =
      static_cast<double>(m.total_requests * d.days) / d.seconds;
  // The unit of work of a discrete-event simulation is a simulated request,
  // whose cost is observable only per day: p50_us is the median over days
  // of wall microseconds per simulated request.
  std::vector<double> us_per_request;
  for (double s : d.day_s) us_per_request.push_back(s * 1e6 / static_cast<double>(generated));
  const agora::obs::LogHistogram& plan_s = reg.histogram("alloc.plan.seconds");
  out.samples["p50_us"] = d.days;
  out.samples["alloc.plan_p50_us"] = plan_s.count();
  if (!args.trace) {
    out.e2e["setup_s"] = median(setup_s);
    out.e2e["p50_us"] = median(us_per_request);
    out.e2e["throughput"] = throughput;
    out.e2e["peak_rss_mb"] = peak_rss_mb();
    return out;
  }

  auto& L = out.layer;
  agora::lp::PipelineStats lp;
  lp.solves = static_cast<std::uint64_t>(counter(reg, "lp.pipeline.solves"));
  lp.exhausted = static_cast<std::uint64_t>(counter(reg, "lp.pipeline.exhausted"));
  for (int i = 0; i < agora::lp::kPipelineStages; ++i) {
    const std::string prefix = std::string("lp.pipeline.stage.") +
                               agora::lp::to_string(static_cast<agora::lp::PipelineStage>(i));
    lp.attempts[i] = static_cast<std::uint64_t>(counter(reg, prefix + ".attempts"));
    lp.failures[i] = static_cast<std::uint64_t>(counter(reg, prefix + ".cert_failures"));
  }
  fill_lp_layers(L, agora::lp::PipelineStats{}, lp);
  const double plans = satisfied + counter(reg, "alloc.plans.insufficient") +
                       counter(reg, "alloc.plans.denied") +
                       counter(reg, "alloc.plans.solver_failed");
  const double days = static_cast<double>(d.days);
  L["lp.iterations_per_consult"] = plans > 0 ? static_cast<double>(m.lp_iterations) * days / plans : 0;
  L["alloc.certified_ratio"] = plans > 0 ? static_cast<double>(m.certified_consults) * days / plans : 0;
  L["alloc.insufficient_frac"] = plans > 0 ? counter(reg, "alloc.plans.insufficient") / plans : 0;
  L["agree.build_s"] = median(build_s);
  L["trace.generate_s"] = median(generate_s);
  L["trace.requests"] = static_cast<double>(generated);
  const double consults = static_cast<double>(m.scheduler_consults);
  L["proxysim.consults"] = consults;
  L["proxysim.redirected_frac"] = m.redirected_fraction();
  L["proxysim.lp_iterations_per_consult"] =
      consults > 0 ? static_cast<double>(m.lp_iterations) / consults : 0;
  L["proxysim.solver_fallbacks"] = static_cast<double>(m.solver_fallbacks);
  L["proxysim.mean_wait_s"] = m.mean_wait();
  L["alloc.plan_p50_us"] = plan_s.quantile(0.50) * 1e6;
  L["alloc.plan_p95_us"] = plan_s.quantile(0.95) * 1e6;
  L["bench.fail_frac"] = consults > 0 ? static_cast<double>(m.degraded_consults) / consults : 0;
  L["bench.trace_overhead_pct"] = overhead_pct(
      static_cast<double>(base->first->total_requests * base->days) / base->seconds, throughput,
      true);
  if (!args.spans_out.empty() && !rec.write_csv(args.spans_out))
    out.gate(false, "case_study_day: cannot write spans to " + args.spans_out);
  return out;
}

}  // namespace perfbench
