// commit_onecomp -- one closed-loop caller committing decisions against the
// 64-participant bridged one-component economy (the same economy as
// bench/scale_shards' federated sweep), engine at its default options.
//
// Each cycle consults, applies the plan if granted, and releases the grant
// taken kHold cycles earlier. Every consult is a fresh shape against a fresh
// epoch, so the LP and its certify chain do nearly all the work and the plan
// cache and the network do none. kHold and the amount range keep about half
// of the economy's capacity on loan, where about one consult in ten is
// denied Insufficient. Participants are drawn in seeded passes that visit
// each once: consult cost differs by participant by three orders of
// magnitude under the shipped solver, so drawing them independently would
// make the run's cost depend on how often the slow ones came up.
#include <algorithm>
#include <cmath>
#include <deque>
#include <numeric>

#include "common.h"
#include "engine/engine.h"
#include "util/rng.h"

namespace perfbench {
namespace {

constexpr std::size_t kIslands = 8;
constexpr std::size_t kPerIsland = 8;
constexpr double kShare = 0.2;
constexpr double kBridgeShare = 0.05;
constexpr std::size_t kHold = 16;
constexpr double kAmountMin = 4.0;
constexpr double kAmountMax = 48.0;
/// One set-up is ~30 ms, short enough for a second of host slowdown to
/// distort it; the median of many spreads them over a few hundred ms.
constexpr int kSetups = 9;

agora::agree::AgreementSystem bridged_economy() {
  const std::size_t n = kIslands * kPerIsland;
  agora::agree::AgreementSystem sys(n);
  for (std::size_t i = 0; i < n; ++i) sys.capacity[i] = 10.0 + static_cast<double>(i % kPerIsland);
  for (std::size_t g = 0; g < kIslands; ++g)
    for (std::size_t i = g * kPerIsland; i < (g + 1) * kPerIsland; ++i)
      for (std::size_t j = g * kPerIsland; j < (g + 1) * kPerIsland; ++j)
        if (i != j) sys.relative(i, j) = kShare;
  for (std::size_t g = 0; g < kIslands; ++g) {
    const std::size_t a = g * kPerIsland + (kPerIsland - 1);
    const std::size_t b = ((g + 1) % kIslands) * kPerIsland;
    sys.relative(a, b) = kBridgeShare;
    sys.relative(b, a) = kBridgeShare;
  }
  return sys;
}

agora::engine::EngineOptions engine_options() {
  agora::engine::EngineOptions opts;
  opts.alloc.transitive.max_level = 3;
  return opts;
}

struct Phase {
  std::vector<double> consult_us;
  std::uint64_t cycles = 0;
  std::uint64_t granted = 0;
  std::uint64_t insufficient = 0;
  std::uint64_t failed = 0;       ///< Denied + SolverFailed
  std::uint64_t uncertified = 0;  ///< granted without a certificate
  std::uint64_t certified = 0;
  std::uint64_t lp_iterations = 0;
  double theta_sum = 0.0;
  double seconds = 0.0;
};

/// Closed-loop consult -> apply -> release cycles, in whole passes over the
/// participants while another pass fits in `seconds` (at least one); then
/// every held grant is released so the engine ends where it started.
Phase run_cycles(agora::engine::EnforcementEngine& eng, agora::Pcg32& rng, double seconds,
                 SpanRecorder& rec) {
  const std::uint32_t s_consult = rec.name_id("engine.consult");
  const std::uint32_t s_apply = rec.name_id("engine.apply");
  const std::uint32_t s_release = rec.name_id("engine.release");
  Phase ph;
  std::deque<std::vector<double>> held;  // empty vector: that cycle granted nothing
  const auto release_oldest = [&](std::uint64_t cycle) {
    if (!held.front().empty()) {
      const std::uint32_t sp = rec.begin(s_release, cycle);
      eng.release(held.front());
      rec.end(sp);
    }
    held.pop_front();
  };
  const auto run_cycle = [&](std::size_t a) {
    const std::uint64_t cycle = ++ph.cycles;
    const double amount = rng.uniform(kAmountMin, kAmountMax);
    const std::int64_t t0 = SpanRecorder::now_ns();
    const std::uint32_t sp = rec.begin_at(s_consult, t0, cycle);
    const agora::alloc::AllocationPlan plan = eng.consult(a, amount);
    const std::int64_t t1 = SpanRecorder::now_ns();
    rec.end_at(sp, t1);
    ph.consult_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    ph.lp_iterations += plan.lp_iterations;
    if (plan.certified) ++ph.certified;
    std::vector<double> taken;
    switch (plan.status) {
      case agora::alloc::PlanStatus::Satisfied: {
        ++ph.granted;
        ph.theta_sum += plan.theta;
        if (!plan.certified) ++ph.uncertified;
        const std::uint32_t ap = rec.begin(s_apply, cycle);
        eng.apply(plan);
        rec.end(ap);
        taken = plan.draw;
        break;
      }
      case agora::alloc::PlanStatus::Insufficient: ++ph.insufficient; break;
      default: ++ph.failed; break;
    }
    held.push_back(std::move(taken));
    if (held.size() > kHold) release_oldest(cycle);
  };

  std::vector<std::size_t> order(eng.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  const Clock::time_point start = Clock::now();
  double pass_s = 0.0;
  do {
    const Clock::time_point pass_start = Clock::now();
    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1], order[rng.uniform_u32(static_cast<std::uint32_t>(i))]);
    for (const std::size_t a : order) run_cycle(a);
    pass_s = seconds_between(pass_start, Clock::now());
  } while (seconds_between(start, Clock::now()) + pass_s <= seconds);
  ph.seconds = seconds_between(start, Clock::now());
  while (!held.empty()) release_oldest(0);
  return ph;
}

}  // namespace

Outcome run_commit_onecomp(const Args& args) {
  Outcome out;
  const agora::agree::AgreementSystem sys = bridged_economy();

  // Set-up: build the engine (transitive closure, shard allocators) and warm
  // it with a few consults, kSetups times; the median is setup_s.
  std::vector<double> setup_s, build_s;
  std::unique_ptr<agora::engine::EnforcementEngine> eng;
  for (int i = 0; i < kSetups; ++i) {
    eng.reset();
    const Clock::time_point t0 = Clock::now();
    eng = std::make_unique<agora::engine::EnforcementEngine>(sys, engine_options());
    build_s.push_back(seconds_between(t0, Clock::now()));
    // The same consults whatever the seed: one per island, at its bridge
    // endpoint, so set-up does fixed work.
    for (std::size_t g = 0; g < kIslands; ++g)
      (void)eng->consult(g * kPerIsland + kPerIsland - 1, kAmountMin);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  const std::vector<double> initial = eng->snapshot()->capacity;

  agora::Pcg32 rng(args.seed);
  SpanRecorder untraced(false);
  SpanRecorder rec(args.trace);
  Phase base;
  if (args.trace) base = run_cycles(*eng, rng, args.seconds / 2, untraced);
  const agora::lp::PipelineStats before = *eng->solver_stats();
  const agora::engine::EngineStats es0 = eng->stats();
  const Phase ph = run_cycles(*eng, rng, args.trace ? args.seconds / 2 : args.seconds, rec);

  // Gates: no uncertified grant, and after every held grant is released the
  // capacities are back where they started (within LP tolerance).
  out.gate(ph.uncertified == 0 && base.uncertified == 0, "commit_onecomp: uncertified grant");
  const std::vector<double> final_caps = eng->snapshot()->capacity;
  for (std::size_t i = 0; i < initial.size(); ++i)
    out.gate(std::fabs(final_caps[i] - initial[i]) <= 1e-6 * std::max(1.0, initial[i]),
             "commit_onecomp: capacity of participant " + std::to_string(i) +
                 " not restored after releasing every grant");

  out.attempted = ph.cycles;
  out.failed = ph.failed;
  const double throughput = static_cast<double>(ph.cycles) / ph.seconds;
  out.samples["p50_us"] = ph.consult_us.size();
  out.samples["bench.p95_us"] = ph.consult_us.size();
  if (!args.trace) {
    out.e2e["setup_s"] = median(setup_s);
    out.e2e["p50_us"] = percentile(ph.consult_us, 0.50);
    out.e2e["throughput"] = throughput;
    out.e2e["peak_rss_mb"] = peak_rss_mb();
    return out;
  }

  const agora::lp::PipelineStats after = *eng->solver_stats();
  const agora::engine::EngineStats es = eng->stats();
  auto& L = out.layer;
  L["engine.consult_p50_us"] = percentile(rec.durations_ns("engine.consult"), 0.5) / 1e3;
  std::vector<double> mut = rec.durations_ns("engine.apply");
  const std::vector<double> rel = rec.durations_ns("engine.release");
  mut.insert(mut.end(), rel.begin(), rel.end());
  L["engine.mutate_p50_us"] = percentile(mut, 0.50) / 1e3;
  L["engine.mutate_p99_us"] = percentile(mut, 0.99) / 1e3;
  L["engine.epochs"] = static_cast<double>(es.epoch - es0.epoch);
  L["engine.batch_mean"] = batch_mean(es0, es);
  const auto cycles = static_cast<double>(ph.cycles);
  fill_lp_layers(L, before, after);
  L["lp.iterations_per_consult"] = static_cast<double>(ph.lp_iterations) / cycles;
  L["alloc.certified_ratio"] = static_cast<double>(ph.certified) / cycles;
  L["alloc.fastpath_share"] =
      static_cast<double>(es.fastpath_granted - es0.fastpath_granted) / cycles;
  L["alloc.theta_mean"] = ph.granted ? ph.theta_sum / static_cast<double>(ph.granted) : 0.0;
  L["alloc.insufficient_frac"] = static_cast<double>(ph.insufficient) / cycles;
  L["agree.build_s"] = median(build_s);
  L["bench.p95_us"] = percentile(ph.consult_us, 0.95);
  L["bench.fail_frac"] = static_cast<double>(ph.failed) / cycles;
  L["bench.trace_overhead_pct"] =
      overhead_pct(static_cast<double>(base.cycles) / base.seconds, throughput, true);
  if (!args.spans_out.empty() && !rec.write_csv(args.spans_out))
    out.gate(false, "commit_onecomp: cannot write spans to " + args.spans_out);
  return out;
}

}  // namespace perfbench
