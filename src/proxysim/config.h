// config.h -- configuration of the ISP web-proxy case study (Section 4).
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "alloc/allocator.h"
#include "obs/sink.h"
#include "util/matrix.h"

namespace agora::proxysim {

/// The paper's per-request resource cost: a + b*x seconds, capped at c
/// ("to avoid extremely long response lengths from causing spikes in the
/// waiting time"). Defaults are the paper's values: a=0.1s, b=1e-6 s/byte,
/// c=30s.
struct CostModel {
  double base = 0.1;
  double per_byte = 1e-6;
  double cap = 30.0;

  double demand(std::uint64_t response_bytes) const {
    return std::min(cap, base + per_byte * static_cast<double>(response_bytes));
  }
};

enum class SchedulerKind {
  None,      ///< no sharing: every request is served where it arrives
  Lp,        ///< the paper's centralized LP scheme (Section 3)
  Endpoint,  ///< the proportional endpoint baseline (Figure 13)
};

struct SimConfig {
  std::size_t num_proxies = 10;
  double horizon = 86400.0;    ///< one 24h day
  double slot_width = 600.0;   ///< the paper's 10-minute reporting slots
  CostModel cost;

  /// Per-proxy processing power multipliers (Figure 7 sweeps this);
  /// empty = all 1.0. A proxy with power p serves demand d in d/p seconds.
  std::vector<double> power;

  /// Fixed overhead added to a redirected request's demand (Figure 12).
  double redirect_cost = 0.0;

  SchedulerKind scheduler = SchedulerKind::None;
  /// Relative agreement matrix S between proxies (ignored for None).
  Matrix agreements;
  /// Allocator options: transitivity level (Figures 8-11), LP tolerances.
  alloc::AllocatorOptions alloc_opts;
  /// LP scheme backend: 0 (default) consults the in-process Allocator
  /// directly; >= 1 routes every consult through a sharded
  /// engine::EnforcementEngine with this many worker threads (agora_sim
  /// --threads N). threads=1 is decision-identical to the direct path.
  std::size_t scheduler_threads = 0;
  /// Epoch-keyed decision cache in front of the engine's shard queues
  /// (engine/plan_cache.h; agora_sim --plan-cache). Repeated consult shapes
  /// are answered in the caller's thread after a certified residual
  /// re-check. Only meaningful when scheduler_threads >= 1.
  bool engine_plan_cache = false;

  /// Consult the global scheduler when a proxy's queued demand (in
  /// unit-power service seconds) exceeds this.
  double queue_threshold = 5.0;
  /// Minimum spacing between consults at one proxy (seconds).
  double consult_cooldown = 5.0;
  /// Round-trip delay between consulting the (centralized) global scheduler
  /// and the decision taking effect at the proxy. The decision is computed
  /// against the availability known at consult time, so with a large
  /// latency it is stale by the time it is applied -- the practical cost of
  /// centralization the paper's GRM architecture implies
  /// (ablation_latency sweeps this).
  double decision_latency = 0.0;

  /// Scheduling epoch: the spare capacity V_i a proxy reports is what is
  /// left of this window after its current backlog AND its own expected
  /// arrivals (each proxy knows its diurnal demand curve). Matches the
  /// paper's 10-minute accounting granularity. A proxy running at local
  /// utilization >= 1 therefore reports V ~ 0 even when its instantaneous
  /// queue is short -- which is what throttles load from cascading through
  /// busy intermediaries under direct-only agreements (Figures 9-11).
  double planning_window = 600.0;
  /// After redirection the proxy keeps this fraction of the threshold
  /// queued locally.
  double keep_local_fraction = 0.5;

  // --- Ablation switches (see DESIGN.md, "Scheduler semantics") -----------
  /// Include each proxy's own expected arrivals in its reported spare
  /// capacity. Disabling reverts to queue-only spare, which lets load
  /// cascade through busy intermediaries (ablation_scheduler measures it).
  bool spare_includes_forecast = true;
  /// Cap per-donor redirection at the backlog-equalization point net of the
  /// redirect cost. Disabling re-enables the churn feedback under positive
  /// redirection costs.
  bool wait_benefit_cap = true;

  // --- Observability -------------------------------------------------------
  /// Metrics destination. The event-ring half of this sink is NOT used
  /// during the run: Simulator::run records events into a run-local ring
  /// (so the per-run stream is deterministic and isolated) and snapshots it
  /// into SimMetrics::events; the same run-local ring is plumbed into the
  /// allocator so scheduler and LP events interleave in one stream.
  obs::Sink sink = obs::Sink::global();
  /// Capacity of the run-local trace-event ring (rounded up to a power of
  /// two). When a run emits more events than this, the oldest are
  /// overwritten (SimMetrics::events_overwritten accounts for them). At 48
  /// bytes per slot the 4Ki default stays L2-resident; a 64Ki (3 MB) ring
  /// measured -5% to +22% no-sharing wall time, inside host noise (see
  /// EXPERIMENTS.md, micro_sim). Raise it when the full stream matters.
  std::size_t event_ring_capacity = 1 << 12;

  double proxy_power(std::size_t i) const { return power.empty() ? 1.0 : power.at(i); }
};

}  // namespace agora::proxysim
