// metrics.h -- what the simulator measures: exactly the series the paper's
// figures plot (requests and average waiting time per 10-minute slot), plus
// redirection accounting and per-proxy aggregates.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/event_ring.h"
#include "util/stats.h"

namespace agora::proxysim {

struct SimMetrics {
  SimMetrics(double horizon, double slot_width, std::size_t num_proxies)
      : wait_by_slot(horizon, slot_width),
        requests_by_slot(static_cast<std::size_t>(horizon / slot_width + 0.5), 0),
        redirected_by_slot(static_cast<std::size_t>(horizon / slot_width + 0.5), 0),
        consults_by_slot(static_cast<std::size_t>(horizon / slot_width + 0.5), 0),
        degraded_by_slot(static_cast<std::size_t>(horizon / slot_width + 0.5), 0),
        per_proxy_wait(num_proxies) {
    wait_by_slot_per_proxy.reserve(num_proxies);
    for (std::size_t p = 0; p < num_proxies; ++p)
      wait_by_slot_per_proxy.emplace_back(horizon, slot_width);
  }

  /// Average waiting time per slot, keyed by the request's original arrival
  /// time (Figures 5, 6, 8-13).
  SlottedSeries wait_by_slot;
  /// Same series restricted to each origin proxy: the paper's figures plot
  /// "the average waiting time of a client request at a particular ISP".
  std::vector<SlottedSeries> wait_by_slot_per_proxy;
  /// Requests per slot (the solid line in Figure 5).
  std::vector<std::uint64_t> requests_by_slot;
  /// Redirected requests per slot (Figure 12's discussion).
  std::vector<std::uint64_t> redirected_by_slot;
  /// Scheduler consults per slot (admission breakdown over the day).
  std::vector<std::uint64_t> consults_by_slot;
  /// Consults that degraded to local-only admission per slot.
  std::vector<std::uint64_t> degraded_by_slot;

  StreamingStats wait_overall;
  std::vector<StreamingStats> per_proxy_wait;  ///< by origin proxy

  /// Wait distribution: 0.1 s buckets up to 10 minutes, then overflow.
  /// Quantiles beyond the range saturate at the range edge.
  Histogram wait_histogram{0.0, 600.0, 6000};

  std::uint64_t total_requests = 0;
  std::uint64_t redirected_requests = 0;
  std::uint64_t scheduler_consults = 0;
  std::uint64_t lp_iterations = 0;
  double redirected_demand = 0.0;

  /// Certified-enforcement telemetry (LP scheme only; see lp::SolvePipeline).
  std::uint64_t certified_consults = 0;   ///< consults backed by a certificate
  std::uint64_t degraded_consults = 0;    ///< chain exhausted -> local-only
  std::uint64_t solver_fallbacks = 0;     ///< extra solve stages across consults (0)

  /// Structured trace of the run (admissions, redirections, consults, LP
  /// solve-chain progress), oldest first, in simulator virtual time.
  /// Identically seeded runs produce identical streams (proxysim_test
  /// asserts this). Bounded by SimConfig::event_ring_capacity.
  std::vector<obs::TraceEvent> events;
  /// Events the run emitted beyond the ring's capacity (0 = `events` is the
  /// complete stream).
  std::uint64_t events_overwritten = 0;

  double redirected_fraction() const {
    return total_requests == 0
               ? 0.0
               : static_cast<double>(redirected_requests) / static_cast<double>(total_requests);
  }
  /// Largest per-slot mean waiting time ("worst-case waiting time").
  double peak_slot_wait() const { return wait_by_slot.peak_slot_mean(); }
  double mean_wait() const { return wait_overall.mean(); }
  /// q in [0,1]; interpolated quantile of the wait distribution.
  double wait_quantile(double q) const { return wait_histogram.quantile(q); }
};

}  // namespace agora::proxysim
