// event_ring.h -- a fixed-capacity, lock-free ring of structured trace
// events. The ring keeps the most recent `capacity` events: producers never
// block and never allocate; when the ring is full the oldest events are
// overwritten (and accounted for via overwritten()).
//
// Concurrency contract: push() is safe from any number of threads (a ticket
// counter assigns each push a slot; a per-slot lap sequence serializes the
// rare wraparound collision where two writers land on the same slot).
// snapshot() requires writers to be quiescent -- it is meant for end-of-run
// export, not live tailing.
//
// Event taxonomy (see DESIGN.md §10): scheduler admission decisions, LP
// solve-chain progress, bus faults, and GRM/client protocol recoveries. The
// `time` field is DOMAIN time -- simulator/bus virtual seconds, or a solve
// ordinal for layers without a clock -- never wall-clock, so identically
// seeded runs produce byte-identical event streams (asserted in
// proxysim_test). Wall-clock durations belong in LogHistograms instead.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "obs/metrics.h"  // AGORA_OBS_ENABLED / kEnabled

namespace agora::obs {

enum class EventKind : std::uint32_t {
  // proxysim admission decisions
  RequestAdmitted = 0,   ///< actor=proxy, peer=origin, a=wait s, b=demand s
  RequestRedirected,     ///< actor=donor origin, peer=absorber, a=demand, b=cost
  RequestDenied,         ///< actor=principal, a=amount (alloc denial / rms deadline)
  ConsultStarted,        ///< actor=proxy, a=overflow demand
  ConsultDegraded,       ///< actor=proxy, a=overflow kept local
  // certified lp solve (time = solve ordinal)
  LpSolveStarted,        ///< actor=solve ordinal
  LpSolveCertified,      ///< actor=solve ordinal, peer=stage, b=pivots
  LpSolveExhausted,      ///< actor=solve ordinal (the answer did not certify)
  // rms bus fault layer (time = bus virtual time)
  BusFaultDrop,          ///< actor=from, peer=to
  BusFaultDuplicate,     ///< actor=from, peer=to
  BusFaultCrashLoss,     ///< actor=endpoint
  BusFaultPartitionLoss, ///< actor=from, peer=to
  // rms protocol recoveries (time = bus virtual time)
  GrmRetry,              ///< actor=client endpoint, peer=grm, a=attempt
  GrmReserveRetry,       ///< actor=grm, peer=site, a=attempt
  GrmResync,             ///< actor=grm, peer=lrm site
  ClientDeadline,        ///< actor=client endpoint, a=attempts made
  // engine shard workers (time = per-shard op ordinal)
  EngineBatch,           ///< actor=shard, a=batch size; only when size > 1
  // replicated GRM (time = bus virtual time)
  LeaderElected,         ///< actor=replica, a=term
  LogTruncate,           ///< actor=replica, a=first index kept/dropped, b=entries dropped
  ReplicaSnapshot,       ///< actor=replica, peer=leader, a=snapshot last index
  ClientRedirect,        ///< actor=client endpoint, peer=new target, a=attempt
};

inline const char* to_string(EventKind k) {
  switch (k) {
    case EventKind::RequestAdmitted: return "request_admitted";
    case EventKind::RequestRedirected: return "request_redirected";
    case EventKind::RequestDenied: return "request_denied";
    case EventKind::ConsultStarted: return "consult_started";
    case EventKind::ConsultDegraded: return "consult_degraded";
    case EventKind::LpSolveStarted: return "lp_solve_started";
    case EventKind::LpSolveCertified: return "lp_solve_certified";
    case EventKind::LpSolveExhausted: return "lp_solve_exhausted";
    case EventKind::BusFaultDrop: return "bus_fault_drop";
    case EventKind::BusFaultDuplicate: return "bus_fault_duplicate";
    case EventKind::BusFaultCrashLoss: return "bus_fault_crash_loss";
    case EventKind::BusFaultPartitionLoss: return "bus_fault_partition_loss";
    case EventKind::GrmRetry: return "grm_retry";
    case EventKind::GrmReserveRetry: return "grm_reserve_retry";
    case EventKind::GrmResync: return "grm_resync";
    case EventKind::ClientDeadline: return "client_deadline";
    case EventKind::EngineBatch: return "engine_batch";
    case EventKind::LeaderElected: return "leader_elected";
    case EventKind::LogTruncate: return "log_truncate";
    case EventKind::ReplicaSnapshot: return "replica_snapshot";
    case EventKind::ClientRedirect: return "client_redirect";
  }
  return "unknown";
}

struct TraceEvent {
  double time = 0.0;  ///< domain time (virtual seconds or ordinal), not wall
  EventKind kind = EventKind::RequestAdmitted;
  std::uint32_t actor = 0;
  std::uint32_t peer = 0;
  std::uint32_t pad_ = 0;  ///< keeps the struct trivially comparable
  double a = 0.0;
  double b = 0.0;

  friend bool operator==(const TraceEvent& x, const TraceEvent& y) {
    return x.time == y.time && x.kind == y.kind && x.actor == y.actor && x.peer == y.peer &&
           x.a == y.a && x.b == y.b;
  }
};

class EventRing {
 public:
  /// Capacity is rounded up to a power of two (minimum 8).
  explicit EventRing(std::size_t capacity = 16384) {
    std::size_t cap = 8;
    shift_ = 3;
    while (cap < capacity) {
      cap <<= 1;
      ++shift_;
    }
    slots_ = std::vector<Slot>(cap);
    mask_ = cap - 1;
  }

  std::size_t capacity() const { return mask_ + 1; }

  void push(const TraceEvent& ev) {
    if constexpr (!kEnabled) {
      (void)ev;
      return;
    }
    const std::uint64_t ticket = cursor_.fetch_add(1, std::memory_order_relaxed);
    Slot& s = slots_[ticket & mask_];
    const std::uint64_t lap = ticket >> shift();
    // Claim the slot for this lap: its sequence must equal 2*lap (previous
    // lap fully written). On a wraparound collision -- another writer still
    // inside the slot for the previous lap -- spin briefly; the write is a
    // bounded struct copy.
    std::uint64_t expect = 2 * lap;
    while (!s.seq.compare_exchange_weak(expect, 2 * lap + 1, std::memory_order_acquire,
                                        std::memory_order_relaxed)) {
      if (expect > 2 * lap) return;  // a later lap already owns the slot
      expect = 2 * lap;
    }
    s.ev = ev;
    s.seq.store(2 * lap + 2, std::memory_order_release);
  }

  void emit(double time, EventKind kind, std::uint32_t actor = 0, std::uint32_t peer = 0,
            double a = 0.0, double b = 0.0) {
    if constexpr (kEnabled) push(TraceEvent{time, kind, actor, peer, 0, a, b});
  }

  /// Total pushes ever attempted.
  std::uint64_t pushed() const { return cursor_.load(std::memory_order_relaxed); }
  /// Events lost to overwrite (pushes beyond capacity).
  std::uint64_t overwritten() const {
    const std::uint64_t n = pushed();
    return n > capacity() ? n - capacity() : 0;
  }
  /// Events currently retained.
  std::size_t size() const {
    const std::uint64_t n = pushed();
    return n < capacity() ? static_cast<std::size_t>(n) : capacity();
  }

  /// Copy out the retained events, oldest first. Writers must be quiescent.
  std::vector<TraceEvent> snapshot() const {
    std::vector<TraceEvent> out;
    const std::uint64_t end = pushed();
    const std::uint64_t cap = capacity();
    const std::uint64_t begin = end > cap ? end - cap : 0;
    out.reserve(static_cast<std::size_t>(end - begin));
    for (std::uint64_t t = begin; t < end; ++t) {
      const Slot& s = slots_[t & mask_];
      // A slot whose lap sequence does not match was reclaimed by a later
      // lap (wraparound collision drop); skip the stale ticket.
      if (s.seq.load(std::memory_order_acquire) == 2 * (t >> shift()) + 2)
        out.push_back(s.ev);
    }
    return out;
  }

  void clear() {
    for (auto& s : slots_) s.seq.store(0, std::memory_order_relaxed);
    cursor_.store(0, std::memory_order_relaxed);
  }

 private:
  struct Slot {
    std::atomic<std::uint64_t> seq{0};
    TraceEvent ev;
  };

  unsigned shift() const { return shift_; }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  unsigned shift_ = 3;
  std::atomic<std::uint64_t> cursor_{0};
};

}  // namespace agora::obs
