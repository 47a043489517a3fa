// engine.h -- the sharded, thread-safe enforcement engine fronting all
// admission traffic (DESIGN.md §11).
//
// The paper evaluates enforcement with ten proxies consulting one allocator
// serially; production traffic needs admission decisions computed locally
// and in parallel. EnforcementEngine partitions participants into shards
// (by agreement-graph connectivity; a single component is either cut
// federated with border credits or hash-replicated -- see partition.h and
// federation.h); each
// shard owns a dedicated worker thread with its *own* allocator, which
// poses each consult's support model (alloc::SupportModel) and solves it
// cold in its own lp::SolveWorkspace scratch. Requests enter through
// per-shard MPSC queues with batch coalescing: everything queued on a shard
// while its worker was busy is drained in one lock acquisition and solved
// back-to-back.
// Capacity/valuation reads go through an epoch-versioned immutable snapshot
// (snapshot.h) and never touch a shard queue or allocator.
//
// Guarantees:
//   * threads=1 is decision-identical to calling the Allocator directly:
//     one shard owning the whole system, the same Allocator performing the
//     same call sequence (pinned byte-identical in tests/engine_test.cpp).
//   * Certification is inherited unchanged: the per-shard allocators run
//     the certified solve, so no uncertified grant is possible through the
//     engine.
//   * Per-shard FIFO: operations submitted to one shard take effect in
//     submission order; mutations ack only after every affected shard
//     applied them and the new snapshot epoch is published.
//
// EnforcementEngine implements alloc::AllocatorBase, so call sites written
// against the interface (SchedulerBridge, the GRM) run on the engine or a
// direct allocator interchangeably.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "alloc/allocator.h"
#include "alloc/allocator_base.h"
#include "engine/federation.h"
#include "engine/partition.h"
#include "engine/plan_cache.h"
#include "engine/snapshot.h"
#include "obs/sink.h"
#include "util/matrix.h"
#include "util/status.h"
#include "util/task_queue.h"

namespace agora::engine {

struct EngineOptions {
  /// Worker shard count. 1 (default) = a single shard over the full system,
  /// decision-identical to the direct allocator path. Clamped to the
  /// participant count; in connectivity mode also to the component count.
  std::size_t threads = 1;
  /// Per-shard allocator configuration; each shard's allocator owns its own
  /// solver workspace.
  alloc::AllocatorOptions alloc;
  /// Epoch-keyed decision cache fronting the shard queues (plan_cache.h).
  /// A repeated (participant, amount) shape within one snapshot epoch is
  /// answered on the CALLER thread -- no queue, no worker hop, no LP -- after
  /// a sparse residual re-certification against the current snapshot. Off by
  /// default: with the cache on, repeated shapes are answered from the first
  /// decision of that epoch instead of being re-solved, which a test
  /// asserting per-call solver telemetry would notice. Decisions themselves
  /// are unchanged (same epoch => same LP answer: every consult is a cold
  /// solve, a pure function of (snapshot, request)).
  bool plan_cache = false;
  /// Slot count for the decision cache (rounded up to a power of two).
  std::size_t plan_cache_slots = std::size_t{1} << 13;
  /// Federated cross-shard enforcement (federation.h). When enabled and the
  /// agreement graph has fewer components than requested shards, the engine
  /// cuts components by edge scoring and carries cut entitlements as border
  /// credits instead of degrading to full replicas. Decisions stay certified
  /// against the shard-local problem; the optimality gap versus the exact
  /// global LP is measured per settlement round (see EngineStats).
  FederationOptions federation;
  /// Telemetry: per-shard queue-depth gauges, batch-size histograms,
  /// coalesce counters, EngineBatch trace events (emitted only for
  /// coalesced batches, so a serial caller's event stream is unchanged).
  obs::Sink sink = obs::Sink::global();
};

/// Outcome of a submitted consult: `status` is agora's unified error
/// currency (DESIGN.md §11.5). For a decided request it mirrors the plan
/// (Ok / Insufficient / Denied / SolverFailed); transport-level failures
/// (engine stopped: Unavailable, bad arguments: InvalidArgument, worker
/// exception: Internal) leave the plan default-constructed.
struct EngineResult {
  Status status;
  alloc::AllocationPlan plan;
};

struct ShardStats {
  std::size_t participants = 0;
  std::uint64_t consults = 0;
  std::uint64_t batches = 0;
  std::uint64_t coalesced_batches = 0;   ///< batches with more than one op
  std::uint64_t coalesced_ops = 0;       ///< ops beyond the first per batch
  std::uint64_t max_batch = 0;
  std::size_t queue_depth = 0;           ///< sampled at the last enqueue
};

/// Federation telemetry: ledger totals plus the measured optimality gap
/// (federated theta versus the exact global LP's, sampled per settlement).
struct FederationStats {
  bool active = false;          ///< border credits exist (federated split in use)
  std::size_t credits = 0;      ///< cut edges carrying loans
  std::uint64_t settlements = 0;
  double granted = 0.0;         ///< cumulative loan volume ever issued
  double consumed = 0.0;        ///< cumulative loan volume spent by applied plans
  double revoked = 0.0;         ///< cumulative loan volume returned to lenders
  double outstanding = 0.0;     ///< live loan volume (granted - consumed - revoked)
  std::uint64_t gap_probes = 0; ///< decisions re-solved against the exact LP
  double last_gap_abs = 0.0;    ///< theta_federated - theta_exact, last probe
  double last_gap_rel = 0.0;    ///< ... relative to max(theta_exact, 1)
  double max_gap_rel = 0.0;     ///< worst relative gap observed
};

struct EngineStats {
  std::size_t shards = 0;
  bool replicated = false;
  /// Federated split in use: shard boundaries cut agreement edges and the
  /// cut entitlements ride border credits (see `federation`).
  bool federated = false;
  std::size_t components = 0;
  std::uint64_t epoch = 0;
  std::vector<ShardStats> shard;
  FederationStats federation;
  /// Decision-cache counters (all zero when EngineOptions::plan_cache off).
  PlanCacheStats plan_cache;
  /// Always 0: the allocator's admission fast path is deleted. Kept only
  /// because the end-to-end benchmark (perfbench) still reads them; the next
  /// change to that benchmark deletes both fields.
  std::uint64_t fastpath_granted = 0;
  std::uint64_t fastpath_fallthrough = 0;
};

class EnforcementEngine : public alloc::AllocatorBase {
 public:
  EnforcementEngine(agree::AgreementSystem sys, EngineOptions opts = {});
  ~EnforcementEngine() override;

  /// Stop the engine: reject new submissions, resolve every queued-but-
  /// unprocessed consult with Status::unavailable (fail-fast -- no LP is
  /// solved for a caller that can no longer use the answer), finish queued
  /// mutations/queries (their callers block in mutate()/drain() and must
  /// see real acks), and join the workers. Idempotent; the destructor calls
  /// it. After shutdown() returns, every future ever handed out by submit()
  /// is ready -- none is ever abandoned to std::future_error.
  void shutdown();

  EnforcementEngine(const EnforcementEngine&) = delete;
  EnforcementEngine& operator=(const EnforcementEngine&) = delete;

  // --- Admission ----------------------------------------------------------
  /// Blocking decision: route to the owning shard, wait for the plan.
  /// Precondition violations throw exactly like Allocator::allocate.
  alloc::AllocationPlan consult(std::size_t a, double amount) const;

  /// Future-based submission. Never throws: argument violations and
  /// shutdown resolve the future with the corresponding Status instead.
  std::future<EngineResult> submit(std::size_t a, double amount) const;

  // --- AllocatorBase ------------------------------------------------------
  std::size_t size() const override { return n_; }
  /// The full agreement system. Capacities reflect the last *published*
  /// epoch; concurrent readers should prefer snapshot() -- the capacity
  /// vector behind this reference is rewritten by mutations.
  const agree::AgreementSystem& system() const override { return sys_; }
  alloc::AllocationPlan allocate(std::size_t a, double amount) const override {
    return consult(a, amount);
  }
  double available_to(std::size_t a) const override;
  void apply(const alloc::AllocationPlan& plan) override;
  void release(const std::vector<double>& give_back) override;
  void set_capacities(std::span<const double> v) override;
  /// Aggregated certified-solve-chain telemetry across all shards. Enqueues
  /// a query op per shard (a barrier), so it must not be called from a
  /// shard worker.
  const lp::PipelineStats* solver_stats() const override;

  // --- Snapshot reads (never touch shard state) ---------------------------
  std::shared_ptr<const CapacitySnapshot> snapshot() const { return cell_.load(); }
  std::uint64_t epoch() const { return cell_.load()->epoch; }

  // --- Federation ---------------------------------------------------------
  /// Run one explicit settlement round at the current capacities: consume
  /// nothing, re-grant every border credit toward its policy target, measure
  /// the epoch's optimality-gap probes, publish the next snapshot epoch.
  /// Mutations (apply/release/set_capacities) settle implicitly; this is for
  /// callers that want loan balances refreshed without a capacity change.
  /// No-op beyond an epoch bump when federation is inactive.
  void settle();

  // --- Introspection ------------------------------------------------------
  std::size_t num_shards() const { return shards_.size(); }
  bool replicated() const { return part_.replicated; }
  bool federated() const { return fed_ != nullptr; }
  std::size_t num_components() const { return part_.components; }
  std::size_t shard_of(std::size_t participant) const;
  /// Barrier: block until every operation submitted before this call has
  /// been processed by its shard.
  void drain() const;
  EngineStats stats() const;

 private:
  /// What a mutation op hands back: the shard's post-mutation capacity and
  /// availability, in shard-local index order (full-length when
  /// replicated). Query ops reuse the struct for pipeline stats.
  struct ShardView {
    std::vector<double> capacity;
    std::vector<double> available;
    lp::PipelineStats pipeline;
    std::vector<GapSample> gaps;  ///< federated: epoch's gap probes, drained
  };

  struct Op {
    enum class Kind { Consult, Apply, Release, SetCapacities, Query };
    Kind kind = Kind::Query;
    std::size_t principal = 0;  ///< shard-local index (Consult)
    std::size_t global = 0;     ///< global participant id (Consult; cache key)
    double amount = 0.0;
    std::vector<double> vec;    ///< shard-local slice (mutations)
    /// Federated settlement payload (mutations; see Federation::ShardUpdate):
    /// a rebuilt local system when the shard's bank earmarks moved, and the
    /// shard's post-settlement credit table. Shipping both through the op
    /// keeps the worker's credit view FIFO-consistent with its allocator.
    std::shared_ptr<agree::AgreementSystem> rebuild;
    std::vector<CreditSlice> credits;
    std::promise<EngineResult> result;  ///< Consult
    std::promise<ShardView> view;       ///< mutations + Query
  };

  struct Shard {
    std::size_t id = 0;
    std::vector<std::size_t> members;     ///< global ids, ascending
    std::vector<std::size_t> local_of;    ///< global id -> local index (or npos)
    /// Worker-owned allocator. shared_ptr (not unique_ptr) because federated
    /// settlement ops can REPLACE it mid-run (earmark changes force a
    /// rebuild) while stats() reads its counters from other threads: the
    /// swap goes through std::atomic_store and cross-thread readers take a
    /// std::atomic_load snapshot.
    std::shared_ptr<alloc::Allocator> alloc;
    BlockingQueue<Op> queue;
    std::thread worker;
    std::uint64_t ordinal = 0;  ///< ops processed (worker-only; event time)
    /// Mutations applied on this shard (worker-only). Every mutate() fans one
    /// op to every shard and publishes epoch+1, so after this worker applies
    /// its m-th mutation its allocator state equals the global epoch-m
    /// snapshot restricted to its members -- making this the correct epoch
    /// key for decisions it computes from here on.
    std::uint64_t muts_applied = 0;
    // --- Federated state (worker-only unless noted) ------------------------
    /// Local index of the border bank slot, or npos when the shard has none.
    /// Fixed at construction (read-only afterwards).
    std::size_t bank = static_cast<std::size_t>(-1);
    /// Inbound credit table, ascending by id: how the worker attributes bank
    /// draws back to lenders. Replaced only by settlement ops, so it is
    /// always consistent with the allocator's bank earmarks.
    std::vector<CreditSlice> credits;
    /// Ring of the epoch's satisfied federated decisions, drained by the
    /// next settlement for gap probing.
    std::vector<GapSample> gap_samples;
    std::size_t gap_next = 0;
    /// Telemetry carried across allocator rebuilds (a settlement that moves
    /// bank earmarks replaces the allocator; its pipeline counters land
    /// here so solver_stats() never loses history).
    lp::PipelineStats carried;
    // Telemetry (relaxed atomics; readable without quiescence).
    std::atomic<std::uint64_t> consults{0};
    std::atomic<std::uint64_t> batches{0};
    std::atomic<std::uint64_t> coalesced_batches{0};
    std::atomic<std::uint64_t> coalesced_ops{0};
    std::atomic<std::uint64_t> max_batch{0};
    obs::Gauge* obs_queue_depth = nullptr;
  };

  void worker_loop(Shard& shard);
  void process(Shard& shard, Op& op);
  /// Caller-thread cache front end: lookup against the published epoch,
  /// re-certify the stored plan against the snapshot, return a copy on
  /// success. Nullopt (= go through the shard queue) on miss/stale/reject.
  std::optional<alloc::AllocationPlan> cached_decision(std::size_t a, double amount) const;
  /// Sparse residual re-certification of a cached plan against `snap`:
  /// draws within current entitlements, demand met, theta covers every
  /// capacity drop. O(nnz * n) with the vectorized kernels.
  bool recertify(const PlanCache::Entry& e, const CapacitySnapshot& snap) const;
  /// Map a shard-local plan back to full-system indices, overlaying the
  /// current snapshot for participants outside the shard.
  alloc::AllocationPlan globalize(const Shard& shard, alloc::AllocationPlan local) const;
  /// Federated globalize: strip the bank slot, attribute the bank draw to
  /// individual credits (greedy in id order -- deterministic, and exact
  /// because the local LP bounds the draw by the requester's earmark), fold
  /// the attributed amounts into the lenders' global draw entries, and
  /// record the per-credit spends in plan.borrowed.
  alloc::AllocationPlan federate(Shard& shard, alloc::AllocationPlan local,
                                 std::size_t a) const;
  /// Record a satisfied federated decision in the shard's gap-probe ring
  /// with its measured global perturbation (max capacity drop under that_).
  void sample_gap(Shard& shard, const alloc::AllocationPlan& plan, std::size_t a,
                  double amount) const;
  /// Run `make_op` for each selected shard, wait for every ShardView, merge
  /// the slices into a fresh snapshot and publish it (epoch + 1).
  void mutate(const std::vector<double>& global, Op::Kind kind);
  std::future<EngineResult> submit_unchecked(std::size_t a, double amount) const;
  void publish(std::vector<double> capacity, std::vector<double> available);

  agree::AgreementSystem sys_;
  /// Participant count, immutable after construction: the lock-free entry
  /// points (submit/consult argument checks, globalize) must not size
  /// sys_.capacity, whose buffer mutations rewrite under mutate_mu_.
  std::size_t n_ = 0;
  /// Set by shutdown() before the queues close: workers fail-fast any
  /// consult still queued instead of solving it.
  mutable std::atomic<bool> stopping_{false};
  EngineOptions opts_;
  Partition part_;
  std::vector<std::unique_ptr<Shard>> shards_;
  SnapshotCell cell_;
  /// Decision cache + the immutable matrices its re-certification needs:
  /// that_(k, i) is the capacity drop at i per unit drawn at k (retained_k on
  /// the diagonal, clamped transitive share K_ki off it) -- the same
  /// coefficients the compact LP's perturbation rows use.
  std::unique_ptr<PlanCache> pcache_;
  Matrix that_;
  /// Border-credit state machine; null unless the partition is federated
  /// AND produced at least one credit. Guarded by mutate_mu_ (settlement,
  /// consumption); construction happens before the workers start.
  std::unique_ptr<Federation> fed_;
  /// Exact full-system reference allocator for gap probes (certification
  /// off: it measures, it never admits). Guarded by mutate_mu_.
  mutable std::unique_ptr<alloc::Allocator> exact_;
  /// Gap telemetry published by settlement rounds (guarded by agg_mu_ so
  /// stats() never contends with a settlement in flight).
  FederationStats fed_stats_;
  std::uint64_t epoch_ = 0;          ///< guarded by mutate_mu_
  mutable std::mutex mutate_mu_;     ///< serializes mutations + publish
  mutable lp::PipelineStats agg_stats_;  ///< scratch for solver_stats()
  mutable std::mutex agg_mu_;
  // Cached registry handles (see obs/metrics.h).
  obs::Counter* obs_consults_ = nullptr;
  obs::Counter* obs_batches_ = nullptr;
  obs::Counter* obs_coalesced_batches_ = nullptr;
  obs::Counter* obs_coalesced_ops_ = nullptr;
  obs::Counter* obs_epochs_ = nullptr;
  obs::LogHistogram* obs_batch_size_ = nullptr;
  obs::Counter* obs_pc_hits_ = nullptr;
  obs::Counter* obs_pc_misses_ = nullptr;
  obs::Counter* obs_pc_stale_ = nullptr;
  obs::Counter* obs_pc_rejects_ = nullptr;
  obs::Counter* obs_pc_neg_hits_ = nullptr;
  obs::Counter* obs_pc_neg_rejects_ = nullptr;
  obs::Counter* obs_fed_settlements_ = nullptr;
  obs::Counter* obs_fed_gap_probes_ = nullptr;
  obs::Gauge* obs_fed_outstanding_ = nullptr;
  obs::Gauge* obs_fed_gap_rel_ = nullptr;
};

}  // namespace agora::engine
