// engine.h -- the sharded, thread-safe enforcement engine fronting all
// admission traffic (DESIGN.md §11).
//
// The paper evaluates enforcement with ten proxies consulting one allocator
// serially; production traffic needs admission decisions computed locally
// and in parallel. EnforcementEngine partitions participants into shards
// (by agreement-graph connectivity; a single component is hash-routed over
// full-system replicas -- see partition.h); each
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
//   * Decisions never depend on the shard count: a connectivity shard's
//     local LP equals the global one restricted to its components, and a
//     replica solves the global LP itself. Every threads setting answers
//     the paper's global min-theta program.
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

struct EngineStats {
  std::size_t shards = 0;
  bool replicated = false;
  std::size_t components = 0;
  std::uint64_t epoch = 0;
  std::vector<ShardStats> shard;
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

  // --- Introspection ------------------------------------------------------
  std::size_t num_shards() const { return shards_.size(); }
  bool replicated() const { return part_.replicated; }
  std::size_t num_components() const { return part_.components; }
  std::size_t shard_of(std::size_t participant) const;
  /// Barrier: block until every operation submitted before this call has
  /// been processed by its shard.
  void drain() const;
  EngineStats stats() const;

 private:
  /// What a mutation op hands back: the shard's post-mutation availability,
  /// in shard-local index order (full-length when replicated). Query ops
  /// reuse the struct for pipeline stats.
  struct ShardView {
    std::vector<double> available;
    lp::PipelineStats pipeline;
  };

  struct Op {
    enum class Kind { Consult, Apply, Release, SetCapacities, Query };
    Kind kind = Kind::Query;
    std::size_t principal = 0;  ///< shard-local index (Consult)
    std::size_t global = 0;     ///< global participant id (Consult; cache key)
    double amount = 0.0;
    std::vector<double> vec;    ///< shard-local slice (mutations)
    std::promise<EngineResult> result;  ///< Consult
    std::promise<ShardView> view;       ///< mutations + Query
  };

  struct Shard {
    std::size_t id = 0;
    std::vector<std::size_t> members;     ///< global ids, ascending
    std::vector<std::size_t> local_of;    ///< global id -> local index (or npos)
    /// Worker-owned allocator; other threads reach its counters only
    /// through Query ops on this shard's queue.
    std::unique_ptr<alloc::Allocator> alloc;
    BlockingQueue<Op> queue;
    std::thread worker;
    std::uint64_t ordinal = 0;  ///< ops processed (worker-only; event time)
    /// Mutations applied on this shard (worker-only). Every mutate() fans one
    /// op to every shard and publishes epoch+1, so after this worker applies
    /// its m-th mutation its allocator state equals the global epoch-m
    /// snapshot restricted to its members -- making this the correct epoch
    /// key for decisions it computes from here on.
    std::uint64_t muts_applied = 0;
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
  /// Send each shard its slice of `global`, wait for every ShardView, merge
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
  /// Decision cache + the immutable matrix its re-certification needs
  /// (built only when the cache is on): that_(k, i) is the capacity drop at
  /// i per unit drawn at k (retained_k on the diagonal, clamped transitive
  /// share K_ki off it) -- the same coefficients the compact LP's
  /// perturbation rows use.
  std::unique_ptr<PlanCache> pcache_;
  Matrix that_;
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
};

}  // namespace agora::engine
