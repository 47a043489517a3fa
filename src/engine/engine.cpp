#include "engine/engine.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "util/error.h"

namespace agora::engine {

namespace {

constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

/// The sub-economy a shard enforces: the agreement system restricted to its
/// members. Exact in connectivity mode -- every agreement edge touching a
/// member stays inside the member set (that is what a connected component
/// is), so no entitlement is lost in the restriction.
agree::AgreementSystem induce(const agree::AgreementSystem& sys,
                              const std::vector<std::size_t>& members) {
  const std::size_t m = members.size();
  agree::AgreementSystem sub(m);
  for (std::size_t l = 0; l < m; ++l) {
    sub.capacity[l] = sys.capacity[members[l]];
    sub.retained[l] = sys.retained[members[l]];
    for (std::size_t k = 0; k < m; ++k) {
      sub.relative(l, k) = sys.relative(members[l], members[k]);
      sub.absolute(l, k) = sys.absolute(members[l], members[k]);
    }
  }
  return sub;
}

}  // namespace

EnforcementEngine::EnforcementEngine(agree::AgreementSystem sys, EngineOptions opts)
    : sys_(std::move(sys)), n_(sys_.size()), opts_(std::move(opts)) {
  PartitionOptions popts;
  popts.shards = opts_.threads;
  popts.federated = opts_.federation.enabled;
  popts.balance_slack = opts_.federation.balance_slack;
  part_ = partition_participants(sys_, popts);

  obs_consults_ = &opts_.sink.counter("engine.consults");
  obs_batches_ = &opts_.sink.counter("engine.batches");
  obs_coalesced_batches_ = &opts_.sink.counter("engine.batches.coalesced");
  obs_coalesced_ops_ = &opts_.sink.counter("engine.requests.coalesced");
  obs_epochs_ = &opts_.sink.counter("engine.epochs");
  obs_batch_size_ = &opts_.sink.histogram("engine.batch.size");
  obs_pc_hits_ = &opts_.sink.counter("engine.plan_cache.hits");
  obs_pc_misses_ = &opts_.sink.counter("engine.plan_cache.misses");
  obs_pc_stale_ = &opts_.sink.counter("engine.plan_cache.stale");
  obs_pc_rejects_ = &opts_.sink.counter("engine.plan_cache.certify_rejects");
  obs_pc_neg_hits_ = &opts_.sink.counter("engine.plan_cache.neg_hits");
  obs_pc_neg_rejects_ = &opts_.sink.counter("engine.plan_cache.neg_rejects");
  obs_fed_settlements_ = &opts_.sink.counter("engine.federation.settlements");
  obs_fed_gap_probes_ = &opts_.sink.counter("engine.federation.gap_probes");
  obs_fed_outstanding_ = &opts_.sink.gauge("engine.federation.outstanding");
  obs_fed_gap_rel_ = &opts_.sink.gauge("engine.federation.gap_rel");

  if (opts_.plan_cache) {
    pcache_ = std::make_unique<PlanCache>(
        PlanCacheOptions{opts_.plan_cache_slots, /*probe_window=*/8});
  }
  if (opts_.plan_cache || part_.federated) {
    // The global perturbation coefficients: one row per drawn-on participant
    // k, that_(k, i) = capacity drop at i per unit drawn at k. Identical to
    // the compact LP's perturbation rows (clamped transitive shares off the
    // diagonal, retained share on it), and global in every sharding mode --
    // which is what makes it usable both for plan-cache re-certification and
    // for the federation's loan targets / gap probes.
    that_ = agree::overdraft_clamp(
        agree::transitive_shares(sys_.relative, opts_.alloc.transitive));
    for (std::size_t i = 0; i < n_; ++i) that_(i, i) = sys_.retained[i];
  }

  std::vector<Federation::ShardUpdate> fed_init;
  if (part_.federated) {
    fed_ = std::make_unique<Federation>(sys_, part_, that_, opts_.federation);
    if (!fed_->active()) {
      // The packing happened to cut no entitlement-carrying edges: this is
      // plain connectivity sharding, no credits or settlement needed.
      fed_.reset();
    } else {
      fed_init = fed_->settle(sys_.capacity);  // grant the initial loans
      if (opts_.federation.gap_probes > 0) {
        // Reference measurements, never admissions.
        exact_ = std::make_unique<alloc::Allocator>(sys_, opts_.alloc);
      }
    }
  }

  const std::size_t n = n_;
  shards_.reserve(part_.shards);
  for (std::size_t s = 0; s < part_.shards; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->id = s;
    shard->members = part_.members[s];
    shard->local_of.assign(n, kNpos);
    for (std::size_t l = 0; l < shard->members.size(); ++l)
      shard->local_of[shard->members[l]] = l;
    if (fed_) {
      shard->alloc = std::make_shared<alloc::Allocator>(
          fed_->local_system(s, sys_.capacity), opts_.alloc);
      shard->bank = fed_->bank_index(s);
      shard->credits = std::move(fed_init[s].credits);
    } else {
      shard->alloc = std::make_shared<alloc::Allocator>(
          part_.replicated ? sys_ : induce(sys_, shard->members), opts_.alloc);
    }
    shard->obs_queue_depth =
        &opts_.sink.gauge("engine.shard." + std::to_string(s) + ".queue_depth");
    shards_.push_back(std::move(shard));
  }

  // Construction-time snapshot (epoch 0), computed before the workers start
  // so the allocators can be read directly.
  std::vector<double> available(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const Shard& owner = *shards_[part_.shard_of[i]];
    available[i] = owner.alloc->available_to(owner.local_of[i]);
  }
  cell_.store(std::make_shared<const CapacitySnapshot>(
      CapacitySnapshot{0, sys_.capacity, std::move(available)}));

  for (auto& shard : shards_)
    shard->worker = std::thread([this, s = shard.get()] { worker_loop(*s); });
}

EnforcementEngine::~EnforcementEngine() { shutdown(); }

void EnforcementEngine::shutdown() {
  // Order matters: the flag goes up first, then the queues close. A worker
  // that drains after this sees stopping_ and fails its consults fast; a
  // submit() racing the close either enqueues (and is failed fast by the
  // worker) or loses to the closed queue (and gets a ready Unavailable
  // future from submit_unchecked). Either way the future resolves.
  stopping_.store(true, std::memory_order_release);
  for (auto& shard : shards_) shard->queue.close();
  for (auto& shard : shards_)
    if (shard->worker.joinable()) shard->worker.join();
}

void EnforcementEngine::worker_loop(Shard& shard) {
  std::vector<Op> batch;
  while (shard.queue.wait_drain(batch) > 0) {
    shard.batches.fetch_add(1, std::memory_order_relaxed);
    obs_batches_->inc();
    obs_batch_size_->observe(static_cast<double>(batch.size()));
    std::uint64_t prev = shard.max_batch.load(std::memory_order_relaxed);
    while (batch.size() > prev &&
           !shard.max_batch.compare_exchange_weak(prev, batch.size(),
                                                  std::memory_order_relaxed)) {
    }
    if (batch.size() > 1) {
      // Coalesced work. Serial blocking callers can never trigger this (the
      // worker drains their single op before they submit the next), which
      // keeps the threads=1 event stream byte-identical to the direct path.
      shard.coalesced_batches.fetch_add(1, std::memory_order_relaxed);
      shard.coalesced_ops.fetch_add(batch.size() - 1, std::memory_order_relaxed);
      obs_coalesced_batches_->inc();
      obs_coalesced_ops_->inc(batch.size() - 1);
      opts_.sink.event(static_cast<double>(shard.ordinal), obs::EventKind::EngineBatch,
                       static_cast<std::uint32_t>(shard.id), 0,
                       static_cast<double>(batch.size()));
    }
    for (Op& op : batch) {
      process(shard, op);
      ++shard.ordinal;
    }
  }
}

void EnforcementEngine::process(Shard& shard, Op& op) {
  switch (op.kind) {
    case Op::Kind::Consult: {
      if (stopping_.load(std::memory_order_acquire)) {
        // Fail-fast on shutdown: the blocked caller gets a Status instead
        // of waiting for an LP solve nobody can act on anymore. Mutations
        // and queries below still complete -- their callers hold acks that
        // must carry real state.
        op.result.set_value(EngineResult{Status::unavailable("engine is shut down"), {}});
        return;
      }
      shard.consults.fetch_add(1, std::memory_order_relaxed);
      obs_consults_->inc();
      EngineResult res;
      try {
        alloc::AllocationPlan local = shard.alloc->allocate(op.principal, op.amount);
        res.plan = fed_ ? federate(shard, std::move(local), op.global)
                        : globalize(shard, std::move(local));
        // The decision was made against this shard's post-mutation state,
        // which is exactly the epoch-muts_applied snapshot (see the field's
        // comment); stamp it so callers can assert freshness.
        res.plan.decision_epoch = shard.muts_applied;
        res.status = res.plan.to_status();
        if (fed_ && res.plan.satisfied() && opts_.federation.gap_probes > 0)
          sample_gap(shard, res.plan, op.global, op.amount);
        // Cache certified outcomes of BOTH polarities: grants for replay,
        // and Insufficient denials (certified infeasible via the Farkas
        // witness when the pipeline runs certify-on) so a requester
        // hammering an impossible amount stops costing an LP solve per
        // refusal. Denied / SolverFailed are give-ups, never cached.
        if (pcache_ && res.plan.certified &&
            (res.plan.status == alloc::PlanStatus::Satisfied ||
             res.plan.status == alloc::PlanStatus::Insufficient))
          pcache_->insert(shard.muts_applied, op.global, op.amount, res.plan);
      } catch (const std::exception& e) {
        res.plan = {};
        res.status = to_status(e);
      }
      op.result.set_value(std::move(res));
      return;
    }
    case Op::Kind::Apply:
    case Op::Kind::Release:
    case Op::Kind::SetCapacities: {
      // All mutations arrive pre-reduced to "replace this shard's capacity
      // slice" (mutate() folds draws / give-backs into the global vector
      // before fan-out), so the shard-level operation is always
      // set_capacities and replicas in hash mode stay identical. Federated
      // settlements that move the bank's earmarks additionally carry a
      // rebuilt local system (agreement matrices are immutable on a live
      // allocator) and the shard's new credit table.
      try {
        if (op.rebuild) {
          lp::accumulate(shard.carried, *shard.alloc->solver_stats());
          // atomic_store: stats() may be snapshotting the old allocator's
          // counters from another thread while we swap it out.
          std::atomic_store(&shard.alloc,
                            std::make_shared<alloc::Allocator>(*op.rebuild, opts_.alloc));
        } else {
          shard.alloc->set_capacities(std::span<const double>(op.vec));
        }
        if (fed_) shard.credits = std::move(op.credits);
        ++shard.muts_applied;
        ShardView view;
        view.capacity.assign(op.vec.begin(), op.vec.end());
        view.available.resize(shard.members.size());
        for (std::size_t l = 0; l < shard.members.size(); ++l)
          view.available[l] = shard.alloc->available_to(l);
        view.gaps = std::move(shard.gap_samples);
        shard.gap_samples.clear();
        shard.gap_next = 0;
        op.view.set_value(std::move(view));
      } catch (...) {
        op.view.set_exception(std::current_exception());
      }
      return;
    }
    case Op::Kind::Query: {
      ShardView view;
      view.pipeline = shard.carried;
      lp::accumulate(view.pipeline, *shard.alloc->solver_stats());
      op.view.set_value(std::move(view));
      return;
    }
  }
}

alloc::AllocationPlan EnforcementEngine::globalize(const Shard& shard,
                                                   alloc::AllocationPlan local) const {
  if (part_.replicated || shard.members.size() == n_) return local;
  const auto snap = cell_.load();
  alloc::AllocationPlan plan;
  plan.status = local.status;
  plan.theta = local.theta;
  plan.lp_iterations = local.lp_iterations;
  plan.certified = local.certified;
  plan.solver_fallbacks = local.solver_fallbacks;
  const auto overlay = [&](const std::vector<double>& loc, const std::vector<double>& base,
                           double fill) {
    std::vector<double> out;
    if (loc.empty()) return out;
    out = base.empty() ? std::vector<double>(n_, fill) : base;
    for (std::size_t l = 0; l < shard.members.size(); ++l) out[shard.members[l]] = loc[l];
    return out;
  };
  plan.draw = overlay(local.draw, {}, 0.0);
  // Non-member availabilities come from the published snapshot: this plan
  // cannot change them (zero cross-component entitlements).
  plan.capacity_before = overlay(local.capacity_before, snap->available, 0.0);
  plan.capacity_after = overlay(local.capacity_after, snap->available, 0.0);
  return plan;
}

alloc::AllocationPlan EnforcementEngine::federate(Shard& shard, alloc::AllocationPlan local,
                                                  std::size_t a) const {
  const std::size_t m = shard.members.size();
  double bank_draw = 0.0;
  if (shard.bank != kNpos && local.draw.size() > shard.bank)
    bank_draw = local.draw[shard.bank];
  const auto trim = [m](std::vector<double>& v) {
    if (v.size() > m) v.resize(m);
  };
  trim(local.draw);
  trim(local.capacity_before);
  trim(local.capacity_after);
  alloc::AllocationPlan plan = globalize(shard, std::move(local));
  if (bank_draw <= 0.0 || plan.draw.empty()) return plan;
  // Attribute the bank draw to individual credits greedily in id order:
  // deterministic, and exhaustive because the local LP bounds the draw by
  // the requester's earmark (the sum of its credit balances).
  double left = bank_draw;
  for (const CreditSlice& c : shard.credits) {
    if (c.borrower != a || left <= 0.0) continue;
    const double take = std::min(left, c.remaining);
    if (take <= 0.0) continue;
    plan.draw[c.lender] += take;
    plan.borrowed.push_back(alloc::BorrowedDraw{c.id, take});
    left -= take;
  }
  if (left > 0.0 && !plan.borrowed.empty()) {
    // Feasibility-tolerance residue past the earmark: fold it into the last
    // credit touched (CreditLedger::consume clamps within tolerance) so the
    // global draws still sum to the granted amount.
    alloc::BorrowedDraw& b = plan.borrowed.back();
    b.amount += left;
    for (const CreditSlice& c : shard.credits) {
      if (c.id != b.credit) continue;
      plan.draw[c.lender] += left;
      break;
    }
  }
  return plan;
}

void EnforcementEngine::sample_gap(Shard& shard, const alloc::AllocationPlan& plan,
                                   std::size_t a, double amount) const {
  // The plan's measured global perturbation: the worst capacity drop its
  // draw vector induces anywhere under the global coefficients -- what the
  // exact LP's theta is compared against at the next settlement.
  thread_local std::vector<double> drop;
  drop.assign(n_, 0.0);
  for (std::size_t k = 0; k < n_; ++k)
    if (plan.draw[k] != 0.0) vaxpy(plan.draw[k], that_.row(k), std::span<double>(drop));
  GapSample s;
  s.participant = a;
  s.amount = amount;
  s.theta_global = *std::max_element(drop.begin(), drop.end());
  const std::size_t cap = opts_.federation.gap_probes;
  if (shard.gap_samples.size() < cap)
    shard.gap_samples.push_back(s);
  else
    shard.gap_samples[shard.gap_next % cap] = s;
  ++shard.gap_next;
}

alloc::AllocationPlan EnforcementEngine::consult(std::size_t a, double amount) const {
  AGORA_REQUIRE(a < n_, "unknown principal");
  AGORA_REQUIRE(amount >= 0.0 && std::isfinite(amount), "request must be non-negative");
  if (pcache_ && !stopping_.load(std::memory_order_acquire)) {
    if (std::optional<alloc::AllocationPlan> hit = cached_decision(a, amount))
      return std::move(*hit);
  }
  EngineResult res = submit_unchecked(a, amount).get();
  switch (res.status.code()) {
    case StatusCode::Ok:
    case StatusCode::Insufficient:
    case StatusCode::Denied:
    case StatusCode::SolverFailed:
      return std::move(res.plan);
    case StatusCode::InvalidArgument:
    case StatusCode::Unavailable:
    case StatusCode::DeadlineExceeded:
      throw PreconditionError(res.status.to_string());
    case StatusCode::Internal:
    case StatusCode::Io:
      break;
  }
  throw InternalError(res.status.to_string());
}

std::future<EngineResult> EnforcementEngine::submit(std::size_t a, double amount) const {
  if (a >= n_ || amount < 0.0 || !std::isfinite(amount)) {
    std::promise<EngineResult> p;
    p.set_value(EngineResult{
        Status::invalid_argument(a >= n_ ? "unknown principal"
                                                  : "request must be non-negative"),
        {}});
    return p.get_future();
  }
  if (pcache_ && !stopping_.load(std::memory_order_acquire)) {
    if (std::optional<alloc::AllocationPlan> hit = cached_decision(a, amount)) {
      std::promise<EngineResult> p;
      EngineResult res;
      res.status = hit->to_status();
      res.plan = std::move(*hit);
      p.set_value(std::move(res));
      return p.get_future();
    }
  }
  return submit_unchecked(a, amount);
}

std::optional<alloc::AllocationPlan> EnforcementEngine::cached_decision(
    std::size_t a, double amount) const {
  const std::shared_ptr<const CapacitySnapshot> snap = cell_.load();
  PlanCache::LookupResult found = pcache_->lookup(snap->epoch, a, amount);
  switch (found.outcome) {
    case PlanCache::Outcome::Miss:
      obs_pc_misses_->inc();
      return std::nullopt;
    case PlanCache::Outcome::Stale:
      obs_pc_stale_->inc();
      return std::nullopt;
    case PlanCache::Outcome::Hit:
      break;
  }
  if (found.entry->negative()) {
    // Cached denial. The cheap re-check mirrors recertify()'s role for
    // grants: confirm infeasibility against the PUBLISHED snapshot (the
    // epoch compare may have raced a concurrent publish). Insufficient
    // means demand exceeds availability C_a, so the denial still holds iff
    // the amount is strictly beyond what the snapshot makes available.
    const double tol = opts_.alloc.solve.tols.feasibility;
    if (amount > snap->available[a] + tol * (1.0 + std::fabs(amount))) {
      obs_pc_neg_hits_->inc();
      obs_consults_->inc();
      return found.entry->plan;
    }
    // Availability caught up with the request: the denial is no longer
    // provable. Fall through to a fresh solve (which will overwrite the
    // entry with a grant if one exists).
    pcache_->note_certify_reject();
    obs_pc_neg_rejects_->inc();
    return std::nullopt;
  }
  if (!recertify(*found.entry, *snap)) {
    // The stored plan no longer proves admissible against the published
    // state (e.g. the snapshot moved between the epoch compare and here).
    // Never serve it -- fall through to a fresh certified solve.
    pcache_->note_certify_reject();
    obs_pc_rejects_->inc();
    return std::nullopt;
  }
  obs_pc_hits_->inc();
  obs_consults_->inc();
  return found.entry->plan;
}

bool EnforcementEngine::recertify(const PlanCache::Entry& e,
                                  const CapacitySnapshot& snap) const {
  // Residual admission check, the engine-level mirror of
  // lp::Verifier::certify_admission run against SNAPSHOT data instead of a
  // Problem object: every nonzero draw within the drawer's current
  // entitlement to `a`, demand met exactly, theta covering the capacity
  // drop it induces anywhere. O(nnz) bound checks + O(nnz * n) drop
  // accumulation on the vectorized kernels.
  const double tol = opts_.alloc.solve.tols.feasibility;
  const std::size_t a = e.participant;
  thread_local std::vector<double> drop;
  drop.assign(n_, 0.0);
  double total = 0.0;
  for (const std::uint32_t k : e.nz) {
    const double d = e.plan.draw[k];
    const double vk = snap.capacity[k];
    const double bound = k == a ? sys_.retained[a] * vk
                                : std::min(vk * that_(k, a) + sys_.absolute(k, a), vk);
    if (d > bound + tol * (1.0 + bound)) return false;
    vaxpy(d, that_.row(k), std::span<double>(drop));
    total += d;
  }
  if (std::fabs(total - e.amount) > tol * (1.0 + std::fabs(e.amount))) return false;
  const double theta_cap = e.plan.theta + tol * (1.0 + e.plan.theta);
  for (std::size_t i = 0; i < n_; ++i)
    if (drop[i] > theta_cap) return false;
  return true;
}

std::future<EngineResult> EnforcementEngine::submit_unchecked(std::size_t a,
                                                              double amount) const {
  Shard& shard = *shards_[part_.shard_of[a]];
  Op op;
  op.kind = Op::Kind::Consult;
  op.principal = shard.local_of[a];
  op.global = a;
  op.amount = amount;
  std::future<EngineResult> fut = op.result.get_future();
  if (!shard.queue.push(std::move(op))) {
    // The op (and the promise backing `fut`) was dropped by the closed
    // queue; hand back a ready future instead of a broken one.
    std::promise<EngineResult> p;
    p.set_value(EngineResult{Status::unavailable("engine is shut down"), {}});
    return p.get_future();
  }
  shard.obs_queue_depth->set(static_cast<double>(shard.queue.size_approx()));
  return fut;
}

double EnforcementEngine::available_to(std::size_t a) const {
  AGORA_REQUIRE(a < n_, "unknown principal");
  return cell_.load()->available[a];
}

void EnforcementEngine::apply(const alloc::AllocationPlan& plan) {
  AGORA_REQUIRE(plan.satisfied(), "cannot apply an unsatisfied plan");
  AGORA_REQUIRE(plan.draw.size() == n_, "plan size mismatch");
  std::lock_guard<std::mutex> lock(mutate_mu_);
  // Spend the plan's border credits first: this is the double-spend guard --
  // a stale federated plan whose loans were already consumed (or revoked by
  // a later settlement) throws here instead of drawing lender capacity the
  // ledger no longer backs.
  if (fed_ && !plan.borrowed.empty())
    fed_->consume(plan.borrowed, opts_.alloc.solve.tols.feasibility);
  std::vector<double> next = sys_.capacity;
  for (std::size_t i = 0; i < next.size(); ++i) {
    AGORA_REQUIRE(plan.draw[i] <= next[i] + 1e-7, "plan draws more than a principal owns");
    next[i] = std::max(0.0, next[i] - plan.draw[i]);
  }
  mutate(next, Op::Kind::Apply);
}

void EnforcementEngine::release(const std::vector<double>& give_back) {
  AGORA_REQUIRE(give_back.size() == n_, "release size mismatch");
  std::lock_guard<std::mutex> lock(mutate_mu_);
  std::vector<double> next = sys_.capacity;
  for (std::size_t i = 0; i < next.size(); ++i) {
    AGORA_REQUIRE(give_back[i] >= 0.0, "release must be non-negative");
    next[i] += give_back[i];
  }
  mutate(next, Op::Kind::Release);
}

void EnforcementEngine::set_capacities(std::span<const double> v) {
  AGORA_REQUIRE(v.size() == n_, "capacity vector size mismatch");
  for (double x : v) AGORA_REQUIRE(x >= 0.0 && std::isfinite(x), "capacities must be >= 0");
  std::lock_guard<std::mutex> lock(mutate_mu_);
  mutate(std::vector<double>(v.begin(), v.end()), Op::Kind::SetCapacities);
}

void EnforcementEngine::mutate(const std::vector<double>& global, Op::Kind kind) {
  // Caller holds mutate_mu_. Fan the new capacity vector out to every shard
  // (each applies its slice in queue order, behind any consults already
  // submitted), then merge the acknowledged availability slices and publish
  // the next snapshot epoch. Blocking here is what makes a returned
  // apply()/release()/set_capacities() visible to every later consult.
  //
  // Federated engines run a settlement round first: the ledger re-plans
  // every loan toward its policy target at the new capacities, and each
  // shard's op carries its settled local slice (capacity including the bank
  // slot, a rebuilt system when earmarks moved, the new credit table)
  // instead of a bare member slice.
  std::vector<Federation::ShardUpdate> settled;
  if (fed_) settled = fed_->settle(global);
  std::vector<std::future<ShardView>> acks;
  acks.reserve(shards_.size());
  for (auto& shard : shards_) {
    Op op;
    op.kind = kind;
    if (fed_) {
      Federation::ShardUpdate& u = settled[shard->id];
      op.vec = std::move(u.capacity);
      op.rebuild = std::move(u.rebuild);
      op.credits = std::move(u.credits);
    } else {
      op.vec.resize(shard->members.size());
      for (std::size_t l = 0; l < shard->members.size(); ++l)
        op.vec[l] = global[shard->members[l]];
    }
    acks.push_back(op.view.get_future());
    const bool pushed = shard->queue.push(std::move(op));
    AGORA_INVARIANT(pushed, "mutation submitted to a shut-down engine");
  }
  std::vector<double> available(n_, 0.0);
  std::vector<GapSample> gaps;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    ShardView view = acks[s].get();  // rethrows shard-side failures
    for (std::size_t l = 0; l < shards_[s]->members.size(); ++l) {
      const std::size_t g = shards_[s]->members[l];
      if (part_.shard_of[g] == s) available[g] = view.available[l];
    }
    gaps.insert(gaps.end(), view.gaps.begin(), view.gaps.end());
  }
  if (exact_) {
    // Measure the optimality gap for the epoch's sampled decisions while
    // the reference allocator still holds the PRE-mutation capacities those
    // decisions were made against.
    for (const GapSample& g : gaps) {
      const alloc::AllocationPlan ref = exact_->allocate(g.participant, g.amount);
      if (!ref.satisfied()) continue;
      const double gap_abs = std::max(0.0, g.theta_global - ref.theta);
      const double gap_rel = gap_abs / std::max(ref.theta, 1.0);
      {
        std::lock_guard<std::mutex> glock(agg_mu_);
        ++fed_stats_.gap_probes;
        fed_stats_.last_gap_abs = gap_abs;
        fed_stats_.last_gap_rel = gap_rel;
        fed_stats_.max_gap_rel = std::max(fed_stats_.max_gap_rel, gap_rel);
      }
      obs_fed_gap_probes_->inc();
      obs_fed_gap_rel_->set(gap_rel);
    }
    exact_->set_capacities(std::span<const double>(global));
  }
  if (fed_) {
    obs_fed_settlements_->inc();
    obs_fed_outstanding_->set(fed_->ledger().totals().outstanding);
  }
  sys_.capacity = global;
  publish(global, std::move(available));
}

void EnforcementEngine::settle() {
  std::lock_guard<std::mutex> lock(mutate_mu_);
  mutate(sys_.capacity, Op::Kind::SetCapacities);
}

void EnforcementEngine::publish(std::vector<double> capacity, std::vector<double> available) {
  ++epoch_;
  cell_.store(std::make_shared<const CapacitySnapshot>(
      CapacitySnapshot{epoch_, std::move(capacity), std::move(available)}));
  obs_epochs_->inc();
}

const lp::PipelineStats* EnforcementEngine::solver_stats() const {
  std::vector<std::future<ShardView>> acks;
  acks.reserve(shards_.size());
  for (auto& shard : shards_) {
    Op op;
    op.kind = Op::Kind::Query;
    acks.push_back(op.view.get_future());
    if (!shard->queue.push(std::move(op))) return nullptr;  // shutting down
  }
  lp::PipelineStats agg;
  for (auto& f : acks) lp::accumulate(agg, f.get().pipeline);
  std::lock_guard<std::mutex> lock(agg_mu_);
  agg_stats_ = agg;
  return &agg_stats_;
}

std::size_t EnforcementEngine::shard_of(std::size_t participant) const {
  AGORA_REQUIRE(participant < n_, "unknown principal");
  return part_.shard_of[participant];
}

void EnforcementEngine::drain() const {
  std::vector<std::future<ShardView>> acks;
  acks.reserve(shards_.size());
  for (auto& shard : shards_) {
    Op op;
    op.kind = Op::Kind::Query;
    acks.push_back(op.view.get_future());
    if (!shard->queue.push(std::move(op))) acks.pop_back();  // already drained by close()
  }
  for (auto& f : acks) f.get();
}

EngineStats EnforcementEngine::stats() const {
  EngineStats out;
  out.shards = shards_.size();
  out.replicated = part_.replicated;
  out.federated = fed_ != nullptr;
  out.components = part_.components;
  out.epoch = cell_.load()->epoch;
  if (fed_) {
    {
      std::lock_guard<std::mutex> glock(agg_mu_);
      out.federation = fed_stats_;
    }
    // Ledger reads synchronize with settlements/consumption via mutate_mu_.
    std::lock_guard<std::mutex> mlock(mutate_mu_);
    out.federation.active = true;
    out.federation.credits = fed_->ledger().size();
    out.federation.settlements = fed_->settlements();
    const CreditLedger::Totals t = fed_->ledger().totals();
    out.federation.granted = t.granted;
    out.federation.consumed = t.consumed;
    out.federation.revoked = t.revoked;
    out.federation.outstanding = t.outstanding;
  }
  out.shard.reserve(shards_.size());
  for (const auto& shard : shards_) {
    ShardStats s;
    s.participants = shard->members.size();
    s.consults = shard->consults.load(std::memory_order_relaxed);
    s.batches = shard->batches.load(std::memory_order_relaxed);
    s.coalesced_batches = shard->coalesced_batches.load(std::memory_order_relaxed);
    s.coalesced_ops = shard->coalesced_ops.load(std::memory_order_relaxed);
    s.max_batch = shard->max_batch.load(std::memory_order_relaxed);
    s.queue_depth = shard->queue.size();
    out.shard.push_back(s);
  }
  if (pcache_) out.plan_cache = pcache_->stats();
  return out;
}

}  // namespace agora::engine
