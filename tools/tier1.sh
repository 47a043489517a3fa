#!/usr/bin/env bash
# Tier-1 verification: configure, build, run the full test suite, then
# rebuild the rms/chaos-sensitive and simulator tests under ASan+UBSan and
# run them.
# Usage: tools/tier1.sh   (from the repository root)
set -euo pipefail

cd "$(dirname "$0")/.."

cmake -B build -S .
cmake --build build -j
# Fast tier-1 lane: the long-running stress/soak/figure/chaos suites carry
# tier2-* labels and run selectively (`ctest -L tier2-stress` etc.) or via
# the sanitizer passes below. Plain `ctest` still runs everything.
(cd build && ctest --output-on-failure -j -LE '^tier2-')

# Sanitizer pass over the message-layer tests (the fault-injection code
# paths -- drops, duplicate frees of envelopes, restart handlers -- are the
# ones most likely to hide lifetime bugs), the replicated-GRM suites
# (rms_replica_test plus the tier2-chaos failover suite, whose crash/
# partition/loss scenarios churn raft timers and snapshots) and the LP
# certification, adversarial, sparse-basis and workspace-reuse suites
# (ill-conditioned pivoting, one workspace reused across changing problem
# shapes, and the sparse LU's bucketed pivot search / eta-file replay --
# index-heavy code where out-of-bounds reads and UB would hide), plus the
# allocator property sweep (every random system's consults, and the
# paper-exact oracle programs beside them, through the certified solve). The sanitizer
# build compiles with -ffp-contract=off so its floating-point results match
# the tier-1 build bit for bit.
cmake -B build-asan -S . -DAGORA_SANITIZE=ON
cmake --build build-asan -j --target rms_test rms_chaos_test rms_replica_test \
  rms_failover_test fuzz_test lp_certify_test lp_adversarial_test lp_sparse_test \
  lp_workspace_test alloc_property_test engine_cache_test history_independence_test support_model_test \
  engine_federation_test credit_conservation_test federation_chaos_test \
  net_frame_test net_service_test net_soak_test proxysim_test latency_test
./build-asan/tests/rms_test
./build-asan/tests/rms_chaos_test
./build-asan/tests/rms_replica_test
./build-asan/tests/rms_failover_test
./build-asan/tests/fuzz_test
./build-asan/tests/lp_certify_test
./build-asan/tests/lp_adversarial_test
./build-asan/tests/lp_sparse_test
./build-asan/tests/lp_workspace_test
./build-asan/tests/alloc_property_test
./build-asan/tests/engine_cache_test
# Plans are a pure function of (snapshot, request): allocators with
# different consult/commit/release histories, and a snapshot-restored GRM
# replica, must decide bit-identically.
./build-asan/tests/history_independence_test
# Every relaxed compact consult poses the requester's support model: its
# plans must match the full compact model's (bit for bit on a full
# support). lp_sparse_test above carries the Bland stable-pivot guard on the
# full 500-site ring model.
./build-asan/tests/support_model_test
# Federation suites under ASan/UBSan: the credit ledger's settle/consume
# arithmetic, the border-bank allocator rebuilds, and the chaos harness's
# envelope lifetimes are the new lifetime-sensitive surface.
./build-asan/tests/engine_federation_test
./build-asan/tests/credit_conservation_test
./build-asan/tests/federation_chaos_test
# Wire boundary under ASan/UBSan: the frame-decoder fuzz corpus (bit flips,
# truncations, version skew -- exactly where over-reads would hide), the
# live loopback service suite (partial I/O, drain, malformed peers), and
# the tier2 soak with its crash/restart window.
./build-asan/tests/net_frame_test
./build-asan/tests/net_service_test
./build-asan/tests/net_soak_test
# The proxy simulator under ASan/UBSan: the event loop indexes each proxy's
# trace through a cursor merged against the completion/decision heap, and
# delayed decisions carry their per-proxy budgets through that heap.
./build-asan/tests/proxysim_test
./build-asan/tests/latency_test

# ThreadSanitizer pass over the deliberately multithreaded code: the
# concurrent observability substrate (metrics registry, lock-free EventRing
# and its multithreaded hammer test), the sharded enforcement engine (shard
# workers, MPSC queues, snapshot publication -- engine_test pins the serial
# semantics, engine_stress_test hammers it with producer/mutator threads and
# runs the GRM-on-engine chaos scenarios), and the rms chaos suite, whose
# fault-injection paths exercise the bus under the heaviest event/metric
# traffic. engine_cache_test joins both passes: the plan cache's lock-free
# slots (atomic shared_ptr loads racing in-place overwrites) and the
# caller-thread hit path racing capacity mutations are exactly the code
# TSan is for, and the hammer test drives them hard.
cmake -B build-tsan -S . -DAGORA_TSAN=ON
cmake --build build-tsan -j --target obs_test rms_chaos_test rms_failover_test \
  engine_test engine_stress_test engine_cache_test engine_federation_test \
  federation_chaos_test net_service_test history_independence_test support_model_test \
  lp_sparse_test
./build-tsan/tests/obs_test
./build-tsan/tests/rms_chaos_test
./build-tsan/tests/rms_failover_test
./build-tsan/tests/engine_test
./build-tsan/tests/engine_stress_test
./build-tsan/tests/engine_cache_test
# Federated engine under TSan: worker threads consult against border banks
# while mutators settle credits and swap shard allocators -- exactly the new
# cross-thread handoff (ops carrying rebuilds/credit tables, gap rings
# drained through acks) this pass is for.
./build-tsan/tests/engine_federation_test
./build-tsan/tests/federation_chaos_test
# net_service_test joins the TSan pass: the poll-loop thread's connection
# state races client threads, the engine's shard workers and (in the
# overload test) the backend pump held behind a gate, through the admission
# queue, in-flight futures, and the atomic stats cells.
./build-tsan/tests/net_service_test
# The history-independence suite joins the TSan pass with its ASan twin:
# it is single-threaded, but it pins the property the plan cache and the
# replicated shards above depend on.
./build-tsan/tests/history_independence_test
# The support-model equivalence suite and the Bland stable-pivot guard join
# their ASan twins: both pin what every consult the threaded engines run
# above poses and solves.
./build-tsan/tests/support_model_test
./build-tsan/tests/lp_sparse_test --gtest_filter='BlandPivots.*'

echo "tier1: all green"
echo "tier1: LP perf numbers (BENCH_lp.json) are produced by tools/bench.sh"
