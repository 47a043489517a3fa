#!/usr/bin/env bash
# LP solver benchmark harness: builds micro_lp and micro_certify in Release,
# runs them, and merges the results into BENCH_lp.json at the repo root
# (iterations, ns/solve, allocs/solve, the full-vs-support LPSCALE sweep
# from micro_lp, and the certification overhead micro_certify reads from
# the solve pipeline's own timings), stamped with the build type configured
# here.
# Usage: tools/bench.sh   (from the repository root)
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD=build-release
BUILD_TYPE=Release
OUT=bench_results
mkdir -p "${OUT}"

cmake -B "${BUILD}" -S . -DCMAKE_BUILD_TYPE="${BUILD_TYPE}"
cmake --build "${BUILD}" -j --target micro_lp micro_certify scale_shards \
  scale_hotpath chaos_failover wire_loopback

# micro_lp runs the LPSCALE scaling sweep (n in {100, 500, 1000}, full model
# vs the allocator's support model) before its benchmark table and exits
# non-zero if any configuration fails to solve+certify or the support model
# misses the >=10x consults/s bound over the full model at n = 100 -- set -e
# makes that the release gate here.
"./${BUILD}/bench/micro_lp" \
  --benchmark_out="${OUT}/micro_lp.json" --benchmark_out_format=json \
  | tee "${OUT}/lpscale_summary.txt"
# micro_certify prints its CERTIFY line (certification time over solve time,
# both timed inside the same consults, zero-uncertified-grants invariant)
# before its benchmark table, and exits non-zero above 10% overhead or when
# the timings were not recorded; keep the line for the merge.
"./${BUILD}/bench/micro_certify" \
  --benchmark_out="${OUT}/micro_certify.json" --benchmark_out_format=json \
  | tee "${OUT}/certify_summary.txt"

python3 tools/bench_lp_json.py "${BUILD_TYPE}" \
  "${OUT}/micro_lp.json" "${OUT}/lpscale_summary.txt" \
  "${OUT}/micro_certify.json" "${OUT}/certify_summary.txt" BENCH_lp.json

echo "bench: BENCH_lp.json written"

# Enforcement-engine sweeps: the shard-count sweep over the 8-island
# economy (1/2/4/8 worker shards, consults/sec + p50/p99 consult latency
# with a recorded p99 regression bound), its single-component sweep over the
# ring-bridged economy (the exact one-shard point, then replicated shards at
# 2/4/8 threads), each point the median and IQR of interleaved runs, and the
# admission hot-path sweep (baseline vs plan-cache on a Zipf s=1.1 request
# mix; cache hit-rate, 100%-certified-grants gate). The merge script nests
# the fragments under the schema-versioned BENCH_engine.json and enforces
# the >=10x cache-speedup bound, the median-p99 bound, 100% certified grants
# on the single component, and replicated shards == threads at threads > 1.
"./${BUILD}/bench/scale_shards" "${OUT}/scale_shards.json"
"./${BUILD}/bench/scale_hotpath" "${OUT}/scale_hotpath.json"
python3 tools/bench_engine_json.py \
  "${OUT}/scale_shards.json" "${OUT}/scale_hotpath.json" BENCH_engine.json

echo "bench: BENCH_engine.json written"

# Replicated-GRM failover: post-crash unavailability swept over raft seeds
# (acceptance bound: a few election timeouts) and the 1-vs-3-replica message
# amplification / latency overhead, all in deterministic bus virtual time.
# The binary exits non-zero if the bound is exceeded or replicas diverge.
"./${BUILD}/bench/chaos_failover" BENCH_rms.json

echo "bench: BENCH_rms.json written"

# Wire boundary: sustainable-rate calibration, 2x-overload shed behavior
# (explicit unavailable + retry-after, bounded p99 for the accepted
# consults), and graceful drain under live senders, all over loopback.
# The binary exits non-zero if an acceptance bound is violated.
"./${BUILD}/bench/wire_loopback" BENCH_net.json

echo "bench: BENCH_net.json written"
