#!/usr/bin/env python3
"""Merge the enforcement-engine bench fragments into BENCH_engine.json.

Usage: bench_engine_json.py <scale_shards.json> <scale_hotpath.json> <out.json>

scale_shards (shard-count sweep) and scale_hotpath (plan-cache sweep,
DESIGN.md section 13) each write a standalone JSON fragment; this
script nests them under a schema-versioned top level so the repo tracks one
engine bench file. Only the Python standard library is used.

The acceptance gates are re-checked here so a bad merge can't slip into the
tracked file:
  * hot path: certified_grant_pct must be 100 and the cache speedup over
    the baseline phase must be >= 10x;
  * islands sweep: every point's median p99 is within the recorded bound;
  * single component: every point is 100% certified, and every threads>1
    point reports replicated with shards == threads (a connected economy
    always takes the exact replicated path, and no shard count shrinks
    silently).
"""

import json
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def main(argv):
    if len(argv) != 4:
        raise SystemExit(__doc__)
    shards = load(argv[1])
    hotpath = load(argv[2])

    if hotpath.get("certified_grant_pct") != 100.0:
        raise SystemExit("hotpath sweep reports uncertified grants")
    speedup = hotpath.get("speedup_cache_vs_baseline", 0.0)
    if speedup < 10.0:
        raise SystemExit(f"hotpath cache speedup {speedup:.1f}x below the 10x acceptance bound")

    for pt in shards.get("sweep", []):
        if not pt.get("p99_within_bound"):
            raise SystemExit(
                f"islands point threads={pt.get('threads')}: median p99 "
                f"{pt.get('p99_us')} us over the {shards.get('p99_bound_us')} us bound")

    single = shards.get("single_component")
    if not single or not single.get("sweep"):
        raise SystemExit("scale_shards fragment lacks the single_component sweep")
    for pt in single["sweep"]:
        threads = pt.get("threads", 1)
        where = f"single_component point threads={threads}"
        if pt.get("certified_grant_pct") != 100.0:
            raise SystemExit(f"{where}: uncertified grants")
        if threads > 1 and (not pt.get("replicated") or pt.get("shards") != threads):
            raise SystemExit(
                f"{where}: expected {threads} replicated shards, got "
                f"shards={pt.get('shards')} replicated={pt.get('replicated')}")

    doc = {
        "schema": "agora-bench-engine/5",
        "scale_shards": shards,
        "scale_hotpath": hotpath,
    }
    with open(argv[3], "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    print(f"wrote {argv[3]}")


if __name__ == "__main__":
    main(sys.argv)
