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
  * federation: on the single-component sweep, federated@8-shards
    must beat federated@1-shard by >= 3x with NO full-replica fallback
    (federated true, replicated false at every threads>1 point), every
    grant certified, and a finite measured optimality gap recorded.
"""

import json
import math
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

    single = shards.get("single_component")
    if not single:
        raise SystemExit("scale_shards fragment lacks the single_component sweep")
    fed_speedup = single.get("speedup_fed_8_vs_1", 0.0)
    if fed_speedup < 3.0:
        raise SystemExit(
            f"federated 8-vs-1 shard speedup {fed_speedup:.2f}x below the 3x acceptance bound")
    gap_seen = False
    for pt in single.get("sweep", []):
        where = f"single_component point threads={pt.get('threads')} fed={pt.get('federated_requested')}"
        if pt.get("certified_grant_pct") != 100.0:
            raise SystemExit(f"{where}: uncertified grants")
        if pt.get("federated_requested") and pt.get("threads", 1) > 1:
            if pt.get("replicated") or not pt.get("federated"):
                raise SystemExit(f"{where}: fell back to full replicas")
            gap = pt.get("gap_max_rel")
            if not isinstance(gap, (int, float)) or not math.isfinite(gap) or gap < 0.0:
                raise SystemExit(f"{where}: no measured optimality gap recorded")
            gap_seen = True
    if not gap_seen:
        raise SystemExit("single_component sweep recorded no federated optimality gap")

    doc = {
        "schema": "agora-bench-engine/4",
        "scale_shards": shards,
        "scale_hotpath": hotpath,
    }
    with open(argv[3], "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    print(f"wrote {argv[3]}")


if __name__ == "__main__":
    main(sys.argv)
