#!/usr/bin/env python3
"""Merge google-benchmark JSON output from micro_lp and micro_certify into
the compact BENCH_lp.json the repo tracks (see tools/bench.sh).

Usage: bench_lp_json.py <build_type> <micro_lp.json> <lpscale_summary.txt> \
                        <micro_certify.json> <certify_summary.txt> <out.json>

Only the Python standard library is used. <build_type> is the CMake build
type the benchmarks were compiled with (Google Benchmark's own context only
knows its library's build type). For every benchmark we keep the iteration
count, ns/solve (real time) and -- where the benchmark reports it --
allocations and LP pivots per solve. micro_lp's LPSCALE sweep lines (one
per n x model configuration, plus the closing support_over_full_n100 line)
are parsed into a "scaling" block, and the micro_certify line (CERTIFY
overhead_pct=... certified_solves=... fallbacks=... uncertified_grants=...
solve_seconds=... certify_seconds=...) into a "certify" block, so all
acceptance metrics are recorded alongside the timings. The gates are
re-checked here so a bad run cannot slip into the tracked file: every
scaling point certified, support/full consults/s >= 10x at n = 100, and
certification overhead <= 10% of the solve time it checks.
"""

import json
import re
import sys


def load_benchmarks(path):
    with open(path) as f:
        doc = json.load(f)
    out = []
    for b in doc.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        entry = {
            "name": b["name"],
            "iterations": b.get("iterations", 0),
            "ns_per_solve": round(float(b.get("real_time", 0.0)), 2),
        }
        for counter in ("allocs_per_solve", "lp_iters_per_solve"):
            if counter in b:
                entry[counter] = round(float(b[counter]), 3)
        out.append(entry)
    return out, doc.get("context", {})


def parse_lpscale(path):
    with open(path) as f:
        text = f.read()
    points = []
    for m in re.finditer(
        r"LPSCALE n=(\d+) model=(\S+) certified=(\d)"
        r" consults_per_s=(\S+) iterations=(\d+) basis_nnz=(\d+) lu_nnz=(\d+)"
        r" fill_ratio=(\S+) refactorizations=(\d+) max_eta=(\d+)",
        text,
    ):
        points.append(
            {
                "n": int(m.group(1)),
                "model": m.group(2),
                "certified": bool(int(m.group(3))),
                "consults_per_s": float(m.group(4)),
                "iterations": int(m.group(5)),
                "basis_nnz": int(m.group(6)),
                "lu_nnz": int(m.group(7)),
                "fill_ratio": float(m.group(8)),
                "refactorizations": int(m.group(9)),
                "max_eta": int(m.group(10)),
            }
        )
    ratio = re.search(r"LPSCALE support_over_full_n100=(\S+)", text)
    if not points or not ratio:
        raise SystemExit(f"no LPSCALE sweep lines found in {path}")
    for p in points:
        if not p["certified"]:
            raise SystemExit(f"LPSCALE n={p['n']} model={p['model']} did not certify")
    support_over_full = float(ratio.group(1))
    if support_over_full < 10.0:
        raise SystemExit(
            f"support/full consults/s at n=100 is {support_over_full:.2f}x (< 10x)")
    return {"points": points, "support_over_full_n100": support_over_full}


def parse_certify(path):
    with open(path) as f:
        text = f.read()
    m = re.search(
        r"CERTIFY overhead_pct=(\S+) certified_solves=(\d+)"
        r" fallbacks=(\d+) uncertified_grants=(\d+)"
        r" solve_seconds=(\S+) certify_seconds=(\S+)",
        text,
    )
    if not m:
        raise SystemExit(f"no CERTIFY summary line found in {path}")
    out = {
        "certify_overhead_pct": float(m.group(1)),
        "certified_solves": int(m.group(2)),
        "fallbacks": int(m.group(3)),
        "uncertified_grants": int(m.group(4)),
        "solve_seconds": float(m.group(5)),
        "certify_seconds": float(m.group(6)),
    }
    if out["uncertified_grants"] != 0:
        raise SystemExit("micro_certify recorded uncertified grants")
    if out["certify_overhead_pct"] > 10.0:
        raise SystemExit(
            f"certification overhead {out['certify_overhead_pct']:.2f}% exceeds 10%")
    return out


def main(argv):
    if len(argv) != 7:
        raise SystemExit(__doc__)
    lp_benches, context = load_benchmarks(argv[2])
    certify_benches, _ = load_benchmarks(argv[4])
    doc = {
        "schema": "agora-bench-lp/7",
        "build_type": argv[1],
        "num_cpus": context.get("num_cpus", 0),
        "benchmarks": lp_benches + certify_benches,
        "scaling": parse_lpscale(argv[3]),
        "certify": parse_certify(argv[5]),
    }
    with open(argv[6], "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    print(f"wrote {argv[6]}")


if __name__ == "__main__":
    main(sys.argv)
