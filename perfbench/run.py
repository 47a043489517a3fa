#!/usr/bin/env python3
"""Build and run the agora end-to-end benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload serve_zipf --seed 1 --seconds 20 --trace 0

Builds perfbench/ (which compiles the checkout's own libraries) into the
directory named by $CARGO_TARGET_DIR, default .bench_build, then runs one
workload. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it give the
provenance of the run and every metric by name with its unit. With --trace 1
the per-layer metrics are reported and the spans are written to
<build dir>/spans-<workload>.csv. Exits non-zero, without a result line, if
the build fails, and non-zero with correct=false if a correctness gate fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys
import time

WORKLOADS = ("serve_zipf", "commit_onecomp", "case_study_day")
RUN_TIMEOUT_S = 170
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
# Sources whose digest identifies the code under test (the checkout is not
# necessarily a git repository).
DIGEST_ROOTS = ("CMakeLists.txt", "src", "include", "bench", os.path.basename(BENCH_DIR))


def source_digest(root):
    h = hashlib.sha256()
    for top in DIGEST_ROOTS:
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else []
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames.sort()
            files.extend(os.path.join(dirpath, f) for f in sorted(filenames))
        for f in files:
            h.update(os.path.relpath(f, root).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def build(build_dir, env):
    binary = os.path.join(build_dir, "agora_perfbench")
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", build_dir, "--target", "agora_perfbench",
         "-j", str(os.cpu_count() or 1)],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return binary


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        ap.error("--seed must be >= 0 and --seconds in [1, 60]")

    root = os.getcwd()
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    # Keep the compiler's and the run's temporary files inside the checkout.
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    binary = build(build_dir, env)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--source-digest", source_digest(root)]
    if args.trace:
        cmd += ["--spans-out", os.path.join(build_dir, "spans-%s.csv" % args.workload)]

    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit("perfbench: %s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    sys.stdout.write(out)
    sys.stdout.flush()
    print("perfbench: %s ran %.1f s" % (args.workload, time.monotonic() - start), file=sys.stderr)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
