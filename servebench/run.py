#!/usr/bin/env python3
"""Build and run the serving benchmark.

    python3 servebench/run.py --workload bulk --seed 1 --seconds 45 --trace 0

Run it from the repository root. It configures and builds the
servebench package (servebench/CMakeLists.txt compiles ../src with the
repository's default flags) into .bench_build/servebench, runs the
harness self-tests, then runs the benchmark. The last line of standard
output is one JSON object: {"correct", "attempted", "failed",
"metrics"}; --trace 0 gives the end-to-end metrics, --trace 1 the
per-layer ledger (and writes its spans to .bench_build/).

Exits nonzero without a result when the Rumba sources are missing, the
build or the self-tests fail, a RUMBA_* variable is set, or the build
is sanitized; exits nonzero with "correct": false when a delivered
output fails the check.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "servebench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print("servebench: " + msg, file=sys.stderr, flush=True)


def run(cmd, timeout):
    """Run @cmd with its output on stderr; the child is killed and
    reaped if it outlives @timeout."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        log("timed out: " + " ".join(cmd))
        return 124


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        if run(["cmake", "-S", HERE, "-B", BUILD,
                "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], BUILD_TIMEOUT_S):
            return False
    return run(["cmake", "--build", BUILD, "-j", jobs],
               BUILD_TIMEOUT_S) == 0


def source_digest():
    """sha256 over the program and benchmark sources: identifies the
    measured code where no git metadata is present."""
    h = hashlib.sha256()
    for top in ("src", "servebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "serve", "engine.h")):
        log("no Rumba sources at %s/src; run from a full checkout" % ROOT)
        return 2
    if not build():
        log("build failed")
        return 2
    if run([os.path.join(BUILD, "servebench_selftest")], RUN_TIMEOUT_S):
        log("harness self-tests failed")
        return 2

    cmd = [os.path.join(BUILD, "servebench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(ROOT, ".bench_build",
                                        "spans-%s.tsv" % args.workload)]
    print("# source sha256=%s" % source_digest(), flush=True)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("benchmark timed out after %d s" % RUN_TIMEOUT_S)
        return 124
    lines = proc.stdout.splitlines()
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        return proc.returncode
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        log("benchmark printed no result line")
        return 1
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
