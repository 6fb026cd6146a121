#!/usr/bin/env bash
# Functional serving gate: serve_throughput's deterministic --gate pass
# (every request served, every element accounted for) must leave a
# telemetry snapshot that rumba-stat diffs clean against the checked-in
# serving baseline. No timing bound: those live in ci.sh's perf tier.
# Usage: serve_gate_test.sh <serve_throughput> <rumba-stat> <baseline>
set -u
BENCH="$1"
STAT="$2"
BASELINE="$3"
DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT

RUMBA_METRICS_OUT="$DIR/serve_throughput.metrics.jsonl" "$BENCH" --gate ||
    { echo "FAIL: serve_throughput --gate exited $?" >&2; exit 1; }
"$STAT" diff "$BASELINE" "$DIR/serve_throughput.metrics.jsonl" --tol 0.02
