#!/usr/bin/env bash
# Tier-1 verification, three ways: a plain build, an ASan/UBSan build,
# and a TSan build of the threaded paths (RUMBA_SANITIZE wires any
# -fsanitize= spelling through the whole tree). The plain build also
# gates telemetry against the checked-in baselines with rumba-stat.
# A perf tier comes last, so a timing verdict never hides a functional
# one. Usage: ./ci.sh [--skip-sanitize]
set -euo pipefail
cd "$(dirname "$0")"

run_suite() {
    local dir="$1"; shift
    cmake -B "$dir" -S . "$@"
    cmake --build "$dir" -j
    ctest --test-dir "$dir" --output-on-failure -j
}

echo "==> plain build + tests"
run_suite build

echo "==> telemetry regression gate (rumba-stat vs bench/baselines)"
RUMBA_METRICS_OUT=build/quickstart.metrics.jsonl \
    ./build/examples/quickstart > /dev/null
# Counters are seed-deterministic; the tolerance absorbs float noise
# in gauges across compilers. Latency histograms are skipped by
# default (machine-dependent).
./build/tools/rumba-stat diff \
    bench/baselines/quickstart.metrics.jsonl \
    build/quickstart.metrics.jsonl --tol 0.02
# (The serving-layer counter gate is the bench_serve_speedup ctest
# entry above.)
# Tiered-recovery gate: the three-tier example streams and serves
# with compensation on; the baseline pins the recovery.tier.* split,
# the boundary-tuner feedback counters, and the audited-quality
# outcome (zero true TOQ violations with the compensate tier live).
RUMBA_METRICS_OUT=build/recovery_tiers.metrics.jsonl \
    ./build/examples/tiered_recovery > /dev/null
./build/tools/rumba-stat diff \
    bench/baselines/recovery_tiers.metrics.jsonl \
    build/recovery_tiers.metrics.jsonl --tol 0.02

echo "==> live observability gate (scrape endpoint + flight recorder)"
# Run the deploy example with the scrape server up and a flight-dump
# directory, scrape it live mid-run, and assert the breaker-trip
# drill left flight-recorder artifacts that join back to traces.
obs_port=19841
flight_dir=build/flight-dumps
incident_dir=build/incidents
rm -rf "$flight_dir" "$incident_dir"
mkdir -p "$flight_dir" "$incident_dir"
rm -f build/deploy_audit.jsonl build/deploy_profile.folded
RUMBA_METRICS_PORT=$obs_port RUMBA_FLIGHT_DIR="$flight_dir" \
    RUMBA_OBS_LINGER_MS=8000 \
    RUMBA_AUDIT_SAMPLE_N=1 RUMBA_AUDIT_OUT=build/deploy_audit.jsonl \
    RUMBA_PROFILE_OUT=build/deploy_profile.folded \
    RUMBA_TSDB_PERIOD_MS=25 RUMBA_INCIDENT_DIR="$incident_dir" \
    ./build/examples/deploy > build/deploy_obs.log 2>&1 &
deploy_pid=$!
# The server comes up at main(); wait for it, then for the serving
# engine's /statusz provider (live during the obs drill + linger).
for _ in $(seq 1 150); do
    if curl -sf --max-time 10 "http://127.0.0.1:$obs_port/healthz" \
        > /dev/null 2>&1; then break; fi
    sleep 0.2
done
curl -sf --max-time 10 "http://127.0.0.1:$obs_port/healthz" | grep -q '^ok$'
statusz=""
for _ in $(seq 1 300); do
    statusz=$(curl -sf --max-time 10 "http://127.0.0.1:$obs_port/statusz" \
        2>/dev/null || true)
    if [[ "$statusz" == *'"shards"'* ]]; then break; fi
    sleep 0.2
done
[[ "$statusz" == *'"tuner_mode":"toq"'* ]] ||
    { echo "statusz never showed the serving engine"; exit 1; }
# Live exposition: valid Prometheus text carrying the serve.* and
# slo.* series, both straight off the socket and from a saved copy.
curl -sf --max-time 10 "http://127.0.0.1:$obs_port/metrics" > build/deploy_scrape.prom
grep -q '^rumba_serve_submitted_total' build/deploy_scrape.prom
grep -q '^rumba_slo_serve_quality_fast_burn_rate' build/deploy_scrape.prom
grep -q '^rumba_serve_shard0_threshold' build/deploy_scrape.prom
# The ground-truth auditor publishes to the same registry: the scrape
# must carry a nonzero audited-sample count and the true (measured,
# not predicted) TOQ-violation rate.
awk '/^rumba_audit_samples_total/ { if ($NF + 0 > 0) found = 1 }
     END { exit !found }' build/deploy_scrape.prom
grep -q '^rumba_audit_true_toq_violation_rate' build/deploy_scrape.prom
# Tiered recovery in the live binary: the deploy config enables the
# compensate tier, so the scrape must show all three recovery tiers
# with a nonzero compensated share.
awk '/^rumba_recovery_tier_compensate_total/ { if ($NF + 0 > 0) f = 1 }
     END { exit !f }' build/deploy_scrape.prom
awk '/^rumba_recovery_tier_reexecute_total/ { if ($NF + 0 > 0) f = 1 }
     END { exit !f }' build/deploy_scrape.prom
# Build identity must be scrapeable next to the metrics.
curl -sf --max-time 10 "http://127.0.0.1:$obs_port/buildz" | grep -q '"git_describe"'
# Cost profiler: the engine must have attributed real CPU to the
# device and predict-check stages, and the online efficiency
# estimator must publish a finite, positive speedup.
awk '/^rumba_cpu_stage_seconds_device_total/ { if ($NF + 0 > 0) f = 1 }
     END { exit !f }' build/deploy_scrape.prom
awk '/^rumba_cpu_stage_seconds_predict_check_total/ \
     { if ($NF + 0 > 0) f = 1 } END { exit !f }' build/deploy_scrape.prom
awk '/^rumba_efficiency_speedup_estimate/ \
     { v = $NF + 0; if (v > 0 && v < 1e12) f = 1 }
     END { exit !f }' build/deploy_scrape.prom
# /profilez: live stage shares + efficiency estimate, gated against
# the checked-in baseline (speedup lower-is-worse, energy ratio
# higher-is-worse; the tolerance absorbs drill-phase timing).
curl -sf --max-time 10 "http://127.0.0.1:$obs_port/profilez" \
    > build/deploy_profilez.json
grep -q '"schema_version":1' build/deploy_profilez.json
./build/tools/rumba-stat profile build/deploy_profilez.json \
    --baseline bench/baselines/deploy_profilez.json --tol 0.2 \
    > /dev/null
# Forensics tsdb: the retention store must serve a range query for
# the serve-latency p99 series with at least two retained points (the
# sampler has been ticking since the engine came up).
for _ in $(seq 1 100); do
    curl -sf --max-time 10 "http://127.0.0.1:$obs_port/tsdbz?prefix=serve.enqueue_to_complete_ns.p99&range_ms=600000" \
        > build/deploy_tsdbz.json || true
    if awk 'match($0, /"points":[0-9]+/) \
            { if (substr($0, RSTART + 9, RLENGTH - 9) + 0 >= 2) f = 1 }
            END { exit !f }' build/deploy_tsdbz.json; then
        break
    fi
    sleep 0.2
done
grep -q '"schema_version":1' build/deploy_tsdbz.json
awk 'match($0, /"points":[0-9]+/) \
     { if (substr($0, RSTART + 9, RLENGTH - 9) + 0 >= 2) f = 1 }
     END { exit !f }' build/deploy_tsdbz.json
./build/tools/rumba-stat tsdb build/deploy_tsdbz.json > /dev/null
# Forensics incidents: the NaN storm must have correlated at least
# one multi-source incident, queryable live. The drill runs a few
# phases into the deploy, so poll until the manager lists one rather
# than racing it with a single scrape.
for _ in $(seq 1 300); do
    curl -sf --max-time 10 "http://127.0.0.1:$obs_port/incidentz" \
        > build/deploy_incidentz.json || true
    if awk 'match($0, /"count":[0-9]+/) \
            { if (substr($0, RSTART + 8, RLENGTH - 8) + 0 >= 1) f = 1 }
            END { exit !f }' build/deploy_incidentz.json; then
        break
    fi
    sleep 0.2
done
awk 'match($0, /"count":[0-9]+/) \
     { if (substr($0, RSTART + 8, RLENGTH - 8) + 0 >= 1) f = 1 }
     END { exit !f }' build/deploy_incidentz.json
./build/tools/rumba-stat incident build/deploy_incidentz.json \
    > /dev/null
# scrape --check on a live target also validates /buildz, /profilez,
# /tsdbz and /incidentz.
./build/tools/rumba-stat scrape "http://127.0.0.1:$obs_port/metrics" \
    --check > /dev/null
./build/tools/rumba-stat scrape build/deploy_scrape.prom --check
wait "$deploy_pid"
# The cost profiler's flush hook must have written the measured
# per-shard stage split as a parseable folded-stacks dump ("stack
# count" lines, count in µs of thread CPU) with per-shard frames and
# a nonzero device row for shard 0.
awk 'NF < 2 || $NF + 0 <= 0 { bad = 1 } END { exit bad }' \
    build/deploy_profile.folded
grep -q '^shard0;' build/deploy_profile.folded
grep -q '^shard0;device [1-9]' build/deploy_profile.folded
# The NaN storm must have tripped breakers and dumped flight records
# carrying request trace ids.
ls "$flight_dir"/flight-shard*.jsonl > /dev/null
grep -q '"reason":"breaker_open"' "$flight_dir"/flight-shard*.jsonl
grep -q '"trace_id"' "$flight_dir"/flight-shard*.jsonl
# The audit drill must have left a labeled ground-truth dump that the
# CLI can summarize (per-invocation "audit" lines + per-element
# labeled "audit_element" lines).
grep -q '"type":"audit"' build/deploy_audit.jsonl
grep -q '"type":"audit_element"' build/deploy_audit.jsonl
./build/tools/rumba-stat audit build/deploy_audit.jsonl > /dev/null
# The incident bundle on disk must correlate exactly the NaN storm's
# three fixed-contract sources (breaker trips, injected-fault deltas,
# the serve-quality SLO fire), so losing any one of them fails here,
# and join flight records to reqtraces by trace id.
ls "$incident_dir"/incident-*.json > /dev/null
grep -q '"type":"incident"' "$incident_dir"/incident-*.json
grep -qF '"source_kinds":"breaker+fault+slo"' "$incident_dir"/incident-*.json
awk 'match($0, /"joins":[0-9]+/) \
     { if (substr($0, RSTART + 8, RLENGTH - 8) + 0 >= 1) f = 1 }
     END { exit !f }' "$incident_dir"/incident-*.json
grep -q '"trace_id"' "$incident_dir"/incident-*.json

echo "==> threshold-convergence stream (RUMBA_STREAM_OUT)"
# The stream is a sink of the registry sampler's tick: deploy alone,
# sampled at the live gate's 25 ms period, must record the online
# tuner moving the threshold (>= 2 distinct values) while it serves.
rm -f build/deploy_stream.jsonl
RUMBA_STREAM_OUT=build/deploy_stream.jsonl RUMBA_TSDB_PERIOD_MS=25 \
    ./build/examples/deploy > build/deploy_stream.log 2>&1
./build/tools/rumba-stat summary build/deploy_stream.jsonl \
    > build/deploy_stream.summary
awk '/^threshold trajectory:/ { if ($5 + 0 >= 2) f = 1 }
     END { exit !f }' build/deploy_stream.summary
awk '$1 == "counter" && $2 == "runtime.invocations" \
     { if ($3 + 0 > 0) f = 1 } END { exit !f }' build/deploy_stream.summary

echo "==> overload scenario matrix (open-loop chaos + admission gate)"
# Drives the serving engine with the open-loop load generator across
# arrival shapes x fault plans x admission policies and asserts the
# overload invariants (no silent loss, expired work never executes,
# gold survives 2x bursts, admission-off demonstrably fails). Exits
# nonzero on any FAIL/ERROR; the rumba-stat gate then catches any
# scenario the checked-in baseline passed going missing or failing.
./build/tools/rumba_scenarios --out build/scenarios.jsonl
./build/tools/rumba-stat scenarios build/scenarios.jsonl \
    --baseline bench/baselines/scenarios.jsonl > /dev/null

if [[ "${1:-}" != "--skip-sanitize" ]]; then
    echo "==> sanitized build + tests (address,undefined)"
    run_suite build-sanitize -DRUMBA_SANITIZE=address,undefined

    # Fault-injection matrix: replay canned fault plans through the
    # fault suite and the deploy drill on the ASan/UBSan build, so
    # every injected NaN / bit flip / stall also runs under the
    # sanitizers. Plans are seeded — failures replay exactly.
    echo "==> fault-injection matrix (ASan/UBSan)"
    fault_plans=(
        'seed=101;npu.output_nan=0.02'
        'seed=102;npu.bitflip=0.01;npu.output_inf=0.005'
        'seed=103;queue.stall=1;checker.mispredict=0.1'
        'seed=104;npu.lut=0.02;npu.output_stuck=0.01:0.5'
    )
    for plan in "${fault_plans[@]}"; do
        echo "   -- RUMBA_FAULT_PLAN='${plan}'"
        RUMBA_FAULT_PLAN="$plan" \
            ctest --test-dir build-sanitize --output-on-failure \
            -R '^fault_test$' > /dev/null
    done
    RUMBA_FAULT_PLAN='seed=105;npu.output_nan=0.02' \
        ./build-sanitize/examples/deploy > /dev/null

    # Serving engine smoke under ASan/UBSan: concurrent submit /
    # drain / shutdown across two client threads.
    ./build-sanitize/bench/serve_throughput --smoke > /dev/null

    # TSan: the threaded paths — span collector, the two-thread
    # recovery replay, the queue/breaker paths the fault suite drives,
    # the sharded serving engine (serve_test's two properties: seeded
    # serving configs replayed against per-shard sequential replicas,
    # and seeded fault plans that must deliver nothing non-finite and
    # account for every submission), the background ground-truth audit
    # pool, four shards recording through their own counter rows at
    # once with no lock, the profiler's folded dump and /profilez
    # racing the workers' stage records and engine shutdown, the one
    # registry sampler (its own refcounted thread feeding tsdb,
    # forensics and the stream sink) racing the same and shared with a
    # streaming runtime, and the
    # offline flow's trainer threads (the training constructor in
    # serialization_test and fault_test; core_test's kmeans Pipeline
    # tests read the unchecked-NPU network right after construction)
    # — under real concurrency.
    echo "==> thread-sanitized build + threading tests (thread)"
    cmake -B build-tsan -S . -DRUMBA_SANITIZE=thread
    cmake --build build-tsan -j
    # -R must precede the bare -j: ctest would otherwise eat the
    # regex as -j's value and run the whole suite.
    ctest --test-dir build-tsan --output-on-failure \
        -R '^(obs_test|extensions_test|fault_test|serialization_test|core_test|serve_test|audit_test|profiler_test|forensics_test)$' \
        -j
fi

echo "==> perf tier (serve_throughput, median of 5 runs)"
# The 4-shard throughput ratio and the observability overhead time the
# host as much as the engine: one run reads 1.85-3.78x on a 4-vCPU
# guest. So they are gated here, on the median of five runs of the
# plain build, never in ctest. Each run appends its trajectory record,
# stamped with the source sha of src/ and bench/, to
# BENCH_serve_throughput.json at the repo root.
perf_runs=5
ratios=()
overheads=()
for run in $(seq 1 "$perf_runs"); do
    out=$(./build/bench/serve_throughput 2> /dev/null)
    ratio=$(awk '/^4-shard speedup/ { print $3 + 0 }' <<< "$out")
    overhead=$(awk '/median extra CPU/ {
        for (i = 1; i < NF; ++i) if ($i == "->") print $(i + 1) + 0 }' \
        <<< "$out")
    source_sha=$(awk '/^trajectory record appended/ { print $NF }' \
        <<< "$out")
    echo "   run $run: ratio ${ratio}x, overhead ${overhead}%"
    ratios+=("$ratio")
    overheads+=("$overhead")
done
# Median and quartiles (the middle value of each half) of the runs.
spread() {
    printf '%s\n' "$@" | sort -g | awk '{ v[NR] = $1 }
        END { h = int((NR + 1) / 2); q = int((h + 1) / 2)
              printf "%s %s %s\n", v[h], v[q], v[NR + 1 - q] }'
}
read -r ratio_med ratio_q1 ratio_q3 <<< "$(spread "${ratios[@]}")"
read -r over_med over_q1 over_q3 <<< "$(spread "${overheads[@]}")"
echo "   medians of source_sha ${source_sha}:"
echo "   ratio median ${ratio_med}x (IQR ${ratio_q1}-${ratio_q3}), required >= 2.5x"
echo "   overhead median ${over_med}% (IQR ${over_q1}-${over_q3}), required < 5%"
awk -v r="$ratio_med" -v o="$over_med" 'BEGIN { exit !(r >= 2.5 && o < 5) }' ||
    { echo "perf tier FAILED"; exit 1; }

echo "==> ci.sh: all suites passed"
