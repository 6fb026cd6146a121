#!/usr/bin/env bash
# End-to-end checks for the rumba-stat CLI against synthetic dumps:
# identical runs pass, an out-of-tolerance metric fails with exit 1,
# a schema-version mismatch is refused with exit 2, hostile inputs and
# arguments exit 2, and a seeded mutation loop over every fixture never
# crashes or hangs a reader.
# Usage: rumba_stat_test.sh <path-to-rumba-stat>
set -u
STAT="$1"
DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT
fail() { echo "FAIL: $1" >&2; exit 1; }

cat > "$DIR/base.jsonl" <<'EOF'
{"type":"meta","schema_version":2,"wall_time":"2026-01-01T00:00:00Z","hostname":"ci","build_type":"Release","sanitizers":""}
{"type":"counter","name":"runtime.fixes","value":120}
{"type":"counter","name":"runtime.invocations","value":8}
{"type":"gauge","name":"tuner.threshold","value":0.25}
{"type":"histogram","name":"npu.invoke_ns","count":8,"sum":800,"min":90,"max":110,"p50":100,"p90":108,"p99":110}
{"type":"histogram","name":"detector.score","count":8,"sum":4,"min":0.1,"max":0.9,"p50":0.5,"p90":0.8,"p99":0.9}
{"type":"trace","seq":0,"invocation":1,"elements":100,"threshold":0.25,"fires":15,"fixes":15,"queue_full_stalls":0,"tuner_adjustments":0,"output_error_pct":9.5,"estimated_error_pct":9.1,"drift":false}
EOF

# 1. A dump diffs clean against itself.
"$STAT" diff "$DIR/base.jsonl" "$DIR/base.jsonl" > /dev/null ||
    fail "identical dumps should pass (got $?)"

# 2. Latency distributions are machine noise: a shifted p50 on an _ns
#    histogram passes by default but fails under --include-latency.
sed 's/"p50":100/"p50":400/' "$DIR/base.jsonl" > "$DIR/slow.jsonl"
"$STAT" diff "$DIR/base.jsonl" "$DIR/slow.jsonl" > /dev/null ||
    fail "latency-only shift should pass by default (got $?)"
"$STAT" diff "$DIR/base.jsonl" "$DIR/slow.jsonl" --include-latency \
    > /dev/null
[[ $? -eq 1 ]] || fail "--include-latency should flag the p50 shift"

# 3. A counter outside tolerance is a regression (exit 1)...
sed 's/"name":"runtime.fixes","value":120/"name":"runtime.fixes","value":150/' \
    "$DIR/base.jsonl" > "$DIR/worse.jsonl"
"$STAT" diff "$DIR/base.jsonl" "$DIR/worse.jsonl" > /dev/null
[[ $? -eq 1 ]] || fail "25% counter jump should fail exact diff"

# 4. ...but passes inside an explicit relative tolerance.
"$STAT" diff "$DIR/base.jsonl" "$DIR/worse.jsonl" --tol 0.30 \
    > /dev/null || fail "25% jump should pass --tol 0.30 (got $?)"
"$STAT" diff "$DIR/base.jsonl" "$DIR/worse.jsonl" \
    --tol-metric runtime.fixes=0.30 > /dev/null ||
    fail "per-metric tolerance should absorb the jump (got $?)"

# 5. A metric missing from the candidate is a regression.
grep -v 'runtime.invocations' "$DIR/base.jsonl" > "$DIR/missing.jsonl"
"$STAT" diff "$DIR/base.jsonl" "$DIR/missing.jsonl" > /dev/null
[[ $? -eq 1 ]] || fail "missing metric should fail the diff"

# 6. Incompatible schema versions are refused (exit 2).
sed 's/"schema_version":2/"schema_version":1/' "$DIR/base.jsonl" \
    > "$DIR/old.jsonl"
"$STAT" diff "$DIR/base.jsonl" "$DIR/old.jsonl" > /dev/null 2>&1
[[ $? -eq 2 ]] || fail "schema mismatch should be refused with exit 2"

# 7. summary renders both metric dumps and stream dumps. A metrics
#    dump records no trajectory: its "trace" line is ignored.
"$STAT" summary "$DIR/base.jsonl" |
    grep -qF "threshold trajectory: (none recorded)" ||
    fail "metrics-dump summary should record no threshold trajectory"
cat > "$DIR/stream.jsonl" <<'EOF'
{"type":"meta","schema_version":2,"wall_time":"2026-01-01T00:00:00Z","hostname":"ci","build_type":"Release","sanitizers":""}
{"type":"sample","t_ms":1.5,"counters":{"runtime.fixes":10},"gauges":{"tuner.threshold":0.5}}
{"type":"sample","t_ms":3.0,"counters":{"runtime.fixes":7},"gauges":{"tuner.threshold":0.4}}
EOF
"$STAT" summary "$DIR/stream.jsonl" | grep -q "2 distinct" ||
    fail "stream summary should see 2 distinct thresholds"
# Stream counter deltas accumulate into run totals.
"$STAT" summary "$DIR/stream.jsonl" | grep -q "runtime.fixes.*17" ||
    fail "stream summary should total the counter deltas"

# 7b. Dumps from before the per-invocation trace lines went (the
#     checked-in baselines carry one "trace" line per invocation) diff
#     clean against the same dump without them, in both directions.
cp "$DIR/base.jsonl" "$DIR/old_style.jsonl"
echo '{"type":"trace","seq":1,"invocation":2,"elements":100,"threshold":0.3,"fires":11,"fixes":11,"queue_full_stalls":1,"queue_drops":0,"non_finite":0,"exact_elements":0,"tuner_adjustments":1,"output_error_pct":8.5,"estimated_error_pct":8.0,"drift":false,"breaker_state":0}' \
    >> "$DIR/old_style.jsonl"
grep -v '"type":"trace"' "$DIR/base.jsonl" > "$DIR/no_trace.jsonl"
"$STAT" diff "$DIR/old_style.jsonl" "$DIR/no_trace.jsonl" > /dev/null ||
    fail "old-style baseline should diff clean against a trace-free dump (got $?)"
"$STAT" diff "$DIR/no_trace.jsonl" "$DIR/old_style.jsonl" > /dev/null ||
    fail "trace-free baseline should diff clean against an old-style dump (got $?)"
"$STAT" summary "$DIR/old_style.jsonl" |
    grep -qF "threshold trajectory: (none recorded)" ||
    fail "old-style dump summary should record no threshold trajectory"

# 8. scrape --check validates a saved Prometheus text exposition.
cat > "$DIR/expo.prom" <<'EOF'
# HELP rumba_runtime_fixes_total rumba metric
# TYPE rumba_runtime_fixes_total counter
rumba_runtime_fixes_total{name="runtime.fixes"} 120
# TYPE rumba_runtime_invocations_total counter
rumba_runtime_invocations_total{name="runtime.invocations"} 8
# TYPE rumba_tuner_threshold gauge
rumba_tuner_threshold{name="tuner.threshold"} 0.25
# TYPE rumba_npu_invoke_ns histogram
rumba_npu_invoke_ns_bucket{name="npu.invoke_ns",le="100"} 4
rumba_npu_invoke_ns_bucket{name="npu.invoke_ns",le="+Inf"} 8
rumba_npu_invoke_ns_sum{name="npu.invoke_ns"} 800
rumba_npu_invoke_ns_count{name="npu.invoke_ns"} 8
# TYPE rumba_npu_invoke_ns_min gauge
rumba_npu_invoke_ns_min{name="npu.invoke_ns"} 90
# TYPE rumba_npu_invoke_ns_max gauge
rumba_npu_invoke_ns_max{name="npu.invoke_ns"} 110
# TYPE rumba_detector_score histogram
rumba_detector_score_bucket{name="detector.score",le="+Inf"} 8
rumba_detector_score_sum{name="detector.score"} 4
rumba_detector_score_count{name="detector.score"} 8
EOF
"$STAT" scrape "$DIR/expo.prom" --check > /dev/null ||
    fail "valid exposition should pass scrape --check (got $?)"

# 9. Buckets that disagree with _count are refused (exit 2).
sed 's/le="+Inf"} 8/le="+Inf"} 5/' "$DIR/expo.prom" > "$DIR/bad.prom"
"$STAT" scrape "$DIR/bad.prom" --check > /dev/null 2>&1
[[ $? -eq 2 ]] || fail "+Inf != _count should fail scrape --check"

# 10. An undeclared sample (no # TYPE) is a format violation.
echo 'rumba_mystery{name="mystery"} 1' >> "$DIR/bad2.prom"
cat "$DIR/expo.prom" >> "$DIR/bad2.prom"
"$STAT" scrape "$DIR/bad2.prom" --check > /dev/null 2>&1
[[ $? -eq 2 ]] || fail "TYPE-less sample should fail scrape --check"

# 11. scrape --baseline gates a live exposition against a JSONL dump.
"$STAT" scrape "$DIR/expo.prom" --baseline "$DIR/base.jsonl" \
    > /dev/null ||
    fail "matching scrape should pass the baseline gate (got $?)"
sed 's/"runtime.fixes"} 120/"runtime.fixes"} 200/' \
    "$DIR/expo.prom" > "$DIR/drift.prom"
"$STAT" scrape "$DIR/drift.prom" --baseline "$DIR/base.jsonl" \
    > /dev/null
[[ $? -eq 1 ]] || fail "66% counter jump should fail the scrape gate"
"$STAT" scrape "$DIR/drift.prom" --baseline "$DIR/base.jsonl" \
    --tol-metric runtime.fixes=0.70 > /dev/null ||
    fail "per-metric tolerance should absorb the scrape jump (got $?)"

# 12. Default scrape mode summarizes with dotted names recovered.
"$STAT" scrape "$DIR/expo.prom" | grep -q "runtime.fixes" ||
    fail "scrape summary should recover dotted metric names"

# 13. audit summarizes a RUMBA_AUDIT_OUT labeled dump.
cat > "$DIR/audit_base.jsonl" <<'EOF'
{"type":"meta","schema_version":2,"wall_time":"2026-01-01T00:00:00Z","hostname":"ci","build_type":"Release","sanitizers":""}
{"type":"audit","trace_id":11,"shard":0,"forced":false,"forced_reason":"","elements":2,"threshold":0.3,"estimated_error_pct":4.0,"reported_error_pct":4.2,"true_error_pct":5.0,"toq_violation":false,"toq_bound_pct":12,"tp":1,"fp":0,"fn":0,"tn":1,"breaker_state":0,"fixes":1}
{"type":"audit","trace_id":12,"shard":1,"forced":true,"forced_reason":"recovered","elements":2,"threshold":0.3,"estimated_error_pct":9.0,"reported_error_pct":9.5,"true_error_pct":15.0,"toq_violation":true,"toq_bound_pct":12,"tp":1,"fp":0,"fn":1,"tn":0,"breaker_state":0,"fixes":1}
{"type":"audit_element","trace_id":11,"shard":0,"index":0,"predicted_error":0.4,"approx_error":0.5,"served_error":0.0,"fired":true,"fixed":true,"exact_path":false,"needs_fix":true,"input_0":0.25,"input_1":0.5}
{"type":"audit_element","trace_id":11,"shard":0,"index":1,"predicted_error":0.1,"approx_error":0.1,"served_error":0.1,"fired":false,"fixed":false,"exact_path":false,"needs_fix":false,"input_0":0.75,"input_1":0.5}
EOF
"$STAT" audit "$DIR/audit_base.jsonl" > "$DIR/audit_out.txt" ||
    fail "audit summary should succeed (got $?)"
grep -q "true TOQ violations: 1 / 2" "$DIR/audit_out.txt" ||
    fail "audit summary should count the violation"
grep -q "fn(acc)" "$DIR/audit_out.txt" ||
    fail "audit summary should print the calibration table"
grep -q "recovered" "$DIR/audit_out.txt" ||
    fail "audit worst-K should carry the forced reason"

# 14. audit --baseline passes against itself, fails on a calibration
#     regression (recall collapse), and respects --tol.
"$STAT" audit "$DIR/audit_base.jsonl" \
    --baseline "$DIR/audit_base.jsonl" > /dev/null ||
    fail "audit should pass against itself (got $?)"
sed 's/"tp":1,"fp":0,"fn":1/"tp":0,"fp":1,"fn":2/' \
    "$DIR/audit_base.jsonl" > "$DIR/audit_worse.jsonl"
"$STAT" audit "$DIR/audit_worse.jsonl" \
    --baseline "$DIR/audit_base.jsonl" > /dev/null
[[ $? -eq 1 ]] || fail "calibration collapse should fail the gate"
"$STAT" audit "$DIR/audit_worse.jsonl" \
    --baseline "$DIR/audit_base.jsonl" --tol 1.0 > /dev/null ||
    fail "--tol 1.0 should absorb any calibration move (got $?)"

# 15. Schema mismatches between audit dumps are refused.
sed 's/"schema_version":2/"schema_version":1/' \
    "$DIR/audit_base.jsonl" > "$DIR/audit_old.jsonl"
"$STAT" audit "$DIR/audit_base.jsonl" \
    --baseline "$DIR/audit_old.jsonl" > /dev/null 2>&1
[[ $? -eq 2 ]] || fail "audit schema mismatch should exit 2"

# 16. scenarios summarizes a RUMBA_SCENARIO_OUT matrix dump; any
#     fail/error row makes the standalone summary exit 1.
cat > "$DIR/scen_base.jsonl" <<'EOF'
{"type":"meta","schema_version":2,"wall_time":"2026-01-01T00:00:00Z","hostname":"ci","build_type":"Release","sanitizers":""}
{"type":"scenario","name":"steady","status":"pass","workload":"inversek2j","arrival":"poisson","fault":"","admission":true,"offered":900,"served":900,"shed":0,"expired":0,"rejected":0,"gold_p99_ms":2.5,"loss_fraction":0.0,"violations":""}
{"type":"scenario","name":"burst","status":"pass","workload":"fft","arrival":"bursty","fault":"seed=7;npu.output_nan=0.3","admission":true,"offered":3000,"served":2000,"shed":950,"expired":0,"rejected":50,"gold_p99_ms":12.0,"loss_fraction":0.33,"violations":""}
{"type":"scenario","name":"skipper","status":"skip","workload":"fft","arrival":"diurnal","fault":"","admission":true,"offered":0,"served":0,"shed":0,"expired":0,"rejected":0,"gold_p99_ms":0,"loss_fraction":0.0,"violations":"external RUMBA_FAULT_PLAN armed; not overriding"}
EOF
"$STAT" scenarios "$DIR/scen_base.jsonl" > "$DIR/scen_out.txt" ||
    fail "scenario summary should succeed (got $?)"
grep -q "3 scenarios: 2 pass, 0 fail/error, 1 skip" "$DIR/scen_out.txt" ||
    fail "scenario summary should count statuses"
sed 's/"name":"burst","status":"pass"/"name":"burst","status":"fail"/' \
    "$DIR/scen_base.jsonl" > "$DIR/scen_fail.jsonl"
"$STAT" scenarios "$DIR/scen_fail.jsonl" > /dev/null
[[ $? -eq 1 ]] || fail "a failing scenario should exit 1 standalone"

# 17. scenarios --baseline: pass stays pass (exit 0), a
#     baseline-passing scenario failing or going missing is a
#     regression (exit 1), and a skip is neutral.
"$STAT" scenarios "$DIR/scen_base.jsonl" \
    --baseline "$DIR/scen_base.jsonl" > /dev/null ||
    fail "scenarios should pass against themselves (got $?)"
"$STAT" scenarios "$DIR/scen_fail.jsonl" \
    --baseline "$DIR/scen_base.jsonl" > "$DIR/scen_gate.txt"
[[ $? -eq 1 ]] || fail "pass -> fail should gate (exit 1)"
grep -q "REGRESSION.*burst" "$DIR/scen_gate.txt" ||
    fail "the gate should name the regressed scenario"
grep -v '"name":"burst"' "$DIR/scen_base.jsonl" \
    > "$DIR/scen_missing.jsonl"
"$STAT" scenarios "$DIR/scen_missing.jsonl" \
    --baseline "$DIR/scen_base.jsonl" > /dev/null
[[ $? -eq 1 ]] || fail "a missing baseline-pass scenario should gate"
sed 's/"name":"burst","status":"pass"/"name":"burst","status":"skip"/' \
    "$DIR/scen_base.jsonl" > "$DIR/scen_skip.jsonl"
"$STAT" scenarios "$DIR/scen_skip.jsonl" \
    --baseline "$DIR/scen_base.jsonl" > /dev/null ||
    fail "pass -> skip is neutral, not a regression (got $?)"

# 18. Schema mismatches between scenario dumps are refused.
sed 's/"schema_version":2/"schema_version":1/' \
    "$DIR/scen_base.jsonl" > "$DIR/scen_old.jsonl"
"$STAT" scenarios "$DIR/scen_base.jsonl" \
    --baseline "$DIR/scen_old.jsonl" > /dev/null 2>&1
[[ $? -eq 2 ]] || fail "scenario schema mismatch should exit 2"

# 19. tsdb summarizes a saved /tsdbz body; --baseline gates series
#     coverage (a retained series going missing or empty exits 1).
cat > "$DIR/tsdb_base.json" <<'EOF'
{"schema_version":1,"now_ms":500.0,"range_ms":60000,"prefix":"","quantile":0.99,"series":2,"points_total":34,"dropped_series":0,"sampler_running":1,"sampler_samples":17,"selected":2,"series_detail":{"serve.enqueue_to_complete_ns.p99":{"kind":"gauge","points":17,"total_appended":17,"first_ms":25.0,"last_ms":425.0,"min":700000,"max":13000000,"last":900000,"rate_per_s":0,"quantile_value":12500000,"samples":{"0":{"t_ms":25.0,"v":700000},"1":{"t_ms":50.0,"v":13000000}}},"detector.fires":{"kind":"counter","points":17,"total_appended":17,"first_ms":25.0,"last_ms":425.0,"min":0,"max":4000,"last":4000,"rate_per_s":9411.8,"quantile_value":3980,"samples":{"0":{"t_ms":25.0,"v":0},"1":{"t_ms":50.0,"v":600}}}}}
EOF
"$STAT" tsdb "$DIR/tsdb_base.json" > "$DIR/tsdb_out.txt" ||
    fail "tsdb summary should succeed (got $?)"
grep -q "2 series selected" "$DIR/tsdb_out.txt" ||
    fail "tsdb summary should count selected series"
grep -q "serve.enqueue_to_complete_ns.p99" "$DIR/tsdb_out.txt" ||
    fail "tsdb summary should list series by name"
"$STAT" tsdb "$DIR/tsdb_base.json" \
    --baseline "$DIR/tsdb_base.json" > /dev/null ||
    fail "tsdb should pass against itself (got $?)"
sed 's/"detector.fires":{"kind":"counter","points":17/"detector.fires":{"kind":"counter","points":0/' \
    "$DIR/tsdb_base.json" > "$DIR/tsdb_empty.json"
"$STAT" tsdb "$DIR/tsdb_empty.json" \
    --baseline "$DIR/tsdb_base.json" > "$DIR/tsdb_gate.txt"
[[ $? -eq 1 ]] || fail "an emptied series should gate (exit 1)"
grep -q "REGRESSION.*detector.fires" "$DIR/tsdb_gate.txt" ||
    fail "the tsdb gate should name the regressed series"

# 20. Schema mismatches between tsdb bodies are refused.
sed 's/"schema_version":1/"schema_version":9/' \
    "$DIR/tsdb_base.json" > "$DIR/tsdb_v9.json"
"$STAT" tsdb "$DIR/tsdb_base.json" \
    --baseline "$DIR/tsdb_v9.json" > /dev/null 2>&1
[[ $? -eq 2 ]] || fail "tsdb schema mismatch should exit 2"

# 21. incident summarizes an /incidentz listing; --baseline gates the
#     correlation pipeline (baseline multi-source incident vs none).
cat > "$DIR/inc_base.json" <<'EOF'
{"schema_version":1,"count":1,"opened":1,"dumped":1,"suppressed":0,"dir":"build/incidents","incidents":{"0":{"id":1,"onset_ms":327.4,"sources":3,"source_kinds":"breaker+fault+slo","signals":7,"joins":4,"path":"build/incidents/incident-1.json"},"listed":1}}
EOF
"$STAT" incident "$DIR/inc_base.json" > "$DIR/inc_out.txt" ||
    fail "incident summary should succeed (got $?)"
grep -q "1 bundle(s) kept" "$DIR/inc_out.txt" ||
    fail "incident summary should count bundles"
grep -q "breaker+fault+slo" "$DIR/inc_out.txt" ||
    fail "incident summary should show signal kinds"
"$STAT" incident "$DIR/inc_base.json" \
    --baseline "$DIR/inc_base.json" > /dev/null ||
    fail "incident should pass against itself (got $?)"
cat > "$DIR/inc_none.json" <<'EOF'
{"schema_version":1,"count":0,"opened":0,"dumped":0,"suppressed":0,"dir":"","incidents":{"listed":0}}
EOF
"$STAT" incident "$DIR/inc_none.json" \
    --baseline "$DIR/inc_base.json" > /dev/null
[[ $? -eq 1 ]] || fail "lost correlation should gate (exit 1)"
"$STAT" incident "$DIR/inc_none.json" \
    --baseline "$DIR/inc_none.json" > /dev/null ||
    fail "no incidents on either side is clean (got $?)"

# 22. Schema mismatches between incident listings are refused, and a
#     listing missing its required keys fails to load.
sed 's/"schema_version":1/"schema_version":9/' \
    "$DIR/inc_base.json" > "$DIR/inc_v9.json"
"$STAT" incident "$DIR/inc_base.json" \
    --baseline "$DIR/inc_v9.json" > /dev/null 2>&1
[[ $? -eq 2 ]] || fail "incident schema mismatch should exit 2"
sed 's/"opened":1,//' "$DIR/inc_base.json" > "$DIR/inc_broken.json"
"$STAT" incident "$DIR/inc_broken.json" > /dev/null 2>&1
[[ $? -eq 2 ]] || fail "a listing missing required keys should exit 2"

# 23. profile summarizes a saved /profilez body shaped like the
#     checked-in baseline (no cpu_seconds.compensate key) and gates its
#     two efficiency figures directionally under a relative --tol.
cat > "$DIR/prof_base.json" <<'EOF'
{"schema_version":1,"cpu_seconds":{"queue_wait":4.7599e-05,"device":0.002467135,"predict_check":0.001362954,"recover":0.000412321,"merge":1.9468e-05,"audit":0.000934699,"verify":0.000540304,"other":0,"total":0.00578448},"stage_share":{"queue_wait":0.00822874312,"device":0.426509384,"predict_check":0.235622562,"recover":0.0712805645,"merge":0.00336555749,"audit":0.161587386,"verify":0.0934058031,"other":0},"sampler":{"running":false,"hz":499,"samples":31,"threads":1},"efficiency":{"speedup_estimate":2.3255814,"energy_ratio":0.442030872,"window":32,"invocations":32},"invocations":32}
EOF
"$STAT" profile "$DIR/prof_base.json" > "$DIR/prof_out.txt" ||
    fail "profile summary should succeed (got $?)"
grep -q "stage CPU attribution (32 invocations)" "$DIR/prof_out.txt" ||
    fail "profile summary should print the stage table"
grep -q "speedup estimate 2.326" "$DIR/prof_out.txt" ||
    fail "profile summary should print the efficiency estimate"
"$STAT" profile "$DIR/prof_base.json" \
    --baseline "$DIR/prof_base.json" > /dev/null ||
    fail "profile should pass against itself (got $?)"
# Speedup 2.33 -> 1.80 is a 23% drop; energy 0.44 -> 0.55 a 20% rise.
sed 's/"speedup_estimate":2.3255814/"speedup_estimate":1.8/' \
    "$DIR/prof_base.json" > "$DIR/prof_slow.json"
sed 's/"energy_ratio":0.442030872/"energy_ratio":0.55/' \
    "$DIR/prof_base.json" > "$DIR/prof_hungry.json"
"$STAT" profile "$DIR/prof_slow.json" \
    --baseline "$DIR/prof_base.json" > /dev/null
[[ $? -eq 1 ]] || fail "a speedup drop past --tol should gate (exit 1)"
"$STAT" profile "$DIR/prof_slow.json" \
    --baseline "$DIR/prof_base.json" --tol 0.3 > /dev/null ||
    fail "a speedup drop inside --tol should pass (got $?)"
"$STAT" profile "$DIR/prof_hungry.json" \
    --baseline "$DIR/prof_base.json" > /dev/null
[[ $? -eq 1 ]] || fail "an energy-ratio rise past --tol should gate"
"$STAT" profile "$DIR/prof_hungry.json" \
    --baseline "$DIR/prof_base.json" --tol 0.25 > /dev/null ||
    fail "an energy-ratio rise inside --tol should pass (got $?)"
# The gate is directional: improvements never regress.
"$STAT" profile "$DIR/prof_base.json" \
    --baseline "$DIR/prof_slow.json" > /dev/null ||
    fail "a speedup gain should pass the gate (got $?)"
# A body with no "sampler" object, as served today, summarizes and
# gates against itself.
sed 's/,"sampler":{[^}]*}//' "$DIR/prof_base.json" \
    > "$DIR/prof_unsampled.json"
grep -q '"sampler"' "$DIR/prof_unsampled.json" &&
    fail "the unsampled fixture still carries a sampler object"
"$STAT" profile "$DIR/prof_unsampled.json" \
    --baseline "$DIR/prof_unsampled.json" > /dev/null ||
    fail "a body with no sampler object should self-gate (got $?)"

# 24. profile refuses a schema mismatch and a body missing a required
#     key (exit 2).
sed 's/"schema_version":1/"schema_version":9/' \
    "$DIR/prof_base.json" > "$DIR/prof_v9.json"
"$STAT" profile "$DIR/prof_base.json" \
    --baseline "$DIR/prof_v9.json" > /dev/null 2>&1
[[ $? -eq 2 ]] || fail "profile schema mismatch should exit 2"
sed 's/,"invocations":32}$/}/' "$DIR/prof_base.json" \
    > "$DIR/prof_broken.json"
"$STAT" profile "$DIR/prof_broken.json" > /dev/null 2>&1
[[ $? -eq 2 ]] || fail "a body missing required keys should exit 2"

# 25. A ".csv" metrics dump (RUMBA_METRICS_OUT=*.csv; meta header as a
#     "# " comment) diffs clean against its JSONL twin, and a changed
#     counter in it is a regression.
cat > "$DIR/base.csv" <<'EOF'
# {"type":"meta","schema_version":2,"wall_time":"2026-01-01T00:00:00Z","hostname":"ci","build_type":"Release","sanitizers":""}
type,name,value,sum,min,max,p50,p90,p99,notes
counter,runtime.fixes,120,,,,,,,
counter,runtime.invocations,8,,,,,,,
gauge,tuner.threshold,0.250000,,,,,,,
histogram,npu.invoke_ns,8,800.0,90.0,110.0,100.0,108.0,110.0,
histogram,detector.score,8,4.0,0.1,0.9,0.5,0.8,0.9,
EOF
"$STAT" diff "$DIR/base.jsonl" "$DIR/base.csv" > /dev/null ||
    fail "a CSV dump should diff clean against its JSONL twin (got $?)"
"$STAT" summary "$DIR/base.csv" | grep -q "meta: schema v2" ||
    fail "a CSV dump's '# ' comment should carry the meta header"
sed 's/^counter,runtime.invocations,8,/counter,runtime.invocations,9,/' \
    "$DIR/base.csv" > "$DIR/worse.csv"
"$STAT" diff "$DIR/base.jsonl" "$DIR/worse.csv" > /dev/null
[[ $? -eq 1 ]] || fail "a changed CSV counter should fail the diff"

# 26. profile lists the compensate stage when the compensate tier ran.
sed 's/"recover":0.000412321,/"recover":0.000412321,"compensate":0.000321,/' \
    "$DIR/prof_base.json" > "$DIR/prof_comp.json"
"$STAT" profile "$DIR/prof_comp.json" | grep -q "^  compensate .* s " ||
    fail "profile should print a compensate row"
"$STAT" profile "$DIR/prof_base.json" | grep -q "compensate" &&
    fail "a body without compensate CPU should print no compensate row"

# 27. Hostile bodies are malformed (exit 2), never a crash or a hang:
#     a 200,000-deep object, and an /incidentz "count" that is not the
#     number of rows the body carries.
{
    printf '{"schema_version":1,"count":0,"opened":0,"dumped":0,'
    printf '"suppressed":0,"incidents":'
    yes '{"a":' | head -n 200000 | tr -d '\n'
    printf 1
    yes '}' | head -n 200001 | tr -d '\n'
    echo
} > "$DIR/deep.json"
timeout 10 "$STAT" incident "$DIR/deep.json" > /dev/null 2>&1
[[ $? -eq 2 ]] || fail "a 200,000-deep body should exit 2"
for count in 1e15 -1 2 0.5; do
    sed "s/\"count\":1,/\"count\":$count,/" "$DIR/inc_base.json" \
        > "$DIR/inc_count.json"
    timeout 10 "$STAT" incident "$DIR/inc_count.json" > /dev/null 2>&1
    [[ $? -eq 2 ]] || fail "\"count\":$count with one row should exit 2"
    timeout 10 "$STAT" incident "$DIR/inc_base.json" \
        --baseline "$DIR/inc_count.json" > /dev/null 2>&1
    [[ $? -eq 2 ]] || fail "a baseline with \"count\":$count should exit 2"
done

# 28. Numbers and ports are checked before any input is read: a bad
#     one is the usage error (exit 2), and a rejected port opens no
#     socket.
for tol in abc -5 nan inf 1e999 0.3x ""; do
    "$STAT" diff "$DIR/base.jsonl" "$DIR/worse.jsonl" --tol "$tol" \
        > /dev/null 2>&1
    [[ $? -eq 2 ]] || fail "--tol '$tol' should be a usage error"
done
"$STAT" diff "$DIR/base.jsonl" "$DIR/worse.jsonl" \
    --tol-metric runtime.fixes=nan > /dev/null 2>&1
[[ $? -eq 2 ]] || fail "--tol-metric name=nan should be a usage error"
"$STAT" profile "$DIR/prof_slow.json" --baseline "$DIR/prof_base.json" \
    --tol -0.3 > /dev/null 2>&1
[[ $? -eq 2 ]] || fail "a negative profile --tol should be a usage error"
for worst in x -1 1.5 99999999999999999999999; do
    "$STAT" audit "$DIR/audit_base.jsonl" --worst "$worst" \
        > /dev/null 2>&1
    [[ $? -eq 2 ]] || fail "--worst '$worst' should be a usage error"
done
"$STAT" audit "$DIR/audit_base.jsonl" --worst 0 > "$DIR/audit_out.txt" ||
    fail "--worst 0 should be accepted (got $?)"
grep -q "worst" "$DIR/audit_out.txt" &&
    fail "--worst 0 should print no worst-K table"
for target in 127.0.0.1:70000 127.0.0.1:abc 127.0.0.1:0 \
    http://127.0.0.1:65536/profilez 127.0.0.1:; do
    timeout 5 "$STAT" profile "$target" > /dev/null 2> "$DIR/err.txt"
    [[ $? -eq 2 ]] && grep -q "^usage:" "$DIR/err.txt" ||
        fail "target $target should be a usage error"
done
timeout 5 "$STAT" incident "$DIR/inc_base.json" \
    --baseline 127.0.0.1:70000 > /dev/null 2> "$DIR/err.txt"
[[ $? -eq 2 ]] && grep -q "^usage:" "$DIR/err.txt" ||
    fail "a --baseline target's port should be checked too"

# 29. Mutation loop over every fixture above: seeded truncations, bit
#     flips, splices and inserted JSON metacharacters. Each mutant goes
#     to the subcommand that reads its fixture, with the clean fixture
#     as baseline where one is taken, and must end within 5 s with
#     exit 0, 1 or 2. On a sanitizer build, a report exits 86 or 87.
export ASAN_OPTIONS="${ASAN_OPTIONS:+$ASAN_OPTIONS:}exitcode=86"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:+$UBSAN_OPTIONS:}halt_on_error=1:exitcode=87"
RANDOM=20261018
fixtures=(base.jsonl stream.jsonl base.csv expo.prom audit_base.jsonl
          scen_base.jsonl tsdb_base.json inc_base.json prof_base.json)
tokens=('{' '}' '"' '\' '\u')
declare -A size
for f in "${fixtures[@]}"; do size[$f]=$(wc -c < "$DIR/$f"); done
rand() { echo $(( (RANDOM * 32768 + RANDOM) % $1 )); }
for i in $(seq 0 197); do
    f=${fixtures[i % ${#fixtures[@]}]}
    src="$DIR/$f"
    mut="$DIR/mut-$f"
    off=$(rand "${size[$f]}")
    case $((RANDOM % 4)) in
      0) how=truncate
         head -c "$off" "$src" > "$mut" ;;
      1) how=bitflip
         byte=$(od -An -tu1 -j "$off" -N1 "$src" | tr -d ' ')
         flipped=$(( byte ^ (1 << (RANDOM % 8)) ))
         { head -c "$off" "$src"
           printf "\\$(printf %03o "$flipped")"
           tail -c +$((off + 2)) "$src"; } > "$mut" ;;
      2) how=splice
         other=${fixtures[RANDOM % ${#fixtures[@]}]}
         { head -c "$off" "$src"
           tail -c +$(( $(rand "${size[$other]}") + 1 )) "$DIR/$other"
         } > "$mut" ;;
      3) how=insert
         { head -c "$off" "$src"
           printf '%s' "${tokens[RANDOM % ${#tokens[@]}]}"
           tail -c +$((off + 1)) "$src"; } > "$mut" ;;
    esac
    case "$f" in
      base.jsonl|stream.jsonl)
        if (( i % 2 )); then args=(summary "$mut")
        else args=(diff "$src" "$mut"); fi ;;
      base.csv) args=(diff "$DIR/base.jsonl" "$mut") ;;
      expo.prom)
        if (( i % 2 )); then args=(scrape "$mut" --check)
        else args=(scrape "$mut" --baseline "$DIR/base.jsonl"); fi ;;
      audit_base.jsonl) args=(audit "$mut" --baseline "$src") ;;
      scen_base.jsonl) args=(scenarios "$mut" --baseline "$src") ;;
      tsdb_base.json) args=(tsdb "$mut" --baseline "$src") ;;
      inc_base.json) args=(incident "$mut" --baseline "$src") ;;
      prof_base.json) args=(profile "$mut" --baseline "$src") ;;
    esac
    timeout 5 "$STAT" "${args[@]}" > /dev/null 2>&1
    rc=$?
    (( rc <= 2 )) ||
        fail "mutant $i ($how at byte $off of $f) exited $rc: ${args[*]}"
done

# 30. A live target that accepts and never answers fails within the
#     scrape time limit with exit 2, as one that refuses the
#     connection does, instead of hanging.
if command -v python3 > /dev/null; then
    python3 - "$DIR/port" <<'PY' &
import os, socket, sys
listener = socket.socket()
listener.bind(("127.0.0.1", 0))
listener.listen(4)
with open(sys.argv[1] + ".tmp", "w") as f:
    f.write(str(listener.getsockname()[1]))
os.rename(sys.argv[1] + ".tmp", sys.argv[1])
held = []
while True:
    held.append(listener.accept()[0])
PY
    silent=$!
    for _ in $(seq 100); do [[ -s "$DIR/port" ]] && break; sleep 0.1; done
    if [[ ! -s "$DIR/port" ]]; then
        kill "$silent"
        fail "the silent listener did not start"
    fi
    timeout 30 "$STAT" scrape "http://127.0.0.1:$(cat "$DIR/port")/metrics" \
        --check > /dev/null 2>&1
    rc=$?
    kill "$silent"
    wait "$silent" 2> /dev/null
    [[ $rc -eq 2 ]] ||
        fail "a listener that never answers should exit 2 (got $rc)"
else
    echo "skip: python3 missing; the silent-listener scrape is unchecked"
fi

echo "PASS: rumba-stat behaves"
