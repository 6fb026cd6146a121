/**
 * @file
 * Train-once / deploy-everywhere: the paper's Figure 4 states that
 * "the configuration parameters for both the approximate accelerator
 * and the error predictor are embedded in the binary". This example
 * plays both roles:
 *
 *   build phase  — runs the offline trainers for inversek2j, exports
 *                  the whole configuration (networks, normalizers,
 *                  checker, calibrated threshold) as an artifact file;
 *   deploy phase — brings the runtime up *from the artifact alone*
 *                  (no training) and verifies it behaves identically;
 *   fault phases — loads a deliberately truncated artifact (graceful
 *                  exact-only fallback, no crash) and then serves
 *                  under an armed NaN fault plan until the circuit
 *                  breaker trips, probes, and closes again;
 *   overload     — offers ~2x the engine's service capacity from an
 *                  open-loop bursty load generator and shows the
 *                  admission ladder shedding best-effort and
 *                  degrading silver so gold survives (set
 *                  RUMBA_ADMISSION=off to watch it fail without the
 *                  ladder; RUMBA_LOADGEN_OUT keeps the report);
 *   obs drill    — brings the sharded serving engine up on the same
 *                  artifact with the full observability stack (scrape
 *                  server, request traces, SLO monitors, per-shard
 *                  flight recorders) and storms it with NaNs until
 *                  every breaker opens, auto-dumping flight records
 *                  into RUMBA_FLIGHT_DIR.
 *
 * RUMBA_METRICS_PORT serves /metrics /healthz /statusz live for the
 * whole run; RUMBA_OBS_LINGER_MS keeps the process (and with it the
 * scrape server and /statusz provider) alive at the end so an
 * external scraper — ci.sh, curl, rumba-stat scrape — can inspect it.
 */

#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <thread>

#include "common/file.h"
#include "common/logging.h"
#include "core/runtime.h"
#include "fault/corrupt.h"
#include "fault/injector.h"
#include "obs/audit.h"
#include "obs/export.h"
#include "obs/http_exporter.h"
#include "obs/incident.h"
#include "obs/metrics.h"
#include "obs/reqtrace.h"
#include "obs/slo.h"
#include "serve/engine.h"
#include "serve/loadgen.h"

using namespace rumba;

int
main()
{
    const char* kArtifactPath = "inversek2j.rumba";

    // Live observability first: with RUMBA_METRICS_PORT set, /metrics,
    // /healthz and /statusz serve from here to process exit.
    if (obs::ObservabilityServer::StartFromEnv()) {
        std::printf("[obs] scrape server on 127.0.0.1:%u\n",
                    static_cast<unsigned>(
                        obs::ObservabilityServer::Default().Port()));
    }

    const core::RuntimeConfig config =
        core::RuntimeConfig::Builder()
            .WithChecker(core::Scheme::kHybrid)  // offline best-of.
            .WithTunerMode(core::TuningMode::kToq)
            .WithTargetErrorPct(10.0)
            .WithCompensation()  // three-tier recovery in production.
            .Build();

    // A RUMBA_FAULT_PLAN in the environment is honored — but during
    // the fault drill below, not during the build/deploy comparison,
    // which is only meaningful over a clean accelerator.
    fault::FaultInjector& injector = fault::FaultInjector::Default();
    const fault::FaultPlan env_plan = injector.Plan();
    if (injector.Armed()) {
        std::printf("[fault] RUMBA_FAULT_PLAN armed (%s); deferring "
                    "it to the fault drill\n",
                    env_plan.ToSpec().c_str());
        injector.Disarm();
    }

    // ---- Build phase ---------------------------------------------------
    std::printf("[build] training networks + checker, calibrating "
                "threshold...\n");
    core::RumbaRuntime trained(apps::MakeBenchmark("inversek2j"),
                               config);
    const core::Artifact artifact = trained.ExportArtifact();
    if (!artifact.Save(kArtifactPath)) {
        std::fprintf(stderr, "cannot write %s\n", kArtifactPath);
        return 1;
    }
    std::printf("[build] exported %s (%zu bytes, checker blob tag: "
                "%.20s..., threshold %.4f)\n",
                kArtifactPath, artifact.ToString().size(),
                artifact.predictor.c_str(), artifact.threshold);

    // ---- Deploy phase ---------------------------------------------------
    std::printf("[deploy] loading artifact — no training runs\n");
    const auto loaded = core::Artifact::TryLoad(kArtifactPath);
    if (!loaded.ok()) {
        std::fprintf(stderr, "artifact load: %s\n",
                     loaded.status().ToString().c_str());
        return 1;
    }
    auto deployed_or = core::RumbaRuntime::FromArtifact(*loaded, config);
    if (!deployed_or.ok()) {
        std::fprintf(stderr, "artifact deploy: %s\n",
                     deployed_or.status().ToString().c_str());
        return 1;
    }
    core::RumbaRuntime& deployed = **deployed_or;

    // The whole test set flattened once: every batch below is a
    // zero-copy BatchView window into this one buffer (the hot-path
    // invocation form).
    const auto inputs = deployed.Bench().TestInputs();
    const size_t in_w = deployed.Bench().NumInputs();
    const size_t out_w = deployed.Bench().NumOutputs();
    const std::vector<double> flat_inputs = core::FlattenBatch(inputs);

    constexpr size_t kCompareElements = 2000;
    const core::BatchView batch(flat_inputs.data(), kCompareElements,
                                in_w);
    std::vector<double> out_trained(kCompareElements * out_w);
    std::vector<double> out_deployed(kCompareElements * out_w);
    const auto a = trained.ProcessInvocation(batch, out_trained.data());
    const auto b =
        deployed.ProcessInvocation(batch, out_deployed.data());

    size_t mismatches = 0;
    for (size_t i = 0; i < out_trained.size(); ++i)
        mismatches += out_trained[i] != out_deployed[i];

    std::printf("\n%-24s %-10s %-14s %s\n", "runtime", "fixes",
                "output err %", "threshold");
    std::printf("%-24s %-10zu %-14.2f %.4f\n", "trained (build host)",
                a.fixes, a.output_error_pct, a.threshold_used);
    std::printf("%-24s %-10zu %-14.2f %.4f\n", "deployed (artifact)",
                b.fixes, b.output_error_pct, b.threshold_used);
    std::printf("\noutput mismatches between the two: %zu of %zu "
                "values — the deployed system is\nbit-identical to the "
                "trained one without ever running the trainers.\n",
                mismatches, out_trained.size());

    // ---- Serving loop ----------------------------------------------------
    // Serve the rest of the test set in small batches, the way a
    // deployed binary serves requests — but from a *stale* artifact
    // whose embedded threshold is far too loose (as if the binary were
    // built long before deployment). The online TOQ tuner walks the
    // threshold back toward the quality target between invocations, so
    // a RUMBA_STREAM_OUT capture of this loop records the whole
    // convergence trajectory.
    core::Artifact stale = artifact;
    stale.threshold = artifact.threshold * 8.0;
    core::RumbaRuntime serving(stale, config);
    std::printf("\n[deploy] serving from a stale artifact (threshold "
                "%.4f, calibrated %.4f)\n",
                stale.threshold, artifact.threshold);
    constexpr size_t kServeBatch = 250;
    size_t served = 0;
    size_t serve_fixes = 0;
    std::vector<double> serve_out(kServeBatch * out_w);
    for (size_t start = kCompareElements;
         start + kServeBatch <= inputs.size() && served < 48;
         start += kServeBatch, ++served) {
        const core::BatchView serve(flat_inputs.data() + start * in_w,
                                    kServeBatch, in_w);
        const auto r = serving.ProcessInvocation(serve,
                                                 serve_out.data());
        serve_fixes += r.fixes;
    }
    std::printf("[deploy] served %zu batches of %zu (%zu fixes); the "
                "tuner walked the threshold\n  %.4f -> %.4f "
                "(calibrated %.4f)\n",
                served, kServeBatch, serve_fixes, stale.threshold,
                serving.Threshold(), artifact.threshold);

    // ---- Corrupt-artifact fallback ---------------------------------------
    // A shipped artifact can be truncated or bit-rotted on disk. The
    // v2 blob carries a checksum, TryLoad() reports the damage instead
    // of dying, and the application degrades to exact-only execution.
    const char* kCorruptPath = "inversek2j.corrupt.rumba";
    std::string corrupt_blob = artifact.ToString();
    fault::TruncateBlob(&corrupt_blob, /*keep_fraction=*/0.6);
    const bool corrupt_written = WriteFile(kCorruptPath, corrupt_blob);
    const auto damaged = core::Artifact::TryLoad(kCorruptPath);
    const bool corrupt_rejected = corrupt_written && !damaged.ok();
    std::remove(kCorruptPath);
    if (corrupt_rejected) {
        std::printf("\n[fault] warning: artifact rejected (%s); "
                    "falling back to exact-only execution\n",
                    damaged.status().ToString().c_str());
        // Exact-only fallback: the kernel runs on the CPU, quality is
        // exact, and the binary keeps serving instead of crashing.
        std::vector<double> exact_out(deployed.Bench().NumOutputs());
        for (size_t i = 0; i < kServeBatch; ++i)
            deployed.Bench().RunExact(inputs[i].data(),
                                      exact_out.data());
        std::printf("[fault] served %zu elements exactly from the "
                    "fallback path\n", kServeBatch);
    } else if (!corrupt_written) {
        std::printf("\n[fault] ERROR: could not write %s\n", kCorruptPath);
    } else {
        std::printf("\n[fault] ERROR: truncated artifact was accepted "
                    "— checksum verification failed to catch it\n");
    }

    // ---- Fault drill -----------------------------------------------------
    // Arm a NaN fault plan against a fresh deployed runtime and serve
    // until the circuit breaker trips (degrading to exact-only), then
    // disarm and keep serving until its canary probes close it again:
    // one full closed -> open -> half-open -> closed episode, printed
    // below from each invocation's report as the breaker state moves
    // (and visible in the breaker.* series of any stream capture).
    core::BreakerConfig drill_breaker;
    drill_breaker.trip_after = 2;
    drill_breaker.open_invocations = 2;
    drill_breaker.close_after = 2;
    const core::RuntimeConfig drill_config =
        core::RuntimeConfig::Builder(config)
            .WithBreaker(drill_breaker)
            .Build();
    core::RumbaRuntime drill(artifact, drill_config);

    fault::FaultPlan drill_plan = env_plan;
    if (drill_plan.Empty()) {
        std::string plan_error;
        if (!fault::FaultPlan::Parse("seed=7;npu.output_nan=0.02",
                                     &drill_plan, &plan_error)) {
            std::fprintf(stderr, "drill plan: %s\n",
                         plan_error.c_str());
            return 1;
        }
    }
    injector.Arm(drill_plan);
    std::printf("\n[fault] drill armed: %s\n",
                drill_plan.ToSpec().c_str());

    core::BreakerState last_state = drill.Breaker().State();
    size_t drill_batches = 0;
    std::vector<double> drill_in;
    std::vector<double> drill_out(kServeBatch * out_w);
    auto drill_batch = [&](size_t index) {
        drill_in.clear();
        drill_in.reserve(kServeBatch * in_w);
        for (size_t k = 0; k < kServeBatch; ++k) {
            const auto& row =
                inputs[(index * kServeBatch + k) % inputs.size()];
            drill_in.insert(drill_in.end(), row.begin(), row.end());
        }
        const auto r = drill.ProcessInvocation(
            core::BatchView(drill_in.data(), kServeBatch, in_w),
            drill_out.data());
        ++drill_batches;
        if (r.breaker_state != last_state) {
            std::printf("[fault] batch %zu: breaker %s -> %s "
                        "(non-finite %zu, exact %zu)\n",
                        drill_batches,
                        core::BreakerStateName(last_state),
                        core::BreakerStateName(r.breaker_state),
                        r.non_finite_outputs, r.exact_elements);
            last_state = r.breaker_state;
        }
        return r;
    };
    // Faulty phase: serve until the NaN storm opens the breaker.
    for (size_t i = 0;
         i < 16 && drill.Breaker().State() != core::BreakerState::kOpen;
         ++i)
        drill_batch(i);
    // Outage over: the accelerator heals; canary probes close it.
    injector.Disarm();
    for (size_t i = 16;
         i < 32 && drill.Breaker().Closes() == 0; ++i)
        drill_batch(i);

    const double drill_error = drill.Summary().MeanOutputErrorPct();
    const bool drill_ok = drill.Breaker().Trips() >= 1 &&
                          drill.Breaker().Closes() >= 1 &&
                          drill_error <= config.tuner.target_error_pct;
    std::printf("[fault] drill %s: %zu batches, %zu trips, %zu "
                "probes, %zu closes, mean error %.2f%% (target "
                "%.1f%%)\n",
                drill_ok ? "passed" : "FAILED", drill_batches,
                drill.Breaker().Trips(), drill.Breaker().Probes(),
                drill.Breaker().Closes(), drill_error,
                config.tuner.target_error_pct);

    // ---- Audit drill -----------------------------------------------------
    // The ground-truth auditor is the only instrument that can see a
    // *miscalibrated checker*: arm a verdict-flipping fault plan so
    // the checker silently accepts elements it should have recovered,
    // and let the shadow exact re-execution path measure what the
    // proxy metrics cannot — false-negative accepts, the true (not
    // predicted) TOQ-violation rate, and an audited-quality SLO burn.
    serve::ServeConfig audit_config;
    audit_config.shards = 2;
    audit_config.queue_capacity = 32;
    audit_config.audit.sample_every = 1;  // drill: audit everything.
    audit_config.audit.queue_capacity = 512;
    audit_config.audit.threads = 2;
    audit_config.audit.margin_pct = 0.0;  // audited bound = target.

    auto audit_engine_or = serve::ShardedEngine::Create(
        artifact, config, audit_config);
    if (!audit_engine_or.ok()) {
        std::fprintf(stderr, "audit engine: %s\n",
                     audit_engine_or.status().ToString().c_str());
        return 1;
    }
    serve::ShardedEngine& audit_engine = **audit_engine_or;

    std::atomic<size_t> audited_slo_fires{0};
    if (audit_engine.Auditor() != nullptr &&
        audit_engine.Auditor()->Slo() != nullptr) {
        audit_engine.Auditor()->Slo()->SetAlertSink(
            [&audited_slo_fires](const obs::AlarmEdge& alert) {
                if (alert.firing)
                    audited_slo_fires.fetch_add(
                        1, std::memory_order_relaxed);
                std::printf("[audit] SLO '%s' %s (%s) — measured, not "
                            "predicted\n",
                            alert.name.c_str(),
                            alert.firing ? "FIRING" : "cleared",
                            alert.detail.c_str());
            });
    }

    fault::FaultPlan audit_plan;
    std::string audit_plan_error;
    if (!fault::FaultPlan::Parse("seed=13;checker.mispredict=0.4",
                                 &audit_plan, &audit_plan_error)) {
        std::fprintf(stderr, "audit plan: %s\n",
                     audit_plan_error.c_str());
        return 1;
    }
    injector.Arm(audit_plan);
    std::printf("\n[audit] drill armed: %s — checker verdicts flip, "
                "shadow exact re-execution watches\n",
                audit_plan.ToSpec().c_str());

    std::set<uint64_t> audit_trace_ids;
    for (size_t r = 0; r < 32; ++r) {
        serve::InvocationRequest request;
        const size_t start =
            (r * kServeBatch) % (inputs.size() - kServeBatch);
        request.inputs.assign(
            flat_inputs.begin()
                + static_cast<ptrdiff_t>(start * in_w),
            flat_inputs.begin()
                + static_cast<ptrdiff_t>((start + kServeBatch) * in_w));
        request.count = kServeBatch;
        request.width = in_w;
        request.shard = static_cast<int>(r % audit_config.shards);
        const auto result =
            audit_engine.Submit(std::move(request)).get();
        if (result.status.ok())
            audit_trace_ids.insert(result.trace_id);
    }
    injector.Disarm();
    audit_engine.Drain();

    bool audit_ok = false;
    if (audit_engine.Auditor() != nullptr) {
        obs::QualityAuditor& auditor = *audit_engine.Auditor();
        auditor.Flush();
        const obs::AuditorStats audit_stats = auditor.Stats();

        // Every audited TOQ miss must join back to a kept request
        // trace through its trace id (the span tree of the request
        // that produced the bad output).
        size_t misses = 0, misses_joined = 0;
        std::set<uint64_t> kept_audited_ids;
        for (const auto& trace :
             obs::RequestTraceCollector::Default().Dump()) {
            if (trace.audited)
                kept_audited_ids.insert(trace.trace_id);
        }
        for (const auto& result : auditor.RecentResults()) {
            if (!result.toq_violation)
                continue;
            ++misses;
            misses_joined +=
                kept_audited_ids.count(result.trace_id) > 0 &&
                audit_trace_ids.count(result.trace_id) > 0;
        }

        audit_ok = audit_stats.audited > 0 &&
                   audit_stats.false_negatives > 0 &&
                   audit_stats.toq_violations > 0 &&
                   audited_slo_fires.load() >= 1 &&
                   misses == misses_joined;
        std::printf(
            "[audit] drill %s: %llu audited (%llu forced, %llu "
            "elements), true TOQ violations %llu (rate %.3f, bound "
            "%.2f%%)\n",
            audit_ok ? "passed" : "FAILED",
            static_cast<unsigned long long>(audit_stats.audited),
            static_cast<unsigned long long>(audit_stats.forced),
            static_cast<unsigned long long>(
                audit_stats.audited_elements),
            static_cast<unsigned long long>(
                audit_stats.toq_violations),
            audit_stats.toq_violation_rate,
            audit_stats.toq_bound_pct);
        std::printf(
            "[audit] checker calibration under the flip plan: "
            "precision %.3f, recall %.3f (%llu false-negative "
            "accepts, %llu false-positive recoveries)\n",
            audit_stats.precision, audit_stats.recall,
            static_cast<unsigned long long>(
                audit_stats.false_negatives),
            static_cast<unsigned long long>(
                audit_stats.false_positives));
        std::printf("[audit] %zu of %zu audited misses join a kept "
                    "request trace; audited SLO fired %zu time(s)\n",
                    misses_joined, misses, audited_slo_fires.load());
        std::printf("[audit] statusz: %s\n",
                    audit_engine.StatuszJson().c_str());
    } else {
        std::printf("[audit] drill skipped: auditor disabled "
                    "(RUMBA_AUDIT_SAMPLE_N=0?)\n");
        audit_ok = std::getenv("RUMBA_AUDIT_SAMPLE_N") != nullptr;
    }
    audit_engine.Shutdown();

    // ---- Overload drill --------------------------------------------------
    // Surviving overload: an *open-loop* bursty load generator offers
    // ~2x the engine's service capacity regardless of how the engine
    // copes (a closed-loop driver could never overload anything), and
    // deadline-aware admission control sheds best-effort traffic and
    // degrades silver so gold rides the burst out. Set
    // RUMBA_ADMISSION=off to watch the same burst take gold down with
    // everything else, and RUMBA_LOADGEN_OUT=loadgen.jsonl to keep
    // the per-class report.
    serve::ServeConfig overload_config;
    overload_config.shards = 2;
    overload_config.queue_capacity = 32;
    overload_config.emulated_device_ns = 50'000;  // 50 us / element.
    if (const char* flight_dir = std::getenv("RUMBA_FLIGHT_DIR");
        flight_dir != nullptr && flight_dir[0] != '\0')
        overload_config.flight.dump_dir = flight_dir;

    auto overload_engine_or = serve::ShardedEngine::Create(
        artifact, config, overload_config);
    if (!overload_engine_or.ok()) {
        std::fprintf(stderr, "overload engine: %s\n",
                     overload_engine_or.status().ToString().c_str());
        return 1;
    }
    serve::ShardedEngine& overload_engine = **overload_engine_or;
    const bool admission_on =
        overload_engine.Admission()->config().enabled;

    serve::LoadGenConfig load;
    load.arrival = serve::ArrivalProcess::kBursty;
    // Service time is pinned by the emulated device: 4 elements x
    // 50 us over 2 shards = 10k req/s capacity. Mean 5k req/s with
    // 4x bursts = 2x capacity at the peaks.
    load.rate_hz = 5000.0;
    load.burst_factor = 4.0;
    load.duration_ns = 300'000'000ull;  // 300 ms of schedule.
    load.elements = 4;
    load.seed = 17;
    load.input_pool = flat_inputs;
    load.gold_deadline_ns = 50'000'000ull;
    load.silver_deadline_ns = 100'000'000ull;
    load.best_effort_deadline_ns = 30'000'000ull;
    if (const char* loadgen_out = std::getenv("RUMBA_LOADGEN_OUT");
        loadgen_out != nullptr && loadgen_out[0] != '\0')
        load.jsonl_out = loadgen_out;

    std::printf("\n[overload] drill armed: bursty open loop, mean "
                "%.0f req/s with %.0fx bursts vs ~10000 req/s "
                "capacity, admission %s\n",
                load.rate_hz, load.burst_factor,
                admission_on ? "on" : "OFF (RUMBA_ADMISSION=off)");
    serve::LoadGenerator overload_gen(overload_engine, load);
    const serve::LoadReport overload_report = overload_gen.Run();
    overload_engine.Shutdown();

    uint64_t overload_submitted = 0;
    bool overload_accounted = true;
    for (size_t c = 0; c < serve::kNumQualityClasses; ++c) {
        const serve::ClassStats& cls = overload_report.per_class[c];
        overload_submitted += cls.submitted;
        overload_accounted =
            overload_accounted &&
            cls.submitted == cls.ok + cls.degraded + cls.compensated +
                                 cls.bypassed + cls.shed +
                                 cls.expired + cls.rejected +
                                 cls.cancelled + cls.failed;
        std::printf("[overload] %-11s submitted %-5llu served %-5llu "
                    "(compensated %llu, degraded %llu, bypassed "
                    "%llu) shed %-4llu "
                    "expired %-4llu rejected %-4llu p99 %.1f ms\n",
                    serve::QualityClassName(
                        static_cast<serve::QualityClass>(c)),
                    static_cast<unsigned long long>(cls.submitted),
                    static_cast<unsigned long long>(cls.Served()),
                    static_cast<unsigned long long>(cls.compensated),
                    static_cast<unsigned long long>(cls.degraded),
                    static_cast<unsigned long long>(cls.bypassed),
                    static_cast<unsigned long long>(cls.shed),
                    static_cast<unsigned long long>(cls.expired),
                    static_cast<unsigned long long>(cls.rejected),
                    cls.LatencyQuantileNs(0.99) / 1e6);
    }
    const serve::ClassStats& overload_gold =
        overload_report.per_class[static_cast<size_t>(
            serve::QualityClass::kGold)];
    // Timing-free invariants only (CI runs this under sanitizers):
    // nothing lost silently, expired work never executed, and with
    // admission on gold is never shed or check-bypassed.
    const bool overload_ok =
        overload_accounted &&
        overload_submitted == overload_report.offered &&
        overload_report.expired_with_output == 0 &&
        overload_report.Total().failed == 0 &&
        (!admission_on ||
         (overload_gold.shed == 0 && overload_gold.bypassed == 0));
    std::printf("[overload] drill %s: %llu offered, %llu late "
                "submits, admission state '%s' after the storm%s\n",
                overload_ok ? "passed" : "FAILED",
                static_cast<unsigned long long>(
                    overload_report.offered),
                static_cast<unsigned long long>(
                    overload_report.late_submits),
                serve::AdmissionStateName(
                    overload_engine.Admission()->state()),
                load.jsonl_out.empty()
                    ? ""
                    : (" — report in " + load.jsonl_out).c_str());

    // ---- Observability drill ---------------------------------------------
    // The serving engine ties the whole observability stack together:
    // every Submit gets a request trace, every completion lands in its
    // shard's flight recorder, SLO monitors watch latency and quality
    // burn rates, and /statusz reports per-shard state while the
    // engine lives. Storm a two-shard engine with NaNs until both
    // breakers open — each trip auto-dumps that shard's flight
    // recorder (the requests leading into the incident) to disk.
    serve::ServeConfig obs_config;
    obs_config.shards = 2;
    obs_config.queue_capacity = 32;
    obs_config.trace.sample_every = 4;
    // Flight dumps land in RUMBA_FLIGHT_DIR; explicitly the current
    // working directory otherwise (flight-shard*.jsonl is gitignored,
    // but point this somewhere durable in a real deployment).
    obs_config.flight.dump_dir = ".";
    if (const char* flight_dir = std::getenv("RUMBA_FLIGHT_DIR");
        flight_dir != nullptr && flight_dir[0] != '\0')
        obs_config.flight.dump_dir = flight_dir;

    auto obs_engine_or = serve::ShardedEngine::Create(
        artifact, drill_config, obs_config);
    if (!obs_engine_or.ok()) {
        std::fprintf(stderr, "obs engine: %s\n",
                     obs_engine_or.status().ToString().c_str());
        return 1;
    }
    serve::ShardedEngine& obs_engine = **obs_engine_or;

    // The alert sink is where a deployment pages an operator or
    // forces a breaker canary probe; here it narrates the edges.
    std::atomic<size_t> slo_edges{0};
    const auto alert_sink = [&slo_edges](const obs::AlarmEdge& alert) {
        slo_edges.fetch_add(1, std::memory_order_relaxed);
        std::printf("[obs] SLO '%s' %s (%s)\n", alert.name.c_str(),
                    alert.firing ? "FIRING — requesting breaker probe"
                                 : "cleared",
                    alert.detail.c_str());
    };
    if (obs_engine.QualitySlo() != nullptr)
        obs_engine.QualitySlo()->SetAlertSink(alert_sink);
    if (obs_engine.LatencySlo() != nullptr)
        obs_engine.LatencySlo()->SetAlertSink(alert_sink);

    const uint64_t dumps_before =
        obs::Registry::Default()
            .GetCounter("serve.flight_dumps")
            ->Value();

    fault::FaultPlan storm_plan;
    std::string storm_error;
    if (!fault::FaultPlan::Parse("seed=11;npu.output_nan=0.5",
                                 &storm_plan, &storm_error)) {
        std::fprintf(stderr, "storm plan: %s\n", storm_error.c_str());
        return 1;
    }
    injector.Arm(storm_plan);
    const auto both_open = [&] {
        for (size_t s = 0; s < obs_engine.Shards(); ++s) {
            if (obs_engine.Runtime(s).Breaker().State() !=
                core::BreakerState::kOpen)
                return false;
        }
        return true;
    };
    size_t obs_requests = 0;
    for (size_t r = 0; r < 32 && !both_open(); ++r, ++obs_requests) {
        serve::InvocationRequest request;
        const size_t start =
            (r * kServeBatch) % (inputs.size() - kServeBatch);
        request.inputs.assign(
            flat_inputs.begin()
                + static_cast<ptrdiff_t>(start * in_w),
            flat_inputs.begin()
                + static_cast<ptrdiff_t>((start + kServeBatch) * in_w));
        request.count = kServeBatch;
        request.width = in_w;
        request.shard = static_cast<int>(r % obs_config.shards);
        obs_engine.Submit(std::move(request)).get();
    }
    injector.Disarm();
    obs_engine.Drain();

    // Forensics: the NaN storm must yield at least one correlated
    // incident — breaker-open edges (synchronous, from ProcessRequest)
    // joining the fault.injected.* deltas the tsdb sampler scans on
    // its next tick. The fault side rides the sampler, so give it a
    // few periods to land before forcing the open incident closed;
    // FinalizeOpenNow makes the assertion (and any RUMBA_INCIDENT_DIR
    // dump) deterministic instead of racing the 2 s deadline.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    obs::IncidentManager::Default().FinalizeOpenNow();
    const auto incidents = obs::IncidentManager::Default().List();
    size_t correlated = 0;
    for (const auto& incident : incidents)
        if (incident.sources >= 2)
            ++correlated;
    const bool forensics_ok = correlated >= 1;
    std::printf("\n[obs] forensics %s: %zu incident bundle(s), %zu "
                "correlating >=2 signal sources, %llu dumped to disk, "
                "%llu suppressed by rate limit\n",
                forensics_ok ? "passed" : "FAILED", incidents.size(),
                correlated,
                static_cast<unsigned long long>(
                    obs::IncidentManager::Default().Dumped()),
                static_cast<unsigned long long>(
                    obs::IncidentManager::Default().Suppressed()));
    for (const auto& incident : incidents)
        std::printf("[obs]   incident %llu: sources=%zu signals=%zu "
                    "joins=%zu kinds=%s%s%s\n",
                    static_cast<unsigned long long>(incident.id),
                    incident.sources, incident.signals, incident.joins,
                    incident.kinds.c_str(),
                    incident.path.empty() ? "" : " -> ",
                    incident.path.c_str());

    size_t obs_trips = 0;
    for (size_t s = 0; s < obs_engine.Shards(); ++s)
        obs_trips += obs_engine.Runtime(s).Breaker().Trips();
    const uint64_t flight_dumps =
        obs::Registry::Default()
            .GetCounter("serve.flight_dumps")
            ->Value() -
        dumps_before;
    const bool obs_ok =
        obs_trips >= 1 && flight_dumps >= 1 && forensics_ok;
    std::printf("\n[obs] drill %s: %zu requests, %zu breaker trips, "
                "%llu flight dumps into %s, %zu SLO edges\n",
                obs_ok ? "passed" : "FAILED", obs_requests, obs_trips,
                static_cast<unsigned long long>(flight_dumps),
                obs_config.flight.dump_dir.c_str(),
                slo_edges.load());
    std::printf("[obs] statusz: %s\n",
                obs_engine.StatuszJson().c_str());

    // Keep the engine (and its /statusz provider) up long enough for
    // an external scraper to look around, when asked to. The value is
    // plain decimal milliseconds, read whole ("8s" is not 8 ms).
    if (const char* linger_env = std::getenv("RUMBA_OBS_LINGER_MS")) {
        const char* end = linger_env + std::strlen(linger_env);
        unsigned linger_ms = 0;
        const auto [ptr, ec] = std::from_chars(linger_env, end, linger_ms);
        if (ec != std::errc() || ptr != end) {
            Warn("RUMBA_OBS_LINGER_MS: '%s' is not a whole number of "
                 "milliseconds; not lingering",
                 linger_env);
        } else if (linger_ms > 0) {
            std::printf("[obs] lingering %u ms for scrapers...\n",
                        linger_ms);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(linger_ms));
        }
    }
    obs_engine.Shutdown();

    // ---- Telemetry -------------------------------------------------------
    // Everything above was measured by the obs subsystem as a side
    // effect; snapshot it, show the table, and honor RUMBA_METRICS_OUT
    // (e.g. RUMBA_METRICS_OUT=metrics.jsonl ./build/examples/deploy).
    obs::ToTable(obs::Registry::Default().Snapshot())
        .Print("run telemetry (src/obs)");
    const std::string metrics_path = obs::ExportIfConfigured();
    if (!metrics_path.empty())
        std::printf("telemetry written to %s\n", metrics_path.c_str());

    return mismatches == 0 && a.fixes == b.fixes && corrupt_rejected &&
                   drill_ok && audit_ok && overload_ok && obs_ok
               ? 0
               : 1;
}
