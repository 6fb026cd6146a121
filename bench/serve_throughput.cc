/**
 * @file
 * Serving-layer throughput: invocation throughput of the sharded
 * engine (src/serve) at 1 vs 4 shards over one deployed artifact.
 *
 * The paper's Figure 8 overlap argument applied to serving: an
 * invocation's latency is CPU time (normalize, check, recover,
 * verify) plus accelerator occupancy. The accelerator part is modeled
 * (ServeConfig::emulated_device_ns) and calibrated at startup to 4x
 * the *measured* CPU time per element on this machine, so the bench
 * is meaningful on any host — including single-core CI runners, where
 * shards overlap device wait rather than CPU time, exactly as N
 * accelerators behind one host core would.
 *
 * Modes:
 *   (default)   shard sweep: throughput at 4 shards vs 1, and the
 *               observability tax below. It reports both figures and
 *               asserts neither: one run times the host as much as
 *               the engine, so ci.sh's perf tier gates the median of
 *               five runs (ratio >= 2.5x, overhead < 5%).
 *   --smoke     quick concurrent submit/drain/shutdown pass (for the
 *               sanitizer suites); no timing assertions.
 *   --gate      deterministic synchronous pass for the telemetry
 *               baseline (the bench_serve_speedup ctest entry diffs
 *               its RUMBA_METRICS_OUT snapshot against bench/baselines
 *               with rumba-stat). Submission waits for each future,
 *               so every counter is reproducible; concurrency (and
 *               with it last-writer gauge races) is deliberately
 *               absent. Exits nonzero unless every request is served
 *               and every element accounted for.
 *
 * The observability tax is the same 1-shard stream with request
 * tracing, flight recording, SLO monitoring, the cost profiler
 * (per-stage CPU attribution + the efficiency estimator), the
 * forensics tsdb sampler + incident correlator, and a live scrape
 * server against the same stream with all of it off: the extra CPU
 * as a share of the serving wall time.
 *
 * The default sweep appends one perf-trajectory record to
 * BENCH_serve_throughput.json at the source root, whatever the working
 * directory (override the path with RUMBA_BENCH_TRAJECTORY; empty
 * disables), so the repo carries a commit-over-commit throughput trend
 * next to the metric baselines. A record that cannot be appended (a
 * failed open, a short write, a failed close) is reported and the
 * sweep exits nonzero.
 */

#include <ctime>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/batch_view.h"
#include "core/runtime.h"
#include "obs/export.h"
#include "obs/http_exporter.h"
#include "obs/timer.h"
#include "serve/engine.h"

using namespace rumba;

namespace {

constexpr size_t kRequests = 16;
constexpr size_t kBatch = 500;

core::RuntimeConfig
DeployConfig()
{
    return core::RuntimeConfig::Builder()
        .WithChecker(core::Scheme::kTree)
        .WithTunerMode(core::TuningMode::kToq)
        .WithTargetErrorPct(benchutil::kTargetErrorPct)
        .WithTrainEpochs(60)
        .WithElementCaps(2000, 2000)
        .Build();
}

/** Flat request stream: kRequests x kBatch elements, wrapping over
 *  the kernel's test inputs. */
std::vector<double>
RequestStream(const apps::Benchmark& bench)
{
    const auto inputs = bench.TestInputs();
    const size_t in_w = bench.NumInputs();
    std::vector<double> flat;
    flat.reserve(kRequests * kBatch * in_w);
    for (size_t e = 0; e < kRequests * kBatch; ++e) {
        const auto& row = inputs[e % inputs.size()];
        flat.insert(flat.end(), row.begin(), row.end());
    }
    return flat;
}

serve::InvocationRequest
NthRequest(const std::vector<double>& stream, size_t r, size_t in_w)
{
    serve::InvocationRequest request;
    request.count = kBatch;
    request.width = in_w;
    request.inputs.assign(
        stream.begin() + static_cast<ptrdiff_t>(r * kBatch * in_w),
        stream.begin() +
            static_cast<ptrdiff_t>((r + 1) * kBatch * in_w));
    return request;
}

/** Measured CPU nanoseconds per element of one deployed runtime. */
uint64_t
CalibrateCpuNsPerElement(const core::Artifact& artifact,
                         const std::vector<double>& stream, size_t in_w,
                         size_t out_w)
{
    auto runtime =
        core::RumbaRuntime::FromArtifact(artifact, DeployConfig());
    if (!runtime.ok()) {
        std::fprintf(stderr, "calibration deploy: %s\n",
                     runtime.status().ToString().c_str());
        std::exit(1);
    }
    std::vector<double> out(kBatch * out_w);
    const core::BatchView warmup(stream.data(), kBatch, in_w);
    (*runtime)->ProcessInvocation(warmup, out.data());  // warm caches.
    const uint64_t start = obs::NowNs();
    constexpr size_t kCalibrationRounds = 4;
    for (size_t r = 0; r < kCalibrationRounds; ++r) {
        const core::BatchView batch(
            stream.data() + r * kBatch * in_w, kBatch, in_w);
        (*runtime)->ProcessInvocation(batch, out.data());
    }
    const uint64_t elapsed = obs::NowNs() - start;
    return std::max<uint64_t>(1,
                              elapsed / (kCalibrationRounds * kBatch));
}

/** Wall seconds to serve the whole stream @p repeats times on
 *  @p shards shards (one engine lifetime for all repeats, so
 *  fixed create/shutdown costs — thread spawns, the forensics
 *  sampler's final flush tick — amortize across the serving work).
 *  @p instrumented false turns the whole observability stack off
 *  (no request traces, no flight recorder, no SLO monitors, no
 *  ground-truth audit sampler, no forensics pipeline). */
double
TimedRun(const core::Artifact& artifact, size_t shards,
         uint64_t device_ns, const std::vector<double>& stream,
         size_t in_w, bool instrumented = true, size_t repeats = 1)
{
    serve::ServeConfig config;
    config.shards = shards;
    config.queue_capacity = kRequests;  // admit the whole stream.
    config.emulated_device_ns = device_ns;
    if (!instrumented) {
        config.trace.enabled = false;
        config.flight.capacity = 0;
        config.slo.enabled = false;
        config.audit.enabled = false;
        config.profile.enabled = false;
        config.forensics.enabled = false;
    }
    auto engine = serve::ShardedEngine::Create(artifact, DeployConfig(),
                                               config);
    if (!engine.ok()) {
        std::fprintf(stderr, "engine: %s\n",
                     engine.status().ToString().c_str());
        std::exit(1);
    }

    const uint64_t start = obs::NowNs();
    for (size_t pass = 0; pass < repeats; ++pass) {
        std::vector<std::future<serve::InvocationResult>> futures;
        futures.reserve(kRequests);
        for (size_t r = 0; r < kRequests; ++r)
            futures.push_back(
                (*engine)->Submit(NthRequest(stream, r, in_w)));
        (*engine)->Drain();
        for (auto& future : futures) {
            const serve::InvocationResult result = future.get();
            if (!result.status.ok()) {
                std::fprintf(stderr, "request failed: %s\n",
                             result.status.ToString().c_str());
                std::exit(1);
            }
        }
    }
    const double seconds =
        static_cast<double>(obs::NowNs() - start) * 1e-9;
    (*engine)->Shutdown();
    return seconds;
}

int
RunSmoke(const core::Artifact& artifact,
         const std::vector<double>& stream, size_t in_w)
{
    serve::ServeConfig config;
    config.shards = 2;
    config.queue_capacity = 8;
    auto engine = serve::ShardedEngine::Create(artifact, DeployConfig(),
                                               config);
    if (!engine.ok()) {
        std::fprintf(stderr, "engine: %s\n",
                     engine.status().ToString().c_str());
        return 1;
    }
    // Two client threads race the submit path; backpressure rejects
    // are acceptable, anything else is not.
    std::vector<std::thread> clients;
    std::atomic<size_t> failures{0};
    for (size_t t = 0; t < 2; ++t) {
        clients.emplace_back([&, t] {
            for (size_t r = 0; r < kRequests / 2; ++r) {
                auto future = (*engine)->Submit(NthRequest(
                    stream, (t * kRequests / 2 + r), in_w));
                const auto result = future.get();
                if (!result.status.ok() &&
                    result.status.code() !=
                        core::StatusCode::kResourceExhausted)
                    failures.fetch_add(1);
            }
        });
    }
    for (auto& client : clients)
        client.join();
    (*engine)->Drain();
    (*engine)->Shutdown();
    std::printf("serve smoke: %zu unexpected failures\n",
                failures.load());
    return failures.load() == 0 ? 0 : 1;
}

/**
 * Append one perf-trajectory record of the default sweep to the
 * BENCH_serve_throughput.json JSONL trend file: commit, source sha,
 * date, shard count, throughput and the instrumentation overhead. The
 * source sha (RUMBA_SOURCE_SHA, stamped by bench/CMakeLists.txt)
 * digests src/ and bench/, so records of two uncommitted trees that
 * git describe stamps alike read apart. Sanitized builds are stamped
 * but not performance-representative; consumers filter on the
 * "sanitizers" field. False, after a message, when the open fails,
 * the write is short or the close fails (as WriteFile).
 */
bool
AppendBenchTrajectory(size_t shards, size_t requests, size_t elements,
                      double throughput_eps, double overhead_pct)
{
    const char* path = std::getenv("RUMBA_BENCH_TRAJECTORY");
    if (path == nullptr)
        path = RUMBA_SOURCE_ROOT "/BENCH_serve_throughput.json";
    if (path[0] == '\0')
        return true;  // explicit opt-out.
    std::FILE* f = std::fopen(path, "a");
    if (f == nullptr) {
        std::fprintf(stderr, "[serve_throughput] cannot append %s\n",
                     path);
        return false;
    }
    const obs::RunMetadata meta = obs::CollectRunMetadata();
    std::string line =
        "{\"bench\":\"serve_throughput\",\"schema_version\":1";
    line += ",\"mode\":\"sweep\"";
    line += ",\"commit\":" + obs::JsonQuote(meta.git_describe);
    line += ",\"source_sha\":" + obs::JsonQuote(RUMBA_SOURCE_SHA);
    line += ",\"date\":" + obs::JsonQuote(meta.wall_time_iso8601);
    line += ",\"build_type\":" + obs::JsonQuote(meta.build_type);
    line += ",\"sanitizers\":" + obs::JsonQuote(meta.sanitizers);
    line += ",\"shards\":" + std::to_string(shards);
    line += ",\"requests\":" + std::to_string(requests);
    line += ",\"elements\":" + std::to_string(elements);
    line += ",\"throughput_eps\":" + obs::JsonNum(throughput_eps);
    line += ",\"overhead_pct\":" + obs::JsonNum(overhead_pct);
    line += "}\n";
    const bool written =
        std::fwrite(line.data(), 1, line.size(), f) == line.size();
    if (std::fclose(f) != 0 || !written) {
        std::fprintf(stderr, "[serve_throughput] could not write %s\n",
                     path);
        return false;
    }
    std::printf("trajectory record appended to %s, source_sha %s\n",
                path, RUMBA_SOURCE_SHA);
    return true;
}

int
RunGate(const core::Artifact& artifact,
        const std::vector<double>& stream, size_t in_w)
{
    serve::ServeConfig config;
    config.shards = 2;
    config.queue_capacity = 4;
    auto engine = serve::ShardedEngine::Create(artifact, DeployConfig(),
                                               config);
    if (!engine.ok()) {
        std::fprintf(stderr, "engine: %s\n",
                     engine.status().ToString().c_str());
        return 1;
    }
    // Strictly synchronous: one request in flight at a time, so every
    // serve/runtime counter lands in a reproducible order.
    size_t served = 0;
    for (size_t r = 0; r < kRequests; ++r) {
        const auto result =
            (*engine)->Submit(NthRequest(stream, r, in_w)).get();
        if (!result.status.ok()) {
            std::fprintf(stderr, "gate request %zu: %s\n", r,
                         result.status.ToString().c_str());
            return 1;
        }
        served += result.report.elements;
    }
    (*engine)->Shutdown();
    std::printf("serve gate: %zu elements over %zu requests\n", served,
                kRequests);
    if (served != kRequests * kBatch) {
        std::fprintf(stderr, "gate: %zu of %zu elements accounted for\n",
                     served, kRequests * kBatch);
        return 1;
    }
    return 0;
}

}  // namespace

int
main(int argc, char** argv)
{
    const std::string csv_dir = benchutil::CsvDir(argc, argv);
    bool smoke = false, gate = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
        else if (std::strcmp(argv[i], "--gate") == 0)
            gate = true;
    }

    std::fprintf(stderr, "[serve_throughput] training inversek2j and "
                         "exporting the artifact...\n");
    core::RumbaRuntime trained(apps::MakeBenchmark("inversek2j"),
                               DeployConfig());
    const core::Artifact artifact = trained.ExportArtifact();
    const size_t in_w = trained.Bench().NumInputs();
    const size_t out_w = trained.Bench().NumOutputs();
    const std::vector<double> stream = RequestStream(trained.Bench());

    if (smoke)
        return RunSmoke(artifact, stream, in_w);
    if (gate)
        return RunGate(artifact, stream, in_w);

    // Accelerator occupancy: 4x the measured CPU cost per element
    // (see file comment), so device wait dominates and sharding has
    // real overlap to win — on any host speed.
    const uint64_t cpu_ns =
        CalibrateCpuNsPerElement(artifact, stream, in_w, out_w);
    const uint64_t device_ns = 4 * cpu_ns;
    std::fprintf(stderr,
                 "[serve_throughput] calibrated %llu ns CPU/element, "
                 "emulating %llu ns device/element\n",
                 static_cast<unsigned long long>(cpu_ns),
                 static_cast<unsigned long long>(device_ns));

    Table table({"Shards", "Requests", "Elements", "Wall ms",
                 "Elements/s", "Speedup x"});
    double base_seconds = 0.0;
    double ratio = 0.0;
    double sharded_eps = 0.0;
    for (const size_t shards : {size_t{1}, size_t{4}}) {
        const double seconds =
            TimedRun(artifact, shards, device_ns, stream, in_w);
        if (shards == 1)
            base_seconds = seconds;
        const double speedup = base_seconds / seconds;
        if (shards == 4) {
            ratio = speedup;
            sharded_eps =
                static_cast<double>(kRequests * kBatch) / seconds;
        }
        table.AddRow(
            {Table::Int(static_cast<long>(shards)),
             Table::Int(static_cast<long>(kRequests)),
             Table::Int(static_cast<long>(kRequests * kBatch)),
             Table::Num(seconds * 1e3, 1),
             Table::Num(static_cast<double>(kRequests * kBatch) /
                            seconds,
                        0),
             Table::Num(speedup, 2)});
    }
    benchutil::Emit(table,
                    "Serving throughput: sharded engine, modeled "
                    "accelerator occupancy (inversek2j)",
                    csv_dir, "serve_throughput");

    std::printf("\n4-shard speedup %.2fx\n", ratio);

    // ---- Instrumentation overhead ----------------------------------
    // The observability tax: the same 1-shard stream with the full
    // stack on (request tracing, flight recorder, SLO monitors, live
    // scrape server being polled) vs all of it off. Wall-clock deltas
    // drown in scheduler and sleep-wakeup jitter on a small CI box,
    // but instrumentation burns *CPU* and the emulated device wait
    // does not — so the gate compares process CPU time
    // (CLOCK_PROCESS_CPUTIME_ID, ns resolution, all threads) across
    // interleaved off/on pairs and expresses the extra CPU as a
    // fraction of the off-side serving wall time: the throughput a
    // CPU-bound deployment would give up. Sleep jitter never enters
    // the measurement, and the median round (below) keeps one
    // CI-neighbor load burst from poisoning the verdict.
    obs::ObservabilityServer server;
    const bool server_up = server.Start(0);  // ephemeral port.
    std::atomic<bool> polling{server_up};
    std::thread poller([&] {
        std::string body;
        int status = 0;
        while (polling.load(std::memory_order_relaxed)) {
            if (server_up)
                obs::HttpGet(server.Port(), "/metrics", &body,
                             &status);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(10));
        }
    });
    const auto cpu_seconds = [] {
        timespec ts{};
        ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
        return static_cast<double>(ts.tv_sec) +
               static_cast<double>(ts.tv_nsec) * 1e-9;
    };
    constexpr size_t kOverheadRounds = 15;
    // Each round serves the stream several times through one engine
    // lifetime: fixed create/shutdown costs (worker thread spawns,
    // the forensics sampler's final flush tick) amortize across a
    // serving stretch long enough to be steady-state-representative,
    // instead of dominating a sub-period round.
    constexpr size_t kOverheadRepeats = 4;
    TimedRun(artifact, 1, device_ns, stream, in_w, false);  // warmup.
    TimedRun(artifact, 1, device_ns, stream, in_w, true);
    double wall_off = 0.0, cpu_off = 0.0, cpu_on = 0.0;
    std::vector<double> round_pct;
    round_pct.reserve(kOverheadRounds);
    for (size_t round = 0; round < kOverheadRounds; ++round) {
        const double cpu_0 = cpu_seconds();
        const double wall = TimedRun(artifact, 1, device_ns, stream,
                                     in_w, /*instrumented=*/false,
                                     kOverheadRepeats);
        const double cpu_1 = cpu_seconds();
        TimedRun(artifact, 1, device_ns, stream, in_w,
                 /*instrumented=*/true, kOverheadRepeats);
        const double cpu_2 = cpu_seconds();
        wall_off += wall;
        cpu_off += cpu_1 - cpu_0;
        cpu_on += cpu_2 - cpu_1;
        round_pct.push_back(((cpu_2 - cpu_1) - (cpu_1 - cpu_0)) /
                            wall * 100.0);
    }
    polling.store(false, std::memory_order_relaxed);
    poller.join();
    server.Stop();

    // Report the median round, not the aggregate: a single
    // scheduler burst (a CI neighbor, a builder) landing in one round
    // poisons a sum but cannot move the median of 15 interleaved
    // off/on pairs. A *systematic* cost shifts every round.
    std::sort(round_pct.begin(), round_pct.end());
    const double overhead_pct = round_pct[round_pct.size() / 2];
    std::printf("\n== Instrumentation overhead: tracing + SLOs + "
                "scrape server ==\n"
                "cpu off %.1f ms, cpu on %.1f ms over %.0f ms "
                "serving -> %+.1f%% median extra CPU "
                "(aggregate %+.1f%%)\n",
                cpu_off * 1e3, cpu_on * 1e3, wall_off * 1e3,
                overhead_pct,
                (cpu_on - cpu_off) / wall_off * 100.0);

    return AppendBenchTrajectory(4, kRequests, kRequests * kBatch,
                                 sharded_eps, overhead_pct)
               ? 0
               : 1;
}
