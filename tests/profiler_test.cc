// Tests for the live cost & efficiency profiler (obs/profiler.h):
// StageScope thread-CPU attribution summing to the wall thread-CPU
// bracket, the runtime's passes (one span and one stage-record entry
// each), CpuProfiler counter/efficiency semantics (four shards
// recording at once included) and its folded per-shard dump against a
// private registry, the /profilez
// JSON body, and an engine-level race of the folded dump and
// /profilez against ShardedEngine::Shutdown (exercised under TSan in
// ci.sh).

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <future>
#include <iterator>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "apps/benchmark.h"
#include "core/artifact.h"
#include "core/batch_view.h"
#include "core/runtime.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/span.h"
#include "serve/engine.h"
#include "sim/system_model.h"

namespace rumba {
namespace {

// ------------------------------------------------------------ helpers

/** Burn CPU long enough for CLOCK_THREAD_CPUTIME_ID to see it. */
double
Burn(int iters = 400000)
{
    volatile double acc = 0.0;
    for (int i = 0; i < iters; ++i)
        acc = acc + static_cast<double>(i) * 1e-9;
    return acc;
}

// --------------------------------------------------------- stage names

TEST(ProfileStageTest, NamesAreStable)
{
    EXPECT_STREQ(obs::ProfileStageName(obs::ProfileStage::kQueueWait),
                 "queue_wait");
    EXPECT_STREQ(obs::ProfileStageName(obs::ProfileStage::kDevice),
                 "device");
    EXPECT_STREQ(
        obs::ProfileStageName(obs::ProfileStage::kPredictCheck),
        "predict_check");
    EXPECT_STREQ(obs::ProfileStageName(obs::ProfileStage::kRecover),
                 "recover");
    EXPECT_STREQ(obs::ProfileStageName(obs::ProfileStage::kAudit),
                 "audit");
}

TEST(ProfileStageTest, ThreadCpuClockAdvancesUnderWork)
{
    const int64_t before = obs::ThreadCpuNowNs();
    Burn();
    const int64_t after = obs::ThreadCpuNowNs();
    EXPECT_GT(after, before);
}

// --------------------------------------------------------- StageScope

TEST(StageScopeTest, AttributionSumsToThreadCpuBracket)
{
    obs::StageRecord record;
    const int64_t bracket_start = obs::ThreadCpuNowNs();
    for (const obs::ProfileStage stage :
         {obs::ProfileStage::kDevice, obs::ProfileStage::kPredictCheck,
          obs::ProfileStage::kRecover}) {
        const obs::StageScope scope(stage, &record, /*cpu=*/true);
        Burn();
    }
    const int64_t bracket_ns = obs::ThreadCpuNowNs() - bracket_start;

    const int64_t device_ns = record.Cpu(obs::ProfileStage::kDevice);
    const int64_t check_ns = record.Cpu(obs::ProfileStage::kPredictCheck);
    const int64_t recover_ns = record.Cpu(obs::ProfileStage::kRecover);
    EXPECT_GT(device_ns, 0);
    EXPECT_GT(check_ns, 0);
    EXPECT_GT(recover_ns, 0);
    // Each scope's wall bracket encloses its CPU bracket.
    EXPECT_GE(record.Wall(obs::ProfileStage::kDevice), device_ns);
    EXPECT_GE(record.Wall(obs::ProfileStage::kPredictCheck), check_ns);
    EXPECT_GE(record.Wall(obs::ProfileStage::kRecover), recover_ns);

    // The three scopes cover everything inside the bracket except a
    // few clock reads, so their sum tracks the bracket's thread-CPU
    // delta: never above it (plus scheduler-noise slack), and at
    // least half of it even on a badly preempted CI machine.
    const int64_t sum = device_ns + check_ns + recover_ns;
    EXPECT_LE(sum, bracket_ns + 1000000);
    EXPECT_GE(sum, bracket_ns / 2);
}

TEST(StageScopeTest, UnaccountedScopeLeavesSinkUntouched)
{
    // Without cpu a scope clocks wall time only; without a record it
    // does nothing.
    obs::StageRecord record;
    {
        const obs::StageScope none(obs::ProfileStage::kDevice, nullptr,
                                   /*cpu=*/true);
        const obs::StageScope wall(obs::ProfileStage::kRecover, &record,
                                   /*cpu=*/false);
        Burn(50000);
    }
    for (const int64_t ns : record.cpu_ns)
        EXPECT_EQ(ns, 0);
    EXPECT_EQ(record.Wall(obs::ProfileStage::kDevice), 0);
    EXPECT_GT(record.Wall(obs::ProfileStage::kRecover), 0);
}

// -------------------------------------------------------- CpuProfiler

TEST(CpuProfilerTest, RecordInvocationAccumulatesStageCounters)
{
    obs::Registry registry;
    obs::CpuProfiler profiler(&registry);

    obs::StageRecord stages;
    stages.Cpu(obs::ProfileStage::kDevice) = 2000000;        // 2 ms
    stages.Cpu(obs::ProfileStage::kPredictCheck) = 1000000;  // 1 ms
    stages.Cpu(obs::ProfileStage::kRecover) = 1000000;       // 1 ms
    stages.Wall(obs::ProfileStage::kDevice) = 9000000;  // not CPU.
    profiler.RecordInvocation(profiler.ShardCounters(1), stages);

    EXPECT_NEAR(profiler.StageSeconds(obs::ProfileStage::kDevice),
                0.002, 1e-12);
    EXPECT_NEAR(
        profiler.StageSeconds(obs::ProfileStage::kPredictCheck), 0.001,
        1e-12);
    EXPECT_NEAR(profiler.StageSeconds(obs::ProfileStage::kRecover),
                0.001, 1e-12);
    EXPECT_DOUBLE_EQ(profiler.StageSeconds(obs::ProfileStage::kMerge),
                     0.0);
    EXPECT_EQ(profiler.Invocations(), 1u);

    // The per-shard series registers lazily under shard1.
    const obs::RegistrySnapshot snapshot = registry.Snapshot();
    bool total_found = false;
    bool shard_found = false;
    for (const obs::DoubleCounterSnapshot& c : snapshot.dcounters) {
        if (c.name == "cpu_stage_seconds.device") {
            total_found = true;
            EXPECT_NEAR(c.value, 0.002, 1e-12);
        }
        if (c.name == "cpu_stage_seconds.shard1.device") {
            shard_found = true;
            EXPECT_NEAR(c.value, 0.002, 1e-12);
        }
    }
    EXPECT_TRUE(total_found);
    EXPECT_TRUE(shard_found);
}

TEST(CpuProfilerTest, ConcurrentShardsEachKeepTheirOwnSplit)
{
    // Four workers record their own shards at once, as the sharded
    // engine's do: each registers its row once, concurrently with the
    // others, and records through it with no lock. Each shard's
    // counters hold exactly its own invocations, and the split lives
    // only in those counters: the profiler registers no histogram (no
    // per-invocation stage shares).
    obs::Registry registry;
    obs::CpuProfiler profiler(&registry);
    constexpr int kShards = 4;
    constexpr uint64_t kPerShard = 2000;
    obs::StageRecord stages;
    for (size_t s = 0; s < obs::kProfileStageCount; ++s)
        stages.cpu_ns[s] = static_cast<int64_t>(1000 * (s + 1));

    std::vector<std::thread> workers;
    for (int shard = 0; shard < kShards; ++shard) {
        workers.emplace_back([&profiler, &stages, shard] {
            const obs::CpuProfiler::ShardRow row =
                profiler.ShardCounters(shard);
            for (uint64_t i = 0; i < kPerShard; ++i)
                profiler.RecordInvocation(row, stages);
        });
    }
    for (std::thread& worker : workers)
        worker.join();

    const obs::RegistrySnapshot snapshot = registry.Snapshot();
    std::map<std::string, double> seconds;
    for (const obs::DoubleCounterSnapshot& c : snapshot.dcounters)
        seconds[c.name] = c.value;
    for (int shard = 0; shard < kShards; ++shard) {
        for (size_t s = 0; s < obs::kProfileStageCount; ++s) {
            const std::string name =
                "cpu_stage_seconds.shard" + std::to_string(shard) + "." +
                obs::ProfileStageName(static_cast<obs::ProfileStage>(s));
            ASSERT_EQ(seconds.count(name), 1u) << name;
            EXPECT_NEAR(seconds[name],
                        static_cast<double>(kPerShard) *
                            static_cast<double>(stages.cpu_ns[s]) * 1e-9,
                        1e-12)
                << name;
        }
    }
    uint64_t invocations = 0;
    for (const obs::CounterSnapshot& c : snapshot.counters)
        if (c.name == "profile.invocations")
            invocations = c.value;
    EXPECT_EQ(invocations, kShards * kPerShard);
    for (const obs::HistogramSnapshot& h : snapshot.histograms)
        ADD_FAILURE() << "unexpected histogram " << h.name;
}

TEST(CpuProfilerTest, AddStageCpuNsFeedsTotals)
{
    obs::Registry registry;
    obs::CpuProfiler profiler(&registry);
    profiler.AddStageCpuNs(obs::ProfileStage::kAudit, /*shard=*/-1,
                           5000000);
    profiler.AddStageCpuNs(obs::ProfileStage::kAudit, /*shard=*/-1,
                           5000000);
    EXPECT_NEAR(profiler.StageSeconds(obs::ProfileStage::kAudit), 0.01,
                1e-12);
    // shard < 0: no per-shard series appears.
    for (const obs::DoubleCounterSnapshot& c :
         registry.Snapshot().dcounters)
        EXPECT_EQ(c.name.find("shard"), std::string::npos) << c.name;
}

TEST(CpuProfilerTest, RecordCostsDrivesEfficiencyGauges)
{
    obs::Registry registry;
    obs::CpuProfiler profiler(&registry);

    EXPECT_FALSE(profiler.Efficiency().Valid());

    sim::SystemCosts costs;
    costs.baseline_app_ns = 100.0;
    costs.scheme_app_ns = 25.0;   // 4x speedup.
    costs.baseline_app_nj = 100.0;
    costs.scheme_app_nj = 50.0;   // energy ratio 0.5.
    profiler.RecordCosts(costs);
    profiler.RecordCosts(costs);

    const sim::EfficiencyEstimate estimate = profiler.Efficiency();
    ASSERT_TRUE(estimate.Valid());
    EXPECT_EQ(estimate.window, 2u);
    EXPECT_EQ(estimate.invocations, 2u);
    EXPECT_NEAR(estimate.speedup, 4.0, 1e-9);
    EXPECT_NEAR(estimate.energy_ratio, 0.5, 1e-9);

    bool speedup_found = false;
    bool energy_found = false;
    for (const obs::GaugeSnapshot& g : registry.Snapshot().gauges) {
        if (g.name == "efficiency.speedup_estimate") {
            speedup_found = true;
            EXPECT_NEAR(g.value, 4.0, 1e-9);
        }
        if (g.name == "efficiency.energy_ratio") {
            energy_found = true;
            EXPECT_NEAR(g.value, 0.5, 1e-9);
        }
    }
    EXPECT_TRUE(speedup_found);
    EXPECT_TRUE(energy_found);
}

TEST(CpuProfilerTest, FoldedDumpIsThePerShardSplitInMicroseconds)
{
    obs::Registry registry;
    obs::CpuProfiler profiler(&registry);
    obs::StageRecord first;
    first.Cpu(obs::ProfileStage::kDevice) = 2'000'000;
    first.Cpu(obs::ProfileStage::kPredictCheck) = 1'234'567;
    first.Cpu(obs::ProfileStage::kMerge) = 200;  // 0.4 µs: rounds to 0.
    const obs::CpuProfiler::ShardRow shard0 = profiler.ShardCounters(0);
    profiler.RecordInvocation(shard0, first);
    profiler.RecordInvocation(shard0, first);
    obs::StageRecord second;
    second.Cpu(obs::ProfileStage::kRecover) = 3'000'700;
    profiler.RecordInvocation(profiler.ShardCounters(2), second);
    profiler.AddStageCpuNs(obs::ProfileStage::kAudit, /*shard=*/-1,
                           5'000'000);  // no shard: not in the dump.

    const std::string path =
        ::testing::TempDir() + "profiler_test.folded";
    std::remove(path.c_str());
    ASSERT_TRUE(profiler.WriteFoldedBestEffort(path));
    std::ifstream in(path);
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    std::remove(path.c_str());
    EXPECT_EQ(lines, (std::vector<std::string>{"shard0;device 4000",
                                               "shard0;predict_check 2469",
                                               "shard2;recover 3001"}));

    // Each count is its per-shard counter in whole µs.
    std::map<std::string, double> seconds;
    for (const obs::DoubleCounterSnapshot& c :
         registry.Snapshot().dcounters)
        seconds[c.name] = c.value;
    for (const std::string& line : lines) {
        const size_t semi = line.find(';');
        const size_t space = line.rfind(' ');
        const std::string counter = "cpu_stage_seconds." +
                                    line.substr(0, semi) + "." +
                                    line.substr(semi + 1, space - semi - 1);
        ASSERT_EQ(seconds.count(counter), 1u) << counter;
        EXPECT_EQ(std::stoll(line.substr(space + 1)),
                  std::llround(seconds[counter] * 1e6))
            << line;
    }

    // An unwritable path reports failure.
    EXPECT_FALSE(profiler.WriteFoldedBestEffort("/dev/full"));
}

// ----------------------------------------------------- /profilez JSON

TEST(ProfilezJsonTest, CarriesSchemaStagesAndEfficiency)
{
    const std::string body = obs::ProfilezJson();
    EXPECT_NE(body.find("\"schema_version\":1"), std::string::npos);
    EXPECT_NE(body.find("\"cpu_seconds\""), std::string::npos);
    EXPECT_NE(body.find("\"device\""), std::string::npos);
    EXPECT_NE(body.find("\"predict_check\""), std::string::npos);
    EXPECT_NE(body.find("\"total\""), std::string::npos);
    EXPECT_NE(body.find("\"stage_share\""), std::string::npos);
    EXPECT_EQ(body.find("\"sampler\""), std::string::npos);
    EXPECT_EQ(body.find("\"idle\""), std::string::npos);
    EXPECT_NE(body.find("\"efficiency\""), std::string::npos);
    EXPECT_NE(body.find("\"speedup_estimate\""), std::string::npos);
    EXPECT_NE(body.find("\"energy_ratio\""), std::string::npos);
    // rumba-stat's mini JSON parser has no array support; /profilez
    // must stay array-free.
    EXPECT_EQ(body.find('['), std::string::npos);
}

// ------------------------------------------------ engine integration

core::RuntimeConfig
ServeRuntimeConfig()
{
    return core::RuntimeConfig::Builder()
        .WithChecker(core::Scheme::kTree)
        .WithTargetErrorPct(10.0)
        .WithTrainEpochs(30)
        .WithElementCaps(800, 400)
        .Build();
}

const core::Artifact&
SharedArtifact()
{
    static const core::Artifact artifact = [] {
        core::RumbaRuntime trained(apps::MakeBenchmark("inversek2j"),
                                   ServeRuntimeConfig());
        return trained.ExportArtifact();
    }();
    return artifact;
}

serve::InvocationRequest
MakeRequest(size_t start_element, size_t count)
{
    static const std::vector<double> flat = [] {
        const auto bench = apps::MakeBenchmark("inversek2j");
        return core::FlattenBatch(bench->TestInputs());
    }();
    serve::InvocationRequest request;
    request.width = 2;  // inversek2j input arity.
    request.count = count;
    request.inputs.assign(
        flat.begin() + static_cast<ptrdiff_t>(start_element * 2),
        flat.begin() +
            static_cast<ptrdiff_t>((start_element + count) * 2));
    return request;
}

// ------------------------------------------------------ runtime passes

/** A 256-element inversek2j batch from the test inputs. */
const std::vector<double>&
PassBatch()
{
    static const std::vector<double> flat = [] {
        const auto inputs = apps::MakeBenchmark("inversek2j")->TestInputs();
        return core::FlattenBatch({inputs.begin(), inputs.begin() + 256});
    }();
    return flat;
}

TEST(RuntimePassTest, EachPassLeavesOneSpanInOrder)
{
    auto runtime = core::RumbaRuntime::FromArtifact(SharedArtifact(),
                                                    ServeRuntimeConfig());
    ASSERT_TRUE(runtime.ok()) << runtime.status().ToString();
    const core::BatchView view(PassBatch().data(), 256, 2);
    std::vector<double> outputs(256 * 2);

    obs::SpanCollector& collector = obs::SpanCollector::Default();
    collector.Clear();
    collector.Enable();
    (*runtime)->ProcessInvocation(view, outputs.data());
    collector.Disable();
    const std::vector<obs::SpanRecord> spans = collector.Dump();
    collector.Clear();

    auto only = [&](const char* name) -> const obs::SpanRecord* {
        const obs::SpanRecord* found = nullptr;
        for (const obs::SpanRecord& span : spans) {
            if (span.name != name)
                continue;
            EXPECT_EQ(found, nullptr) << "a second " << name << " span";
            found = &span;
        }
        return found;
    };
    const obs::SpanRecord* invocation = only("runtime.invocation");
    ASSERT_NE(invocation, nullptr);
    const uint64_t end = invocation->start_ns + invocation->duration_ns;
    uint64_t previous_end = invocation->start_ns;
    for (const char* name : {"runtime.accel_stream", "runtime.check",
                             "runtime.merge", "runtime.verify"}) {
        const obs::SpanRecord* pass = only(name);
        ASSERT_NE(pass, nullptr) << name;
        EXPECT_EQ(pass->depth, invocation->depth + 1) << name;
        EXPECT_EQ(pass->thread_id, invocation->thread_id) << name;
        // In order, without overlap, inside the invocation.
        EXPECT_GE(pass->start_ns, previous_end) << name;
        previous_end = pass->start_ns + pass->duration_ns;
        EXPECT_LE(previous_end, end) << name;
    }
    // The passes bracket the per-element work: no element or fix opens
    // a span of its own.
    for (const obs::SpanRecord& span : spans) {
        for (const char* name : {"npu.invoke", "detector.check",
                                 "recovery.compensate",
                                 "recovery.reexecute"})
            EXPECT_NE(span.name, name);
    }
    EXPECT_LT(spans.size(), 256u);
}

TEST(RuntimePassTest, StageRecordClocksEachPassOnlyWhenAsked)
{
    const core::BatchView view(PassBatch().data(), 256, 2);
    std::vector<double> outputs(256 * 2);
    core::RuntimeConfig timed_config = ServeRuntimeConfig();
    timed_config.stage_timings = true;
    timed_config.cpu_attribution = true;
    auto timed =
        core::RumbaRuntime::FromArtifact(SharedArtifact(), timed_config);
    ASSERT_TRUE(timed.ok()) << timed.status().ToString();

    const int64_t cpu_before = obs::ThreadCpuNowNs();
    const core::InvocationReport report =
        (*timed)->ProcessInvocation(view, outputs.data());
    const int64_t cpu_after = obs::ThreadCpuNowNs();

    using Stage = obs::ProfileStage;
    ASSERT_GT(report.fixes, 0u);
    for (const Stage stage : {Stage::kDevice, Stage::kPredictCheck,
                              Stage::kRecover, Stage::kVerify}) {
        EXPECT_GT(report.stages.Wall(stage), 0)
            << obs::ProfileStageName(stage);
        EXPECT_GT(report.stages.Cpu(stage), 0)
            << obs::ProfileStageName(stage);
    }
    // The passes are disjoint scopes inside the call.
    int64_t cpu_sum = 0;
    for (const int64_t ns : report.stages.cpu_ns) {
        EXPECT_GE(ns, 0);
        cpu_sum += ns;
    }
    EXPECT_LE(cpu_sum, cpu_after - cpu_before);

    // Both knobs off: nothing is clocked.
    auto plain = core::RumbaRuntime::FromArtifact(SharedArtifact(),
                                                  ServeRuntimeConfig());
    ASSERT_TRUE(plain.ok()) << plain.status().ToString();
    const core::InvocationReport quiet =
        (*plain)->ProcessInvocation(view, outputs.data());
    for (size_t s = 0; s < obs::kProfileStageCount; ++s) {
        EXPECT_EQ(quiet.stages.wall_ns[s], 0) << s;
        EXPECT_EQ(quiet.stages.cpu_ns[s], 0) << s;
    }
}

/** The engine must leave device/check CPU and an efficiency estimate
 *  behind in the process-wide profiler, while a reader writes the
 *  folded dump and /profilez as the workers record and shut down
 *  (the race TSan checks). */
TEST(ProfilerEngineTest, EngineFeedsProfilerWhileDumpsRaceShutdown)
{
    const std::string folded =
        ::testing::TempDir() + "profiler_engine.folded";
    std::remove(folded.c_str());

    obs::CpuProfiler& profiler = obs::CpuProfiler::Default();
    const double device_before =
        profiler.StageSeconds(obs::ProfileStage::kDevice);
    const double check_before =
        profiler.StageSeconds(obs::ProfileStage::kPredictCheck);
    const uint64_t invocations_before = profiler.Invocations();

    serve::ServeConfig config;
    config.shards = 2;
    ASSERT_TRUE(config.profile.enabled);  // on by default.
    auto engine = serve::ShardedEngine::Create(
        SharedArtifact(), ServeRuntimeConfig(), config);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();

    std::atomic<bool> done{false};
    std::thread reader([&] {
        while (!done.load()) {
            profiler.WriteFoldedBestEffort(folded);
            EXPECT_EQ(obs::ProfilezJson().find('['), std::string::npos);
        }
    });
    std::vector<std::future<serve::InvocationResult>> futures;
    for (int i = 0; i < 8; ++i)
        futures.push_back(
            (*engine)->Submit(MakeRequest(i * 16, 16)));
    for (auto& f : futures)
        EXPECT_TRUE(f.get().status.ok());
    (*engine)->Shutdown();
    done.store(true);
    reader.join();

    EXPECT_GT(profiler.StageSeconds(obs::ProfileStage::kDevice),
              device_before);
    EXPECT_GT(profiler.StageSeconds(obs::ProfileStage::kPredictCheck),
              check_before);
    EXPECT_GT(profiler.Invocations(), invocations_before);
    const sim::EfficiencyEstimate estimate = profiler.Efficiency();
    ASSERT_TRUE(estimate.Valid());
    EXPECT_GT(estimate.speedup, 0.0);
    EXPECT_GT(estimate.energy_ratio, 0.0);

    // With the workers gone the dump holds both shards' device rows.
    ASSERT_TRUE(profiler.WriteFoldedBestEffort(folded));
    std::ifstream in(folded);
    std::string body((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    EXPECT_NE(body.find("shard0;device "), std::string::npos) << body;
    EXPECT_NE(body.find("shard1;device "), std::string::npos) << body;
    std::remove(folded.c_str());
}

}  // namespace
}  // namespace rumba
