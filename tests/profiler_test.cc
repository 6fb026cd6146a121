// Tests for the live cost & efficiency profiler (obs/profiler.h):
// StageScope thread-CPU attribution summing to the wall thread-CPU
// bracket, the runtime's passes (one span and one stage-record entry
// each), CpuProfiler counter/histogram/efficiency semantics against
// a private registry, the sampling profiler's folded-stack output
// (shard frames, same-tag dedup, RUMBA_PROFILE_HZ=0 as a true no-op),
// the RUMBA_PROFILE_HZ parse rules and a slow sampler's prompt stop,
// the /profilez JSON body, and an engine-level race of the env sampler
// against ShardedEngine::Shutdown (exercised under TSan in ci.sh).

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
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
    // only tags the sampling slot.
    obs::StageRecord record;
    {
        const obs::StageScope tag(obs::ProfileStage::kDevice);
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
    profiler.RecordInvocation(/*shard=*/1, stages);

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

    // Stage shares: device was 2 of 4 attributed ms -> share 0.5.
    bool share_found = false;
    for (const obs::HistogramSnapshot& h : snapshot.histograms) {
        if (h.name != "profile.stage_share.device")
            continue;
        share_found = true;
        EXPECT_EQ(h.count, 1u);
        EXPECT_NEAR(h.sum, 0.5, 1e-9);
    }
    EXPECT_TRUE(share_found);
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

// -------------------------------------------------- sampling profiler

TEST(SamplingProfilerTest, FoldedOutputParsesAndCarriesShardFrames)
{
    const std::string path =
        ::testing::TempDir() + "profiler_test.folded";
    std::remove(path.c_str());

    std::atomic<bool> stop{false};
    std::atomic<bool> staged{false};
    // Worker holds a stable shard3 -> device -> predict_check stack,
    // with a redundant nested device scope the dedup must elide.
    std::thread worker([&] {
        obs::BindThreadShard(3);
        const obs::StageScope device(obs::ProfileStage::kDevice);
        const obs::StageScope dup(obs::ProfileStage::kDevice);
        const obs::StageScope check(obs::ProfileStage::kPredictCheck);
        staged.store(true);
        while (!stop.load())
            Burn(20000);
    });
    while (!staged.load())
        std::this_thread::yield();

    obs::SamplingProfiler sampler;
    sampler.Start(obs::kMinTickNs, path);  // the fastest rate: 1000 Hz.
    EXPECT_TRUE(sampler.Running());
    EXPECT_NEAR(sampler.Hz(), 1000.0, 1e-9);
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    sampler.Stop();
    EXPECT_FALSE(sampler.Running());
    EXPECT_GT(sampler.Samples(), 0u);

    stop.store(true);
    worker.join();

    // The in-memory fold saw the worker's full stack, deduped.
    bool tagged = false;
    for (const obs::FoldedStack& f : sampler.Folded()) {
        EXPECT_GT(f.count, 0u);
        EXPECT_EQ(f.stack.find("device;device"), std::string::npos)
            << f.stack;
        if (f.stack.find("shard3;device;predict_check") !=
            std::string::npos)
            tagged = true;
    }
    EXPECT_TRUE(tagged);

    // The dump parses as flamegraph "stack count" lines and matches.
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string line;
    int lines = 0;
    bool file_tagged = false;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        ++lines;
        const size_t space = line.rfind(' ');
        ASSERT_NE(space, std::string::npos) << line;
        ASSERT_GT(space, 0u) << line;
        const std::string count = line.substr(space + 1);
        ASSERT_FALSE(count.empty()) << line;
        EXPECT_GT(std::strtoull(count.c_str(), nullptr, 10), 0u)
            << line;
        if (line.find("shard3;device;predict_check") !=
            std::string::npos)
            file_tagged = true;
    }
    EXPECT_GT(lines, 0);
    EXPECT_TRUE(file_tagged);
    std::remove(path.c_str());
}

TEST(SamplingProfilerTest, ZeroHzIsATrueNoop)
{
    const std::string path =
        ::testing::TempDir() + "profiler_test_zero.folded";
    std::remove(path.c_str());
    obs::SamplingProfiler sampler;
    sampler.Start(/*period_ns=*/0, path);
    EXPECT_FALSE(sampler.Running());
    EXPECT_EQ(sampler.Samples(), 0u);
    sampler.Stop();  // safe when never started; writes no dump.
    std::ifstream in(path);
    EXPECT_FALSE(in.good());
}

TEST(SamplingProfilerTest, EnvZeroHzDisablesTheSharedSampler)
{
    setenv("RUMBA_PROFILE_HZ", "0", 1);
    obs::SamplingProfiler* sampler = obs::SamplingProfiler::AcquireFromEnv();
    ASSERT_NE(sampler, nullptr);
    EXPECT_FALSE(sampler->Running());
    obs::SamplingProfiler::Release();
    unsetenv("RUMBA_PROFILE_HZ");
}

TEST(SamplingProfilerTest, EnvUnsetSpawnsNoThread)
{
    // Opt-in contract: with neither RUMBA_PROFILE_HZ nor
    // RUMBA_PROFILE_OUT set, acquiring the shared sampler must not
    // start one (thread wakeups cost real scheduler CPU).
    unsetenv("RUMBA_PROFILE_HZ");
    unsetenv("RUMBA_PROFILE_OUT");
    obs::SamplingProfiler* sampler = obs::SamplingProfiler::AcquireFromEnv();
    ASSERT_NE(sampler, nullptr);
    EXPECT_FALSE(sampler->Running());
    obs::SamplingProfiler::Release();
}

TEST(SamplingProfilerTest, ProfileHzParsesLikeTheTsdbPeriod)
{
    EXPECT_EQ(obs::ParseProfilePeriodNs(nullptr),
              obs::kDefaultProfilePeriodNs);
    for (const char* fallback :
         {"", "abc", "inf", "-inf", "nan", "100hz", " 100", "+100", "0x10",
          "1e999"})
        EXPECT_EQ(obs::ParseProfilePeriodNs(fallback),
                  obs::kDefaultProfilePeriodNs)
            << fallback;
    EXPECT_EQ(obs::ParseProfilePeriodNs("0"), 0);
    EXPECT_EQ(obs::ParseProfilePeriodNs("-1"), 0);
    EXPECT_EQ(obs::ParseProfilePeriodNs("499"), 1'000'000'000 / 499);
    // Clamped in double before narrowing: no int64 overflow.
    EXPECT_EQ(obs::ParseProfilePeriodNs("1e-300"), obs::kMaxTickNs);
    EXPECT_EQ(obs::ParseProfilePeriodNs("1e6"), obs::kMinTickNs);
}

TEST(SamplingProfilerTest, EnvRateFollowsTheParseRules)
{
    unsetenv("RUMBA_PROFILE_OUT");
    const struct {
        const char* env;
        double hz;  ///< 0 = off.
    } cases[] = {
        {"inf", 101.0},      {"nan", 101.0}, {"abc", 101.0},
        {"1e-300", 1.0 / 60}, {"1e6", 1000.0}, {"0", 0.0},
        {"-1", 0.0},
    };
    for (const auto& c : cases) {
        setenv("RUMBA_PROFILE_HZ", c.env, 1);
        obs::SamplingProfiler* sampler =
            obs::SamplingProfiler::AcquireFromEnv();
        EXPECT_EQ(sampler->Running(), c.hz > 0.0) << c.env;
        if (c.hz > 0.0) {
            EXPECT_NEAR(sampler->Hz(), c.hz, 1e-4 * c.hz) << c.env;
        }
        obs::SamplingProfiler::Release();
        EXPECT_FALSE(sampler->Running()) << c.env;
    }
    unsetenv("RUMBA_PROFILE_HZ");
}

TEST(SamplingProfilerTest, SlowSamplerStopsWithoutWaitingOutItsPeriod)
{
    setenv("RUMBA_PROFILE_HZ", "0.2", 1);  // a 5 s period.
    unsetenv("RUMBA_PROFILE_OUT");
    obs::SamplingProfiler* sampler = obs::SamplingProfiler::AcquireFromEnv();
    ASSERT_TRUE(sampler->Running());
    // Let the thread settle into its wait, as an engine that serves
    // for a while does.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const auto start = std::chrono::steady_clock::now();
    obs::SamplingProfiler::Release();
    const auto stop_time = std::chrono::steady_clock::now() - start;
    EXPECT_FALSE(sampler->Running());
    EXPECT_LT(stop_time, std::chrono::milliseconds(500));
    unsetenv("RUMBA_PROFILE_HZ");
}

// ----------------------------------------------------- /profilez JSON

TEST(ProfilezJsonTest, CarriesSchemaStagesSamplerAndEfficiency)
{
    const std::string body = obs::ProfilezJson();
    EXPECT_NE(body.find("\"schema_version\":1"), std::string::npos);
    EXPECT_NE(body.find("\"cpu_seconds\""), std::string::npos);
    EXPECT_NE(body.find("\"device\""), std::string::npos);
    EXPECT_NE(body.find("\"predict_check\""), std::string::npos);
    EXPECT_NE(body.find("\"total\""), std::string::npos);
    EXPECT_NE(body.find("\"stage_share\""), std::string::npos);
    EXPECT_NE(body.find("\"sampler\""), std::string::npos);
    EXPECT_NE(body.find("\"hz\""), std::string::npos);
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

/** The engine races the env sampler against Shutdown (TSan target)
 *  and must leave device/check CPU and an efficiency estimate behind
 *  in the process-wide profiler. */
TEST(ProfilerEngineTest, EngineFeedsProfilerAndRacesSamplerShutdown)
{
    const std::string folded =
        ::testing::TempDir() + "profiler_engine.folded";
    std::remove(folded.c_str());
    setenv("RUMBA_PROFILE_HZ", "997", 1);  // fast prime: many ticks.
    setenv("RUMBA_PROFILE_OUT", folded.c_str(), 1);

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

    std::vector<std::future<serve::InvocationResult>> futures;
    for (int i = 0; i < 8; ++i)
        futures.push_back(
            (*engine)->Submit(MakeRequest(i * 16, 16)));
    for (auto& f : futures)
        EXPECT_TRUE(f.get().status.ok());

    EXPECT_GT(profiler.StageSeconds(obs::ProfileStage::kDevice),
              device_before);
    EXPECT_GT(profiler.StageSeconds(obs::ProfileStage::kPredictCheck),
              check_before);
    EXPECT_GT(profiler.Invocations(), invocations_before);
    const sim::EfficiencyEstimate estimate = profiler.Efficiency();
    ASSERT_TRUE(estimate.Valid());
    EXPECT_GT(estimate.speedup, 0.0);
    EXPECT_GT(estimate.energy_ratio, 0.0);

    // Shutdown while the 997 Hz env sampler is mid-flight: the
    // worker-thread slots die as the sampler walks them (the race
    // TSan checks), and the last release writes the folded dump.
    (*engine)->Shutdown();

    std::ifstream in(folded);
    EXPECT_TRUE(in.good());
    std::remove(folded.c_str());
    unsetenv("RUMBA_PROFILE_HZ");
    unsetenv("RUMBA_PROFILE_OUT");
}

}  // namespace
}  // namespace rumba
