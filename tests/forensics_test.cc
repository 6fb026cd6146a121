// Tests for the incident-forensics subsystem: the embedded time-series
// store's ring retention and range queries (obs/tsdb.h) against
// hand-computed fixtures, the EWMA z-score detector's warmup and
// count-based hysteresis (obs/anomaly.h), probe plumbing from registry
// snapshots, incident correlation semantics (obs/incident.h: distinct
// sources open, same source does not, the rate limiter suppresses),
// the one edge latch that carries anomaly and SLO fires (never
// clears) into the default incident manager,
// an engine-level race of the tsdb sampler against
// ShardedEngine::Shutdown (exercised under TSan in ci.sh), and who
// holds that one sampler: a runtime only while RUMBA_STREAM_OUT is
// set, sharing the ticks (and the stream) with a forensics engine.

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <csignal>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <future>
#include <string>
#include <vector>

#include "apps/benchmark.h"
#include "core/artifact.h"
#include "core/batch_view.h"
#include "core/runtime.h"
#include "obs/anomaly.h"
#include "obs/incident.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/tsdb.h"
#include "serve/engine.h"

namespace rumba {
namespace {

// ------------------------------------------------- period parsing

TEST(TsdbPeriodTest, ParseHonorsDefaultDisableAndClamp)
{
    EXPECT_EQ(obs::ParseTsdbPeriodMs(nullptr),
              obs::kDefaultTsdbPeriodMs);
    EXPECT_EQ(obs::ParseTsdbPeriodMs(""), obs::kDefaultTsdbPeriodMs);
    EXPECT_EQ(obs::ParseTsdbPeriodMs("soon"),
              obs::kDefaultTsdbPeriodMs);
    EXPECT_EQ(obs::ParseTsdbPeriodMs("0"), 0);
    EXPECT_EQ(obs::ParseTsdbPeriodMs("-40"), 0);
    EXPECT_EQ(obs::ParseTsdbPeriodMs("7"), 7);
    EXPECT_EQ(obs::ParseTsdbPeriodMs("999999"),
              obs::kMaxTsdbPeriodMs);
    // Past INT_MAX: clamps, where a narrowing cast would wrap to 1.
    EXPECT_EQ(obs::ParseTsdbPeriodMs("4294967297"),
              obs::kMaxTsdbPeriodMs);
}

// ------------------------------------------------- retention store

TEST(TimeSeriesStoreTest, RingWrapRetainsNewestPoints)
{
    obs::TimeSeriesStore store(/*ring_capacity=*/4, /*max_series=*/16);
    for (int i = 0; i < 10; ++i)
        store.Append("wrap", obs::SeriesKind::kGauge,
                     static_cast<double>(i), static_cast<double>(i));

    const auto ranges = store.Query("wrap", 0.0, 100.0);
    ASSERT_EQ(ranges.size(), 1u);
    EXPECT_EQ(ranges[0].total_appended, 10u);
    ASSERT_EQ(ranges[0].points.size(), 4u);
    // Oldest-first, and the four newest appends survived the wrap.
    for (size_t i = 0; i < 4; ++i)
        EXPECT_DOUBLE_EQ(ranges[0].points[i].t_ms,
                         static_cast<double>(6 + i));

    const obs::TsdbStats stats = store.Stats();
    EXPECT_EQ(stats.series, 1u);
    EXPECT_EQ(stats.points, 4u);
    EXPECT_EQ(stats.total_appended, 10u);
    EXPECT_EQ(stats.dropped_series, 0u);
}

TEST(TimeSeriesStoreTest, SeriesBeyondCapAreDroppedAndCounted)
{
    obs::TimeSeriesStore store(/*ring_capacity=*/4, /*max_series=*/2);
    store.Append("a", obs::SeriesKind::kGauge, 0.0, 1.0);
    store.Append("b", obs::SeriesKind::kGauge, 0.0, 2.0);
    store.Append("c", obs::SeriesKind::kGauge, 0.0, 3.0);
    store.Append("c", obs::SeriesKind::kGauge, 1.0, 4.0);

    const obs::TsdbStats stats = store.Stats();
    EXPECT_EQ(stats.series, 2u);
    EXPECT_EQ(stats.dropped_series, 2u);
    EXPECT_TRUE(store.Query("c", 0.0, 10.0).empty());
}

TEST(TimeSeriesStoreTest, RateMatchesHandComputedFixture)
{
    obs::TimeSeriesStore store;
    store.Append("req", obs::SeriesKind::kCounter, 0.0, 0.0);
    store.Append("req", obs::SeriesKind::kCounter, 1000.0, 100.0);

    double rate = 0.0;
    ASSERT_TRUE(store.Rate("req", -1.0, 2000.0, &rate));
    EXPECT_DOUBLE_EQ(rate, 100.0);  // 100 increments over 1 s.

    // A counter reset clamps to zero rather than going negative.
    obs::TimeSeriesStore reset;
    reset.Append("req", obs::SeriesKind::kCounter, 0.0, 100.0);
    reset.Append("req", obs::SeriesKind::kCounter, 1000.0, 40.0);
    ASSERT_TRUE(reset.Rate("req", -1.0, 2000.0, &rate));
    EXPECT_DOUBLE_EQ(rate, 0.0);

    // Not a counter / missing / single point: no rate.
    store.Append("g", obs::SeriesKind::kGauge, 0.0, 1.0);
    store.Append("g", obs::SeriesKind::kGauge, 1000.0, 2.0);
    EXPECT_FALSE(store.Rate("g", -1.0, 2000.0, &rate));
    EXPECT_FALSE(store.Rate("absent", -1.0, 2000.0, &rate));
    EXPECT_FALSE(store.Rate("req", 900.0, 2000.0, &rate));
}

TEST(TimeSeriesStoreTest, QuantileOverTimeMatchesHandComputedFixture)
{
    obs::TimeSeriesStore store;
    // Append out of value order; the quantile sorts values, not time.
    const double values[] = {30.0, 10.0, 40.0, 20.0};
    for (int i = 0; i < 4; ++i)
        store.Append("lat", obs::SeriesKind::kGauge,
                     static_cast<double>(i), values[i]);

    double q = 0.0;
    ASSERT_TRUE(store.QuantileOverTime("lat", 0.5, -1.0, 10.0, &q));
    EXPECT_DOUBLE_EQ(q, 25.0);  // pos = 0.5*(4-1) = 1.5 -> 20..30.
    ASSERT_TRUE(store.QuantileOverTime("lat", 0.0, -1.0, 10.0, &q));
    EXPECT_DOUBLE_EQ(q, 10.0);
    ASSERT_TRUE(store.QuantileOverTime("lat", 1.0, -1.0, 10.0, &q));
    EXPECT_DOUBLE_EQ(q, 40.0);
    // Range excludes everything -> no quantile.
    EXPECT_FALSE(store.QuantileOverTime("lat", 0.5, 100.0, 200.0, &q));
    EXPECT_FALSE(store.QuantileOverTime("nope", 0.5, -1.0, 10.0, &q));
}

TEST(TimeSeriesStoreTest, TsdbzJsonServesDefaultStoreSeries)
{
    const std::string name = "forensics_test.unique_series";
    obs::TimeSeriesStore& store = obs::TimeSeriesStore::Default();
    const double now = store.NowMs();
    store.Append(name, obs::SeriesKind::kGauge, now - 1.0, 42.0);
    store.Append(name, obs::SeriesKind::kGauge, now - 0.5, 43.0);

    const std::string body =
        obs::TsdbzJson("prefix=" + name + "&range_ms=60000");
    EXPECT_NE(body.find("\"schema_version\":1"), std::string::npos);
    EXPECT_NE(body.find("\"" + name + "\""), std::string::npos);
    EXPECT_NE(body.find("\"points\":2"), std::string::npos);
}

// ------------------------------------------------- anomaly detector

obs::AnomalyConfig
DetectorConfig(const std::string& name)
{
    obs::AnomalyConfig config;
    config.name = name;
    config.warmup_samples = 10;
    config.fire_count = 3;
    config.clear_count = 5;
    // The EWMA variance of a constant series decays toward the floor;
    // a unit floor keeps tiny convergence residue (mean approaches
    // 100 from the 0-initialized EWMA) scoring as normal while the
    // 100-unit spikes below stay far beyond z_threshold.
    config.min_stddev = 1.0;
    return config;
}

/** Converge the detector's EWMA onto a flat baseline of @p value. */
void
Settle(obs::AnomalyDetector* detector, double value, int samples = 200)
{
    for (int i = 0; i < samples; ++i)
        detector->Observe(value, 1);
}

TEST(AnomalyDetectorTest, WarmupSamplesNeverFire)
{
    obs::AnomalyDetector detector(
        DetectorConfig("forensics_test.warmup"));
    // Wild swings inside the warmup window only seed the statistics.
    for (int i = 0; i < 10; ++i)
        EXPECT_FALSE(detector.Observe(i % 2 == 0 ? 1e6 : -1e6, 1));
    EXPECT_FALSE(detector.Firing());
    EXPECT_EQ(detector.Edges(), 0u);
    EXPECT_EQ(detector.SamplesSeen(), 10u);
}

/** Signals the default incident manager has accepted so far. */
uint64_t
IncidentSignals()
{
    return obs::Registry::Default()
        .GetCounter("incident.signals")
        ->Value();
}

TEST(AnomalyDetectorTest, HysteresisEdgesAreCountDeterministic)
{
    obs::AnomalyDetector detector(
        DetectorConfig("forensics_test.hysteresis"));

    Settle(&detector, 100.0);
    EXPECT_FALSE(detector.Firing());
    EXPECT_EQ(detector.Edges(), 0u);
    const uint64_t signals = IncidentSignals();

    // Fire on exactly the fire_count-th consecutive anomalous sample.
    EXPECT_FALSE(detector.Observe(200.0, 1));
    EXPECT_FALSE(detector.Observe(200.0, 1));
    EXPECT_TRUE(detector.Observe(200.0, 1));
    EXPECT_TRUE(detector.Firing());
    EXPECT_EQ(detector.Edges(), 1u);
    EXPECT_EQ(IncidentSignals(), signals + 1);

    // Clear on exactly the clear_count-th consecutive normal sample.
    for (int i = 0; i < 4; ++i)
        EXPECT_FALSE(detector.Observe(100.0, 1));
    EXPECT_TRUE(detector.Observe(100.0, 1));
    EXPECT_FALSE(detector.Firing());
    EXPECT_EQ(detector.Edges(), 2u);
    EXPECT_EQ(IncidentSignals(), signals + 1);  // clears signal nothing.
}

TEST(AnomalyDetectorTest, AnomalousSamplesDoNotShiftBaseline)
{
    obs::AnomalyDetector detector(
        DetectorConfig("forensics_test.frozen"));
    Settle(&detector, 100.0);
    const double mean_before = detector.Mean();
    // A sustained storm of outliers must not absorb into the EWMA —
    // otherwise the fault becomes the new normal and clears itself.
    for (int i = 0; i < 50; ++i)
        detector.Observe(5000.0, 1);
    EXPECT_DOUBLE_EQ(detector.Mean(), mean_before);
    EXPECT_TRUE(detector.Firing());
}

TEST(AnomalySetTest, CounterRateProbeFeedsDetectorBetweenTicks)
{
    obs::AnomalySet set;
    obs::AnomalyConfig config = DetectorConfig("forensics_test.rate");
    config.warmup_samples = 1;
    obs::AnomalyDetector* detector = set.Add(
        obs::AnomalySet::Probe::kCounterRate, "ticks", config);
    ASSERT_NE(detector, nullptr);
    // Idempotent by name: re-adding returns the same detector.
    EXPECT_EQ(set.Add(obs::AnomalySet::Probe::kCounterRate, "ticks",
                      config),
              detector);
    EXPECT_EQ(set.Detectors(), 1u);

    obs::RegistrySnapshot snap;
    snap.counters.push_back({"ticks", 0});
    set.Observe(snap, 0.0, 1);
    // First sighting only records the baseline — no rate yet.
    EXPECT_EQ(detector->SamplesSeen(), 0u);

    snap.counters[0].value = 50;
    set.Observe(snap, 1000.0, 1);
    EXPECT_EQ(detector->SamplesSeen(), 1u);
    // One EWMA step from the 0-initialized mean with a 50/s reading.
    EXPECT_DOUBLE_EQ(detector->Mean(), config.alpha * 50.0);
}

// ------------------------------------------------- incident manager

obs::IncidentConfig
CorrelatorConfig()
{
    obs::IncidentConfig config;
    config.window_ms = 1.0e6;  // everything this test emits coexists.
    config.min_sources = 2;
    config.rate_limit_ms = 0.0;
    config.dir = "";  // memory-only: no RUMBA_INCIDENT_DIR leakage.
    return config;
}

obs::IncidentSignal
Signal(const std::string& source, const std::string& name)
{
    obs::IncidentSignal signal;
    signal.source = source;
    signal.name = name;
    signal.detail = "test";
    return signal;
}

TEST(IncidentManagerTest, DistinctSourcesWithinWindowOpenOneIncident)
{
    obs::IncidentManager& manager = obs::IncidentManager::Default();
    manager.Configure(CorrelatorConfig());
    manager.Clear();

    manager.OnSignal(Signal("breaker", "serve.shard0"));
    manager.OnSignal(Signal("fault", "fault.injected.output_nan"));
    manager.OnSignal(Signal("slo", "slo.serve_quality"));
    manager.FinalizeOpenNow();

    const auto list = manager.List();
    ASSERT_EQ(list.size(), 1u);
    EXPECT_EQ(list[0].sources, 3u);
    EXPECT_EQ(list[0].signals, 3u);
    EXPECT_EQ(list[0].kinds, "breaker+fault+slo");
    EXPECT_TRUE(list[0].path.empty());
    const std::string detail = manager.Detail(list[0].id);
    EXPECT_NE(detail.find("\"type\":\"incident\""), std::string::npos);
    EXPECT_NE(detail.find("\"schema_version\":1"), std::string::npos);
}

TEST(IncidentManagerTest, OneSourceAloneNeverOpens)
{
    obs::IncidentManager& manager = obs::IncidentManager::Default();
    manager.Configure(CorrelatorConfig());
    manager.Clear();

    manager.OnSignal(Signal("breaker", "serve.shard0"));
    manager.OnSignal(Signal("breaker", "serve.shard1"));
    manager.OnSignal(Signal("breaker", "serve.shard0"));
    manager.FinalizeOpenNow();

    EXPECT_TRUE(manager.List().empty());
}

TEST(IncidentManagerTest, RateLimitSuppressesTheSecondBurst)
{
    obs::IncidentManager& manager = obs::IncidentManager::Default();
    obs::IncidentConfig config = CorrelatorConfig();
    config.rate_limit_ms = 1.0e9;  // nothing re-opens in this test.
    manager.Configure(config);
    manager.Clear();

    manager.OnSignal(Signal("breaker", "serve.shard0"));
    manager.OnSignal(Signal("fault", "fault.injected.output_nan"));
    manager.FinalizeOpenNow();
    ASSERT_EQ(manager.List().size(), 1u);

    manager.OnSignal(Signal("breaker", "serve.shard1"));
    manager.OnSignal(Signal("slo", "slo.serve_latency"));
    manager.FinalizeOpenNow();
    EXPECT_EQ(manager.List().size(), 1u);  // suppressed, not opened.
}

TEST(IncidentzJsonTest, IdParameterUsesTheSharedQueryParser)
{
    obs::IncidentManager& manager = obs::IncidentManager::Default();
    manager.Configure(CorrelatorConfig());
    manager.Clear();
    manager.OnSignal(Signal("breaker", "serve.shard0"));
    manager.OnSignal(Signal("fault", "fault.injected.output_nan"));
    manager.FinalizeOpenNow();
    ASSERT_EQ(manager.List().size(), 1u);
    const uint64_t id = manager.List()[0].id;
    const std::string n = std::to_string(id);
    const std::string bundle = manager.Detail(id);
    const std::string listing = obs::IncidentzJson("");
    const std::string unknown_zero =
        "{\"schema_version\":1,\"error\":\"unknown incident\","
        "\"id\":0}";
    ASSERT_NE(listing.find("\"count\":1,"), std::string::npos);

    EXPECT_EQ(obs::IncidentzJson("id=" + n), bundle);
    EXPECT_EQ(obs::IncidentzJson("x=1&id=" + n), bundle);
    EXPECT_EQ(obs::IncidentzJson("xid=" + n), listing);  // not "id".
    EXPECT_EQ(obs::IncidentzJson("id=abc"), unknown_zero);
    EXPECT_EQ(obs::IncidentzJson("id="), unknown_zero);  // present.
}

// ------------------------------------------------- edge latch

TEST(EdgeLatchTest, StandaloneAnomalyFireIsOneIncidentSignal)
{
    obs::IncidentManager& manager = obs::IncidentManager::Default();
    manager.Configure(CorrelatorConfig());
    manager.Clear();
    // No AnomalySet and no engine: the detector's own latch is the
    // path into the default incident manager.
    obs::AnomalyDetector detector(DetectorConfig("forensics_test.latch"),
                                  "forensics_test.latch_series");
    Settle(&detector, 100.0);
    manager.OnSignal(Signal("breaker", "serve.shard0"));
    const uint64_t signals = IncidentSignals();

    for (int i = 0; i < 3; ++i)
        detector.Observe(200.0, 1);
    ASSERT_TRUE(detector.Firing());
    EXPECT_EQ(IncidentSignals(), signals + 1);
    for (int i = 0; i < 5; ++i)
        detector.Observe(100.0, 1);
    ASSERT_FALSE(detector.Firing());
    EXPECT_EQ(IncidentSignals(), signals + 1);

    manager.FinalizeOpenNow();
    const auto list = manager.List();
    ASSERT_EQ(list.size(), 1u);
    EXPECT_EQ(list[0].kinds, "anomaly+breaker");
    EXPECT_EQ(list[0].signals, 2u);
    const std::string detail = manager.Detail(list[0].id);
    EXPECT_NE(detail.find("\"name\":\"anomaly.forensics_test.latch\""),
              std::string::npos);
    EXPECT_NE(detail.find("\"detail\":\"value=200 "), std::string::npos);
    EXPECT_NE(detail.find("\"series\":\"forensics_test.latch_series\""),
              std::string::npos);
}

TEST(EdgeLatchTest, SloFireIsOneIncidentSignalBesideAUserSink)
{
    obs::IncidentManager& manager = obs::IncidentManager::Default();
    manager.Configure(CorrelatorConfig());
    manager.Clear();
    obs::SloConfig config;
    config.name = "forensics_test_slo";
    config.objective = 0.9;
    config.fast_window_ns = 1000;
    config.slow_window_ns = 10000;
    config.buckets = 10;
    config.fast_burn_alert = 5.0;  // all-bad burns at 10x.
    config.min_events = 5;
    obs::SloMonitor monitor(config);
    std::vector<obs::AlarmEdge> edges;
    monitor.SetAlertSink(
        [&edges](const obs::AlarmEdge& edge) { edges.push_back(edge); });
    manager.OnSignal(Signal("breaker", "serve.shard0"));
    const uint64_t signals = IncidentSignals();

    for (int i = 0; i < 10; ++i)
        monitor.Record(false, 10000 + i * 100);
    ASSERT_TRUE(monitor.Alerting());
    monitor.Record(true, 12500);  // a healthy fast window clears.
    ASSERT_FALSE(monitor.Alerting());

    ASSERT_EQ(edges.size(), 2u);
    EXPECT_TRUE(edges[0].firing);
    EXPECT_FALSE(edges[1].firing);
    EXPECT_EQ(IncidentSignals(), signals + 1);
    manager.FinalizeOpenNow();
    const auto list = manager.List();
    ASSERT_EQ(list.size(), 1u);
    EXPECT_EQ(list[0].kinds, "breaker+slo");
    EXPECT_EQ(list[0].signals, 2u);
}

// ------------------------------------------------- engine race

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

/** One trained artifact shared by the engine race (training is the
 *  expensive part; the engine only deploys from it). */
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

TEST(ForensicsEngineTest, ShutdownRacesTsdbSamplerCleanly)
{
    const auto bench = apps::MakeBenchmark("inversek2j");
    const std::vector<double> flat =
        core::FlattenBatch(bench->TestInputs());
    const size_t in_w = bench->NumInputs();

    // A 1 ms sampler period makes ticks land inside Create/Submit/
    // Shutdown; repeated cycles give TSan real interleavings of the
    // sampler's registry snapshot against worker teardown. The period
    // is read once, when Create() starts the sampler.
    for (int cycle = 0; cycle < 3; ++cycle) {
        serve::ServeConfig config;
        config.shards = 2;
        config.queue_capacity = 8;
        ::setenv("RUMBA_TSDB_PERIOD_MS", "1", 1);
        auto engine = serve::ShardedEngine::Create(
            SharedArtifact(), ServeRuntimeConfig(), config);
        ::unsetenv("RUMBA_TSDB_PERIOD_MS");
        ASSERT_TRUE(engine.ok()) << engine.status().ToString();

        std::vector<std::future<serve::InvocationResult>> futures;
        for (size_t r = 0; r < 6; ++r) {
            serve::InvocationRequest request;
            request.width = in_w;
            request.count = 8;
            request.inputs.assign(
                flat.begin(),
                flat.begin() + static_cast<ptrdiff_t>(8 * in_w));
            futures.push_back((*engine)->Submit(std::move(request)));
        }
        for (auto& future : futures)
            EXPECT_TRUE(future.get().status.ok());
        (*engine)->Shutdown();
    }
    // The last Release() stopped the refcounted sampler.
    EXPECT_FALSE(obs::TsdbSampler::Default().Running());
}

TEST(ForensicsEngineTest, RuntimeWithoutStreamStartsNoSampler)
{
    ::unsetenv("RUMBA_STREAM_OUT");
    auto runtime = core::RumbaRuntime::FromArtifact(
        SharedArtifact(), ServeRuntimeConfig());
    ASSERT_TRUE(runtime.ok()) << runtime.status().ToString();
    EXPECT_FALSE(obs::TsdbSampler::Default().Running());
}

TEST(ForensicsEngineTest, StreamingRuntimeAndEngineShareOneSampler)
{
    const core::Artifact& artifact = SharedArtifact();
    const std::string path =
        ::testing::TempDir() + "forensics_stream.jsonl";
    ::setenv("RUMBA_STREAM_OUT", path.c_str(), 1);
    ::setenv("RUMBA_TSDB_PERIOD_MS", "2", 1);
    {
        auto runtime = core::RumbaRuntime::FromArtifact(
            artifact, ServeRuntimeConfig());
        ASSERT_TRUE(runtime.ok()) << runtime.status().ToString();
        EXPECT_TRUE(obs::TsdbSampler::Default().Running());

        serve::ServeConfig config;
        config.shards = 2;
        auto engine = serve::ShardedEngine::Create(
            artifact, ServeRuntimeConfig(), config);
        ASSERT_TRUE(engine.ok()) << engine.status().ToString();
        const auto bench = apps::MakeBenchmark("inversek2j");
        const std::vector<double> flat =
            core::FlattenBatch(bench->TestInputs());
        for (size_t r = 0; r < 4; ++r) {
            serve::InvocationRequest request;
            request.width = bench->NumInputs();
            request.count = 8;
            request.inputs.assign(
                flat.begin(),
                flat.begin() +
                    static_cast<ptrdiff_t>(8 * request.width));
            EXPECT_TRUE(
                (*engine)->Submit(std::move(request)).get().status.ok());
        }
        (*engine)->Shutdown();
        // The engine's release leaves the runtime's ref holding it.
        EXPECT_TRUE(obs::TsdbSampler::Default().Running());
    }
    ::unsetenv("RUMBA_STREAM_OUT");
    ::unsetenv("RUMBA_TSDB_PERIOD_MS");
    EXPECT_FALSE(obs::TsdbSampler::Default().Running());
    const uint64_t ticks = obs::TsdbSampler::Default().Samples();

    // One file, one header, and exactly one sample line per tick.
    std::ifstream in(path);
    std::string line;
    size_t metas = 0, samples = 0;
    while (std::getline(in, line)) {
        if (line.find("\"type\":\"meta\"") != std::string::npos)
            ++metas;
        if (line.find("\"type\":\"sample\"") != std::string::npos)
            ++samples;
    }
    std::remove(path.c_str());
    EXPECT_EQ(metas, 1u);
    EXPECT_GE(ticks, 1u);
    EXPECT_EQ(samples, ticks);
}


// The forensics dump is a sink that only registers a flush hook: no
// RUMBA_*_OUT variable is set, yet SIGTERM must still write the
// retained tsdb rings into RUMBA_INCIDENT_DIR before the process dies.
TEST(ForensicsSignalFlushTest, SigtermFlushesTsdbIntoTheIncidentDir)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    const std::string dir = ::testing::TempDir() + "sigterm_flush";
    mkdir(dir.c_str(), 0755);
    const std::string flushed = dir + "/tsdb-flush.jsonl";
    std::remove(flushed.c_str());
    EXPECT_EXIT(
        {
            for (const char* var :
                 {"RUMBA_METRICS_OUT", "RUMBA_TRACE_OUT",
                  "RUMBA_REQTRACE_OUT", "RUMBA_AUDIT_OUT",
                  "RUMBA_STREAM_OUT", "RUMBA_TSDB_PERIOD_MS"})
                unsetenv(var);
            setenv("RUMBA_INCIDENT_DIR", dir.c_str(), 1);
            obs::TsdbSampler::Acquire();
            std::raise(SIGTERM);
        },
        ::testing::KilledBySignal(SIGTERM), "");
    EXPECT_EQ(access(flushed.c_str(), F_OK), 0) << flushed;
    std::remove(flushed.c_str());
}

}  // namespace
}  // namespace rumba
