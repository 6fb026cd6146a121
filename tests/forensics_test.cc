// Tests for the incident-forensics subsystem: the embedded time-series
// store's ring retention and range queries (obs/tsdb.h) against
// hand-computed fixtures, incident correlation semantics
// (obs/incident.h: distinct sources open, same source does not, the
// rate limiter suppresses), the SLO monitor's own alert edge carrying
// each fire (never a clear) into the default incident manager,
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
    EXPECT_EQ(obs::ParseTsdbPeriodMs("99999999999999999999999"),
              obs::kMaxTsdbPeriodMs);
    EXPECT_EQ(obs::ParseTsdbPeriodMs("-99999999999999999999999"), 0);
    // Only the whole value counts: a numeric prefix is not a period.
    for (const char* garbage : {"0x10", "-5x", "25abc", " 25", "+25"})
        EXPECT_EQ(obs::ParseTsdbPeriodMs(garbage),
                  obs::kDefaultTsdbPeriodMs)
            << garbage;
}

// ------------------------------------------------- retention store

TEST(TimeSeriesStoreTest, DumpReportsAFailedWrite)
{
    obs::TimeSeriesStore store(/*ring_capacity=*/4, /*max_series=*/4);
    store.Append("dump", obs::SeriesKind::kGauge, 1.0, 2.0);
    // /dev/full opens, then refuses every byte.
    EXPECT_FALSE(store.DumpBestEffort("/dev/full"));
    const std::string path = ::testing::TempDir() + "tsdb_dump.jsonl";
    ASSERT_TRUE(store.DumpBestEffort(path));
    std::ifstream in(path);
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    std::remove(path.c_str());
    EXPECT_EQ(line.find("{\"type\":\"tsdb_series\",\"name\":\"dump\""),
              0u);
}

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

// ------------------------------------------------- incident manager

/** Signals the default incident manager has accepted so far. */
uint64_t
IncidentSignals()
{
    return obs::Registry::Default()
        .GetCounter("incident.signals")
        ->Value();
}

/** A signal stamped @p t_ms (0 stamps it on entry: signals a test
 *  emits back to back share one correlation window). */
obs::IncidentSignal
Signal(const std::string& source, const std::string& name,
       double t_ms = 0.0)
{
    obs::IncidentSignal signal;
    signal.source = source;
    signal.name = name;
    signal.detail = "test";
    signal.t_ms = t_ms;
    return signal;
}

// The default manager's tests each start from Clear(), which also
// lifts the rate limit, so no test waits out another's incident.

TEST(IncidentManagerTest, DistinctSourcesWithinWindowOpenOneIncident)
{
    obs::IncidentManager& manager = obs::IncidentManager::Default();
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

TEST(IncidentManagerTest, UnwrittenBundleIsNotCountedAsDumped)
{
    // The first bundle's file resolves to /dev/full: it opens, then
    // refuses every byte.
    const std::string dir = ::testing::TempDir() + "incident_full";
    mkdir(dir.c_str(), 0755);
    const std::string link = dir + "/incident-1.json";
    std::remove(link.c_str());
    ASSERT_EQ(symlink("/dev/full", link.c_str()), 0);
    obs::IncidentManager manager(dir);
    const uint64_t dumped = manager.Dumped();

    manager.OnSignal(Signal("breaker", "serve.shard0"));
    manager.OnSignal(Signal("fault", "fault.injected.output_nan"));
    manager.FinalizeOpenNow();
    std::remove(link.c_str());

    const auto list = manager.List();
    ASSERT_EQ(list.size(), 1u);
    EXPECT_EQ(list[0].id, 1u);
    EXPECT_TRUE(list[0].path.empty());
    EXPECT_EQ(manager.Dumped(), dumped);
}

TEST(IncidentManagerTest, OneSourceAloneNeverOpens)
{
    obs::IncidentManager& manager = obs::IncidentManager::Default();
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
    manager.Clear();
    const uint64_t suppressed = manager.Suppressed();
    const double t0 = 1.0e6;  // explicit tsdb-epoch stamps.
    const double limit = obs::IncidentManager::kRateLimitMs;

    manager.OnSignal(Signal("breaker", "serve.shard0", t0));
    manager.OnSignal(Signal("fault", "fault.injected.output_nan", t0));
    manager.FinalizeOpenNow();
    ASSERT_EQ(manager.List().size(), 1u);

    // A second correlated burst inside the limit is suppressed.
    manager.OnSignal(Signal("breaker", "serve.shard1", t0 + limit - 1.0));
    manager.OnSignal(Signal("slo", "slo.serve_latency", t0 + limit - 1.0));
    manager.FinalizeOpenNow();
    EXPECT_EQ(manager.List().size(), 1u);  // suppressed, not opened.
    EXPECT_EQ(manager.Suppressed(), suppressed + 1);

    // One past it opens again.
    manager.OnSignal(Signal("breaker", "serve.shard1", t0 + limit));
    manager.OnSignal(Signal("slo", "slo.serve_latency", t0 + limit));
    manager.FinalizeOpenNow();
    EXPECT_EQ(manager.List().size(), 2u);
}

TEST(IncidentManagerTest, SignalsOutsideTheWindowDoNotCorrelate)
{
    obs::IncidentManager& manager = obs::IncidentManager::Default();
    manager.Clear();
    const double t0 = 1.0e6;
    const double window = obs::IncidentManager::kWindowMs;

    manager.OnSignal(Signal("breaker", "serve.shard0", t0));
    manager.OnSignal(Signal("fault", "fault.injected.output_nan",
                            t0 + window + 1.0));
    manager.FinalizeOpenNow();
    EXPECT_TRUE(manager.List().empty());

    manager.OnSignal(Signal("slo", "slo.serve_latency", t0 + 2 * window));
    manager.FinalizeOpenNow();
    ASSERT_EQ(manager.List().size(), 1u);
    EXPECT_EQ(manager.List()[0].kinds, "fault+slo");
}

TEST(IncidentzJsonTest, IdParameterUsesTheSharedQueryParser)
{
    obs::IncidentManager& manager = obs::IncidentManager::Default();
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
    // The whole value must be plain decimal digits: no numeric prefix,
    // sign, space or hex, and no wrap past 2^64.
    for (const std::string& value :
         {std::string("1abc"), std::string("-1"), std::string(" 1"),
          std::string("+1"), std::string("0x1"), n + "abc", "+" + n,
          " " + n, "-" + n, std::string("18446744073709551616")})
        EXPECT_EQ(obs::IncidentzJson("id=" + value), unknown_zero)
            << value;
}

// ------------------------------------------------- SLO alert edge

TEST(SloMonitorTest, SloFireIsOneIncidentSignalBesideAUserSink)
{
    obs::IncidentManager& manager = obs::IncidentManager::Default();
    manager.Clear();
    // Objective 0.9: an all-bad stream burns at 10x, the alert level.
    obs::SloMonitor monitor("forensics_test_slo", 0.9);
    std::vector<obs::AlarmEdge> edges;
    monitor.SetAlertSink(
        [&edges](const obs::AlarmEdge& edge) { edges.push_back(edge); });
    manager.OnSignal(Signal("breaker", "serve.shard0"));
    const uint64_t signals = IncidentSignals();

    const uint64_t second = 1000ull * 1000 * 1000;
    for (uint64_t i = 0; i < obs::SloMonitor::kMinEvents; ++i)
        monitor.Record(false, 10 * second + i * second / 20);
    ASSERT_TRUE(monitor.Alerting());
    EXPECT_EQ(IncidentSignals(), signals + 1);
    // A healthy fast window clears, and a clear signals nothing.
    monitor.Record(true, 10 * second + obs::SloMonitor::kFastWindowNs +
                             second / 2);
    ASSERT_FALSE(monitor.Alerting());
    EXPECT_EQ(IncidentSignals(), signals + 1);

    ASSERT_EQ(edges.size(), 2u);
    EXPECT_TRUE(edges[0].firing);
    EXPECT_FALSE(edges[1].firing);
    manager.FinalizeOpenNow();
    const auto list = manager.List();
    ASSERT_EQ(list.size(), 1u);
    EXPECT_EQ(list[0].kinds, "breaker+slo");
    EXPECT_EQ(list[0].signals, 2u);
    const std::string detail = manager.Detail(list[0].id);
    EXPECT_NE(detail.find("\"name\":\"slo.forensics_test_slo\""),
              std::string::npos);
    EXPECT_NE(detail.find("\"detail\":\"fast_burn=10 "), std::string::npos);
    EXPECT_NE(
        detail.find("\"series\":\"slo.forensics_test_slo.fast_burn_rate\""),
        std::string::npos);
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
