// Unit tests for the telemetry subsystem (src/obs): counter / gauge /
// histogram semantics, quantile accuracy on known distributions,
// trace-ring wraparound, snapshot idempotence, exporter round-trips,
// and the registry sampler's RUMBA_STREAM_OUT sink.

#include <gtest/gtest.h>

#include <signal.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.h"
#include "obs/http_exporter.h"
#include "obs/metrics.h"
#include "obs/reqtrace.h"
#include "obs/slo.h"
#include "obs/span.h"
#include "obs/timer.h"
#include "obs/trace.h"
#include "obs/tsdb.h"

namespace rumba::obs {
namespace {

// ------------------------------------------------------------ Counters

TEST(CounterTest, StartsAtZeroAndAccumulates)
{
    Counter c;
    EXPECT_EQ(c.Value(), 0u);
    c.Increment();
    c.Increment(41);
    EXPECT_EQ(c.Value(), 42u);
    c.Reset();
    EXPECT_EQ(c.Value(), 0u);
}

TEST(CounterTest, ConcurrentIncrementsAreLossless)
{
    Counter c;
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&c] {
            for (int i = 0; i < 10000; ++i)
                c.Increment();
        });
    }
    for (auto& t : threads)
        t.join();
    EXPECT_EQ(c.Value(), 40000u);
}

// -------------------------------------------------------------- Gauges

TEST(GaugeTest, LastValueWins)
{
    Gauge g;
    EXPECT_DOUBLE_EQ(g.Value(), 0.0);
    g.Set(0.25);
    g.Set(1.5);
    EXPECT_DOUBLE_EQ(g.Value(), 1.5);
}

// ---------------------------------------------------------- Histograms

TEST(HistogramTest, CountsSumMinMax)
{
    Histogram h(Histogram::LinearBuckets(10.0, 10.0, 10));
    for (double v : {5.0, 15.0, 95.0, 250.0})
        h.Observe(v);
    EXPECT_EQ(h.Count(), 4u);
    EXPECT_DOUBLE_EQ(h.Sum(), 365.0);
    EXPECT_DOUBLE_EQ(h.Min(), 5.0);
    EXPECT_DOUBLE_EQ(h.Max(), 250.0);  // overflow bucket keeps max.
}

TEST(HistogramTest, QuantilesOnUniformDistribution)
{
    // 1..1000 into width-10 buckets: quantiles should land within one
    // bucket of the exact order statistic.
    Histogram h(Histogram::LinearBuckets(10.0, 10.0, 100));
    for (int v = 1; v <= 1000; ++v)
        h.Observe(static_cast<double>(v));
    EXPECT_NEAR(h.Quantile(0.50), 500.0, 10.0);
    EXPECT_NEAR(h.Quantile(0.90), 900.0, 10.0);
    EXPECT_NEAR(h.Quantile(0.99), 990.0, 10.0);
    EXPECT_NEAR(h.Quantile(1.00), 1000.0, 1e-9);
}

TEST(HistogramTest, QuantilesAreMonotoneAndClamped)
{
    Histogram h(Histogram::ExponentialBuckets(1.0, 2.0, 16));
    for (double v : {3.0, 3.0, 3.0, 7.0, 20000.0, 70000.0})
        h.Observe(v);
    double prev = h.Min();
    for (double q : {0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
        const double value = h.Quantile(q);
        EXPECT_GE(value, prev) << "q=" << q;
        EXPECT_GE(value, h.Min());
        EXPECT_LE(value, h.Max());
        prev = value;
    }
}

TEST(HistogramTest, EmptyHistogramIsAllZero)
{
    Histogram h(Histogram::DefaultLatencyBounds());
    EXPECT_EQ(h.Count(), 0u);
    EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.0);
    const HistogramSnapshot snap = h.Snapshot("x");
    EXPECT_DOUBLE_EQ(snap.min, 0.0);
    EXPECT_DOUBLE_EQ(snap.max, 0.0);
    EXPECT_DOUBLE_EQ(snap.p99, 0.0);
}

TEST(HistogramTest, BucketCountsIncludeOverflow)
{
    Histogram h(Histogram::LinearBuckets(1.0, 1.0, 3));  // 1, 2, 3.
    for (double v : {0.5, 1.5, 2.5, 99.0})
        h.Observe(v);
    const auto counts = h.BucketCounts();
    ASSERT_EQ(counts.size(), 4u);
    EXPECT_EQ(counts[0], 1u);  // <= 1
    EXPECT_EQ(counts[1], 1u);  // (1, 2]
    EXPECT_EQ(counts[2], 1u);  // (2, 3]
    EXPECT_EQ(counts[3], 1u);  // overflow
}

// ------------------------------------------------------------ Registry

TEST(RegistryTest, SameNameSameInstrument)
{
    Registry registry;
    Counter* a = registry.GetCounter("x.count");
    Counter* b = registry.GetCounter("x.count");
    EXPECT_EQ(a, b);
    EXPECT_NE(registry.GetGauge("x.gauge"), nullptr);
    Histogram* h1 = registry.GetHistogram("x.lat");
    Histogram* h2 =
        registry.GetHistogram("x.lat", Histogram::LinearBuckets(1, 1, 2));
    EXPECT_EQ(h1, h2);  // bounds only apply on first registration.
    EXPECT_EQ(h1->Bounds(), Histogram::DefaultLatencyBounds());
}

TEST(RegistryTest, SnapshotIsIdempotentAndSorted)
{
    Registry registry;
    registry.GetCounter("b.count")->Increment(2);
    registry.GetCounter("a.count")->Increment(1);
    registry.GetGauge("g")->Set(3.5);
    registry.GetHistogram("h")->Observe(100.0);

    const RegistrySnapshot s1 = registry.Snapshot();
    const RegistrySnapshot s2 = registry.Snapshot();

    ASSERT_EQ(s1.counters.size(), 2u);
    EXPECT_EQ(s1.counters[0].name, "a.count");  // sorted by name.
    EXPECT_EQ(s1.counters[1].name, "b.count");
    EXPECT_EQ(s1.counters[1].value, 2u);

    // Snapshotting must not disturb state: s2 is identical.
    ASSERT_EQ(s2.counters.size(), s1.counters.size());
    for (size_t i = 0; i < s1.counters.size(); ++i) {
        EXPECT_EQ(s1.counters[i].name, s2.counters[i].name);
        EXPECT_EQ(s1.counters[i].value, s2.counters[i].value);
    }
    ASSERT_EQ(s1.histograms.size(), 1u);
    ASSERT_EQ(s2.histograms.size(), 1u);
    EXPECT_EQ(s1.histograms[0].count, s2.histograms[0].count);
    EXPECT_DOUBLE_EQ(s1.histograms[0].p50, s2.histograms[0].p50);
}

TEST(RegistryTest, ResetZeroesButKeepsNames)
{
    Registry registry;
    registry.GetCounter("c")->Increment(7);
    registry.GetHistogram("h")->Observe(42.0);
    registry.Reset();
    const RegistrySnapshot snap = registry.Snapshot();
    ASSERT_EQ(snap.counters.size(), 1u);
    EXPECT_EQ(snap.counters[0].value, 0u);
    ASSERT_EQ(snap.histograms.size(), 1u);
    EXPECT_EQ(snap.histograms[0].count, 0u);
}

// --------------------------------------------------------- ScopedTimer

TEST(ScopedTimerTest, RecordsPositiveDuration)
{
    Histogram h(Histogram::DefaultLatencyBounds());
    {
        ScopedTimer timer(&h);
        volatile double sink = 0.0;
        for (int i = 0; i < 1000; ++i)
            sink += static_cast<double>(i);
        (void)sink;
    }
    EXPECT_EQ(h.Count(), 1u);
    EXPECT_GT(h.Sum(), 0.0);
}

TEST(ScopedTimerTest, NullHistogramIsNoop)
{
    ScopedTimer timer(nullptr);  // must not crash on destruction.
}

// ----------------------------------------------------------- TraceRing

TraceEvent
EventWithFixes(uint64_t fixes)
{
    TraceEvent e;
    e.fixes = fixes;
    return e;
}

TEST(TraceRingTest, KeepsMostRecentOnWraparound)
{
    TraceRing ring(4);
    for (uint64_t i = 0; i < 10; ++i)
        ring.Record(EventWithFixes(i));
    EXPECT_EQ(ring.TotalRecorded(), 10u);
    EXPECT_EQ(ring.Dropped(), 6u);
    const auto events = ring.Dump();
    ASSERT_EQ(events.size(), 4u);
    for (size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(events[i].sequence, 6 + i);  // oldest first.
        EXPECT_EQ(events[i].fixes, 6 + i);
    }
}

TEST(TraceRingTest, StartStopGatesRecording)
{
    TraceRing ring(8);
    EXPECT_TRUE(ring.Enabled());
    ring.Record(EventWithFixes(1));
    ring.Stop();
    EXPECT_FALSE(ring.Enabled());
    ring.Record(EventWithFixes(2));  // dropped.
    ring.Start();
    ring.Record(EventWithFixes(3));
    const auto events = ring.Dump();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].fixes, 1u);
    EXPECT_EQ(events[1].fixes, 3u);
}

TEST(TraceRingTest, ClearResetsSequence)
{
    TraceRing ring(2);
    ring.Record(EventWithFixes(1));
    ring.Clear();
    EXPECT_EQ(ring.Size(), 0u);
    EXPECT_EQ(ring.TotalRecorded(), 0u);
    ring.Record(EventWithFixes(9));
    EXPECT_EQ(ring.Dump().front().sequence, 0u);
}

// ----------------------------------------------------------- Exporters

RegistrySnapshot
KnownSnapshot()
{
    Registry registry;
    registry.GetCounter("runtime.invocations")->Increment(3);
    registry.GetGauge("tuner.threshold")->Set(0.125);
    Histogram* h = registry.GetHistogram(
        "npu.invoke_ns", Histogram::LinearBuckets(100.0, 100.0, 10));
    for (double v : {150.0, 250.0, 350.0})
        h->Observe(v);
    return registry.Snapshot();
}

TEST(ExportTest, JsonlRoundTrip)
{
    TraceEvent event;
    event.invocation = 7;
    event.elements = 100;
    event.threshold = 0.5;
    event.fires = 9;
    event.fixes = 9;
    const std::string jsonl = ToJsonl(KnownSnapshot(), {event});

    // Every line is a braced object.
    std::istringstream lines(jsonl);
    std::string line;
    size_t count = 0;
    while (std::getline(lines, line)) {
        ASSERT_FALSE(line.empty());
        EXPECT_EQ(line.front(), '{');
        EXPECT_EQ(line.back(), '}');
        ++count;
    }
    EXPECT_EQ(count, 4u);  // counter + gauge + histogram + trace.

    // The values survive the trip.
    EXPECT_NE(jsonl.find("{\"type\":\"counter\",\"name\":"
                         "\"runtime.invocations\",\"value\":3}"),
              std::string::npos);
    EXPECT_NE(jsonl.find("\"name\":\"tuner.threshold\",\"value\":0.125"),
              std::string::npos);
    EXPECT_NE(jsonl.find("\"name\":\"npu.invoke_ns\",\"count\":3"),
              std::string::npos);
    EXPECT_NE(jsonl.find("\"type\":\"trace\",\"seq\":0,"
                         "\"invocation\":7,\"elements\":100"),
              std::string::npos);
    EXPECT_NE(jsonl.find("\"fires\":9,\"fixes\":9"), std::string::npos);
}

TEST(ExportTest, CsvRoundTrip)
{
    const std::string csv = ToCsv(KnownSnapshot());
    std::istringstream lines(csv);
    std::string header;
    ASSERT_TRUE(std::getline(lines, header));
    EXPECT_EQ(header,
              "type,name,value,sum,min,max,p50,p90,p99,notes");

    std::map<std::string, std::vector<std::string>> by_name;
    std::string line;
    while (std::getline(lines, line)) {
        std::vector<std::string> cells;
        std::istringstream fields(line);
        std::string cell;
        while (std::getline(fields, cell, ','))
            cells.push_back(cell);
        ASSERT_GE(cells.size(), 3u);
        by_name[cells[1]] = cells;
    }
    ASSERT_EQ(by_name.count("runtime.invocations"), 1u);
    EXPECT_EQ(by_name["runtime.invocations"][0], "counter");
    EXPECT_EQ(by_name["runtime.invocations"][2], "3");
    ASSERT_EQ(by_name.count("npu.invoke_ns"), 1u);
    EXPECT_EQ(by_name["npu.invoke_ns"][0], "histogram");
    EXPECT_EQ(by_name["npu.invoke_ns"][2], "3");
    EXPECT_EQ(std::stod(by_name["npu.invoke_ns"][4]), 150.0);  // min.
    EXPECT_EQ(std::stod(by_name["npu.invoke_ns"][5]), 350.0);  // max.
}

TEST(ExportTest, TableHasOneRowPerInstrument)
{
    const Table table = ToTable(KnownSnapshot());
    EXPECT_EQ(table.Rows(), 3u);
}

TEST(ExportTest, WriteMetricsFileProducesParseableJsonl)
{
    Registry::Default().GetCounter("export_test.marker")->Increment();
    const std::string path = ::testing::TempDir() + "obs_export.jsonl";
    ASSERT_TRUE(WriteMetricsFile(path));

    std::FILE* f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    std::string body;
    char buf[4096];
    size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0)
        body.append(buf, got);
    std::fclose(f);
    std::remove(path.c_str());

    EXPECT_NE(body.find("\"name\":\"export_test.marker\",\"value\":1"),
              std::string::npos);
    std::istringstream lines(body);
    std::string line;
    while (std::getline(lines, line)) {
        ASSERT_FALSE(line.empty());
        EXPECT_EQ(line.front(), '{');
        EXPECT_EQ(line.back(), '}');
    }
}

// ---------------------------------------------------------- EscapeJson

TEST(EscapeJsonTest, EscapesStructuralAndControlCharacters)
{
    EXPECT_EQ(EscapeJson("plain.name_42"), "plain.name_42");
    EXPECT_EQ(EscapeJson("a\"b"), "a\\\"b");
    EXPECT_EQ(EscapeJson("a\\b"), "a\\\\b");
    EXPECT_EQ(EscapeJson("a\nb\tc"), "a\\nb\\tc");
    EXPECT_EQ(EscapeJson(std::string(1, '\x01')), "\\u0001");
    EXPECT_EQ(JsonQuote("say \"hi\""), "\"say \\\"hi\\\"\"");
}

TEST(EscapeJsonTest, HostileMetricNameSurvivesJsonlExport)
{
    Registry registry;
    registry.GetCounter("evil\"name\nwith\\stuff")->Increment();
    const std::string jsonl = ToJsonl(registry.Snapshot(), {});
    EXPECT_NE(jsonl.find("\"evil\\\"name\\nwith\\\\stuff\""),
              std::string::npos);
}

// ---------------------------------------------------- Env-knob parsing

TEST(ParseTraceRingCapacityTest, DefaultsAndClamps)
{
    EXPECT_EQ(ParseTraceRingCapacity(nullptr),
              TraceRing::kDefaultRingCapacity);
    EXPECT_EQ(ParseTraceRingCapacity(""),
              TraceRing::kDefaultRingCapacity);
    EXPECT_EQ(ParseTraceRingCapacity("bogus"),
              TraceRing::kDefaultRingCapacity);
    EXPECT_EQ(ParseTraceRingCapacity("1024"), 1024u);
    EXPECT_EQ(ParseTraceRingCapacity("1"), TraceRing::kMinRingCapacity);
    EXPECT_EQ(ParseTraceRingCapacity("999999999"),
              TraceRing::kMaxRingCapacity);
    // Plain digits only: a sign, a space or trailing garbage is not a
    // count (strtoull alone reads "-1" as the largest ring).
    for (const char* value : {"-1", "-4096", "+64", " 64", "64abc"}) {
        EXPECT_EQ(ParseTraceRingCapacity(value),
                  TraceRing::kDefaultRingCapacity)
            << value;
    }
}

// ------------------------------------------------------- Run metadata

TEST(RunMetadataTest, LineCarriesVersionedIdentity)
{
    const std::string line = MetadataJsonLine();
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"type\":\"meta\""), std::string::npos);
    EXPECT_NE(line.find("\"schema_version\":" +
                        std::to_string(kMetricsSchemaVersion)),
              std::string::npos);
    EXPECT_NE(line.find("\"wall_time\":"), std::string::npos);
    EXPECT_NE(line.find("\"hostname\":"), std::string::npos);
    EXPECT_NE(line.find("\"build_type\":"), std::string::npos);
    EXPECT_NE(line.find("\"sanitizers\":"), std::string::npos);

    const RunMetadata meta = CollectRunMetadata();
    EXPECT_EQ(meta.schema_version, kMetricsSchemaVersion);
    // ISO-8601 UTC: "2026-08-07T09:00:00Z" is 20 characters.
    EXPECT_EQ(meta.wall_time_iso8601.size(), 20u);
    EXPECT_EQ(meta.wall_time_iso8601.back(), 'Z');
    // Compile-time identity: the project version and git describe
    // always resolve to something (fallbacks, never empty).
    EXPECT_FALSE(meta.version.empty());
    EXPECT_FALSE(meta.git_describe.empty());
    EXPECT_NE(line.find("\"version\":"), std::string::npos);
    EXPECT_NE(line.find("\"git_describe\":"), std::string::npos);
}

TEST(RunMetadataTest, BuildInfoJsonReportsSetEnvKnobs)
{
    setenv("RUMBA_AUDIT_SAMPLE_N", "7", 1);
    unsetenv("RUMBA_FAULT_PLAN");
    const std::string info = BuildInfoJson();
    EXPECT_EQ(info.front(), '{');
    EXPECT_EQ(info.back(), '}');
    EXPECT_NE(info.find("\"version\":"), std::string::npos);
    EXPECT_NE(info.find("\"git_describe\":"), std::string::npos);
    EXPECT_NE(info.find("\"sanitizers\":"), std::string::npos);
    EXPECT_NE(info.find("\"env\":{"), std::string::npos);
    // Set knobs appear with their values; unset ones are absent.
    EXPECT_NE(info.find("\"RUMBA_AUDIT_SAMPLE_N\":\"7\""),
              std::string::npos);
    EXPECT_EQ(info.find("\"RUMBA_FAULT_PLAN\""), std::string::npos);
    unsetenv("RUMBA_AUDIT_SAMPLE_N");
}

namespace {
void
UserSigtermHandler(int)
{
}

void
NoFlush()
{
}
}  // namespace

TEST(SignalFlushTest, NeverDisplacesAnApplicationHandler)
{
    // An application that installed its own SIGTERM handler must keep
    // it; the flush a registered hook arms only ever claims SIG_DFL
    // dispositions.
    struct sigaction user {};
    user.sa_handler = UserSigtermHandler;
    sigemptyset(&user.sa_mask);
    ASSERT_EQ(sigaction(SIGTERM, &user, nullptr), 0);

    ASSERT_TRUE(RegisterFlushHook(&NoFlush));

    struct sigaction after {};
    ASSERT_EQ(sigaction(SIGTERM, nullptr, &after), 0);
    EXPECT_EQ(after.sa_handler, &UserSigtermHandler);

    struct sigaction dfl {};
    dfl.sa_handler = SIG_DFL;
    sigemptyset(&dfl.sa_mask);
    sigaction(SIGTERM, &dfl, nullptr);
}

TEST(RunMetadataTest, MetricsFileLeadsWithMetaHeader)
{
    const std::string path = ::testing::TempDir() + "obs_meta.jsonl";
    ASSERT_TRUE(WriteMetricsFile(path));
    std::ifstream in(path);
    std::string first;
    ASSERT_TRUE(std::getline(in, first));
    std::remove(path.c_str());
    EXPECT_EQ(first.find("{\"type\":\"meta\",\"schema_version\":"), 0u);
}

// --------------------------------------------------------------- Spans

TEST(SpanTest, DisabledCollectorRecordsNothing)
{
    SpanCollector collector(8);
    {
        const Span span("ignored", &collector);
    }
    EXPECT_EQ(collector.TotalRecorded(), 0u);
    EXPECT_EQ(collector.ThreadCount(), 0u);
    EXPECT_TRUE(collector.Dump().empty());
}

TEST(SpanTest, RecordsNestingDepthAndContainment)
{
    SpanCollector collector(16);
    collector.Enable();
    {
        const Span outer("outer", &collector);
        {
            const Span inner("inner", &collector);
        }
        {
            const Span sibling("sibling", &collector);
        }
    }
    collector.Disable();

    const auto spans = collector.Dump();
    ASSERT_EQ(spans.size(), 3u);
    // Dump() is start-sorted: outer opened first.
    EXPECT_EQ(spans[0].name, "outer");
    EXPECT_EQ(spans[0].depth, 0u);
    EXPECT_EQ(spans[1].name, "inner");
    EXPECT_EQ(spans[1].depth, 1u);
    EXPECT_EQ(spans[2].name, "sibling");
    EXPECT_EQ(spans[2].depth, 1u);
    // The children nest inside the parent's interval.
    const uint64_t outer_end =
        spans[0].start_ns + spans[0].duration_ns;
    for (size_t i = 1; i < spans.size(); ++i) {
        EXPECT_GE(spans[i].start_ns, spans[0].start_ns);
        EXPECT_LE(spans[i].start_ns + spans[i].duration_ns, outer_end);
    }
    // Siblings do not overlap: "sibling" opens after "inner" closes.
    EXPECT_GE(spans[2].start_ns,
              spans[1].start_ns + spans[1].duration_ns);
    EXPECT_EQ(collector.ThreadCount(), 1u);
}

TEST(SpanTest, AttributesSpansToRecordingThreads)
{
    SpanCollector collector(16);
    collector.Enable();
    std::vector<std::thread> threads;
    for (int t = 0; t < 3; ++t) {
        threads.emplace_back([&collector] {
            const Span span("worker", &collector);
        });
    }
    for (auto& t : threads)
        t.join();
    collector.Disable();

    EXPECT_EQ(collector.ThreadCount(), 3u);
    const auto spans = collector.Dump();
    ASSERT_EQ(spans.size(), 3u);
    std::set<uint32_t> ids;
    for (const auto& s : spans) {
        EXPECT_GE(s.thread_id, 1u);  // ids are 1-based.
        ids.insert(s.thread_id);
    }
    EXPECT_EQ(ids.size(), 3u);  // one distinct id per thread.
}

TEST(SpanTest, DropsNewestAtCapacityAndCounts)
{
    SpanCollector collector(4);
    collector.Enable();
    for (int i = 0; i < 10; ++i) {
        const Span span("burst", &collector);
    }
    collector.Disable();
    EXPECT_EQ(collector.TotalRecorded(), 4u);  // trace keeps its start.
    EXPECT_EQ(collector.Dropped(), 6u);
    EXPECT_EQ(collector.Dump().size(), 4u);
}

TEST(SpanTest, ClearDropsSpansButKeepsRegistrations)
{
    SpanCollector collector(8);
    collector.Enable();
    {
        const Span span("once", &collector);
    }
    ASSERT_EQ(collector.TotalRecorded(), 1u);
    collector.Clear();
    EXPECT_EQ(collector.TotalRecorded(), 0u);
    EXPECT_EQ(collector.Dropped(), 0u);
    EXPECT_EQ(collector.ThreadCount(), 1u);
    {
        const Span span("again", &collector);
    }
    EXPECT_EQ(collector.TotalRecorded(), 1u);
}

TEST(ChromeTraceTest, EmitsCompleteEventsWithMetadata)
{
    SpanCollector collector(16);
    collector.Enable();
    {
        const Span outer("stage.outer", &collector);
        const Span inner("stage.inner", &collector);
    }
    collector.Disable();

    const std::string json = ToChromeTrace(
        collector.Dump(), collector.Dropped(),
        collector.PerThreadCapacity());
    EXPECT_EQ(json.front(), '{');
    EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""),
              std::string::npos);
    EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"stage.outer\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"stage.inner\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"args\":{\"depth\":1}"), std::string::npos);
    // The run metadata rides along under otherData.
    EXPECT_NE(json.find("\"otherData\":{\"type\":\"meta\""),
              std::string::npos);
    EXPECT_NE(json.find("\"span_per_thread_capacity\":16"),
              std::string::npos);
    EXPECT_NE(json.find("\"span_dropped\":0"), std::string::npos);
}

TEST(ChromeTraceTest, EmptyDumpIsStillAValidDocument)
{
    const std::string json = ToChromeTrace({}, 0, 8);
    EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
    EXPECT_EQ(json.find("\"ph\":\"X\""), std::string::npos);
}

// ------------------------------------------------------- Stream sink

/** The "type":"sample" lines of a stream file, in order. */
std::vector<std::string>
SampleLines(const std::string& path)
{
    std::vector<std::string> lines;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line))
        if (line.find("\"type\":\"sample\"") != std::string::npos)
            lines.push_back(line);
    return lines;
}

TEST(TsdbStreamTest, WritesHeaderThenWholeLineSamples)
{
    Registry::Default().GetCounter("stream_test.marker")->Increment(5);
    const std::string path = ::testing::TempDir() + "obs_stream.jsonl";
    TsdbSampler sampler;
    ASSERT_TRUE(sampler.Start(1, path));
    EXPECT_TRUE(sampler.Running());
    EXPECT_FALSE(sampler.Start(1, path));  // refuses a double start.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    sampler.Stop();
    EXPECT_FALSE(sampler.Running());
    EXPECT_GE(sampler.Samples(), 1u);  // final sample at minimum.

    std::ifstream in(path);
    std::string line;
    size_t lineno = 0, samples = 0;
    while (std::getline(in, line)) {
        ++lineno;
        // No torn records: every line is one complete JSON object.
        ASSERT_FALSE(line.empty());
        EXPECT_EQ(line.front(), '{') << "line " << lineno;
        EXPECT_EQ(line.back(), '}') << "line " << lineno;
        if (lineno == 1) {
            EXPECT_NE(line.find("\"type\":\"meta\""),
                      std::string::npos);
        } else {
            EXPECT_NE(line.find("\"type\":\"sample\""),
                      std::string::npos);
            EXPECT_NE(line.find("\"t_ms\":"), std::string::npos);
            EXPECT_NE(line.find("\"stream_test.marker\""),
                      std::string::npos);
            ++samples;
        }
    }
    std::remove(path.c_str());
    // One line per tick: the stream is the sampler's tick, not a
    // second clock.
    EXPECT_EQ(samples, sampler.Samples());
}

TEST(TsdbStreamTest, CounterDeltasAddUpToTheIncrease)
{
    const std::string name = "stream_test.delta_sum";
    Counter* counter = Registry::Default().GetCounter(name);
    counter->Increment(3);  // before the stream: lands in line one.
    const std::string path = ::testing::TempDir() + "obs_deltas.jsonl";
    TsdbSampler sampler;
    ASSERT_TRUE(sampler.Start(1, path));
    for (int i = 0; i < 20; ++i) {
        counter->Increment(static_cast<uint64_t>(i));
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    sampler.Stop();  // the final sample sees the last increment.

    const std::string key = "\"" + name + "\":";
    uint64_t sum = 0;
    const std::vector<std::string> lines = SampleLines(path);
    for (const std::string& line : lines) {
        const size_t at = line.find(key);
        ASSERT_NE(at, std::string::npos);
        sum += std::stoull(line.substr(at + key.size()));
    }
    std::remove(path.c_str());
    EXPECT_GE(lines.size(), 2u);
    // Deltas count from zero, so over the run they sum to the
    // counter's whole increase (the pre-stream 3 included).
    EXPECT_EQ(sum, counter->Value());
}

TEST(TsdbStreamTest, RepeatsGaugesEverySample)
{
    const std::string gauge_name = "stream_test.always_on";
    Registry::Default().GetGauge(gauge_name)->Set(3.75);
    const std::string path = ::testing::TempDir() + "obs_gauges.jsonl";
    TsdbSampler sampler;
    ASSERT_TRUE(sampler.Start(1, path));
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    sampler.Stop();

    // A stable gauge still appears in every sample line.
    const std::vector<std::string> lines = SampleLines(path);
    std::remove(path.c_str());
    EXPECT_GE(lines.size(), 2u);
    for (const std::string& line : lines)
        EXPECT_NE(line.find("\"" + gauge_name + "\":3.75"),
                  std::string::npos);
}

TEST(TsdbStreamTest, StopIsIdempotentAndStartReusable)
{
    const std::string path = ::testing::TempDir() + "obs_stream2.jsonl";
    TsdbSampler sampler;
    sampler.Stop();  // never started: no-op.
    ASSERT_TRUE(sampler.Start(1, path));
    sampler.Stop();
    sampler.Stop();  // second stop: no-op.
    const uint64_t first_run = sampler.Samples();
    EXPECT_GE(first_run, 1u);
    // The same object can stream again after a stop, into a fresh
    // file: the restart truncates and rewrites the header.
    ASSERT_TRUE(sampler.Start(1, path));
    EXPECT_TRUE(sampler.Running());
    sampler.Stop();
    EXPECT_EQ(SampleLines(path).size(), sampler.Samples());
    std::remove(path.c_str());
}

TEST(TsdbStreamTest, UnwritableStreamWarnsAndKeepsTicking)
{
    const std::string path = "/nonexistent-dir/x/y/z.jsonl";
    ::setenv("RUMBA_STREAM_OUT", path.c_str(), 1);
    ::setenv("RUMBA_TSDB_PERIOD_MS", "1", 1);
    ::testing::internal::CaptureStderr();
    TsdbSampler::Acquire();
    const std::string warning = ::testing::internal::GetCapturedStderr();
    ::unsetenv("RUMBA_STREAM_OUT");
    ::unsetenv("RUMBA_TSDB_PERIOD_MS");

    EXPECT_NE(warning.find("could not open stream"), std::string::npos)
        << warning;
    EXPECT_TRUE(TsdbSampler::Default().Running());
    // The rest of the tick (store, detectors, incidents) still runs.
    for (int i = 0; i < 2000 && TsdbSampler::Default().Samples() < 2;
         ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_GE(TsdbSampler::Default().Samples(), 2u);
    TsdbSampler::Release();
    EXPECT_FALSE(TsdbSampler::Default().Running());
    EXPECT_FALSE(std::ifstream(path).good());  // nothing written.
}

// --------------------------------------------- Quantile interpolation

TEST(HistogramTest, QuantileInterpolatesWithinOccupiedSlice)
{
    // Values uniform in [15, 20] land entirely inside the wide
    // (10, 100] bucket. Interpolating over the raw bucket edges would
    // report a median of ~55; tightening to the observed range reads
    // the true ~17.5 (see the estimator note in obs/metrics.h).
    Histogram h({10.0, 100.0});
    for (int i = 0; i <= 10; ++i)
        h.Observe(15.0 + 0.5 * i);  // 15, 15.5, ..., 20.
    EXPECT_NEAR(h.Quantile(0.5), 17.5, 1.0);
    EXPECT_LE(h.Quantile(0.99), 20.0);
    EXPECT_GE(h.Quantile(0.01), 15.0);
    // Ordering survives the tightening.
    EXPECT_LE(h.Quantile(0.5), h.Quantile(0.9));
    EXPECT_LE(h.Quantile(0.9), h.Quantile(0.99));
}

TEST(HistogramTest, SnapshotCarriesBucketCounts)
{
    Histogram h({1.0, 10.0, 100.0});
    h.Observe(0.5);    // bucket 0.
    h.Observe(5.0);    // bucket 1.
    h.Observe(50.0);   // bucket 2.
    h.Observe(500.0);  // overflow.
    h.Observe(5.0);    // bucket 1 again.
    const HistogramSnapshot snap = h.Snapshot("t");
    ASSERT_EQ(snap.bounds.size(), 3u);
    ASSERT_EQ(snap.buckets.size(), 4u);
    EXPECT_EQ(snap.buckets[0], 1u);
    EXPECT_EQ(snap.buckets[1], 2u);
    EXPECT_EQ(snap.buckets[2], 1u);
    EXPECT_EQ(snap.buckets[3], 1u);
    uint64_t total = 0;
    for (uint64_t b : snap.buckets)
        total += b;
    EXPECT_EQ(total, snap.count);
}

// ------------------------------------------------ Prometheus rendering

TEST(PrometheusTextTest, RendersCountersGaugesAndHistograms)
{
    Registry registry;
    registry.GetCounter("prom.requests")->Increment(3);
    registry.GetGauge("prom.depth")->Set(2.5);
    Histogram* h = registry.GetHistogram("prom.lat_ns", {10.0, 100.0});
    h->Observe(5.0);
    h->Observe(50.0);
    h->Observe(500.0);

    const std::string text = ToPrometheusText(registry.Snapshot());

    // Counter: mangled name, _total suffix, dotted original as label.
    EXPECT_NE(text.find("# TYPE rumba_prom_requests_total counter"),
              std::string::npos);
    EXPECT_NE(text.find("rumba_prom_requests_total{"
                        "name=\"prom.requests\"} 3"),
              std::string::npos);
    // Gauge.
    EXPECT_NE(text.find("# TYPE rumba_prom_depth gauge"),
              std::string::npos);
    EXPECT_NE(text.find("rumba_prom_depth{name=\"prom.depth\"} 2.5"),
              std::string::npos);
    // Histogram: cumulative le buckets, +Inf == _count, sum/count.
    EXPECT_NE(text.find("# TYPE rumba_prom_lat_ns histogram"),
              std::string::npos);
    EXPECT_NE(text.find("le=\"10\"} 1"), std::string::npos);
    EXPECT_NE(text.find("le=\"100\"} 2"), std::string::npos);
    EXPECT_NE(text.find("le=\"+Inf\"} 3"), std::string::npos);
    EXPECT_NE(text.find("rumba_prom_lat_ns_count{"
                        "name=\"prom.lat_ns\"} 3"),
              std::string::npos);
    EXPECT_NE(text.find("rumba_prom_lat_ns_sum{"), std::string::npos);
    // Companion min/max gauges.
    EXPECT_NE(text.find("rumba_prom_lat_ns_min{"), std::string::npos);
    EXPECT_NE(text.find("rumba_prom_lat_ns_max{"), std::string::npos);
    // Exposition ends with a newline (required by the format).
    ASSERT_FALSE(text.empty());
    EXPECT_EQ(text.back(), '\n');
}

// ---------------------------------------------- Observability server

TEST(ObservabilityServerTest, ServesMetricsHealthzAndStatusz)
{
    Registry::Default().GetCounter("server_test.pings")->Increment();

    ObservabilityServer server;
    ASSERT_TRUE(server.Start(0));  // ephemeral port.
    ASSERT_TRUE(server.Running());
    const uint16_t port = server.Port();
    ASSERT_NE(port, 0);

    std::string body;
    int status = 0;
    ASSERT_TRUE(HttpGet(port, "/healthz", &body, &status));
    EXPECT_EQ(status, 200);
    EXPECT_EQ(body, "ok\n");

    ASSERT_TRUE(HttpGet(port, "/metrics", &body, &status));
    EXPECT_EQ(status, 200);
    EXPECT_NE(body.find("# TYPE"), std::string::npos);
    EXPECT_NE(body.find("rumba_server_test_pings_total"),
              std::string::npos);

    ASSERT_TRUE(HttpGet(port, "/statusz", &body, &status));
    EXPECT_EQ(status, 200);
    EXPECT_NE(body.find("\"healthy\":true"), std::string::npos);

    server.SetStatusProvider(
        [] { return std::string("{\"custom\":42}\n"); });
    ASSERT_TRUE(HttpGet(port, "/statusz", &body, &status));
    EXPECT_NE(body.find("\"custom\":42"), std::string::npos);
    server.SetStatusProvider(nullptr);  // default restored.
    ASSERT_TRUE(HttpGet(port, "/statusz", &body, &status));
    EXPECT_NE(body.find("\"healthy\":true"), std::string::npos);

    ASSERT_TRUE(HttpGet(port, "/buildz", &body, &status));
    EXPECT_EQ(status, 200);
    EXPECT_NE(body.find("\"version\":"), std::string::npos);
    EXPECT_NE(body.find("\"git_describe\":"), std::string::npos);
    EXPECT_NE(body.find("\"build_type\":"), std::string::npos);

    ASSERT_TRUE(HttpGet(port, "/nope", &body, &status));
    EXPECT_EQ(status, 404);

    EXPECT_GE(server.RequestsServed(), 6u);
    server.Stop();
    EXPECT_FALSE(server.Running());
    server.Stop();  // idempotent.
}

TEST(ObservabilityServerTest, StopDoesNotDeadlockWithInFlightStatusz)
{
    // Regression: Stop() used to hold the server mutex across
    // thread_.join() while the serve thread's /statusz handler locked
    // the same mutex — a scrape racing shutdown hung both forever.
    ObservabilityServer server;
    ASSERT_TRUE(server.Start(0));
    const uint16_t port = server.Port();

    std::atomic<bool> in_provider{false};
    server.SetStatusProvider([&in_provider] {
        in_provider.store(true);
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        return std::string("{\"slow\":true}\n");
    });

    std::thread scraper([port] {
        std::string body;
        int status = 0;
        HttpGet(port, "/statusz", &body, &status);
    });
    // Wait until the serve thread is inside the provider, then race
    // Stop() against it.
    while (!in_provider.load())
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    server.Stop();
    EXPECT_FALSE(server.Running());
    scraper.join();
}

TEST(ObservabilityServerTest, StatusProviderClearIsOwnerChecked)
{
    ObservabilityServer server;
    ASSERT_TRUE(server.Start(0));
    const uint16_t port = server.Port();
    int owner_a = 0;
    int owner_b = 0;

    server.SetStatusProvider(
        [] { return std::string("{\"owner\":\"a\"}\n"); }, &owner_a);
    // A second installer takes over the route...
    server.SetStatusProvider(
        [] { return std::string("{\"owner\":\"b\"}\n"); }, &owner_b);
    // ...so the first owner's teardown must NOT clear it.
    server.ClearStatusProvider(&owner_a);

    std::string body;
    int status = 0;
    ASSERT_TRUE(HttpGet(port, "/statusz", &body, &status));
    EXPECT_NE(body.find("\"owner\":\"b\""), std::string::npos);

    // The actual owner's clear restores the default body.
    server.ClearStatusProvider(&owner_b);
    ASSERT_TRUE(HttpGet(port, "/statusz", &body, &status));
    EXPECT_NE(body.find("\"healthy\":true"), std::string::npos);
    server.Stop();
}

// --------------------------------------------------- SLO burn rates

TEST(SloMonitorTest, MultiWindowAlertFiresAndClearsWithHysteresis)
{
    SloConfig cfg;
    cfg.name = "slo_test";
    cfg.objective = 0.9;  // error budget 0.1: all-bad burns at 10x.
    cfg.fast_window_ns = 1000;
    cfg.slow_window_ns = 10000;
    cfg.buckets = 10;  // one bucket per fast window.
    cfg.fast_burn_alert = 5.0;
    cfg.slow_burn_alert = 2.0;
    cfg.min_events = 5;
    SloMonitor monitor(cfg);

    std::vector<AlarmEdge> edges;
    monitor.SetAlertSink(
        [&edges](const AlarmEdge& a) { edges.push_back(a); });

    // Below min_events nothing fires, however bad the stream.
    for (int i = 0; i < 4; ++i)
        monitor.Record(false, 10000 + i * 100);
    EXPECT_FALSE(monitor.Alerting());
    EXPECT_TRUE(edges.empty());

    // Crossing min_events with both windows saturated fires once.
    for (int i = 4; i < 10; ++i)
        monitor.Record(false, 10000 + i * 100);
    EXPECT_TRUE(monitor.Alerting());
    Counter* alerts = Registry::Default().GetCounter("slo.slo_test.alerts");
    EXPECT_EQ(alerts->Value(), 1u);
    EXPECT_NEAR(monitor.FastBurnRate(10900), 10.0, 1e-9);
    EXPECT_NEAR(monitor.SlowBurnRate(10900), 10.0, 1e-9);
    ASSERT_EQ(edges.size(), 1u);
    EXPECT_TRUE(edges[0].firing);
    EXPECT_EQ(edges[0].name, "slo_test");
    EXPECT_EQ(edges[0].detail, "fast_burn=10 slow_burn=10");

    // A healthy fast window clears the alert (hysteresis: the slow
    // window still carries the bad events).
    monitor.Record(true, 12500);
    EXPECT_FALSE(monitor.Alerting());
    EXPECT_EQ(alerts->Value(), 1u);  // fires counted, not clears.
    ASSERT_EQ(edges.size(), 2u);
    EXPECT_FALSE(edges[1].firing);
    EXPECT_GT(monitor.SlowBurnRate(12500), 2.0);
    EXPECT_DOUBLE_EQ(monitor.FastBurnRate(12500), 0.0);
}

TEST(SloMonitorTest, AlertSinkMayReenterTheMonitor)
{
    // Regression: edges used to be delivered under the monitor's
    // non-recursive mutex, so a sink touching any accessor
    // self-deadlocked. Edges now arrive post-unlock.
    SloConfig cfg;
    cfg.name = "slo_reenter";
    cfg.objective = 0.9;
    cfg.fast_window_ns = 1000;
    cfg.slow_window_ns = 10000;
    cfg.buckets = 10;
    cfg.fast_burn_alert = 5.0;
    cfg.slow_burn_alert = 2.0;
    cfg.min_events = 5;
    SloMonitor monitor(cfg);

    bool alerting_inside_sink = false;
    double fast_inside_sink = 0.0;
    monitor.SetAlertSink([&](const AlarmEdge& a) {
        alerting_inside_sink = monitor.Alerting();
        fast_inside_sink = monitor.FastBurnRate(a.now_ns);
    });
    for (int i = 0; i < 6; ++i)
        monitor.Record(false, 10000 + i * 100);
    EXPECT_TRUE(monitor.Alerting());
    EXPECT_TRUE(alerting_inside_sink);
    EXPECT_NEAR(fast_inside_sink, 10.0, 1e-9);
}

TEST(SloMonitorTest, BurnRateTracksBadFraction)
{
    SloConfig cfg;
    cfg.name = "slo_frac";
    cfg.objective = 0.99;  // budget 0.01.
    cfg.fast_window_ns = 1000;
    cfg.slow_window_ns = 10000;
    cfg.buckets = 10;
    SloMonitor monitor(cfg);

    // 1 bad in 100 == exactly the provisioned budget: burn == 1.
    for (int i = 0; i < 99; ++i)
        monitor.Record(true, 5000);
    monitor.Record(false, 5000);
    EXPECT_NEAR(monitor.FastBurnRate(5000), 1.0, 1e-9);
    EXPECT_NEAR(monitor.SlowBurnRate(5000), 1.0, 1e-9);
    // Events outside the slow window stop counting.
    EXPECT_DOUBLE_EQ(monitor.SlowBurnRate(50000), 0.0);
}

// ------------------------------------------- Request-trace collector

RequestTrace
HealthyTrace(uint64_t id)
{
    RequestTrace trace;
    trace.trace_id = id;
    trace.outcome = RequestOutcome::kCompleted;
    trace.total_ns = 10;
    trace.device_ns = 10;
    return trace;
}

TEST(RequestTraceCollectorTest, TailPolicyKeepsFlaggedOutcomes)
{
    RequestTraceCollector collector(16);
    TailSamplingPolicy policy;
    policy.sample_every = 0;  // drop every unflagged trace.
    policy.latency_keep_ns = 1000;
    collector.Configure(policy);

    collector.Record(HealthyTrace(1));  // unflagged: sampled out.

    RequestTrace recovered = HealthyTrace(2);
    recovered.fixes = 3;
    collector.Record(recovered);

    RequestTrace breaker = HealthyTrace(3);
    breaker.breaker_state = 1;
    collector.Record(breaker);

    RequestTrace rejected = HealthyTrace(4);
    rejected.outcome = RequestOutcome::kRejected;
    collector.Record(rejected);

    RequestTrace slow = HealthyTrace(5);
    slow.total_ns = 5000;  // >= latency_keep_ns.
    collector.Record(slow);

    const auto kept = collector.Dump();
    ASSERT_EQ(kept.size(), 4u);
    EXPECT_EQ(kept[0].trace_id, 2u);
    EXPECT_EQ(kept[1].trace_id, 3u);
    EXPECT_EQ(kept[2].trace_id, 4u);
    EXPECT_EQ(kept[3].trace_id, 5u);
    EXPECT_EQ(collector.TotalRecorded(), 5u);
    EXPECT_EQ(collector.Sampled(), 1u);
}

TEST(RequestTraceCollectorTest, SamplesOneInNAndEvictsOldest)
{
    RequestTraceCollector collector(3);
    TailSamplingPolicy policy;
    policy.sample_every = 2;  // keep every second unflagged trace.
    collector.Configure(policy);

    for (uint64_t id = 1; id <= 10; ++id)
        collector.Record(HealthyTrace(id));
    // Ids 2, 4, 6, 8, 10 were kept; capacity 3 retains 6, 8, 10.
    const auto kept = collector.Dump();
    ASSERT_EQ(kept.size(), 3u);
    EXPECT_EQ(kept[0].trace_id, 6u);
    EXPECT_EQ(kept[1].trace_id, 8u);
    EXPECT_EQ(kept[2].trace_id, 10u);
    EXPECT_EQ(collector.Sampled(), 5u);
    EXPECT_EQ(collector.Evicted(), 2u);

    collector.Clear();
    EXPECT_EQ(collector.Size(), 0u);
    EXPECT_EQ(collector.TotalRecorded(), 0u);
}

TEST(RequestTraceCollectorTest, DisableCountsButKeepsNothing)
{
    RequestTraceCollector collector(4);
    TailSamplingPolicy keep_all;
    keep_all.sample_every = 1;
    collector.Configure(keep_all);
    collector.Disable();
    collector.Record(HealthyTrace(1));
    EXPECT_EQ(collector.Size(), 0u);
    EXPECT_EQ(collector.TotalRecorded(), 1u);
    collector.Enable();
    collector.Record(HealthyTrace(2));
    EXPECT_EQ(collector.Size(), 1u);
}

TEST(RequestTraceCollectorTest, ExactCapacityFillsWithoutEviction)
{
    RequestTraceCollector collector(4);
    TailSamplingPolicy keep_all;
    keep_all.sample_every = 1;
    collector.Configure(keep_all);
    for (uint64_t id = 1; id <= 4; ++id)
        collector.Record(HealthyTrace(id));
    // Exactly full: everything retained, nothing evicted yet.
    EXPECT_EQ(collector.Size(), 4u);
    EXPECT_EQ(collector.Evicted(), 0u);
    const auto kept = collector.Dump();
    ASSERT_EQ(kept.size(), 4u);
    for (uint64_t id = 1; id <= 4; ++id)
        EXPECT_EQ(kept[id - 1].trace_id, id);
    // The very next record crosses the boundary: one eviction.
    collector.Record(HealthyTrace(5));
    EXPECT_EQ(collector.Size(), 4u);
    EXPECT_EQ(collector.Evicted(), 1u);
    EXPECT_EQ(collector.Dump().front().trace_id, 2u);
}

TEST(RequestTraceCollectorTest, ForcedKeepEvictsHealthyWhenFull)
{
    RequestTraceCollector collector(3);
    TailSamplingPolicy keep_all;
    keep_all.sample_every = 1;
    collector.Configure(keep_all);
    for (uint64_t id = 1; id <= 3; ++id)
        collector.Record(HealthyTrace(id));  // ring now full.

    RequestTrace recovered = HealthyTrace(99);
    recovered.fixes = 2;
    collector.Record(recovered);
    // The flagged trace still lands; the oldest healthy one paid.
    const auto kept = collector.Dump();
    ASSERT_EQ(kept.size(), 3u);
    EXPECT_EQ(kept[0].trace_id, 2u);
    EXPECT_EQ(kept[2].trace_id, 99u);
    EXPECT_EQ(collector.Evicted(), 1u);
}

TEST(RequestTraceCollectorTest, WrappedRingExportsEachTraceOnce)
{
    RequestTraceCollector collector(4);
    TailSamplingPolicy keep_all;
    keep_all.sample_every = 1;
    collector.Configure(keep_all);
    for (uint64_t id = 1; id <= 10; ++id)
        collector.Record(HealthyTrace(id));  // wraps twice.

    const std::string jsonl =
        RequestTracesToJsonl(collector.Dump());
    // Exactly the last four ids, each exported exactly once.
    for (uint64_t id = 7; id <= 10; ++id) {
        const std::string key =
            "\"trace_id\":" + std::to_string(id) + ",";
        const size_t first = jsonl.find(key);
        EXPECT_NE(first, std::string::npos) << "missing id " << id;
        EXPECT_EQ(jsonl.find(key, first + 1), std::string::npos)
            << "duplicate id " << id;
    }
    EXPECT_EQ(jsonl.find("\"trace_id\":6,"), std::string::npos);
    size_t lines = 0;
    for (char c : jsonl)
        lines += c == '\n' ? 1 : 0;
    EXPECT_EQ(lines, 5u);  // meta header + four traces.
}

TEST(RequestTraceCollectorTest, KeepsAuditedTracesUnlessDisabled)
{
    RequestTraceCollector collector(8);
    TailSamplingPolicy policy;
    policy.sample_every = 0;  // drop every unflagged trace.
    collector.Configure(policy);

    RequestTrace audited = HealthyTrace(1);
    audited.audited = true;
    collector.Record(audited);
    collector.Record(HealthyTrace(2));  // healthy, unaudited: dropped.
    ASSERT_EQ(collector.Size(), 1u);
    EXPECT_EQ(collector.Dump()[0].trace_id, 1u);
    EXPECT_NE(RequestTraceJson(collector.Dump()[0])
                  .find("\"audited\":true"),
              std::string::npos);

    policy.keep_audited = false;
    collector.Configure(policy);
    RequestTrace dropped = HealthyTrace(3);
    dropped.audited = true;
    collector.Record(dropped);
    EXPECT_EQ(collector.Size(), 1u);  // rule off: sampled away.
}

TEST(RequestTraceCollectorTest, TraceIdsAreUniqueAcrossClear)
{
    RequestTraceCollector collector(4);
    const uint64_t a = collector.NextTraceId();
    collector.Clear();
    const uint64_t b = collector.NextTraceId();
    EXPECT_GT(b, a);  // the sequence never restarts.
}

TEST(RequestTraceJsonTest, RendersOutcomeAndSpans)
{
    RequestTrace trace = HealthyTrace(77);
    trace.shard = 2;
    trace.batch_requests = 3;
    trace.submit_ns = 5;
    trace.queue_wait_ns = 7;
    const std::string json = RequestTraceJson(trace);
    EXPECT_NE(json.find("\"type\":\"reqtrace\""), std::string::npos);
    EXPECT_NE(json.find("\"trace_id\":77"), std::string::npos);
    EXPECT_NE(json.find("\"outcome\":\"completed\""),
              std::string::npos);
    EXPECT_NE(json.find("\"batch_requests\":3"), std::string::npos);
    // The device stage starts where queue_wait ends.
    EXPECT_NE(json.find("{\"name\":\"queue_wait\",\"start_ns\":5,"
                        "\"duration_ns\":7}"),
              std::string::npos);
    EXPECT_NE(json.find("{\"name\":\"device\",\"start_ns\":12,"
                        "\"duration_ns\":10}"),
              std::string::npos);

    const std::string jsonl = RequestTracesToJsonl({trace});
    EXPECT_NE(jsonl.find("\"type\":\"meta\""), std::string::npos);
    EXPECT_NE(jsonl.find("\"type\":\"reqtrace\""), std::string::npos);
}

}  // namespace
}  // namespace rumba::obs
