// Tests for the serving layer (src/serve): the sharded engine's
// async submit/future contract, backpressure, drain/shutdown
// semantics and shard determinism — plus unit tests for the
// Status/Result and ElementView/BatchView API types it is built on.

#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/stat.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <future>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/fnv.h"
#include "core/artifact.h"
#include "core/batch_view.h"
#include "core/runtime.h"
#include "core/status.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "obs/reqtrace.h"
#include "obs/timer.h"
#include "serve/admission.h"
#include "serve/engine.h"
#include "serve/loadgen.h"
#include "serve/queue.h"

namespace rumba {
namespace {

// ------------------------------------------------------- Status/Result

TEST(StatusTest, DefaultIsOk)
{
    const core::Status ok;
    EXPECT_TRUE(ok.ok());
    EXPECT_EQ(ok.code(), core::StatusCode::kOk);
    EXPECT_EQ(ok.ToString(), "ok");
    EXPECT_TRUE(core::Status::Ok().ok());
}

TEST(StatusTest, FailureCarriesCodeAndMessage)
{
    const core::Status s(core::StatusCode::kResourceExhausted,
                         "queue full");
    EXPECT_FALSE(s.ok());
    EXPECT_EQ(s.code(), core::StatusCode::kResourceExhausted);
    EXPECT_EQ(s.message(), "queue full");
    EXPECT_EQ(s.ToString(), "resource-exhausted: queue full");
}

TEST(StatusTest, CodeNamesAreStable)
{
    EXPECT_STREQ(core::StatusCodeName(core::StatusCode::kOk), "ok");
    EXPECT_STREQ(core::StatusCodeName(core::StatusCode::kDataLoss),
                 "data-loss");
    EXPECT_STREQ(
        core::StatusCodeName(core::StatusCode::kFailedPrecondition),
        "failed-precondition");
    EXPECT_STREQ(
        core::StatusCodeName(core::StatusCode::kDeadlineExceeded),
        "deadline-exceeded");
    EXPECT_STREQ(core::StatusCodeName(core::StatusCode::kUnavailable),
                 "unavailable");
}

TEST(ResultTest, HoldsValueOrStatus)
{
    const core::Result<int> good(42);
    ASSERT_TRUE(good.ok());
    EXPECT_EQ(good.value(), 42);
    EXPECT_EQ(*good, 42);
    EXPECT_TRUE(good.status().ok());

    const core::Result<int> bad(
        core::Status(core::StatusCode::kNotFound, "nope"));
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), core::StatusCode::kNotFound);
}

TEST(ResultTest, MovesOutMoveOnlyPayloads)
{
    core::Result<std::unique_ptr<int>> r(std::make_unique<int>(7));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(**r, 7);
    std::unique_ptr<int> moved = std::move(r).value();
    EXPECT_EQ(*moved, 7);
}

TEST(ResultTest, WrongSideAccessDies)
{
    const core::Result<int> bad(
        core::Status(core::StatusCode::kInternal, "x"));
    EXPECT_DEATH(bad.value(), "check failed");
}

// --------------------------------------------------------- Batch views

TEST(BatchViewTest, ElementViewWrapsContiguousDoubles)
{
    const std::vector<double> row{1.0, 2.0, 3.0};
    const core::ElementView view(row);
    EXPECT_EQ(view.size(), 3u);
    EXPECT_DOUBLE_EQ(view[1], 2.0);
    EXPECT_EQ(view.data(), row.data());
}

TEST(BatchViewTest, BatchViewSlicesFlatBuffer)
{
    const std::vector<double> flat{1, 2, 3, 4, 5, 6};
    const core::BatchView batch(flat, /*width=*/2);
    EXPECT_EQ(batch.count(), 3u);
    EXPECT_EQ(batch.width(), 2u);
    EXPECT_DOUBLE_EQ(batch[0][0], 1.0);
    EXPECT_DOUBLE_EQ(batch[2][1], 6.0);
    EXPECT_EQ(batch[1].data(), flat.data() + 2);
}

TEST(BatchViewTest, FlattenBatchPacksRows)
{
    const std::vector<std::vector<double>> rows{{1, 2}, {3, 4}, {5, 6}};
    const std::vector<double> flat = core::FlattenBatch(rows);
    EXPECT_EQ(flat, (std::vector<double>{1, 2, 3, 4, 5, 6}));
}

TEST(BatchViewTest, RaggedRowsAreAProgrammingError)
{
    const std::vector<std::vector<double>> ragged{{1, 2}, {3}};
    EXPECT_DEATH(core::FlattenBatch(ragged), "check failed");
}

// -------------------------------------------------------- BoundedQueue

TEST(BoundedQueueTest, RejectsWhenFullAndDrainsFifo)
{
    serve::BoundedQueue<int> q(2);
    int a = 1, b = 2, c = 3;
    EXPECT_TRUE(q.TryPush(a));
    EXPECT_TRUE(q.TryPush(b));
    EXPECT_FALSE(q.TryPush(c));  // full: reject, don't block.
    int out = 0;
    EXPECT_TRUE(q.Pop(&out));
    EXPECT_EQ(out, 1);
    EXPECT_TRUE(q.Pop(&out));
    EXPECT_EQ(out, 2);
}

TEST(BoundedQueueTest, CloseWakesConsumersAndReturnsLeftovers)
{
    serve::BoundedQueue<int> q(4);
    int a = 1, b = 2;
    ASSERT_TRUE(q.TryPush(a));
    ASSERT_TRUE(q.TryPush(b));
    std::deque<int> leftovers;
    q.Close(&leftovers);
    ASSERT_EQ(leftovers.size(), 2u);
    EXPECT_EQ(leftovers[0], 1);
    int out = 0;
    EXPECT_FALSE(q.Pop(&out));   // closed and empty.
    EXPECT_FALSE(q.TryPush(a));  // closed: no new work.
}

// ------------------------------------------------------ Engine fixture

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

/** One trained artifact shared by every engine test (training is the
 *  expensive part; the engine only ever deploys from it). */
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

/** Flat test inputs for the artifact's kernel. */
const std::vector<double>&
SharedInputs()
{
    static const std::vector<double> flat = [] {
        const auto bench = apps::MakeBenchmark("inversek2j");
        return core::FlattenBatch(bench->TestInputs());
    }();
    return flat;
}

serve::InvocationRequest
MakeRequest(size_t start_element, size_t count)
{
    serve::InvocationRequest request;
    request.width = 2;  // inversek2j input arity.
    request.count = count;
    const auto& flat = SharedInputs();
    request.inputs.assign(
        flat.begin() + static_cast<ptrdiff_t>(start_element * 2),
        flat.begin() +
            static_cast<ptrdiff_t>((start_element + count) * 2));
    return request;
}

std::unique_ptr<serve::ShardedEngine>
MakeEngine(const serve::ServeConfig& config)
{
    auto engine = serve::ShardedEngine::Create(
        SharedArtifact(), ServeRuntimeConfig(), config);
    EXPECT_TRUE(engine.ok()) << engine.status().ToString();
    return std::move(engine).value();
}

// ------------------------------------------------------- Engine tests

TEST(ShardedEngineTest, CreateRejectsDegenerateShapes)
{
    serve::ServeConfig no_shards;
    no_shards.shards = 0;
    EXPECT_EQ(serve::ShardedEngine::Create(SharedArtifact(),
                                           ServeRuntimeConfig(),
                                           no_shards)
                  .status()
                  .code(),
              core::StatusCode::kInvalidArgument);

    core::Artifact unknown = SharedArtifact();
    unknown.benchmark = "martian";
    EXPECT_EQ(serve::ShardedEngine::Create(unknown,
                                           ServeRuntimeConfig(), {})
                  .status()
                  .code(),
              core::StatusCode::kNotFound);
}

TEST(ShardedEngineTest, SubmitValidatesRequestShape)
{
    serve::ServeConfig config;
    config.shards = 1;
    auto engine = MakeEngine(config);

    serve::InvocationRequest empty;
    EXPECT_EQ(engine->Submit(std::move(empty)).get().status.code(),
              core::StatusCode::kInvalidArgument);

    serve::InvocationRequest wrong_width = MakeRequest(0, 4);
    wrong_width.width = 3;
    EXPECT_EQ(
        engine->Submit(std::move(wrong_width)).get().status.code(),
        core::StatusCode::kInvalidArgument);

    serve::InvocationRequest short_buffer = MakeRequest(0, 4);
    short_buffer.inputs.pop_back();
    EXPECT_EQ(
        engine->Submit(std::move(short_buffer)).get().status.code(),
        core::StatusCode::kInvalidArgument);

    serve::InvocationRequest bad_shard = MakeRequest(0, 4);
    bad_shard.shard = 7;  // only shard 0 exists.
    EXPECT_EQ(engine->Submit(std::move(bad_shard)).get().status.code(),
              core::StatusCode::kInvalidArgument);

    engine->Shutdown();
    EXPECT_EQ(engine->Submit(MakeRequest(0, 4)).get().status.code(),
              core::StatusCode::kUnavailable);
}

TEST(ShardedEngineTest, ServesOneRequestCorrectly)
{
    serve::ServeConfig config;
    config.shards = 1;
    auto engine = MakeEngine(config);

    // Reference: a dedicated runtime deployed from the same artifact.
    auto reference = core::RumbaRuntime::FromArtifact(
        SharedArtifact(), ServeRuntimeConfig());
    ASSERT_TRUE(reference.ok());
    constexpr size_t kCount = 200;
    std::vector<double> expected(kCount * 2);
    (*reference)->ProcessInvocation(
        core::BatchView(SharedInputs().data(), kCount, 2),
        expected.data());

    auto future = engine->Submit(MakeRequest(0, kCount));
    const serve::InvocationResult result = future.get();
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_EQ(result.report.elements, kCount);
    ASSERT_EQ(result.outputs.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i)
        EXPECT_DOUBLE_EQ(result.outputs[i], expected[i]) << "at " << i;
}

TEST(ShardedEngineTest, FourShardsMatchFourSequentialStreams)
{
    constexpr size_t kShards = 4;
    constexpr size_t kRequests = 16;
    constexpr size_t kCount = 100;

    serve::ServeConfig config;
    config.shards = kShards;
    config.queue_capacity = kRequests;
    config.max_coalesce_elements = 0;  // deterministic replay mode.
    auto engine = MakeEngine(config);

    // Round-robin submission from one thread: request r lands on
    // shard r % kShards, each shard serves its stream in FIFO order.
    std::vector<std::future<serve::InvocationResult>> futures;
    for (size_t r = 0; r < kRequests; ++r)
        futures.push_back(engine->Submit(MakeRequest(r * kCount,
                                                     kCount)));

    // Reference: four *sequential* single-runtime streams, stream k
    // processing requests k, k+4, k+8, ... in order.
    std::vector<std::vector<double>> expected(kRequests);
    for (size_t k = 0; k < kShards; ++k) {
        auto replica = core::RumbaRuntime::FromArtifact(
            SharedArtifact(), ServeRuntimeConfig());
        ASSERT_TRUE(replica.ok());
        for (size_t r = k; r < kRequests; r += kShards) {
            expected[r].resize(kCount * 2);
            (*replica)->ProcessInvocation(
                core::BatchView(SharedInputs().data() + r * kCount * 2,
                                kCount, 2),
                expected[r].data());
        }
    }

    for (size_t r = 0; r < kRequests; ++r) {
        const serve::InvocationResult result = futures[r].get();
        ASSERT_TRUE(result.status.ok()) << result.status.ToString();
        EXPECT_EQ(result.shard, r % kShards);
        ASSERT_EQ(result.outputs.size(), expected[r].size());
        for (size_t i = 0; i < expected[r].size(); ++i)
            EXPECT_DOUBLE_EQ(result.outputs[i], expected[r][i])
                << "request " << r << " element " << i;
    }
    engine->Shutdown();
}

TEST(ShardedEngineTest, CoalescedBatchMatchesOneBigInvocation)
{
    serve::ServeConfig config;
    config.shards = 1;
    config.max_coalesce_elements = 4096;
    auto engine = MakeEngine(config);

    constexpr size_t kCount = 50;
    constexpr size_t kRequests = 4;
    engine->Pause();  // queue all four, then serve them as one batch.
    std::vector<std::future<serve::InvocationResult>> futures;
    for (size_t r = 0; r < kRequests; ++r)
        futures.push_back(engine->Submit(MakeRequest(r * kCount,
                                                     kCount)));
    engine->Resume();

    auto reference = core::RumbaRuntime::FromArtifact(
        SharedArtifact(), ServeRuntimeConfig());
    ASSERT_TRUE(reference.ok());
    std::vector<double> expected(kRequests * kCount * 2);
    (*reference)->ProcessInvocation(
        core::BatchView(SharedInputs().data(), kRequests * kCount, 2),
        expected.data());

    for (size_t r = 0; r < kRequests; ++r) {
        const serve::InvocationResult result = futures[r].get();
        ASSERT_TRUE(result.status.ok());
        EXPECT_EQ(result.report.elements, kCount);
        for (size_t i = 0; i < result.outputs.size(); ++i)
            EXPECT_DOUBLE_EQ(result.outputs[i],
                             expected[r * kCount * 2 + i])
                << "request " << r << " element " << i;
    }
}

TEST(ShardedEngineTest, FullQueueRejectsWithResourceExhausted)
{
    serve::ServeConfig config;
    config.shards = 1;
    config.queue_capacity = 2;
    auto engine = MakeEngine(config);

    engine->Pause();  // workers stall: pushes accumulate.
    auto first = engine->Submit(MakeRequest(0, 10));
    auto second = engine->Submit(MakeRequest(10, 10));
    auto third = engine->Submit(MakeRequest(20, 10));

    const serve::InvocationResult rejected = third.get();
    EXPECT_EQ(rejected.status.code(),
              core::StatusCode::kResourceExhausted);
    EXPECT_TRUE(rejected.outputs.empty());

    engine->Resume();
    EXPECT_TRUE(first.get().status.ok());
    EXPECT_TRUE(second.get().status.ok());
}

TEST(ShardedEngineTest, DrainCompletesEveryAcceptedFuture)
{
    serve::ServeConfig config;
    config.shards = 2;
    config.queue_capacity = 64;
    auto engine = MakeEngine(config);

    std::vector<std::future<serve::InvocationResult>> futures;
    for (size_t r = 0; r < 24; ++r)
        futures.push_back(engine->Submit(MakeRequest(r * 20, 20)));
    engine->Drain();

    for (auto& future : futures) {
        ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
                  std::future_status::ready);
        EXPECT_TRUE(future.get().status.ok());
    }
}

TEST(ShardedEngineTest, ShutdownCancelsQueuedWork)
{
    serve::ServeConfig config;
    config.shards = 1;
    config.queue_capacity = 8;
    auto engine = MakeEngine(config);

    engine->Pause();
    auto queued_a = engine->Submit(MakeRequest(0, 10));
    auto queued_b = engine->Submit(MakeRequest(10, 10));
    engine->Shutdown();

    EXPECT_EQ(queued_a.get().status.code(),
              core::StatusCode::kCancelled);
    EXPECT_EQ(queued_b.get().status.code(),
              core::StatusCode::kCancelled);
    // Post-shutdown submissions are turned away, not crashed.
    EXPECT_EQ(engine->Submit(MakeRequest(0, 4)).get().status.code(),
              core::StatusCode::kUnavailable);
}

TEST(ShardedEngineTest, ConcurrentSubmitStress)
{
    serve::ServeConfig config;
    config.shards = 2;
    config.queue_capacity = 16;
    auto engine = MakeEngine(config);

    constexpr size_t kThreads = 4;
    constexpr size_t kPerThread = 40;
    std::atomic<size_t> served{0};
    std::atomic<size_t> rejected{0};
    std::vector<std::thread> clients;
    clients.reserve(kThreads);
    for (size_t t = 0; t < kThreads; ++t) {
        clients.emplace_back([&, t] {
            for (size_t r = 0; r < kPerThread; ++r) {
                auto future = engine->Submit(
                    MakeRequest(((t * kPerThread + r) * 8) % 4000, 8));
                const serve::InvocationResult result = future.get();
                if (result.status.ok()) {
                    ASSERT_EQ(result.outputs.size(), 8u * 2u);
                    served.fetch_add(1);
                } else {
                    // Backpressure is the only acceptable failure.
                    ASSERT_EQ(result.status.code(),
                              core::StatusCode::kResourceExhausted);
                    rejected.fetch_add(1);
                }
            }
        });
    }
    for (auto& client : clients)
        client.join();
    engine->Drain();
    engine->Shutdown();
    EXPECT_EQ(served.load() + rejected.load(), kThreads * kPerThread);
    EXPECT_GT(served.load(), 0u);
}

// ------------------------------------------- Request-scoped tracing

TEST(ShardedEngineTest, TraceIdsAppearExactlyOnceInExportedTraces)
{
    auto& collector = obs::RequestTraceCollector::Default();
    collector.Clear();

    serve::ServeConfig config;
    config.shards = 2;
    config.queue_capacity = 64;
    config.max_coalesce_elements = 4096;  // force coalesced batches.
    config.trace.sample_every = 1;        // tail policy keeps all.
    auto engine = MakeEngine(config);

    // Completed (and coalesced): queue twelve requests while paused so
    // each shard serves its whole backlog as one multi-request batch.
    engine->Pause();
    std::vector<std::future<serve::InvocationResult>> futures;
    for (size_t r = 0; r < 12; ++r)
        futures.push_back(engine->Submit(MakeRequest(r * 50, 50)));
    engine->Resume();
    engine->Drain();

    // Rejected: a malformed request fails at Submit, yet carries an id.
    serve::InvocationRequest bad = MakeRequest(0, 4);
    bad.width = 3;
    const serve::InvocationResult rejected =
        engine->Submit(std::move(bad)).get();
    EXPECT_EQ(rejected.status.code(),
              core::StatusCode::kInvalidArgument);

    // Cancelled: queued work killed by Shutdown.
    engine->Pause();
    auto queued_a = engine->Submit(MakeRequest(0, 10));
    auto queued_b = engine->Submit(MakeRequest(10, 10));
    engine->Shutdown();

    std::map<uint64_t, obs::RequestOutcome> expected;
    for (auto& future : futures) {
        const serve::InvocationResult result = future.get();
        ASSERT_TRUE(result.status.ok());
        ASSERT_NE(result.trace_id, 0u);
        EXPECT_TRUE(expected
                        .emplace(result.trace_id,
                                 obs::RequestOutcome::kCompleted)
                        .second)
            << "duplicate id " << result.trace_id;
    }
    ASSERT_NE(rejected.trace_id, 0u);
    expected.emplace(rejected.trace_id,
                     obs::RequestOutcome::kRejected);
    for (auto* queued : {&queued_a, &queued_b}) {
        const serve::InvocationResult result = queued->get();
        ASSERT_EQ(result.status.code(), core::StatusCode::kCancelled);
        ASSERT_NE(result.trace_id, 0u);
        expected.emplace(result.trace_id,
                         obs::RequestOutcome::kCancelled);
    }

    const auto traces = collector.Dump();
    EXPECT_EQ(traces.size(), expected.size());
    std::map<uint64_t, size_t> seen;
    bool saw_coalesced = false;
    for (const auto& trace : traces) {
        ++seen[trace.trace_id];
        const auto it = expected.find(trace.trace_id);
        ASSERT_NE(it, expected.end())
            << "unexpected trace " << trace.trace_id;
        EXPECT_EQ(trace.outcome, it->second);
        if (trace.outcome == obs::RequestOutcome::kCompleted) {
            saw_coalesced |= trace.batch_requests > 1;
            // Served traces carry the span tree.
            const std::string json = obs::RequestTraceJson(trace);
            EXPECT_NE(json.find("{\"name\":\"queue_wait\""),
                      std::string::npos)
                << json;
            EXPECT_NE(json.find("{\"name\":\"device\""),
                      std::string::npos)
                << json;
            EXPECT_GE(trace.merge_start_ns,
                      trace.submit_ns + trace.queue_wait_ns);
        } else {
            EXPECT_EQ(obs::SpanCount(trace), 0u);
        }
    }
    for (const auto& [id, outcome] : expected)
        EXPECT_EQ(seen[id], 1u) << "trace " << id;
    EXPECT_TRUE(saw_coalesced);
    collector.Clear();
}

// ------------------------------------------------ Flight recorder

size_t
CountFlightDumps(const std::string& dir)
{
    size_t n = 0;
    if (DIR* d = ::opendir(dir.c_str())) {
        while (const dirent* entry = ::readdir(d))
            n += std::string(entry->d_name).rfind("flight-shard", 0) ==
                 0;
        ::closedir(d);
    }
    return n;
}

// TempDir() persists across test runs and dump sequence numbers
// restart per engine, so stale artifacts from a previous run would
// absorb a fresh dump into an unchanged file count. Start clean.
void
RemoveFlightDumps(const std::string& dir)
{
    if (DIR* d = ::opendir(dir.c_str())) {
        while (const dirent* entry = ::readdir(d)) {
            const std::string name = entry->d_name;
            if (name.rfind("flight-shard", 0) == 0)
                std::remove((dir + "/" + name).c_str());
        }
        ::closedir(d);
    }
}

std::string
ReadWholeFile(const std::string& path)
{
    std::ifstream in(path);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

TEST(FlightRecorderTest, RingEvictsOldestAndDumpsJsonl)
{
    obs::TailSamplingPolicy keep_all;
    keep_all.sample_every = 1;
    obs::RequestTraceCollector ring(4);
    ring.Configure(keep_all);
    for (uint64_t id = 1; id <= 6; ++id) {
        obs::RequestTrace record;
        record.trace_id = id;
        record.elements = id * 10;
        ring.Record(record);
    }
    EXPECT_EQ(ring.TotalRecorded(), 6u);
    EXPECT_EQ(ring.Sampled(), 0u);  // the flight view keeps everything.
    const auto snapshot = ring.Dump();
    ASSERT_EQ(snapshot.size(), 4u);
    EXPECT_EQ(snapshot.front().trace_id, 3u);  // 1 and 2 evicted.
    EXPECT_EQ(snapshot.back().trace_id, 6u);

    const std::string path = obs::WriteFlightDump(
        ::testing::TempDir(), 9, 0, "unit_test", snapshot);
    ASSERT_FALSE(path.empty());
    EXPECT_NE(path.find("flight-shard9-0.jsonl"), std::string::npos);
    const std::string contents = ReadWholeFile(path);
    EXPECT_NE(contents.find("\"type\":\"meta\""), std::string::npos);
    EXPECT_NE(contents.find("\"type\":\"flight_dump\""),
              std::string::npos);
    EXPECT_NE(contents.find("\"reason\":\"unit_test\""),
              std::string::npos);
    EXPECT_NE(contents.find("\"records\":4"), std::string::npos);
    EXPECT_NE(contents.find("\"trace_id\":6"), std::string::npos);
    std::remove(path.c_str());
}

TEST(FlightRecorderTest, DigestIsStableAndInputSensitive)
{
    const std::vector<double> a = {1.0, 2.0, 3.0};
    const std::vector<double> b = {1.0, 2.0, 3.5};
    const size_t bytes = a.size() * sizeof(double);
    EXPECT_EQ(Fnv1a64(a.data(), bytes), Fnv1a64(a.data(), bytes));
    EXPECT_NE(Fnv1a64(a.data(), bytes), Fnv1a64(b.data(), bytes));
    EXPECT_NE(Fnv1a64(a.data(), bytes), 0u);
    // FNV-1a 64's published empty-input value (the offset basis).
    EXPECT_EQ(Fnv1a64(a.data(), 0), 14695981039346656037ull);
}

TEST(ShardedEngineTest, FlightRecorderCapturesServedRequests)
{
    serve::ServeConfig config;
    config.shards = 1;
    config.flight.capacity = 8;
    config.flight.dump_dir = ::testing::TempDir() + "flight_manual";
    ::mkdir(config.flight.dump_dir.c_str(), 0755);
    RemoveFlightDumps(config.flight.dump_dir);
    auto engine = MakeEngine(config);

    std::vector<uint64_t> ids;
    for (size_t r = 0; r < 3; ++r) {
        const serve::InvocationResult result =
            engine->Submit(MakeRequest(r * 30, 30)).get();
        ASSERT_TRUE(result.status.ok());
        ids.push_back(result.trace_id);
    }
    engine->Drain();

    const auto records = engine->Flight(0).Dump();
    ASSERT_EQ(records.size(), 3u);
    for (size_t i = 0; i < records.size(); ++i) {
        EXPECT_EQ(records[i].trace_id, ids[i]);
        EXPECT_EQ(records[i].elements, 30u);
        const serve::InvocationRequest sent = MakeRequest(i * 30, 30);
        EXPECT_EQ(records[i].inputs_digest,
                  Fnv1a64(sent.inputs.data(),
                          sent.inputs.size() * sizeof(double)));
        EXPECT_GE(records[i].threshold, 0.0);
        EXPECT_GT(records[i].total_ns, 0u);
        EXPECT_EQ(records[i].status_code, 0u);
        EXPECT_EQ(records[i].outcome, obs::RequestOutcome::kCompleted);
    }

    const auto paths = engine->DumpFlightRecords("operator");
    ASSERT_EQ(paths.size(), 1u);
    EXPECT_NE(paths[0].find("flight-shard0-0.jsonl"), std::string::npos);
    const std::string contents = ReadWholeFile(paths[0]);
    EXPECT_NE(contents.find("\"reason\":\"operator\""),
              std::string::npos);
    EXPECT_NE(contents.find("\"trace_id\""), std::string::npos);
    std::remove(paths[0].c_str());

    // A second dump gets the shard's next sequence number (never
    // overwrites).
    const auto second = engine->DumpFlightRecords("operator");
    ASSERT_EQ(second.size(), 1u);
    EXPECT_NE(second[0].find("flight-shard0-1.jsonl"), std::string::npos);
    std::remove(second[0].c_str());

    const std::string statusz = engine->StatuszJson();
    EXPECT_NE(statusz.find("\"healthy\":true"), std::string::npos);
    EXPECT_NE(statusz.find("\"tuner_mode\":\"toq\""),
              std::string::npos);
    EXPECT_NE(statusz.find("\"shards\":[{\"shard\":0"),
              std::string::npos);
    EXPECT_NE(statusz.find("\"queue_depth\":0"), std::string::npos);
    EXPECT_NE(statusz.find("\"breaker_state\":0"), std::string::npos);
    EXPECT_NE(statusz.find("\"flight_records\":3"), std::string::npos);
}

TEST(ShardedEngineTest, RefusalsLandInTheRingsTheyBelongIn)
{
    auto& collector = obs::RequestTraceCollector::Default();
    collector.Clear();

    serve::ServeConfig config;
    config.shards = 1;
    config.queue_capacity = 1;
    config.trace.sample_every = 1;
    config.admission.enabled = false;  // pure reject-on-full.
    auto engine = MakeEngine(config);

    engine->Pause();
    auto queued = engine->Submit(MakeRequest(0, 10));  // fills the queue.
    const serve::InvocationResult full =
        engine->Submit(MakeRequest(10, 12)).get();
    ASSERT_EQ(full.status.code(), core::StatusCode::kResourceExhausted);
    serve::InvocationRequest bad = MakeRequest(0, 4);
    bad.width = 3;
    const serve::InvocationResult malformed =
        engine->Submit(std::move(bad)).get();
    ASSERT_EQ(malformed.status.code(),
              core::StatusCode::kInvalidArgument);
    engine->Shutdown();
    const serve::InvocationResult cancelled = queued.get();
    ASSERT_EQ(cancelled.status.code(), core::StatusCode::kCancelled);

    // A shard refusal lands in the shard's flight ring; Submit's own
    // validation and Shutdown's cancellations do not.
    const auto flight = engine->Flight(0).Dump();
    ASSERT_EQ(flight.size(), 1u);
    EXPECT_EQ(flight[0].trace_id, full.trace_id);
    EXPECT_EQ(flight[0].outcome, obs::RequestOutcome::kRejected);
    EXPECT_EQ(flight[0].status_code,
              static_cast<uint32_t>(core::StatusCode::kResourceExhausted));
    EXPECT_EQ(flight[0].elements, 12u);
    EXPECT_EQ(obs::SpanCount(flight[0]), 0u);

    // The kept ring holds all three.
    std::map<uint64_t, obs::RequestOutcome> kept;
    for (const auto& trace : collector.Dump())
        kept[trace.trace_id] = trace.outcome;
    EXPECT_EQ(kept.size(), 3u);
    EXPECT_EQ(kept[full.trace_id], obs::RequestOutcome::kRejected);
    EXPECT_EQ(kept[malformed.trace_id], obs::RequestOutcome::kRejected);
    EXPECT_EQ(kept[cancelled.trace_id], obs::RequestOutcome::kCancelled);
    collector.Clear();
}

TEST(ShardedEngineTest, BothRecordViewsOffRecordNothing)
{
    auto& collector = obs::RequestTraceCollector::Default();
    collector.Clear();

    serve::ServeConfig config;
    config.shards = 1;
    config.flight.capacity = 0;
    config.trace.enabled = false;
    auto engine = MakeEngine(config);
    ASSERT_TRUE(engine->Submit(MakeRequest(0, 30)).get().status.ok());
    serve::InvocationRequest bad = MakeRequest(0, 4);
    bad.width = 3;
    EXPECT_FALSE(engine->Submit(std::move(bad)).get().status.ok());
    engine->Drain();

    EXPECT_EQ(collector.TotalRecorded(), 0u);
    EXPECT_TRUE(engine->DumpFlightRecords().empty());
    EXPECT_EQ(engine->StatuszJson().find("flight_records"),
              std::string::npos);
}

TEST(ShardedEngineTest, BreakerTripAutoDumpsFlightRecorder)
{
    struct DisarmGuard {
        ~DisarmGuard() { fault::FaultInjector::Default().Disarm(); }
    } guard;

    core::RuntimeConfig runtime_config = ServeRuntimeConfig();
    runtime_config.breaker.trip_after = 1;  // twitchy test breaker.

    serve::ServeConfig config;
    config.shards = 1;
    const std::string dir = ::testing::TempDir() + "flight_trip";
    ::mkdir(dir.c_str(), 0755);
    RemoveFlightDumps(dir);
    config.flight.dump_dir = dir;

    auto created = serve::ShardedEngine::Create(
        SharedArtifact(), runtime_config, config);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    auto engine = std::move(created).value();

    // Healthy round: breaker closed, nothing dumped.
    ASSERT_TRUE(engine->Submit(MakeRequest(0, 50)).get().status.ok());
    const size_t dumps_before = CountFlightDumps(dir);

    fault::FaultPlan plan;
    std::string error;
    ASSERT_TRUE(fault::FaultPlan::Parse("seed=9;npu.output_nan=1",
                                        &plan, &error))
        << error;
    fault::FaultInjector::Default().Arm(plan);
    const serve::InvocationResult faulty =
        engine->Submit(MakeRequest(0, 50)).get();
    fault::FaultInjector::Default().Disarm();
    ASSERT_TRUE(faulty.status.ok());  // salvaged, never failed.
    EXPECT_GT(faulty.report.non_finite_outputs, 0u);

    // Barrier: the dump happens after the faulty batch's futures
    // resolve, so wait for the *next* batch to clear the worker.
    ASSERT_TRUE(
        engine->Submit(MakeRequest(100, 50)).get().status.ok());
    engine->Drain();

    EXPECT_EQ(engine->Runtime(0).Breaker().State(),
              core::BreakerState::kOpen);
    ASSERT_GT(CountFlightDumps(dir), dumps_before);

    // The dump artifact names the trip and joins to request traces.
    std::string all;
    if (DIR* d = ::opendir(dir.c_str())) {
        while (const dirent* entry = ::readdir(d)) {
            const std::string name = entry->d_name;
            if (name.rfind("flight-shard", 0) == 0)
                all += ReadWholeFile(dir + "/" + name);
        }
        ::closedir(d);
    }
    EXPECT_NE(all.find("\"reason\":\"breaker_open\""),
              std::string::npos);
    EXPECT_NE(all.find("\"trace_id\""), std::string::npos);
    engine->Shutdown();
}

// ------------------------------------------------ Output-format pins
//
// Flight dumps, RUMBA_REQTRACE_OUT lines and incident bundles are read
// by rumba-stat, ci.sh and operators: these strings pin the exact
// bytes both views of one served and one refused request render to.

constexpr char kGoldenServedFlight[] =
    "{\"type\":\"flight\",\"trace_id\":4242,\"shard\":1,"
    "\"enqueue_ns\":1000000,\"complete_ns\":1093000,"
    "\"queue_wait_ns\":12000,\"device_ns\":50000,\"elements\":1024,"
    "\"inputs_digest\":11400714819323198485,\"threshold\":0.6875,"
    "\"predicted_error_pct\":33.3333333,\"actual_error_pct\":9.125,"
    "\"fixes\":312,\"breaker_state\":2,\"status_code\":0,"
    "\"audited\":true}";
constexpr char kGoldenRefusedFlight[] =
    "{\"type\":\"flight\",\"trace_id\":4243,\"shard\":1,"
    "\"enqueue_ns\":2000000,\"complete_ns\":2001500,"
    "\"queue_wait_ns\":0,\"device_ns\":0,\"elements\":64,"
    "\"inputs_digest\":0,\"threshold\":0,\"predicted_error_pct\":0,"
    "\"actual_error_pct\":0,\"fixes\":0,\"breaker_state\":0,"
    "\"status_code\":5,\"audited\":false}";
constexpr char kGoldenServedTrace[] =
    "{\"type\":\"reqtrace\",\"trace_id\":4242,\"shard\":1,"
    "\"outcome\":\"completed\",\"submit_ns\":1000000,"
    "\"total_ns\":93000,\"elements\":1024,\"batch_requests\":3,"
    "\"fixes\":312,\"breaker_state\":2,\"audited\":true,\"spans\":["
    "{\"name\":\"queue_wait\",\"start_ns\":1000000,"
    "\"duration_ns\":12000},"
    "{\"name\":\"device\",\"start_ns\":1012000,\"duration_ns\":50000},"
    "{\"name\":\"check\",\"start_ns\":1062000,\"duration_ns\":9000},"
    "{\"name\":\"recover\",\"start_ns\":1071000,"
    "\"duration_ns\":15000},"
    "{\"name\":\"merge\",\"start_ns\":1090000,\"duration_ns\":3000}]}";
constexpr char kGoldenRefusedTrace[] =
    "{\"type\":\"reqtrace\",\"trace_id\":4243,\"shard\":1,"
    "\"outcome\":\"rejected\",\"submit_ns\":2000000,\"total_ns\":1500,"
    "\"elements\":64,\"batch_requests\":1,\"fixes\":0,"
    "\"breaker_state\":0,\"audited\":false,\"spans\":[]}";

/** A served request: three coalesced, recovered, half-open breaker,
 *  audited. */
obs::RequestTrace
GoldenServed()
{
    obs::RequestTrace r;
    r.trace_id = 4242;
    r.shard = 1;
    r.outcome = obs::RequestOutcome::kCompleted;
    r.submit_ns = 1000000;
    r.total_ns = 93000;
    r.elements = 1024;
    r.batch_requests = 3;
    r.fixes = 312;
    r.breaker_state = 2;
    r.audited = true;
    r.inputs_digest = 11400714819323198485ull;
    r.threshold = 0.6875;
    r.predicted_error_pct = 100.0 / 3.0;
    r.actual_error_pct = 9.125;
    r.queue_wait_ns = 12000;
    r.device_ns = 50000;
    r.check_ns = 9000;
    r.recover_ns = 15000;
    r.merge_start_ns = 1090000;
    r.merge_ns = 3000;
    return r;
}

/** A request refused with backpressure: it never ran. */
obs::RequestTrace
GoldenRefused()
{
    obs::RequestTrace r;
    r.trace_id = 4243;
    r.shard = 1;
    r.outcome = obs::RequestOutcome::kRejected;
    r.status_code =
        static_cast<uint32_t>(core::StatusCode::kResourceExhausted);
    r.submit_ns = 2000000;
    r.total_ns = 1500;
    r.elements = 64;
    return r;
}

TEST(RecordFormatTest, FlightRecordJsonMatchesGolden)
{
    EXPECT_EQ(obs::FlightRecordJson(GoldenServed()), kGoldenServedFlight);
    EXPECT_EQ(obs::FlightRecordJson(GoldenRefused()),
              kGoldenRefusedFlight);
}

TEST(RecordFormatTest, RequestTraceJsonMatchesGolden)
{
    EXPECT_EQ(obs::RequestTraceJson(GoldenServed()), kGoldenServedTrace);
    EXPECT_EQ(obs::RequestTraceJson(GoldenRefused()),
              kGoldenRefusedTrace);
}

TEST(RecordFormatTest, FlightDumpBodyMatchesGolden)
{
    const std::string path = obs::WriteFlightDump(
        ::testing::TempDir(), 1, 0, "golden",
        {GoldenServed(), GoldenRefused()});
    ASSERT_FALSE(path.empty());
    std::string body = ReadWholeFile(path);
    std::remove(path.c_str());
    // The meta line carries wall time and host; everything after it
    // is pinned.
    ASSERT_NE(body.find("\"type\":\"meta\""), std::string::npos);
    body.erase(0, body.find('\n') + 1);
    EXPECT_EQ(body,
              std::string("{\"type\":\"flight_dump\",\"reason\":"
                          "\"golden\",\"shard\":1,\"records\":2}\n") +
                  kGoldenServedFlight + "\n" + kGoldenRefusedFlight +
                  "\n");
}

// ------------------------------------------- Admission state machine

TEST(AdmissionControllerTest, SheddingLadderOrdersByClass)
{
    serve::AdmissionController adm(serve::AdmissionConfig{});
    // One high-fill observation escalates immediately.
    EXPECT_EQ(adm.Decide(serve::QualityClass::kGold, 0.80, false),
              serve::AdmissionAction::kAdmit);
    EXPECT_EQ(adm.state(), serve::AdmissionState::kShedding);
    // While shedding: gold untouched, silver keeps its checker but
    // drops to compensate-only recovery, best-effort sheds at/above
    // best_effort_shed_fill and degrades below it.
    EXPECT_EQ(adm.Decide(serve::QualityClass::kSilver, 0.80, false),
              serve::AdmissionAction::kCompensateOnly);
    EXPECT_EQ(
        adm.Decide(serve::QualityClass::kBestEffort, 0.80, false),
        serve::AdmissionAction::kShed);
    EXPECT_EQ(
        adm.Decide(serve::QualityClass::kBestEffort, 0.30, false),
        serve::AdmissionAction::kDegrade);
}

TEST(AdmissionControllerTest, EmergencyNeverShedsGold)
{
    serve::AdmissionController adm(serve::AdmissionConfig{});
    EXPECT_EQ(adm.Decide(serve::QualityClass::kGold, 0.96, false),
              serve::AdmissionAction::kCompensateOnly);
    EXPECT_EQ(adm.state(), serve::AdmissionState::kEmergency);
    EXPECT_EQ(adm.Decide(serve::QualityClass::kSilver, 0.96, false),
              serve::AdmissionAction::kShed);
    EXPECT_EQ(
        adm.Decide(serve::QualityClass::kBestEffort, 0.96, false),
        serve::AdmissionAction::kShed);
    // Below the emergency shed fill the lower tiers ride the cheaper
    // rungs (0.80 is still pressure, so the state holds).
    EXPECT_EQ(adm.Decide(serve::QualityClass::kSilver, 0.80, false),
              serve::AdmissionAction::kDegrade);
    EXPECT_EQ(
        adm.Decide(serve::QualityClass::kBestEffort, 0.80, false),
        serve::AdmissionAction::kBypassCheck);
    // Gold rides the compensate rung, never refused, no matter the
    // pressure.
    EXPECT_EQ(adm.Decide(serve::QualityClass::kGold, 1.0, true),
              serve::AdmissionAction::kCompensateOnly);
    EXPECT_EQ(adm.state(), serve::AdmissionState::kEmergency);
}

TEST(AdmissionControllerTest, LatencySloEscalatesAtAnyFill)
{
    serve::AdmissionController adm(serve::AdmissionConfig{});
    EXPECT_EQ(adm.Decide(serve::QualityClass::kGold, 0.05, true),
              serve::AdmissionAction::kAdmit);
    EXPECT_EQ(adm.state(), serve::AdmissionState::kShedding);
}

TEST(AdmissionControllerTest, HysteresisRequiresUnbrokenCalmRun)
{
    serve::AdmissionConfig config;
    serve::AdmissionController adm(config);
    ASSERT_EQ(adm.Decide(serve::QualityClass::kGold, 0.80, false),
              serve::AdmissionAction::kAdmit);
    ASSERT_EQ(adm.state(), serve::AdmissionState::kShedding);

    // calm_steps - 1 calm observations are not enough...
    for (uint32_t i = 0; i + 1 < config.calm_steps; ++i) {
        adm.Decide(serve::QualityClass::kGold, 0.10, false);
        EXPECT_EQ(adm.state(), serve::AdmissionState::kShedding);
    }
    // ...one more de-escalates.
    adm.Decide(serve::QualityClass::kGold, 0.10, false);
    EXPECT_EQ(adm.state(), serve::AdmissionState::kClosed);

    // A single pressure observation mid-run resets the calm counter:
    // the full run must be consecutive.
    adm.Decide(serve::QualityClass::kGold, 0.80, false);
    ASSERT_EQ(adm.state(), serve::AdmissionState::kShedding);
    for (uint32_t i = 0; i + 1 < config.calm_steps; ++i)
        adm.Decide(serve::QualityClass::kGold, 0.10, false);
    adm.Decide(serve::QualityClass::kGold, 0.80, false);  // reset.
    for (uint32_t i = 0; i + 1 < config.calm_steps; ++i) {
        adm.Decide(serve::QualityClass::kGold, 0.10, false);
        EXPECT_EQ(adm.state(), serve::AdmissionState::kShedding);
    }
    adm.Decide(serve::QualityClass::kGold, 0.10, false);
    EXPECT_EQ(adm.state(), serve::AdmissionState::kClosed);
    EXPECT_EQ(adm.Transitions(), 4u);
}

TEST(AdmissionControllerTest, DisabledAlwaysAdmits)
{
    serve::AdmissionConfig off;
    off.enabled = false;
    serve::AdmissionController adm(off);
    EXPECT_EQ(adm.Decide(serve::QualityClass::kBestEffort, 1.0, true),
              serve::AdmissionAction::kAdmit);
    EXPECT_EQ(adm.state(), serve::AdmissionState::kClosed);
    EXPECT_EQ(adm.Transitions(), 0u);
}

// ----------------------------------- Admission + deadlines in engine

TEST(ShardedEngineTest, BestEffortShedsBeforeQueueFullRejectsGold)
{
    serve::ServeConfig config;
    config.shards = 1;
    config.queue_capacity = 8;
    auto engine = MakeEngine(config);

    // Park the worker and stack the queue to 7/8 with gold.
    engine->Pause();
    std::vector<std::future<serve::InvocationResult>> gold;
    for (int r = 0; r < 7; ++r)
        gold.push_back(engine->Submit(MakeRequest(r * 4, 4)));

    // Best-effort is shed by admission (kUnavailable) while the queue
    // still has room — shedding fires BEFORE queue-full backpressure.
    serve::InvocationRequest best_effort = MakeRequest(0, 4);
    best_effort.quality = serve::QualityClass::kBestEffort;
    auto shed = engine->Submit(std::move(best_effort));
    EXPECT_EQ(engine->Admission()->state(),
              serve::AdmissionState::kShedding);

    // The slot the shed request did not take still serves gold.
    gold.push_back(engine->Submit(MakeRequest(28, 4)));

    engine->Resume();
    engine->Drain();

    const auto shed_result = shed.get();
    EXPECT_EQ(shed_result.status.code(),
              core::StatusCode::kUnavailable);
    EXPECT_TRUE(shed_result.outputs.empty());
    for (auto& f : gold) {
        const auto result = f.get();
        EXPECT_TRUE(result.status.ok()) << result.status.ToString();
    }
    engine->Shutdown();
}

TEST(ShardedEngineTest, ExpiredQueuedWorkNeverReachesTheDevice)
{
    serve::ServeConfig config;
    config.shards = 1;
    config.queue_capacity = 8;
    config.admission.enabled = false;  // isolate the deadline path.
    auto engine = MakeEngine(config);

    engine->Pause();
    auto healthy = engine->Submit(MakeRequest(0, 4));
    serve::InvocationRequest doomed = MakeRequest(4, 4);
    doomed.deadline_ns = obs::NowNs() + 2'000'000ull;  // +2 ms.
    auto expired = engine->Submit(std::move(doomed));
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    engine->Resume();
    engine->Drain();

    const auto expired_result = expired.get();
    EXPECT_EQ(expired_result.status.code(),
              core::StatusCode::kDeadlineExceeded);
    // The promise the scenario matrix asserts fleet-wide: expired
    // work resolves without ever executing, so it carries no outputs.
    EXPECT_TRUE(expired_result.outputs.empty());
    EXPECT_TRUE(healthy.get().status.ok());
    engine->Shutdown();
}

TEST(ShardedEngineTest, DeadArrivalExpiresWithoutQueueSlot)
{
    serve::ServeConfig config;
    config.shards = 1;
    auto engine = MakeEngine(config);
    serve::InvocationRequest dead = MakeRequest(0, 4);
    dead.deadline_ns = 1;  // long past.
    const auto result = engine->Submit(std::move(dead)).get();
    EXPECT_EQ(result.status.code(),
              core::StatusCode::kDeadlineExceeded);
    EXPECT_TRUE(result.outputs.empty());
    engine->Shutdown();
}

// ------------------------------------------------------ Loadgen smoke

TEST(LoadGeneratorTest, ArrivalProcessNamesRoundTrip)
{
    for (const auto arrival : {serve::ArrivalProcess::kPoisson,
                               serve::ArrivalProcess::kBursty,
                               serve::ArrivalProcess::kDiurnal}) {
        serve::ArrivalProcess parsed;
        ASSERT_TRUE(serve::ParseArrivalProcess(
            serve::ArrivalProcessName(arrival), &parsed));
        EXPECT_EQ(parsed, arrival);
    }
    serve::ArrivalProcess unused;
    EXPECT_FALSE(serve::ParseArrivalProcess("lunar", &unused));
}

TEST(LoadGeneratorTest, OpenLoopRunAccountsForEveryArrival)
{
    serve::ServeConfig config;
    config.shards = 2;
    config.queue_capacity = 8;
    auto engine = MakeEngine(config);

    serve::LoadGenConfig load;
    load.arrival = serve::ArrivalProcess::kPoisson;
    load.rate_hz = 2000.0;
    load.duration_ns = 100'000'000ull;  // 100 ms schedule.
    load.elements = 4;
    load.seed = 1234;
    load.input_pool = SharedInputs();
    load.best_effort_deadline_ns = 5'000'000ull;  // 5 ms.

    serve::LoadGenerator generator(*engine, load);
    const serve::LoadReport report = generator.Run();
    engine->Shutdown();

    EXPECT_GT(report.offered, 0u);
    // Every arrival lands in exactly one outcome bucket — nothing is
    // lost silently, under any interleaving.
    uint64_t submitted_sum = 0;
    for (const auto& cls : report.per_class) {
        submitted_sum += cls.submitted;
        EXPECT_EQ(cls.submitted,
                  cls.ok + cls.degraded + cls.compensated +
                      cls.bypassed + cls.shed + cls.expired +
                      cls.rejected + cls.cancelled + cls.failed);
    }
    EXPECT_EQ(report.offered, submitted_sum);
    EXPECT_EQ(report.expired_with_output, 0u);
    EXPECT_EQ(report.Total().failed, 0u);

    // The schedule is frozen by the seed: a second run offers exactly
    // the same arrivals no matter how the first engine coped.
    auto engine2 = MakeEngine(config);
    serve::LoadGenerator generator2(*engine2, load);
    const serve::LoadReport report2 = generator2.Run();
    engine2->Shutdown();
    EXPECT_EQ(report2.offered, report.offered);
}

}  // namespace
}  // namespace rumba
