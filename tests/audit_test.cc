// Tests for the ground-truth quality auditor (src/obs/audit.h): the
// shadow exact re-execution sampler, checker-calibration labeling
// (TP / FP / FN / TN over accelerator-served elements), the audited
// TOQ-violation SLO, queue overflow/drop accounting, the labeled
// JSONL export, and the serving engine's end-to-end wiring
// (sampling, trace joins, /statusz quality section).

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <future>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "apps/benchmark.h"
#include "core/artifact.h"
#include "core/recovery.h"
#include "core/runtime.h"
#include "obs/audit.h"
#include "obs/reqtrace.h"
#include "serve/engine.h"

namespace rumba {
namespace {

using obs::AuditConfig;
using obs::AuditHooks;
using obs::AuditResult;
using obs::AuditSample;
using obs::QualityAuditor;

// ------------------------------------------------- Synthetic fixture

/** Identity kernel (1 -> 1): exact output equals the input, element
 *  error is the absolute served/exact gap, aggregate is the mean —
 *  every "error percent" in these tests is therefore chosen exactly. */
AuditHooks
IdentityHooks()
{
    AuditHooks hooks;
    hooks.run_exact = [](const double* in, double* out) {
        out[0] = in[0];
    };
    hooks.element_error = [](const std::vector<double>& exact,
                             const std::vector<double>& approx) {
        return std::fabs(exact[0] - approx[0]);
    };
    hooks.aggregate_error = [](const std::vector<double>& errors) {
        double sum = 0.0;
        for (double e : errors)
            sum += e;
        return errors.empty() ? 0.0
                              : sum / static_cast<double>(errors.size());
    };
    return hooks;
}

AuditConfig
UnitConfig()
{
    AuditConfig config;
    config.sample_every = 1;
    config.queue_capacity = 64;
    config.threads = 1;
    config.toq_bound_pct = 10.0;
    config.slo_enabled = false;
    return config;
}

/** A sample whose per-element approximate error is
 *  approx_errors[i]; served output equals the exact value for fixed
 *  elements and the approximate one otherwise (what the runtime's
 *  merge step produces). */
AuditSample
MakeSample(uint64_t trace_id, const std::vector<double>& approx_errors,
           const std::vector<char>& fired, const std::vector<char>& fixed,
           double threshold)
{
    const size_t n = approx_errors.size();
    AuditSample s;
    s.trace_id = trace_id;
    s.count = n;
    s.in_width = 1;
    s.out_width = 1;
    s.threshold_used = threshold;
    s.inputs.resize(n);
    s.approx_outputs.resize(n);
    s.served_outputs.resize(n);
    s.predicted_error.resize(n, 0.0);
    s.fired = fired;
    s.fixed = fixed;
    s.exact_path.assign(n, 0);
    for (size_t i = 0; i < n; ++i) {
        s.inputs[i] = static_cast<double>(i) + 1.0;
        s.approx_outputs[i] = s.inputs[i] + approx_errors[i];
        s.served_outputs[i] =
            fixed[i] != 0 ? s.inputs[i] : s.approx_outputs[i];
        s.predicted_error[i] = fired[i] != 0 ? threshold + 1.0 : 0.0;
    }
    return s;
}

// ------------------------------------------------------ Unit: policy

TEST(QualityAuditorTest, SampleHealthyIsOneInN)
{
    AuditConfig config = UnitConfig();
    config.sample_every = 4;
    QualityAuditor auditor(config, IdentityHooks());
    int taken = 0;
    for (int i = 0; i < 8; ++i)
        taken += auditor.SampleHealthy() ? 1 : 0;
    EXPECT_EQ(taken, 2);  // calls 0 and 4.
}

TEST(QualityAuditorTest, SampleEveryZeroMeansForcedOnly)
{
    AuditConfig config = UnitConfig();
    config.sample_every = 0;
    QualityAuditor auditor(config, IdentityHooks());
    for (int i = 0; i < 16; ++i)
        EXPECT_FALSE(auditor.SampleHealthy());
}

TEST(QualityAuditorTest, ForcedRecoveredRidesItsOwnOneInMGate)
{
    AuditConfig config = UnitConfig();
    config.forced_sample_every = 4;
    QualityAuditor auditor(config, IdentityHooks());
    int taken = 0;
    for (int i = 0; i < 8; ++i)
        taken += auditor.SampleForcedRecovered() ? 1 : 0;
    EXPECT_EQ(taken, 2);  // candidates 0 and 4.

    // The two gates draw from independent streams: losing the forced
    // gate never consumes a healthy-sampler slot.
    EXPECT_TRUE(auditor.SampleHealthy());  // first healthy call.

    AuditConfig never = UnitConfig();
    never.forced_sample_every = 0;
    QualityAuditor off(never, IdentityHooks());
    for (int i = 0; i < 8; ++i)
        EXPECT_FALSE(off.SampleForcedRecovered());
}

TEST(QualityAuditorTest, ElementBudgetStridesLargeInvocations)
{
    AuditConfig config = UnitConfig();
    config.max_elements_per_sample = 3;
    QualityAuditor auditor(config, IdentityHooks());

    // 8 elements, budget 3 -> stride 3 -> original indices 0, 3, 6.
    std::vector<double> errors(8, 0.0);
    errors[3] = 20.0;
    AuditSample s = MakeSample(31, errors, std::vector<char>(8, 0),
                               std::vector<char>(8, 0), 10.0);
    ASSERT_TRUE(auditor.Enqueue(std::move(s)));
    auditor.Flush();

    const auto results = auditor.RecentResults();
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].elements, 8u);
    EXPECT_EQ(results[0].audited_elements, 3u);
    ASSERT_EQ(results[0].labeled.size(), 3u);
    EXPECT_EQ(results[0].labeled[0].index, 0u);
    EXPECT_EQ(results[0].labeled[1].index, 3u);
    EXPECT_EQ(results[0].labeled[2].index, 6u);
    // The audited subset still carries ground truth: index 3 is the
    // one false-negative accept, and the subset mean is 20/3.
    EXPECT_EQ(results[0].false_negatives, 1u);
    EXPECT_NEAR(results[0].true_error_pct, 20.0 / 3.0, 1e-9);
    EXPECT_EQ(auditor.Stats().audited_elements, 3u);

    // The export indexes elements by their original position.
    const std::string body = auditor.ExportJsonl();
    EXPECT_NE(body.find("\"index\":6"), std::string::npos);
    EXPECT_NE(body.find("\"audited_elements\":3"), std::string::npos);
}

TEST(QualityAuditorTest, RuntimeExactElementsAreNotReexecuted)
{
    // Recovery and the breaker tail already ran the exact kernel;
    // the auditor must only re-execute approximately-served elements.
    std::atomic<int> exact_runs{0};
    AuditHooks hooks = IdentityHooks();
    const auto base_exact = hooks.run_exact;
    hooks.run_exact = [&exact_runs, base_exact](const double* in,
                                                double* out) {
        exact_runs.fetch_add(1, std::memory_order_relaxed);
        base_exact(in, out);
    };
    QualityAuditor auditor(UnitConfig(), hooks);

    // Elements: fixed (no re-exec), breaker exact tail (no re-exec),
    // approximately served (one re-exec).
    AuditSample s = MakeSample(21, {20.0, 0.0, 3.0}, {1, 0, 0},
                               {1, 0, 0}, 10.0);
    s.exact_path[1] = 1;
    s.served_outputs[1] = s.inputs[1];
    ASSERT_TRUE(auditor.Enqueue(std::move(s)));
    auditor.Flush();

    EXPECT_EQ(exact_runs.load(), 1);
    const auto results = auditor.RecentResults();
    ASSERT_EQ(results.size(), 1u);
    // The skipped elements still carry ground-truth labels: the fixed
    // one keeps its approximate error (served == exact reference) and
    // a served error of zero.
    EXPECT_DOUBLE_EQ(results[0].labeled[0].approx_error, 20.0);
    EXPECT_DOUBLE_EQ(results[0].labeled[0].served_error, 0.0);
    EXPECT_TRUE(results[0].labeled[0].needs_fix);
    EXPECT_DOUBLE_EQ(results[0].labeled[2].served_error, 3.0);
}

TEST(QualityAuditorTest, CompensatedElementsAuditedWithTrueResidual)
{
    // Compensated elements (fixed mask 2) must NOT take the
    // served-is-ground-truth shortcut: the compensator is a model,
    // and the auditor's job is to measure the residual it left.
    std::atomic<int> exact_runs{0};
    std::atomic<int> hook_calls{0};
    double hook_residual_pct = 0.0;
    size_t hook_elements = 0;
    uint32_t hook_shard = 99;
    AuditHooks hooks = IdentityHooks();
    const auto base_exact = hooks.run_exact;
    hooks.run_exact = [&exact_runs, base_exact](const double* in,
                                                double* out) {
        exact_runs.fetch_add(1, std::memory_order_relaxed);
        base_exact(in, out);
    };
    hooks.on_compensated = [&](uint32_t shard, double residual_pct,
                               size_t elements) {
        hook_calls.fetch_add(1, std::memory_order_relaxed);
        hook_shard = shard;
        hook_residual_pct = residual_pct;
        hook_elements = elements;
    };
    QualityAuditor auditor(UnitConfig(), hooks);

    // Element 0: approx error 0.5, compensated down to a 0.04
    // residual. Element 1: re-executed exactly. Element 2: accepted.
    AuditSample s = MakeSample(11, {0.5, 20.0, 0.0}, {1, 1, 0},
                               {2, 1, 0}, 10.0);
    s.shard = 3;
    s.served_outputs[0] = s.inputs[0] + 0.04;
    ASSERT_TRUE(auditor.Enqueue(std::move(s)));
    auditor.Flush();

    // The compensated element and the accepted one re-execute; the
    // exactly-fixed one is already ground truth.
    EXPECT_EQ(exact_runs.load(), 2);

    const auto results = auditor.RecentResults();
    ASSERT_EQ(results.size(), 1u);
    const AuditResult& r = results[0];
    EXPECT_EQ(r.compensated_elements, 1u);
    // Unit-fraction residual 0.04 -> 4% in AggregateError units.
    EXPECT_NEAR(r.mean_compensated_residual_pct, 4.0, 1e-9);
    ASSERT_EQ(r.labeled.size(), 3u);
    EXPECT_TRUE(r.labeled[0].compensated);
    EXPECT_FALSE(r.labeled[0].fixed);
    EXPECT_NEAR(r.labeled[0].served_error, 0.04, 1e-12);
    EXPECT_FALSE(r.labeled[1].compensated);
    EXPECT_TRUE(r.labeled[1].fixed);
    EXPECT_DOUBLE_EQ(r.labeled[1].served_error, 0.0);

    // Ground-truth feedback flowed to the hook, tagged by shard.
    EXPECT_EQ(hook_calls.load(), 1);
    EXPECT_EQ(hook_shard, 3u);
    EXPECT_EQ(hook_elements, 1u);
    EXPECT_NEAR(hook_residual_pct, 4.0, 1e-9);

    // Lifetime stats and export carry the compensated view.
    EXPECT_EQ(auditor.Stats().compensated_elements, 1u);
    EXPECT_NEAR(auditor.Stats().mean_compensated_residual_pct, 4.0,
                1e-9);
    const std::string body = auditor.ExportJsonl();
    EXPECT_NE(body.find("\"compensated_elements\":1"),
              std::string::npos);
    EXPECT_NE(body.find("\"compensated\":true"), std::string::npos);
}

// ------------------------------------------- Unit: calibration labels

TEST(QualityAuditorTest, LabelsConfusionMatrixPerElement)
{
    QualityAuditor auditor(UnitConfig(), IdentityHooks());
    // threshold 10: element 0 TP (err 20, fired+fixed), 1 FP (err 0,
    // fired+fixed), 2 FN (err 20, silent), 3 TN (err 0, silent).
    AuditSample s = MakeSample(7, {20.0, 0.0, 20.0, 0.0},
                               {1, 1, 0, 0}, {1, 1, 0, 0}, 10.0);
    ASSERT_TRUE(auditor.Enqueue(std::move(s)));
    auditor.Flush();

    const auto stats = auditor.Stats();
    EXPECT_EQ(stats.audited, 1u);
    EXPECT_EQ(stats.audited_elements, 4u);
    EXPECT_EQ(stats.true_positives, 1u);
    EXPECT_EQ(stats.false_positives, 1u);
    EXPECT_EQ(stats.false_negatives, 1u);
    EXPECT_EQ(stats.true_negatives, 1u);
    EXPECT_DOUBLE_EQ(stats.precision, 0.5);
    EXPECT_DOUBLE_EQ(stats.recall, 0.5);
    // Served errors: fixed elements exact (0), the FN keeps its 20.
    EXPECT_DOUBLE_EQ(stats.mean_true_error_pct, 5.0);
    EXPECT_EQ(stats.toq_violations, 0u);  // 5 <= bound 10.

    const std::vector<AuditResult> results = auditor.RecentResults();
    ASSERT_EQ(results.size(), 1u);
    const AuditResult& r = results[0];
    EXPECT_EQ(r.trace_id, 7u);
    ASSERT_EQ(r.labeled.size(), 4u);
    EXPECT_TRUE(r.labeled[0].needs_fix);
    EXPECT_FALSE(r.labeled[1].needs_fix);
    EXPECT_TRUE(r.labeled[2].needs_fix);
    EXPECT_FALSE(r.labeled[2].fired);  // the false-negative accept.
    EXPECT_DOUBLE_EQ(r.labeled[2].approx_error, 20.0);
    EXPECT_DOUBLE_EQ(r.labeled[2].served_error, 20.0);
    EXPECT_DOUBLE_EQ(r.labeled[0].served_error, 0.0);  // recovered.
}

TEST(QualityAuditorTest, ExactPathElementsAreExcludedFromCalibration)
{
    QualityAuditor auditor(UnitConfig(), IdentityHooks());
    AuditSample s =
        MakeSample(9, {20.0, 0.0}, {0, 0}, {0, 0}, 10.0);
    // Element 1 was served by the breaker's exact tail: its "approx"
    // slot holds the exact output and carries no checker verdict.
    s.exact_path[1] = 1;
    s.approx_outputs[1] = s.inputs[1];
    s.served_outputs[1] = s.inputs[1];
    ASSERT_TRUE(auditor.Enqueue(std::move(s)));
    auditor.Flush();

    const auto stats = auditor.Stats();
    EXPECT_EQ(stats.audited_elements, 2u);
    // Only element 0 is calibrated: a false-negative accept.
    EXPECT_EQ(stats.true_positives + stats.false_positives +
                  stats.false_negatives + stats.true_negatives,
              1u);
    EXPECT_EQ(stats.false_negatives, 1u);

    const auto results = auditor.RecentResults();
    ASSERT_EQ(results.size(), 1u);
    EXPECT_TRUE(results[0].labeled[1].exact_path);
    EXPECT_DOUBLE_EQ(results[0].labeled[1].approx_error, 0.0);
    EXPECT_FALSE(results[0].labeled[1].needs_fix);
}

TEST(QualityAuditorTest, TrueToqViolationsDriveRateAndSlo)
{
    AuditConfig config = UnitConfig();
    config.toq_bound_pct = 1.0;
    config.slo_enabled = true;
    config.slo.objective = 0.99;
    config.slo.min_events = 10;
    QualityAuditor auditor(config, IdentityHooks());
    // Every sample's served error is 20 > bound 1: all violations.
    for (uint64_t id = 1; id <= 20; ++id) {
        auditor.Enqueue(
            MakeSample(id, {20.0}, {0}, {0}, /*threshold=*/100.0));
    }
    auditor.Flush();

    const auto stats = auditor.Stats();
    EXPECT_EQ(stats.audited, 20u);
    EXPECT_EQ(stats.toq_violations, 20u);
    EXPECT_DOUBLE_EQ(stats.toq_violation_rate, 1.0);
    // An all-bad stream must trip the audited-truth burn-rate SLO.
    EXPECT_TRUE(stats.slo_alerting);
    ASSERT_NE(auditor.Slo(), nullptr);
    EXPECT_EQ(auditor.Slo()->Config().name, "audited_quality");
}

// --------------------------------------------- Unit: queue mechanics

TEST(QualityAuditorTest, QueueOverflowDropsAndCounts)
{
    AuditConfig config = UnitConfig();
    config.queue_capacity = 2;
    config.threads = 1;

    // Gate the exact path so the single worker blocks inside the
    // first audit while the producer overfills the queue.
    auto entered = std::make_shared<std::promise<void>>();
    auto gate = std::make_shared<std::promise<void>>();
    std::shared_future<void> gate_future = gate->get_future().share();
    std::atomic<int> calls{0};
    AuditHooks hooks = IdentityHooks();
    hooks.run_exact = [entered, gate_future, &calls](const double* in,
                                                     double* out) {
        if (calls.fetch_add(1) == 0)
            entered->set_value();
        gate_future.wait();
        out[0] = in[0];
    };

    QualityAuditor auditor(config, hooks);
    ASSERT_TRUE(
        auditor.Enqueue(MakeSample(1, {0.0}, {0}, {0}, 10.0)));
    entered->get_future().wait();  // worker is inside sample 1.
    ASSERT_TRUE(
        auditor.Enqueue(MakeSample(2, {0.0}, {0}, {0}, 10.0)));
    ASSERT_TRUE(
        auditor.Enqueue(MakeSample(3, {0.0}, {0}, {0}, 10.0)));
    // Queue full (capacity 2): dropped, counted, never blocks.
    EXPECT_FALSE(
        auditor.Enqueue(MakeSample(4, {0.0}, {0}, {0}, 10.0)));

    gate->set_value();
    auditor.Flush();
    const auto stats = auditor.Stats();
    EXPECT_EQ(stats.enqueued, 3u);
    EXPECT_EQ(stats.queue_drops, 1u);
    EXPECT_EQ(stats.audited, 3u);
}

TEST(QualityAuditorTest, ForcedSamplesAreCountedAndKeepReason)
{
    AuditConfig config = UnitConfig();
    config.sample_every = 0;  // forced-only regime.
    QualityAuditor auditor(config, IdentityHooks());
    AuditSample s = MakeSample(5, {20.0}, {1}, {1}, 10.0);
    s.forced = true;
    s.forced_reason = "recovered";
    ASSERT_TRUE(auditor.Enqueue(std::move(s)));
    auditor.Flush();

    const auto stats = auditor.Stats();
    EXPECT_EQ(stats.forced, 1u);
    EXPECT_EQ(stats.audited, 1u);
    const auto results = auditor.RecentResults();
    ASSERT_EQ(results.size(), 1u);
    EXPECT_TRUE(results[0].forced);
    EXPECT_EQ(results[0].forced_reason, "recovered");
}

TEST(QualityAuditorTest, MalformedSampleIsDroppedNotAudited)
{
    QualityAuditor auditor(UnitConfig(), IdentityHooks());
    AuditSample s = MakeSample(3, {0.0, 0.0}, {0, 0}, {0, 0}, 10.0);
    s.inputs.resize(1);  // count x in_width no longer fits.
    ASSERT_TRUE(auditor.Enqueue(std::move(s)));
    auditor.Flush();
    EXPECT_EQ(auditor.Stats().audited, 0u);
}

TEST(QualityAuditorTest, ResultRingKeepsNewestOldestFirst)
{
    AuditConfig config = UnitConfig();
    config.result_capacity = 2;
    QualityAuditor auditor(config, IdentityHooks());
    for (uint64_t id = 1; id <= 5; ++id)
        auditor.Enqueue(MakeSample(id, {0.0}, {0}, {0}, 10.0));
    auditor.Flush();
    const auto results = auditor.RecentResults();
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].trace_id, 4u);
    EXPECT_EQ(results[1].trace_id, 5u);
    EXPECT_EQ(auditor.Stats().audited, 5u);  // totals keep counting.
}

TEST(QualityAuditorTest, ShutdownDrainsRejectsAndDeregisters)
{
    auto auditor = std::make_unique<QualityAuditor>(UnitConfig(),
                                                    IdentityHooks());
    EXPECT_EQ(QualityAuditor::Live(), auditor.get());
    for (uint64_t id = 1; id <= 8; ++id)
        auditor->Enqueue(MakeSample(id, {0.0}, {0}, {0}, 10.0));
    auditor->Shutdown();
    // The backlog was audited, not abandoned.
    EXPECT_EQ(auditor->Stats().audited, 8u);
    EXPECT_EQ(QualityAuditor::Live(), nullptr);
    // Post-shutdown submissions drop (and count) instead of crashing.
    EXPECT_FALSE(
        auditor->Enqueue(MakeSample(9, {0.0}, {0}, {0}, 10.0)));
    auditor->Shutdown();  // idempotent.
}

TEST(QualityAuditorTest, ExportJsonlCarriesLabeledElementLines)
{
    QualityAuditor auditor(UnitConfig(), IdentityHooks());
    auditor.Enqueue(MakeSample(11, {20.0, 0.0}, {0, 0}, {0, 0}, 10.0));
    auditor.Flush();
    const std::string body = auditor.ExportJsonl();
    EXPECT_NE(body.find("\"type\":\"meta\""), std::string::npos);
    EXPECT_NE(body.find("\"type\":\"audit\""), std::string::npos);
    EXPECT_NE(body.find("\"trace_id\":11"), std::string::npos);
    EXPECT_NE(body.find("\"fn\":1"), std::string::npos);
    EXPECT_NE(body.find("\"type\":\"audit_element\""),
              std::string::npos);
    EXPECT_NE(body.find("\"needs_fix\":true"), std::string::npos);
    // Inputs land as flat input_<j> keys (array-free JSONL).
    EXPECT_NE(body.find("\"input_0\":"), std::string::npos);
    EXPECT_EQ(body.find("["), std::string::npos);
}

// The TSan target: producers race Flush and Shutdown.
TEST(QualityAuditorTest, ConcurrentEnqueueFlushShutdownIsSafe)
{
    AuditConfig config = UnitConfig();
    config.threads = 2;
    config.queue_capacity = 8;  // force the overflow path too.
    QualityAuditor auditor(config, IdentityHooks());
    std::vector<std::thread> producers;
    for (int t = 0; t < 4; ++t) {
        producers.emplace_back([&auditor, t] {
            for (uint64_t i = 0; i < 64; ++i) {
                AuditSample s = MakeSample(
                    static_cast<uint64_t>(t) * 1000 + i, {1.0},
                    {0}, {0}, 10.0);
                s.forced = (i % 3 == 0);
                auditor.Enqueue(std::move(s));
                auditor.SampleHealthy();
            }
        });
    }
    auditor.Flush();
    for (auto& t : producers)
        t.join();
    auditor.Shutdown();
    const auto stats = auditor.Stats();
    EXPECT_EQ(stats.audited + stats.queue_drops, 4u * 64u);
}

// -------------------------------------------- Engine integration

core::RuntimeConfig
AuditRuntimeConfig()
{
    return core::RuntimeConfig::Builder()
        .WithChecker(core::Scheme::kTree)
        .WithTargetErrorPct(10.0)
        .WithTrainEpochs(30)
        .WithElementCaps(800, 400)
        .Build();
}

const core::Artifact&
AuditArtifact()
{
    static const core::Artifact artifact = [] {
        core::RumbaRuntime trained(apps::MakeBenchmark("inversek2j"),
                                   AuditRuntimeConfig());
        return trained.ExportArtifact();
    }();
    return artifact;
}

serve::InvocationRequest
AuditRequest(size_t start_element, size_t count)
{
    static const std::vector<double> flat = [] {
        const auto bench = apps::MakeBenchmark("inversek2j");
        return core::FlattenBatch(bench->TestInputs());
    }();
    serve::InvocationRequest request;
    request.width = 2;
    request.count = count;
    request.inputs.assign(
        flat.begin() + static_cast<ptrdiff_t>(start_element * 2),
        flat.begin() +
            static_cast<ptrdiff_t>((start_element + count) * 2));
    return request;
}

TEST(EngineAuditTest, ExactReexecutorMatchesBenchmark)
{
    auto exact = core::ExactReexecutor::Create("inversek2j");
    ASSERT_NE(exact, nullptr);
    EXPECT_EQ(exact->InputWidth(), 2u);
    const auto bench = apps::MakeBenchmark("inversek2j");
    const std::vector<double> in =
        core::FlattenBatch(bench->TestInputs());
    std::vector<double> out(exact->OutputWidth(), 0.0);
    exact->RunElement(in.data(), out.data());
    std::vector<double> expected(bench->NumOutputs(), 0.0);
    bench->RunExact(in.data(), expected.data());
    ASSERT_EQ(out.size(), expected.size());
    for (size_t i = 0; i < out.size(); ++i)
        EXPECT_DOUBLE_EQ(out[i], expected[i]);
    // Self-comparison is a zero-error audit.
    EXPECT_DOUBLE_EQ(exact->ElementError(out, out), 0.0);
    EXPECT_EQ(core::ExactReexecutor::Create("no-such-kernel"),
              nullptr);
}

TEST(EngineAuditTest, AuditsEveryRequestAndJoinsTraces)
{
    unsetenv("RUMBA_AUDIT_SAMPLE_N");
    unsetenv("RUMBA_AUDIT_OUT");
    obs::RequestTraceCollector::Default().Clear();

    serve::ServeConfig config;
    config.shards = 1;
    config.queue_capacity = 64;
    config.audit.sample_every = 1;  // audit everything.
    config.audit.queue_capacity = 256;
    auto engine = serve::ShardedEngine::Create(
        AuditArtifact(), AuditRuntimeConfig(), config);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();

    constexpr size_t kRequests = 6;
    constexpr size_t kCount = 16;
    std::vector<std::future<serve::InvocationResult>> futures;
    for (size_t r = 0; r < kRequests; ++r)
        futures.push_back(
            (*engine)->Submit(AuditRequest(r * kCount, kCount)));
    std::set<uint64_t> trace_ids;
    for (auto& f : futures) {
        const auto result = f.get();
        ASSERT_TRUE(result.status.ok());
        trace_ids.insert(result.trace_id);
    }
    (*engine)->Drain();

    obs::QualityAuditor* auditor = (*engine)->Auditor();
    ASSERT_NE(auditor, nullptr);
    auditor->Flush();

    const auto stats = auditor->Stats();
    EXPECT_EQ(stats.audited, kRequests);
    EXPECT_EQ(stats.audited_elements, kRequests * kCount);
    EXPECT_GE(stats.mean_true_error_pct, 0.0);

    // Every audit joins a request trace id handed to the client.
    for (const AuditResult& r : auditor->RecentResults())
        EXPECT_TRUE(trace_ids.count(r.trace_id) > 0)
            << "audit for unknown trace " << r.trace_id;

    // Audited traces are tail-kept and flagged in the collector.
    size_t audited_traces = 0;
    for (const auto& trace :
         obs::RequestTraceCollector::Default().Dump()) {
        if (trace_ids.count(trace.trace_id) > 0 && trace.audited)
            ++audited_traces;
    }
    EXPECT_EQ(audited_traces, kRequests);

    // The /statusz body grows a quality section fed by the auditor.
    const std::string statusz = (*engine)->StatuszJson();
    EXPECT_NE(statusz.find("\"quality\""), std::string::npos);
    EXPECT_NE(statusz.find("\"checker_precision\""),
              std::string::npos);
    EXPECT_NE(statusz.find("\"false_negative_accepts\""),
              std::string::npos);

    (*engine)->Shutdown();
    EXPECT_EQ(obs::QualityAuditor::Live(), nullptr);
}

TEST(EngineAuditTest, AuditDisabledByConfigAndByEnv)
{
    serve::ServeConfig config;
    config.shards = 1;
    config.audit.enabled = false;
    auto engine = serve::ShardedEngine::Create(
        AuditArtifact(), AuditRuntimeConfig(), config);
    ASSERT_TRUE(engine.ok());
    EXPECT_EQ((*engine)->Auditor(), nullptr);
    (*engine)->Shutdown();

    // RUMBA_AUDIT_SAMPLE_N=0 disables even an enabled config.
    setenv("RUMBA_AUDIT_SAMPLE_N", "0", 1);
    serve::ServeConfig enabled;
    enabled.shards = 1;
    auto engine2 = serve::ShardedEngine::Create(
        AuditArtifact(), AuditRuntimeConfig(), enabled);
    ASSERT_TRUE(engine2.ok());
    EXPECT_EQ((*engine2)->Auditor(), nullptr);
    (*engine2)->Shutdown();

    // Garbage warns and keeps the configured rate: it must not read
    // as 0 and switch auditing off.
    setenv("RUMBA_AUDIT_SAMPLE_N", "abc", 1);
    auto engine3 = serve::ShardedEngine::Create(
        AuditArtifact(), AuditRuntimeConfig(), enabled);
    ASSERT_TRUE(engine3.ok());
    EXPECT_NE((*engine3)->Auditor(), nullptr);
    (*engine3)->Shutdown();
    unsetenv("RUMBA_AUDIT_SAMPLE_N");
}

TEST(EngineAuditTest, SampleNParserAcceptsOnlyPlainDigits)
{
    using Parsed = std::optional<size_t>;
    EXPECT_EQ(serve::ParseAuditSampleN(nullptr), Parsed());
    EXPECT_EQ(serve::ParseAuditSampleN(""), Parsed());
    EXPECT_EQ(serve::ParseAuditSampleN("0"), Parsed(0));
    EXPECT_EQ(serve::ParseAuditSampleN("16"), Parsed(16));
    for (const char* garbage :
         {"abc", "-1", "+4", " 4", "4x", "1e3", "99999999999999999999999"})
        EXPECT_EQ(serve::ParseAuditSampleN(garbage), Parsed()) << garbage;
}

}  // namespace
}  // namespace rumba
