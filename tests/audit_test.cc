// Tests for the ground-truth quality auditor (src/obs/audit.h): the
// shadow exact re-execution sampler, checker-calibration labeling
// (TP / FP / FN / TN over accelerator-served elements), the audited
// TOQ-violation SLO, queue overflow/drop accounting, the labeled
// JSONL export, and the serving engine's end-to-end wiring
// (sampling, trace joins, /statusz quality section).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <map>
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
#include "digest.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "obs/audit.h"
#include "obs/metrics.h"
#include "obs/reqtrace.h"
#include "serve/engine.h"

namespace rumba {
namespace {

using obs::AuditConfig;
using obs::AuditHooks;
using obs::AuditOffer;
using obs::AuditResult;
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

/** The buffers one served request leaves behind; Offer() views them
 *  through an AuditOffer. */
struct Served {
    uint64_t trace_id = 0;
    uint32_t shard = 0;
    double threshold = 0.0;
    uint32_t breaker_state = 0;
    uint32_t degrade = 0;
    bool fault = false;
    std::vector<double> inputs;
    std::vector<double> served_outputs;
    std::vector<double> approx_outputs;
    std::vector<double> predicted_error;
    std::vector<char> fired;
    std::vector<char> fixed;
    std::vector<char> exact_path;

    AuditOffer
    Offer() const
    {
        AuditOffer offer;
        offer.trace_id = trace_id;
        offer.shard = shard;
        offer.count = inputs.size();
        offer.in_width = 1;
        offer.out_width = 1;
        offer.inputs = inputs;
        offer.served_outputs = served_outputs;
        offer.approx_outputs = approx_outputs;
        offer.predicted_error = predicted_error;
        offer.fired = fired;
        offer.fixed = fixed;
        offer.exact_path = exact_path;
        offer.threshold_used = threshold;
        offer.breaker_state = breaker_state;
        offer.degrade = degrade;
        offer.fault = fault;
        return offer;
    }
};

/** A request whose per-element approximate error is
 *  approx_errors[i]; served output equals the exact value for fixed
 *  elements and the approximate one otherwise (what the runtime's
 *  merge step produces). */
Served
MakeServed(uint64_t trace_id, const std::vector<double>& approx_errors,
           const std::vector<char>& fired, const std::vector<char>& fixed,
           double threshold)
{
    const size_t n = approx_errors.size();
    Served s;
    s.trace_id = trace_id;
    s.threshold = threshold;
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

/** One accepted element, no fix: a healthy request. */
Served
Healthy(uint64_t trace_id)
{
    return MakeServed(trace_id, {0.0}, {0}, {0}, 10.0);
}

/** One element the checker fired on and recovery re-executed. */
Served
Recovered(uint64_t trace_id)
{
    return MakeServed(trace_id, {20.0}, {1}, {1}, 10.0);
}

/** Trace id -> forced reason of every completed audit. */
std::map<uint64_t, std::string>
Reasons(const QualityAuditor& auditor)
{
    std::map<uint64_t, std::string> reasons;
    for (const AuditResult& r : auditor.RecentResults())
        reasons[r.trace_id] = r.forced_reason;
    return reasons;
}

// ------------------------------------------------------ Unit: policy

TEST(QualityAuditorTest, HealthyRequestsAreSampledOneInN)
{
    AuditConfig config = UnitConfig();
    config.sample_every = 4;
    QualityAuditor auditor(config, IdentityHooks());
    int taken = 0;
    for (uint64_t id = 0; id < 8; ++id)
        taken += auditor.Offer(Healthy(id).Offer()) ? 1 : 0;
    EXPECT_EQ(taken, 2);
    auditor.Flush();
    using Map = std::map<uint64_t, std::string>;
    EXPECT_EQ(Reasons(auditor), (Map{{0, "sampled"}, {4, "sampled"}}));
    EXPECT_EQ(auditor.Stats().forced, 0u);
}

TEST(QualityAuditorTest, SampleEveryZeroMeansForcedOnly)
{
    AuditConfig config = UnitConfig();
    config.sample_every = 0;
    QualityAuditor auditor(config, IdentityHooks());
    for (uint64_t id = 0; id < 16; ++id)
        EXPECT_FALSE(auditor.Offer(Healthy(id).Offer()));
    Served fault = Healthy(16);
    fault.fault = true;
    EXPECT_TRUE(auditor.Offer(fault.Offer()));
    EXPECT_EQ(auditor.Stats().enqueued, 1u);
}

TEST(QualityAuditorTest, ForcedRecoveredRidesItsOwnOneInMGate)
{
    AuditConfig config = UnitConfig();
    config.sample_every = 0;
    QualityAuditor auditor(config, IdentityHooks());
    int taken = 0;
    for (uint64_t id = 0; id < 8; ++id)
        taken += auditor.Offer(Recovered(id).Offer()) ? 1 : 0;
    EXPECT_EQ(taken, 2);
    auditor.Flush();
    using Map = std::map<uint64_t, std::string>;
    EXPECT_EQ(Reasons(auditor),
              (Map{{0, "recovered"}, {4, "recovered"}}));  // 0 and 4.

    // The two gates draw from independent streams: a request the
    // forced gate takes never consumes a healthy-sampler slot, and
    // the ones it loses still enter the healthy 1-in-N draw.
    AuditConfig halves = UnitConfig();
    halves.sample_every = 2;
    QualityAuditor mixed(halves, IdentityHooks());
    for (uint64_t id = 0; id < 8; ++id)
        mixed.Offer(Recovered(id).Offer());
    mixed.Flush();
    EXPECT_EQ(Reasons(mixed), (Map{{0, "recovered"},
                                   {1, "sampled"},
                                   {3, "sampled"},
                                   {4, "recovered"},
                                   {6, "sampled"}}));
}

TEST(QualityAuditorTest, PolicyForcesInItsOrder)
{
    AuditConfig config = UnitConfig();
    config.sample_every = 1000;
    QualityAuditor auditor(config, IdentityHooks());

    Served degraded = Recovered(1);  // degraded wins over all else.
    degraded.degrade = 2;
    degraded.breaker_state = 1;
    degraded.fault = true;
    Served gate_wins = Recovered(2);  // the gate's first candidate.
    gate_wins.breaker_state = 1;
    Served gate_loses = Recovered(3);  // falls through to the breaker.
    gate_loses.breaker_state = 1;
    Served exact_tail = Healthy(4);
    exact_tail.exact_path[0] = 1;
    Served fault = Healthy(5);
    fault.fault = true;
    Served recovered_fault = Recovered(6);  // loses the gate.
    recovered_fault.fault = true;
    for (const Served* s : {&degraded, &gate_wins, &gate_loses,
                            &exact_tail, &fault, &recovered_fault})
        EXPECT_TRUE(auditor.Offer(s->Offer())) << s->trace_id;
    // The healthy gate only now sees its first request.
    EXPECT_TRUE(auditor.Offer(Healthy(7).Offer()));
    EXPECT_FALSE(auditor.Offer(Healthy(8).Offer()));
    auditor.Flush();

    using Map = std::map<uint64_t, std::string>;
    EXPECT_EQ(Reasons(auditor), (Map{{1, "degraded"},
                                     {2, "recovered"},
                                     {3, "breaker"},
                                     {4, "breaker"},
                                     {5, "fault"},
                                     {6, "fault"},
                                     {7, "sampled"}}));
    EXPECT_EQ(auditor.Stats().forced, 6u);
}

TEST(QualityAuditorTest, ElementBudgetStridesLargeInvocations)
{
    QualityAuditor auditor(UnitConfig(), IdentityHooks());

    // 300 elements, budget 128 -> stride 3 -> indices 0, 3, ..., 297.
    std::vector<double> errors(300, 0.0);
    errors[3] = 20.0;
    const Served s = MakeServed(31, errors, std::vector<char>(300, 0),
                                std::vector<char>(300, 0), 10.0);
    ASSERT_TRUE(auditor.Offer(s.Offer()));
    auditor.Flush();

    const auto results = auditor.RecentResults();
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].elements, 300u);
    EXPECT_EQ(results[0].audited_elements, 100u);
    ASSERT_EQ(results[0].labeled.size(), 100u);
    EXPECT_EQ(results[0].labeled[0].index, 0u);
    EXPECT_EQ(results[0].labeled[1].index, 3u);
    EXPECT_EQ(results[0].labeled[99].index, 297u);
    // The audited subset still carries ground truth: index 3 is the
    // one false-negative accept, and the subset mean is 20/100.
    EXPECT_EQ(results[0].false_negatives, 1u);
    EXPECT_NEAR(results[0].true_error_pct, 20.0 / 100.0, 1e-9);
    EXPECT_EQ(auditor.Stats().audited_elements, 100u);

    // The export indexes elements by their original position.
    const std::string body = auditor.ExportJsonl();
    EXPECT_NE(body.find("\"index\":297"), std::string::npos);
    EXPECT_NE(body.find("\"audited_elements\":100"), std::string::npos);
}

TEST(QualityAuditorTest, AThousandElementOfferQueuesExactly128)
{
    // Hold the audit pool inside its first re-execution so the
    // queued sample outlives the offer's buffers.
    auto entered = std::make_shared<std::promise<void>>();
    auto gate = std::make_shared<std::promise<void>>();
    std::shared_future<void> gate_future = gate->get_future().share();
    std::atomic<int> exact_runs{0};
    AuditHooks hooks = IdentityHooks();
    hooks.run_exact = [entered, gate_future, &exact_runs](
                          const double* in, double* out) {
        if (exact_runs.fetch_add(1) == 0) {
            entered->set_value();
            gate_future.wait();
        }
        out[0] = in[0];
    };
    QualityAuditor auditor(UnitConfig(), hooks);

    std::vector<double> errors(1024, 0.0);
    for (size_t i = 0; i < errors.size(); ++i)
        errors[i] = static_cast<double>(i % 5);
    Served s = MakeServed(41, errors, std::vector<char>(1024, 0),
                          std::vector<char>(1024, 0), 10.0);
    ASSERT_TRUE(auditor.Offer(s.Offer()));
    entered->get_future().wait();
    // The request's buffers are gone; the audit must not notice.
    for (std::vector<double>* v :
         {&s.inputs, &s.served_outputs, &s.approx_outputs,
          &s.predicted_error})
        std::fill(v->begin(), v->end(), std::nan(""));
    gate->set_value();
    auditor.Flush();

    EXPECT_EQ(exact_runs.load(), 128);
    const auto results = auditor.RecentResults();
    ASSERT_EQ(results.size(), 1u);
    const AuditResult& r = results[0];
    EXPECT_EQ(r.elements, 1024u);
    EXPECT_EQ(r.audited_elements, 128u);
    ASSERT_EQ(r.labeled.size(), 128u);
    for (size_t k = 0; k < r.labeled.size(); ++k) {
        const size_t i = 8 * k;
        EXPECT_EQ(r.labeled[k].index, i);
        ASSERT_EQ(r.labeled[k].inputs.size(), 1u);
        EXPECT_DOUBLE_EQ(r.labeled[k].inputs[0], i + 1.0);
        EXPECT_DOUBLE_EQ(r.labeled[k].served_error, errors[i]);
        EXPECT_DOUBLE_EQ(r.labeled[k].approx_error, errors[i]);
    }
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
    Served s = MakeServed(21, {20.0, 0.0, 3.0}, {1, 0, 0}, {1, 0, 0},
                          10.0);
    s.exact_path[1] = 1;
    s.served_outputs[1] = s.inputs[1];
    ASSERT_TRUE(auditor.Offer(s.Offer()));
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
    Served s = MakeServed(11, {0.5, 20.0, 0.0}, {1, 1, 0}, {2, 1, 0},
                          10.0);
    s.shard = 3;
    s.served_outputs[0] = s.inputs[0] + 0.04;
    ASSERT_TRUE(auditor.Offer(s.Offer()));
    auditor.Flush();

    // The compensated element and the accepted one re-execute; the
    // exactly-fixed one is already ground truth.
    EXPECT_EQ(exact_runs.load(), 2);

    const auto results = auditor.RecentResults();
    ASSERT_EQ(results.size(), 1u);
    const AuditResult& r = results[0];
    EXPECT_EQ(r.compensated_elements, 1u);
    EXPECT_EQ(r.fixes, 2u);
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
    const Served s = MakeServed(7, {20.0, 0.0, 20.0, 0.0}, {1, 1, 0, 0},
                                {1, 1, 0, 0}, 10.0);
    ASSERT_TRUE(auditor.Offer(s.Offer()));
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
    Served s = MakeServed(9, {20.0, 0.0}, {0, 0}, {0, 0}, 10.0);
    // Element 1 was served by the breaker's exact tail: its "approx"
    // slot holds the exact output and carries no checker verdict.
    s.exact_path[1] = 1;
    s.approx_outputs[1] = s.inputs[1];
    s.served_outputs[1] = s.inputs[1];
    ASSERT_TRUE(auditor.Offer(s.Offer()));
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
    // Every request's served error is 20 > bound 1: all violations.
    for (uint64_t id = 1; id <= 20; ++id) {
        auditor.Offer(
            MakeServed(id, {20.0}, {0}, {0}, /*threshold=*/100.0)
                .Offer());
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
    ASSERT_TRUE(auditor.Offer(Healthy(1).Offer()));
    entered->get_future().wait();  // worker is inside request 1.
    ASSERT_TRUE(auditor.Offer(Healthy(2).Offer()));
    ASSERT_TRUE(auditor.Offer(Healthy(3).Offer()));
    // Queue full (capacity 2): dropped, counted, never blocks.
    EXPECT_FALSE(auditor.Offer(Healthy(4).Offer()));

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
    ASSERT_TRUE(auditor.Offer(Recovered(5).Offer()));
    auditor.Flush();

    const auto stats = auditor.Stats();
    EXPECT_EQ(stats.forced, 1u);
    EXPECT_EQ(stats.audited, 1u);
    const auto results = auditor.RecentResults();
    ASSERT_EQ(results.size(), 1u);
    EXPECT_TRUE(results[0].forced);
    EXPECT_EQ(results[0].forced_reason, "recovered");
}

TEST(QualityAuditorTest, ResultRingKeepsNewestOldestFirst)
{
    AuditConfig config = UnitConfig();
    config.result_capacity = 2;
    QualityAuditor auditor(config, IdentityHooks());
    for (uint64_t id = 1; id <= 5; ++id)
        auditor.Offer(Healthy(id).Offer());
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
        auditor->Offer(Healthy(id).Offer());
    auditor->Shutdown();
    // The backlog was audited, not abandoned.
    EXPECT_EQ(auditor->Stats().audited, 8u);
    EXPECT_EQ(QualityAuditor::Live(), nullptr);
    // Post-shutdown offers drop (and count) instead of crashing.
    EXPECT_FALSE(auditor->Offer(Healthy(9).Offer()));
    EXPECT_EQ(auditor->Stats().queue_drops, 1u);
    auditor->Shutdown();  // idempotent.
}

TEST(QualityAuditorTest, ExportJsonlCarriesLabeledElementLines)
{
    QualityAuditor auditor(UnitConfig(), IdentityHooks());
    auditor.Offer(
        MakeServed(11, {20.0, 0.0}, {0, 0}, {0, 0}, 10.0).Offer());
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
TEST(QualityAuditorTest, ConcurrentOfferFlushShutdownIsSafe)
{
    AuditConfig config = UnitConfig();
    config.threads = 2;
    config.queue_capacity = 8;  // force the overflow path too.
    QualityAuditor auditor(config, IdentityHooks());
    std::vector<std::thread> producers;
    for (int t = 0; t < 4; ++t) {
        producers.emplace_back([&auditor, t] {
            for (uint64_t i = 0; i < 64; ++i) {
                Served s = MakeServed(
                    static_cast<uint64_t>(t) * 1000 + i, {1.0}, {0},
                    {0}, 10.0);
                s.fault = (i % 3 == 0);
                auditor.Offer(s.Offer());
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

// ------------------------------------------ Pinned audit behaviour

/** inversek2j with the compensate tier live. The audit pool feeds
 *  measured residuals back into the compensate/re-execute boundary
 *  from its own thread; pinning the boundary's multiple keeps the
 *  served stream independent of when audits complete. A small
 *  recovery queue lets the stall fault drop entries. */
core::RuntimeConfig
PinRuntimeConfig()
{
    core::RuntimeConfig config = core::RuntimeConfig::Builder()
                                     .WithChecker(core::Scheme::kTree)
                                     .WithTargetErrorPct(10.0)
                                     .WithTrainEpochs(30)
                                     .WithElementCaps(800, 400)
                                     .WithCompensation()
                                     .Build();
    config.recovery_policy.min_multiple =
        config.recovery_policy.reexec_multiple;
    config.recovery_policy.max_multiple =
        config.recovery_policy.reexec_multiple;
    config.recovery_queue_capacity = 16;
    return config;
}

const core::Artifact&
PinArtifact()
{
    static const core::Artifact artifact = [] {
        core::RumbaRuntime trained(apps::MakeBenchmark("inversek2j"),
                                   PinRuntimeConfig());
        return trained.ExportArtifact();
    }();
    return artifact;
}

/** Appends @p value's bytes to a digest buffer. */
template <typename T>
void
Put(std::string* out, const T& value)
{
    out->append(reinterpret_cast<const char*>(&value), sizeof(value));
}

void
Put(std::string* out, const std::string& value)
{
    Put(out, value.size());
    out->append(value);
}

/** @p body with every "trace_id":N rewritten to N - @p base, so the
 *  digest does not depend on how many requests ran before. */
std::string
RebaseTraceIds(const std::string& body, uint64_t base)
{
    const std::string key = "\"trace_id\":";
    std::string out;
    size_t at = 0;
    for (size_t hit; (hit = body.find(key, at)) != std::string::npos;) {
        hit += key.size();
        out.append(body, at, hit - at);
        char* end = nullptr;
        const uint64_t id = std::strtoull(body.c_str() + hit, &end, 10);
        out += std::to_string(id - base);
        at = static_cast<size_t>(end - body.c_str());
    }
    out.append(body, at, std::string::npos);
    return out;
}

// One seeded request stream through a one-shard engine, served one
// request at a time except where admission needs a queue backlog.
// It covers healthy 1-in-N sampling, the recovered 1-in-4 gate,
// invocations strided down to 128 audited elements, every degrade
// rung, the breaker's exact tail, and non-finite outputs and queue
// drops under a fault plan. The digests pin every audit result with
// its labels, the audit.* counter deltas, each request record's
// audited flag, and the RUMBA_AUDIT_OUT body, as recorded from a
// known-good build: a change to which requests or elements are
// audited, or to what an audit computes, shows here.
TEST(EngineAuditTest, AuditStreamMatchesPinnedDigests)
{
    unsetenv("RUMBA_AUDIT_SAMPLE_N");
    unsetenv("RUMBA_AUDIT_OUT");
    const std::string audit_out =
        ::testing::TempDir() + "audit_pin.jsonl";
    std::remove(audit_out.c_str());

    serve::ServeConfig config;
    config.shards = 1;
    config.queue_capacity = 20;
    // Latency burn is wall-clock; it must not steer admission here.
    config.slo.enabled = false;
    config.forensics.enabled = false;
    config.flight.capacity = 1024;
    config.flight.dump_dir = ::testing::TempDir();
    config.audit.sample_every = 4;
    config.audit.queue_capacity = 1024;  // never drops.
    config.audit.result_capacity = 1024;

    const std::vector<std::string> counter_names = {
        "audit.enqueued",
        "audit.forced",
        "audit.queue_drops",
        "audit.samples",
        "audit.audited_elements",
        "audit.true_toq_violations",
        "audit.true_positive_fires",
        "audit.false_positive_recoveries",
        "audit.false_negative_accepts",
        "audit.true_negative_accepts",
        "audit.compensated_elements",
    };
    auto& registry = obs::Registry::Default();
    std::vector<uint64_t> before;
    for (const std::string& name : counter_names)
        before.push_back(registry.GetCounter(name)->Value());

    auto created = serve::ShardedEngine::Create(
        PinArtifact(), PinRuntimeConfig(), config);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    serve::ShardedEngine& engine = **created;

    size_t cursor = 0;
    auto request = [&](size_t count, serve::QualityClass quality) {
        if (cursor + count > 10000)
            cursor = 0;
        serve::InvocationRequest r = AuditRequest(cursor, count);
        cursor += count;
        r.quality = quality;
        return r;
    };
    std::vector<serve::InvocationResult> served;
    uint64_t base = 0;
    auto collect = [&](std::vector<std::future<serve::InvocationResult>>*
                           futures) {
        for (auto& f : *futures) {
            serve::InvocationResult result = f.get();
            if (base == 0)
                base = result.trace_id;
            if (result.status.ok())
                served.push_back(std::move(result));
        }
        futures->clear();
    };
    std::vector<std::future<serve::InvocationResult>> futures;
    auto serve_one = [&](size_t count) {
        futures.push_back(
            engine.Submit(request(count, serve::QualityClass::kGold)));
        collect(&futures);
    };

    // Healthy, recovered and large requests at full service.
    const size_t sizes[] = {1, 3, 2, 5, 4, 24, 1, 2, 300, 1,
                            48, 3, 1024, 2, 1, 7, 129, 6};
    for (int round = 0; round < 2; ++round)
        for (const size_t count : sizes)
            serve_one(count);

    // The degrade rungs. Closed until the paused queue is 3/4 full,
    // shedding from there, emergency at 19/20 (gold loses exact
    // re-execution); the 21st submission meets a full queue.
    engine.Pause();
    for (int r = 0; r < 21; ++r)
        futures.push_back(engine.Submit(request(
            r % 2 == 0 ? 8 : 150, serve::QualityClass::kGold)));
    engine.Resume();
    collect(&futures);
    // Emergency holds for 16 calm observations: bypass, degrade and
    // compensate-only, then shedding's compensate-only and shed.
    engine.Pause();
    const serve::QualityClass emergency_mix[] = {
        serve::QualityClass::kBestEffort, serve::QualityClass::kSilver,
        serve::QualityClass::kGold};
    for (const serve::QualityClass quality : emergency_mix)
        futures.push_back(engine.Submit(request(150, quality)));
    for (int r = 0; r < 13; ++r)
        futures.push_back(
            engine.Submit(request(8, serve::QualityClass::kGold)));
    futures.push_back(
        engine.Submit(request(150, serve::QualityClass::kSilver)));
    futures.push_back(
        engine.Submit(request(8, serve::QualityClass::kBestEffort)));
    engine.Resume();
    collect(&futures);
    // Shedding with a shallow queue: best-effort degrades.
    engine.Pause();
    futures.push_back(
        engine.Submit(request(150, serve::QualityClass::kBestEffort)));
    futures.push_back(
        engine.Submit(request(150, serve::QualityClass::kSilver)));
    engine.Resume();
    collect(&futures);

    // Faults: NaN outputs trip the breaker into its exact tail, and
    // a stalled drain drops recovery-queue entries.
    {
        fault::FaultPlan plan;
        std::string error;
        ASSERT_TRUE(fault::FaultPlan::Parse(
            "seed=23;npu.output_nan=0.01;queue.stall=0.5", &plan,
            &error))
            << error;
        fault::FaultInjector::Default().Arm(plan);
        const size_t fault_sizes[] = {16, 64, 8, 200, 32, 4, 1024, 100,
                                      2, 48, 12, 300};
        for (int round = 0; round < 3; ++round)
            for (const size_t count : fault_sizes)
                serve_one(count);
        fault::FaultInjector::Default().Disarm();
    }
    for (const size_t count : sizes)
        serve_one(count);

    engine.Drain();
    obs::QualityAuditor* auditor = engine.Auditor();
    ASSERT_NE(auditor, nullptr);
    auditor->Flush();

    // The stream reaches every path the policy distinguishes.
    std::set<core::DegradeMode> rungs;
    bool non_finite = false, queue_drops = false;
    for (const serve::InvocationResult& result : served) {
        rungs.insert(result.report.degrade);
        non_finite |= result.report.non_finite_outputs > 0;
        queue_drops |= result.report.queue_drops > 0;
    }
    EXPECT_EQ(rungs.size(), 4u);
    EXPECT_TRUE(non_finite);
    EXPECT_TRUE(queue_drops);

    std::vector<AuditResult> results = auditor->RecentResults();
    std::sort(results.begin(), results.end(),
              [](const AuditResult& a, const AuditResult& b) {
                  return a.trace_id < b.trace_id;
              });
    std::set<std::string> reasons;
    bool strided = false, exact_tail = false, compensated = false;
    std::string bytes;
    for (const AuditResult& r : results) {
        reasons.insert(r.forced_reason);
        strided |= r.elements > 128 && r.audited_elements <= 128;
        Put(&bytes, r.trace_id - base);
        Put(&bytes, r.shard);
        Put(&bytes, r.forced);
        Put(&bytes, r.forced_reason);
        Put(&bytes, r.elements);
        Put(&bytes, r.audited_elements);
        Put(&bytes, r.threshold_used);
        Put(&bytes, r.estimated_error_pct);
        Put(&bytes, r.reported_error_pct);
        Put(&bytes, r.true_error_pct);
        Put(&bytes, r.toq_violation);
        Put(&bytes, r.toq_bound_pct);
        Put(&bytes, r.true_positives);
        Put(&bytes, r.false_positives);
        Put(&bytes, r.false_negatives);
        Put(&bytes, r.true_negatives);
        Put(&bytes, r.breaker_state);
        Put(&bytes, r.fixes);
        Put(&bytes, r.compensated_elements);
        Put(&bytes, r.mean_compensated_residual_pct);
        for (const obs::AuditedElement& el : r.labeled) {
            exact_tail |= el.exact_path;
            compensated |= el.compensated;
            Put(&bytes, el.index);
            for (const double v : el.inputs)
                Put(&bytes, v);
            Put(&bytes, el.predicted_error);
            Put(&bytes, el.approx_error);
            Put(&bytes, el.served_error);
            Put(&bytes, el.fired);
            Put(&bytes, el.fixed);
            Put(&bytes, el.compensated);
            Put(&bytes, el.exact_path);
            Put(&bytes, el.needs_fix);
        }
    }
    EXPECT_EQ(reasons, (std::set<std::string>{"breaker", "degraded",
                                              "fault", "recovered",
                                              "sampled"}));
    EXPECT_TRUE(strided);
    EXPECT_TRUE(exact_tail);
    EXPECT_TRUE(compensated);
    const uint64_t results_digest = testutil::Fnv1a64(bytes);

    bytes.clear();
    for (size_t i = 0; i < counter_names.size(); ++i)
        Put(&bytes, registry.GetCounter(counter_names[i])->Value() -
                        before[i]);
    const uint64_t counters_digest = testutil::Fnv1a64(bytes);

    std::vector<obs::RequestTrace> records = engine.Flight(0).Dump();
    std::sort(records.begin(), records.end(),
              [](const obs::RequestTrace& a, const obs::RequestTrace& b) {
                  return a.trace_id < b.trace_id;
              });
    bytes.clear();
    size_t audited = 0;
    for (const obs::RequestTrace& record : records) {
        audited += record.audited ? 1 : 0;
        Put(&bytes, record.trace_id - base);
        Put(&bytes, record.outcome);
        Put(&bytes, record.audited);
    }
    EXPECT_GT(audited, 0u);
    EXPECT_LT(audited, records.size());
    const uint64_t flags_digest = testutil::Fnv1a64(bytes);

    setenv("RUMBA_AUDIT_OUT", audit_out.c_str(), 1);
    engine.Shutdown();
    unsetenv("RUMBA_AUDIT_OUT");
    std::ifstream in(audit_out);
    std::string meta;
    ASSERT_TRUE(std::getline(in, meta));
    EXPECT_EQ(meta.find("{\"type\":\"meta\""), 0u);
    const std::string body((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    std::remove(audit_out.c_str());
    const uint64_t body_digest =
        testutil::Fnv1a64(RebaseTraceIds(body, base));

    EXPECT_EQ(results_digest, 0xc026fe1af0648cd8ull)
        << std::hex << "results 0x" << results_digest;
    EXPECT_EQ(counters_digest, 0x1353e56a82566947ull)
        << std::hex << "counters 0x" << counters_digest;
    EXPECT_EQ(flags_digest, 0xe49022ebb6d97e67ull)
        << std::hex << "audited flags 0x" << flags_digest;
    EXPECT_EQ(body_digest, 0xe1f613881b7dcd20ull)
        << std::hex << "RUMBA_AUDIT_OUT body 0x" << body_digest;
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
