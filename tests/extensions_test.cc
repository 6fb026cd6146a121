// Tests for the extension features (hybrid checker, runtime threshold
// calibration) and parameterized property sweeps across formats, PE
// counts, tuner modes and predictor schemes.

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>

#include "common/dataset.h"
#include "common/random.h"
#include "core/batch_view.h"
#include "core/overlap_sim.h"
#include "core/pipeline.h"
#include "core/runtime.h"
#include "core/schemes.h"
#include "npu/fixed_point.h"
#include "npu/schedule.h"
#include "obs/span.h"
#include "predict/ema.h"
#include "predict/hybrid.h"
#include "predict/linear.h"
#include "predict/tree.h"

namespace rumba {
namespace {

/** Flatten rows [lo, hi) of @p inputs and run them through the
 *  BatchView hot path; @p outputs is sized to the merged result. */
core::InvocationReport
Invoke(core::RumbaRuntime& runtime,
       const std::vector<std::vector<double>>& inputs, size_t lo,
       size_t hi, std::vector<double>* outputs)
{
    const std::vector<std::vector<double>> rows(
        inputs.begin() + static_cast<ptrdiff_t>(lo),
        inputs.begin() + static_cast<ptrdiff_t>(hi));
    const std::vector<double> flat = core::FlattenBatch(rows);
    outputs->resize((hi - lo) * runtime.Bench().NumOutputs());
    return runtime.ProcessInvocation(
        core::BatchView(flat.data(), hi - lo,
                        runtime.Bench().NumInputs()),
        outputs->data());
}

// ------------------------------------------------------ HybridPredictor

/** inputs -> scalar error dataset for a generator function. */
template <typename Fn>
Dataset
MakeErrorData(size_t n, size_t dims, uint64_t seed, Fn&& fn)
{
    Rng rng(seed);
    Dataset d(dims, 1);
    for (size_t i = 0; i < n; ++i) {
        std::vector<double> x(dims);
        for (auto& v : x)
            v = rng.Uniform();
        d.Add(x, {fn(x)});
    }
    return d;
}

TEST(HybridPredictorTest, PicksTreeForStepTarget)
{
    const auto fn = [](const std::vector<double>& x) {
        return x[0] < 0.4 ? 0.8 : 0.05;
    };
    predict::HybridErrorPredictor hybrid;
    hybrid.Train(MakeErrorData(2000, 1, 3, fn));
    EXPECT_EQ(hybrid.SelectedName(), "treeErrors");
    EXPECT_NEAR(hybrid.PredictError({0.1}, {}), 0.8, 0.1);
}

TEST(HybridPredictorTest, PicksLinearForLinearTarget)
{
    // A clean linear trend: the linear model fits it exactly while a
    // depth-7 tree staircases it.
    const auto fn = [](const std::vector<double>& x) {
        return 0.1 + 0.7 * x[0];
    };
    predict::HybridErrorPredictor hybrid;
    hybrid.Train(MakeErrorData(2000, 1, 5, fn));
    EXPECT_EQ(hybrid.SelectedName(), "linearErrors");
}

TEST(HybridPredictorTest, NeverWorseThanBothCandidates)
{
    const auto fn = [](const std::vector<double>& x) {
        return 0.2 * x[0] + (x[1] < 0.5 ? 0.3 : 0.0);
    };
    const Dataset train = MakeErrorData(3000, 2, 7, fn);
    const Dataset test = MakeErrorData(500, 2, 11, fn);

    predict::HybridErrorPredictor hybrid;
    predict::LinearErrorPredictor linear;
    predict::TreeErrorPredictor tree;
    hybrid.Train(train);
    linear.Train(train);
    tree.Train(train);

    auto mae = [&test](predict::ErrorPredictor* p) {
        double total = 0.0;
        for (size_t s = 0; s < test.Size(); ++s)
            total += std::fabs(p->PredictError(test.Input(s), {}) -
                               test.Target(s)[0]);
        return total / static_cast<double>(test.Size());
    };
    const double best = std::min(mae(&linear), mae(&tree));
    EXPECT_LE(mae(&hybrid), best * 1.2);  // validation-noise margin.
}

TEST(HybridPredictorTest, CostMatchesSelection)
{
    const auto fn = [](const std::vector<double>& x) {
        return x[0] < 0.4 ? 0.8 : 0.05;
    };
    predict::HybridErrorPredictor hybrid;
    hybrid.Train(MakeErrorData(1000, 1, 13, fn));
    // Tree selected: the cost must be comparison-based (no MACs).
    EXPECT_DOUBLE_EQ(hybrid.CostPerCheck().macs, 0.0);
    EXPECT_GT(hybrid.CostPerCheck().compares, 0.0);
}

TEST(HybridPredictorTest, ReportsCandidateScores)
{
    predict::HybridErrorPredictor hybrid;
    hybrid.Train(MakeErrorData(500, 1, 17, [](const auto& x) {
        return x[0];
    }));
    ASSERT_EQ(hybrid.CandidateScores().size(), 2u);
    for (const auto& [name, mae] : hybrid.CandidateScores()) {
        EXPECT_FALSE(name.empty());
        EXPECT_GE(mae, 0.0);
    }
}

TEST(HybridPredictorTest, UntrainedPredictPanics)
{
    predict::HybridErrorPredictor hybrid;
    EXPECT_DEATH(hybrid.PredictError({0.5}, {}), "check failed");
}

// ------------------------------------------------------ Scheme plumbing

TEST(ExtendedSchemesTest, HybridAppended)
{
    const auto schemes = core::ExtendedSchemes();
    EXPECT_EQ(schemes.size(), 7u);
    EXPECT_EQ(schemes.back(), core::Scheme::kHybrid);
    EXPECT_STREQ(core::SchemeName(core::Scheme::kHybrid),
                 "hybridErrors");
    EXPECT_TRUE(core::IsPredictorScheme(core::Scheme::kHybrid));
}

TEST(ExtendedSchemesTest, PipelineBuildsHybrid)
{
    EXPECT_EQ(core::Pipeline::MakePredictor(core::Scheme::kHybrid)
                  ->Name(),
              "hybridErrors");
}

// ------------------------------------------------ Runtime calibration

TEST(RuntimeCalibrationTest, AutoThresholdLandsNearTarget)
{
    core::RuntimeConfig cfg;
    cfg.pipeline.train_epochs = 30;
    cfg.pipeline.max_train_elements = 1000;
    cfg.pipeline.max_test_elements = 600;
    cfg.checker = core::Scheme::kTree;
    cfg.tuner.mode = core::TuningMode::kToq;
    cfg.tuner.target_error_pct = 10.0;
    cfg.initial_threshold = 0.0;  // auto-calibrate.
    core::RumbaRuntime runtime(apps::MakeBenchmark("inversek2j"), cfg);

    EXPECT_GT(runtime.Threshold(), cfg.tuner.min_threshold);

    const auto inputs = runtime.Bench().TestInputs();
    std::vector<double> outputs;
    const auto report = Invoke(runtime, inputs, 0, 600, &outputs);
    // First invocation already in the target's neighborhood (train ->
    // test generalization slack).
    EXPECT_LT(report.output_error_pct, 16.0);
    EXPECT_GT(report.fixes, 0u);
    EXPECT_LT(report.fixes, 600u);
}

TEST(RuntimeCalibrationTest, LooseTargetMeansFewFixes)
{
    core::RuntimeConfig cfg;
    cfg.pipeline.train_epochs = 30;
    cfg.pipeline.max_train_elements = 800;
    cfg.pipeline.max_test_elements = 400;
    cfg.checker = core::Scheme::kTree;
    cfg.tuner.target_error_pct = 90.0;  // nearly anything goes.
    cfg.initial_threshold = 0.0;
    core::RumbaRuntime runtime(apps::MakeBenchmark("fft"), cfg);
    const auto inputs = runtime.Bench().TestInputs();
    std::vector<double> outputs;
    const auto report = Invoke(runtime, inputs, 0, 400, &outputs);
    EXPECT_LT(report.fixes, 40u);
}

TEST(RuntimeCalibrationTest, HybridCheckerWorksOnline)
{
    core::RuntimeConfig cfg;
    cfg.pipeline.train_epochs = 30;
    cfg.pipeline.max_train_elements = 800;
    cfg.pipeline.max_test_elements = 400;
    cfg.checker = core::Scheme::kHybrid;
    cfg.tuner.target_error_pct = 10.0;
    cfg.initial_threshold = 0.0;
    core::RumbaRuntime runtime(apps::MakeBenchmark("inversek2j"), cfg);
    const auto inputs = runtime.Bench().TestInputs();
    std::vector<double> outputs;
    const auto report = Invoke(runtime, inputs, 0, 400, &outputs);
    EXPECT_EQ(outputs.size(), 400u * runtime.Bench().NumOutputs());
    EXPECT_LT(report.output_error_pct, 20.0);
}

// -------------------------------------------------------- TieredRecovery

TEST(TieredRecoveryTest, CompensationSplitsTheFixSet)
{
    core::RuntimeConfig cfg;
    cfg.pipeline.train_epochs = 30;
    cfg.pipeline.max_train_elements = 800;
    cfg.pipeline.max_test_elements = 400;
    cfg.checker = core::Scheme::kTree;
    cfg.tuner.target_error_pct = 10.0;
    cfg.initial_threshold = 0.05;
    cfg.recovery_queue_capacity = 512;

    core::RuntimeConfig tiered_cfg = cfg;
    tiered_cfg.recovery_policy.compensation = true;

    core::RumbaRuntime baseline(apps::MakeBenchmark("inversek2j"),
                                cfg);
    core::RumbaRuntime tiered(apps::MakeBenchmark("inversek2j"),
                              tiered_cfg);
    EXPECT_FALSE(baseline.HasCompensator());
    ASSERT_TRUE(tiered.HasCompensator());

    const auto inputs = tiered.Bench().TestInputs();
    std::vector<double> out_base, out_tiered;
    const auto report_base = Invoke(baseline, inputs, 0, 400,
                                    &out_base);
    const auto report = Invoke(tiered, inputs, 0, 400, &out_tiered);

    // Tier counts partition the batch.
    EXPECT_EQ(report.tier_accepted + report.tier_compensated +
                  report.tier_reexecuted,
              report.elements);
    EXPECT_EQ(report.fixes,
              report.tier_compensated + report.tier_reexecuted);
    // Same checker + threshold fires the same set; the policy splits
    // it so strictly fewer elements pay for exact re-execution.
    EXPECT_EQ(report.fixes, report_base.fixes);
    EXPECT_GT(report.tier_compensated, 0u);
    EXPECT_LT(report.tier_reexecuted, report_base.tier_reexecuted);
    EXPECT_EQ(tiered.TotalCompensations(), report.tier_compensated);
    // Compensation is a model, not magic — but quality must stay in
    // the target's neighborhood, not collapse.
    EXPECT_LT(report.output_error_pct, 25.0);
    for (double v : out_tiered)
        EXPECT_TRUE(std::isfinite(v));

    // The baseline (compensation off) never compensates: the paper's
    // two-tier behaviour is preserved bit-for-bit.
    EXPECT_EQ(report_base.tier_compensated, 0u);
    EXPECT_EQ(baseline.TotalCompensations(), 0u);
}

TEST(TieredRecoveryTest, VerifyPassTunesTheMultipleOnline)
{
    core::RuntimeConfig cfg;
    cfg.pipeline.train_epochs = 30;
    cfg.pipeline.max_train_elements = 800;
    cfg.pipeline.max_test_elements = 400;
    cfg.checker = core::Scheme::kTree;
    cfg.tuner.target_error_pct = 10.0;
    cfg.initial_threshold = 0.05;
    cfg.recovery_queue_capacity = 512;
    cfg.recovery_policy.compensation = true;

    core::RumbaRuntime runtime(apps::MakeBenchmark("inversek2j"),
                               cfg);
    const double initial_multiple = runtime.Policy().Multiple();
    const auto inputs = runtime.Bench().TestInputs();
    std::vector<double> outputs;
    size_t compensated = 0;
    for (size_t round = 0; round < 8; ++round) {
        const auto report =
            Invoke(runtime, inputs, 0, inputs.size(), &outputs);
        compensated += report.tier_compensated;
    }
    ASSERT_GT(compensated, 0u);
    // The verify pass measured the compensated elements' true
    // residual every round; the policy acted on that ground truth.
    EXPECT_GT(runtime.Policy().Adjustments(), 0u);
    EXPECT_NE(runtime.Policy().Multiple(), initial_multiple);
    EXPECT_GE(runtime.Policy().Multiple(),
              cfg.recovery_policy.min_multiple);
    EXPECT_LE(runtime.Policy().Multiple(),
              cfg.recovery_policy.max_multiple);
}

// ---------------------------------------------------------- DriftMonitor

TEST(DriftMonitorTest, DisabledWithoutExpectedRate)
{
    core::DriftMonitor monitor;
    EXPECT_FALSE(monitor.Enabled());
    for (int i = 0; i < 20; ++i)
        monitor.Observe(100, 100);  // extreme rate, still no alarm.
    EXPECT_FALSE(monitor.DriftDetected());
}

TEST(DriftMonitorTest, QuietWhileOnCalibration)
{
    core::DriftMonitor monitor(0.2);
    for (int i = 0; i < 20; ++i)
        monitor.Observe(20, 100);
    EXPECT_FALSE(monitor.DriftDetected());
    EXPECT_NEAR(monitor.SmoothedFireRate(), 0.2, 1e-9);
}

TEST(DriftMonitorTest, FiresOnPersistentRateJump)
{
    core::DriftMonitor monitor(0.1);
    for (int i = 0; i < 30; ++i)
        monitor.Observe(60, 100);  // 6x the calibrated rate.
    EXPECT_TRUE(monitor.DriftDetected());
}

TEST(DriftMonitorTest, FiresOnPersistentRateCollapse)
{
    core::DriftMonitor monitor(0.4);
    for (int i = 0; i < 30; ++i)
        monitor.Observe(2, 100);
    EXPECT_TRUE(monitor.DriftDetected());
}

TEST(DriftMonitorTest, SingleSpikeIsAbsorbed)
{
    core::DriftMonitor monitor(0.2);
    for (int i = 0; i < 10; ++i)
        monitor.Observe(20, 100);
    monitor.Observe(90, 100);  // one bad batch.
    EXPECT_LT(monitor.SmoothedFireRate(),
              0.2 * core::DriftMonitor::kTolerance);
    EXPECT_FALSE(monitor.DriftDetected());
}

TEST(DriftMonitorTest, WarmupSuppressesEarlyAlarms)
{
    // The first 90% batch already lifts the smoothed rate out of the
    // tolerance band; only the warmup keeps the alarm down.
    core::DriftMonitor monitor(0.1);
    for (size_t i = 0; i + 1 < core::DriftMonitor::kWarmup; ++i) {
        monitor.Observe(90, 100);
        EXPECT_GT(monitor.SmoothedFireRate(),
                  0.1 * core::DriftMonitor::kTolerance);
        EXPECT_FALSE(monitor.DriftDetected()) << i;
    }
    monitor.Observe(90, 100);
    EXPECT_TRUE(monitor.DriftDetected());
}

TEST(DriftMonitorTest, ZeroElementInvocationsIgnored)
{
    // A breaker-degraded invocation serves zero elements on the
    // accelerator: no fire-rate information, no state change.
    core::DriftMonitor monitor(0.2);
    for (int i = 0; i < 10; ++i)
        monitor.Observe(20, 100);
    const double before = monitor.SmoothedFireRate();
    const size_t observed = monitor.Observations();
    monitor.Observe(0, 0);
    EXPECT_DOUBLE_EQ(monitor.SmoothedFireRate(), before);
    EXPECT_EQ(monitor.Observations(), observed);
    EXPECT_FALSE(monitor.DriftDetected());
}

TEST(DriftMonitorTest, ZeroExpectedRateDisablesEvenWithObservations)
{
    core::DriftMonitor monitor(0.0);
    EXPECT_FALSE(monitor.Enabled());
    for (int i = 0; i < 50; ++i)
        monitor.Observe(100, 100);
    EXPECT_FALSE(monitor.DriftDetected());
}

TEST(DriftMonitorTest, MinDeltaGuardsTinyExpectedRates)
{
    // expected 1%, observed 2.5%: a 2.5x ratio (over kTolerance) but
    // only a 1.5-point absolute departure — inside kMinDelta, never
    // drift. 20 invocations settle the EMA.
    static_assert(0.025 - 0.01 < core::DriftMonitor::kMinDelta &&
                  0.025 > 0.01 * core::DriftMonitor::kTolerance);
    core::DriftMonitor monitor(0.01);
    for (int i = 0; i < 20; ++i)
        monitor.Observe(25, 1000);
    EXPECT_GT(monitor.SmoothedFireRate(),
              0.01 * core::DriftMonitor::kTolerance);
    EXPECT_FALSE(monitor.DriftDetected());
    // Past the absolute slack the ratio test applies again.
    for (int i = 0; i < 20; ++i)
        monitor.Observe(100, 1000);
    EXPECT_TRUE(monitor.DriftDetected());
}

TEST(DriftMonitorTest, ReArmClearsAlarmUntilFreshEvidence)
{
    core::DriftMonitor monitor(0.1);
    for (int i = 0; i < 10; ++i)
        monitor.Observe(90, 100);
    ASSERT_TRUE(monitor.DriftDetected());

    // Recovery (e.g. the circuit breaker closed): re-arm resets the
    // smoothed rate to the calibrated expectation and restarts warmup.
    monitor.ReArm();
    EXPECT_FALSE(monitor.DriftDetected());
    EXPECT_EQ(monitor.Observations(), 0u);
    EXPECT_NEAR(monitor.SmoothedFireRate(), 0.1, 1e-12);

    // Healthy traffic keeps it quiet...
    for (int i = 0; i < 5; ++i)
        monitor.Observe(10, 100);
    EXPECT_FALSE(monitor.DriftDetected());
    // ...and a fresh persistent departure re-raises the alarm.
    for (int i = 0; i < 10; ++i)
        monitor.Observe(90, 100);
    EXPECT_TRUE(monitor.DriftDetected());
}

TEST(DriftMonitorTest, RuntimeRaisesDriftOnShiftedInputs)
{
    // Calibrate on inversek2j's training distribution, then feed
    // waypoints far outside it: the fire rate jumps and the report's
    // drift flag must come up.
    // A well-trained network keeps the calibrated fire rate low, so
    // an upward departure is detectable within the tolerance band.
    core::RuntimeConfig cfg;
    cfg.pipeline.train_epochs = 80;
    cfg.pipeline.max_train_elements = 3000;
    cfg.pipeline.max_test_elements = 400;
    cfg.checker = core::Scheme::kTree;
    cfg.tuner.target_error_pct = 10.0;
    cfg.initial_threshold = 0.0;  // calibration enables the monitor.
    core::RumbaRuntime runtime(apps::MakeBenchmark("inversek2j"), cfg);
    EXPECT_TRUE(runtime.Drift().Enabled());
    ASSERT_LT(runtime.Drift().ExpectedFireRate(), 0.4);

    // Out-of-distribution targets hugging the workspace boundary.
    std::vector<std::vector<double>> weird;
    for (int i = 0; i < 200; ++i) {
        const double angle = 0.5 + 0.4 * i / 200.0;
        weird.push_back(
            {0.99 * std::cos(angle), 0.99 * std::sin(angle)});
    }
    std::vector<double> outputs;
    bool drifted = false;
    for (int round = 0; round < 8; ++round) {
        drifted = Invoke(runtime, weird, 0, weird.size(), &outputs)
                      .drift_detected;
    }
    EXPECT_TRUE(drifted);
}

// ------------------------------------------------------------ RunSummary

TEST(RunSummaryTest, AccumulatesAcrossInvocations)
{
    core::RuntimeConfig cfg;
    cfg.pipeline.train_epochs = 25;
    cfg.pipeline.max_train_elements = 600;
    cfg.pipeline.max_test_elements = 600;
    cfg.checker = core::Scheme::kTree;
    cfg.tuner.target_error_pct = 10.0;
    core::RumbaRuntime runtime(apps::MakeBenchmark("inversek2j"), cfg);
    const auto inputs = runtime.Bench().TestInputs();

    std::vector<double> outputs;
    size_t expected_fixes = 0;
    for (size_t r = 0; r < 3; ++r) {
        expected_fixes += Invoke(runtime, inputs, r * 150,
                                 (r + 1) * 150, &outputs)
                              .fixes;
    }
    const core::RunSummary& s = runtime.Summary();
    EXPECT_EQ(s.invocations, 3u);
    EXPECT_EQ(s.elements, 450u);
    EXPECT_EQ(s.fixes, expected_fixes);
    EXPECT_GE(s.MeanOutputErrorPct(), 0.0);
    EXPECT_GT(s.EnergySaving(), 0.0);
    EXPECT_GT(s.Speedup(), 0.0);
    EXPECT_NEAR(s.FixFraction(),
                static_cast<double>(expected_fixes) / 450.0, 1e-12);
}

TEST(RunSummaryTest, EmptySummaryIsZero)
{
    const core::RunSummary s;
    EXPECT_DOUBLE_EQ(s.MeanOutputErrorPct(), 0.0);
    EXPECT_DOUBLE_EQ(s.FixFraction(), 0.0);
    EXPECT_DOUBLE_EQ(s.EnergySaving(), 0.0);
    EXPECT_DOUBLE_EQ(s.Speedup(), 0.0);
}

// ----------------------------------------------------- Overlap simulator

TEST(OverlapSimTest, NoFiresMeansAcceleratorOnly)
{
    core::OverlapConfig cfg;
    cfg.accel_cycles_per_element = 10;
    const auto res = core::SimulateOverlap(std::vector<char>(100, 0),
                                           cfg);
    EXPECT_EQ(res.total_cycles, 1000u);
    EXPECT_EQ(res.fixes, 0u);
    EXPECT_EQ(res.accel_stall_cycles, 0u);
    EXPECT_EQ(res.cpu_busy_cycles, 0u);
}

TEST(OverlapSimTest, AllFiresCpuBound)
{
    core::OverlapConfig cfg;
    cfg.accel_cycles_per_element = 10;
    cfg.cpu_cycles_per_fix = 40;
    cfg.queue_capacity = 1000;
    const auto res = core::SimulateOverlap(std::vector<char>(100, 1),
                                           cfg);
    EXPECT_EQ(res.fixes, 100u);
    // CPU-bound: the last fix commits at first-arrival + 100 * 40.
    EXPECT_EQ(res.total_cycles, 10u + 100u * 40u);
    EXPECT_EQ(res.cpu_busy_cycles, 4000u);
}

TEST(OverlapSimTest, SustainableRateNeverStalls)
{
    // Accelerator 4x faster than a fix, 25% fire rate, perfectly
    // spaced: the CPU exactly keeps up (paper's Figure 8 example
    // shape).
    core::OverlapConfig cfg;
    cfg.accel_cycles_per_element = 10;
    cfg.cpu_cycles_per_fix = 40;
    cfg.queue_capacity = 4;
    std::vector<char> mask(1000, 0);
    for (size_t i = 0; i < mask.size(); i += 4)
        mask[i] = 1;
    const auto res = core::SimulateOverlap(mask, cfg);
    EXPECT_EQ(res.accel_stall_cycles, 0u);
    EXPECT_LE(res.total_cycles, 10u * 1000u + 40u);
}

TEST(OverlapSimTest, TinyQueuePlusBurstStalls)
{
    core::OverlapConfig cfg;
    cfg.accel_cycles_per_element = 10;
    cfg.cpu_cycles_per_fix = 40;
    cfg.queue_capacity = 2;
    // A burst of 20 consecutive fires at an otherwise idle start.
    std::vector<char> mask(200, 0);
    for (size_t i = 0; i < 20; ++i)
        mask[i] = 1;
    const auto res = core::SimulateOverlap(mask, cfg);
    EXPECT_GT(res.accel_stall_cycles, 0u);
    EXPECT_EQ(res.max_queue_depth, 2u);
}

TEST(OverlapSimTest, BiggerQueueNeverSlower)
{
    Rng rng(3);
    std::vector<char> mask(5000, 0);
    for (auto& m : mask)
        m = rng.Chance(0.3);
    core::OverlapConfig cfg;
    cfg.accel_cycles_per_element = 10;
    cfg.cpu_cycles_per_fix = 25;
    uint64_t prev = UINT64_MAX;
    for (size_t q : {1ul, 2ul, 8ul, 32ul, 256ul}) {
        cfg.queue_capacity = q;
        const auto res = core::SimulateOverlap(mask, cfg);
        EXPECT_LE(res.total_cycles, prev) << "queue " << q;
        prev = res.total_cycles;
    }
}

TEST(OverlapSimTest, TraceMatchesPaperFigure8)
{
    // Fires at 0, 2, 5, 6 with a 2x-faster accelerator: the paper's
    // worked example. Iteration 0's fix overlaps iterations 1-2 on
    // the accelerator; iteration 2's fix overlaps 3-4; and so on.
    std::vector<char> mask(8, 0);
    mask[0] = mask[2] = mask[5] = mask[6] = 1;
    core::OverlapConfig cfg;
    cfg.accel_cycles_per_element = 10;
    cfg.cpu_cycles_per_fix = 20;
    std::vector<core::ElementTrace> trace;
    const auto res = core::SimulateOverlap(mask, cfg, &trace);
    ASSERT_EQ(trace.size(), 8u);

    EXPECT_EQ(trace[0].accel_start, 0u);
    EXPECT_EQ(trace[0].accel_end, 10u);
    EXPECT_TRUE(trace[0].fired);
    EXPECT_EQ(trace[0].cpu_start, 10u);   // right after it's produced.
    EXPECT_EQ(trace[0].cpu_end, 30u);     // overlaps accel elems 1-2.

    EXPECT_EQ(trace[2].cpu_start, 30u);   // CPU freed by fix 0.
    EXPECT_EQ(trace[2].cpu_end, 50u);

    EXPECT_FALSE(trace[1].fired);
    EXPECT_EQ(trace[1].cpu_end, 0u);

    // Back-to-back fires at 5 and 6 serialize on the CPU.
    EXPECT_EQ(trace[5].cpu_start, 60u);
    EXPECT_EQ(trace[6].cpu_start, 80u);
    EXPECT_EQ(res.total_cycles, 100u);
    EXPECT_EQ(res.accel_stall_cycles, 0u);
}

TEST(OverlapSimTest, NeverBeatsFluidLimit)
{
    Rng rng(7);
    for (int trial = 0; trial < 20; ++trial) {
        std::vector<char> mask(2000, 0);
        const double rate = rng.Uniform(0.05, 0.9);
        size_t fires = 0;
        for (auto& m : mask) {
            m = rng.Chance(rate);
            fires += m;
        }
        core::OverlapConfig cfg;
        cfg.accel_cycles_per_element = 1 + rng.Below(30);
        cfg.cpu_cycles_per_fix = 1 + rng.Below(100);
        cfg.queue_capacity = 1 + rng.Below(128);
        const auto res = core::SimulateOverlap(mask, cfg);
        const uint64_t fluid = std::max(
            mask.size() * cfg.accel_cycles_per_element,
            fires * cfg.cpu_cycles_per_fix);
        EXPECT_GE(res.total_cycles + cfg.cpu_cycles_per_fix, fluid);
        EXPECT_EQ(res.fixes, fires);
    }
}

// ------------------------------------------- Parameterized: fixed point

class FixedFormatTest : public ::testing::TestWithParam<int> {
};

TEST_P(FixedFormatTest, RoundTripWithinHalfStep)
{
    npu::FixedFormat fmt;
    fmt.fractional_bits = GetParam();
    Rng rng(21);
    const double range = 32768.0 / fmt.Scale() * 0.95;
    for (int i = 0; i < 2000; ++i) {
        const double v = rng.Uniform(-range, range);
        EXPECT_NEAR(fmt.RoundTrip(v), v, fmt.Resolution() / 2 + 1e-12);
    }
}

TEST_P(FixedFormatTest, MacReduceMatchesProduct)
{
    npu::FixedFormat fmt;
    fmt.fractional_bits = GetParam();
    Rng rng(23);
    for (int i = 0; i < 500; ++i) {
        const double a = rng.Uniform(-2.0, 2.0);
        const double b = rng.Uniform(-2.0, 2.0);
        npu::MacAccumulator acc;
        acc.Mac(fmt.Quantize(a), fmt.Quantize(b));
        EXPECT_NEAR(fmt.Dequantize(acc.Reduce(fmt)), a * b,
                    3.0 * fmt.Resolution() + 8.0 * fmt.Resolution());
    }
}

INSTANTIATE_TEST_SUITE_P(Formats, FixedFormatTest,
                         ::testing::Values(4, 6, 8, 10, 12));

// ---------------------------------------------- Parameterized: schedule

class ScheduleSweepTest
    : public ::testing::TestWithParam<std::tuple<const char*, size_t>> {
};

TEST_P(ScheduleSweepTest, Invariants)
{
    const auto [topo_text, pes] = GetParam();
    const auto topo = nn::Topology::Parse(topo_text);
    const npu::Schedule sched = npu::BuildSchedule(topo, pes);

    EXPECT_EQ(sched.layers.size(), topo.layers.size() - 1);
    EXPECT_EQ(sched.input_cycles, topo.NumInputs());
    EXPECT_EQ(sched.output_cycles, topo.NumOutputs());
    size_t sum = sched.input_cycles + sched.output_cycles;
    for (size_t li = 0; li < sched.layers.size(); ++li) {
        const auto& layer = sched.layers[li];
        EXPECT_EQ(layer.neurons, topo.layers[li + 1]);
        EXPECT_EQ(layer.waves, (layer.neurons + pes - 1) / pes);
        EXPECT_EQ(layer.mac_cycles, layer.waves * (layer.inputs + 1));
        sum += layer.mac_cycles + layer.act_cycles;
    }
    EXPECT_EQ(sched.total_cycles, sum);

    // Monotone in PEs: doubling PEs never increases cycles.
    const npu::Schedule doubled = npu::BuildSchedule(topo, pes * 2);
    EXPECT_LE(doubled.total_cycles, sched.total_cycles);
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, ScheduleSweepTest,
    ::testing::Combine(::testing::Values("6->8->8->1", "1->4->4->2",
                                         "18->32->8->2", "64->16->64",
                                         "9->8->1", "2->2->2"),
                       ::testing::Values(size_t{1}, size_t{2},
                                         size_t{4}, size_t{8},
                                         size_t{16})));

// ----------------------------------------------- Parameterized: tuner

class TunerModeTest : public ::testing::TestWithParam<core::TuningMode> {
};

TEST_P(TunerModeTest, ThresholdStaysInRange)
{
    core::TunerConfig cfg;
    cfg.mode = GetParam();
    cfg.iteration_budget = 50;
    cfg.min_threshold = 0.01;
    cfg.max_threshold = 10.0;
    core::OnlineTuner tuner(cfg, 1.0);
    Rng rng(31);
    for (int i = 0; i < 200; ++i) {
        core::InvocationFeedback fb;
        fb.elements = 100;
        fb.fixes = static_cast<size_t>(rng.Below(101));
        fb.estimated_error_pct = rng.Uniform(0.0, 40.0);
        fb.cpu_busy_ratio = rng.Uniform(0.0, 2.0);
        tuner.EndInvocation(fb);
        EXPECT_GE(tuner.Threshold(), cfg.min_threshold);
        EXPECT_LE(tuner.Threshold(), cfg.max_threshold);
    }
}

INSTANTIATE_TEST_SUITE_P(Modes, TunerModeTest,
                         ::testing::Values(core::TuningMode::kToq,
                                           core::TuningMode::kEnergy,
                                           core::TuningMode::kQuality));

// --------------------------------------- Parameterized: EMA windows

class EmaWindowTest : public ::testing::TestWithParam<size_t> {
};

TEST_P(EmaWindowTest, SpikeAlwaysExceedsSteadyState)
{
    predict::EmaDetector ema(GetParam());
    for (int i = 0; i < 100; ++i)
        ema.PredictError({}, {0.4});
    const double spike = ema.PredictError({}, {0.9});
    EXPECT_NEAR(spike, 0.5, 1e-9);
}

TEST_P(EmaWindowTest, LargerWindowsForgetSlower)
{
    predict::EmaDetector ema(GetParam());
    EXPECT_NEAR(ema.Alpha(),
                2.0 / (1.0 + static_cast<double>(GetParam())), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Windows, EmaWindowTest,
                         ::testing::Values(size_t{1}, size_t{4},
                                           size_t{8}, size_t{16},
                                           size_t{64}));

// --------------------------------------- Threaded overlap replay

TEST(OverlapReplayTest, RecoversExactlyTheFiredElements)
{
    const auto bench = apps::MakeBenchmark("inversek2j");
    const auto inputs = bench->TestInputs();
    const size_t n = 64;
    std::vector<std::vector<double>> batch(inputs.begin(),
                                           inputs.begin() + n);
    std::vector<char> mask(n, 0);
    for (size_t i = 0; i < n; i += 3)
        mask[i] = 1;  // every third element fires.

    std::vector<std::vector<double>> outputs;
    const auto res =
        core::ReplayOverlapThreaded(*bench, batch, mask, &outputs);

    EXPECT_EQ(res.elements, n);
    EXPECT_EQ(res.fixes, (n + 2) / 3);
    EXPECT_GT(res.wall_ns, 0u);
    ASSERT_EQ(outputs.size(), n);
    std::vector<double> exact(bench->NumOutputs());
    for (size_t i = 0; i < n; ++i) {
        if (!mask[i]) {
            EXPECT_TRUE(outputs[i].empty()) << "element " << i;
            continue;
        }
        // The recovery thread committed the exact kernel's result.
        ASSERT_EQ(outputs[i].size(), bench->NumOutputs())
            << "element " << i;
        bench->RunExact(batch[i].data(), exact.data());
        for (size_t o = 0; o < exact.size(); ++o)
            EXPECT_DOUBLE_EQ(outputs[i][o], exact[o]);
    }
}

TEST(OverlapReplayTest, TinyQueueBoundsDepthAndBackpressures)
{
    const auto bench = apps::MakeBenchmark("inversek2j");
    const auto inputs = bench->TestInputs();
    const size_t n = 96;
    std::vector<std::vector<double>> batch(inputs.begin(),
                                           inputs.begin() + n);
    std::vector<char> mask(n, 1);  // everything fires.

    core::OverlapReplayConfig cfg;
    cfg.queue_capacity = 2;
    std::vector<std::vector<double>> outputs;
    const auto res = core::ReplayOverlapThreaded(*bench, batch, mask,
                                                 &outputs, cfg);

    EXPECT_EQ(res.fixes, n);  // nothing lost under backpressure.
    EXPECT_LE(res.max_queue_depth, cfg.queue_capacity);
    for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(outputs[i].size(), bench->NumOutputs());
}

TEST(OverlapReplayTest, NoFiresMeansIdleRecoveryThread)
{
    const auto bench = apps::MakeBenchmark("fft");
    const auto inputs = bench->TestInputs();
    std::vector<std::vector<double>> batch(inputs.begin(),
                                           inputs.begin() + 32);
    std::vector<char> mask(32, 0);
    std::vector<std::vector<double>> outputs;
    const auto res =
        core::ReplayOverlapThreaded(*bench, batch, mask, &outputs);
    EXPECT_EQ(res.fixes, 0u);
    EXPECT_EQ(res.push_waits, 0u);
    for (const auto& out : outputs)
        EXPECT_TRUE(out.empty());
}

TEST(OverlapReplayTest, SpansCoverBothLanes)
{
    // The replay records into the *default* collector; enable it for
    // the duration and verify both lanes left attributed spans.
    auto& collector = obs::SpanCollector::Default();
    collector.Clear();
    collector.Enable();
    const auto bench = apps::MakeBenchmark("inversek2j");
    const auto inputs = bench->TestInputs();
    std::vector<std::vector<double>> batch(inputs.begin(),
                                           inputs.begin() + 16);
    std::vector<char> mask(16, 1);
    std::vector<std::vector<double>> outputs;
    core::ReplayOverlapThreaded(*bench, batch, mask, &outputs);
    collector.Disable();

    std::set<std::string> names;
    std::set<uint32_t> threads;
    for (const auto& s : collector.Dump()) {
        names.insert(s.name);
        threads.insert(s.thread_id);
    }
    collector.Clear();
    EXPECT_TRUE(names.count("overlap.accel_stream"));
    EXPECT_TRUE(names.count("overlap.accel_element"));
    EXPECT_TRUE(names.count("overlap.recovery_worker"));
    EXPECT_TRUE(names.count("overlap.cpu_reexecute"));
    EXPECT_GE(threads.size(), 2u);  // producer + recovery threads.
}

}  // namespace
}  // namespace rumba
