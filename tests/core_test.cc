// Unit tests for the Rumba core: schemes, detector, recovery queue
// and module, online tuner, and the offline pipeline.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "apps/benchmark.h"
#include "core/batch_view.h"
#include "core/detector.h"
#include "core/pipeline.h"
#include "core/recovery.h"
#include "core/recovery_policy.h"
#include "core/schemes.h"
#include "core/tuner.h"
#include "predict/compensator.h"
#include "predict/linear.h"

namespace rumba::core {
namespace {

/** Fast pipeline configuration for tests. */
PipelineConfig
FastPipeline()
{
    PipelineConfig cfg;
    cfg.train_epochs = 25;
    cfg.max_train_elements = 600;
    cfg.max_test_elements = 600;
    return cfg;
}

// --------------------------------------------------------------- Schemes

TEST(SchemesTest, NamesMatchPaper)
{
    EXPECT_STREQ(SchemeName(Scheme::kNpu), "NPU");
    EXPECT_STREQ(SchemeName(Scheme::kIdeal), "Ideal");
    EXPECT_STREQ(SchemeName(Scheme::kLinear), "linearErrors");
    EXPECT_STREQ(SchemeName(Scheme::kTree), "treeErrors");
    EXPECT_STREQ(SchemeName(Scheme::kEma), "EMA");
}

TEST(SchemesTest, FixingSchemesExcludeNpu)
{
    const auto schemes = FixingSchemes();
    EXPECT_EQ(schemes.size(), 6u);
    for (auto s : schemes)
        EXPECT_NE(s, Scheme::kNpu);
}

TEST(SchemesTest, PredictorClassification)
{
    EXPECT_TRUE(IsPredictorScheme(Scheme::kEma));
    EXPECT_TRUE(IsPredictorScheme(Scheme::kLinear));
    EXPECT_TRUE(IsPredictorScheme(Scheme::kTree));
    EXPECT_FALSE(IsPredictorScheme(Scheme::kIdeal));
    EXPECT_FALSE(IsPredictorScheme(Scheme::kRandom));
    EXPECT_FALSE(IsPredictorScheme(Scheme::kUniform));
}

// -------------------------------------------------------------- Detector

/** Predictor stub returning a fixed value. */
class FixedPredictor : public predict::ErrorPredictor {
  public:
    explicit FixedPredictor(double value) : value_(value) {}
    std::string Name() const override { return "fixed"; }
    bool IsInputBased() const override { return true; }
    void Train(const Dataset&) override {}
    double
    PredictError(const std::vector<double>&,
                 const std::vector<double>&) override
    {
        return value_;
    }
    sim::CheckerCost CostPerCheck() const override { return {}; }
    std::string Serialize() const override { return "fixed\n"; }

  private:
    double value_;
};

TEST(DetectorTest, FiresAboveThreshold)
{
    Detector det(std::make_unique<FixedPredictor>(0.4), 0.3);
    const CheckResult r = det.Check({}, {});
    EXPECT_TRUE(r.fired);
    EXPECT_DOUBLE_EQ(r.predicted_error, 0.4);
}

TEST(DetectorTest, SilentBelowThreshold)
{
    Detector det(std::make_unique<FixedPredictor>(0.2), 0.3);
    EXPECT_FALSE(det.Check({}, {}).fired);
}

TEST(DetectorTest, ThresholdAdjustable)
{
    Detector det(std::make_unique<FixedPredictor>(0.2), 0.3);
    det.SetThreshold(0.1);
    EXPECT_TRUE(det.Check({}, {}).fired);
    EXPECT_EQ(det.ChecksPerformed(), 1u);
    EXPECT_EQ(det.ChecksFired(), 1u);
}

TEST(DetectorTest, CountsChecks)
{
    Detector det(std::make_unique<FixedPredictor>(0.5), 0.3);
    for (int i = 0; i < 5; ++i)
        det.Check({}, {});
    det.SetThreshold(0.9);
    for (int i = 0; i < 3; ++i)
        det.Check({}, {});
    EXPECT_EQ(det.ChecksPerformed(), 8u);
    EXPECT_EQ(det.ChecksFired(), 5u);
}

// -------------------------------------------------------------- Recovery

TEST(RecoveryTest, DrainsQueueAndMerges)
{
    auto bench = apps::MakeBenchmark("kmeans");
    RecoveryModule recovery(bench.get(), 16);

    const std::vector<double> flat = {
        0.1, 0.2, 0.3, 0.4, 0.5, 0.6,  //
        0.9, 0.8, 0.7, 0.6, 0.5, 0.4,  //
        0.2, 0.2, 0.2, 0.8, 0.8, 0.8,
    };
    const BatchView inputs(flat, 6);
    // Corrupt all outputs; flag elements 0 and 2.
    std::vector<double> outputs(3, 99.0);
    std::vector<char> fixed(3, 0);
    ASSERT_TRUE(recovery.Queue().Push(
        RecoveryDecision{0, RecoveryTier::kReexecute, 1.0}));
    ASSERT_TRUE(recovery.Queue().Push(
        RecoveryDecision{2, RecoveryTier::kReexecute, 1.0}));
    DrainStats stats;
    const size_t drained =
        recovery.Drain(inputs, outputs.data(), 1, &fixed, &stats);
    EXPECT_EQ(drained, 2u);
    EXPECT_EQ(recovery.TotalReexecutions(), 2u);
    EXPECT_EQ(recovery.TotalCompensations(), 0u);
    EXPECT_EQ(stats.reexecuted, 2u);
    EXPECT_EQ(stats.compensated, 0u);
    EXPECT_EQ(fixed[0], kFixedExact);
    EXPECT_EQ(fixed[1], kFixedNone);
    EXPECT_EQ(fixed[2], kFixedExact);

    double expected = 0.0;
    bench->RunExact(flat.data(), &expected);
    EXPECT_DOUBLE_EQ(outputs[0], expected);
    EXPECT_DOUBLE_EQ(outputs[1], 99.0);  // untouched approximate.
}

TEST(RecoveryTest, EmptyQueueDrainsNothing)
{
    auto bench = apps::MakeBenchmark("kmeans");
    RecoveryModule recovery(bench.get(), 16);
    const std::vector<double> flat = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6};
    std::vector<double> outputs = {1.0};
    EXPECT_EQ(
        recovery.Drain(BatchView(flat, 6), outputs.data(), 1, nullptr),
        0u);
    EXPECT_DOUBLE_EQ(outputs[0], 1.0);
}

TEST(RecoveryTest, OutOfRangeIterationPanics)
{
    auto bench = apps::MakeBenchmark("kmeans");
    RecoveryModule recovery(bench.get(), 16);
    const std::vector<double> flat = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6};
    std::vector<double> outputs = {1.0};
    ASSERT_TRUE(recovery.Queue().Push(
        RecoveryDecision{5, RecoveryTier::kReexecute, 1.0}));
    EXPECT_DEATH(
        recovery.Drain(BatchView(flat, 6), outputs.data(), 1, nullptr),
        "check failed");
}

TEST(RecoveryTest, CompensateTierUsesInstalledExecutor)
{
    auto bench = apps::MakeBenchmark("kmeans");
    RecoveryModule recovery(bench.get(), 16);
    recovery.SetCompensator([](const double*, double* out) {
        out[0] += 1.0;
        return true;
    });
    ASSERT_TRUE(recovery.HasCompensator());

    const std::vector<double> flat = {
        0.1, 0.2, 0.3, 0.4, 0.5, 0.6,  //
        0.9, 0.8, 0.7, 0.6, 0.5, 0.4,
    };
    std::vector<double> outputs = {10.0, 20.0};
    std::vector<char> fixed(2, 0);
    ASSERT_TRUE(recovery.Queue().Push(
        RecoveryDecision{0, RecoveryTier::kCompensate, 0.1}));
    ASSERT_TRUE(recovery.Queue().Push(
        RecoveryDecision{1, RecoveryTier::kReexecute, 0.9}));
    DrainStats stats;
    EXPECT_EQ(recovery.Drain(BatchView(flat, 6), outputs.data(), 1,
                             &fixed, &stats),
              2u);
    EXPECT_EQ(stats.compensated, 1u);
    EXPECT_EQ(stats.reexecuted, 1u);
    EXPECT_EQ(recovery.TotalCompensations(), 1u);
    EXPECT_EQ(fixed[0], kFixedCompensated);
    EXPECT_EQ(fixed[1], kFixedExact);
    EXPECT_DOUBLE_EQ(outputs[0], 11.0);  // corrected in place.
}

TEST(RecoveryTest, RefusedCompensationDemotesToReexecution)
{
    auto bench = apps::MakeBenchmark("kmeans");
    RecoveryModule recovery(bench.get(), 16);
    recovery.SetCompensator(
        [](const double*, double*) { return false; });

    const std::vector<double> flat = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6};
    std::vector<double> outputs = {99.0};
    std::vector<char> fixed(1, 0);
    ASSERT_TRUE(recovery.Queue().Push(
        RecoveryDecision{0, RecoveryTier::kCompensate, 0.1}));
    DrainStats stats;
    EXPECT_EQ(recovery.Drain(BatchView(flat, 6), outputs.data(), 1,
                             &fixed, &stats),
              1u);
    EXPECT_EQ(stats.compensated, 0u);
    EXPECT_EQ(stats.reexecuted, 1u);
    EXPECT_EQ(fixed[0], kFixedExact);
    double expected = 0.0;
    bench->RunExact(flat.data(), &expected);
    EXPECT_DOUBLE_EQ(outputs[0], expected);
}

// -------------------------------------------------------- RecoveryPolicy

TEST(RecoveryPolicyTest, DisabledAlwaysReexecutes)
{
    RecoveryPolicyConfig cfg;  // compensation off by default.
    RecoveryPolicy policy(cfg, 10.0);
    EXPECT_FALSE(policy.CompensationEnabled());
    for (double err : {0.0, 0.01, 0.5, 100.0}) {
        EXPECT_EQ(policy.Decide(3, err, false, 0.1).tier,
                  RecoveryTier::kReexecute);
    }
}

TEST(RecoveryPolicyTest, TiersByPredictedError)
{
    RecoveryPolicyConfig cfg;
    cfg.compensation = true;
    cfg.reexec_multiple = 4.0;
    RecoveryPolicy policy(cfg, 10.0);
    const double check = 0.1;
    // Mid-band (>= check, < 4x check) compensates.
    EXPECT_EQ(policy.Decide(0, 0.2, false, check).tier,
              RecoveryTier::kCompensate);
    // Tail (>= 4x check) re-executes.
    EXPECT_EQ(policy.Decide(1, 0.9, false, check).tier,
              RecoveryTier::kReexecute);
    // Inverted verdict (fired yet below check) compensates.
    EXPECT_EQ(policy.Decide(2, 0.05, false, check).tier,
              RecoveryTier::kCompensate);
    // The decision carries its evidence and identity.
    const RecoveryDecision decision =
        policy.Decide(7, 0.2, false, check);
    EXPECT_EQ(decision.iteration, 7u);
    EXPECT_DOUBLE_EQ(decision.predicted_error, 0.2);
}

TEST(RecoveryPolicyTest, NonFiniteAlwaysReexecutes)
{
    RecoveryPolicyConfig cfg;
    cfg.compensation = true;
    RecoveryPolicy policy(cfg, 10.0);
    // Non-finite *output* re-executes no matter the prediction.
    EXPECT_EQ(policy.Decide(0, 0.0, true, 0.1).tier,
              RecoveryTier::kReexecute);
    // Non-finite *prediction* is no evidence: re-execute.
    const double nan = std::nan("");
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_EQ(policy.Decide(1, nan, false, 0.1).tier,
              RecoveryTier::kReexecute);
    EXPECT_EQ(policy.Decide(2, inf, false, 0.1).tier,
              RecoveryTier::kReexecute);
    EXPECT_EQ(policy.Decide(3, -inf, false, 0.1).tier,
              RecoveryTier::kReexecute);
}

TEST(RecoveryPolicyTest, BoundaryIsDeterministic)
{
    RecoveryPolicyConfig cfg;
    cfg.compensation = true;
    cfg.reexec_multiple = 4.0;
    RecoveryPolicy policy(cfg, 10.0);
    const double check = 0.25;
    const double boundary = policy.ReexecThreshold(check);
    EXPECT_DOUBLE_EQ(boundary, 1.0);
    // Exactly at the re-execute boundary: >= semantics, stable
    // across repeated calls (the serving path relies on this).
    for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(policy.Decide(0, boundary, false, check).tier,
                  RecoveryTier::kReexecute);
        EXPECT_EQ(policy
                      .Decide(0, std::nextafter(boundary, 0.0), false,
                              check)
                      .tier,
                  RecoveryTier::kCompensate);
        // Exactly at the check threshold: fired verdict is taken at
        // its word, the element sits in the compensation band.
        EXPECT_EQ(policy.Decide(0, check, false, check).tier,
                  RecoveryTier::kCompensate);
    }
}

TEST(RecoveryPolicyTest, GroundTruthWalksTheMultiple)
{
    RecoveryPolicyConfig cfg;
    cfg.compensation = true;
    cfg.reexec_multiple = 4.0;
    cfg.adjust_factor = 2.0;
    cfg.min_multiple = 1.0;
    cfg.max_multiple = 16.0;
    cfg.dead_band = 0.1;
    cfg.residual_budget_frac = 0.5;
    RecoveryPolicy policy(cfg, 10.0);  // budget = 5% residual.
    EXPECT_DOUBLE_EQ(policy.ResidualBudgetPct(), 5.0);

    // Residual over budget: narrow the band (multiple halves).
    policy.OnCompensatedGroundTruth(8.0, 100);
    EXPECT_DOUBLE_EQ(policy.Multiple(), 2.0);
    EXPECT_EQ(policy.Adjustments(), 1u);
    // Inside the dead band: hold.
    policy.OnCompensatedGroundTruth(5.2, 100);
    EXPECT_DOUBLE_EQ(policy.Multiple(), 2.0);
    EXPECT_EQ(policy.Adjustments(), 1u);
    // Comfortably under budget: widen again.
    policy.OnCompensatedGroundTruth(1.0, 100);
    EXPECT_DOUBLE_EQ(policy.Multiple(), 4.0);
    // Clamped at max after repeated widening.
    for (int i = 0; i < 10; ++i)
        policy.OnCompensatedGroundTruth(0.5, 10);
    EXPECT_DOUBLE_EQ(policy.Multiple(), 16.0);
    // Clamped at min after repeated narrowing; 1.0 degenerates to
    // the two-tier policy.
    for (int i = 0; i < 10; ++i)
        policy.OnCompensatedGroundTruth(50.0, 10);
    EXPECT_DOUBLE_EQ(policy.Multiple(), 1.0);
    // Zero elements or non-finite residuals are ignored entirely.
    const size_t adjustments = policy.Adjustments();
    policy.OnCompensatedGroundTruth(50.0, 0);
    policy.OnCompensatedGroundTruth(std::nan(""), 100);
    EXPECT_EQ(policy.Adjustments(), adjustments);
}

TEST(RecoveryPolicyTest, ValidateRejectsBadConfigs)
{
    RecoveryPolicyConfig good;
    EXPECT_TRUE(ValidateRecoveryPolicyConfig(good).ok());

    RecoveryPolicyConfig cfg = good;
    cfg.min_multiple = 0.5;
    EXPECT_EQ(ValidateRecoveryPolicyConfig(cfg).code(),
              StatusCode::kInvalidArgument);
    cfg = good;
    cfg.max_multiple = cfg.min_multiple - 0.5;
    EXPECT_EQ(ValidateRecoveryPolicyConfig(cfg).code(),
              StatusCode::kInvalidArgument);
    cfg = good;
    cfg.reexec_multiple = cfg.max_multiple * 2.0;
    EXPECT_EQ(ValidateRecoveryPolicyConfig(cfg).code(),
              StatusCode::kInvalidArgument);
    cfg = good;
    cfg.adjust_factor = 1.0;
    EXPECT_EQ(ValidateRecoveryPolicyConfig(cfg).code(),
              StatusCode::kInvalidArgument);
    cfg = good;
    cfg.dead_band = 1.0;
    EXPECT_EQ(ValidateRecoveryPolicyConfig(cfg).code(),
              StatusCode::kInvalidArgument);
    cfg = good;
    cfg.residual_budget_frac = 0.0;
    EXPECT_EQ(ValidateRecoveryPolicyConfig(cfg).code(),
              StatusCode::kInvalidArgument);
}

// ----------------------------------------------------------------- Tuner

TEST(TunerTest, ToqLowersThresholdWhenQualityPoor)
{
    TunerConfig cfg;
    cfg.mode = TuningMode::kToq;
    cfg.target_error_pct = 10.0;
    OnlineTuner tuner(cfg, 0.5);
    InvocationFeedback fb;
    fb.estimated_error_pct = 20.0;  // far above target.
    tuner.EndInvocation(fb);
    EXPECT_LT(tuner.Threshold(), 0.5);
}

TEST(TunerTest, ToqRaisesThresholdWhenComfortable)
{
    TunerConfig cfg;
    cfg.mode = TuningMode::kToq;
    cfg.target_error_pct = 10.0;
    OnlineTuner tuner(cfg, 0.5);
    InvocationFeedback fb;
    fb.estimated_error_pct = 2.0;  // far below target.
    tuner.EndInvocation(fb);
    EXPECT_GT(tuner.Threshold(), 0.5);
}

TEST(TunerTest, ToqDeadBandHolds)
{
    TunerConfig cfg;
    cfg.mode = TuningMode::kToq;
    cfg.target_error_pct = 10.0;
    OnlineTuner tuner(cfg, 0.5);
    InvocationFeedback fb;
    fb.estimated_error_pct = 10.0;  // on target: hold.
    tuner.EndInvocation(fb);
    EXPECT_DOUBLE_EQ(tuner.Threshold(), 0.5);
    EXPECT_EQ(tuner.Adjustments(), 0u);
}

TEST(TunerTest, EnergyModeEnforcesBudget)
{
    TunerConfig cfg;
    cfg.mode = TuningMode::kEnergy;
    cfg.iteration_budget = 100;
    OnlineTuner tuner(cfg, 0.5);
    InvocationFeedback fb;
    fb.fixes = 200;  // over budget -> fix fewer next time.
    tuner.EndInvocation(fb);
    EXPECT_GT(tuner.Threshold(), 0.5);
    fb.fixes = 10;  // way under -> spend the budget on quality.
    tuner.EndInvocation(fb);
    tuner.EndInvocation(fb);
    EXPECT_LT(tuner.Threshold(), 0.5 * 1.25);
}

TEST(TunerTest, QualityModeTracksCpuSaturation)
{
    TunerConfig cfg;
    cfg.mode = TuningMode::kQuality;
    OnlineTuner tuner(cfg, 0.5);
    InvocationFeedback fb;
    fb.cpu_busy_ratio = 1.5;  // CPU cannot keep up.
    tuner.EndInvocation(fb);
    EXPECT_GT(tuner.Threshold(), 0.5);
    fb.cpu_busy_ratio = 0.2;  // lots of headroom.
    tuner.EndInvocation(fb);
    tuner.EndInvocation(fb);
    EXPECT_LT(tuner.Threshold(), 0.5 * 1.25 + 1e-12);
}

TEST(TunerTest, ClampsToRange)
{
    TunerConfig cfg;
    cfg.mode = TuningMode::kEnergy;
    cfg.iteration_budget = 10;
    cfg.min_threshold = 0.1;
    cfg.max_threshold = 1.0;
    OnlineTuner tuner(cfg, 0.5);
    InvocationFeedback fb;
    fb.fixes = 1000;
    for (int i = 0; i < 50; ++i)
        tuner.EndInvocation(fb);
    EXPECT_DOUBLE_EQ(tuner.Threshold(), 1.0);
    fb.fixes = 0;
    for (int i = 0; i < 50; ++i)
        tuner.EndInvocation(fb);
    EXPECT_DOUBLE_EQ(tuner.Threshold(), 0.1);
}

TEST(TunerTest, ConvergesToStableFixRate)
{
    // Simulated plant: fixes = elements * (1 - threshold) for
    // threshold in [0,1]. Energy mode must settle near the budget.
    TunerConfig cfg;
    cfg.mode = TuningMode::kEnergy;
    cfg.iteration_budget = 300;
    cfg.adjust_factor = 1.1;
    OnlineTuner tuner(cfg, 0.2);
    size_t fixes = 0;
    for (int round = 0; round < 60; ++round) {
        const double t = std::min(1.0, tuner.Threshold());
        fixes = static_cast<size_t>(1000.0 * (1.0 - t));
        InvocationFeedback fb;
        fb.elements = 1000;
        fb.fixes = fixes;
        tuner.EndInvocation(fb);
    }
    EXPECT_LT(fixes, 400u);
    EXPECT_GT(fixes, 150u);
}

// -------------------------------------------------------------- Pipeline

TEST(PipelineTest, BuildsAndNormalizes)
{
    Pipeline pipe(apps::MakeBenchmark("kmeans"), FastPipeline());
    EXPECT_EQ(pipe.TrainInputs().size(), 600u);
    EXPECT_EQ(pipe.TestInputs().size(), 600u);
    const auto norm = pipe.NormalizeInput(pipe.TrainInputs()[0]);
    for (double v : norm) {
        EXPECT_GE(v, -0.01);
        EXPECT_LE(v, 1.01);
    }
}

TEST(PipelineTest, TrainedNetworkBeatsUntrained)
{
    Pipeline pipe(apps::MakeBenchmark("kmeans"), FastPipeline());
    // The trained accelerator must track the exact kernel far better
    // than chance: mean element error < 0.2 on a [0,1.7] range.
    npu::Npu accel = pipe.MakeAccelerator(true);
    const auto approx =
        pipe.RunAccelerator(&accel, pipe.TestInputs());
    const auto& bench = pipe.Bench();
    double total = 0.0;
    std::vector<double> exact(1);
    for (size_t i = 0; i < pipe.TestInputs().size(); ++i) {
        bench.RunExact(pipe.TestInputs()[i].data(), exact.data());
        total += std::fabs(exact[0] - approx[i][0]);
    }
    EXPECT_LT(total / 600.0, 0.2);
}

TEST(PipelineTest, TrainErrorsPopulated)
{
    Pipeline pipe(apps::MakeBenchmark("kmeans"), FastPipeline());
    ASSERT_EQ(pipe.TrainErrors().size(), 600u);
    for (double e : pipe.TrainErrors())
        EXPECT_GE(e, 0.0);
}

TEST(PipelineTest, ReadersWaitForTheNpuNetwork)
{
    // kmeans' two topologies differ, so its unchecked-NPU network may
    // still be training on its own thread when the constructor
    // returns. A pipeline destroyed without reading it joins that
    // thread; readers wait for it and all see the same network.
    { Pipeline unread(apps::MakeBenchmark("kmeans"), FastPipeline()); }
    Pipeline pipe(apps::MakeBenchmark("kmeans"), FastPipeline());
    npu::Npu accel = pipe.MakeAccelerator(false);
    EXPECT_TRUE(accel.Configured());
    ASSERT_NE(pipe.NpuMlp().GetTopology().ToString(),
              pipe.RumbaMlp().GetTopology().ToString());
    Pipeline again(apps::MakeBenchmark("kmeans"), FastPipeline());
    EXPECT_EQ(again.NpuMlp().Serialize(), pipe.NpuMlp().Serialize());
}

TEST(PipelineTest, SharesNetworkWhenTopologiesEqual)
{
    // sobel's Rumba and NPU topologies are identical (Table 1): both
    // accelerators must produce identical outputs.
    PipelineConfig cfg = FastPipeline();
    cfg.max_train_elements = 300;
    cfg.max_test_elements = 100;
    Pipeline pipe(apps::MakeBenchmark("sobel"), cfg);
    npu::Npu a = pipe.MakeAccelerator(true);
    npu::Npu b = pipe.MakeAccelerator(false);
    const auto outs_a = pipe.RunAccelerator(&a, pipe.TestInputs());
    const auto outs_b = pipe.RunAccelerator(&b, pipe.TestInputs());
    for (size_t i = 0; i < outs_a.size(); ++i)
        EXPECT_DOUBLE_EQ(outs_a[i][0], outs_b[i][0]);
}

TEST(PipelineTest, PredictorFactoryCoversSchemes)
{
    EXPECT_EQ(Pipeline::MakePredictor(Scheme::kEma)->Name(), "EMA");
    EXPECT_EQ(Pipeline::MakePredictor(Scheme::kLinear)->Name(),
              "linearErrors");
    EXPECT_EQ(Pipeline::MakePredictor(Scheme::kTree)->Name(),
              "treeErrors");
}

TEST(PipelineTest, TrainedPredictorTracksTrainErrors)
{
    Pipeline pipe(apps::MakeBenchmark("inversek2j"), FastPipeline());
    auto tree = pipe.TrainPredictor(Scheme::kTree);
    // On the training inputs themselves, predictions must correlate
    // with the true errors (mean absolute residual well below the
    // error spread).
    double resid = 0.0, spread = 0.0, mean = 0.0;
    const auto& errors = pipe.TrainErrors();
    for (double e : errors)
        mean += e;
    mean /= static_cast<double>(errors.size());
    for (size_t i = 0; i < errors.size(); ++i) {
        const auto norm = pipe.NormalizeInput(pipe.TrainInputs()[i]);
        resid += std::fabs(tree->PredictError(norm, {}) - errors[i]);
        spread += std::fabs(errors[i] - mean);
    }
    EXPECT_LT(resid, spread);
}

}  // namespace
}  // namespace rumba::core
