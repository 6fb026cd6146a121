// Unit tests for the error predictors: linear (EEP), decision tree
// (EEP), EMA (output-based) and the EVP value-prediction variant.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "common/dataset.h"
#include "common/random.h"
#include "digest.h"
#include "predict/ema.h"
#include "predict/evp.h"
#include "predict/linear.h"
#include "predict/tree.h"

namespace rumba::predict {
namespace {

/** inputs -> scalar error dataset for a given generator function. */
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

// -------------------------------------------------------------- Linear

TEST(LinearPredictorTest, RecoversLinearFunctionExactly)
{
    const auto fn = [](const std::vector<double>& x) {
        return 0.4 * x[0] - 0.2 * x[1] + 0.05;
    };
    const Dataset d = MakeErrorData(500, 2, 3, fn);
    LinearErrorPredictor p;
    p.Train(d);
    ASSERT_EQ(p.Weights().size(), 3u);
    EXPECT_NEAR(p.Weights()[0], 0.4, 1e-6);
    EXPECT_NEAR(p.Weights()[1], -0.2, 1e-6);
    EXPECT_NEAR(p.Weights()[2], 0.05, 1e-6);
    EXPECT_NEAR(p.PredictError({0.5, 0.5}, {}), 0.4 * 0.5 - 0.2 * 0.5 +
                                                    0.05,
                1e-6);
}

TEST(LinearPredictorTest, BestLinearFitOfNonlinear)
{
    const auto fn = [](const std::vector<double>& x) {
        return x[0] * x[0];
    };
    const Dataset d = MakeErrorData(2000, 1, 7, fn);
    LinearErrorPredictor p;
    p.Train(d);
    // Least squares fit of x^2 on U[0,1] is ~ x - 1/6.
    EXPECT_NEAR(p.Weights()[0], 1.0, 0.05);
    EXPECT_NEAR(p.Weights()[1], -1.0 / 6.0, 0.03);
}

TEST(LinearPredictorTest, HandlesConstantFeature)
{
    Rng rng(9);
    Dataset d(2, 1);
    for (int i = 0; i < 200; ++i) {
        const double x = rng.Uniform();
        d.Add({x, 0.5}, {2.0 * x});  // second feature constant.
    }
    LinearErrorPredictor p;
    p.Train(d);
    EXPECT_NEAR(p.PredictError({0.25, 0.5}, {}), 0.5, 1e-3);
}

TEST(LinearPredictorTest, CostScalesWithInputs)
{
    const Dataset d = MakeErrorData(100, 6, 11, [](const auto& x) {
        return x[0];
    });
    LinearErrorPredictor p;
    p.Train(d);
    const sim::CheckerCost cost = p.CostPerCheck();
    EXPECT_DOUBLE_EQ(cost.macs, 7.0);  // 6 weights + bias.
    EXPECT_DOUBLE_EQ(cost.compares, 1.0);
    EXPECT_GT(cost.cycles, 0.0);
}

TEST(LinearPredictorTest, IsInputBased)
{
    LinearErrorPredictor p;
    EXPECT_TRUE(p.IsInputBased());
    EXPECT_EQ(p.Name(), "linearErrors");
}

// ----------------------------------------------------------------- Tree

TEST(TreePredictorTest, LearnsStepFunction)
{
    const auto fn = [](const std::vector<double>& x) {
        return x[0] < 0.5 ? 0.1 : 0.9;
    };
    const Dataset d = MakeErrorData(1000, 1, 13, fn);
    TreeErrorPredictor p;
    p.Train(d);
    EXPECT_NEAR(p.PredictError({0.1}, {}), 0.1, 0.05);
    EXPECT_NEAR(p.PredictError({0.9}, {}), 0.9, 0.05);
}

TEST(TreePredictorTest, Learns2dQuadrants)
{
    const auto fn = [](const std::vector<double>& x) {
        return (x[0] < 0.5) == (x[1] < 0.5) ? 0.0 : 1.0;
    };
    const Dataset d = MakeErrorData(4000, 2, 17, fn);
    TreeErrorPredictor p;
    p.Train(d);
    EXPECT_LT(p.PredictError({0.2, 0.2}, {}), 0.25);
    EXPECT_GT(p.PredictError({0.2, 0.8}, {}), 0.75);
    EXPECT_GT(p.PredictError({0.8, 0.2}, {}), 0.75);
    EXPECT_LT(p.PredictError({0.8, 0.8}, {}), 0.25);
}

TEST(TreePredictorTest, RespectsDepthCap)
{
    // A hard target forces deep growth; depth must stay at the
    // paper's cap of 7.
    const auto fn = [](const std::vector<double>& x) {
        return std::sin(40.0 * x[0]);
    };
    const Dataset d = MakeErrorData(5000, 1, 19, fn);
    TreeErrorPredictor p;
    p.Train(d);
    EXPECT_LE(p.Depth(), 7u);
    EXPECT_GT(p.NumNodes(), 1u);
}

TEST(TreePredictorTest, ConfigurableDepth)
{
    const auto fn = [](const std::vector<double>& x) {
        return std::sin(40.0 * x[0]);
    };
    const Dataset d = MakeErrorData(5000, 1, 19, fn);
    TreeErrorPredictor::Options opt;
    opt.max_depth = 3;
    TreeErrorPredictor p(opt);
    p.Train(d);
    EXPECT_LE(p.Depth(), 3u);
}

TEST(TreePredictorTest, ConstantTargetStaysLeaf)
{
    const Dataset d = MakeErrorData(200, 2, 23, [](const auto&) {
        return 0.25;
    });
    TreeErrorPredictor p;
    p.Train(d);
    EXPECT_EQ(p.NumNodes(), 1u);
    EXPECT_NEAR(p.PredictError({0.5, 0.5}, {}), 0.25, 1e-9);
}

TEST(TreePredictorTest, MinLeafSamplesRespected)
{
    const auto fn = [](const std::vector<double>& x) { return x[0]; };
    const Dataset d = MakeErrorData(64, 1, 29, fn);
    TreeErrorPredictor::Options opt;
    opt.min_leaf_samples = 32;
    TreeErrorPredictor p(opt);
    p.Train(d);
    // 64 samples with a 32-sample floor allows at most one split.
    EXPECT_LE(p.NumNodes(), 3u);
}

TEST(TreePredictorTest, CostTracksDepth)
{
    const auto fn = [](const std::vector<double>& x) {
        return x[0] < 0.5 ? 0.0 : 1.0;
    };
    const Dataset d = MakeErrorData(1000, 1, 31, fn);
    TreeErrorPredictor p;
    p.Train(d);
    const sim::CheckerCost cost = p.CostPerCheck();
    EXPECT_DOUBLE_EQ(cost.compares,
                     static_cast<double>(p.Depth()) + 1.0);
    EXPECT_DOUBLE_EQ(cost.macs, 0.0);  // comparisons only (Fig 7b).
}

TEST(TreePredictorTest, BeatsLinearOnStep)
{
    const auto fn = [](const std::vector<double>& x) {
        return x[0] < 0.3 ? 0.9 : 0.05;
    };
    const Dataset train = MakeErrorData(2000, 1, 37, fn);
    TreeErrorPredictor tree;
    LinearErrorPredictor linear;
    tree.Train(train);
    linear.Train(train);
    double tree_sse = 0.0, linear_sse = 0.0;
    Rng rng(41);
    for (int i = 0; i < 500; ++i) {
        const std::vector<double> x{rng.Uniform()};
        const double y = fn(x);
        tree_sse += std::pow(tree.PredictError(x, {}) - y, 2);
        linear_sse += std::pow(linear.PredictError(x, {}) - y, 2);
    }
    EXPECT_LT(tree_sse, linear_sse * 0.5);
}

TEST(TreePredictorTest, TieHeavyTreesMatchRecordedDigests)
{
    // Serialize() after Train(), recorded from a known-good build,
    // over data that stresses the split search's tie handling: a
    // binary feature (like blackscholes' option type), a feature on
    // eight levels so most quantile positions land on repeated
    // values, a continuous one, a copy of the eight-level feature (its
    // candidates score exactly as the original's, so the first
    // feature must keep winning), and targets quantized to 1/64 so
    // many samples share a target. Nodes grow down to
    // min_leaf_samples. A changed digest means a split or a leaf
    // value moved.
    Rng rng(43);
    Dataset d(4, 1);
    for (int i = 0; i < 600; ++i) {
        const double type = rng.Uniform() < 0.3 ? 1.0 : 0.0;
        const double level = std::floor(rng.Uniform() * 8.0) / 8.0;
        const double x = rng.Uniform();
        const double y = 0.2 * type + 0.5 * level * level +
                         0.1 * std::sin(9.0 * x) + 0.05 * rng.Uniform();
        d.Add({type, level, x, level}, {std::round(y * 64.0) / 64.0});
    }
    struct Case {
        size_t max_depth, min_leaf_samples, candidate_quantiles;
        uint64_t digest;
    };
    const Case cases[] = {
        // The defaults.
        {7, 8, 16, 0x097bebb2b2aaf305ull},
        // A quantile count that does not divide the node sizes.
        {5, 24, 10, 0x652b8895c8c425b3ull},
    };
    for (const Case& c : cases) {
        TreeErrorPredictor::Options opt;
        opt.max_depth = c.max_depth;
        opt.min_leaf_samples = c.min_leaf_samples;
        opt.candidate_quantiles = c.candidate_quantiles;
        TreeErrorPredictor p(opt);
        p.Train(d);
        const std::string blob = p.Serialize();
        EXPECT_EQ(testutil::Fnv1a64(blob), c.digest)
            << "min_leaf " << c.min_leaf_samples << ", " << p.NumNodes()
            << " nodes" << std::hex << ", digest 0x"
            << testutil::Fnv1a64(blob);
    }
}

// ------------------------------------------------------------------ EMA

TEST(EmaTest, FirstElementPrimesWithoutFiring)
{
    EmaDetector ema(8);
    EXPECT_DOUBLE_EQ(ema.PredictError({}, {0.7}), 0.0);
}

TEST(EmaTest, DetectsOutlierInSmoothStream)
{
    EmaDetector ema(8);
    for (int i = 0; i < 50; ++i)
        ema.PredictError({}, {0.5});
    const double spike = ema.PredictError({}, {0.9});
    EXPECT_NEAR(spike, 0.4, 1e-9);
    // Back to normal: deviation shrinks again.
    double after = 0.0;
    for (int i = 0; i < 20; ++i)
        after = ema.PredictError({}, {0.5});
    EXPECT_LT(after, 0.02);
}

TEST(EmaTest, AlphaFromHistory)
{
    EmaDetector ema(9);
    EXPECT_DOUBLE_EQ(ema.Alpha(), 0.2);
}

TEST(EmaTest, ResetClearsState)
{
    EmaDetector ema(4);
    ema.PredictError({}, {0.9});
    ema.PredictError({}, {0.9});
    ema.Reset();
    EXPECT_DOUBLE_EQ(ema.PredictError({}, {0.1}), 0.0);
}

TEST(EmaTest, MultiDimensionalDeviation)
{
    EmaDetector ema(8);
    ema.PredictError({}, {0.5, 0.5});
    const double dev = ema.PredictError({}, {0.7, 0.9});
    // Mean of |0.2| and |0.4|.
    EXPECT_NEAR(dev, 0.3, 1e-9);
}

TEST(EmaTest, TracksSlowDrift)
{
    EmaDetector ema(4);
    double worst = 0.0;
    double level = 0.2;
    ema.PredictError({}, {level});
    for (int i = 0; i < 100; ++i) {
        level += 0.002;  // slow drift stays under the radar.
        worst = std::max(worst, ema.PredictError({}, {level}));
    }
    EXPECT_LT(worst, 0.02);
}

TEST(EmaTest, IsOutputBasedAndUntrained)
{
    EmaDetector ema;
    EXPECT_FALSE(ema.IsInputBased());
    Dataset dummy(1, 1);
    dummy.Add({0.0}, {0.0});
    ema.Train(dummy);  // must be a harmless no-op.
    EXPECT_EQ(ema.Name(), "EMA");
}

// ------------------------------------------------------------------ EVP

TEST(EvpTest, PredictsOutputsAndDerivesError)
{
    Rng rng(43);
    Dataset d(1, 1);
    for (int i = 0; i < 500; ++i) {
        const double x = rng.Uniform();
        d.Add({x}, {2.0 * x + 0.1});  // exact outputs.
    }
    ValuePredictionError evp;
    evp.Train(d);
    // Accelerator output equal to the exact value -> ~zero error.
    EXPECT_NEAR(evp.PredictError({0.4}, {0.9}), 0.0, 1e-6);
    // Accelerator output off by 0.3 -> ~0.3 predicted error.
    EXPECT_NEAR(evp.PredictError({0.4}, {1.2}), 0.3, 1e-6);
}

TEST(EvpTest, MultiOutput)
{
    Rng rng(47);
    Dataset d(1, 2);
    for (int i = 0; i < 500; ++i) {
        const double x = rng.Uniform();
        d.Add({x}, {x, 1.0 - x});
    }
    ValuePredictionError evp;
    evp.Train(d);
    EXPECT_NEAR(evp.PredictError({0.3}, {0.3, 0.7}), 0.0, 1e-6);
    EXPECT_NEAR(evp.PredictError({0.3}, {0.5, 0.7}), 0.1, 1e-6);
}

TEST(EvpTest, EepBeatsEvpOnValueIndependentError)
{
    // Errors depend on the input but not via the output's linear
    // trend: EEP regresses them directly; EVP must first predict a
    // *nonlinear* output with a linear model and fails.
    Rng rng(53);
    Dataset exact(1, 1);   // for EVP: x -> exact output (nonlinear).
    Dataset errors(1, 1);  // for EEP: x -> |approx - exact|.
    std::vector<std::vector<double>> inputs;
    std::vector<std::vector<double>> approx;
    std::vector<double> true_err;
    for (int i = 0; i < 2000; ++i) {
        const double x = rng.Uniform();
        const double out = std::sin(6.0 * x);  // nonlinear output.
        const double err = 0.3 * x;            // simple error trend.
        exact.Add({x}, {out});
        errors.Add({x}, {err});
        inputs.push_back({x});
        approx.push_back({out + err});
        true_err.push_back(err);
    }
    ValuePredictionError evp;
    evp.Train(exact);
    LinearErrorPredictor eep;
    eep.Train(errors);
    double evp_dist = 0.0, eep_dist = 0.0;
    for (size_t i = 0; i < inputs.size(); ++i) {
        evp_dist +=
            std::fabs(evp.PredictError(inputs[i], approx[i]) -
                      true_err[i]);
        eep_dist +=
            std::fabs(eep.PredictError(inputs[i], approx[i]) -
                      true_err[i]);
    }
    // The paper's Section 3.2 observation: EEP is markedly closer.
    EXPECT_LT(eep_dist * 2.0, evp_dist);
}

}  // namespace
}  // namespace rumba::predict
