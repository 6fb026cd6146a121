// Unit tests for the neural-network library: topologies, forward
// pass, backprop training (including a numerical gradient check),
// serialization, and the topology search.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "common/dataset.h"
#include "common/random.h"
#include "digest.h"
#include "nn/activation.h"
#include "nn/mlp.h"
#include "nn/topology.h"
#include "nn/topology_search.h"
#include "nn/trainer.h"

namespace rumba::nn {
namespace {

// -------------------------------------------------------------- Topology

TEST(TopologyTest, ParseAndPrintRoundTrip)
{
    const Topology t = Topology::Parse("6->8->4->1");
    EXPECT_EQ(t.ToString(), "6->8->4->1");
    EXPECT_EQ(t.NumInputs(), 6u);
    EXPECT_EQ(t.NumOutputs(), 1u);
    EXPECT_EQ(t.NumHiddenLayers(), 2u);
}

TEST(TopologyTest, NeuronAndMacCounts)
{
    const Topology t = Topology::Parse("6->8->4->1");
    EXPECT_EQ(t.NumNeurons(), 13u);
    // 8*(6+1) + 4*(8+1) + 1*(4+1) = 56 + 36 + 5.
    EXPECT_EQ(t.MacsPerInvocation(), 97u);
}

TEST(TopologyTest, TwoLayerMinimum)
{
    const Topology t = Topology::Parse("3->2");
    EXPECT_EQ(t.NumHiddenLayers(), 0u);
    EXPECT_EQ(t.MacsPerInvocation(), 2u * 4u);
}

TEST(TopologyTest, TryParseTakesOnlyWholeBoundedTokens)
{
    for (const char* bad :
         {"", "4", "4x->8->1", "6->8->1junk", "2-> 3", " 2->3", "+2->3",
          "-2->3", "2->0", "4->8->", "->4->8", "4-->8", "1->4097->1",
          "1->4000000000->1", "1->99999999999999999999->1",
          "1->1->1->1->1->1->1->1->1->1->1->1->1->1->1->1->1"})
        EXPECT_FALSE(Topology::TryParse(bad).has_value()) << bad;
    ASSERT_TRUE(Topology::TryParse("1->4096->1").has_value());
    const std::optional<Topology> deep = Topology::TryParse(
        "1->1->1->1->1->1->1->1->1->1->1->1->1->1->1->1");
    ASSERT_TRUE(deep.has_value());
    EXPECT_EQ(deep->layers.size(), Topology::kMaxLayers);
}

// ------------------------------------------------------------ Activation

TEST(ActivationTest, SigmoidValues)
{
    EXPECT_DOUBLE_EQ(Evaluate(Activation::kSigmoid, 0.0), 0.5);
    EXPECT_NEAR(Evaluate(Activation::kSigmoid, 100.0), 1.0, 1e-12);
    EXPECT_NEAR(Evaluate(Activation::kSigmoid, -100.0), 0.0, 1e-12);
}

TEST(ActivationTest, DerivativesMatchNumeric)
{
    for (auto act : {Activation::kSigmoid, Activation::kTanh,
                     Activation::kLinear}) {
        for (double x : {-1.5, -0.2, 0.0, 0.7, 2.0}) {
            const double h = 1e-6;
            const double numeric =
                (Evaluate(act, x + h) - Evaluate(act, x - h)) / (2 * h);
            const double analytic =
                DerivativeFromOutput(act, Evaluate(act, x));
            EXPECT_NEAR(analytic, numeric, 1e-6)
                << Name(act) << " at " << x;
        }
    }
}

// ------------------------------------------------------------------- Mlp

TEST(MlpTest, ForwardOnHandWeights)
{
    // One sigmoid neuron: out = sigmoid(2*x + 1).
    Mlp mlp(Topology::Parse("1->1"));
    mlp.MutableLayers()[0].W(0, 0) = 2.0;
    mlp.MutableLayers()[0].Bias(0) = 1.0;
    const auto out = mlp.Forward({0.5});
    EXPECT_NEAR(out[0], 1.0 / (1.0 + std::exp(-2.0)), 1e-12);
}

TEST(MlpTest, LinearOutputLayer)
{
    Mlp mlp(Topology::Parse("2->1"), Activation::kSigmoid,
            Activation::kLinear);
    mlp.MutableLayers()[0].W(0, 0) = 3.0;
    mlp.MutableLayers()[0].W(0, 1) = -1.0;
    mlp.MutableLayers()[0].Bias(0) = 0.5;
    const auto out = mlp.Forward({1.0, 2.0});
    EXPECT_DOUBLE_EQ(out[0], 3.0 - 2.0 + 0.5);
}

TEST(MlpTest, NumParameters)
{
    Mlp mlp(Topology::Parse("6->8->4->1"));
    EXPECT_EQ(mlp.NumParameters(), 97u);
}

TEST(MlpTest, SerializeRoundTrip)
{
    Rng rng(11);
    Mlp mlp(Topology::Parse("4->6->2"), Activation::kTanh,
            Activation::kLinear);
    mlp.RandomizeWeights(&rng);
    const Mlp copy = Mlp::TryDeserialize(mlp.Serialize()).value();
    const std::vector<double> in{0.2, 0.4, 0.6, 0.8};
    const auto a = mlp.Forward(in);
    const auto b = copy.Forward(in);
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_DOUBLE_EQ(a[i], b[i]);
}

// ----------------------------------------------------- Gradient checking

/** MSE loss of the network on a single sample. */
double
SampleLoss(const Mlp& mlp, const std::vector<double>& in,
           const std::vector<double>& target)
{
    const auto out = mlp.Forward(in);
    double loss = 0.0;
    for (size_t i = 0; i < out.size(); ++i) {
        const double d = out[i] - target[i];
        loss += 0.5 * d * d;
    }
    return loss;
}

TEST(TrainerTest, BackpropMatchesNumericGradient)
{
    // Train exactly one plain-SGD step (no momentum, single sample)
    // and compare the resulting weights with w - lr * numeric_grad.
    // Train() seeds its own Rng and randomizes weights first; we
    // replicate that initialization to know the starting point.
    const uint64_t seed = 17;
    const std::vector<double> in{0.3, 0.8};
    const std::vector<double> target{0.2, 0.9};

    Mlp start(Topology::Parse("2->3->2"));
    {
        Rng rng(seed);
        start.RandomizeWeights(&rng);
    }

    // Numerical gradient of the 0.5*sum(d^2) loss at the start point.
    const double h = 1e-6;
    std::vector<std::vector<double>> numeric;
    for (size_t li = 0; li < start.Layers().size(); ++li) {
        numeric.emplace_back();
        for (size_t k = 0; k < start.Layers()[li].weights.size(); ++k) {
            Mlp plus = start, minus = start;
            plus.MutableLayers()[li].weights[k] += h;
            minus.MutableLayers()[li].weights[k] -= h;
            numeric.back().push_back(
                (SampleLoss(plus, in, target) -
                 SampleLoss(minus, in, target)) /
                (2 * h));
        }
    }

    Dataset d(2, 2);
    d.Add(in, target);
    Mlp trained(Topology::Parse("2->3->2"));
    TrainConfig tc;
    tc.epochs = 1;
    tc.learning_rate = 1e-3;
    tc.momentum = 0.0;
    tc.validation_fraction = 0.0;
    tc.seed = seed;
    Train(&trained, d, tc);

    for (size_t li = 0; li < start.Layers().size(); ++li) {
        for (size_t k = 0; k < start.Layers()[li].weights.size(); ++k) {
            const double expected = start.Layers()[li].weights[k] -
                                    tc.learning_rate * numeric[li][k];
            EXPECT_NEAR(trained.Layers()[li].weights[k], expected, 1e-8)
                << "layer " << li << " weight " << k;
        }
    }
}

TEST(TrainerTest, LearnsLinearFunction)
{
    Rng rng(23);
    Dataset d(2, 1);
    for (int i = 0; i < 600; ++i) {
        const double x = rng.Uniform();
        const double y = rng.Uniform();
        d.Add({x, y}, {0.3 * x + 0.5 * y + 0.1});
    }
    Mlp mlp(Topology::Parse("2->4->1"));
    TrainConfig tc;
    tc.epochs = 150;
    const TrainResult res = Train(&mlp, d, tc);
    EXPECT_LT(res.validation_mse, 1e-3);
}

TEST(TrainerTest, LearnsXor)
{
    Dataset d(2, 1);
    // Oversample the four XOR corners.
    for (int rep = 0; rep < 50; ++rep) {
        d.Add({0, 0}, {0});
        d.Add({0, 1}, {1});
        d.Add({1, 0}, {1});
        d.Add({1, 1}, {0});
    }
    Mlp mlp(Topology::Parse("2->4->1"));
    TrainConfig tc;
    tc.epochs = 400;
    tc.patience = 400;
    tc.seed = 5;
    const TrainResult res = Train(&mlp, d, tc);
    EXPECT_LT(res.train_mse, 0.05);
}

TEST(TrainerTest, DeterministicForSeed)
{
    Rng rng(29);
    Dataset d(1, 1);
    for (int i = 0; i < 200; ++i) {
        const double x = rng.Uniform();
        d.Add({x}, {x * x});
    }
    TrainConfig tc;
    tc.epochs = 30;
    Mlp a(Topology::Parse("1->4->1"));
    Mlp b(Topology::Parse("1->4->1"));
    Train(&a, d, tc);
    Train(&b, d, tc);
    EXPECT_DOUBLE_EQ(a.Forward({0.4})[0], b.Forward({0.4})[0]);
}

TEST(TrainerTest, EarlyStopRespectsPatience)
{
    // Pure-noise targets: validation cannot keep improving, so the
    // patience counter must cut training short.
    Rng rng(31);
    Dataset d(1, 1);
    for (int i = 0; i < 300; ++i)
        d.Add({rng.Uniform()}, {rng.Uniform()});
    TrainConfig tc;
    tc.epochs = 500;
    tc.patience = 10;
    Mlp mlp(Topology::Parse("1->2->1"));
    const TrainResult res = Train(&mlp, d, tc);
    EXPECT_LT(res.epochs_run, 250u);
}

// ------------------------------------------------ Byte-identical weights

/** @p n samples of a smooth @p in_w -> @p out_w map into [0, 1],
 *  plus uniform noise of amplitude @p noise (noise makes validation
 *  stall, so early stopping restores an earlier epoch's weights). */
Dataset
PinnedData(size_t in_w, size_t out_w, size_t n, double noise,
           uint64_t seed)
{
    Rng rng(seed);
    Dataset d(in_w, out_w);
    std::vector<double> x(in_w), t(out_w);
    for (size_t s = 0; s < n; ++s) {
        for (double& v : x)
            v = rng.Uniform();
        for (size_t o = 0; o < out_w; ++o) {
            double acc = 0.0, weight = 0.0;
            for (size_t f = 0; f < in_w; ++f) {
                const double w = 1.0 + static_cast<double>((f + o) % 3);
                acc += w * x[f];
                weight += w;
            }
            const double u = acc / weight;
            t[o] = 0.1 + 0.8 * u * u * (1.5 - 0.5 * u) +
                   noise * (rng.Uniform() - 0.5);
        }
        d.Add(x, t);
    }
    return d;
}

TEST(TrainerTest, WeightsMatchRecordedDigests)
{
    // Digests of Serialize() after Train(), and the bit patterns of
    // the reported MSEs, recorded from a known-good build. Train()
    // must keep every floating-point operation in the order they were
    // recorded with: a changed digest means the trained weights moved,
    // and a changed MSE means the epoch sums moved (SearchTopology
    // ranks candidates by validation_mse), not just the speed.
    struct Case {
        const char* topology;
        Activation hidden, output;
        double noise, validation_fraction;
        size_t epochs, patience;
        uint64_t seed;
        uint64_t digest;
        size_t epochs_run;
        uint64_t train_mse_bits, validation_mse_bits;
    };
    const Case cases[] = {
        // blackscholes' network shape, all sigmoid.
        {"6->8->8->1", Activation::kSigmoid, Activation::kSigmoid, 0.0,
         0.15, 12, 25, 7, 0x63c1242564c9c4f9ull, 12,
         0x3f88b83007ea33ceull, 0x3f8770a256c15a44ull},
        // fft's unchecked-NPU shape with tanh hidden layers and a
        // linear head.
        {"1->4->4->2", Activation::kTanh, Activation::kLinear, 0.0,
         0.15, 12, 25, 3, 0xf51736c2188f38bfull, 12,
         0x3f2ed4adec1664beull, 0x3f312cfe6bad8486ull},
        // The compensator's residual shape: sigmoid hidden, linear head.
        {"3->8->2", Activation::kSigmoid, Activation::kLinear, 0.0, 0.15,
         12, 25, 5, 0xeacbaa1748da8ce3ull, 12,
         0x3f544576c5e88a70ull, 0x3f5088a828db114dull},
        // Linear hidden layer, no validation split (no restore).
        {"4->5->2", Activation::kLinear, Activation::kTanh, 0.0, 0.0, 10,
         25, 9, 0x5697c721e695795cull, 10,
         0x3f4dc9758fdb73a2ull, 0x3f4dc9758fdb73a2ull},
        // Noisy targets and short patience: stops early and restores
        // the best epoch's weights.
        {"2->3->1", Activation::kTanh, Activation::kSigmoid, 0.6, 0.3,
         200, 4, 11, 0x24612d60156ce615ull, 26,
         0x3f9f4d43ee36f96bull, 0x3fa2d4dbfcc4f5b5ull},
    };
    for (const Case& c : cases) {
        const Topology topology = Topology::Parse(c.topology);
        const Dataset d = PinnedData(topology.NumInputs(),
                                     topology.NumOutputs(), 300, c.noise,
                                     c.seed + 100);
        Mlp mlp(topology, c.hidden, c.output);
        TrainConfig tc;
        tc.epochs = c.epochs;
        tc.patience = c.patience;
        tc.validation_fraction = c.validation_fraction;
        tc.seed = c.seed;
        const TrainResult res = Train(&mlp, d, tc);
        EXPECT_EQ(testutil::Fnv1a64(mlp.Serialize()), c.digest)
            << c.topology << std::hex << " digest 0x"
            << testutil::Fnv1a64(mlp.Serialize());
        EXPECT_EQ(res.epochs_run, c.epochs_run) << c.topology;
        EXPECT_EQ(std::bit_cast<uint64_t>(res.train_mse),
                  c.train_mse_bits)
            << c.topology << std::hex << " train_mse bits 0x"
            << std::bit_cast<uint64_t>(res.train_mse);
        EXPECT_EQ(std::bit_cast<uint64_t>(res.validation_mse),
                  c.validation_mse_bits)
            << c.topology << std::hex << " validation_mse bits 0x"
            << std::bit_cast<uint64_t>(res.validation_mse);
    }
}

// -------------------------------------------------------- TopologySearch

TEST(TopologySearchTest, PicksSmallNetForEasyTarget)
{
    Rng rng(37);
    Dataset d(1, 1);
    for (int i = 0; i < 400; ++i) {
        const double x = rng.Uniform();
        d.Add({x}, {0.2 + 0.6 * x});
    }
    SearchConfig cfg;
    cfg.hidden_candidates = {{2}, {16}, {16, 8}};
    cfg.train.epochs = 200;
    cfg.slack = 1.5;
    const SearchResult res = SearchTopology(d, cfg);
    ASSERT_EQ(res.entries.size(), 3u);
    // A linear target is learnable by the smallest candidate, which
    // must win on MACs.
    EXPECT_EQ(res.best.GetTopology().ToString(), "1->2->1");
}

TEST(TopologySearchTest, EntriesCoverAllCandidates)
{
    Rng rng(41);
    Dataset d(2, 1);
    for (int i = 0; i < 300; ++i) {
        const double x = rng.Uniform(), y = rng.Uniform();
        d.Add({x, y}, {x * y});
    }
    SearchConfig cfg;
    cfg.hidden_candidates = {{2}, {4}, {4, 2}};
    cfg.train.epochs = 40;
    const SearchResult res = SearchTopology(d, cfg);
    EXPECT_EQ(res.entries.size(), 3u);
    for (const auto& e : res.entries)
        EXPECT_GT(e.macs, 0u);
}

TEST(TopologySearchTest, RespectsNeuronCap)
{
    Rng rng(43);
    Dataset d(1, 1);
    for (int i = 0; i < 100; ++i)
        d.Add({rng.Uniform()}, {0.5});
    SearchConfig cfg;
    cfg.hidden_candidates = {{33}};
    cfg.train.epochs = 1;
    EXPECT_DEATH(SearchTopology(d, cfg), "check failed");
}

}  // namespace
}  // namespace rumba::nn
