// Unit tests for the support library: RNG, statistics, matrix,
// dataset, images, generators, and the table printer.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <vector>

#include "common/dataset.h"
#include "common/logging.h"
#include "common/image.h"
#include "common/imagegen.h"
#include "common/matrix.h"
#include "common/random.h"
#include "common/ring.h"
#include "common/statistics.h"
#include "common/table.h"

namespace rumba {
namespace {

// ---------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.Next() == b.Next();
    EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.Uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(RngTest, UniformRangeRespectsBounds)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.Uniform(-3.0, 5.0);
        EXPECT_GE(u, -3.0);
        EXPECT_LT(u, 5.0);
    }
}

TEST(RngTest, UniformMeanIsCentered)
{
    Rng rng(3);
    OnlineStats stats;
    for (int i = 0; i < 100000; ++i)
        stats.Add(rng.Uniform());
    EXPECT_NEAR(stats.Mean(), 0.5, 0.01);
}

TEST(RngTest, BelowStaysBelow)
{
    Rng rng(9);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.Below(17), 17u);
}

TEST(RngTest, BelowCoversAllResidues)
{
    Rng rng(11);
    std::set<uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.Below(7));
    EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, RangeInclusive)
{
    Rng rng(13);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const int64_t v = rng.Range(-2, 2);
        EXPECT_GE(v, -2);
        EXPECT_LE(v, 2);
        saw_lo |= v == -2;
        saw_hi |= v == 2;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(RngTest, GaussianMoments)
{
    Rng rng(17);
    OnlineStats stats;
    for (int i = 0; i < 200000; ++i)
        stats.Add(rng.Gaussian());
    EXPECT_NEAR(stats.Mean(), 0.0, 0.02);
    EXPECT_NEAR(stats.StdDev(), 1.0, 0.02);
}

TEST(RngTest, GaussianScaled)
{
    Rng rng(19);
    OnlineStats stats;
    for (int i = 0; i < 100000; ++i)
        stats.Add(rng.Gaussian(5.0, 2.0));
    EXPECT_NEAR(stats.Mean(), 5.0, 0.05);
    EXPECT_NEAR(stats.StdDev(), 2.0, 0.05);
}

TEST(RngTest, ChanceProbability)
{
    Rng rng(23);
    int hits = 0;
    for (int i = 0; i < 100000; ++i)
        hits += rng.Chance(0.3);
    EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(RngTest, ShufflePreservesElements)
{
    Rng rng(29);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
    auto copy = v;
    rng.Shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, copy);
}

TEST(RngTest, SplitProducesIndependentStream)
{
    Rng a(31);
    Rng b = a.Split();
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.Next() == b.Next();
    EXPECT_LT(same, 2);
}

// ---------------------------------------------------------- OnlineStats

TEST(OnlineStatsTest, EmptyIsZero)
{
    OnlineStats s;
    EXPECT_EQ(s.Count(), 0u);
    EXPECT_EQ(s.Mean(), 0.0);
    EXPECT_EQ(s.Variance(), 0.0);
}

TEST(OnlineStatsTest, KnownMoments)
{
    OnlineStats s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.Add(v);
    EXPECT_DOUBLE_EQ(s.Mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.Variance(), 4.0);
    EXPECT_DOUBLE_EQ(s.StdDev(), 2.0);
    EXPECT_EQ(s.Min(), 2.0);
    EXPECT_EQ(s.Max(), 9.0);
    EXPECT_DOUBLE_EQ(s.Sum(), 40.0);
}

TEST(OnlineStatsTest, MergeMatchesCombined)
{
    Rng rng(5);
    OnlineStats all, left, right;
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.Gaussian(3.0, 1.5);
        all.Add(v);
        (i % 2 ? left : right).Add(v);
    }
    left.Merge(right);
    EXPECT_EQ(left.Count(), all.Count());
    EXPECT_NEAR(left.Mean(), all.Mean(), 1e-9);
    EXPECT_NEAR(left.Variance(), all.Variance(), 1e-9);
}

TEST(OnlineStatsTest, MergeWithEmpty)
{
    OnlineStats a, b;
    a.Add(1.0);
    a.Add(3.0);
    a.Merge(b);
    EXPECT_EQ(a.Count(), 2u);
    b.Merge(a);
    EXPECT_EQ(b.Count(), 2u);
    EXPECT_DOUBLE_EQ(b.Mean(), 2.0);
}

// ------------------------------------------------------------ Percentile

TEST(PercentileTest, MedianOfOddSet)
{
    EXPECT_DOUBLE_EQ(Percentile({3, 1, 2}, 50.0), 2.0);
}

TEST(PercentileTest, Extremes)
{
    std::vector<double> v{5, 1, 9, 3};
    EXPECT_DOUBLE_EQ(Percentile(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(Percentile(v, 100.0), 9.0);
}

TEST(PercentileTest, Interpolates)
{
    EXPECT_DOUBLE_EQ(Percentile({0.0, 10.0}, 25.0), 2.5);
}

TEST(CorrelationTest, PearsonPerfectLinear)
{
    const std::vector<double> a{1, 2, 3, 4, 5};
    const std::vector<double> b{2, 4, 6, 8, 10};
    EXPECT_NEAR(PearsonCorrelation(a, b), 1.0, 1e-12);
    const std::vector<double> c{10, 8, 6, 4, 2};
    EXPECT_NEAR(PearsonCorrelation(a, c), -1.0, 1e-12);
}

TEST(CorrelationTest, PearsonConstantSeriesIsZero)
{
    const std::vector<double> a{1, 2, 3};
    const std::vector<double> b{5, 5, 5};
    EXPECT_DOUBLE_EQ(PearsonCorrelation(a, b), 0.0);
}

TEST(CorrelationTest, PearsonIndependentNearZero)
{
    Rng rng(101);
    std::vector<double> a(20000), b(20000);
    for (size_t i = 0; i < a.size(); ++i) {
        a[i] = rng.Uniform();
        b[i] = rng.Uniform();
    }
    EXPECT_NEAR(PearsonCorrelation(a, b), 0.0, 0.03);
}

TEST(CorrelationTest, SpearmanMonotoneNonlinear)
{
    // y = exp(x) is monotone but nonlinear: Spearman = 1 exactly.
    std::vector<double> a, b;
    Rng rng(103);
    for (int i = 0; i < 500; ++i) {
        const double x = rng.Uniform(-3, 3);
        a.push_back(x);
        b.push_back(std::exp(x));
    }
    EXPECT_NEAR(SpearmanCorrelation(a, b), 1.0, 1e-12);
    EXPECT_LT(PearsonCorrelation(a, b), 0.95);
}

TEST(CorrelationTest, SpearmanHandlesTies)
{
    const std::vector<double> a{1, 1, 2, 2, 3, 3};
    const std::vector<double> b{1, 1, 2, 2, 3, 3};
    EXPECT_NEAR(SpearmanCorrelation(a, b), 1.0, 1e-12);
}

TEST(CdfTest, MonotoneAndComplete)
{
    Rng rng(37);
    std::vector<double> v;
    for (int i = 0; i < 500; ++i)
        v.push_back(rng.Uniform());
    const auto cdf = EmpiricalCdf(v, 20);
    ASSERT_EQ(cdf.size(), 20u);
    for (size_t i = 1; i < cdf.size(); ++i) {
        EXPECT_GE(cdf[i].value, cdf[i - 1].value);
        EXPECT_GT(cdf[i].fraction, cdf[i - 1].fraction);
    }
    EXPECT_DOUBLE_EQ(cdf.back().fraction, 1.0);
}

// ------------------------------------------------------------- Histogram

TEST(HistogramTest, CountsAndCumulative)
{
    Histogram h(0.0, 1.0, 4);
    for (double v : {0.1, 0.3, 0.3, 0.6, 0.9})
        h.Add(v);
    EXPECT_EQ(h.Total(), 5u);
    EXPECT_EQ(h.CountAt(0), 1u);
    EXPECT_EQ(h.CountAt(1), 2u);
    EXPECT_EQ(h.CountAt(2), 1u);
    EXPECT_EQ(h.CountAt(3), 1u);
    EXPECT_NEAR(h.CumulativeFraction(1), 0.6, 1e-12);
    EXPECT_NEAR(h.CumulativeFraction(3), 1.0, 1e-12);
}

TEST(HistogramTest, ClampsOutOfRange)
{
    Histogram h(0.0, 1.0, 2);
    h.Add(-5.0);
    h.Add(7.0);
    EXPECT_EQ(h.CountAt(0), 1u);
    EXPECT_EQ(h.CountAt(1), 1u);
}

TEST(HistogramTest, EdgeValues)
{
    Histogram h(0.0, 10.0, 5);
    EXPECT_DOUBLE_EQ(h.EdgeAt(0), 0.0);
    EXPECT_DOUBLE_EQ(h.EdgeAt(5), 10.0);
}

// ---------------------------------------------------------------- Matrix

TEST(MatrixTest, IdentityMultiply)
{
    Matrix a{{1, 2}, {3, 4}};
    const Matrix r = a.Multiply(Matrix::Identity(2));
    EXPECT_DOUBLE_EQ(r.MaxAbsDiff(a), 0.0);
}

TEST(MatrixTest, KnownProduct)
{
    Matrix a{{1, 2, 3}, {4, 5, 6}};
    Matrix b{{7, 8}, {9, 10}, {11, 12}};
    const Matrix r = a.Multiply(b);
    EXPECT_DOUBLE_EQ(r.At(0, 0), 58.0);
    EXPECT_DOUBLE_EQ(r.At(0, 1), 64.0);
    EXPECT_DOUBLE_EQ(r.At(1, 0), 139.0);
    EXPECT_DOUBLE_EQ(r.At(1, 1), 154.0);
}

TEST(MatrixTest, TransposeRoundTrip)
{
    Matrix a{{1, 2, 3}, {4, 5, 6}};
    const Matrix t = a.Transposed();
    EXPECT_EQ(t.Rows(), 3u);
    EXPECT_EQ(t.Cols(), 2u);
    EXPECT_DOUBLE_EQ(t.Transposed().MaxAbsDiff(a), 0.0);
}

TEST(MatrixTest, AddAndScale)
{
    Matrix a{{1, 2}, {3, 4}};
    const Matrix r = a.Add(a.Scaled(2.0));
    EXPECT_DOUBLE_EQ(r.At(1, 1), 12.0);
}

TEST(MatrixTest, SolveRecoversSolution)
{
    Matrix a{{2, 1, -1}, {-3, -1, 2}, {-2, 1, 2}};
    std::vector<double> x;
    ASSERT_TRUE(a.Solve({8, -11, -3}, &x));
    ASSERT_EQ(x.size(), 3u);
    EXPECT_NEAR(x[0], 2.0, 1e-9);
    EXPECT_NEAR(x[1], 3.0, 1e-9);
    EXPECT_NEAR(x[2], -1.0, 1e-9);
}

TEST(MatrixTest, SolveDetectsSingular)
{
    Matrix a{{1, 2}, {2, 4}};
    std::vector<double> x;
    EXPECT_FALSE(a.Solve({1, 2}, &x));
}

TEST(MatrixTest, SolveNeedsPivoting)
{
    // Zero on the initial diagonal forces a row swap.
    Matrix a{{0, 1}, {1, 0}};
    std::vector<double> x;
    ASSERT_TRUE(a.Solve({3, 5}, &x));
    EXPECT_NEAR(x[0], 5.0, 1e-12);
    EXPECT_NEAR(x[1], 3.0, 1e-12);
}

// --------------------------------------------------------------- Dataset

TEST(DatasetTest, AddAndAccess)
{
    Dataset d(2, 1);
    d.Add({1.0, 2.0}, {3.0});
    ASSERT_EQ(d.Size(), 1u);
    EXPECT_EQ(d.Input(0)[1], 2.0);
    EXPECT_EQ(d.Target(0)[0], 3.0);
}

TEST(DatasetTest, TakeFrontSplits)
{
    Dataset d(1, 1);
    for (int i = 0; i < 10; ++i)
        d.Add({static_cast<double>(i)}, {0.0});
    Dataset front = d.TakeFront(0.3);
    EXPECT_EQ(front.Size(), 3u);
    EXPECT_EQ(d.Size(), 7u);
    EXPECT_EQ(front.Input(0)[0], 0.0);
    EXPECT_EQ(d.Input(0)[0], 3.0);
}

TEST(DatasetTest, ShuffleKeepsPairsAligned)
{
    Dataset d(1, 1);
    for (int i = 0; i < 50; ++i)
        d.Add({static_cast<double>(i)}, {static_cast<double>(i) * 2.0});
    Rng rng(41);
    d.Shuffle(&rng);
    for (size_t i = 0; i < d.Size(); ++i)
        EXPECT_DOUBLE_EQ(d.Target(i)[0], d.Input(i)[0] * 2.0);
}

TEST(NormalizerTest, MapsToUnitAndBack)
{
    Dataset d(2, 1);
    d.Add({0.0, 10.0}, {1.0});
    d.Add({4.0, 30.0}, {5.0});
    Normalizer n;
    n.FitInputs(d);
    const auto lo = n.Apply({0.0, 10.0});
    const auto hi = n.Apply({4.0, 30.0});
    EXPECT_DOUBLE_EQ(lo[0], 0.0);
    EXPECT_DOUBLE_EQ(hi[1], 1.0);
    const auto round = n.Invert(n.Apply({2.0, 20.0}));
    EXPECT_NEAR(round[0], 2.0, 1e-12);
    EXPECT_NEAR(round[1], 20.0, 1e-12);
}

TEST(NormalizerTest, ConstantFeatureMapsToHalf)
{
    Dataset d(1, 1);
    d.Add({3.0}, {0.0});
    d.Add({3.0}, {1.0});
    Normalizer n;
    n.FitInputs(d);
    EXPECT_DOUBLE_EQ(n.Apply({3.0})[0], 0.5);
}

// ----------------------------------------------------------------- Image

TEST(ImageTest, PixelAccessAndClamp)
{
    GrayImage img(4, 3, 0.5);
    img.At(1, 2) = 2.0;
    img.At(0, 0) = -1.0;
    img.Clamp();
    EXPECT_DOUBLE_EQ(img.At(1, 2), 1.0);
    EXPECT_DOUBLE_EQ(img.At(0, 0), 0.0);
}

TEST(ImageTest, AtClampedEdges)
{
    GrayImage img(2, 2);
    img.At(0, 0) = 0.25;
    EXPECT_DOUBLE_EQ(img.AtClamped(-5, -5), 0.25);
    img.At(1, 1) = 0.75;
    EXPECT_DOUBLE_EQ(img.AtClamped(10, 10), 0.75);
}

TEST(ImageTest, MeanIntensity)
{
    GrayImage img(2, 2);
    img.At(0, 0) = 1.0;
    EXPECT_DOUBLE_EQ(img.MeanIntensity(), 0.25);
}

TEST(ImageTest, MeanAbsDiff)
{
    GrayImage a(2, 1, 0.2), b(2, 1, 0.5);
    EXPECT_NEAR(a.MeanAbsDiff(b), 0.3, 1e-12);
}

TEST(ImageTest, PgmRoundTrip)
{
    GrayImage img = GenerateSceneImage(31, 17, 99);
    const std::string path = "/tmp/rumba_test_roundtrip.pgm";
    ASSERT_TRUE(img.WritePgm(path));
    GrayImage loaded;
    ASSERT_TRUE(loaded.ReadPgm(path));
    ASSERT_EQ(loaded.Width(), img.Width());
    ASSERT_EQ(loaded.Height(), img.Height());
    // 8-bit quantization bounds the round-trip error.
    EXPECT_LT(loaded.MeanAbsDiff(img), 1.0 / 255.0);
    std::remove(path.c_str());
}

TEST(ImageTest, ReadMissingFileFails)
{
    GrayImage img;
    EXPECT_FALSE(img.ReadPgm("/tmp/definitely_not_there.pgm"));
}

// -------------------------------------------------------------- Imagegen

TEST(ImagegenTest, DeterministicInSeed)
{
    const GrayImage a = GenerateSceneImage(32, 32, 5);
    const GrayImage b = GenerateSceneImage(32, 32, 5);
    EXPECT_DOUBLE_EQ(a.MeanAbsDiff(b), 0.0);
}

TEST(ImagegenTest, SeedsDiffer)
{
    const GrayImage a = GenerateSceneImage(32, 32, 5);
    const GrayImage b = GenerateSceneImage(32, 32, 6);
    EXPECT_GT(a.MeanAbsDiff(b), 0.01);
}

TEST(ImagegenTest, PixelsInRange)
{
    for (uint64_t seed : {1u, 2u, 3u}) {
        const GrayImage img = GenerateFlowerImage(48, 48, seed);
        for (double p : img.Data()) {
            EXPECT_GE(p, 0.0);
            EXPECT_LE(p, 1.0);
        }
    }
}

TEST(ImagegenTest, FlowerBrightnessVariesAcrossSeeds)
{
    OnlineStats means;
    for (uint64_t s = 0; s < 40; ++s)
        means.Add(GenerateFlowerImage(48, 48, s).MeanIntensity());
    // The population must span a wide brightness range for the
    // mosaic study to be input-dependent.
    EXPECT_GT(means.Max() - means.Min(), 0.2);
}

TEST(ImagegenTest, RampIsMonotone)
{
    const GrayImage img = GenerateRampImage(16, 2);
    for (size_t x = 1; x < img.Width(); ++x)
        EXPECT_GT(img.At(x, 0), img.At(x - 1, 0));
    EXPECT_DOUBLE_EQ(img.At(0, 0), 0.0);
    EXPECT_DOUBLE_EQ(img.At(15, 0), 1.0);
}

TEST(ImagegenTest, CheckerAlternates)
{
    const GrayImage img = GenerateCheckerImage(8, 8, 2);
    EXPECT_DOUBLE_EQ(img.At(0, 0), 0.0);
    EXPECT_DOUBLE_EQ(img.At(2, 0), 1.0);
    EXPECT_DOUBLE_EQ(img.At(2, 2), 0.0);
}

TEST(ImagegenTest, NoiseCoversMidRange)
{
    const GrayImage img = GenerateNoiseImage(64, 64, 77, 3);
    const double mean = img.MeanIntensity();
    EXPECT_GT(mean, 0.3);
    EXPECT_LT(mean, 0.7);
}

// ----------------------------------------------------------------- Table

TEST(TableTest, TextHasHeaderAndRows)
{
    Table t({"app", "value"});
    t.AddRow({"sobel", Table::Num(1.5)});
    const std::string text = t.ToText();
    EXPECT_NE(text.find("app"), std::string::npos);
    EXPECT_NE(text.find("sobel"), std::string::npos);
    EXPECT_NE(text.find("1.50"), std::string::npos);
    EXPECT_EQ(t.Rows(), 1u);
}

TEST(TableTest, CsvQuotesCommas)
{
    Table t({"a"});
    t.AddRow({"x,y"});
    EXPECT_NE(t.ToCsv().find("\"x,y\""), std::string::npos);
}

TEST(TableTest, NumPrecision)
{
    EXPECT_EQ(Table::Num(3.14159, 3), "3.142");
    EXPECT_EQ(Table::Int(-7), "-7");
}

TEST(TableTest, CsvRoundTripFile)
{
    Table t({"a", "b"});
    t.AddRow({"1", "2"});
    const std::string path = "/tmp/rumba_test_table.csv";
    ASSERT_TRUE(t.WriteCsv(path));
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    EXPECT_EQ(line, "a,b");
    std::getline(in, line);
    EXPECT_EQ(line, "1,2");
    std::remove(path.c_str());
}

TEST(TableTest, WriteCsvFailsOnBadPath)
{
    Table t({"a"});
    EXPECT_FALSE(t.WriteCsv("/nonexistent_dir_xyz/table.csv"));
}

TEST(TableTest, CsvQuotesEmbeddedQuotes)
{
    Table t({"a"});
    t.AddRow({"say \"hi\", ok"});
    EXPECT_NE(t.ToCsv().find("\"say \"\"hi\"\", ok\""),
              std::string::npos);
}

TEST(LoggingTest, ThresholdControlsVerbosity)
{
    const LogLevel original = LogThreshold();
    SetLogThreshold(LogLevel::kFatal);
    EXPECT_EQ(LogThreshold(), LogLevel::kFatal);
    // These must be no-ops (nothing observable to assert beyond not
    // crashing, but the threshold accessor round-trips).
    Inform("suppressed %d", 1);
    Warn("suppressed %d", 2);
    SetLogThreshold(original);
    EXPECT_EQ(LogThreshold(), original);
}

TEST(LoggingTest, CheckMacroPassesOnTrue)
{
    RUMBA_CHECK(1 + 1 == 2);  // must not abort.
    SUCCEED();
}

TEST(LoggingTest, CheckMacroAbortsOnFalse)
{
    EXPECT_DEATH(RUMBA_CHECK(1 + 1 == 3), "check failed");
}

// ------------------------------------------------------------- Ring

std::vector<int>
Visited(const Ring<int>& ring)
{
    std::vector<int> out;
    ring.ForEach([&out](int v) { out.push_back(v); });
    return out;
}

TEST(RingTest, FillsInOrderThenOverwritesOldest)
{
    Ring<int> ring(3);
    EXPECT_TRUE(ring.Empty());
    ring.Push(1);
    ring.Push(2);
    EXPECT_EQ(Visited(ring), (std::vector<int>{1, 2}));
    EXPECT_EQ(ring.Newest(), 2);
    ring.Push(3);  // exactly full: nothing overwritten yet.
    EXPECT_EQ(ring.Snapshot(), (std::vector<int>{1, 2, 3}));
    for (int v = 4; v <= 7; ++v) {
        ring.Push(v);  // wraps past the end, seam included.
        EXPECT_EQ(ring.Newest(), v);
    }
    EXPECT_EQ(ring.Snapshot(), (std::vector<int>{5, 6, 7}));
    EXPECT_EQ(Visited(ring), ring.Snapshot());
    EXPECT_EQ(ring.Size(), 3u);
    EXPECT_EQ(ring.Pushed(), 7u);
    // Storage order is slot order: the seventh push wrapped to slot 0.
    EXPECT_EQ(ring.Slots(), (std::vector<int>{7, 5, 6}));
}

TEST(RingTest, ClearRestartsCountsAndZeroCapacityKeepsOne)
{
    Ring<int> ring(0);
    EXPECT_EQ(ring.Capacity(), 1u);
    ring.Push(1);
    ring.Push(2);
    EXPECT_EQ(ring.Snapshot(), (std::vector<int>{2}));
    ring.Clear();
    EXPECT_TRUE(ring.Empty());
    EXPECT_EQ(ring.Pushed(), 0u);
    ring.Push(3);
    EXPECT_EQ(ring.Snapshot(), (std::vector<int>{3}));
}

}  // namespace
}  // namespace rumba
