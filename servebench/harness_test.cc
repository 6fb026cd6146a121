// Self-tests of the serving benchmark's own arithmetic (harness.h).
#include "harness.h"

#include <gtest/gtest.h>

#include <numeric>

namespace servebench {
namespace {

std::vector<double>
OneTo(size_t n)
{
    std::vector<double> v(n);
    std::iota(v.begin(), v.end(), 1.0);
    return v;
}

TEST(Percentile, NearestRankWithTenBeyond)
{
    // 1000 samples: p99 is the 990th, with exactly ten beyond it.
    const auto p99 = Percentile(OneTo(1000), 99.0);
    ASSERT_TRUE(p99.has_value());
    EXPECT_DOUBLE_EQ(*p99, 990.0);
    EXPECT_DOUBLE_EQ(*Percentile(OneTo(1000), 50.0), 500.0);
}

TEST(Percentile, RefusesTailsShorterThanTenSamples)
{
    EXPECT_FALSE(Percentile(OneTo(999), 99.0).has_value());
    EXPECT_TRUE(Percentile(OneTo(999), 98.0).has_value());
    EXPECT_FALSE(Percentile({}, 50.0).has_value());
    // With the guard off, a single sample is its own median.
    EXPECT_DOUBLE_EQ(*Percentile({7.0}, 50.0, 0), 7.0);
}

TEST(Percentile, IgnoresInputOrder)
{
    std::vector<double> v = OneTo(2000);
    std::reverse(v.begin(), v.end());
    EXPECT_DOUBLE_EQ(*Percentile(v, 99.0), 1980.0);
}

TEST(WindowMedian, OneStalledWindowCannotMoveIt)
{
    // Ten windows of 100 elements at 10 ns/elem, one stalled at 37x.
    std::vector<double> num(10, 1000.0), den(10, 100.0);
    num[3] = 37000.0;
    EXPECT_DOUBLE_EQ(WindowedRatioMedian(num, den, 100.0), 10.0);
    EXPECT_DOUBLE_EQ(Median({1.0, 9.0, 2.0, 8.0}), 5.0);
    EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
}

TEST(WindowMedian, SumsSamplesUntilTheWindowIsFull)
{
    // Samples of 1 element each, windows of 4: ratios 1, 2, 3; the
    // short trailing window (2 samples) is dropped.
    const std::vector<double> num = {1, 1, 1, 1, 2, 2, 2, 2,
                                     3, 3, 3, 3, 50, 50};
    const std::vector<double> den(num.size(), 1.0);
    EXPECT_DOUBLE_EQ(WindowedRatioMedian(num, den, 4.0), 2.0);
    // Too little for one window: the partial one is all there is.
    EXPECT_DOUBLE_EQ(WindowedRatioMedian({6.0}, {2.0}, 100.0), 3.0);
}

StepOutcome
Step(double p99, bool backlog = false, size_t failed = 0)
{
    StepOutcome s;
    s.attempted = 1000;
    s.failed = failed;
    s.p99_ms = p99;
    s.backlog_grew = backlog;
    return s;
}

TEST(Ladder, FirstFailingRungEndsTheSearch)
{
    std::vector<double> ran;
    const LadderResult r = SearchLadder(
        {100, 200, 300, 400}, 10.0, [&](double rate) {
            ran.push_back(rate);
            // 300 misses the limit; 400 would pass but never runs.
            return Step(rate == 300 ? 12.0 : 5.0);
        });
    EXPECT_DOUBLE_EQ(r.max_rate_rps, 200.0);
    // The failing rung got its second attempt, nothing above it ran.
    EXPECT_EQ(ran, (std::vector<double>{100, 200, 300, 300}));
    ASSERT_EQ(r.steps.size(), 4u);
    EXPECT_FALSE(r.steps.back().Passes(10.0));
}

TEST(Ladder, OneMissedAttemptDoesNotEndTheSearch)
{
    size_t calls = 0;
    const LadderResult r = SearchLadder(
        {100, 200, 300}, 10.0, [&](double rate) {
            ++calls;
            // The first attempt at 200 hits a stall; its retry passes.
            return Step(rate == 200 && calls == 2 ? 80.0 : 5.0);
        });
    EXPECT_DOUBLE_EQ(r.max_rate_rps, 300.0);
    EXPECT_EQ(r.steps.size(), 4u);
    // With a single attempt the same stall would have stopped it.
    calls = 0;
    const LadderResult once = SearchLadder(
        {100, 200, 300}, 10.0,
        [&](double rate) {
            ++calls;
            return Step(rate == 200 && calls == 2 ? 80.0 : 5.0);
        },
        1);
    EXPECT_DOUBLE_EQ(once.max_rate_rps, 100.0);
}

TEST(Ladder, GrowingBacklogOrAFailureAlsoStops)
{
    const LadderResult backlog = SearchLadder(
        {100, 200, 300}, 10.0,
        [](double rate) { return Step(1.0, rate >= 200); });
    EXPECT_DOUBLE_EQ(backlog.max_rate_rps, 100.0);
    EXPECT_EQ(backlog.steps.size(), 3u);

    const LadderResult failed = SearchLadder(
        {100, 200}, 10.0, [](double) { return Step(1.0, false, 1); });
    EXPECT_DOUBLE_EQ(failed.max_rate_rps, 0.0);
    EXPECT_EQ(failed.steps.size(), 2u);

    // A step too short for a p99 cannot pass either.
    const LadderResult thin = SearchLadder({100}, 10.0, [](double) {
        StepOutcome s;
        s.attempted = 50;
        return s;
    });
    EXPECT_DOUBLE_EQ(thin.max_rate_rps, 0.0);

    const LadderResult all = SearchLadder(
        {100, 200}, 10.0, [](double) { return Step(9.99); });
    EXPECT_DOUBLE_EQ(all.max_rate_rps, 200.0);
}

TEST(Schedule, SeededPoissonArrivals)
{
    const auto a = PoissonSchedule(1000.0, 2.0, 42);
    const auto b = PoissonSchedule(1000.0, 2.0, 42);
    const auto c = PoissonSchedule(1000.0, 2.0, 43);
    ASSERT_EQ(a.size(), 2000u);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
    // 2000 exponential gaps of mean 1 ms span about 2 s.
    EXPECT_NEAR(static_cast<double>(a.back()) * 1e-9, 2.0, 0.2);
}

TEST(Schedule, LatenessCountsOnlyLateSends)
{
    const std::vector<uint64_t> due = {1000, 2000, 3000, 4000};
    const std::vector<uint64_t> sent = {1500, 1900, 3000, 9000};
    const std::vector<double> late = LatenessUs(due, sent);
    EXPECT_EQ(late, (std::vector<double>{0.5, 0.0, 0.0, 5.0}));
    // 990 on-time sends and ten 2 us late: p99 still reads on time,
    // an eleventh late send moves it.
    std::vector<uint64_t> d(1000, 0), s(1000, 0);
    for (size_t i = 0; i < 10; ++i)
        s[i] = 2000;
    EXPECT_DOUBLE_EQ(*Percentile(LatenessUs(d, s), 99.0), 0.0);
    s[10] = 2000;
    EXPECT_DOUBLE_EQ(*Percentile(LatenessUs(d, s), 99.0), 2.0);
}

TEST(Spans, SelfTimeSubtractsCoveredChildTime)
{
    std::vector<Span> spans = {
        {0, -1, 1, 100, 200},  // parent: 100 ns
        {1, 0, 1, 110, 130},   // child
        {2, 0, 1, 120, 150},   // overlaps the first child
        {3, 0, 1, 190, 260},   // runs past the parent's end
        {4, 1, 1, 112, 115},   // grandchild: only its parent loses it
    };
    const std::vector<uint64_t> self = SelfTimes(spans);
    EXPECT_EQ(self[0], 100u - 40u - 10u);
    EXPECT_EQ(self[1], 17u);
    EXPECT_EQ(self[2], 30u);
    EXPECT_EQ(self[3], 70u);
    EXPECT_EQ(self[4], 3u);
}

}  // namespace
}  // namespace servebench
