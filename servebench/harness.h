#ifndef SERVEBENCH_HARNESS_H_
#define SERVEBENCH_HARNESS_H_

/**
 * @file
 * The serving benchmark's own arithmetic, kept free of any Rumba type
 * so harness_test.cc can pin it: nearest-rank percentiles with a
 * tail-size guard, medians over short windows, the rate-ladder stop
 * rule, the seeded open-loop schedule and its lateness, and span self
 * times.
 */

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <random>
#include <vector>

namespace servebench {

/** Samples a percentile must leave beyond it to be reported. */
inline constexpr size_t kMinTailSamples = 10;

/**
 * Nearest-rank @p pct percentile of @p values (0 < pct < 100): the
 * smallest sample with at least pct% of the samples at or below it.
 * Empty when fewer than @p min_beyond samples lie strictly beyond
 * that rank, so a p99 is only reported from 100 x min_beyond samples.
 */
inline std::optional<double>
Percentile(std::vector<double> values, double pct,
           size_t min_beyond = kMinTailSamples)
{
    if (values.empty() || !(pct > 0.0) || !(pct < 100.0))
        return std::nullopt;
    const size_t n = values.size();
    const size_t rank = static_cast<size_t>(
        std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9));
    const size_t index = std::max<size_t>(rank, 1) - 1;
    if (n - (index + 1) < min_beyond)
        return std::nullopt;
    std::nth_element(values.begin(),
                     values.begin() + static_cast<ptrdiff_t>(index),
                     values.end());
    return values[index];
}

/** Median (mean of the middle pair for an even count); NaN if empty. */
inline double
Median(std::vector<double> values)
{
    if (values.empty())
        return std::nan("");
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/**
 * Median over windows of a ratio: consecutive (numerator,
 * denominator) samples are summed into windows until the window's
 * denominator reaches @p min_den, each window yields num / den, and
 * the median of those ratios is returned. A trailing window short of
 * @p min_den is dropped unless it is the only one. One stalled window
 * moves the result by at most one rank.
 */
inline double
WindowedRatioMedian(const std::vector<double>& num,
                    const std::vector<double>& den, double min_den)
{
    std::vector<double> ratios;
    double n = 0.0, d = 0.0;
    for (size_t i = 0; i < num.size() && i < den.size(); ++i) {
        n += num[i];
        d += den[i];
        if (d >= min_den && d > 0.0) {
            ratios.push_back(n / d);
            n = d = 0.0;
        }
    }
    if (ratios.empty() && d > 0.0)
        ratios.push_back(n / d);
    return Median(ratios);
}

/** What one offered-rate step of the ladder measured. */
struct StepOutcome {
    double rate_rps = 0.0;
    size_t attempted = 0;
    size_t failed = 0;             ///< any non-served or degraded request.
    std::optional<double> p99_ms;  ///< empty: too few samples.
    /** Queued work left when sending stopped took longer than one
     *  latency limit to clear. */
    bool backlog_grew = false;

    bool
    Passes(double p99_limit_ms) const
    {
        return failed == 0 && !backlog_grew && p99_ms.has_value() &&
               *p99_ms < p99_limit_ms;
    }
};

/** The ladder's answer plus every step it ran. */
struct LadderResult {
    double max_rate_rps = 0.0;  ///< 0 when the first rung fails.
    std::vector<StepOutcome> steps;
};

/** Attempts a rung gets: one stall on a shared host must not end the
 *  search, an overload misses every attempt. */
inline constexpr size_t kRungAttempts = 2;

/**
 * Walk @p rates (ascending) with @p run_step and stop at the first
 * rung whose every attempt misses the limit, grows a backlog or fails
 * a request; the answer is the last rate that passed. Rungs above the
 * first failure are never run: overload left behind by one step would
 * otherwise leak into the next.
 */
inline LadderResult
SearchLadder(const std::vector<double>& rates, double p99_limit_ms,
             const std::function<StepOutcome(double)>& run_step,
             size_t attempts = kRungAttempts)
{
    LadderResult result;
    for (const double rate : rates) {
        bool pass = false;
        for (size_t a = 0; a < attempts && !pass; ++a) {
            StepOutcome step = run_step(rate);
            step.rate_rps = rate;
            pass = step.Passes(p99_limit_ms);
            result.steps.push_back(step);
        }
        if (!pass)
            break;
        result.max_rate_rps = rate;
    }
    return result;
}

/**
 * Poisson arrival offsets (ns from phase start) for @p rate_rps over
 * @p duration_s, drawn from @p seed before the phase starts. The
 * count is fixed by rate x duration so every seed offers the same
 * number of requests; the gaps are exponential.
 */
inline std::vector<uint64_t>
PoissonSchedule(double rate_rps, double duration_s, uint64_t seed)
{
    const size_t count = static_cast<size_t>(
        std::llround(rate_rps * duration_s));
    std::vector<uint64_t> offsets;
    offsets.reserve(count);
    std::mt19937_64 rng(seed);
    std::exponential_distribution<double> gap(rate_rps * 1e-9);
    double t = 0.0;
    for (size_t i = 0; i < count; ++i) {
        t += gap(rng);
        offsets.push_back(static_cast<uint64_t>(t));
    }
    return offsets;
}

/** How late each send left against its scheduled time, in
 *  microseconds (early sends count as 0). */
inline std::vector<double>
LatenessUs(const std::vector<uint64_t>& scheduled_ns,
           const std::vector<uint64_t>& sent_ns)
{
    std::vector<double> late;
    late.reserve(scheduled_ns.size());
    for (size_t i = 0; i < scheduled_ns.size() && i < sent_ns.size();
         ++i) {
        late.push_back(sent_ns[i] > scheduled_ns[i]
                           ? static_cast<double>(sent_ns[i] -
                                                 scheduled_ns[i]) *
                                 1e-3
                           : 0.0);
    }
    return late;
}

/** One recorded span: [start, end) on the steady clock. */
struct Span {
    uint32_t name = 0;  ///< index into the run's span-name table.
    int32_t parent = -1;  ///< index of the causing span, -1 = root.
    uint64_t request = 0;  ///< request index the span belongs to.
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
};

/**
 * Self time of every span: its duration minus the part of its
 * interval covered by its direct children (overlapping children are
 * merged, and child time outside the parent is ignored).
 */
inline std::vector<uint64_t>
SelfTimes(const std::vector<Span>& spans)
{
    std::vector<std::vector<std::pair<uint64_t, uint64_t>>> kids(
        spans.size());
    for (const Span& s : spans) {
        if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size())
            kids[static_cast<size_t>(s.parent)].push_back(
                {s.start_ns, s.end_ns});
    }
    std::vector<uint64_t> self(spans.size(), 0);
    for (size_t i = 0; i < spans.size(); ++i) {
        const uint64_t lo = spans[i].start_ns;
        const uint64_t hi = std::max(lo, spans[i].end_ns);
        auto& iv = kids[i];
        std::sort(iv.begin(), iv.end());
        uint64_t covered = 0, cur_lo = 0, cur_hi = 0;
        bool open = false;
        for (auto [a, b] : iv) {
            a = std::clamp(a, lo, hi);
            b = std::clamp(b, lo, hi);
            if (b <= a)
                continue;
            if (open && a <= cur_hi) {
                cur_hi = std::max(cur_hi, b);
                continue;
            }
            if (open)
                covered += cur_hi - cur_lo;
            cur_lo = a;
            cur_hi = b;
            open = true;
        }
        if (open)
            covered += cur_hi - cur_lo;
        self[i] = (hi - lo) - covered;
    }
    return self;
}

}  // namespace servebench

#endif  // SERVEBENCH_HARNESS_H_
