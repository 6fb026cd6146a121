#ifndef RUMBA_OBS_METRICS_H_
#define RUMBA_OBS_METRICS_H_

/**
 * @file
 * Runtime telemetry: a process-wide metrics registry of named
 * counters, gauges, and fixed-bucket histograms. The online
 * quality-management loop (runtime, detector, recovery, tuner, drift
 * monitor, accelerator) registers its instruments here; exporters
 * (obs/export.h) snapshot the registry into JSONL/CSV/tables.
 *
 * Concurrency: counters and gauges are lock-free atomics. Each
 * histogram has its own mutex, taken once per observation; it is
 * shared by every thread that observes that histogram, so per-element
 * timers such as npu.invoke_ns and detector.check_ns contend on it
 * across serving shards. Registration takes a registry-wide mutex and
 * returns pointers that stay valid for the registry's lifetime.
 */

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace rumba::obs {

/** A monotonically increasing event count. */
class Counter {
  public:
    /** Add @p n events. */
    void
    Increment(uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    /** Current count. */
    uint64_t
    Value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    /** Zero the count (tests / between runs). */
    void Reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<uint64_t> value_{0};
};

/**
 * A monotonically increasing fractional total (e.g. CPU seconds).
 * Same contract as Counter but accumulates doubles, for quantities
 * that grow by sub-integer amounts per event.
 */
class DoubleCounter {
  public:
    /** Add @p delta (callers only pass non-negative deltas). */
    void
    Add(double delta)
    {
        value_.fetch_add(delta, std::memory_order_relaxed);
    }

    /** Current total. */
    double
    Value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    /** Zero the total (tests / between runs). */
    void Reset() { value_.store(0.0, std::memory_order_relaxed); }

  private:
    std::atomic<double> value_{0.0};
};

/** A last-value-wins instantaneous measurement. */
class Gauge {
  public:
    /** Record the current value. */
    void
    Set(double value)
    {
        value_.store(value, std::memory_order_relaxed);
    }

    /** Most recently set value. */
    double
    Value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    /** Reset to zero. */
    void Reset() { value_.store(0.0, std::memory_order_relaxed); }

  private:
    std::atomic<double> value_{0.0};
};

/** Point-in-time view of one histogram. */
struct HistogramSnapshot {
    std::string name;
    uint64_t count = 0;  ///< observations recorded.
    double sum = 0.0;    ///< sum of observed values.
    double min = 0.0;    ///< smallest observation (0 when empty).
    double max = 0.0;    ///< largest observation (0 when empty).
    double p50 = 0.0;    ///< median estimate.
    double p90 = 0.0;    ///< 90th-percentile estimate.
    double p99 = 0.0;    ///< 99th-percentile estimate.
    /** Bucket upper bounds and per-bucket counts (bounds.size() + 1
     *  entries, the last being the overflow bucket). Carried so the
     *  Prometheus exposition (obs/http_exporter.h) can render
     *  cumulative `le` buckets from the same consistent view. */
    std::vector<double> bounds;
    std::vector<uint64_t> buckets;
};

/**
 * Fixed-bucket histogram with quantile queries. Buckets are defined
 * by ascending upper bounds; values above the last bound land in an
 * overflow bucket.
 *
 * Quantile estimator: the bucket holding the target rank is found by
 * a cumulative scan, then the estimate interpolates linearly within
 * that bucket — but over the bucket's edges *tightened to the
 * observed range*: lo = max(bucket lower bound, observed min),
 * hi = min(bucket upper bound, observed max). Without the
 * tightening, a distribution occupying a narrow slice of one wide
 * bucket reports quantiles spread across the whole bucket (p99 rounds
 * up to the bucket bound; a median of values uniform in [15, 20]
 * under a (10, 100] bucket reads as ~55). With it, the same query
 * reads ~17.5. The result is finally clamped to [min, max], so
 * p50 <= p90 <= p99 always holds and single-valued histograms report
 * that value exactly. The estimate is exact when observations are
 * uniform within each bucket's occupied slice and never off by more
 * than one bucket's tightened width.
 */
class Histogram {
  public:
    /** @param bounds ascending bucket upper bounds (non-empty). */
    explicit Histogram(std::vector<double> bounds);

    /** Record one observation. */
    void Observe(double value);

    /** Observations recorded. */
    uint64_t Count() const;

    /** Sum of all observations. */
    double Sum() const;

    /** Smallest observation (0 when empty). */
    double Min() const;

    /** Largest observation (0 when empty). */
    double Max() const;

    /** Estimated value at quantile @p q in [0, 1]. */
    double Quantile(double q) const;

    /** Consistent point-in-time view (one lock for all fields). */
    HistogramSnapshot Snapshot(const std::string& name) const;

    /** Bucket upper bounds this histogram was built with. */
    const std::vector<double>& Bounds() const { return bounds_; }

    /** Per-bucket counts (bounds plus one overflow bucket). */
    std::vector<uint64_t> BucketCounts() const;

    /** Drop all observations. */
    void Reset();

    /** @p count bounds starting at @p start, multiplied by @p factor. */
    static std::vector<double> ExponentialBuckets(double start,
                                                  double factor,
                                                  size_t count);

    /** @p count bounds starting at @p start, stepped by @p width. */
    static std::vector<double> LinearBuckets(double start, double width,
                                             size_t count);

    /** Default exponential nanosecond buckets (64ns .. ~4s). */
    static std::vector<double> DefaultLatencyBounds();

  private:
    double QuantileLocked(double q) const;

    std::vector<double> bounds_;
    mutable std::mutex mu_;
    std::vector<uint64_t> counts_;  ///< bounds_.size() + 1 (overflow).
    uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/** Point-in-time view of one counter. */
struct CounterSnapshot {
    std::string name;
    uint64_t value = 0;
};

/** Point-in-time view of one fractional counter. */
struct DoubleCounterSnapshot {
    std::string name;
    double value = 0.0;
};

/** Point-in-time view of one gauge. */
struct GaugeSnapshot {
    std::string name;
    double value = 0.0;
};

/** Point-in-time view of a whole registry, sorted by name. */
struct RegistrySnapshot {
    std::vector<CounterSnapshot> counters;
    std::vector<DoubleCounterSnapshot> dcounters;
    std::vector<GaugeSnapshot> gauges;
    std::vector<HistogramSnapshot> histograms;
};

/**
 * Named instrument registry. Get*() registers on first use and
 * returns the same instrument for the same name thereafter; the
 * returned pointers remain valid for the registry's lifetime.
 */
class Registry {
  public:
    /** Find or create the counter named @p name. */
    Counter* GetCounter(const std::string& name);

    /** Find or create the fractional counter named @p name. */
    DoubleCounter* GetDoubleCounter(const std::string& name);

    /** Find or create the gauge named @p name. */
    Gauge* GetGauge(const std::string& name);

    /**
     * Find or create the histogram named @p name. @p bounds is used
     * only on first registration (empty selects
     * Histogram::DefaultLatencyBounds()).
     */
    Histogram* GetHistogram(const std::string& name,
                            std::vector<double> bounds = {});

    /** Consistent point-in-time view of every instrument. */
    RegistrySnapshot Snapshot() const;

    /** Zero every instrument (names stay registered). */
    void Reset();

    /**
     * The process-wide registry the Rumba runtime instruments. First
     * use also arms the RUMBA_METRICS_OUT at-exit exporter (see
     * obs/export.h).
     */
    static Registry& Default();

  private:
    mutable std::mutex mu_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<DoubleCounter>> dcounters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace rumba::obs

#endif  // RUMBA_OBS_METRICS_H_
