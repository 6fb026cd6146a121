#ifndef RUMBA_OBS_TSDB_H_
#define RUMBA_OBS_TSDB_H_

/**
 * @file
 * Embedded metrics time-series store and the process's one registry
 * sampler. A refcounted background sampler snapshots every
 * registered counter, gauge, and histogram quantile into
 * fixed-capacity per-series rings with bounded total memory, and a
 * query API serves raw range reads, rate() over counters, and
 * quantile-over-time, selectable by name prefix. `/tsdbz` on the
 * scrape server (obs/http_exporter.h) exposes the same queries over
 * HTTP, and the incident correlator (obs/incident.h) reads from the
 * store on the same tick.
 *
 * The same tick is the live metric stream: when RUMBA_STREAM_OUT
 * names a file, each sample is also appended there as one JSONL line
 * (counter deltas, gauges, the latest invocation TraceEvent), so a
 * run's tuner-convergence curve (paper Fig. 16's TOQ trajectory)
 * falls out of any binary:
 *
 *   RUMBA_STREAM_OUT=stream.jsonl RUMBA_TSDB_PERIOD_MS=25 ./deploy
 *
 * Timestamps are milliseconds since the store's construction (the
 * process-lifetime steady clock), in the store and the stream alike.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/ring.h"
#include "obs/metrics.h"
#include "obs/ticker.h"

namespace rumba::obs {

/** Default sampler period; 0 via RUMBA_TSDB_PERIOD_MS disables.
 *  100 ms keeps the whole-registry snapshot + ingest tick inside the
 *  bench/serve_throughput <5% instrumentation-overhead budget; drills
 *  that want finer resolution (ci.sh live stage) lower it via the
 *  environment variable. The clamp range is the Ticker's. */
inline constexpr int kDefaultTsdbPeriodMs = 100;
inline constexpr int kMinTsdbPeriodMs = kMinTickNs / 1'000'000;
inline constexpr int kMaxTsdbPeriodMs = kMaxTickNs / 1'000'000;

/** Per-series ring capacity (points retained per series). */
inline constexpr size_t kDefaultTsdbRingCapacity = 256;

/** Series-count bound: with the default ring capacity this caps the
 *  whole store at max_series * capacity * sizeof(TsPoint) ≈ 4 MiB. */
inline constexpr size_t kDefaultTsdbMaxSeries = 1024;

/**
 * Parse a RUMBA_TSDB_PERIOD_MS value, which must be a whole decimal
 * integer. Unset, empty or anything else (trailing characters, hex,
 * leading spaces or a '+') selects the default; "0" (or negative)
 * returns 0, meaning the sampler stays off; any other value clamps to
 * [kMinTsdbPeriodMs, kMaxTsdbPeriodMs].
 */
int ParseTsdbPeriodMs(const char* value);

/** How a stored series should be interpreted by queries. */
enum class SeriesKind {
    kCounter,  ///< cumulative; rate() applies.
    kGauge,    ///< instantaneous; quantile-over-time applies.
};

/** One retained sample. */
struct TsPoint {
    double t_ms = 0.0;  ///< ms since the store's epoch.
    double value = 0.0;
};

/** One series' points inside a queried range, oldest first. */
struct SeriesRange {
    std::string name;
    SeriesKind kind = SeriesKind::kGauge;
    uint64_t total_appended = 0;  ///< lifetime appends (ring may wrap).
    std::vector<TsPoint> points;
};

/** Point-in-time store accounting. */
struct TsdbStats {
    size_t series = 0;            ///< distinct series retained.
    size_t points = 0;            ///< points currently retained.
    uint64_t total_appended = 0;  ///< lifetime appends across series.
    uint64_t dropped_series = 0;  ///< appends refused by max_series.
};

/**
 * Fixed-memory retention store: one bounded ring of (t_ms, value)
 * points per series. Appends beyond a ring's capacity overwrite the
 * oldest point; series beyond the store's series bound are dropped
 * (and counted). All methods are thread-safe.
 */
class TimeSeriesStore {
  public:
    explicit TimeSeriesStore(
        size_t ring_capacity = kDefaultTsdbRingCapacity,
        size_t max_series = kDefaultTsdbMaxSeries);

    /** Append one point (non-finite values are dropped). */
    void Append(const std::string& name, SeriesKind kind, double t_ms,
                double value);

    /**
     * Append one point per instrument in @p snapshot: counters and
     * fractional counters as kCounter, gauges as kGauge, and each
     * non-empty histogram's p50/p90/p99 as `<name>.p50` (etc.) gauge
     * series plus `<name>.count` as a counter series.
     */
    void Ingest(const RegistrySnapshot& snapshot, double t_ms);

    /**
     * Raw range read: every series whose name starts with @p prefix,
     * restricted to points with t_ms in [@p t0_ms, @p t1_ms], oldest
     * first, at most @p max_series series (alphabetical).
     */
    std::vector<SeriesRange> Query(const std::string& prefix,
                                   double t0_ms, double t1_ms,
                                   size_t max_series = 64) const;

    /**
     * Per-second increase of counter series @p name across the range.
     * False when the series is missing, is not a counter, or has
     * fewer than two in-range points. Counter resets clamp to 0.
     */
    bool Rate(const std::string& name, double t0_ms, double t1_ms,
              double* out) const;

    /**
     * Quantile @p q in [0, 1] of the point *values* of series @p name
     * inside the range (linear interpolation over the sorted values).
     * False when the series is missing or the range holds no points.
     */
    bool QuantileOverTime(const std::string& name, double q,
                          double t0_ms, double t1_ms,
                          double* out) const;

    /** Store accounting. */
    TsdbStats Stats() const;

    /** Milliseconds since the store's construction (query "now"). */
    double NowMs() const;

    /** Drop every series (tests / between runs). */
    void Clear();

    /**
     * Best-effort JSONL dump of every retained series to @p path for
     * the signal-flush path: try-locks, so a sample in flight on
     * another thread means no dump rather than a deadlock. Returns
     * true when the file was written.
     */
    bool DumpBestEffort(const std::string& path) const;

    /** The process-wide store the background sampler feeds. */
    static TimeSeriesStore& Default();

  private:
    struct Series {
        SeriesKind kind;
        Ring<TsPoint> points;  ///< Pushed() counts lifetime appends.
    };

    void CollectRangeLocked(const Series& series, double t0_ms,
                            double t1_ms,
                            std::vector<TsPoint>* out) const;
    void AppendLocked(const std::string& name, SeriesKind kind,
                      double t_ms, double value);
    /** Alphabetical view over series_, rebuilt lazily on insert: the
     *  sampler appends ~hundreds of points per tick and hash lookups
     *  keep that inside the instrumentation-overhead budget, while
     *  prefix queries stay ordered through this index (node pointers
     *  are stable in unordered_map). */
    const std::vector<const std::pair<const std::string, Series>*>&
    SortedLocked() const;

    mutable std::mutex mu_;
    const size_t ring_capacity_;
    const size_t max_series_;
    uint64_t dropped_series_ = 0;
    uint64_t total_appended_ = 0;
    std::unordered_map<std::string, Series> series_;
    mutable std::vector<const std::pair<const std::string, Series>*>
        sorted_;
    mutable bool sorted_dirty_ = false;
    const std::chrono::steady_clock::time_point epoch_;
};

/**
 * Background registry sampler feeding TimeSeriesStore::Default(), on
 * the process's one Ticker lifecycle (obs/ticker.h): the engine (and
 * a runtime while RUMBA_STREAM_OUT is set) calls Acquire()/Release();
 * the first acquirer starts the thread and the last release stops it.
 * Each tick takes one registry snapshot and hands it to every
 * consumer: the store, the incident manager's fault-delta scan + poll
 * (obs/incident.h), and the JSONL stream sink when one is open.
 */
class TsdbSampler {
  public:
    TsdbSampler() = default;

    TsdbSampler(const TsdbSampler&) = delete;
    TsdbSampler& operator=(const TsdbSampler&) = delete;

    /**
     * Start sampling every @p period_ms (clamped to the Ticker's
     * range); false if already running or @p period_ms <= 0. An empty
     * @p stream_path streams nothing; otherwise the file is truncated
     * and gets the run-metadata header of obs/export.h, then one
     * {"type":"sample",...} line per tick (final tick included). A
     * path that cannot be opened warns and the sampler ticks without
     * a stream.
     */
    bool Start(int period_ms, const std::string& stream_path);

    /** Final sample, join, close the stream. Idempotent. */
    void Stop() { ticker_.Stop(); }

    bool Running() const { return ticker_.Running(); }

    /** Samples taken since Start(). */
    uint64_t Samples() const { return ticker_.Ticks(); }

    /**
     * Refcounted start: the first acquirer starts Default() every
     * RUMBA_TSDB_PERIOD_MS (kDefaultTsdbPeriodMs when unset; 0 keeps
     * the sampler, and so the stream, off entirely), streaming to
     * RUMBA_STREAM_OUT when that names a file.
     */
    static void Acquire();

    /**
     * Acquire() only when RUMBA_STREAM_OUT names a file; returns
     * whether a ref was taken (the caller owes one Release()).
     */
    static bool AcquireForStream();

    /** Refcounted stop: the last release stops Default(). */
    static void Release();

    /** The shared sampler; the at-exit path (obs/export.h) Stop()s
     *  it whatever refs remain. */
    static TsdbSampler& Default();

  private:
    /** Snapshot the registry once and feed every consumer; the
     *  final tick also closes the stream. */
    void Tick(bool final);

    /** Append one stream line for @p snapshot (sampler thread only). */
    void WriteStreamSample(const RegistrySnapshot& snapshot,
                           double t_ms);

    /** Stream sink and the previous line's cumulative counter values
     *  (deltas are against them). Set up by Start() before the thread
     *  exists and closed by the final tick, so only the sampler
     *  thread touches them in between. */
    std::FILE* stream_ = nullptr;
    std::map<std::string, uint64_t> prev_counters_;
    std::map<std::string, double> prev_dcounters_;
    /** Last: destroyed (stopped and joined) before what Tick reads. */
    Ticker ticker_{[this](bool final) { Tick(final); }};
};

/**
 * Body of the `/tsdbz` route: a flat/nested JSON object (no arrays —
 * rumba-stat's mini parser flattens dotted keys) answering the range
 * query in @p query_string ("prefix=...&range_ms=...&quantile=...&
 * max_series=..."). Defaults: every series, the last 60 s, p50/p90/
 * p99 summaries per series.
 */
std::string TsdbzJson(const std::string& query_string);

}  // namespace rumba::obs

#endif  // RUMBA_OBS_TSDB_H_
