#include "obs/tsdb.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/file.h"
#include "common/logging.h"
#include "obs/export.h"
#include "obs/http_exporter.h"
#include "obs/incident.h"
#include "obs/span.h"

namespace rumba::obs {

int
ParseTsdbPeriodMs(const char* value)
{
    if (value == nullptr)
        return kDefaultTsdbPeriodMs;
    const char* end = value + std::strlen(value);
    long long parsed = 0;
    const auto [ptr, ec] = std::from_chars(value, end, parsed);
    if (ptr != end || ec == std::errc::invalid_argument)
        return kDefaultTsdbPeriodMs;
    if (ec == std::errc::result_out_of_range)
        parsed = value[0] == '-' ? 0 : kMaxTsdbPeriodMs;
    if (parsed <= 0)
        return 0;  // explicit opt-out.
    // Clamp before narrowing: a value past INT_MAX must not wrap.
    return static_cast<int>(std::clamp<long long>(
        parsed, kMinTsdbPeriodMs, kMaxTsdbPeriodMs));
}

// ---------------------------------------------------------------------------
// TimeSeriesStore
// ---------------------------------------------------------------------------

TimeSeriesStore::TimeSeriesStore(size_t ring_capacity,
                                 size_t max_series)
    : ring_capacity_(std::max<size_t>(2, ring_capacity)),
      max_series_(std::max<size_t>(1, max_series)),
      epoch_(std::chrono::steady_clock::now())
{
}

void
TimeSeriesStore::AppendLocked(const std::string& name, SeriesKind kind,
                              double t_ms, double value)
{
    if (!std::isfinite(value) || !std::isfinite(t_ms))
        return;
    auto it = series_.find(name);
    if (it == series_.end()) {
        if (series_.size() >= max_series_) {
            ++dropped_series_;
            return;
        }
        it = series_
                 .emplace(name,
                          Series{kind, Ring<TsPoint>(ring_capacity_)})
                 .first;
        sorted_dirty_ = true;
    }
    it->second.points.Push(TsPoint{t_ms, value});
    ++total_appended_;
}

void
TimeSeriesStore::Append(const std::string& name, SeriesKind kind,
                        double t_ms, double value)
{
    std::lock_guard<std::mutex> lock(mu_);
    AppendLocked(name, kind, t_ms, value);
}

void
TimeSeriesStore::Ingest(const RegistrySnapshot& snapshot, double t_ms)
{
    // One lock for the whole tick; the scratch string keeps the
    // derived histogram names from allocating once its capacity has
    // warmed up. Both matter: this runs on every sampler tick and
    // rides the bench/serve_throughput instrumentation-overhead gate.
    std::lock_guard<std::mutex> lock(mu_);
    for (const CounterSnapshot& c : snapshot.counters)
        AppendLocked(c.name, SeriesKind::kCounter, t_ms,
                     static_cast<double>(c.value));
    for (const DoubleCounterSnapshot& c : snapshot.dcounters)
        AppendLocked(c.name, SeriesKind::kCounter, t_ms, c.value);
    for (const GaugeSnapshot& g : snapshot.gauges)
        AppendLocked(g.name, SeriesKind::kGauge, t_ms, g.value);
    std::string scratch;
    for (const HistogramSnapshot& h : snapshot.histograms) {
        if (h.count == 0)
            continue;
        scratch.assign(h.name).append(".count");
        AppendLocked(scratch, SeriesKind::kCounter, t_ms,
                     static_cast<double>(h.count));
        scratch.assign(h.name).append(".p50");
        AppendLocked(scratch, SeriesKind::kGauge, t_ms, h.p50);
        scratch.assign(h.name).append(".p90");
        AppendLocked(scratch, SeriesKind::kGauge, t_ms, h.p90);
        scratch.assign(h.name).append(".p99");
        AppendLocked(scratch, SeriesKind::kGauge, t_ms, h.p99);
    }
}

const std::vector<
    const std::pair<const std::string, TimeSeriesStore::Series>*>&
TimeSeriesStore::SortedLocked() const
{
    if (sorted_dirty_ || sorted_.size() != series_.size()) {
        sorted_.clear();
        sorted_.reserve(series_.size());
        for (const auto& entry : series_)
            sorted_.push_back(&entry);
        std::sort(sorted_.begin(), sorted_.end(),
                  [](const auto* a, const auto* b) {
                      return a->first < b->first;
                  });
        sorted_dirty_ = false;
    }
    return sorted_;
}

void
TimeSeriesStore::CollectRangeLocked(const Series& series, double t0_ms,
                                    double t1_ms,
                                    std::vector<TsPoint>* out) const
{
    series.points.ForEach([&](const TsPoint& point) {
        if (point.t_ms >= t0_ms && point.t_ms <= t1_ms)
            out->push_back(point);
    });
}

std::vector<SeriesRange>
TimeSeriesStore::Query(const std::string& prefix, double t0_ms,
                       double t1_ms, size_t max_series) const
{
    std::vector<SeriesRange> out;
    std::lock_guard<std::mutex> lock(mu_);
    const auto& sorted = SortedLocked();
    for (auto it = std::lower_bound(
             sorted.begin(), sorted.end(), prefix,
             [](const auto* entry, const std::string& p) {
                 return entry->first < p;
             });
         it != sorted.end() &&
         (*it)->first.compare(0, prefix.size(), prefix) == 0;
         ++it) {
        if (out.size() >= max_series)
            break;
        SeriesRange range;
        range.name = (*it)->first;
        range.kind = (*it)->second.kind;
        range.total_appended = (*it)->second.points.Pushed();
        CollectRangeLocked((*it)->second, t0_ms, t1_ms, &range.points);
        out.push_back(std::move(range));
    }
    return out;
}

bool
TimeSeriesStore::Rate(const std::string& name, double t0_ms,
                      double t1_ms, double* out) const
{
    std::vector<TsPoint> points;
    {
        std::lock_guard<std::mutex> lock(mu_);
        const auto it = series_.find(name);
        if (it == series_.end() ||
            it->second.kind != SeriesKind::kCounter)
            return false;
        CollectRangeLocked(it->second, t0_ms, t1_ms, &points);
    }
    if (points.size() < 2)
        return false;
    const TsPoint& first = points.front();
    const TsPoint& last = points.back();
    const double dt_s = (last.t_ms - first.t_ms) / 1000.0;
    if (dt_s <= 0.0)
        return false;
    // A counter reset mid-range reads as a decrease; clamp to zero
    // rather than reporting a negative rate.
    *out = std::max(0.0, last.value - first.value) / dt_s;
    return true;
}

bool
TimeSeriesStore::QuantileOverTime(const std::string& name, double q,
                                  double t0_ms, double t1_ms,
                                  double* out) const
{
    std::vector<TsPoint> points;
    {
        std::lock_guard<std::mutex> lock(mu_);
        const auto it = series_.find(name);
        if (it == series_.end())
            return false;
        CollectRangeLocked(it->second, t0_ms, t1_ms, &points);
    }
    if (points.empty())
        return false;
    std::vector<double> values;
    values.reserve(points.size());
    for (const TsPoint& point : points)
        values.push_back(point.value);
    std::sort(values.begin(), values.end());
    const double clamped = std::clamp(q, 0.0, 1.0);
    const double pos =
        clamped * static_cast<double>(values.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    *out = values[lo] + (values[hi] - values[lo]) * frac;
    return true;
}

TsdbStats
TimeSeriesStore::Stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    TsdbStats stats;
    stats.series = series_.size();
    for (const auto& [name, series] : series_)
        stats.points += series.points.Size();
    stats.total_appended = total_appended_;
    stats.dropped_series = dropped_series_;
    return stats;
}

double
TimeSeriesStore::NowMs() const
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

void
TimeSeriesStore::Clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    series_.clear();
    sorted_.clear();
    sorted_dirty_ = false;
    dropped_series_ = 0;
    total_appended_ = 0;
}

bool
TimeSeriesStore::DumpBestEffort(const std::string& path) const
{
    std::string body;
    {
        // Signal-flush path: never block on a sampler mid-append. The
        // body is bounded by the store (max_series x ring_capacity).
        std::unique_lock<std::mutex> lock(mu_, std::try_to_lock);
        if (!lock.owns_lock())
            return false;
        std::vector<TsPoint> points;
        for (const auto* entry : SortedLocked()) {
            const std::string& name = entry->first;
            const Series& series = entry->second;
            points.clear();
            CollectRangeLocked(series, -1.0e300, 1.0e300, &points);
            body += "{\"type\":\"tsdb_series\",\"name\":" +
                    JsonQuote(name) + ",\"kind\":" +
                    JsonQuote(series.kind == SeriesKind::kCounter
                                  ? "counter"
                                  : "gauge") +
                    ",\"total_appended\":" +
                    std::to_string(series.points.Pushed()) +
                    ",\"points\":{";
            for (size_t i = 0; i < points.size(); ++i) {
                if (i != 0)
                    body += ",";
                body += "\"" + std::to_string(i) +
                        "\":{\"t_ms\":" + JsonNum(points[i].t_ms) +
                        ",\"v\":" + JsonNum(points[i].value) + "}";
            }
            body +=
                ",\"count\":" + std::to_string(points.size()) + "}}\n";
        }
    }
    return WriteFile(path, body);
}

TimeSeriesStore&
TimeSeriesStore::Default()
{
    // Leaked on purpose: the at-exit hook stops the feeding sampler
    // before static destruction, and leaking sidesteps teardown races
    // with late appends.
    static TimeSeriesStore* store = new TimeSeriesStore();
    return *store;
}

// ---------------------------------------------------------------------------
// TsdbSampler
// ---------------------------------------------------------------------------

bool
TsdbSampler::Start(int period_ms, const std::string& stream_path)
{
    std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
    return StartLocked(period_ms, stream_path);
}

bool
TsdbSampler::StartLocked(int period_ms, const std::string& stream_path)
{
    if (period_ms <= 0 || Running())
        return false;
    // The sink is set up before the thread exists: no concurrent tick.
    if (!stream_path.empty()) {
        stream_ = std::fopen(stream_path.c_str(), "w");
        if (stream_ == nullptr) {
            Warn("tsdb: could not open stream %s; sampling without it",
                 stream_path.c_str());
        } else {
            const std::string meta = MetadataJsonLine() + "\n";
            std::fwrite(meta.data(), 1, meta.size(), stream_);
            std::fflush(stream_);
        }
    }
    prev_counters_.clear();
    prev_dcounters_.clear();
    std::lock_guard<std::mutex> lock(mu_);
    period_ = std::chrono::milliseconds(
        std::clamp(period_ms, kMinTsdbPeriodMs, kMaxTsdbPeriodMs));
    samples_ = 0;
    stop_requested_ = false;
    running_ = true;
    thread_ = std::thread(&TsdbSampler::Loop, this);
    return true;
}

void
TsdbSampler::Stop()
{
    std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
    StopLocked();
}

void
TsdbSampler::StopLocked()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (!running_)
            return;
        stop_requested_ = true;
    }
    cv_.notify_all();
    thread_.join();
    std::lock_guard<std::mutex> lock(mu_);
    running_ = false;
}

bool
TsdbSampler::Running() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return running_;
}

uint64_t
TsdbSampler::Samples() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return samples_;
}

void
TsdbSampler::Loop()
{
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
        // Wait first: a short-lived acquire (an engine created and
        // shut down inside one period, as the overhead bench does per
        // round) costs exactly one tick — the final one — instead of
        // a startup + shutdown pair.
        cv_.wait_for(lock, period_, [this] { return stop_requested_; });
        const bool final = stop_requested_;
        lock.unlock();
        Tick(final);
        lock.lock();
        ++samples_;
        if (final)
            return;
    }
}

void
TsdbSampler::Tick(bool final)
{
    const Span span("tsdb.sample");
    TimeSeriesStore& store = TimeSeriesStore::Default();
    const double t_ms = store.NowMs();
    const RegistrySnapshot snapshot = Registry::Default().Snapshot();
    store.Ingest(snapshot, t_ms);
    // One thread drives the whole forensics pipeline: the incident
    // manager scans the snapshot just retained for fault deltas and
    // finalizes due incidents.
    IncidentManager::Default().ObserveSnapshot(snapshot, t_ms);
    if (stream_ != nullptr)
        WriteStreamSample(snapshot, t_ms);
    const TsdbStats stats = store.Stats();
    Registry::Default().GetGauge("tsdb.series")->Set(
        static_cast<double>(stats.series));
    Registry::Default().GetGauge("tsdb.points")->Set(
        static_cast<double>(stats.points));
    Registry::Default().GetGauge("tsdb.dropped_series")->Set(
        static_cast<double>(stats.dropped_series));
    if (final && stream_ != nullptr) {
        std::fclose(stream_);
        stream_ = nullptr;
    }
}

void
TsdbSampler::WriteStreamSample(const RegistrySnapshot& snapshot,
                               double t_ms)
{
    std::string line = "{\"type\":\"sample\",\"t_ms\":" + JsonNum(t_ms);

    line += ",\"counters\":{";
    bool first = true;
    for (const CounterSnapshot& c : snapshot.counters) {
        uint64_t& prev = prev_counters_[c.name];
        if (!first)
            line += ",";
        first = false;
        line += JsonQuote(c.name) + ":" +
                std::to_string(c.value - std::min(prev, c.value));
        prev = c.value;
    }
    for (const DoubleCounterSnapshot& c : snapshot.dcounters) {
        double& prev = prev_dcounters_[c.name];
        if (!first)
            line += ",";
        first = false;
        line += JsonQuote(c.name) + ":" +
                JsonNum(std::max(0.0, c.value - prev));
        prev = c.value;
    }
    line += "},\"gauges\":{";
    first = true;
    for (const GaugeSnapshot& g : snapshot.gauges) {
        if (!first)
            line += ",";
        first = false;
        line += JsonQuote(g.name) + ":" + JsonNum(g.value);
    }
    line += "}}\n";
    // One whole line per fwrite + flush: a reader (or a crash) never
    // sees a torn record.
    std::fwrite(line.data(), 1, line.size(), stream_);
    std::fflush(stream_);
}

TsdbSampler&
TsdbSampler::Default()
{
    // Leaked on purpose: see TimeSeriesStore::Default().
    static TsdbSampler* sampler = new TsdbSampler();
    return *sampler;
}

namespace {

/** Best-effort forensics flush for the SIGINT/SIGTERM path: dump any
 *  open incident bundle and the retained tsdb rings (try-lock only —
 *  a sampler mid-append means no dump, never a deadlock). */
void
ForensicsFlushHook()
{
    IncidentManager::Default().FlushOpenBestEffort();
    const char* dir = std::getenv("RUMBA_INCIDENT_DIR");
    if (dir != nullptr && dir[0] != '\0')
        TimeSeriesStore::Default().DumpBestEffort(
            std::string(dir) + "/tsdb-flush.jsonl");
}

}  // namespace

void
TsdbSampler::Acquire()
{
    TsdbSampler& sampler = Default();
    std::lock_guard<std::mutex> lifecycle(sampler.lifecycle_mu_);
    if (sampler.refs_++ > 0)
        return;
    const int period =
        ParseTsdbPeriodMs(std::getenv("RUMBA_TSDB_PERIOD_MS"));
    if (period <= 0)
        return;  // explicitly disabled; the refcount still tracks.
    if (const char* dir = std::getenv("RUMBA_INCIDENT_DIR");
        dir != nullptr && dir[0] != '\0')
        RegisterFlushHook(&ForensicsFlushHook);
    const char* stream = std::getenv("RUMBA_STREAM_OUT");
    const std::string stream_path = stream == nullptr ? "" : stream;
    if (sampler.StartLocked(period, stream_path))
        Debug("tsdb: sampling the registry every %d ms (stream: %s)",
              period, stream_path.empty() ? "off" : stream_path.c_str());
}

bool
TsdbSampler::AcquireForStream()
{
    const char* stream = std::getenv("RUMBA_STREAM_OUT");
    if (stream == nullptr || stream[0] == '\0')
        return false;
    Acquire();
    return true;
}

void
TsdbSampler::Release()
{
    TsdbSampler& sampler = Default();
    std::lock_guard<std::mutex> lifecycle(sampler.lifecycle_mu_);
    if (sampler.refs_ > 0 && --sampler.refs_ == 0)
        sampler.StopLocked();
}

// ---------------------------------------------------------------------------
// /tsdbz
// ---------------------------------------------------------------------------

std::string
TsdbzJson(const std::string& query_string)
{
    const TimeSeriesStore& store = TimeSeriesStore::Default();
    const std::string prefix =
        QueryParam(query_string, "prefix").value_or("");
    const double range_ms =
        std::max(1.0, QueryParamNum(query_string, "range_ms", 60000.0));
    const double quantile =
        std::clamp(QueryParamNum(query_string, "quantile", 0.99), 0.0,
                   1.0);
    const size_t max_series = static_cast<size_t>(std::clamp(
        QueryParamNum(query_string, "max_series", 64.0), 1.0, 512.0));
    const double now_ms = store.NowMs();
    const double t0_ms = now_ms - range_ms;

    const std::vector<SeriesRange> ranges =
        store.Query(prefix, t0_ms, now_ms, max_series);
    const TsdbStats stats = store.Stats();

    std::string body = "{\"schema_version\":1";
    body += ",\"now_ms\":" + JsonNum(now_ms);
    body += ",\"range_ms\":" + JsonNum(range_ms);
    body += ",\"prefix\":" + JsonQuote(prefix);
    body += ",\"quantile\":" + JsonNum(quantile);
    body += ",\"series\":" + std::to_string(stats.series);
    body += ",\"points_total\":" + std::to_string(stats.points);
    body += ",\"dropped_series\":" +
            std::to_string(stats.dropped_series);
    body += ",\"sampler_running\":" +
            std::string(TsdbSampler::Default().Running() ? "1" : "0");
    body += ",\"sampler_samples\":" +
            std::to_string(TsdbSampler::Default().Samples());
    body += ",\"selected\":" + std::to_string(ranges.size());
    body += ",\"series_detail\":{";
    bool first = true;
    for (const SeriesRange& range : ranges) {
        if (!first)
            body += ",";
        first = false;
        double lo = 0.0;
        double hi = 0.0;
        double last = 0.0;
        double first_ms = 0.0;
        double last_ms = 0.0;
        if (!range.points.empty()) {
            lo = hi = range.points.front().value;
            for (const TsPoint& point : range.points) {
                lo = std::min(lo, point.value);
                hi = std::max(hi, point.value);
            }
            last = range.points.back().value;
            first_ms = range.points.front().t_ms;
            last_ms = range.points.back().t_ms;
        }
        const bool is_counter = range.kind == SeriesKind::kCounter;
        double rate = 0.0;
        if (is_counter)
            store.Rate(range.name, t0_ms, now_ms, &rate);
        double q_value = 0.0;
        store.QuantileOverTime(range.name, quantile, t0_ms, now_ms,
                               &q_value);
        body += JsonQuote(range.name) + ":{";
        body += "\"kind\":" +
                JsonQuote(is_counter ? "counter" : "gauge");
        body += ",\"points\":" + std::to_string(range.points.size());
        body += ",\"total_appended\":" +
                std::to_string(range.total_appended);
        body += ",\"first_ms\":" + JsonNum(first_ms);
        body += ",\"last_ms\":" + JsonNum(last_ms);
        body += ",\"min\":" + JsonNum(lo);
        body += ",\"max\":" + JsonNum(hi);
        body += ",\"last\":" + JsonNum(last);
        body += ",\"rate_per_s\":" + JsonNum(rate);
        body += ",\"quantile_value\":" + JsonNum(q_value);
        // Tail samples only: bounds the body while keeping enough to
        // plot onset. Numeric-string keys keep the object array-free
        // for rumba-stat's mini parser.
        constexpr size_t kMaxSamples = 32;
        const size_t skip = range.points.size() > kMaxSamples
                                ? range.points.size() - kMaxSamples
                                : 0;
        body += ",\"samples\":{";
        for (size_t i = skip; i < range.points.size(); ++i) {
            if (i != skip)
                body += ",";
            body += "\"" + std::to_string(i - skip) +
                    "\":{\"t_ms\":" + JsonNum(range.points[i].t_ms) +
                    ",\"v\":" + JsonNum(range.points[i].value) + "}";
        }
        body += "}}";
    }
    body += "}}";
    return body;
}

}  // namespace rumba::obs
