#include "obs/incident.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <set>
#include <unordered_set>
#include <utility>

#include "common/file.h"
#include "common/logging.h"
#include "obs/export.h"
#include "obs/http_exporter.h"
#include "obs/profiler.h"
#include "obs/reqtrace.h"
#include "obs/tsdb.h"

namespace rumba::obs {

namespace {

/** Signals per bundle timeline cap aside, bound reqtrace extraction. */
constexpr size_t kMaxReqtraces = 16;

std::string
SignalJson(const IncidentSignal& signal)
{
    std::string out = "{\"source\":" + JsonQuote(signal.source);
    out += ",\"name\":" + JsonQuote(signal.name);
    out += ",\"detail\":" + JsonQuote(signal.detail);
    out += ",\"series\":" + JsonQuote(signal.series);
    out += ",\"trace_id\":" + std::to_string(signal.trace_id);
    out += ",\"t_ms\":" + JsonNum(signal.t_ms) + "}";
    return out;
}

std::string
ReqtraceJson(const RequestTrace& trace, bool in_flight)
{
    // Array-free by construction: the span tree collapses to a count
    // (the full tree lives in RUMBA_REQTRACE_OUT dumps, joinable by
    // trace_id).
    std::string out =
        "{\"trace_id\":" + std::to_string(trace.trace_id);
    out += ",\"shard\":" + std::to_string(trace.shard);
    out += ",\"outcome\":" +
           JsonQuote(RequestOutcomeName(trace.outcome));
    out += ",\"total_ns\":" + std::to_string(trace.total_ns);
    out += ",\"elements\":" + std::to_string(trace.elements);
    out += ",\"fixes\":" + std::to_string(trace.fixes);
    out += ",\"breaker_state\":" +
           std::to_string(trace.breaker_state);
    out += ",\"audited\":";
    out += trace.audited ? "true" : "false";
    out += ",\"spans\":" + std::to_string(SpanCount(trace));
    out += ",\"in_flight\":";
    out += in_flight ? "true" : "false";
    out += "}";
    return out;
}

/** Distinct signal sources, and their sorted "a+b+c" label. */
size_t
DistinctSources(const std::vector<IncidentSignal>& signals,
                std::string* kinds)
{
    std::set<std::string> sources;
    for (const IncidentSignal& signal : signals)
        sources.insert(signal.source);
    kinds->clear();
    for (const std::string& source : sources) {
        if (!kinds->empty())
            *kinds += "+";
        *kinds += source;
    }
    return sources.size();
}

}  // namespace

EdgeLatch::EdgeLatch(std::string source, std::string name,
                     std::string series, Gauge* firing, Counter* fires,
                     Counter* clears)
    : source_(std::move(source)), name_(std::move(name)),
      series_(std::move(series)), firing_gauge_(firing),
      fire_counter_(fires), clear_counter_(clears)
{
}

EdgeLatch::Step
EdgeLatch::Update(bool fire, bool clear, uint64_t now_ns, const char* fmt,
                  ...)
{
    Step step;
    step.edge = firing_ ? clear : fire;
    if (step.edge) {
        firing_ = !firing_;
        ++edges_;
        if (Counter* counter = firing_ ? fire_counter_ : clear_counter_)
            counter->Increment();
        char detail[128];
        va_list args;
        va_start(args, fmt);
        std::vsnprintf(detail, sizeof detail, fmt, args);
        va_end(args);
        step.alarm = AlarmEdge{name_, firing_, detail, now_ns};
        step.sink = sink_;
    }
    firing_gauge_->Set(firing_ ? 1.0 : 0.0);
    return step;
}

void
EdgeLatch::Deliver(const Step& step) const
{
    if (!step.edge)
        return;
    const AlarmEdge& alarm = step.alarm;
    if (alarm.firing)
        Warn("%s.%s: FIRING (%s)", source_.c_str(), name_.c_str(),
             alarm.detail.c_str());
    else
        Inform("%s.%s: cleared (%s)", source_.c_str(), name_.c_str(),
               alarm.detail.c_str());
    if (step.sink)
        step.sink(alarm);
    // Fires are incident-correlation signals whoever owns the sink
    // (examples routinely replace it); clears end the story.
    if (!alarm.firing)
        return;
    IncidentSignal signal;
    signal.source = source_;
    signal.name = source_ + "." + name_;
    signal.detail = alarm.detail;
    signal.series = series_;
    IncidentManager::Default().OnSignal(std::move(signal));
}

IncidentManager::IncidentManager(std::string dir)
    : dir_(std::move(dir)),
      opened_counter_(Registry::Default().GetCounter("incident.opened")),
      dumped_counter_(Registry::Default().GetCounter("incident.dumped")),
      suppressed_counter_(
          Registry::Default().GetCounter("incident.suppressed")),
      signals_counter_(
          Registry::Default().GetCounter("incident.signals")),
      last_id_gauge_(Registry::Default().GetGauge("incident.last_id"))
{
}

bool
IncidentManager::TakeDueLocked(double now_ms, bool force,
                               OpenIncident* out)
{
    if (!has_open_)
        return false;
    if (!force && now_ms < open_.deadline_ms)
        return false;
    *out = std::move(open_);
    open_ = OpenIncident{};
    has_open_ = false;
    return true;
}

void
IncidentManager::OnSignal(IncidentSignal signal)
{
    if (signal.t_ms == 0.0)
        signal.t_ms = TimeSeriesStore::Default().NowMs();
    signals_counter_->Increment();

    OpenIncident due;
    bool finalize = false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        const double now_ms = signal.t_ms;
        finalize = TakeDueLocked(now_ms, /*force=*/false, &due);
        while (!recent_.empty() &&
               recent_.front().t_ms < now_ms - kWindowMs)
            recent_.pop_front();
        recent_.push_back(signal);
        if (recent_.size() > kMaxSignals)
            recent_.pop_front();
        if (has_open_) {
            if (signal.t_ms <= open_.deadline_ms &&
                open_.signals.size() < kMaxSignals)
                open_.signals.push_back(std::move(signal));
        } else if (!finalize) {
            std::string kinds;
            std::vector<IncidentSignal> window(recent_.begin(),
                                               recent_.end());
            if (DistinctSources(window, &kinds) >= kMinSources) {
                if (now_ms - last_open_ms_ < kRateLimitMs) {
                    suppressed_counter_->Increment();
                    // One suppression per correlated burst: drop the
                    // window so every follow-on signal doesn't count
                    // again.
                    recent_.clear();
                } else {
                    open_.id = next_id_++;
                    open_.onset_ms = now_ms;
                    open_.deadline_ms = now_ms + kWindowMs;
                    open_.signals = std::move(window);
                    has_open_ = true;
                    last_open_ms_ = now_ms;
                    opened_counter_->Increment();
                    last_id_gauge_->Set(
                        static_cast<double>(open_.id));
                    Warn("incident %llu opened: %s (%zu signals in "
                         "window)",
                         static_cast<unsigned long long>(open_.id),
                         kinds.c_str(), open_.signals.size());
                }
            }
        }
    }
    if (finalize)
        Assemble(std::move(due));
}

void
IncidentManager::Poll()
{
    OpenIncident due;
    bool finalize = false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        finalize = TakeDueLocked(TimeSeriesStore::Default().NowMs(),
                                 /*force=*/false, &due);
    }
    if (finalize)
        Assemble(std::move(due));
}

void
IncidentManager::FinalizeOpenNow()
{
    OpenIncident due;
    bool finalize = false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        finalize = TakeDueLocked(TimeSeriesStore::Default().NowMs(),
                                 /*force=*/true, &due);
    }
    if (finalize)
        Assemble(std::move(due));
}

void
IncidentManager::ObserveSnapshot(const RegistrySnapshot& snapshot,
                                 double t_ms)
{
    static const std::string kFaultPrefix = "fault.injected.";
    std::vector<IncidentSignal> fired;
    {
        std::lock_guard<std::mutex> lock(fault_mu_);
        for (const CounterSnapshot& c : snapshot.counters) {
            if (c.name.compare(0, kFaultPrefix.size(),
                               kFaultPrefix) != 0)
                continue;
            const auto it = fault_prev_.find(c.name);
            const uint64_t prev =
                it == fault_prev_.end() ? 0 : it->second;
            fault_prev_[c.name] = c.value;
            // First sighting of an already-hot counter is not a
            // delta: a fresh manager must not re-report history.
            if (it == fault_prev_.end() || c.value <= prev)
                continue;
            IncidentSignal signal;
            signal.source = "fault";
            signal.name = c.name;
            signal.detail =
                "delta=" + std::to_string(c.value - prev);
            signal.series = c.name;
            signal.t_ms = t_ms;
            fired.push_back(std::move(signal));
        }
    }
    for (IncidentSignal& signal : fired)
        OnSignal(std::move(signal));
    Poll();
}

void
IncidentManager::SetFlightProvider(
    std::function<IncidentFlightExtract()> provider, const void* owner)
{
    std::lock_guard<std::mutex> lock(provider_mu_);
    flight_provider_ = std::move(provider);
    provider_owner_ = owner;
}

void
IncidentManager::ClearFlightProvider(const void* owner)
{
    std::lock_guard<std::mutex> lock(provider_mu_);
    if (provider_owner_ != owner)
        return;
    flight_provider_ = nullptr;
    provider_owner_ = nullptr;
}

void
IncidentManager::Assemble(OpenIncident incident)
{
    Summary summary;
    summary.id = incident.id;
    summary.onset_ms = incident.onset_ms;
    summary.signals = incident.signals.size();
    summary.sources =
        DistinctSources(incident.signals, &summary.kinds);

    std::string body = "{\"type\":\"incident\",\"schema_version\":1";
    body += ",\"id\":" + std::to_string(incident.id);
    body += ",\"onset_ms\":" + JsonNum(incident.onset_ms);
    body += ",\"window_ms\":" + JsonNum(kWindowMs);
    body += ",\"sources\":" + std::to_string(summary.sources);
    body += ",\"source_kinds\":" + JsonQuote(summary.kinds);

    // Timeline: every contributing signal, onset-ordered as received.
    body += ",\"signals\":{";
    for (size_t i = 0; i < incident.signals.size(); ++i) {
        body += "\"" + std::to_string(i) +
                "\":" + SignalJson(incident.signals[i]) + ",";
    }
    body += "\"count\":" + std::to_string(incident.signals.size()) +
            "}";

    // tsdb extracts around onset for each signal's series.
    const double t0 = incident.onset_ms - kExtractMs;
    const double t1 = incident.onset_ms + kExtractMs;
    std::set<std::string> extract_names;
    for (const IncidentSignal& signal : incident.signals)
        if (!signal.series.empty())
            extract_names.insert(signal.series);
    body += ",\"tsdb\":{";
    bool first = true;
    size_t extracted = 0;
    for (const std::string& name : extract_names) {
        const std::vector<SeriesRange> ranges =
            TimeSeriesStore::Default().Query(name, t0, t1, 1);
        if (ranges.empty() || ranges.front().name != name)
            continue;
        const SeriesRange& range = ranges.front();
        if (!first)
            body += ",";
        first = false;
        ++extracted;
        double lo = 0.0, hi = 0.0, last = 0.0;
        if (!range.points.empty()) {
            lo = hi = range.points.front().value;
            for (const TsPoint& point : range.points) {
                lo = std::min(lo, point.value);
                hi = std::max(hi, point.value);
            }
            last = range.points.back().value;
        }
        body += JsonQuote(name) + ":{\"points\":" +
                std::to_string(range.points.size()) +
                ",\"min\":" + JsonNum(lo) + ",\"max\":" + JsonNum(hi) +
                ",\"last\":" + JsonNum(last) + "}";
    }
    body += "}";

    // Flight records (the engine's contribution) + trace-id joins.
    IncidentFlightExtract flight;
    {
        std::lock_guard<std::mutex> lock(provider_mu_);
        if (flight_provider_)
            flight = flight_provider_();
    }
    body += ",\"flight\":" +
            (flight.json.empty() ? std::string("{\"count\":0}")
                                 : flight.json);

    std::unordered_set<uint64_t> flight_ids(flight.trace_ids.begin(),
                                            flight.trace_ids.end());
    for (const IncidentSignal& signal : incident.signals)
        if (signal.trace_id != 0)
            flight_ids.insert(signal.trace_id);

    // Tail-sampled reqtraces, newest first, joined by trace id.
    const std::vector<RequestTrace> traces =
        RequestTraceCollector::Default().Dump();
    body += ",\"reqtrace\":{";
    size_t kept = 0;
    size_t joins = 0;
    for (size_t i = traces.size(); i-- > 0 && kept < kMaxReqtraces;) {
        const bool in_flight =
            flight_ids.count(traces[i].trace_id) != 0;
        if (in_flight)
            ++joins;
        body += "\"" + std::to_string(kept) +
                "\":" + ReqtraceJson(traces[i], in_flight) + ",";
        ++kept;
    }
    body += "\"count\":" + std::to_string(kept) +
            ",\"joins\":" + std::to_string(joins) + "}";
    summary.joins = joins;

    // Live cost attribution at finalize time.
    body += ",\"profilez\":" + ProfilezJson();
    body += "}";

    // Dump before publishing so the listing's path is already valid.
    if (!dir_.empty()) {
        const std::string path = dir_ + "/incident-" +
                                 std::to_string(incident.id) + ".json";
        if (WriteFile(path, body + "\n")) {
            summary.path = path;
            dumped_counter_->Increment();
        } else {
            Warn("incident %llu: could not write %s",
                 static_cast<unsigned long long>(incident.id),
                 path.c_str());
        }
    }

    {
        std::lock_guard<std::mutex> lock(mu_);
        kept_.Push(Bundle{summary, std::move(body)});
    }
    Inform("incident %llu finalized: %zu sources (%s), %zu signals, "
           "%zu tsdb extracts, %zu trace joins%s%s",
           static_cast<unsigned long long>(incident.id),
           summary.sources, summary.kinds.c_str(), summary.signals,
           extracted, joins, summary.path.empty() ? "" : " -> ",
           summary.path.c_str());
}

void
IncidentManager::FlushOpenBestEffort()
{
    OpenIncident due;
    bool finalize = false;
    {
        std::unique_lock<std::mutex> lock(mu_, std::try_to_lock);
        if (!lock.owns_lock())
            return;
        finalize = TakeDueLocked(TimeSeriesStore::Default().NowMs(),
                                 /*force=*/true, &due);
    }
    if (finalize)
        Assemble(std::move(due));
}

uint64_t
IncidentManager::Opened() const
{
    return opened_counter_->Value();
}

uint64_t
IncidentManager::Dumped() const
{
    return dumped_counter_->Value();
}

uint64_t
IncidentManager::Suppressed() const
{
    return suppressed_counter_->Value();
}

std::vector<IncidentManager::Summary>
IncidentManager::List() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Summary> out;
    kept_.ForEach(
        [&out](const Bundle& bundle) { out.push_back(bundle.summary); });
    return out;
}

std::string
IncidentManager::Detail(uint64_t id) const
{
    std::lock_guard<std::mutex> lock(mu_);
    for (const Bundle& bundle : kept_.Slots())  // ids are unique.
        if (bundle.summary.id == id)
            return bundle.json;
    return "";
}

void
IncidentManager::Clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    recent_.clear();
    kept_.Clear();
    has_open_ = false;
    open_ = OpenIncident{};
    last_open_ms_ = -1.0e300;
}

IncidentManager&
IncidentManager::Default()
{
    // Leaked on purpose (see TimeSeriesStore::Default()).
    static IncidentManager* manager = [] {
        const char* dir = std::getenv("RUMBA_INCIDENT_DIR");
        return new IncidentManager(dir != nullptr ? dir : "");
    }();
    return *manager;
}

// ---------------------------------------------------------------------------
// /incidentz
// ---------------------------------------------------------------------------

std::string
IncidentzJson(const std::string& query_string)
{
    IncidentManager& manager = IncidentManager::Default();

    // ?id=<n> serves one bundle verbatim.
    if (const std::optional<std::string> raw =
            QueryParam(query_string, "id")) {
        const uint64_t id = std::strtoull(raw->c_str(), nullptr, 10);
        const std::string detail = manager.Detail(id);
        if (!detail.empty())
            return detail;
        return "{\"schema_version\":1,\"error\":\"unknown incident\","
               "\"id\":" +
               std::to_string(id) + "}";
    }

    const std::vector<IncidentManager::Summary> list = manager.List();
    std::string body = "{\"schema_version\":1";
    body += ",\"count\":" + std::to_string(list.size());
    body += ",\"opened\":" + std::to_string(manager.Opened());
    body += ",\"dumped\":" + std::to_string(manager.Dumped());
    body += ",\"suppressed\":" + std::to_string(manager.Suppressed());
    body += ",\"dir\":" + JsonQuote(manager.Dir());
    body += ",\"incidents\":{";
    for (size_t i = 0; i < list.size(); ++i) {
        const IncidentManager::Summary& summary = list[i];
        body += "\"" + std::to_string(i) + "\":{";
        body += "\"id\":" + std::to_string(summary.id);
        body += ",\"onset_ms\":" + JsonNum(summary.onset_ms);
        body += ",\"sources\":" + std::to_string(summary.sources);
        body += ",\"source_kinds\":" + JsonQuote(summary.kinds);
        body += ",\"signals\":" + std::to_string(summary.signals);
        body += ",\"joins\":" + std::to_string(summary.joins);
        body += ",\"path\":" + JsonQuote(summary.path) + "},";
    }
    body += "\"listed\":" + std::to_string(list.size()) + "}}";
    return body;
}

}  // namespace rumba::obs
