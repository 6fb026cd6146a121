#include "obs/reqtrace.h"

#include <cstdlib>

#include "common/file.h"
#include "common/logging.h"
#include "obs/export.h"
#include "obs/metrics.h"

namespace rumba::obs {

const char*
RequestOutcomeName(RequestOutcome outcome)
{
    switch (outcome) {
      case RequestOutcome::kCompleted: return "completed";
      case RequestOutcome::kRejected: return "rejected";
      case RequestOutcome::kCancelled: return "cancelled";
      case RequestOutcome::kShed: return "shed";
      case RequestOutcome::kExpired: return "expired";
    }
    return "unknown";
}

RequestTraceCollector::RequestTraceCollector(size_t capacity,
                                             uint32_t sample_every)
    : sample_every_(sample_every), ring_(capacity)
{
}

void
RequestTraceCollector::SetSampleEvery(uint32_t sample_every)
{
    std::lock_guard<std::mutex> lock(mu_);
    sample_every_ = sample_every;
}

uint64_t
RequestTraceCollector::NextTraceId()
{
    return next_trace_id_.fetch_add(1, std::memory_order_relaxed);
}

void
RequestTraceCollector::Enable()
{
    enabled_.store(true, std::memory_order_relaxed);
}

void
RequestTraceCollector::Disable()
{
    enabled_.store(false, std::memory_order_relaxed);
}

bool
RequestTraceCollector::Enabled() const
{
    return enabled_.load(std::memory_order_relaxed);
}

bool
RequestTraceCollector::KeepLocked(const RequestTrace& trace)
{
    // Tail decision: the outcome is known, so keep the flagged traces
    // first, then head-sample the healthy remainder.
    if (trace.outcome != RequestOutcome::kCompleted || trace.fixes > 0 ||
        trace.breaker_state != 0 || trace.audited)
        return true;
    if (sample_every_ == 0)
        return false;
    return ++unflagged_seen_ % sample_every_ == 0;
}

void
RequestTraceCollector::Record(const RequestTrace& trace)
{
    std::lock_guard<std::mutex> lock(mu_);
    ++total_recorded_;  // offered traces count even while disabled.
    if (!Enabled())
        return;
    if (!KeepLocked(trace)) {
        ++sampled_out_;
        return;
    }
    ring_.Push(trace);
}

std::vector<RequestTrace>
RequestTraceCollector::Dump() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return ring_.Snapshot();
}

uint64_t
RequestTraceCollector::TotalRecorded() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return total_recorded_;
}

uint64_t
RequestTraceCollector::Sampled() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return sampled_out_;
}

uint64_t
RequestTraceCollector::Evicted() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return ring_.Pushed() - ring_.Size();
}

size_t
RequestTraceCollector::Size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return ring_.Size();
}

void
RequestTraceCollector::Clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    ring_.Clear();
    total_recorded_ = 0;
    sampled_out_ = 0;
    unflagged_seen_ = 0;
}

namespace {

/** The RUMBA_REQTRACE_OUT flush hook: the default collector's kept
 *  traces as JSONL. */
void
FlushRequestTraces()
{
    const char* path = std::getenv("RUMBA_REQTRACE_OUT");
    if (path == nullptr || path[0] == '\0')
        return;
    if (!WriteFile(path, RequestTracesToJsonl(
                             RequestTraceCollector::Default().Dump())))
        Warn("RUMBA_REQTRACE_OUT: could not write %s", path);
}

}  // namespace

RequestTraceCollector&
RequestTraceCollector::Default()
{
    // Leaked on purpose (see TimeSeriesStore::Default()): incident
    // bundles join reqtraces inside the atexit flush hook, after
    // late-constructed by-value statics have been destroyed.
    static RequestTraceCollector* collector = [] {
        if (const char* path = std::getenv("RUMBA_REQTRACE_OUT");
            path != nullptr && path[0] != '\0')
            RegisterFlushHook(&FlushRequestTraces);
        return new RequestTraceCollector();
    }();
    return *collector;
}

namespace {

std::string
SpanJson(const char* name, uint64_t start_ns, uint64_t duration_ns)
{
    return "{\"name\":" + JsonQuote(name) +
           ",\"start_ns\":" + std::to_string(start_ns) +
           ",\"duration_ns\":" + std::to_string(duration_ns) + "}";
}

}  // namespace

std::string
RequestTraceJson(const RequestTrace& trace)
{
    std::string out = "{\"type\":\"reqtrace\",\"trace_id\":" +
                      std::to_string(trace.trace_id) +
                      ",\"shard\":" + std::to_string(trace.shard) +
                      ",\"outcome\":" +
                      JsonQuote(RequestOutcomeName(trace.outcome)) +
                      ",\"submit_ns\":" +
                      std::to_string(trace.submit_ns) +
                      ",\"total_ns\":" + std::to_string(trace.total_ns) +
                      ",\"elements\":" +
                      std::to_string(trace.elements) +
                      ",\"fixes\":" + std::to_string(trace.fixes) +
                      ",\"breaker_state\":" +
                      std::to_string(trace.breaker_state) +
                      ",\"audited\":" +
                      (trace.audited ? "true" : "false") +
                      ",\"spans\":[";
    if (SpanCount(trace) > 0) {
        // The stage fields carry durations; the span tree lays the
        // first four back to back from submit (see RequestTrace).
        const uint64_t device_start =
            trace.submit_ns + trace.queue_wait_ns;
        const uint64_t check_start = device_start + trace.device_ns;
        const uint64_t recover_start = check_start + trace.check_ns;
        out += SpanJson("queue_wait", trace.submit_ns,
                        trace.queue_wait_ns) +
               "," + SpanJson("device", device_start, trace.device_ns) +
               "," + SpanJson("check", check_start, trace.check_ns) +
               "," +
               SpanJson("recover", recover_start, trace.recover_ns) +
               "," +
               SpanJson("merge", trace.merge_start_ns, trace.merge_ns);
    }
    out += "]}";
    return out;
}

std::string
FlightRecordJson(const RequestTrace& r)
{
    std::string out = "{\"type\":\"flight\",\"trace_id\":" +
                      std::to_string(r.trace_id) +
                      ",\"shard\":" + std::to_string(r.shard) +
                      ",\"enqueue_ns\":" + std::to_string(r.submit_ns) +
                      ",\"complete_ns\":" +
                      std::to_string(r.submit_ns + r.total_ns) +
                      ",\"queue_wait_ns\":" +
                      std::to_string(r.queue_wait_ns) +
                      ",\"device_ns\":" + std::to_string(r.device_ns) +
                      ",\"elements\":" + std::to_string(r.elements) +
                      ",\"threshold\":" + JsonNum(r.threshold) +
                      ",\"predicted_error_pct\":" +
                      JsonNum(r.predicted_error_pct) +
                      ",\"actual_error_pct\":" +
                      JsonNum(r.actual_error_pct) +
                      ",\"fixes\":" + std::to_string(r.fixes) +
                      ",\"breaker_state\":" +
                      std::to_string(r.breaker_state) +
                      ",\"status_code\":" +
                      std::to_string(r.status_code) +
                      ",\"audited\":" + (r.audited ? "true" : "false") +
                      "}";
    return out;
}

std::string
WriteFlightDump(const std::string& dir, uint32_t shard, uint32_t seq,
                const std::string& reason,
                const std::vector<RequestTrace>& records)
{
    std::string path = dir.empty() ? "." : dir;
    if (path.back() != '/')
        path += '/';
    path += "flight-shard" + std::to_string(shard) + "-" +
            std::to_string(seq) + ".jsonl";

    std::string body = MetadataJsonLine() + "\n";
    body += "{\"type\":\"flight_dump\",\"reason\":" +
            JsonQuote(reason) + ",\"shard\":" + std::to_string(shard) +
            ",\"records\":" + std::to_string(records.size()) + "}\n";
    for (const RequestTrace& r : records)
        body += FlightRecordJson(r) + "\n";

    if (!WriteFile(path, body)) {
        Warn("flight recorder: could not write %s", path.c_str());
        return "";
    }
    Registry::Default().GetCounter("serve.flight_dumps")->Increment();
    Inform("flight recorder: shard %u dumped %zu records to %s (%s)",
           static_cast<unsigned>(shard), records.size(), path.c_str(),
           reason.c_str());
    return path;
}

std::string
RequestTracesToJsonl(const std::vector<RequestTrace>& traces)
{
    std::string out = MetadataJsonLine() + "\n";
    for (const RequestTrace& trace : traces)
        out += RequestTraceJson(trace) + "\n";
    return out;
}

}  // namespace rumba::obs
