#include "obs/reqtrace.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

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

RequestTraceCollector::RequestTraceCollector(size_t capacity)
    : ring_(capacity)
{
}

void
RequestTraceCollector::Configure(const TailSamplingPolicy& policy)
{
    std::lock_guard<std::mutex> lock(mu_);
    policy_ = policy;
}

TailSamplingPolicy
RequestTraceCollector::Policy() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return policy_;
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
    // Tail decision: the outcome is known, so flag the interesting
    // traces first, then head-sample the healthy remainder.
    if (policy_.keep_errors &&
        trace.outcome != RequestOutcome::kCompleted)
        return true;
    if (policy_.keep_recovered && trace.fixes > 0)
        return true;
    if (policy_.keep_breaker && trace.breaker_state != 0)
        return true;
    if (policy_.latency_keep_ns > 0 &&
        trace.total_ns >= policy_.latency_keep_ns)
        return true;
    if (policy_.keep_audited && trace.audited)
        return true;
    if (policy_.sample_every == 0)
        return false;
    return ++unflagged_seen_ % policy_.sample_every == 0;
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

RequestTraceCollector&
RequestTraceCollector::Default()
{
    // Leaked on purpose (see TimeSeriesStore::Default()): incident
    // bundles join reqtraces inside the atexit flush hook, after
    // late-constructed by-value statics have been destroyed.
    static RequestTraceCollector* collector =
        new RequestTraceCollector();
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
                      ",\"batch_requests\":" +
                      std::to_string(trace.batch_requests) +
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
                      ",\"inputs_digest\":" +
                      std::to_string(r.inputs_digest) +
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

    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        Warn("flight recorder: cannot open %s: %s", path.c_str(),
             std::strerror(errno));
        return "";
    }
    const size_t written = std::fwrite(body.data(), 1, body.size(), f);
    const bool ok = std::fclose(f) == 0 && written == body.size();
    if (!ok) {
        Warn("flight recorder: short write to %s", path.c_str());
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

bool
WriteRequestTraceFile(const std::string& path)
{
    const std::string body =
        RequestTracesToJsonl(RequestTraceCollector::Default().Dump());
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    const size_t written = std::fwrite(body.data(), 1, body.size(), f);
    return std::fclose(f) == 0 && written == body.size();
}

std::string
ExportRequestTracesIfConfigured()
{
    const char* path = std::getenv("RUMBA_REQTRACE_OUT");
    if (path == nullptr || path[0] == '\0')
        return "";
    Debug("RUMBA_REQTRACE_OUT: exporting %zu kept request traces to %s",
          RequestTraceCollector::Default().Size(), path);
    if (!WriteRequestTraceFile(path)) {
        Warn("RUMBA_REQTRACE_OUT: could not write %s", path);
        return "";
    }
    return path;
}

}  // namespace rumba::obs
