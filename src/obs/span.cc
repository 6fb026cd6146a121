#include "obs/span.h"

#include <algorithm>
#include <cstdlib>

#include "common/file.h"
#include "common/logging.h"
#include "obs/export.h"
#include "obs/timer.h"

namespace rumba::obs {

/**
 * One thread's span storage. Appends and drains take the buffer's own
 * mutex (uncontended in steady state: only the owning thread appends,
 * exporters drain rarely). open_depth is touched only by the owning
 * thread, so it needs no lock.
 */
struct SpanCollector::ThreadBuffer {
    std::mutex mu;
    std::vector<SpanRecord> spans;
    uint64_t dropped = 0;
    size_t capacity = 0;
    uint32_t thread_id = 0;
    uint32_t open_depth = 0;  ///< owning-thread-only nesting counter.
};

namespace {

/** Monotonically identifies collectors for the thread-local cache. */
std::atomic<uint64_t> next_collector_id{1};

/** One thread's (collector -> buffer) bindings. Threads touch a
 *  handful of collectors at most, so a linear scan beats a map. */
struct TlsBinding {
    uint64_t collector_id;
    std::shared_ptr<SpanCollector::ThreadBuffer> buffer;
};

thread_local std::vector<TlsBinding> tls_bindings;

}  // namespace

SpanCollector::SpanCollector(size_t per_thread_capacity)
    : per_thread_capacity_(per_thread_capacity),
      collector_id_(next_collector_id.fetch_add(1))
{
    RUMBA_CHECK(per_thread_capacity > 0);
}

SpanCollector::ThreadBuffer*
SpanCollector::BufferForThisThread()
{
    for (const TlsBinding& binding : tls_bindings) {
        if (binding.collector_id == collector_id_)
            return binding.buffer.get();
    }
    auto buffer = std::make_shared<ThreadBuffer>();
    buffer->capacity = per_thread_capacity_;
    {
        std::lock_guard<std::mutex> lock(mu_);
        buffer->thread_id = ++next_thread_id_;
        buffers_.push_back(buffer);
    }
    tls_bindings.push_back(TlsBinding{collector_id_, buffer});
    return tls_bindings.back().buffer.get();
}

std::vector<SpanRecord>
SpanCollector::Dump() const
{
    std::vector<std::shared_ptr<ThreadBuffer>> buffers;
    {
        std::lock_guard<std::mutex> lock(mu_);
        buffers = buffers_;
    }
    std::vector<SpanRecord> all;
    for (const auto& buffer : buffers) {
        std::lock_guard<std::mutex> lock(buffer->mu);
        all.insert(all.end(), buffer->spans.begin(),
                   buffer->spans.end());
    }
    std::sort(all.begin(), all.end(),
              [](const SpanRecord& a, const SpanRecord& b) {
                  if (a.start_ns != b.start_ns)
                      return a.start_ns < b.start_ns;
                  return a.depth < b.depth;  // parents before children.
              });
    return all;
}

uint64_t
SpanCollector::TotalRecorded() const
{
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t total = 0;
    for (const auto& buffer : buffers_) {
        std::lock_guard<std::mutex> buffer_lock(buffer->mu);
        total += buffer->spans.size();
    }
    return total;
}

uint64_t
SpanCollector::Dropped() const
{
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t dropped = 0;
    for (const auto& buffer : buffers_) {
        std::lock_guard<std::mutex> buffer_lock(buffer->mu);
        dropped += buffer->dropped;
    }
    return dropped;
}

size_t
SpanCollector::ThreadCount() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return buffers_.size();
}

void
SpanCollector::Clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& buffer : buffers_) {
        std::lock_guard<std::mutex> buffer_lock(buffer->mu);
        buffer->spans.clear();
        buffer->dropped = 0;
    }
}

namespace {

/** The RUMBA_TRACE_OUT flush hook: the default collector as Chrome
 *  trace JSON. */
void
FlushTrace()
{
    const char* path = std::getenv("RUMBA_TRACE_OUT");
    if (path == nullptr || path[0] == '\0')
        return;
    SpanCollector& collector = SpanCollector::Default();
    if (!WriteFile(path, ToChromeTrace(collector.Dump(),
                                       collector.Dropped(),
                                       collector.PerThreadCapacity())))
        Warn("RUMBA_TRACE_OUT: could not write %s", path);
}

}  // namespace

SpanCollector&
SpanCollector::Default()
{
    static SpanCollector* collector = [] {
        auto* c = new SpanCollector();
        const char* path = std::getenv("RUMBA_TRACE_OUT");
        if (path != nullptr && path[0] != '\0') {
            c->Enable();
            RegisterFlushHook(&FlushTrace);
        }
        return c;
    }();
    return *collector;
}

Span::Span(const char* name, SpanCollector* collector)
    : buffer_(nullptr), name_(name)
{
    SpanCollector* target =
        collector != nullptr ? collector : &SpanCollector::Default();
    if (!target->Enabled())
        return;
    buffer_ = target->BufferForThisThread();
    depth_ = buffer_->open_depth++;
    start_ns_ = NowNs();
}

Span::~Span()
{
    if (buffer_ == nullptr)
        return;
    const uint64_t end_ns = NowNs();
    --buffer_->open_depth;
    std::lock_guard<std::mutex> lock(buffer_->mu);
    if (buffer_->spans.size() >= buffer_->capacity) {
        ++buffer_->dropped;  // keep the trace's beginning.
        return;
    }
    SpanRecord record;
    record.name = name_;
    record.start_ns = start_ns_;
    record.duration_ns = end_ns - start_ns_;
    record.thread_id = buffer_->thread_id;
    record.depth = depth_;
    buffer_->spans.push_back(std::move(record));
}

std::string
ToChromeTrace(const std::vector<SpanRecord>& spans, uint64_t dropped,
              size_t per_thread_capacity)
{
    uint64_t base_ns = spans.empty() ? 0 : spans.front().start_ns;
    for (const SpanRecord& s : spans)
        base_ns = std::min(base_ns, s.start_ns);

    std::string out = "{\"displayTimeUnit\":\"ms\",\"otherData\":";
    // Reuse the run-metadata object, grafting the span bookkeeping in.
    std::string meta = MetadataJsonLine();
    RUMBA_CHECK(!meta.empty() && meta.back() == '}');
    meta.pop_back();
    out += meta;
    out += ",\"span_dropped\":" + std::to_string(dropped) +
           ",\"span_per_thread_capacity\":" +
           std::to_string(per_thread_capacity) + "}";
    out += ",\"traceEvents\":[";
    bool first = true;
    for (const SpanRecord& s : spans) {
        if (!first)
            out += ",";
        first = false;
        out += "\n{\"name\":" + JsonQuote(s.name) +
               ",\"cat\":\"rumba\",\"ph\":\"X\",\"pid\":1,\"tid\":" +
               std::to_string(s.thread_id) + ",\"ts\":" +
               JsonNum(static_cast<double>(s.start_ns - base_ns) /
                       1000.0) +
               ",\"dur\":" +
               JsonNum(static_cast<double>(s.duration_ns) / 1000.0) +
               ",\"args\":{\"depth\":" + std::to_string(s.depth) + "}}";
    }
    out += "\n]}\n";
    return out;
}

}  // namespace rumba::obs
