#ifndef RUMBA_OBS_SPAN_H_
#define RUMBA_OBS_SPAN_H_

/**
 * @file
 * Timeline span tracing. Where obs/metrics.h answers "how much / how
 * fast overall", spans answer "what happened *when*": each Span is an
 * RAII interval on the steady clock, nested by construction order,
 * attributed to the recording thread. Spans land in a per-thread
 * buffer (one short uncontended mutex per record, no global lock on
 * the hot path) owned by a SpanCollector, and export as Chrome
 * trace-event JSON loadable in Perfetto / chrome://tracing — so the
 * overlapped CPU-recovery pipeline of the paper's Figure 8 is
 * directly visible as two lanes.
 *
 * Recording is off by default; setting RUMBA_TRACE_OUT=<file> enables
 * the default collector and registers its Chrome-trace dump as a
 * flush hook (obs/export.h), written at exit and on SIGINT/SIGTERM.
 */

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace rumba::obs {

/** One completed span, as recorded by its closing thread. */
struct SpanRecord {
    std::string name;          ///< stage name (e.g. "npu.invoke").
    uint64_t start_ns = 0;     ///< steady-clock open time.
    uint64_t duration_ns = 0;  ///< close - open.
    uint32_t thread_id = 0;    ///< collector-assigned, 1-based.
    uint32_t depth = 0;        ///< nesting depth at open (0 = root).
};

/**
 * Owns the per-thread span buffers. Each thread registers a buffer on
 * first use (registry mutex held once per thread per collector);
 * recording afterwards touches only that thread's buffer. When a
 * buffer reaches capacity the newest spans are dropped (the trace
 * keeps its beginning) and counted.
 */
class SpanCollector {
  public:
    /** Opaque per-thread storage (defined in span.cc). */
    struct ThreadBuffer;

    /** Spans retained per recording thread. */
    static constexpr size_t kDefaultPerThreadCapacity = 1u << 18;

    explicit SpanCollector(
        size_t per_thread_capacity = kDefaultPerThreadCapacity);

    /** Start recording (collectors start disabled unless env-armed). */
    void Enable() { enabled_.store(true, std::memory_order_relaxed); }

    /** Stop recording; open Spans still close without recording. */
    void Disable() { enabled_.store(false, std::memory_order_relaxed); }

    /** True while recording. */
    bool
    Enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** All retained spans from every thread, sorted by start time. */
    std::vector<SpanRecord> Dump() const;

    /** Spans recorded (retained) across all threads. */
    uint64_t TotalRecorded() const;

    /** Spans dropped to per-thread capacity pressure. */
    uint64_t Dropped() const;

    /** Threads that have recorded into this collector. */
    size_t ThreadCount() const;

    /** Per-thread capacity this collector was built with. */
    size_t PerThreadCapacity() const { return per_thread_capacity_; }

    /** Drop every retained span (thread registrations survive). */
    void Clear();

    /**
     * The process-wide collector the runtime's spans record into.
     * Construction enables it, and registers its RUMBA_TRACE_OUT
     * flush hook, iff RUMBA_TRACE_OUT names a file.
     */
    static SpanCollector& Default();

  private:
    friend class Span;

    /** This thread's buffer, registering it on first use. */
    ThreadBuffer* BufferForThisThread();

    const size_t per_thread_capacity_;
    const uint64_t collector_id_;  ///< key for thread-local caches.
    std::atomic<bool> enabled_{false};
    mutable std::mutex mu_;  ///< guards buffers_ registration/iteration.
    std::vector<std::shared_ptr<ThreadBuffer>> buffers_;
    uint32_t next_thread_id_ = 0;
};

/**
 * RAII timeline span: opens on construction, records on destruction.
 * @p name must outlive the span (string literals at every call site).
 * Construction on a disabled collector is a few relaxed loads and
 * records nothing.
 */
class Span {
  public:
    /** @param collector destination; nullptr selects Default(). */
    explicit Span(const char* name, SpanCollector* collector = nullptr);

    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    ~Span();

  private:
    SpanCollector::ThreadBuffer* buffer_;  ///< nullptr = not recording.
    const char* name_;
    uint64_t start_ns_ = 0;
    uint32_t depth_ = 0;
};

/**
 * Render spans as a Chrome trace-event JSON document ("X" complete
 * events, microsecond timestamps relative to the earliest span) with
 * the run metadata of obs/export.h under "otherData". The result is
 * one valid JSON object, loadable in Perfetto / chrome://tracing.
 */
std::string ToChromeTrace(const std::vector<SpanRecord>& spans,
                          uint64_t dropped, size_t per_thread_capacity);

}  // namespace rumba::obs

#endif  // RUMBA_OBS_SPAN_H_
