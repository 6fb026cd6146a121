#ifndef RUMBA_OBS_TRACE_H_
#define RUMBA_OBS_TRACE_H_

/**
 * @file
 * Bounded invocation tracing. The runtime records one TraceEvent per
 * ProcessInvocation() into a fixed-capacity ring buffer: the threshold
 * used, how many checks fired, how many elements were fixed, queue
 * backpressure stalls, tuner movement, and the drift verdict. The ring
 * keeps the most recent events, can be started/stopped at runtime, and
 * dumps oldest-first for exporters and tests.
 */

#include <cstdint>
#include <mutex>
#include <vector>

#include "common/ring.h"

namespace rumba::obs {

/** One accelerator invocation as the online loop saw it. */
struct TraceEvent {
    uint64_t sequence = 0;     ///< global record order (assigned).
    uint64_t invocation = 0;   ///< runtime's invocation index.
    uint64_t elements = 0;     ///< elements in the batch.
    double threshold = 0.0;    ///< detection threshold this round.
    uint64_t fires = 0;        ///< checks that fired.
    uint64_t fixes = 0;        ///< iterations re-executed.
    uint64_t queue_full_stalls = 0;  ///< backpressure drains forced.
    uint64_t queue_drops = 0;  ///< recovery entries dropped (overflow).
    uint64_t non_finite = 0;   ///< NaN/Inf accelerator outputs seen.
    uint64_t exact_elements = 0;  ///< elements the breaker kept exact.
    uint64_t tuner_adjustments = 0;  ///< threshold moves this round.
    double output_error_pct = 0.0;   ///< verified residual error.
    double estimated_error_pct = 0.0;  ///< detector's own estimate.
    bool drift = false;        ///< drift alarm raised this round.
    /** Circuit-breaker position after this invocation (core/breaker.h
     *  encoding: 0 closed, 1 open, 2 half-open). */
    uint32_t breaker_state = 0;
};

/** Fixed-capacity ring of the most recent trace events. */
class TraceRing {
  public:
    /** @param capacity events retained (oldest evicted first). */
    explicit TraceRing(size_t capacity = 1024);

    /** Resume recording (rings start enabled). */
    void Start();

    /** Stop recording; Record() becomes a no-op. */
    void Stop();

    /** True while recording. */
    bool Enabled() const;

    /** Append one event (assigns TraceEvent::sequence). */
    void Record(const TraceEvent& event);

    /** Retained events, oldest first. */
    std::vector<TraceEvent> Dump() const;

    /**
     * Copy the most recently recorded event into @p event. Returns
     * false (leaving @p event untouched) when nothing was recorded.
     */
    bool Latest(TraceEvent* event) const;

    /** Events ever recorded (including evicted ones). */
    uint64_t TotalRecorded() const;

    /** Events evicted by capacity pressure. */
    uint64_t Dropped() const;

    /** Events currently retained. */
    size_t Size() const;

    /** Capacity the ring was built with. */
    size_t Capacity() const { return ring_.Capacity(); }

    /** Drop every retained event and reset the sequence counter. */
    void Clear();

    /**
     * The process-wide ring the Rumba runtime records into. Its
     * capacity comes from RUMBA_TRACE_RING_CAPACITY (parsed once via
     * ParseTraceRingCapacity); exports report the effective value in
     * the run-metadata header.
     */
    static TraceRing& Default();

    /** Capacity the default ring is built with when the env is unset. */
    static constexpr size_t kDefaultRingCapacity = 4096;

    /** Clamp range for RUMBA_TRACE_RING_CAPACITY. */
    static constexpr size_t kMinRingCapacity = 16;
    static constexpr size_t kMaxRingCapacity = 1u << 20;

  private:
    mutable std::mutex mu_;
    Ring<TraceEvent> ring_;  ///< Pushed() is the next sequence.
    bool enabled_ = true;
};

/**
 * Parse a RUMBA_TRACE_RING_CAPACITY value: plain decimal digits are
 * clamped to [kMinRingCapacity, kMaxRingCapacity]; anything else
 * (nullptr, empty, a sign, spaces, trailing garbage) selects
 * TraceRing::kDefaultRingCapacity.
 */
size_t ParseTraceRingCapacity(const char* value);

}  // namespace rumba::obs

#endif  // RUMBA_OBS_TRACE_H_
