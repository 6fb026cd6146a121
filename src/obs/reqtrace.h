#ifndef RUMBA_OBS_REQTRACE_H_
#define RUMBA_OBS_REQTRACE_H_

/**
 * @file
 * The serving engine's one record of a client request. Where
 * obs/span.h records an anonymous per-thread timeline and the
 * runtime's InvocationReport one accelerator invocation, a
 * RequestTrace follows one *client request* end to end: the engine
 * assigns every submitted InvocationRequest a process-unique trace
 * id, carries it through the shard queue, the worker, the one
 * invocation that serves it, the breaker-degraded and recovery paths,
 * and builds one RequestTrace when the request's future resolves —
 * outcome, the engine's five stages (queue-wait, device, check,
 * recover, merge), threshold and predicted vs. verified error.
 *
 * Two retention views keep that record. Each shard keeps *every*
 * recent request in its flight ring (a collector with sample_every =
 * 1), so the moments before an incident are never sampled away; the
 * engine dumps it as flight JSONL (FlightRecordJson, WriteFlightDump)
 * when its breaker opens, a fault first fires, or an operator asks.
 * The process keeps the *interesting* ones: the default collector
 * applies tail-based sampling at record time, when the outcome is
 * known — traces that were refused, cancelled, shed or expired,
 * recovered elements, ran under a non-closed breaker, or were audited
 * are always kept; of the healthy remainder one in `sample_every`
 * survives. Both rings evict the oldest record. When RUMBA_REQTRACE_OUT
 * is set, the default collector registers its JSONL dump as a flush
 * hook (obs/export.h), written at exit and on SIGINT/SIGTERM.
 */

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/ring.h"

namespace rumba::obs {

/** How a traced request's future resolved. */
enum class RequestOutcome : uint32_t {
    kCompleted,  ///< served; outputs delivered.
    kRejected,   ///< never enqueued (bad shape / backpressure).
    kCancelled,  ///< accepted, then shut down before a worker ran it.
    kShed,       ///< refused by admission control (serve/admission.h).
    kExpired,    ///< deadline passed before the device was reached.
};

/** Stable name for an outcome ("completed" / "rejected" /
 *  "cancelled" / "shed" / "expired"). */
const char* RequestOutcomeName(RequestOutcome outcome);

/** One request, end to end, as the serving engine saw it. */
struct RequestTrace {
    uint64_t trace_id = 0;    ///< process-unique, assigned at Submit.
    uint32_t shard = 0;       ///< shard that served (or refused) it.
    RequestOutcome outcome = RequestOutcome::kCompleted;
    uint32_t status_code = 0;  ///< core::StatusCode of the result.
    uint64_t submit_ns = 0;   ///< steady-clock Submit() time.
    uint64_t total_ns = 0;    ///< submit -> future resolution.
    uint64_t elements = 0;    ///< elements in the request.
    uint64_t fixes = 0;       ///< recovered iterations in its invocation.
    /** Breaker position after that invocation (0 closed, 1 open,
     *  2 half-open). */
    uint32_t breaker_state = 0;
    /** The quality auditor sampled this request for ground-truth
     *  re-execution (obs/audit.h); audit verdicts join back to the
     *  record through this flag + trace_id. */
    bool audited = false;
    double threshold = 0.0;            ///< detector threshold used.
    double predicted_error_pct = 0.0;  ///< checker's estimate.
    double actual_error_pct = 0.0;     ///< verified residual error.
    /** The engine's five stages, set for served requests only. The
     *  first four run back to back from submit_ns (queue_wait ends at
     *  worker pickup); merge starts at merge_start_ns. @{ */
    uint64_t queue_wait_ns = 0;
    uint64_t device_ns = 0;   ///< device streaming, check excluded.
    uint64_t check_ns = 0;
    uint64_t recover_ns = 0;  ///< recovery + breaker-exact elements.
    uint64_t merge_start_ns = 0;
    uint64_t merge_ns = 0;
    /** @} */
};

/** Spans a trace carries: the five stages when served, none when it
 *  never ran. */
inline size_t
SpanCount(const RequestTrace& trace)
{
    return trace.outcome == RequestOutcome::kCompleted ? 5 : 0;
}

/**
 * Bounded ring of kept request traces. Record() applies the tail-based
 * sampling policy: a trace that was not served (rejected, cancelled,
 * shed, expired), recovered elements, ran under a non-closed breaker,
 * or was audited (so every audit verdict joins back to a kept span
 * tree) is always kept; of the unflagged remainder one in
 * `sample_every` is (0 keeps none, 1 keeps everything). Eviction
 * drops the oldest kept trace. All methods are thread-safe (shard
 * workers record concurrently).
 */
class RequestTraceCollector {
  public:
    static constexpr size_t kDefaultCapacity = 4096;

    explicit RequestTraceCollector(size_t capacity = kDefaultCapacity,
                                   uint32_t sample_every = 16);

    /** Replace sample_every (applies to future Record calls). */
    void SetSampleEvery(uint32_t sample_every);

    /** Next process-unique trace id (monotonic from 1; 0 is "no
     *  trace"). Ids stay unique even while recording is disabled so
     *  results always carry one. */
    uint64_t NextTraceId();

    /** Resume keeping traces (collectors start enabled). */
    void Enable();

    /** Stop keeping traces; Record() only counts. */
    void Disable();

    /** True while keeping traces. */
    bool Enabled() const;

    /** Offer one finished trace; the tail policy decides its fate. */
    void Record(const RequestTrace& trace);

    /** Kept traces, oldest first. */
    std::vector<RequestTrace> Dump() const;

    /** Traces offered to Record() since construction / Clear(). */
    uint64_t TotalRecorded() const;

    /** Traces the tail policy discarded. */
    uint64_t Sampled() const;

    /** Kept traces evicted by capacity pressure. */
    uint64_t Evicted() const;

    /** Kept traces currently retained. */
    size_t Size() const;

    size_t Capacity() const { return ring_.Capacity(); }

    /** Drop every kept trace and reset the counters (the trace-id
     *  sequence keeps advancing — ids are never reused). */
    void Clear();

    /** The process-wide collector the serving engine records into.
     *  Construction registers its RUMBA_REQTRACE_OUT flush hook iff
     *  that variable names a file. */
    static RequestTraceCollector& Default();

  private:
    bool KeepLocked(const RequestTrace& trace);

    std::atomic<uint64_t> next_trace_id_{1};
    std::atomic<bool> enabled_{true};
    mutable std::mutex mu_;
    uint32_t sample_every_;
    Ring<RequestTrace> ring_;
    uint64_t total_recorded_ = 0;
    uint64_t sampled_out_ = 0;
    uint64_t unflagged_seen_ = 0;  ///< 1-in-N sampling counter.
};

/**
 * Render traces as JSONL: the run-metadata header of obs/export.h,
 * then one {"type":"reqtrace",...} object per trace with a nested
 * "spans" array.
 */
std::string RequestTracesToJsonl(const std::vector<RequestTrace>& traces);

/** One trace as a single JSON object (no trailing newline). */
std::string RequestTraceJson(const RequestTrace& trace);

/** One trace in the flight-dump view: a single {"type":"flight",...}
 *  JSON object (no trailing newline). */
std::string FlightRecordJson(const RequestTrace& trace);

/**
 * Write @p records (a shard's flight ring, oldest first) to
 * @p dir/flight-shard<shard>-<seq>.jsonl: the obs run-metadata
 * header, one {"type":"flight_dump","reason":...} line, then one
 * FlightRecordJson line per record. Counts serve.flight_dumps.
 * Returns the path written, or "" on I/O failure (after a warning).
 */
std::string WriteFlightDump(const std::string& dir, uint32_t shard,
                            uint32_t seq, const std::string& reason,
                            const std::vector<RequestTrace>& records);

}  // namespace rumba::obs

#endif  // RUMBA_OBS_REQTRACE_H_
