#ifndef RUMBA_OBS_REQTRACE_H_
#define RUMBA_OBS_REQTRACE_H_

/**
 * @file
 * The serving engine's one record of a client request. Where
 * obs/span.h records an anonymous per-thread timeline and obs/trace.h
 * one ring entry per accelerator invocation, a RequestTrace follows
 * one *client request* end to end: the engine assigns every submitted
 * InvocationRequest a process-unique trace id, carries it through the
 * shard queue, the worker, any coalesced batch, the breaker-degraded
 * and recovery paths, and builds one RequestTrace when the request's
 * future resolves — outcome, the engine's five stages (queue-wait,
 * device, check, recover, merge), inputs digest, threshold and
 * predicted vs. verified error.
 *
 * Two retention views keep that record. Each shard keeps *every*
 * recent request in its flight ring (a collector with sample_every =
 * 1), so the moments before an incident are never sampled away; the
 * engine dumps it as flight JSONL (FlightRecordJson, WriteFlightDump)
 * when its breaker opens, a fault first fires, or an operator asks.
 * The process keeps the *interesting* ones: the default collector
 * applies tail-based sampling at record time, when the outcome is
 * known — traces that recovered elements, ran under a non-closed
 * breaker, were refused or cancelled, or exceeded a latency bound are
 * always kept; of the healthy remainder one in `sample_every`
 * survives. Both rings evict the oldest record; RUMBA_REQTRACE_OUT
 * arms an at-exit JSONL dump of the default collector
 * (obs/export.h).
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
    /** Requests coalesced into the invocation that served this one
     *  (1 = served alone). */
    uint32_t batch_requests = 1;
    uint64_t fixes = 0;       ///< recovered iterations in that invocation.
    /** Breaker position after that invocation (0 closed, 1 open,
     *  2 half-open). */
    uint32_t breaker_state = 0;
    /** The quality auditor sampled this request for ground-truth
     *  re-execution (obs/audit.h); audit verdicts join back to the
     *  record through this flag + trace_id. */
    bool audited = false;
    /** FNV-1a 64 over the raw input bytes (computed only while the
     *  shard's flight ring is on; 0 otherwise). */
    uint64_t inputs_digest = 0;
    double threshold = 0.0;            ///< detector threshold used.
    double predicted_error_pct = 0.0;  ///< checker's estimate.
    double actual_error_pct = 0.0;     ///< verified residual error.
    /** The engine's five stages, set for served requests only. The
     *  first four run back to back from submit_ns (queue_wait ends at
     *  worker pickup); merge starts at merge_start_ns, after the
     *  invocation's earlier requests have merged. @{ */
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

/** Tail-based sampling policy: which finished traces to keep. */
struct TailSamplingPolicy {
    /** Always keep rejected / cancelled outcomes. */
    bool keep_errors = true;
    /** Always keep traces whose invocation recovered elements. */
    bool keep_recovered = true;
    /** Always keep traces served under a non-closed breaker. */
    bool keep_breaker = true;
    /** Always keep traces with total_ns >= this bound (0 disables). */
    uint64_t latency_keep_ns = 0;
    /** Always keep audited traces, so every audit verdict can join
     *  back to a kept span tree. */
    bool keep_audited = true;
    /** Of the unflagged remainder keep one in N; 0 drops them all,
     *  1 keeps everything. */
    uint32_t sample_every = 16;
};

/**
 * Bounded ring of kept request traces. Record() applies the tail
 * policy; eviction drops the oldest kept trace. All methods are
 * thread-safe (shard workers record concurrently).
 */
class RequestTraceCollector {
  public:
    static constexpr size_t kDefaultCapacity = 4096;

    explicit RequestTraceCollector(size_t capacity = kDefaultCapacity);

    /** Replace the sampling policy (applies to future Record calls). */
    void Configure(const TailSamplingPolicy& policy);

    /** The active sampling policy. */
    TailSamplingPolicy Policy() const;

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

    /** The process-wide collector the serving engine records into. */
    static RequestTraceCollector& Default();

  private:
    bool KeepLocked(const RequestTrace& trace);

    std::atomic<uint64_t> next_trace_id_{1};
    std::atomic<bool> enabled_{true};
    mutable std::mutex mu_;
    TailSamplingPolicy policy_;
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

/** Dump the default collector to @p path. False on I/O error. */
bool WriteRequestTraceFile(const std::string& path);

/**
 * Honor RUMBA_REQTRACE_OUT: when set, write the default collector's
 * kept traces there and return the path; otherwise (or on I/O
 * failure, after a warning) return "". The at-exit hook of
 * obs/export.h makes the final call.
 */
std::string ExportRequestTracesIfConfigured();

}  // namespace rumba::obs

#endif  // RUMBA_OBS_REQTRACE_H_
