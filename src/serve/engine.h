#ifndef RUMBA_SERVE_ENGINE_H_
#define RUMBA_SERVE_ENGINE_H_

/**
 * @file
 * The sharded serving engine: Rumba as an online service. The paper's
 * runtime manages one accelerator; a deployment serves many
 * concurrent clients, so the engine owns N worker shards, each
 * holding a full RumbaRuntime replica (accelerator + checker + tuner
 * + breaker) instantiated from one shared deployment Artifact —
 * train once, replicate everywhere.
 *
 * Clients Submit() asynchronously and receive a
 * std::future<InvocationResult>. Requests flow through a bounded
 * per-shard queue with reject-on-full backpressure (the same
 * drop-visible policy as the recovery queue: overload is reported,
 * never silently absorbed as latency). Each shard worker drains its
 * queue in FIFO order, serves each request as exactly one accelerator
 * invocation, and completes the futures.
 *
 * Determinism: invocation boundaries are request boundaries, so with
 * explicit or round-robin shard assignment shard k's runtime sees
 * exactly the same invocation stream a dedicated single-runtime
 * deployment would, and the outputs are bit-identical to N
 * sequential streams under every serving config (property-tested).
 */

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "core/artifact.h"
#include "core/runtime.h"
#include "core/status.h"
#include "obs/profiler.h"
#include "obs/reqtrace.h"
#include "serve/admission.h"
#include "serve/queue.h"

namespace rumba::obs {
class Counter;
class Gauge;
class Histogram;
class QualityAuditor;
class SloMonitor;
struct IncidentFlightExtract;
}  // namespace rumba::obs

namespace rumba::serve {

/** Serving-engine knobs. */
struct ServeConfig {
    /** Worker shards; each holds one RumbaRuntime replica. */
    size_t shards = 4;
    /** Pending requests each shard's queue admits before rejecting
     *  with kResourceExhausted (reject-on-full backpressure). */
    size_t queue_capacity = 64;
    /**
     * Modeled accelerator occupancy per element, in nanoseconds: the
     * worker holds its (virtual) device busy for count x this after
     * each invocation. On hosts with fewer cores than shards this is
     * what the paper's CPU/accelerator overlap looks like from the
     * serving layer: shards overlap device wait time, not CPU time.
     * 0 disables the emulation (pure CPU-bound serving).
     */
    uint64_t emulated_device_ns = 0;

    /** The process-wide, tail-sampled view of request records
     *  (obs/reqtrace.h). */
    struct TraceOptions {
        /** Offer every request's record to the default collector
         *  (and enable per-stage runtime timings on every shard). */
        bool enabled = true;
        /** Head-sampling rate for unflagged (healthy) traces. */
        uint32_t sample_every = 16;
    };
    TraceOptions trace;

    /** The per-shard, keep-everything view of request records: each
     *  shard's flight ring (obs/reqtrace.h), dumped as flight JSONL on
     *  breaker trips, first faults and DumpFlightRecords(). */
    struct FlightOptions {
        /** Recent requests retained per shard (0 disables). */
        size_t capacity = 256;
        /** Directory dump artifacts are written into. */
        std::string dump_dir = ".";
    };
    FlightOptions flight;

    /** SLO burn-rate monitoring (obs/slo.h): the latency and quality
     *  SLOs, objective 0.99 each, on the monitor's 10 s / 60 s burn
     *  windows like the auditor's audited-quality SLO. */
    struct SloOptions {
        /** The one off switch for the latency and quality SLOs. */
        bool enabled = true;
        /** Latency objective: enqueue-to-complete under this bound. */
        static constexpr uint64_t kLatencyBoundNs = 100ull * 1000 * 1000;
        /** Quality objective: verified invocation error within
         *  tuner target + this margin (percentage points, >= 0;
         *  Create() refuses a negative margin). */
        double quality_margin_pct = 2.0;
    };
    SloOptions slo;

    /** Live cost & efficiency profiling (obs/profiler.h). */
    struct ProfileOptions {
        /** Per-stage thread-CPU attribution on every shard (feeds the
         *  rumba_cpu_stage_seconds_* counters, the /profilez stage
         *  shares and the RUMBA_PROFILE_OUT folded dump) and the
         *  rolling speedup/energy estimator. Rides the <5%
         *  instrumentation-overhead gate in bench/serve_throughput. */
        bool enabled = true;
    };
    ProfileOptions profile;

    /** Ground-truth quality auditing (obs/audit.h): every served
     *  request is offered to the auditor, which owns the sampling
     *  policy and re-executes its picks on a background pool. */
    struct AuditOptions {
        bool enabled = true;
        /** Healthy requests audited 1-in-N (0 = forced samples
         *  only). The RUMBA_AUDIT_SAMPLE_N environment variable
         *  overrides this (ParseAuditSampleN); "0" there disables
         *  auditing entirely. */
        size_t sample_every = 16;
        /** Bounded sample queue (overflow drops and counts). */
        size_t queue_capacity = 64;
        /** Background audit threads. */
        size_t threads = 1;
        /** Audited-TOQ bound margin over the tuner target
         *  (percentage points); negative reuses
         *  SloOptions::quality_margin_pct so the proxy and audited
         *  SLOs judge the same objective. */
        double margin_pct = -1.0;
        /** Completed audits retained for /statusz + RUMBA_AUDIT_OUT. */
        size_t result_capacity = 256;
        /** Objective of the audited-truth SLO
         *  (slo.audited_quality.*). */
        double objective = 0.99;
    };
    AuditOptions audit;

    /** Deadline-aware admission control (serve/admission.h): the
     *  closed/shedding/emergency state machine that degrades and
     *  sheds by quality class before queue-full backpressure hits.
     *  admission.enabled = false reverts to pure reject-on-full. */
    AdmissionConfig admission;

    /** Incident forensics (obs/tsdb.h, obs/incident.h): the
     *  refcounted registry sampler feeding the retention store and
     *  the incident manager's fault-delta scan, and the engine's
     *  flight-record contribution to incident bundles. Rides the <5%
     *  instrumentation-overhead gate in bench/serve_throughput. The
     *  RUMBA_TSDB_PERIOD_MS environment variable sets the sampler
     *  period ("0" keeps it off). */
    struct ForensicsOptions {
        bool enabled = true;
    };
    ForensicsOptions forensics;
};

/** One asynchronous invocation request. */
struct InvocationRequest {
    /** Flat element inputs, count x width contiguous doubles. */
    std::vector<double> inputs;
    size_t count = 0;  ///< elements in @c inputs.
    size_t width = 0;  ///< doubles per element (kernel input arity).
    /**
     * Target shard, or kAnyShard for round-robin assignment. Explicit
     * pinning gives a client session a stable runtime (stable tuner
     * state); round-robin spreads load and is deterministic in
     * submission order.
     */
    int shard = kAnyShard;
    /**
     * Absolute deadline on the obs::NowNs() steady clock (0 = none).
     * A request whose deadline has passed resolves kDeadlineExceeded
     * — immediately at Submit, or at worker pickup without ever
     * touching the device.
     */
    uint64_t deadline_ns = 0;
    /** Service tier for admission control (serve/admission.h):
     *  best-effort sheds first, gold is never shed by admission. */
    QualityClass quality = QualityClass::kGold;

    static constexpr int kAnyShard = -1;
};

/** What the future resolves to. */
struct InvocationResult {
    /** kOk, or why the request never ran (rejected / cancelled). */
    core::Status status;
    /** Request trace id (obs/reqtrace.h), assigned at Submit even for
     *  rejected requests — joins results with exported traces and
     *  flight dumps. */
    uint64_t trace_id = 0;
    /** Merged element outputs, count x NumOutputs() doubles. */
    std::vector<double> outputs;
    /** The runtime's quality report for the one invocation that
     *  served this request. */
    core::InvocationReport report;
    size_t shard = 0;  ///< shard that served (or rejected) it.
};

/**
 * Parse a RUMBA_AUDIT_SAMPLE_N value, which overrides
 * ServeConfig::audit.sample_every (0 disables auditing). nullopt,
 * meaning "keep the configured rate", when unset or empty, and, with
 * a warning, when it is anything but plain decimal digits (a sign,
 * spaces, trailing garbage) or overflows.
 */
std::optional<size_t> ParseAuditSampleN(const char* value);

/** N RumbaRuntime replicas behind bounded queues. */
class ShardedEngine {
  public:
    /**
     * Bring up @p config.shards replicas from one deployment
     * artifact. Fails (never dies) when the artifact is rejected by
     * RumbaRuntime::FromArtifact() or the shard/queue shape is
     * degenerate (kInvalidArgument).
     */
    static core::Result<std::unique_ptr<ShardedEngine>> Create(
        const core::Artifact& artifact,
        const core::RuntimeConfig& runtime_config,
        const ServeConfig& serve_config);

    /** Shutdown() if the caller has not already. */
    ~ShardedEngine();

    ShardedEngine(const ShardedEngine&) = delete;
    ShardedEngine& operator=(const ShardedEngine&) = delete;

    /**
     * Submit one request. Always returns a valid future; it resolves
     * to:
     *  - kInvalidArgument  — malformed request (empty, wrong width,
     *                        inputs.size() != count x width, bad
     *                        shard index); resolved immediately.
     *  - kResourceExhausted — the target shard's queue is full
     *                        (backpressure); resolved immediately.
     *  - kUnavailable      — engine already shut down, or admission
     *                        control shed the request (the message
     *                        names the admission state).
     *  - kDeadlineExceeded — the request's deadline passed (at
     *                        Submit, or while queued — expired work
     *                        never reaches the device).
     *  - kCancelled        — accepted, then Shutdown() before a
     *                        worker reached it.
     *  - kOk               — served; outputs and report are valid
     *                        (report.degrade records the overload
     *                        rung it was served at).
     */
    std::future<InvocationResult> Submit(InvocationRequest request);

    /**
     * Block until every accepted request has completed (all futures
     * resolved). New submissions keep being accepted; Drain() returns
     * once the in-flight count touches zero.
     */
    void Drain();

    /**
     * Stop the engine: reject new submissions (kUnavailable), cancel
     * every queued-but-unstarted request (kCancelled), finish the
     * in-flight invocations, join the workers. Idempotent.
     */
    void Shutdown();

    /** Test hook: stall/resume all shard workers so a producer can
     *  fill a queue deterministically. @{ */
    void Pause();
    void Resume();
    /** @} */

    size_t Shards() const { return shards_.size(); }

    /** Kernel input arity every request's width must match. */
    size_t InputWidth() const { return input_width_; }

    /** Kernel output arity (outputs are count x this). */
    size_t OutputWidth() const { return output_width_; }

    /** Shard @p i's runtime replica (inspection; the engine owns it
     *  and its worker mutates it — read between Drain()s). */
    const core::RumbaRuntime& Runtime(size_t i) const;

    /**
     * Dump every shard's flight ring to ServeConfig::flight.dump_dir
     * now (operator's SIGUSR1 equivalent). Returns the paths written.
     * The engine also dumps a shard automatically when its breaker
     * transitions to open or a fault (non-finite outputs,
     * recovery-queue drops) first appears.
     */
    std::vector<std::string> DumpFlightRecords(
        const std::string& reason = "manual");

    /** Shard @p i's flight ring (inspection / tests; requires
     *  flight.capacity > 0). */
    const obs::RequestTraceCollector& Flight(size_t i) const;

    /**
     * Live engine status as a JSON object — per-shard queue depth,
     * breaker state, current threshold, served count, plus engine
     * totals and the tuner mode. Reads only atomics and gauges, so it
     * is safe to call from the scrape server while workers run; the
     * engine installs it as the /statusz provider
     * (obs/http_exporter.h) on Create.
     */
    std::string StatuszJson() const;

    /** The latency SLO monitor (null when disabled). */
    obs::SloMonitor* LatencySlo() { return latency_slo_.get(); }

    /** The quality SLO monitor (null when disabled). */
    obs::SloMonitor* QualitySlo() { return quality_slo_.get(); }

    /** The ground-truth quality auditor (null when disabled). */
    obs::QualityAuditor* Auditor() { return auditor_.get(); }

    /** The admission controller (never null; inert when
     *  ServeConfig::admission.enabled is false). */
    AdmissionController* Admission() { return admission_.get(); }

  private:
    /** One queued request awaiting its shard worker. */
    struct Pending {
        InvocationRequest request;
        std::promise<InvocationResult> promise;
        uint64_t enqueue_ns = 0;
        uint64_t trace_id = 0;  ///< assigned at Submit (obs/reqtrace.h).
        /** Overload rung admission assigned (serve/admission.h). */
        core::DegradeMode degrade = core::DegradeMode::kNone;
    };

    /** One worker shard: a runtime replica behind a bounded queue. */
    struct Shard {
        explicit Shard(size_t queue_capacity) : queue(queue_capacity) {}

        std::unique_ptr<core::RumbaRuntime> runtime;
        BoundedQueue<Pending> queue;
        std::thread worker;
        /** Invocation output scratch, reused across requests. */
        std::vector<double> scratch_out;
        /** This shard's cpu_stage_seconds.shard<k>.* row, fetched
         *  once at Create (all null when profiling is off). */
        obs::CpuProfiler::ShardRow profile_row{};
        /** Per-shard telemetry. */
        obs::Gauge* obs_queue_depth = nullptr;
        obs::Gauge* obs_breaker_state = nullptr;
        obs::Gauge* obs_threshold = nullptr;
        obs::Counter* obs_served = nullptr;
        /** Flight ring: every recent request record (null when
         *  flight.capacity is 0). */
        std::unique_ptr<obs::RequestTraceCollector> flight;
        /** Dumps written so far; the next dump's file sequence. */
        std::atomic<uint32_t> flight_dumps{0};
        /** Auto-dump bookkeeping (worker thread only). */
        uint32_t last_breaker_state = 0;
        bool fault_dump_latched = false;
        /** Time spent blocked on the queue since the last invocation
         *  (worker thread only; its CPU folds into the next
         *  invocation's stage record). */
        obs::StageRecord queue_wait;
        /** Per-element audit capture of the worker's last invocation
         *  (worker thread only; filled when auditing is enabled). */
        core::AuditCapture audit_capture;
    };

    ShardedEngine(const ServeConfig& config, size_t input_width,
                  size_t output_width);

    void WorkerLoop(size_t shard_index);
    void ProcessRequest(Shard& shard, size_t shard_index,
                        Pending* pending);
    void FinishOne(Pending* pending, InvocationResult result);

    /** What a served request adds to its record. */
    struct Served {
        const core::InvocationReport* report = nullptr;
        uint64_t pickup_ns = 0;       ///< worker picked the request up.
        uint64_t device_ns = 0;       ///< streaming, check excluded.
        uint64_t merge_start_ns = 0;
        uint64_t merge_end_ns = 0;
        bool audited = false;
    };

    /**
     * Build a request's one record and hand it to the rings it
     * belongs in: shard @p shard_index's flight ring when @p to_flight
     * (and the ring is on), and the process-wide kept ring when
     * tracing. @p served is null for a request that never ran. With
     * both rings off nothing is built.
     */
    void RecordRequest(size_t shard_index, bool to_flight,
                       uint64_t trace_id, uint64_t submit_ns,
                       uint64_t elements, obs::RequestOutcome outcome,
                       core::StatusCode code,
                       const Served* served = nullptr);

    /** Write shard @p shard_index's flight ring to flight.dump_dir. */
    std::string DumpFlight(size_t shard_index, const std::string& reason);

    /** The engine's contribution to incident bundles: the tail of
     *  every shard's flight ring as an array-free JSON fragment plus
     *  the trace ids it contains (obs/incident.h joins them with the
     *  tail-sampled reqtraces). */
    obs::IncidentFlightExtract IncidentFlightRecords() const;

    ServeConfig config_;
    const size_t input_width_;
    const size_t output_width_;
    std::vector<std::unique_ptr<Shard>> shards_;
    std::atomic<size_t> next_shard_{0};   ///< round-robin cursor.
    std::atomic<bool> shutdown_{false};

    mutable std::mutex drain_mu_;
    std::condition_variable drain_cv_;
    size_t in_flight_ = 0;  ///< accepted, future not yet resolved.

    /** Aggregated telemetry (process-wide obs registry). */
    obs::Counter* obs_submitted_;
    obs::Counter* obs_rejected_;
    obs::Counter* obs_completed_;
    obs::Counter* obs_cancelled_;
    obs::Histogram* obs_enqueue_to_complete_ns_;
    obs::Histogram* obs_batch_elements_;
    /** Admission outcomes (serve.admission.*): every well-formed
     *  Submit to a running engine lands in exactly one of admitted/
     *  compensated/degraded/bypassed/shed/expired/rejected (a rung
     *  counts once the request is queued), so the sum reconciles with
     *  serve.submitted. A queued request that expires at pickup is
     *  counted again, as expired. */
    obs::Counter* obs_adm_admitted_;
    obs::Counter* obs_adm_compensated_;
    obs::Counter* obs_adm_degraded_;
    obs::Counter* obs_adm_bypassed_;
    obs::Counter* obs_adm_shed_;
    obs::Counter* obs_adm_expired_;
    obs::Counter* obs_adm_rejected_;

    /** SLO monitors (null when ServeConfig::slo disables them). */
    std::unique_ptr<obs::SloMonitor> latency_slo_;
    std::unique_ptr<obs::SloMonitor> quality_slo_;
    /** Ground-truth auditor (null when ServeConfig::audit or
     *  RUMBA_AUDIT_SAMPLE_N=0 disables it). */
    std::unique_ptr<obs::QualityAuditor> auditor_;
    /** Admission state machine (always constructed; inert when
     *  ServeConfig::admission.enabled is false). */
    std::unique_ptr<AdmissionController> admission_;
    /** Quality-SLO pass bound: tuner target + margin (percent). */
    double quality_bound_pct_ = 0.0;
    /** Tuner mode name for /statusz (config constant). */
    const char* tuner_mode_ = "toq";
    /** True while this engine owns the /statusz provider. */
    bool statusz_installed_ = false;
    /** Cost profiling on (ServeConfig::profile): shards attribute
     *  stage CPU and invocations feed the efficiency estimator. */
    bool profiling_ = false;
    /** Forensics on (ServeConfig::forensics): the engine holds a ref
     *  on the tsdb sampler and contributes flight records to incident
     *  bundles. */
    bool forensics_ = false;
};

}  // namespace rumba::serve

#endif  // RUMBA_SERVE_ENGINE_H_
