#ifndef RUMBA_SERVE_LOADGEN_H_
#define RUMBA_SERVE_LOADGEN_H_

/**
 * @file
 * Chaos load generator: seeded open-loop arrival processes over the
 * sharded serving engine. Closed-loop drivers (submit, wait, repeat)
 * can never overload anything — the moment the engine slows down the
 * driver slows down with it — so every overload claim in this repo is
 * made with an *open-loop* generator: arrivals follow a precomputed
 * schedule and are submitted on time (or as fast as possible when the
 * driver falls behind) regardless of how the engine is coping. That
 * is what makes a 2x-capacity burst actually deliver 2x capacity.
 *
 * Three arrival processes cover the overload shapes the admission
 * ladder (serve/admission.h) must survive: Poisson (steady memoryless
 * traffic), bursty on/off (square-wave flash crowds), and a diurnal
 * ramp (slow sinusoidal swell). All randomness — interarrival gaps,
 * tenant class, input values, element-count jitter — draws from
 * Rng::ForStream(seed, stream) with one frozen stream per decision,
 * the same discipline the fault injector uses, so a scenario replays
 * bit-identically next to an armed RUMBA_FAULT_PLAN and adding a
 * decision never perturbs the others' schedules.
 *
 * The generator tracks every submitted future to resolution and
 * aggregates per-quality-class outcome counts and client-observed
 * latency quantiles into a LoadReport. Reports export as JSONL
 * (jsonl_out), and live generators register a best-effort flush hook
 * (obs/export.h) so a SIGINT/SIGTERM mid-run still writes the partial
 * report — the same no-silent-loss policy the serving exports follow.
 */

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/random.h"
#include "serve/engine.h"

namespace rumba::serve {

/** Arrival-process family for the open-loop schedule. */
enum class ArrivalProcess : uint32_t {
    kPoisson,  ///< memoryless: exponential interarrival gaps.
    kBursty,   ///< on/off square wave: flash crowd, then near-idle.
    kDiurnal,  ///< sinusoidal swell between trough and peak rate.
};

/** Stable name ("poisson" / "bursty" / "diurnal"). */
const char* ArrivalProcessName(ArrivalProcess arrival);

/** Parse a name back to the enum; false on unknown names. */
bool ParseArrivalProcess(const std::string& name, ArrivalProcess* out);

/** Tenant mix: relative weights of each quality class in the offered
 *  traffic (normalized internally; all-zero means all-gold). */
struct TenantMix {
    double gold = 0.25;
    double silver = 0.25;
    double best_effort = 0.50;
};

/** Load-generator knobs. */
struct LoadGenConfig {
    ArrivalProcess arrival = ArrivalProcess::kPoisson;
    /** Mean offered rate over the run, in requests per second. */
    double rate_hz = 500.0;
    /** Schedule horizon: arrivals are generated until this much
     *  schedule time has elapsed. */
    uint64_t duration_ns = 1'000'000'000ull;

    /** Bursty: on-phase rate = rate_hz x burst_factor, off-phase rate
     *  = rate_hz x idle_factor. @{ */
    double burst_factor = 4.0;
    double idle_factor = 0.10;
    uint64_t burst_on_ns = 50'000'000ull;
    uint64_t burst_off_ns = 150'000'000ull;
    /** @} */

    /** Diurnal: instantaneous rate swings sinusoidally from rate_hz
     *  up to rate_hz x peak_factor over each period (0 period spans
     *  the whole run: one trough-peak-trough swell). @{ */
    double diurnal_peak_factor = 3.0;
    uint64_t diurnal_period_ns = 0;
    /** @} */

    /** Seed for every decision stream (see kStream* below). */
    uint64_t seed = 42;

    /** Elements per request: `elements` +/- uniform jitter of at most
     *  `element_jitter` (never below 1). @{ */
    size_t elements = 8;
    size_t element_jitter = 0;
    /** @} */

    /** Element input values: uniform in [input_lo, input_hi). @{ */
    double input_lo = 0.05;
    double input_hi = 1.0;
    /** @} */

    /** Optional element pool, flattened N x engine-input-width
     *  doubles: when non-empty, request elements are drawn from it
     *  with replacement instead of the uniform range — keeps the
     *  offered traffic inside the distribution the deployed checker
     *  was trained on (scenario runs feed it the workload's test
     *  set). */
    std::vector<double> input_pool;

    TenantMix mix;

    /** Relative deadline per class, in nanoseconds from Submit
     *  (0 = that class carries no deadline). @{ */
    uint64_t gold_deadline_ns = 0;
    uint64_t silver_deadline_ns = 0;
    uint64_t best_effort_deadline_ns = 0;
    /** @} */

    /** When non-empty, Run() (and the signal flush hook, mid-run)
     *  writes the JSONL report here. */
    std::string jsonl_out;

    /** Frozen decision-stream keys (Rng::ForStream). @{ */
    static constexpr uint64_t kStreamArrival = 0;
    static constexpr uint64_t kStreamTenant = 1;
    static constexpr uint64_t kStreamInputs = 2;
    static constexpr uint64_t kStreamJitter = 3;
    /** @} */
};

/** Outcome counts and latency samples for one quality class. */
struct ClassStats {
    uint64_t submitted = 0;
    uint64_t ok = 0;         ///< served at full quality (no degrade).
    uint64_t degraded = 0;   ///< served, recovery skipped.
    uint64_t compensated = 0;  ///< served, compensate-only recovery.
    uint64_t bypassed = 0;   ///< served, checker bypassed.
    uint64_t shed = 0;       ///< refused by admission (kUnavailable).
    uint64_t expired = 0;    ///< kDeadlineExceeded (Submit or queue).
    uint64_t rejected = 0;   ///< queue-full backpressure.
    uint64_t cancelled = 0;  ///< engine shut down underneath it.
    uint64_t failed = 0;     ///< any other non-ok status.
    /** Served requests whose client-observed latency exceeded their
     *  deadline (the work still completed — it expired in flight
     *  from the client's point of view, not the queue's). */
    uint64_t deadline_misses = 0;
    /** Client-observed submit -> resolution latency of served
     *  requests (includes harvest-polling granularity). */
    std::vector<double> latencies_ns;

    /** Served requests (ok + degraded + compensated + bypassed). */
    uint64_t Served() const
    {
        return ok + degraded + compensated + bypassed;
    }

    /** Latency quantile in ns over served requests (0 when none). */
    double LatencyQuantileNs(double q) const;
};

/** Everything one Run() observed. */
struct LoadReport {
    /** Stats by quality class, indexed by QualityClass. */
    ClassStats per_class[kNumQualityClasses];
    /** Arrivals the schedule offered (== sum of class submitted). */
    uint64_t offered = 0;
    /** Wall time the run actually took (>= duration_ns when the
     *  driver fell behind the schedule). */
    uint64_t wall_ns = 0;
    /** Submissions made after their scheduled arrival by more than
     *  1 ms — how far the open loop fell behind. */
    uint64_t late_submits = 0;
    /** kDeadlineExceeded results that nonetheless carried outputs —
     *  expired work that reached the device. The engine promises this
     *  never happens; the scenario runner asserts it stays zero. */
    uint64_t expired_with_output = 0;

    ClassStats Total() const;
};

/**
 * One open-loop run against an engine. Construction registers the
 * generator with the process-wide flush registry; destruction
 * unregisters it. Run() is single-shot and blocking.
 */
class LoadGenerator {
  public:
    LoadGenerator(ShardedEngine& engine, const LoadGenConfig& config);
    ~LoadGenerator();

    LoadGenerator(const LoadGenerator&) = delete;
    LoadGenerator& operator=(const LoadGenerator&) = delete;

    /**
     * Generate and submit the whole schedule, harvest every future,
     * and return the report. Also writes config.jsonl_out when set.
     */
    LoadReport Run();

    /** The report so far (thread-safe; partial while Run() is live). */
    LoadReport Snapshot() const;

    const LoadGenConfig& Config() const { return config_; }

    /**
     * Best-effort flush of every live generator's partial report to
     * its jsonl_out (skipping any whose lock is held — called from a
     * signal handler, so it must never block). Registered with
     * obs::RegisterFlushHook by the first generator constructed with
     * a jsonl_out.
     */
    static void FlushAll();

  private:
    struct InFlight;

    /** Interarrival gap from the current schedule time. */
    uint64_t NextGapNs(uint64_t schedule_ns, Rng& rng) const;

    /** Fold one resolved future into the report (mu_ held). */
    void AbsorbLocked(const InFlight& flight,
                      const InvocationResult& result,
                      uint64_t resolve_ns);

    ShardedEngine& engine_;
    const LoadGenConfig config_;
    mutable std::mutex mu_;
    LoadReport report_;
};

/**
 * Render a report as JSONL: the run-metadata header of obs/export.h,
 * one {"type":"loadgen","class":...} line per quality class, and one
 * "total" line carrying offered / wall_ns / late_submits.
 */
std::string LoadReportToJsonl(const LoadReport& report,
                              const LoadGenConfig& config);

/** Write the JSONL rendering to @p path. False on I/O error. */
bool WriteLoadReportFile(const std::string& path,
                         const LoadReport& report,
                         const LoadGenConfig& config);

}  // namespace rumba::serve

#endif  // RUMBA_SERVE_LOADGEN_H_
