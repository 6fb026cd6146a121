#ifndef RUMBA_OBS_INCIDENT_H_
#define RUMBA_OBS_INCIDENT_H_

/**
 * @file
 * Incident correlation: joins the three sources that judge against a
 * fixed contract (SLO burn-rate fires, obs/slo.h; breaker open
 * transitions, serve engine; `fault.injected.*` counter deltas)
 * inside a correlation window into a single rate-limited incident
 * bundle — a timeline of contributing signals, tsdb extracts around
 * onset (obs/tsdb.h), the per-shard flight records and tail-sampled
 * reqtraces joined by trace id, and a /profilez snapshot. Bundles are
 * dumped as `incident-<n>.json` under RUMBA_INCIDENT_DIR and served
 * live via `/incidentz`.
 *
 * Correlation semantics (DESIGN.md §14): signals accumulate in a
 * sliding 2 s window; when signals from at least two distinct sources
 * coexist in the window (and the 5 s rate limiter allows), an
 * incident opens at that moment and keeps collecting signals until
 * the window past onset closes, then finalizes: context is gathered
 * and the bundle dumped. The tsdb sampler's tick polls for due
 * finalizations so quiet periods still close incidents.
 */

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/ring.h"
#include "obs/metrics.h"

namespace rumba::obs {

/** One contributing signal. */
struct IncidentSignal {
    std::string source;  ///< "slo" | "breaker" | "fault".
    std::string name;    ///< monitor / shard / fault id.
    std::string detail;  ///< human-readable edge description.
    std::string series;  ///< registry series to extract around onset.
    uint64_t trace_id = 0;  ///< originating request (0 = none).
    double t_ms = 0.0;      ///< tsdb-epoch ms (0 ⇒ stamped on entry).
};

/** What the serving engine contributes at finalize time. */
struct IncidentFlightExtract {
    std::string json;  ///< array-free `{"0":{...},...,"count":N}`.
    std::vector<uint64_t> trace_ids;  ///< for reqtrace joins.
};

/**
 * Process-wide incident correlator. OnSignal() may be called from any
 * thread (workers, SLO monitors, the tsdb sampler); bundle assembly
 * happens outside the signal lock on whichever thread trips the
 * finalize.
 */
class IncidentManager {
  public:
    /** Sliding correlation window, and how long an incident keeps
     *  collecting signals past onset. */
    static constexpr double kWindowMs = 2000.0;
    /** Distinct sources in the window that open an incident. */
    static constexpr size_t kMinSources = 2;
    /** Minimum spacing between incident onsets. */
    static constexpr double kRateLimitMs = 5000.0;
    /** Finalized bundles retained for /incidentz. */
    static constexpr size_t kMaxKept = 8;
    /** Timeline cap per incident (and on the pending window). */
    static constexpr size_t kMaxSignals = 64;
    /** Half-window of the tsdb extracts around onset. */
    static constexpr double kExtractMs = 2000.0;

    /** Bundles are dumped as `incident-<n>.json` under @p dir ("" =
     *  memory only). */
    explicit IncidentManager(std::string dir = "");

    IncidentManager(const IncidentManager&) = delete;
    IncidentManager& operator=(const IncidentManager&) = delete;

    /** The dump directory ("" = memory only). */
    const std::string& Dir() const { return dir_; }

    /** Record one signal; may open and/or finalize an incident. */
    void OnSignal(IncidentSignal signal);

    /** Finalize a due incident, if any (called from sampler ticks). */
    void Poll();

    /** Force-finalize any open incident regardless of its deadline
     *  (deterministic drains in examples/tests). */
    void FinalizeOpenNow();

    /**
     * Sampler-tick hook: emits "fault" signals for positive
     * `fault.injected.*` counter deltas since the previous tick, then
     * polls for due finalizations.
     */
    void ObserveSnapshot(const RegistrySnapshot& snapshot, double t_ms);

    /**
     * The serving engine's flight-record contribution, invoked at
     * finalize under its own lock (statusz owner-token pattern: clear
     * blocks until in-flight calls drain).
     */
    void SetFlightProvider(
        std::function<IncidentFlightExtract()> provider,
        const void* owner);
    void ClearFlightProvider(const void* owner);

    /**
     * Best-effort signal-flush: try-locks, finalizes and dumps any
     * open incident. Registered via obs::RegisterFlushHook.
     */
    void FlushOpenBestEffort();

    uint64_t Opened() const;
    uint64_t Dumped() const;
    uint64_t Suppressed() const;

    /** Listing row for /incidentz and rumba-stat. */
    struct Summary {
        uint64_t id = 0;
        double onset_ms = 0.0;
        size_t sources = 0;  ///< distinct contributing sources.
        size_t signals = 0;
        size_t joins = 0;    ///< trace ids seen in flight ∩ reqtrace.
        std::string kinds;   ///< e.g. "breaker+fault+slo".
        std::string path;    ///< dump path ("" = memory only).
    };

    std::vector<Summary> List() const;

    /** Full bundle JSON by id ("" when unknown / evicted). */
    std::string Detail(uint64_t id) const;

    /** Drop retained bundles and pending signals and lift the rate
     *  limit (tests). */
    void Clear();

    /** The process-wide manager; it dumps under RUMBA_INCIDENT_DIR. */
    static IncidentManager& Default();

  private:
    struct OpenIncident {
        uint64_t id = 0;
        double onset_ms = 0.0;
        double deadline_ms = 0.0;
        std::vector<IncidentSignal> signals;
    };

    struct Bundle {
        Summary summary;
        std::string json;
    };

    /** Moves the open incident out when due; assembly happens in the
     *  caller, outside mu_. */
    bool TakeDueLocked(double now_ms, bool force, OpenIncident* out);
    void Assemble(OpenIncident incident);

    const std::string dir_;
    mutable std::mutex mu_;
    std::deque<IncidentSignal> recent_;
    bool has_open_ = false;
    OpenIncident open_;
    double last_open_ms_ = -1.0e300;
    uint64_t next_id_ = 1;
    Ring<Bundle> kept_{kMaxKept};

    mutable std::mutex provider_mu_;
    std::function<IncidentFlightExtract()> flight_provider_;
    const void* provider_owner_ = nullptr;

    mutable std::mutex fault_mu_;
    std::map<std::string, uint64_t> fault_prev_;

    Counter* opened_counter_;      ///< incident.opened
    Counter* dumped_counter_;      ///< incident.dumped
    Counter* suppressed_counter_;  ///< incident.suppressed
    Counter* signals_counter_;     ///< incident.signals
    Gauge* last_id_gauge_;         ///< incident.last_id
};

/**
 * Body of the `/incidentz` route: with no query, the listing (count +
 * per-incident summaries, array-free); with `?id=<n>`, that bundle's
 * full JSON.
 */
std::string IncidentzJson(const std::string& query_string);

}  // namespace rumba::obs

#endif  // RUMBA_OBS_INCIDENT_H_
