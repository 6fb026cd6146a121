#ifndef RUMBA_OBS_INCIDENT_H_
#define RUMBA_OBS_INCIDENT_H_

/**
 * @file
 * Incident correlation: joins anomaly and SLO fires (obs/anomaly.h,
 * obs/slo.h; both reach it through the one EdgeLatch below), breaker
 * state transitions (serve engine), and
 * `fault.injected.*` counter deltas inside a correlation window into
 * a single rate-limited incident bundle — a timeline of contributing
 * signals, tsdb extracts around onset (obs/tsdb.h), the per-shard
 * flight records and tail-sampled reqtraces joined by trace id, and
 * a /profilez snapshot. Bundles are dumped as `incident-<n>.json`
 * under RUMBA_INCIDENT_DIR and served live via `/incidentz`.
 *
 * Correlation semantics (DESIGN.md §14): signals accumulate in a
 * sliding window; when signals from at least `min_sources` distinct
 * sources coexist in the window (and the rate limiter allows), an
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
#include <utility>
#include <vector>

#include "common/ring.h"
#include "obs/metrics.h"

namespace rumba::obs {

/** One contributing signal. */
struct IncidentSignal {
    std::string source;  ///< "anomaly" | "slo" | "breaker" | "fault".
    std::string name;    ///< detector / monitor / shard / fault id.
    std::string detail;  ///< human-readable edge description.
    std::string series;  ///< registry series to extract around onset.
    uint64_t trace_id = 0;  ///< originating request (0 = none).
    double t_ms = 0.0;      ///< tsdb-epoch ms (0 ⇒ stamped on entry).
};

/** One fire/clear edge of an alarm, as EdgeLatch hands it to a sink. */
struct AlarmEdge {
    std::string name;     ///< SloConfig::name / AnomalyConfig::name.
    bool firing = false;  ///< true = fired, false = cleared.
    std::string detail;   ///< readings at the edge, "fast_burn=12 ...".
    uint64_t now_ns = 0;  ///< event time (steady clock).
};

/**
 * The one fire/clear edge latch of the alarm detectors (SLO burn
 * monitors, obs/slo.h; anomaly detectors, obs/anomaly.h), guarded by
 * its owner's lock. Update() takes the owner's two conditions: fire
 * when not firing and @p fire holds, clear when firing and @p clear
 * holds. It keeps the firing gauge and edge counters and returns the
 * step; after releasing its lock the owner hands the step to
 * Deliver(), which logs an edge, calls the sink, and turns a fire
 * into one IncidentSignal. So the sink may call back into the owner.
 * Concurrent deliveries may interleave out of order: AlarmEdge::firing
 * is the state at the edge, not the current state.
 */
class EdgeLatch {
  public:
    /** What Update() carries out of the owner's lock. */
    struct Step {
        bool edge = false;  ///< false: the state held; nothing to do.
        AlarmEdge alarm;
        std::function<void(const AlarmEdge&)> sink;
    };

    /** Edges log and signal as `<source>.<name>`, extracting onset
     *  series @p series. @p fires / @p clears count fires / clears
     *  (null skips; both may be one counter). */
    EdgeLatch(std::string source, std::string name, std::string series,
              Gauge* firing, Counter* fires, Counter* clears);

    /** On an edge, printf-style @p fmt formats AlarmEdge::detail. */
    Step Update(bool fire, bool clear, uint64_t now_ns, const char* fmt,
                ...) __attribute__((format(printf, 5, 6)));

    /** Post-unlock half of a step; a no-edge step is a no-op. */
    void Deliver(const Step& step) const;

    /** Replace the alert sink (nullptr clears). */
    void SetSink(std::function<void(const AlarmEdge&)> sink)
    {
        sink_ = std::move(sink);
    }

    bool Firing() const { return firing_; }
    uint64_t Edges() const { return edges_; }  ///< fires + clears.

  private:
    const std::string source_;
    const std::string name_;
    const std::string series_;
    Gauge* const firing_gauge_;
    Counter* const fire_counter_;
    Counter* const clear_counter_;
    bool firing_ = false;
    uint64_t edges_ = 0;
    std::function<void(const AlarmEdge&)> sink_;
};

/** Correlation tuning. */
struct IncidentConfig {
    double window_ms = 2000.0;     ///< sliding correlation window.
    size_t min_sources = 2;        ///< distinct sources to open.
    double rate_limit_ms = 5000.0; ///< min spacing between incidents.
    size_t max_kept = 8;           ///< bundles retained (at least 1).
    size_t max_signals = 64;       ///< timeline cap per incident.
    double extract_ms = 2000.0;    ///< tsdb extract half-window.
    std::string dir;               ///< dump dir ("" = memory only).
};

/** What the serving engine contributes at finalize time. */
struct IncidentFlightExtract {
    std::string json;  ///< array-free `{"0":{...},...,"count":N}`.
    std::vector<uint64_t> trace_ids;  ///< for reqtrace joins.
};

/**
 * Process-wide incident correlator. OnSignal() may be called from any
 * thread (workers, EdgeLatch::Deliver, the tsdb sampler);
 * bundle assembly happens outside the signal lock on whichever thread
 * trips the finalize.
 */
class IncidentManager {
  public:
    IncidentManager();

    IncidentManager(const IncidentManager&) = delete;
    IncidentManager& operator=(const IncidentManager&) = delete;

    /** Replace tuning (dir defaults to RUMBA_INCIDENT_DIR); rebuilds
     *  the kept-bundle ring, dropping retained bundles. */
    void Configure(const IncidentConfig& config);
    IncidentConfig Config() const;

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

    /** Drop retained bundles and pending signals (tests). */
    void Clear();

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

    mutable std::mutex mu_;
    IncidentConfig config_;
    std::deque<IncidentSignal> recent_;
    bool has_open_ = false;
    OpenIncident open_;
    double last_open_ms_ = -1.0e300;
    uint64_t next_id_ = 1;
    Ring<Bundle> kept_{IncidentConfig{}.max_kept};

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
