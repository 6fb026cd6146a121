#ifndef RUMBA_OBS_ANOMALY_H_
#define RUMBA_OBS_ANOMALY_H_

/**
 * @file
 * Online anomaly detection over the forensics time series
 * (obs/tsdb.h): per-series EWMA mean/variance z-score detectors with
 * a warmup period and count-based hysteresis, exporting `anomaly.*`
 * gauges and edge counters. Fire/clear edges go through the shared
 * EdgeLatch (obs/incident.h), the SLO monitors' path: logged, and
 * every fire becomes one "anomaly" incident signal.
 *
 * Detector math (DESIGN.md §14): after `warmup_samples`
 * observations have seeded the EWMA statistics, each observation is
 * scored z = (x - mean) / max(stddev, min_stddev) against the
 * *pre-observation* statistics. Normal observations (|z| below the
 * threshold) update the EWMA (mean += α·δ; var = (1-α)·(var +
 * α·δ²)); anomalous ones do not, so a fault burst cannot absorb
 * itself into the baseline. `fire_count` consecutive anomalous
 * samples raise a fire edge; `clear_count` consecutive normal ones
 * raise a clear edge.
 */

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/incident.h"
#include "obs/metrics.h"

namespace rumba::obs {

/** Detector tuning; defaults suit 25 ms sampling. */
struct AnomalyConfig {
    std::string name;         ///< detector id → `anomaly.<name>.*`.
    double alpha = 0.05;      ///< EWMA weight.
    double z_threshold = 4.0; ///< |z| at or above ⇒ anomalous.
    int warmup_samples = 20;  ///< stats-only observations before scoring.
    int fire_count = 3;       ///< consecutive anomalous ⇒ fire edge.
    int clear_count = 5;      ///< consecutive normal ⇒ clear edge.
    double min_stddev = 1e-9; ///< variance floor (constant series).
};

/** One EWMA z-score detector. Observe() is thread-safe. */
class AnomalyDetector {
  public:
    /** @p series names the registry series the values come from (the
     *  incident signal's onset extract; "" for none). */
    explicit AnomalyDetector(const AnomalyConfig& config,
                             std::string series = "");

    /** Score and absorb one observation; returns true on a fire or
     *  clear edge (delivered before returning). */
    bool Observe(double value, uint64_t now_ns);

    bool Firing() const;
    uint64_t Edges() const;
    uint64_t SamplesSeen() const;
    double Mean() const;

  private:
    const AnomalyConfig config_;
    mutable std::mutex mu_;
    double mean_ = 0.0;
    double var_ = 0.0;
    uint64_t samples_ = 0;
    int consecutive_anomalous_ = 0;
    int consecutive_normal_ = 0;
    Gauge* zscore_gauge_;      ///< anomaly.<name>.zscore
    Gauge* mean_gauge_;        ///< anomaly.<name>.mean
    /** anomaly.<name>.firing (0/1) and anomaly.<name>.edges (fires
     *  and clears). */
    EdgeLatch latch_;
};

/**
 * A set of detectors subscribed to registry series. The tsdb sampler
 * calls Observe() once per tick with the snapshot it just ingested;
 * each probe extracts its value (raw gauge, counter rate since the
 * previous tick, or histogram p99) and feeds its detector. Probes
 * are append-only (detector pointers stay valid) and idempotent by
 * detector name.
 */
class AnomalySet {
  public:
    enum class Probe {
        kGauge,         ///< gauge value as-is.
        kCounterRate,   ///< per-second counter increase between ticks.
        kHistogramP99,  ///< histogram p99 estimate.
    };

    /**
     * Subscribe a detector to registry series @p series; no-op when a
     * probe named @p config.name already exists. Returns the
     * (possibly pre-existing) detector.
     */
    AnomalyDetector* Add(Probe probe, const std::string& series,
                         AnomalyConfig config);

    /** Feed every probe from @p snapshot (one sampler tick). */
    void Observe(const RegistrySnapshot& snapshot, double t_ms,
                 uint64_t now_ns);

    size_t Detectors() const;

    /**
     * Subscribe the standard serving probes: checker fire rate,
     * per-shard queue depth (for @p shards shards), serve latency
     * p99, audited-TOQ violation rate, recovery tier mix
     * (compensate/re-execute rates), and the efficiency speedup
     * estimate. Idempotent; safe to call per engine Create().
     */
    void InstallServeProbes(size_t shards);

    /** The process-wide set the tsdb sampler drives. */
    static AnomalySet& Default();

  private:
    struct Entry {
        Probe probe;
        std::string series;
        std::unique_ptr<AnomalyDetector> detector;
        double prev_value = 0.0;  ///< kCounterRate state.
        double prev_t_ms = 0.0;
        bool has_prev = false;
    };

    mutable std::mutex mu_;
    std::map<std::string, Entry> entries_;  ///< by detector name.
};

}  // namespace rumba::obs

#endif  // RUMBA_OBS_ANOMALY_H_
