#ifndef RUMBA_OBS_SLO_H_
#define RUMBA_OBS_SLO_H_

/**
 * @file
 * Rolling SLO burn-rate monitoring for the online quality loop.
 *
 * An SLO is an objective over a stream of good/bad events ("99% of
 * requests complete under the latency bound", "99.9% of invocations
 * meet the output-quality target"). The monitor keeps two rolling
 * windows — a fast one that reacts within seconds and a slow one that
 * filters noise — and evaluates the *burn rate* of each:
 *
 *     burn = bad_fraction / error_budget,
 *     error_budget = 1 - objective.
 *
 * burn == 1 means the error budget is being consumed exactly as
 * provisioned; burn == 10 means ten times too fast. An alert fires
 * only when BOTH windows exceed their thresholds (the classic
 * multi-window rule: the fast window proves the problem is happening
 * *now*, the slow window proves it is not a blip) and clears with
 * hysteresis once the fast window drops below its threshold.
 *
 * Every Record() refreshes three gauges in Registry::Default() —
 * `slo.<name>.fast_burn_rate`, `slo.<name>.slow_burn_rate`,
 * `slo.<name>.alerting` — and firing increments the
 * `slo.<name>.alerts` counter, so the scrape endpoint
 * (obs/http_exporter.h) exposes burn rates live. Fire/clear edges go
 * through the shared EdgeLatch (obs/incident.h): logged, handed to an
 * optional alert sink (the deploy example narrates them), and every
 * fire becomes one "slo" incident signal.
 *
 * Thread-safe; time is injectable for tests (pass now_ns to Record).
 */

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "obs/incident.h"

namespace rumba::obs {

/** Configuration of one service-level objective. */
struct SloConfig {
    /** Metric-name fragment; gauges register as `slo.<name>.*`. */
    std::string name = "objective";
    /** Target good fraction in (0, 1), e.g. 0.99 for "99% good". */
    double objective = 0.99;
    /** Fast (page-worthy) window length. */
    uint64_t fast_window_ns = 60ull * 1000 * 1000 * 1000;
    /** Slow (confirmation) window length. */
    uint64_t slow_window_ns = 600ull * 1000 * 1000 * 1000;
    /** Fast-window burn rate that arms an alert. */
    double fast_burn_alert = 10.0;
    /** Slow-window burn rate that (together) fires it. */
    double slow_burn_alert = 2.0;
    /** Ring granularity: buckets per slow window. */
    uint32_t buckets = 60;
    /** Events required in the fast window before alerting (keeps a
     *  single early failure from paging). */
    uint64_t min_events = 10;
};

/**
 * Multi-window burn-rate evaluator for one objective. Events land in
 * a bucketed ring covering the slow window; expired buckets are
 * recycled lazily by epoch tag, so Record() is O(1) and Evaluate() is
 * O(buckets).
 */
class SloMonitor {
  public:
    explicit SloMonitor(const SloConfig& config);

    /** Record one event. @p now_ns 0 means "read the steady clock". */
    void Record(bool good, uint64_t now_ns = 0);

    /** Burn rate over the fast window as of @p now_ns. */
    double FastBurnRate(uint64_t now_ns = 0) const;

    /** Burn rate over the slow window as of @p now_ns. */
    double SlowBurnRate(uint64_t now_ns = 0) const;

    /** True while the alert is firing. */
    bool Alerting() const;

    /** Install the fire/clear edge sink (nullptr clears). It runs
     *  after the monitor's lock is released (EdgeLatch::Deliver), so
     *  it may call back into the monitor (Alerting(), burn-rate
     *  accessors, even Record()); AlarmEdge::detail carries the burn
     *  rates at the edge. */
    void SetAlertSink(std::function<void(const AlarmEdge&)> sink);

    const SloConfig& Config() const { return config_; }

  private:
    struct Bucket {
        uint64_t epoch = 0;  ///< bucket index since time zero.
        uint64_t good = 0;
        uint64_t bad = 0;
    };

    uint64_t BucketWidthNs() const;
    void AdvanceLocked(uint64_t now_ns);
    void SumWindowLocked(uint64_t now_ns, uint64_t window_ns,
                         uint64_t* good, uint64_t* bad) const;
    double BurnLocked(uint64_t now_ns, uint64_t window_ns) const;
    const SloConfig config_;
    mutable std::mutex mu_;
    std::vector<Bucket> ring_;
    Gauge* fast_gauge_;   ///< slo.<name>.fast_burn_rate
    Gauge* slow_gauge_;   ///< slo.<name>.slow_burn_rate
    /** slo.<name>.alerting (0/1) and slo.<name>.alerts (fires). */
    EdgeLatch latch_;
};

}  // namespace rumba::obs

#endif  // RUMBA_OBS_SLO_H_
