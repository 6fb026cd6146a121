#ifndef RUMBA_OBS_SLO_H_
#define RUMBA_OBS_SLO_H_

/**
 * @file
 * Rolling SLO burn-rate monitoring for the online quality loop.
 *
 * An SLO is a name and an objective over a stream of good/bad events
 * ("99% of requests complete under the latency bound", "99.9% of
 * invocations meet the output-quality target"). The monitor keeps two
 * rolling windows — a fast 10 s one that reacts within seconds and a
 * slow 60 s one that filters noise — and evaluates the *burn rate* of
 * each:
 *
 *     burn = bad_fraction / error_budget,
 *     error_budget = 1 - objective.
 *
 * burn == 1 means the error budget is being consumed exactly as
 * provisioned; burn == 10 means ten times too fast. An alert fires
 * only when the fast window burns at 10x or more and the slow one at
 * 2x or more, over at least 10 fast-window events (the classic
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

#include <array>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>

#include "obs/incident.h"

namespace rumba::obs {

/**
 * Multi-window burn-rate evaluator for one objective. Events land in
 * a bucketed ring covering the slow window; expired buckets are
 * recycled lazily by epoch tag, so a bucket update is O(1) and a burn
 * rate is O(kBuckets).
 */
class SloMonitor {
  public:
    /** Fast (page-worthy) window length. */
    static constexpr uint64_t kFastWindowNs = 10ull * 1000 * 1000 * 1000;
    /** Slow (confirmation) window length. */
    static constexpr uint64_t kSlowWindowNs = 60ull * 1000 * 1000 * 1000;
    /** Fast-window burn rate that arms an alert. */
    static constexpr double kFastBurnAlert = 10.0;
    /** Slow-window burn rate that (together) fires it. */
    static constexpr double kSlowBurnAlert = 2.0;
    /** Ring granularity: buckets per slow window. */
    static constexpr uint32_t kBuckets = 60;
    /** Events required in the fast window before alerting (keeps a
     *  single early failure from paging). */
    static constexpr uint64_t kMinEvents = 10;

    /** @p name is a metric-name fragment (gauges register as
     *  `slo.<name>.*`); @p objective is the target good fraction in
     *  (0, 1), e.g. 0.99 for "99% good". */
    SloMonitor(std::string name, double objective);

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

    const std::string& Name() const { return name_; }

  private:
    struct Bucket {
        uint64_t epoch = 0;  ///< bucket index since time zero.
        uint64_t good = 0;
        uint64_t bad = 0;
    };

    void AdvanceLocked(uint64_t now_ns);
    void SumWindowLocked(uint64_t now_ns, uint64_t window_ns,
                         uint64_t* good, uint64_t* bad) const;
    double BurnLocked(uint64_t now_ns, uint64_t window_ns) const;
    const std::string name_;
    const double objective_;
    mutable std::mutex mu_;
    std::array<Bucket, kBuckets> ring_{};
    Gauge* fast_gauge_;   ///< slo.<name>.fast_burn_rate
    Gauge* slow_gauge_;   ///< slo.<name>.slow_burn_rate
    /** slo.<name>.alerting (0/1) and slo.<name>.alerts (fires). */
    EdgeLatch latch_;
};

}  // namespace rumba::obs

#endif  // RUMBA_OBS_SLO_H_
