#ifndef RUMBA_CORE_DRIFT_H_
#define RUMBA_CORE_DRIFT_H_

/**
 * @file
 * Input-drift detection — an extension addressing the paper's
 * Challenge II from the deployment side. The offline trainers see one
 * input distribution; if the deployed inputs drift away from it, the
 * checker's calibration silently degrades. The one drift signal that
 * is free at runtime is the *check fire-rate*: it was measured during
 * threshold calibration, so a persistent departure from that expected
 * rate means the input distribution (or the accelerator's behavior)
 * has changed and the offline artifacts deserve retraining.
 */

#include <cstddef>

namespace rumba::obs {
class Counter;
class Gauge;
}  // namespace rumba::obs

namespace rumba::core {

/** Flags persistent fire-rate departures from the calibrated rate. */
class DriftMonitor {
  public:
    /** EMA smoothing factor over invocations. */
    static constexpr double kAlpha = 0.2;
    /** Drift fires when the smoothed rate leaves
     *  [expected / kTolerance, expected * kTolerance]. */
    static constexpr double kTolerance = 2.0;
    /** Invocations observed before drift may fire (EMA warmup). */
    static constexpr size_t kWarmup = 3;
    /** Absolute rate slack: departures smaller than this never count
     *  as drift (guards tiny expected rates). */
    static constexpr double kMinDelta = 0.02;

    /** @p expected_fire_rate is the fire rate observed during offline
     *  calibration, in [0, 1]; zero disables the monitor (nothing to
     *  compare against). */
    explicit DriftMonitor(double expected_fire_rate = 0.0);

    /**
     * Record one invocation's outcome. A zero-element invocation
     * (e.g. one the circuit breaker served entirely on the CPU) is
     * ignored: it carries no fire-rate information.
     */
    void Observe(size_t fired, size_t elements);

    /**
     * Re-arm after a recovery episode: reset the smoothed rate to the
     * calibrated expectation and restart the warmup window, so a
     * cleared alarm needs fresh persistent evidence to fire again.
     */
    void ReArm();

    /** Smoothed fire rate over recent invocations. */
    double SmoothedFireRate() const { return smoothed_; }

    /** True when the smoothed rate sits outside the tolerance band. */
    bool DriftDetected() const;

    /** Monitoring enabled (an expected rate was provided). */
    bool Enabled() const { return expected_ > 0.0; }

    /** Invocations observed since construction/ReArm(). */
    size_t Observations() const { return observations_; }

    /** The calibrated fire rate departures are judged against. */
    double ExpectedFireRate() const { return expected_; }

  private:
    double expected_;
    double smoothed_ = 0.0;
    size_t observations_ = 0;
    /** Process-wide telemetry: observation count and smoothed rate. */
    obs::Counter* obs_observations_;
    obs::Gauge* obs_fire_rate_;
};

}  // namespace rumba::core

#endif  // RUMBA_CORE_DRIFT_H_
