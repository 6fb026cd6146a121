#ifndef RUMBA_CORE_BREAKER_H_
#define RUMBA_CORE_BREAKER_H_

/**
 * @file
 * Circuit breaker over the approximate path. The paper's recovery
 * module contains *per-element* errors; this layer contains
 * *persistent* accelerator failure (NaN storms, datapath upsets,
 * fire-rate blowout) by degrading the whole invocation path:
 *
 *   closed    — normal operation: every element rides the accelerator
 *               under the detector's per-element checks.
 *   open      — the accelerator is distrusted: every element is
 *               executed exactly on the CPU (paper-faithful recovery
 *               of everything; quality is exact, speedup is gone).
 *   half-open — after a hold-off, a small canary slice of each batch
 *               probes the accelerator while the rest stays exact;
 *               clean probes close the breaker, a dirty probe reopens
 *               it.
 *
 * Transitions are driven by per-invocation health summaries from the
 * runtime and exported through obs (`breaker.state` gauge; trip/
 * probe/close counters), so degradation episodes are visible in any
 * stream or trace capture.
 */

#include <cstddef>

namespace rumba::obs {
class Counter;
class Gauge;
}  // namespace rumba::obs

namespace rumba::core {

/** Breaker position. Gauge encoding: closed 0, open 1, half-open 2. */
enum class BreakerState {
    kClosed,
    kOpen,
    kHalfOpen,
};

/** Human-readable state name ("closed" / "open" / "half-open"). */
const char* BreakerStateName(BreakerState state);

/** Trip/recovery policy: how fast the breaker trips and recovers.
 *  What counts as unhealthy is fixed (CircuitBreaker::Unhealthy). */
struct BreakerConfig {
    bool enabled = true;
    /** Consecutive unhealthy invocations before the breaker opens. */
    size_t trip_after = 3;
    /** Invocations served exact-only before probing (hold-off). */
    size_t open_invocations = 4;
    /** Consecutive clean probes before the breaker closes again. */
    size_t close_after = 2;
};

/** One invocation's health as the breaker sees it. */
struct BreakerHealth {
    /** Elements that rode the accelerator (the canary slice while
     *  half-open; zero while open). */
    size_t approx_elements = 0;
    size_t fires = 0;           ///< detector fires among those.
    size_t non_finite = 0;      ///< non-finite accelerator outputs.
    size_t queue_drops = 0;     ///< recovery entries dropped.
    /** Drift alarm raised this round (enables the fire-rate trip). */
    bool drift = false;
    /** Delivered error over the accelerator-served slice (percent). */
    double output_error_pct = 0.0;
    /** The quality target the error is judged against (percent). */
    double target_error_pct = 10.0;
};

/** The closed -> open -> half-open state machine. */
class CircuitBreaker {
  public:
    /** Delivered output error, as a multiple of the tuner's target,
     *  past which an invocation is unhealthy. */
    static constexpr double kErrorTripFactor = 3.0;
    /** Detector fire rate past which an invocation is unhealthy
     *  while the drift alarm is raised. */
    static constexpr double kFireRateTrip = 0.6;
    /** Elements routed through the accelerator per half-open probe. */
    static constexpr size_t kCanaryElements = 32;

    CircuitBreaker() : CircuitBreaker(BreakerConfig()) {}
    explicit CircuitBreaker(const BreakerConfig& config);

    /** Current position. */
    BreakerState State() const { return state_; }

    /** The active policy. */
    const BreakerConfig& Config() const { return config_; }

    /**
     * How many of the next invocation's @p batch_elements may ride
     * the accelerator: all of them while closed, a canary slice while
     * half-open, none while open.
     */
    size_t ApproxBudget(size_t batch_elements) const;

    /**
     * Feed one invocation's health summary; may move the state
     * machine. @p health covers only the accelerator-served slice.
     */
    void OnInvocation(const BreakerHealth& health);

    /**
     * True when @p health alone would count as unhealthy: any
     * non-finite accelerator output, any dropped recovery-queue
     * entry, a fire rate above kFireRateTrip *while the drift alarm
     * is raised*, or output error above kErrorTripFactor x the
     * target. A bare fire-rate spike is the online tuner's job (it
     * walks the threshold); fire-rate blowout corroborated by drift
     * means the calibration no longer fits.
     */
    bool Unhealthy(const BreakerHealth& health) const;

    /** closed -> open transitions (half-open reopens included). */
    size_t Trips() const { return trips_; }

    /** Half-open canary probes evaluated. */
    size_t Probes() const { return probes_; }

    /** half-open -> closed transitions. */
    size_t Closes() const { return closes_; }

    /** Force the breaker back to closed (tests). */
    void Reset();

  private:
    void SetState(BreakerState next);

    BreakerConfig config_;
    BreakerState state_ = BreakerState::kClosed;
    size_t unhealthy_streak_ = 0;  ///< closed: consecutive bad rounds.
    size_t open_remaining_ = 0;    ///< open: hold-off countdown.
    size_t clean_probes_ = 0;      ///< half-open: consecutive good.
    size_t trips_ = 0;
    size_t probes_ = 0;
    size_t closes_ = 0;
    /** Process-wide telemetry: position and transition counts. */
    obs::Gauge* obs_state_;
    obs::Counter* obs_trips_;
    obs::Counter* obs_probes_;
    obs::Counter* obs_closes_;
};

}  // namespace rumba::core

#endif  // RUMBA_CORE_BREAKER_H_
