#ifndef RUMBA_SERVE_ADMISSION_H_
#define RUMBA_SERVE_ADMISSION_H_

/**
 * @file
 * Deadline-aware admission control for the sharded serving engine.
 *
 * Reject-on-full backpressure (PR 4) only fires once a queue is
 * already saturated — by then every queued request is eating the
 * latency SLO. The AdmissionController acts earlier and more
 * gradually: it watches queue fill and the latency SLO burn-rate
 * monitors (obs/slo.h) and walks a three-state machine
 *
 *     closed  ->  shedding  ->  emergency
 *
 * escalating immediately under pressure and de-escalating only after
 * a run of consecutive calm observations (count-based hysteresis, so
 * one lucky dequeue cannot flap the state back and forth).
 *
 * The response is Rumba's quality dial, not a binary gate. Per
 * request the controller answers with an AdmissionAction:
 *
 *   - kAdmit           full service (check + recovery).
 *   - kCompensateOnly  accept with cheap recovery only: the checker
 *                      runs and fired elements are compensated in
 *                      place, but nothing is re-executed exactly.
 *                      First rung of the ladder — most of the
 *                      recovery CPU back, quality held near target by
 *                      the compensator. Without a deployed
 *                      compensator it behaves like kDegrade.
 *   - kDegrade         accept without recovery: the checker still
 *                      runs and records what it would have fixed, but
 *                      recovery is skipped entirely.
 *   - kBypassCheck     accept without check: raw approximate outputs,
 *                      detector bypassed entirely. Emergency-only,
 *                      and only for best-effort traffic.
 *   - kShed            refuse at Submit (kUnavailable) before the
 *                      request costs the device anything.
 *
 * Quality classes order the ladder: best-effort sheds first, silver
 * degrades before gold feels anything, and gold is never shed by
 * admission — only genuine queue-full backpressure can refuse it.
 */

#include <cstdint>
#include <mutex>

namespace rumba::obs {
class Gauge;
}  // namespace rumba::obs

namespace rumba::serve {

/** Per-request service tier (shed order: best-effort first). */
enum class QualityClass : uint32_t {
    kGold = 0,        ///< full service for as long as possible.
    kSilver = 1,      ///< degrades under shedding, sheds in emergency.
    kBestEffort = 2,  ///< first to degrade, first to shed.
};

inline constexpr size_t kNumQualityClasses = 3;

/** Stable lowercase name ("gold", "silver", "best-effort"). */
const char* QualityClassName(QualityClass quality);

/** Where the admission state machine currently sits. */
enum class AdmissionState : uint32_t {
    kClosed = 0,     ///< normal operation: admit everything.
    kShedding = 1,   ///< pressure: degrade low tiers, shed best-effort.
    kEmergency = 2,  ///< saturation: only gold keeps its checker.
};

/** Stable lowercase name ("closed", "shedding", "emergency"). */
const char* AdmissionStateName(AdmissionState state);

/** What to do with one request, per the ladder above (ordered from
 *  full service to refusal). */
enum class AdmissionAction : uint32_t {
    kAdmit = 0,
    kCompensateOnly = 1,
    kDegrade = 2,
    kBypassCheck = 3,
    kShed = 4,
};

/** Stable lowercase name ("admit", "degrade", ...). */
const char* AdmissionActionName(AdmissionAction action);

/** The admission switch. */
struct AdmissionConfig {
    /** Master switch: disabled, every Decide() answers kAdmit and the
     *  state stays closed (pure reject-on-full backpressure). */
    bool enabled = true;
};

/**
 * The admission state machine. Thread-safe: Submit() calls Decide()
 * concurrently from every client thread; observation, state update
 * and the ladder lookup happen under one short lock.
 */
class AdmissionController {
  public:
    /** Fills are fractions of queue capacity in [0, 1]. Fill at/above
     *  which closed escalates to shedding; a firing latency SLO
     *  escalates to shedding at any fill. */
    static constexpr double kSheddingFill = 0.75;
    /** Fill at/above which any state escalates to emergency. */
    static constexpr double kEmergencyFill = 0.95;
    /** Consecutive calm observations (fill below kSheddingFill and
     *  SLO quiet) required to de-escalate one level. */
    static constexpr uint32_t kCalmSteps = 16;
    /** While shedding: best-effort requests shed at/above this fill
     *  (below it they ride the degrade rung instead). */
    static constexpr double kBestEffortShedFill = 0.50;
    /** While in emergency: silver sheds and best-effort sheds (even
     *  past the bypass rung) at/above this fill. Gold never sheds. */
    static constexpr double kEmergencyShedFill = 0.90;

    explicit AdmissionController(const AdmissionConfig& config);

    /**
     * Observe one submission attempt and answer for it. @p fill is
     * the target shard's queue fill fraction (depth / capacity) and
     * @p slo_alerting the latency SLO's burn-rate alert state. The
     * observation first steps the state machine (escalate
     * immediately, de-escalate after kCalmSteps calm observations),
     * then the ladder maps (state, class, fill) to an action.
     */
    AdmissionAction Decide(QualityClass quality, double fill,
                           bool slo_alerting);

    /** Current state (for /statusz and tests). */
    AdmissionState state() const;

    /** State transitions since construction (flap detector). */
    uint64_t Transitions() const;

    const AdmissionConfig& config() const { return config_; }

  private:
    /** Step the state machine for one observation (holds mu_). */
    void Observe(double fill, bool slo_alerting);

    const AdmissionConfig config_;
    mutable std::mutex mu_;
    AdmissionState state_ = AdmissionState::kClosed;
    uint32_t calm_run_ = 0;       ///< consecutive calm observations.
    uint64_t transitions_ = 0;
    obs::Gauge* obs_state_;       ///< serve.admission.state gauge.
};

}  // namespace rumba::serve

#endif  // RUMBA_SERVE_ADMISSION_H_
