#ifndef RUMBA_CORE_TUNER_H_
#define RUMBA_CORE_TUNER_H_

/**
 * @file
 * Rumba's online tuner (Section 3.4). Between accelerator
 * invocations it moves the detection threshold to honor the user's
 * goal: a target output quality (TOQ mode), a re-execution budget
 * (Energy mode), or maximum quality while the CPU keeps up with the
 * accelerator (Quality mode).
 */

#include <cstddef>

#include "core/status.h"

namespace rumba::obs {
class Counter;
class Gauge;
}  // namespace rumba::obs

namespace rumba::core {

/** The tuner's programming modes (Section 3.4). */
enum class TuningMode {
    kToq,      ///< meet a target output quality.
    kEnergy,   ///< stay within a re-execution (energy) budget.
    kQuality,  ///< maximize quality while the CPU keeps up.
};

/** Tuner policy parameters. */
struct TunerConfig {
    TuningMode mode = TuningMode::kToq;
    /** TOQ mode: target output error in percent (10 = 90% quality). */
    double target_error_pct = 10.0;
    /** Energy mode: re-executions allowed per invocation. */
    size_t iteration_budget = 0;
    /** Multiplicative threshold step per adjustment. */
    double adjust_factor = 1.25;
    /** Threshold clamp range (predictor-scale units). */
    double min_threshold = 1e-5;
    double max_threshold = 1e3;
};

/**
 * kInvalidArgument when @p config cannot drive a tuner (adjust factor
 * <= 1, non-positive or inverted threshold clamp range, non-positive
 * target). Entry points taking external configuration
 * (RumbaRuntime::FromArtifact, the serving engine) validate with this
 * and return the Status instead of dying; the OnlineTuner constructor
 * keeps its checked-fatal contract for in-process programmer error.
 */
Status ValidateTunerConfig(const TunerConfig& config);

/** Per-invocation feedback the tuner consumes. */
struct InvocationFeedback {
    size_t elements = 0;  ///< accelerator invocations this round.
    size_t fixes = 0;     ///< iterations re-executed this round.
    /** TOQ mode: estimated residual output error (percent) — the mean
     *  predicted error of the elements that were *not* fixed. */
    double estimated_error_pct = 0.0;
    /** Quality mode: CPU recovery time / accelerator time. >1 means
     *  the CPU could not keep up. */
    double cpu_busy_ratio = 0.0;
};

/** Adjusts the detection threshold between invocations. */
class OnlineTuner {
  public:
    /** Dead band: no adjustment while within this relative margin of
     *  the goal. */
    static constexpr double kDeadBand = 0.1;

    OnlineTuner(const TunerConfig& config, double initial_threshold);

    /** The threshold the detector should use for the next invocation. */
    double Threshold() const { return threshold_; }

    /** Feed one invocation's outcome; may move the threshold. */
    void EndInvocation(const InvocationFeedback& feedback);

    /** Number of threshold adjustments made so far. */
    size_t Adjustments() const { return adjustments_; }

    /** The active configuration. */
    const TunerConfig& Config() const { return config_; }

  private:
    void Raise();
    void Lower();

    TunerConfig config_;
    double threshold_;
    size_t adjustments_ = 0;
    /** Process-wide telemetry: current threshold and move count. */
    obs::Gauge* obs_threshold_;
    obs::Counter* obs_adjustments_;
};

}  // namespace rumba::core

#endif  // RUMBA_CORE_TUNER_H_
