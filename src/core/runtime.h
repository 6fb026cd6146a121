#ifndef RUMBA_CORE_RUNTIME_H_
#define RUMBA_CORE_RUNTIME_H_

/**
 * @file
 * The online Rumba system (Figure 4's execution subsystem): the
 * public API a host application uses. Each ProcessInvocation() call
 * plays one accelerator invocation — a batch of data-parallel
 * elements streamed through the accelerator while the detector checks
 * every element, flagged iterations flow through the recovery queue,
 * the CPU re-executes them, and the output merger commits exact over
 * approximate results. Between invocations the online tuner moves the
 * detection threshold toward the user's goal.
 */

#include <memory>
#include <vector>

#include "core/artifact.h"
#include "core/batch_view.h"
#include "core/breaker.h"
#include "core/detector.h"
#include "core/drift.h"
#include "core/pipeline.h"
#include "core/recovery.h"
#include "core/recovery_policy.h"
#include "core/schemes.h"
#include "core/status.h"
#include "core/tuner.h"
#include "obs/profiler.h"
#include "sim/system_model.h"

namespace rumba::core {

/** Online-system configuration. */
struct RuntimeConfig {
    PipelineConfig pipeline;          ///< offline-training knobs.
    Scheme checker = Scheme::kTree;   ///< kEma / kLinear / kTree.
    TunerConfig tuner;                ///< online-tuning policy.
    /** Starting detection threshold. Values <= 0 request offline
     *  calibration: the trainer replays the training elements through
     *  the accelerator + checker and picks the smallest threshold
     *  whose fix set meets tuner.target_error_pct on them. */
    double initial_threshold = 0.0;
    size_t recovery_queue_capacity = 64;
    /** Tiered-recovery policy (core/recovery_policy.h). Off by
     *  default: the paper's two-tier accept/re-execute behaviour.
     *  With compensation on, the runtime trains (or restores from the
     *  artifact) a self-compensation model and mid-range predicted
     *  errors are corrected in place instead of re-executed. */
    RecoveryPolicyConfig recovery_policy;
    /** Circuit-breaker policy over the approximate path (see
     *  core/breaker.h). Enabled by default; in healthy operation it
     *  never trips and costs one branch per invocation. */
    BreakerConfig breaker;
    /** Measure each pass's wall clock into InvocationReport::stages
     *  (two steady-clock reads per pass, never per element), which
     *  request-scoped tracing (obs/reqtrace.h) needs and batch
     *  experiments do not. Off by default. */
    bool stage_timings = false;
    /** Also read each pass's *thread CPU time*
     *  (CLOCK_THREAD_CPUTIME_ID) into InvocationReport::stages for
     *  the live cost profiler (obs/profiler.h): two syscalls per
     *  pass, never per element. Implies stage_timings. Only the
     *  compensate tier's share of recover is apportioned, by the
     *  drains' per-entry compensate/re-execute wall ratio: the two
     *  tiers interleave per queue entry. */
    bool cpu_attribution = false;
    sim::CoreParams core;             ///< host-core model (Table 2).
    sim::EnergyParams energy;         ///< event energies.

    class Builder;
};

/**
 * Fluent construction of a RuntimeConfig, so applications state their
 * intent in one expression instead of mutating nested structs
 * field-by-field:
 *
 *   const auto config = core::RuntimeConfig::Builder()
 *                           .WithChecker(core::Scheme::kTree)
 *                           .WithTunerMode(core::TuningMode::kToq)
 *                           .WithTargetErrorPct(10.0)
 *                           .Build();
 *
 * Seed an existing config into the constructor to derive variants
 * (e.g. the same runtime with a twitchier breaker).
 */
class RuntimeConfig::Builder {
  public:
    Builder() = default;

    /** Start from @p base instead of the defaults. */
    explicit Builder(const RuntimeConfig& base) : config_(base) {}

    Builder&
    WithChecker(Scheme checker)
    {
        config_.checker = checker;
        return *this;
    }

    Builder&
    WithTunerMode(TuningMode mode)
    {
        config_.tuner.mode = mode;
        return *this;
    }

    /** TOQ-mode goal: target output error in percent. */
    Builder&
    WithTargetErrorPct(double pct)
    {
        config_.tuner.target_error_pct = pct;
        return *this;
    }

    /** Fixed starting threshold (skips offline calibration). */
    Builder&
    WithInitialThreshold(double threshold)
    {
        config_.initial_threshold = threshold;
        return *this;
    }

    /** Clamp the tuner's threshold walk to [min, max]. Pinning the
     *  whole range above any reachable score makes an "unchecked"
     *  runtime whose checks never fire (a common baseline). */
    Builder&
    WithThresholdRange(double min_threshold, double max_threshold)
    {
        config_.tuner.min_threshold = min_threshold;
        config_.tuner.max_threshold = max_threshold;
        return *this;
    }

    Builder&
    WithTrainEpochs(size_t epochs)
    {
        config_.pipeline.train_epochs = epochs;
        return *this;
    }

    /** Subsample caps for quick runs (0 = use everything). */
    Builder&
    WithElementCaps(size_t max_train, size_t max_test)
    {
        config_.pipeline.max_train_elements = max_train;
        config_.pipeline.max_test_elements = max_test;
        return *this;
    }

    /** Enable the compensate tier (trains/restores the compensation
     *  model; see RuntimeConfig::recovery_policy). */
    Builder&
    WithCompensation(bool enabled = true)
    {
        config_.recovery_policy.compensation = enabled;
        return *this;
    }

    Builder&
    WithBreaker(const BreakerConfig& breaker)
    {
        config_.breaker = breaker;
        return *this;
    }

    /** Attribute per-pass thread CPU into InvocationReport::stages. */
    Builder&
    WithCpuAttribution(bool enabled = true)
    {
        config_.cpu_attribution = enabled;
        return *this;
    }

    RuntimeConfig Build() const { return config_; }

  private:
    RuntimeConfig config_;
};

/**
 * How much of the quality machinery one invocation keeps under
 * overload (serve/admission.h picks the mode per request). Degraded
 * invocations give intentionally reduced service, so they feed
 * neither the tuner, the drift monitor nor the circuit breaker —
 * deliberate degradation must not read as accelerator sickness or
 * drag the threshold walk — and they skip the true-error
 * verification pass (their ground truth comes from the quality
 * auditor, which force-samples them). Non-finite salvage always
 * runs: no mode may deliver NaN/Inf outputs.
 */
enum class DegradeMode : uint32_t {
    kNone = 0,            ///< full service: check + recovery.
    kCompensateOnly = 1,  ///< checker consulted; fired elements are
                          ///< compensated in place (cheap) but never
                          ///< re-executed. Without a deployed
                          ///< compensator this rung behaves like
                          ///< kSkipRecovery.
    kSkipRecovery = 2,    ///< checker consulted (verdicts recorded),
                          ///< recovery skipped entirely.
    kSkipCheck = 3,       ///< detector bypassed entirely: raw
                          ///< approximate outputs.
};

/** Stable lowercase name ("none", "compensate-only", "skip-recovery",
 *  "skip-check"). */
const char* DegradeModeName(DegradeMode mode);

/** What one invocation reported back. */
struct InvocationReport {
    size_t elements = 0;            ///< elements processed.
    /** Iterations the recovery layer touched (re-executed or
     *  compensated); equals tier_compensated + tier_reexecuted. With
     *  compensation off this is exactly the paper's re-execution
     *  count. */
    size_t fixes = 0;
    double threshold_used = 0.0;    ///< detector threshold this round.
    double output_error_pct = 0.0;  ///< true residual error (verified
                                    ///< against the exact kernel).
    double estimated_error_pct = 0.0;  ///< detector's own estimate.
    /** Input-drift alarm: the fire rate has departed persistently
     *  from its calibration-time value (see core/drift.h). Only
     *  raised when the threshold was auto-calibrated. */
    bool drift_detected = false;
    /** Recovery entries dropped on a stalled, full queue this round
     *  (the drop-and-count overflow policy; see core/recovery.h). */
    size_t queue_drops = 0;
    /** Non-finite accelerator outputs contained this round — every
     *  one was recovered unconditionally, none was delivered. */
    size_t non_finite_outputs = 0;
    /** Elements the circuit breaker served exactly on the CPU
     *  (everything while open, the non-canary rest while half-open). */
    size_t exact_elements = 0;
    /** Breaker position after this invocation. */
    BreakerState breaker_state = BreakerState::kClosed;
    /** Overload rung this invocation ran at (kNone = full service).
     *  Degraded invocations report output_error_pct 0 — the verify
     *  pass is skipped; audited truth is the only quality signal. */
    DegradeMode degrade = DegradeMode::kNone;
    /** Per-tier outcome counts (sum == elements). Accepted covers
     *  everything delivered approximately — unfired checks plus any
     *  dropped/shed recovery entries. Re-executed covers the exact
     *  path wherever it ran: queue drain, breaker tail, non-finite
     *  salvage. */
    size_t tier_accepted = 0;
    size_t tier_compensated = 0;
    size_t tier_reexecuted = 0;
    /** Wall clock and thread CPU of each pass: device (stream),
     *  predict_check (check), recover (queue, drains, the breaker's
     *  exact tail and salvage), compensate (carved out of recover)
     *  and verify. All zero unless RuntimeConfig::stage_timings or
     *  cpu_attribution; CPU only with cpu_attribution. */
    obs::StageRecord stages;
    sim::SystemCosts costs;         ///< modeled energy/time.
};

/** Aggregate statistics across a runtime's whole life. */
struct RunSummary {
    size_t invocations = 0;  ///< ProcessInvocation() calls.
    size_t elements = 0;     ///< elements processed in total.
    size_t fixes = 0;        ///< iterations re-executed in total.
    double error_weighted_sum = 0.0;  ///< sum(err% x elements).
    double baseline_app_ns = 0.0;     ///< accumulated baseline time.
    double baseline_app_nj = 0.0;     ///< accumulated baseline energy.
    double scheme_app_ns = 0.0;       ///< accumulated Rumba time.
    double scheme_app_nj = 0.0;       ///< accumulated Rumba energy.

    /** Element-weighted mean output error (percent). */
    double
    MeanOutputErrorPct() const
    {
        return elements == 0
                   ? 0.0
                   : error_weighted_sum / static_cast<double>(elements);
    }

    /** Fraction of all elements that were re-executed. */
    double
    FixFraction() const
    {
        return elements == 0 ? 0.0
                             : static_cast<double>(fixes) /
                                   static_cast<double>(elements);
    }

    /** Whole-run energy-saving factor vs the CPU baseline. */
    double
    EnergySaving() const
    {
        return scheme_app_nj == 0.0 ? 0.0
                                    : baseline_app_nj / scheme_app_nj;
    }

    /** Whole-run speedup vs the CPU baseline. */
    double
    Speedup() const
    {
        return scheme_app_ns == 0.0 ? 0.0
                                    : baseline_app_ns / scheme_app_ns;
    }
};

/**
 * Optional per-element capture of one invocation, filled by
 * ProcessInvocation when a caller passes it in. This is the raw
 * material for ground-truth auditing (obs/audit.h): the *pre-merge*
 * accelerator outputs and the checker's per-element verdicts, which
 * the aggregate InvocationReport cannot reconstruct (after the merger
 * runs, a recovered element's approximate output is gone). The
 * capture owns its storage — the runtime's scratch vectors are reused
 * by the verify pass — and is overwritten (not appended) every call.
 */
struct AuditCapture {
    size_t count = 0;      ///< elements in the captured invocation.
    size_t out_width = 0;  ///< doubles per element output.
    /** Pre-merge accelerator outputs, count x out_width. Elements the
     *  breaker served exactly hold the exact outputs (their
     *  approximate result never existed). */
    std::vector<double> approx_outputs;
    /** Checker error estimate per element (0 on the exact path). */
    std::vector<double> predicted_error;
    /** Checker verdict per element, after fault injection — what the
     *  system *acted on*, which is what calibration must score. */
    std::vector<char> fired;
    /** Final recovered mask (queue drain + non-finite salvage +
     *  breaker tail), matching what the caller's outputs hold:
     *  kFixedNone / kFixedExact / kFixedCompensated. */
    std::vector<char> fixed;
    /** 1 when the breaker routed the element to the exact CPU tail. */
    std::vector<char> exact_path;
};

/** The online quality-management system. */
class RumbaRuntime {
  public:
    /** Builds the offline pipeline and the online modules. */
    RumbaRuntime(std::unique_ptr<apps::Benchmark> bench,
                 const RuntimeConfig& config);

    /**
     * Bring the system up from a deployed artifact (Figure 4's
     * "embedded in the binary" configuration): no training happens;
     * the networks, normalizers, checker and threshold all come from
     * @p artifact. config.checker and config.initial_threshold are
     * ignored. Checked-fatal on an artifact that names an unknown
     * kernel or carries an unrecognized checker blob — use
     * FromArtifact() where the artifact is external input.
     */
    RumbaRuntime(const struct Artifact& artifact,
                 const RuntimeConfig& config);

    /**
     * Fallible artifact construction: validates that the artifact
     * names a known kernel (kNotFound), carries a recognizable
     * checker blob (kDataLoss) and a network matching the kernel's
     * arity (kFailedPrecondition) before bringing the system up. The
     * artifact is only read — a serving engine instantiates every
     * shard's replica from one shared Artifact.
     */
    static Result<std::unique_ptr<RumbaRuntime>> FromArtifact(
        const struct Artifact& artifact, const RuntimeConfig& config);

    /** Releases the registry-sampler ref the constructor took when
     *  RUMBA_STREAM_OUT is set (obs/tsdb.h). */
    ~RumbaRuntime();

    RumbaRuntime(const RumbaRuntime&) = delete;
    RumbaRuntime& operator=(const RumbaRuntime&) = delete;

    /**
     * Export this runtime's trained configuration (networks,
     * normalizers, checker, current threshold) for deployment.
     */
    struct Artifact ExportArtifact() const;

    /**
     * Run one accelerator invocation over a batch of raw element
     * inputs — the hot-path form. @p raw_inputs views one contiguous
     * buffer of count x NumInputs() doubles; @p outputs receives the
     * merged (approximate + recovered exact) element outputs as
     * count x NumOutputs() contiguous doubles into caller-owned
     * storage. Steady-state invocations perform no per-element heap
     * allocation. @p capture, when non-null, receives the per-element
     * audit capture (see AuditCapture); passing it re-enables bounded
     * per-element allocation for the capture's own storage.
     * @p degrade selects the overload rung (see DegradeMode); the
     * default runs the full check + recovery service.
     */
    InvocationReport ProcessInvocation(
        const BatchView& raw_inputs, double* outputs,
        AuditCapture* capture = nullptr,
        DegradeMode degrade = DegradeMode::kNone);

    /** The detection threshold the next invocation will use. */
    double Threshold() const { return tuner_.Threshold(); }

    /** The online tuner (inspection). */
    const OnlineTuner& Tuner() const { return tuner_; }

    /** The application the runtime serves. */
    const apps::Benchmark& Bench() const { return pipeline_.Bench(); }

    /** Total re-executions since construction. */
    size_t TotalFixes() const { return recovery_.TotalReexecutions(); }

    /** Total in-place compensations since construction. */
    size_t
    TotalCompensations() const
    {
        return recovery_.TotalCompensations();
    }

    /** Invocations processed since construction. */
    size_t Invocations() const { return invocations_; }

    /** Aggregates across every invocation so far. */
    const RunSummary& Summary() const { return summary_; }

    /** The input-drift monitor (enabled by threshold calibration). */
    const DriftMonitor& Drift() const { return drift_; }

    /** The circuit breaker over the approximate path. */
    const CircuitBreaker& Breaker() const { return breaker_; }

    /** The recovery module (queue drop/backpressure inspection). */
    const RecoveryModule& Recovery() const { return recovery_; }

    /** The tiered-recovery policy (tuned multiple inspection). */
    const RecoveryPolicy& Policy() const { return policy_; }

    /** True when a trained compensator is deployed on this runtime. */
    bool HasCompensator() const { return recovery_.HasCompensator(); }

    /**
     * Audited ground truth for compensated elements (obs/audit.h):
     * the shadow re-execution sampler measured a mean true residual
     * of @p mean_residual_pct over @p elements compensated elements.
     * Feeds the policy's re-execute-boundary tuning; thread-safe.
     */
    void
    OnAuditedCompensation(double mean_residual_pct, size_t elements)
    {
        policy_.OnCompensatedGroundTruth(mean_residual_pct, elements);
    }

  private:
    /** Offline threshold calibration (see RuntimeConfig); fails with
     *  kFailedPrecondition when the pipeline has no training set. */
    Result<double> CalibrateThreshold(double target_error_pct);

    /** Train (offline ctor) or restore (artifact ctor) the
     *  compensation model and install it as the recovery module's
     *  compensate-tier executor. */
    void InstallCompensator(predict::Compensator compensator);

    /** Register this runtime's instruments with the default registry. */
    void RegisterMetrics();

    RuntimeConfig config_;
    Pipeline pipeline_;
    npu::Npu accel_;
    Detector detector_;
    RecoveryModule recovery_;
    RecoveryPolicy policy_;
    /** Trained self-compensation model (only with compensation
     *  enabled, or restored from an artifact that carries one). */
    std::optional<predict::Compensator> compensator_;
    OnlineTuner tuner_;
    sim::SystemModel system_;
    sim::OpCounts kernel_ops_;
    /** Checker scores observed on the training elements during
     *  threshold calibration (drift baseline). */
    std::vector<double> calibration_scores_;
    /** Hot-path scratch reused across invocations so steady-state
     *  ProcessInvocation() stays allocation-free: the stream pass's
     *  normalized inputs (count x NumInputs(), read by the check
     *  pass), one element's vectors, the check pass's decisions. */
    std::vector<double> scratch_norm_in_;
    std::vector<double> scratch_elem_in_;
    std::vector<double> scratch_norm_out_;
    std::vector<double> scratch_raw_out_;
    std::vector<RecoveryDecision> scratch_decisions_;
    std::vector<double> scratch_residual_;
    std::vector<char> scratch_fixed_;
    /** Compensator-hook scratch: the feature vector under assembly
     *  (normalized inputs + normalized approximate outputs), the
     *  normalized-output staging half, and the predicted exact
     *  outputs. */
    std::vector<double> scratch_comp_in_;
    std::vector<double> scratch_comp_out_;
    std::vector<double> scratch_comp_pred_;
    size_t invocations_ = 0;
    RunSummary summary_;
    DriftMonitor drift_;
    CircuitBreaker breaker_;
    /** True when construction took a TsdbSampler ref for
     *  RUMBA_STREAM_OUT, so the stream covers this runtime's life. */
    bool stream_ref_ = false;
    /** Process-wide telemetry (obs/): per-invocation counters, hot-path
     *  latency histograms, and the invocation trace ring feed. */
    obs::Counter* obs_invocations_;
    obs::Counter* obs_elements_;
    obs::Counter* obs_fixes_;
    obs::Counter* obs_drift_alarms_;
    obs::Counter* obs_non_finite_salvaged_;
    obs::Counter* obs_breaker_exact_elements_;
    obs::Counter* obs_tier_accept_;
    obs::Counter* obs_tier_compensate_;
    obs::Counter* obs_tier_reexecute_;
    obs::Gauge* obs_output_error_;
    obs::Histogram* obs_invocation_ns_;
    obs::Histogram* obs_verify_ns_;
    obs::Histogram* obs_calibrate_ns_;
};

}  // namespace rumba::core

#endif  // RUMBA_CORE_RUNTIME_H_
