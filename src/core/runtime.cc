#include "core/runtime.h"

#include <algorithm>
#include <cmath>
#include <future>
#include <numeric>

#include "common/logging.h"
#include "fault/injector.h"
#include "nn/mlp.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/span.h"
#include "obs/timer.h"
#include "obs/trace.h"
#include "obs/tsdb.h"

namespace rumba::core {

void
RumbaRuntime::RegisterMetrics()
{
    auto& registry = obs::Registry::Default();
    obs_invocations_ = registry.GetCounter("runtime.invocations");
    obs_elements_ = registry.GetCounter("runtime.elements");
    obs_fixes_ = registry.GetCounter("runtime.fixes");
    obs_drift_alarms_ = registry.GetCounter("drift.alarms");
    obs_non_finite_salvaged_ =
        registry.GetCounter("runtime.non_finite_salvaged");
    obs_breaker_exact_elements_ =
        registry.GetCounter("breaker.exact_elements");
    obs_tier_accept_ = registry.GetCounter("recovery.tier.accept");
    obs_tier_compensate_ =
        registry.GetCounter("recovery.tier.compensate");
    obs_tier_reexecute_ =
        registry.GetCounter("recovery.tier.reexecute");
    obs_output_error_ = registry.GetGauge("runtime.output_error_pct");
    obs_invocation_ns_ = registry.GetHistogram("runtime.invocation_ns");
    obs_verify_ns_ = registry.GetHistogram("runtime.verify_ns");
    obs_calibrate_ns_ = registry.GetHistogram("runtime.calibrate_ns");
}

RumbaRuntime::RumbaRuntime(std::unique_ptr<apps::Benchmark> bench,
                           const RuntimeConfig& config)
    : config_(config),
      pipeline_(std::move(bench), config.pipeline),
      accel_(pipeline_.MakeAccelerator(/*use_rumba_topology=*/true)),
      detector_(pipeline_.TrainPredictor(config.checker),
                config.initial_threshold),
      recovery_(&pipeline_.Bench(), config.recovery_queue_capacity),
      policy_(config.recovery_policy, config.tuner.target_error_pct),
      tuner_(config.tuner, config.initial_threshold),
      system_(config.core, config.energy),
      breaker_(config.breaker)
{
    RUMBA_CHECK(IsPredictorScheme(config.checker));
    RegisterMetrics();
    kernel_ops_ = pipeline_.Bench().ProfileKernel();
    // The compensator's refine set is built here, on this thread; its
    // network then trains on a thread of its own while the threshold
    // is calibrated below.
    std::future<predict::Compensator> compensator;
    if (config.recovery_policy.compensation)
        compensator = pipeline_.TrainCompensator();
    if (config.initial_threshold <= 0.0) {
        const Result<double> result =
            CalibrateThreshold(config.tuner.target_error_pct);
        if (!result.ok())
            Fatal("%s", result.status().ToString().c_str());
        const double calibrated = *result;
        detector_.SetThreshold(calibrated);
        tuner_ = OnlineTuner(config.tuner, calibrated);
        // The calibration pass measured the expected fire rate on the
        // training distribution; monitor for departures from it.
        size_t fired = 0;
        for (double e : calibration_scores_)
            fired += e >= calibrated ? 1 : 0;
        DriftMonitor::Options drift_options;
        drift_options.expected_fire_rate =
            static_cast<double>(fired) /
            static_cast<double>(std::max<size_t>(
                1, calibration_scores_.size()));
        drift_ = DriftMonitor(drift_options);
    }
    if (compensator.valid())
        InstallCompensator(compensator.get());
    // Wait for the unchecked-NPU network as well: a constructed
    // runtime leaves no training thread behind it.
    (void)pipeline_.NpuMlp();
    stream_ref_ = obs::TsdbSampler::AcquireForStream();
}

RumbaRuntime::RumbaRuntime(const Artifact& artifact,
                           const RuntimeConfig& config)
    : config_(config),
      pipeline_(apps::MakeBenchmark(artifact.benchmark), config.pipeline,
                artifact),
      accel_(pipeline_.MakeAccelerator(/*use_rumba_topology=*/true)),
      detector_(predict::DeserializePredictor(artifact.predictor),
                artifact.threshold),
      recovery_(&pipeline_.Bench(), config.recovery_queue_capacity),
      policy_(config.recovery_policy, config.tuner.target_error_pct),
      tuner_(config.tuner, artifact.threshold),
      system_(config.core, config.energy),
      breaker_(config.breaker)
{
    RegisterMetrics();
    kernel_ops_ = pipeline_.Bench().ProfileKernel();
    // Restore the compensation model whenever the artifact carries
    // one (not just when the compensate tier is on): the serving
    // engine's compensate-only shedding rung needs it regardless.
    if (!artifact.compensator.empty()) {
        Result<predict::Compensator> compensator =
            predict::Compensator::TryDeserialize(artifact.compensator);
        if (!compensator.ok())
            Fatal("%s", compensator.status().ToString().c_str());
        InstallCompensator(*std::move(compensator));
    }
    stream_ref_ = obs::TsdbSampler::AcquireForStream();
}

void
RumbaRuntime::InstallCompensator(predict::Compensator compensator)
{
    RUMBA_CHECK(compensator.Trained());
    RUMBA_CHECK(compensator.InputArity() ==
                pipeline_.Bench().NumInputs() +
                    pipeline_.Bench().NumOutputs());
    RUMBA_CHECK(compensator.OutputArity() ==
                pipeline_.Bench().NumOutputs());
    compensator_.emplace(std::move(compensator));
    recovery_.SetCompensator(
        [this](const double* raw_in, double* raw_out) {
            // Feature vector: normalized inputs, then the element's
            // normalized approximate outputs (see
            // predict/compensator.h). The predicted signed residual
            // comes back in the NN domain; add it to the normalized
            // approximate outputs, denormalize, and overwrite the
            // element only once everything is finite.
            pipeline_.NormalizeInput(raw_in, &scratch_comp_in_);
            pipeline_.NormalizeOutput(raw_out, &scratch_comp_out_);
            scratch_comp_in_.insert(scratch_comp_in_.end(),
                                    scratch_comp_out_.begin(),
                                    scratch_comp_out_.end());
            if (!compensator_->Predict(scratch_comp_in_,
                                       &scratch_comp_pred_))
                return false;
            for (size_t o = 0; o < scratch_comp_pred_.size(); ++o)
                scratch_comp_pred_[o] += scratch_comp_out_[o];
            pipeline_.DenormalizeOutput(scratch_comp_pred_,
                                        &scratch_comp_out_);
            for (double v : scratch_comp_out_) {
                if (!std::isfinite(v))
                    return false;
            }
            std::copy(scratch_comp_out_.begin(),
                      scratch_comp_out_.end(), raw_out);
            return true;
        });
}

RumbaRuntime::~RumbaRuntime()
{
    if (stream_ref_)
        obs::TsdbSampler::Release();
}

Artifact
RumbaRuntime::ExportArtifact() const
{
    return pipeline_.ExportArtifact(
        detector_.Predictor(), tuner_.Threshold(),
        compensator_.has_value() ? &*compensator_ : nullptr);
}

Result<double>
RumbaRuntime::CalibrateThreshold(double target_error_pct)
{
    // Replay the training elements through the accelerator and the
    // checker, exactly as the online system would see them, then pick
    // the smallest fix set (largest threshold) whose residual error
    // meets the target on the training data.
    const apps::Benchmark& app = pipeline_.Bench();
    const auto& train = pipeline_.TrainInputs();
    const auto& true_errors = pipeline_.TrainErrors();
    if (train.empty() || true_errors.size() != train.size()) {
        return Status(
            StatusCode::kFailedPrecondition,
            "threshold calibration needs a non-empty training set "
            "with per-element errors (" +
                std::to_string(train.size()) + " inputs, " +
                std::to_string(true_errors.size()) +
                " errors); set initial_threshold > 0 to skip "
                "calibration");
    }

    const obs::ScopedTimer timer(obs_calibrate_ns_);
    const obs::Span span("runtime.calibrate");
    obs::Registry::Default()
        .GetCounter("runtime.calibrations")
        ->Increment();
    detector_.Reset();
    std::vector<double> scores(train.size());
    pipeline_.ForEachApproximate(
        &accel_, train,
        [&](size_t i, const std::vector<double>& norm_in,
            const std::vector<double>& raw_out) {
            scores[i] = detector_.Check(norm_in, raw_out).predicted_error;
        });
    detector_.Reset();
    calibration_scores_ = scores;

    // Candidate thresholds: the observed scores, descending.
    std::vector<size_t> order(scores.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return scores[a] > scores[b];
    });

    // Residual error is monotone in the number of fixes along this
    // order, so binary-search the smallest sufficient fix count.
    auto error_at = [&](size_t k) {
        std::vector<double> residual = true_errors;
        for (size_t i = 0; i < k; ++i)
            residual[order[i]] = 0.0;
        return app.AggregateError(residual);
    };
    if (error_at(0) <= target_error_pct) {
        return std::max(scores[order.front()] * 2.0,
                        config_.tuner.min_threshold);
    }
    if (error_at(order.size()) > target_error_pct)
        return config_.tuner.min_threshold;  // even fixing all is short.
    size_t lo = 0, hi = order.size();  // lo insufficient, hi sufficient.
    while (lo + 1 < hi) {
        const size_t mid = lo + (hi - lo) / 2;
        if (error_at(mid) <= target_error_pct)
            hi = mid;
        else
            lo = mid;
    }
    return std::max(scores[order[hi - 1]], config_.tuner.min_threshold);
}

Result<std::unique_ptr<RumbaRuntime>>
RumbaRuntime::FromArtifact(const Artifact& artifact,
                           const RuntimeConfig& config)
{
    auto bench = apps::TryMakeBenchmark(artifact.benchmark);
    if (bench == nullptr) {
        return Status(StatusCode::kNotFound,
                      "artifact names unknown benchmark '" +
                          artifact.benchmark + "'");
    }
    if (predict::TryDeserializePredictor(artifact.predictor) ==
        nullptr) {
        return Status(StatusCode::kDataLoss,
                      "artifact carries an unrecognized checker blob");
    }
    const nn::Mlp probe = nn::Mlp::Deserialize(artifact.rumba_mlp);
    if (probe.GetTopology().NumInputs() != bench->NumInputs() ||
        probe.GetTopology().NumOutputs() != bench->NumOutputs()) {
        return Status(
            StatusCode::kFailedPrecondition,
            "artifact network arity does not match kernel '" +
                artifact.benchmark + "'");
    }
    if (!std::isfinite(artifact.threshold)) {
        return Status(StatusCode::kFailedPrecondition,
                      "artifact threshold is not finite");
    }
    // External configuration: report bad knobs instead of dying in
    // the constructors' checked-fatal paths.
    if (Status status = ValidateTunerConfig(config.tuner); !status.ok())
        return status;
    if (Status status =
            ValidateRecoveryPolicyConfig(config.recovery_policy);
        !status.ok()) {
        return status;
    }
    if (!artifact.compensator.empty()) {
        const Result<predict::Compensator> compensator =
            predict::Compensator::TryDeserialize(artifact.compensator);
        if (!compensator.ok())
            return compensator.status();
        if (compensator->InputArity() !=
                bench->NumInputs() + bench->NumOutputs() ||
            compensator->OutputArity() != bench->NumOutputs()) {
            return Status(
                StatusCode::kFailedPrecondition,
                "artifact compensator arity does not match kernel '" +
                    artifact.benchmark + "'");
        }
    }
    return std::unique_ptr<RumbaRuntime>(
        new RumbaRuntime(artifact, config));
}

const char*
DegradeModeName(DegradeMode mode)
{
    switch (mode) {
      case DegradeMode::kNone:
        return "none";
      case DegradeMode::kCompensateOnly:
        return "compensate-only";
      case DegradeMode::kSkipRecovery:
        return "skip-recovery";
      case DegradeMode::kSkipCheck:
        return "skip-check";
    }
    return "unknown";
}

InvocationReport
RumbaRuntime::ProcessInvocation(const BatchView& raw_inputs,
                                double* outputs, AuditCapture* capture,
                                DegradeMode degrade)
{
    RUMBA_CHECK(outputs != nullptr);
    RUMBA_CHECK(!raw_inputs.empty());
    RUMBA_CHECK(raw_inputs.width() == pipeline_.Bench().NumInputs());
    // The overload rungs (serve/admission.h): compensate-only keeps
    // the checker and the cheap compensate tier but never re-executes
    // (degenerates to skip-recovery without a deployed compensator);
    // skip-recovery keeps the checker but never queues its verdicts;
    // skip-check bypasses the detector entirely. All of them skip the
    // verify pass (the auditor owns degraded ground truth) and give
    // no tuner/drift/breaker feedback.
    const bool degraded = degrade != DegradeMode::kNone;
    const bool run_check = degrade != DegradeMode::kSkipCheck;
    const bool compensate_only =
        degrade == DegradeMode::kCompensateOnly &&
        recovery_.HasCompensator();
    const bool run_recovery =
        degrade == DegradeMode::kNone || compensate_only;
    const obs::ScopedTimer invocation_timer(obs_invocation_ns_);
    const obs::Span invocation_span("runtime.invocation");
    const apps::Benchmark& app = pipeline_.Bench();
    const size_t n = raw_inputs.count();
    const size_t out_w = app.NumOutputs();

    if (capture != nullptr) {
        capture->count = n;
        capture->out_width = out_w;
        capture->approx_outputs.assign(n * out_w, 0.0);
        capture->predicted_error.assign(n, 0.0);
        capture->fired.assign(n, 0);
        capture->fixed.assign(n, 0);
        capture->exact_path.assign(n, 0);
    }

    detector_.SetThreshold(tuner_.Threshold());
    detector_.Reset();

    InvocationReport report;
    report.elements = n;
    report.threshold_used = detector_.Threshold();

    // The breaker decides how much of the batch may ride the
    // accelerator: all of it while closed, a canary slice while
    // half-open, none while open (exact-only degradation).
    const BreakerState state_before = breaker_.State();
    const size_t approx_n = breaker_.ApproxBudget(n);

    fault::FaultInjector& injector = fault::FaultInjector::Default();
    const bool inject_mispredict =
        injector.Armed() &&
        injector.Enabled(fault::FaultClass::kCheckerMispredict);
    const bool inject_stall =
        injector.Armed() &&
        injector.Enabled(fault::FaultClass::kQueueStall);

    std::vector<char>& fixed = scratch_fixed_;
    fixed.assign(n, 0);
    DrainStats drain_stats;
    double unfixed_predicted_sum = 0.0;
    size_t unfixed_count = 0;
    size_t fires = 0;
    size_t queue_full_stalls = 0;
    size_t queue_drops = 0;
    size_t non_finite_seen = 0;
    // Each pass below is bracketed by one StageScope, which adds the
    // pass's wall time (and thread CPU) to the report's stage record.
    obs::StageRecord* const stages =
        config_.stage_timings || config_.cpu_attribution
            ? &report.stages
            : nullptr;
    const bool cpu = config_.cpu_attribution;
    const size_t in_w = app.NumInputs();
    std::vector<double>& norm_in = scratch_norm_in_;
    std::vector<double>& elem_in = scratch_elem_in_;
    std::vector<double>& norm_out = scratch_norm_out_;
    std::vector<double>& raw_out = scratch_raw_out_;

    // ---- Stream: the accelerator slice through the NPU ---------------
    {
        const obs::Span stream_span("runtime.accel_stream");
        const obs::StageScope device_scope(obs::ProfileStage::kDevice,
                                           stages, cpu);
        norm_in.resize(approx_n * in_w);
        for (size_t i = 0; i < approx_n; ++i) {
            pipeline_.NormalizeInput(raw_inputs[i].data(), &elem_in);
            accel_.Invoke(elem_in, &norm_out);
            pipeline_.DenormalizeOutput(norm_out, &raw_out);
            std::copy(elem_in.begin(), elem_in.end(),
                      norm_in.begin() + static_cast<ptrdiff_t>(i * in_w));
            std::copy(raw_out.begin(), raw_out.end(),
                      outputs + i * out_w);
            if (capture != nullptr) {
                std::copy(raw_out.begin(), raw_out.end(),
                          capture->approx_outputs.begin() +
                              static_cast<ptrdiff_t>(i * out_w));
            }
        }
    }

    // ---- Check: a verdict per streamed element, a tier per fire ------
    // Skipped on the skip-check rung: raw approximate outputs.
    std::vector<RecoveryDecision>& decisions = scratch_decisions_;
    decisions.clear();
    if (run_check) {
        const obs::Span check_span("runtime.check");
        const obs::StageScope check_scope(
            obs::ProfileStage::kPredictCheck, stages, cpu);
        for (size_t i = 0; i < approx_n; ++i) {
            elem_in.assign(&norm_in[i * in_w], &norm_in[i * in_w] + in_w);
            raw_out.assign(outputs + i * out_w, outputs + (i + 1) * out_w);
            const CheckResult check = detector_.Check(elem_in, raw_out);
            if (check.non_finite)
                ++non_finite_seen;
            bool fired = check.fired;
            // Checker-mispredict fault: flip the verdict. Non-finite
            // fires are never flipped — that guard is unconditional.
            if (inject_mispredict && !check.non_finite &&
                injector.ShouldInject(
                    fault::FaultClass::kCheckerMispredict)) {
                fired = !fired;
            }
            if (capture != nullptr) {
                capture->predicted_error[i] = check.predicted_error;
                capture->fired[i] = fired ? 1 : 0;
            }
            if (fired)
                ++fires;
            if (fired && run_recovery) {
                // Tier the fired check. On the compensate-only
                // shedding rung, finite re-execute verdicts are
                // demoted to the cheap tier — that is the rung's
                // point; non-finite garbage still re-executes (no
                // mode may deliver NaN/Inf).
                RecoveryDecision decision = policy_.Decide(
                    i, check.predicted_error, check.non_finite,
                    report.threshold_used);
                if (compensate_only && !check.non_finite &&
                    std::isfinite(check.predicted_error) &&
                    decision.tier == RecoveryTier::kReexecute) {
                    decision.tier = RecoveryTier::kCompensate;
                }
                decisions.push_back(decision);
            } else {
                // Unfired — or fired on the skip-recovery rung, where
                // the verdict is recorded but the element stays
                // approximate and its predicted error stays in the
                // estimate.
                unfixed_predicted_sum +=
                    std::max(0.0, check.predicted_error);
                ++unfixed_count;
            }
        }
    }

    // ---- Recover: queue, drain and merge; the breaker's exact tail ---
    {
        const obs::Span merge_span("runtime.merge");
        const obs::StageScope recover_scope(obs::ProfileStage::kRecover,
                                            stages, cpu);
        for (const RecoveryDecision& decision : decisions) {
            if (recovery_.Queue().Full()) {
                // Queue-stall fault: the CPU side is unavailable, so
                // no backpressure drain can happen and the push below
                // overflows into drop-and-count.
                if (inject_stall &&
                    injector.ShouldInject(fault::FaultClass::kQueueStall)) {
                    // stalled: fall through to the failing Push.
                } else {
                    // Backpressure: drain the queue when full, as the
                    // pipelined CPU side would.
                    const obs::Span stall_span(
                        "recovery.queue_backpressure");
                    ++queue_full_stalls;
                    recovery_.RecordQueueFullStall();
                    recovery_.Drain(raw_inputs, outputs, out_w, &fixed,
                                    &drain_stats);
                }
            }
            if (!recovery_.Queue().Push(decision)) {
                recovery_.RecordQueueDrop();
                ++queue_drops;
            }
        }
        if (run_recovery) {
            recovery_.Drain(raw_inputs, outputs, out_w, &fixed,
                            &drain_stats);
        }
        if (approx_n < n) {
            // Breaker-degraded tail: exact CPU execution
            // (paper-faithful recovery of everything), bypassing
            // accelerator and checker.
            const obs::Span exact_span("runtime.breaker_exact");
            for (size_t i = approx_n; i < n; ++i) {
                app.RunExact(raw_inputs[i].data(), outputs + i * out_w);
                fixed[i] = 1;
                if (capture != nullptr) {
                    std::copy(outputs + i * out_w,
                              outputs + (i + 1) * out_w,
                              capture->approx_outputs.begin() +
                                  static_cast<ptrdiff_t>(i * out_w));
                    capture->exact_path[i] = 1;
                }
            }
            obs_breaker_exact_elements_->Increment(n - approx_n);
        }
    }

    // ---- Salvage ------------------------------------------------------
    // A NaN/Inf approximate output must never be delivered. The
    // detector's guard queues them, but an overflowed (dropped) entry
    // could still slip through — recover it here, unconditionally.
    size_t salvaged = 0;
    {
        const obs::StageScope salvage_scope(obs::ProfileStage::kRecover,
                                            stages, cpu);
        for (size_t i = 0; i < approx_n; ++i) {
            if (fixed[i])
                continue;
            bool finite = true;
            for (size_t o = 0; o < out_w; ++o) {
                if (!std::isfinite(outputs[i * out_w + o])) {
                    finite = false;
                    break;
                }
            }
            if (finite)
                continue;
            app.RunExact(raw_inputs[i].data(), outputs + i * out_w);
            fixed[i] = 1;
            ++salvaged;
        }
    }
    if (salvaged > 0)
        obs_non_finite_salvaged_->Increment(salvaged);
    for (const char f : fixed) {
        if (f == kFixedExact)
            ++report.tier_reexecuted;
        else if (f == kFixedCompensated)
            ++report.tier_compensated;
    }
    report.tier_accepted =
        n - report.tier_reexecuted - report.tier_compensated;
    report.fixes = report.tier_reexecuted + report.tier_compensated;
    if (capture != nullptr)
        capture->fixed.assign(fixed.begin(), fixed.end());
    if (stages != nullptr && drain_stats.compensate_ns > 0) {
        // The drains interleave the two tiers per queue entry, so no
        // scope brackets compensation alone: carve its share out of
        // recover by the drains' per-entry compensate/re-execute wall
        // ratio.
        const double share =
            static_cast<double>(drain_stats.compensate_ns) /
            static_cast<double>(drain_stats.compensate_ns +
                                drain_stats.reexec_ns);
        auto carve = [share](int64_t& recover, int64_t& compensate) {
            compensate = static_cast<int64_t>(
                static_cast<double>(recover) * share);
            recover -= compensate;
        };
        const obs::ProfileStage recover = obs::ProfileStage::kRecover;
        const obs::ProfileStage compensate =
            obs::ProfileStage::kCompensate;
        carve(stages->Wall(recover), stages->Wall(compensate));
        carve(stages->Cpu(recover), stages->Cpu(compensate));
    }

    // ---- Verify -------------------------------------------------------
    // True residual error (the runtime can verify because the exact
    // kernel is available; a production deployment would not).
    std::vector<double>& residual = scratch_residual_;
    residual.assign(n, 0.0);
    {
        const obs::ScopedTimer verify_timer(obs_verify_ns_);
        const obs::Span verify_span("runtime.verify");
        const obs::StageScope verify_scope(obs::ProfileStage::kVerify,
                                           stages, cpu);
        std::vector<double>& exact = raw_out;
        std::vector<double>& approx = norm_out;
        exact.assign(out_w, 0.0);
        // Degraded invocations skip verification entirely — it is the
        // single most expensive stage (exact re-execution per unfixed
        // element), and shedding it is the point of the rung. Their
        // ground truth comes from the auditor's forced samples.
        // Exactly re-executed elements have zero residual by
        // construction; *compensated* elements do not — their true
        // residual is measured here, so compensation shows up in the
        // verified output error and feeds the policy's boundary
        // tuning below.
        for (size_t i = 0; !degraded && i < n; ++i) {
            if (fixed[i] == kFixedExact)
                continue;
            app.RunExact(raw_inputs[i].data(), exact.data());
            approx.assign(outputs + i * out_w,
                          outputs + (i + 1) * out_w);
            residual[i] = app.ElementError(exact, approx);
        }
    }
    report.output_error_pct = app.AggregateError(residual);
    if (!degraded && report.tier_compensated > 0) {
        // Verified ground truth for the compensate tier: its mean
        // true residual drives the policy's re-execute boundary (the
        // audit path feeds the same loop for degraded invocations).
        double comp_sum = 0.0;
        for (size_t i = 0; i < n; ++i) {
            if (fixed[i] == kFixedCompensated)
                comp_sum += residual[i];
        }
        policy_.OnCompensatedGroundTruth(
            100.0 * comp_sum /
                static_cast<double>(report.tier_compensated),
            report.tier_compensated);
    }
    report.estimated_error_pct =
        unfixed_count == 0
            ? 0.0
            : 100.0 * unfixed_predicted_sum /
                  static_cast<double>(n);

    // ---- Modeled costs and tuner feedback ----------------------------
    sim::RegionProfile region;
    region.cpu_ops_per_iter = kernel_ops_;
    region.iterations = n;
    region.region_fraction = app.RegionFraction();

    sim::AcceleratorProfile accel_profile;
    accel_profile.cycles_per_invocation = accel_.CyclesPerInvocation();
    accel_profile.frequency_ghz = config_.pipeline.npu.frequency_ghz;
    const auto topo_macs =
        pipeline_.RumbaMlp().GetTopology().MacsPerInvocation();
    accel_profile.macs_per_invocation = static_cast<double>(topo_macs);
    accel_profile.luts_per_invocation = static_cast<double>(
        pipeline_.RumbaMlp().GetTopology().NumNeurons());
    accel_profile.queue_words_per_invocation =
        static_cast<double>(app.NumInputs() + app.NumOutputs()) + 1.0;

    const sim::CheckerCost checker = detector_.CostPerCheck();
    // The system model charges exact CPU re-execution per fix;
    // compensated iterations cost a handful of MACs, not a kernel
    // re-run, so only the re-execute tier counts here.
    report.costs = system_.Evaluate(region, accel_profile,
                                    run_check ? &checker : nullptr,
                                    report.tier_reexecuted);

    const size_t adjustments_before = tuner_.Adjustments();
    if (!degraded && approx_n == n) {
        // Only full-approximate invocations feed the tuner: a
        // breaker-degraded batch would read as an artificially low
        // error and pull the threshold the wrong way.
        InvocationFeedback feedback;
        feedback.elements = n;
        // Energy mode budgets *re-executions* (the expensive tier).
        feedback.fixes = report.tier_reexecuted;
        feedback.estimated_error_pct = report.estimated_error_pct;
        feedback.cpu_busy_ratio =
            report.costs.npu_ns > 0.0
                ? report.costs.recovery_ns / report.costs.npu_ns
                : 0.0;
        tuner_.EndInvocation(feedback);
    }

    if (!degraded) {
        // Fire rate over the accelerator-served slice only (Observe
        // ignores zero-element rounds, i.e. an open breaker).
        drift_.Observe(fires, approx_n);
        report.drift_detected = drift_.DriftDetected();
        if (report.drift_detected)
            obs_drift_alarms_->Increment();

        // Breaker health covers only the accelerator-served slice;
        // the exact tail is correct by construction. Degraded
        // invocations feed neither drift nor breaker: their reduced
        // service is deliberate, not accelerator sickness.
        BreakerHealth health;
        health.approx_elements = approx_n;
        health.fires = fires;
        health.non_finite = non_finite_seen;
        health.queue_drops = queue_drops;
        health.drift = report.drift_detected;
        if (approx_n > 0) {
            const std::vector<double> approx_residual(
                residual.begin(),
                residual.begin() + static_cast<ptrdiff_t>(approx_n));
            health.output_error_pct =
                app.AggregateError(approx_residual);
        }
        health.target_error_pct = config_.tuner.target_error_pct;
        breaker_.OnInvocation(health);
        if (state_before == BreakerState::kHalfOpen &&
            breaker_.State() == BreakerState::kClosed) {
            // Quality recovered: the drift baseline restarts from the
            // calibrated expectation instead of the outage's fire
            // storm.
            drift_.ReArm();
        }
    }
    report.queue_drops = queue_drops;
    report.non_finite_outputs = non_finite_seen;
    report.exact_elements = n - approx_n;
    report.breaker_state = breaker_.State();
    report.degrade = degrade;

    ++invocations_;
    ++summary_.invocations;
    summary_.elements += n;
    summary_.fixes += report.fixes;
    summary_.error_weighted_sum +=
        report.output_error_pct * static_cast<double>(n);
    summary_.baseline_app_ns += report.costs.baseline_app_ns;
    summary_.baseline_app_nj += report.costs.baseline_app_nj;
    summary_.scheme_app_ns += report.costs.scheme_app_ns;
    summary_.scheme_app_nj += report.costs.scheme_app_nj;

    obs_invocations_->Increment();
    obs_elements_->Increment(n);
    obs_fixes_->Increment(report.fixes);
    obs_tier_accept_->Increment(report.tier_accepted);
    obs_tier_compensate_->Increment(report.tier_compensated);
    obs_tier_reexecute_->Increment(report.tier_reexecuted);
    if (!degraded)  // degraded rounds skip verify: no true error.
        obs_output_error_->Set(report.output_error_pct);

    obs::TraceEvent event;
    event.invocation = invocations_ - 1;
    event.elements = n;
    event.threshold = report.threshold_used;
    event.fires = fires;
    event.fixes = report.fixes;
    event.queue_full_stalls = queue_full_stalls;
    event.queue_drops = queue_drops;
    event.non_finite = non_finite_seen;
    event.exact_elements = report.exact_elements;
    event.tuner_adjustments = tuner_.Adjustments() - adjustments_before;
    event.output_error_pct = report.output_error_pct;
    event.estimated_error_pct = report.estimated_error_pct;
    event.drift = report.drift_detected;
    event.breaker_state =
        static_cast<uint32_t>(report.breaker_state);
    obs::TraceRing::Default().Record(event);
    return report;
}

}  // namespace rumba::core
