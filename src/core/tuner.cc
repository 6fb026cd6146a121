#include "core/tuner.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace rumba::core {

Status
ValidateTunerConfig(const TunerConfig& config)
{
    const auto invalid = [](std::string message) {
        return Status(StatusCode::kInvalidArgument,
                      std::move(message));
    };
    if (!(config.adjust_factor > 1.0))
        return invalid("tuner: adjust_factor must be > 1");
    if (!(config.min_threshold > 0.0))
        return invalid("tuner: min_threshold must be > 0");
    if (!(config.max_threshold > config.min_threshold))
        return invalid(
            "tuner: max_threshold must be > min_threshold");
    if (!(config.target_error_pct > 0.0))
        return invalid("tuner: target_error_pct must be > 0");
    return Status::Ok();
}

OnlineTuner::OnlineTuner(const TunerConfig& config,
                         double initial_threshold)
    : config_(config),
      threshold_(initial_threshold),
      obs_threshold_(obs::Registry::Default().GetGauge("tuner.threshold")),
      obs_adjustments_(
          obs::Registry::Default().GetCounter("tuner.adjustments"))
{
    const Status status = ValidateTunerConfig(config);
    if (!status.ok())
        Fatal("%s", status.ToString().c_str());
    threshold_ = std::clamp(threshold_, config.min_threshold,
                            config.max_threshold);
    obs_threshold_->Set(threshold_);
}

void
OnlineTuner::Raise()
{
    const double next = std::min(threshold_ * config_.adjust_factor,
                                 config_.max_threshold);
    if (next != threshold_) {
        threshold_ = next;
        ++adjustments_;
        obs_adjustments_->Increment();
    }
}

void
OnlineTuner::Lower()
{
    const double next = std::max(threshold_ / config_.adjust_factor,
                                 config_.min_threshold);
    if (next != threshold_) {
        threshold_ = next;
        ++adjustments_;
        obs_adjustments_->Increment();
    }
}

void
OnlineTuner::EndInvocation(const InvocationFeedback& feedback)
{
    const obs::Span span("tuner.adjust");
    switch (config_.mode) {
      case TuningMode::kToq: {
        // Too much residual error -> check more aggressively;
        // comfortably under target -> back off to save energy.
        const double target = config_.target_error_pct;
        if (feedback.estimated_error_pct > target * (1.0 + kDeadBand))
            Lower();
        else if (feedback.estimated_error_pct < target * (1.0 - kDeadBand))
            Raise();
        break;
      }
      case TuningMode::kEnergy: {
        const double budget =
            static_cast<double>(config_.iteration_budget);
        const double fixes = static_cast<double>(feedback.fixes);
        if (fixes > budget)
            Raise();
        else if (fixes < budget * (1.0 - kDeadBand))
            Lower();
        break;
      }
      case TuningMode::kQuality: {
        // CPU saturated -> fix fewer; CPU idle headroom -> fix more.
        if (feedback.cpu_busy_ratio > 1.0)
            Raise();
        else if (feedback.cpu_busy_ratio < 1.0 - kDeadBand)
            Lower();
        break;
      }
    }
    obs_threshold_->Set(threshold_);
}

}  // namespace rumba::core
