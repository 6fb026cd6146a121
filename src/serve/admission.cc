#include "serve/admission.h"

#include "obs/metrics.h"

namespace rumba::serve {

const char*
QualityClassName(QualityClass quality)
{
    switch (quality) {
      case QualityClass::kGold:
        return "gold";
      case QualityClass::kSilver:
        return "silver";
      case QualityClass::kBestEffort:
        return "best-effort";
    }
    return "unknown";
}

const char*
AdmissionStateName(AdmissionState state)
{
    switch (state) {
      case AdmissionState::kClosed:
        return "closed";
      case AdmissionState::kShedding:
        return "shedding";
      case AdmissionState::kEmergency:
        return "emergency";
    }
    return "unknown";
}

const char*
AdmissionActionName(AdmissionAction action)
{
    switch (action) {
      case AdmissionAction::kAdmit:
        return "admit";
      case AdmissionAction::kCompensateOnly:
        return "compensate-only";
      case AdmissionAction::kDegrade:
        return "degrade";
      case AdmissionAction::kBypassCheck:
        return "bypass-check";
      case AdmissionAction::kShed:
        return "shed";
    }
    return "unknown";
}

AdmissionController::AdmissionController(const AdmissionConfig& config)
    : config_(config),
      obs_state_(
          obs::Registry::Default().GetGauge("serve.admission.state"))
{
    obs_state_->Set(0.0);
}

void
AdmissionController::Observe(double fill, bool slo_alerting)
{
    // Pressure level this observation argues for. A firing latency
    // SLO is at least shedding pressure even with shallow queues
    // (burn is about served latency, not just depth); emergency needs
    // the queues themselves to be nearly full.
    AdmissionState level = AdmissionState::kClosed;
    if (fill >= kEmergencyFill)
        level = AdmissionState::kEmergency;
    else if (fill >= kSheddingFill || slo_alerting)
        level = AdmissionState::kShedding;

    if (level > state_) {
        // Escalate immediately: overload compounds, hysteresis on the
        // way up would just queue more doomed work.
        state_ = level;
        calm_run_ = 0;
        ++transitions_;
        obs_state_->Set(static_cast<double>(state_));
        return;
    }
    if (level < state_) {
        // De-escalate one level only after a full calm run: a single
        // lucky dequeue must not flap shedding -> closed -> shedding.
        if (++calm_run_ >= kCalmSteps) {
            state_ = static_cast<AdmissionState>(
                static_cast<uint32_t>(state_) - 1);
            calm_run_ = 0;
            ++transitions_;
            obs_state_->Set(static_cast<double>(state_));
        }
        return;
    }
    calm_run_ = 0;  // holding level: a calm run must be consecutive.
}

AdmissionAction
AdmissionController::Decide(QualityClass quality, double fill,
                            bool slo_alerting)
{
    if (!config_.enabled)
        return AdmissionAction::kAdmit;
    std::lock_guard<std::mutex> lock(mu_);
    Observe(fill, slo_alerting);

    switch (state_) {
      case AdmissionState::kClosed:
        return AdmissionAction::kAdmit;

      case AdmissionState::kShedding:
        switch (quality) {
          case QualityClass::kGold:
            return AdmissionAction::kAdmit;
          case QualityClass::kSilver:
            // The cheapest real rung: keep the checker and the
            // in-place compensator, drop only exact re-execution.
            return AdmissionAction::kCompensateOnly;
          case QualityClass::kBestEffort:
            return fill >= kBestEffortShedFill
                       ? AdmissionAction::kShed
                       : AdmissionAction::kDegrade;
        }
        return AdmissionAction::kAdmit;

      case AdmissionState::kEmergency:
        switch (quality) {
          case QualityClass::kGold:
            // Gold keeps its checker and the cheap compensate tier
            // but gives up exact re-execution; it is never shed by
            // admission (queue-full backpressure is the only thing
            // that can refuse gold).
            return AdmissionAction::kCompensateOnly;
          case QualityClass::kSilver:
            return fill >= kEmergencyShedFill
                       ? AdmissionAction::kShed
                       : AdmissionAction::kDegrade;
          case QualityClass::kBestEffort:
            return fill >= kEmergencyShedFill
                       ? AdmissionAction::kShed
                       : AdmissionAction::kBypassCheck;
        }
        return AdmissionAction::kAdmit;
    }
    return AdmissionAction::kAdmit;
}

AdmissionState
AdmissionController::state() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return state_;
}

uint64_t
AdmissionController::Transitions() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return transitions_;
}

}  // namespace rumba::serve
