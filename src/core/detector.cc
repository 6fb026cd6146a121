#include "core/detector.h"

#include <cmath>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/timer.h"

namespace rumba::core {

Detector::Detector(std::unique_ptr<predict::ErrorPredictor> predictor,
                   double threshold)
    : predictor_(std::move(predictor)),
      threshold_(threshold),
      obs_checks_(obs::Registry::Default().GetCounter("detector.checks")),
      obs_fires_(obs::Registry::Default().GetCounter("detector.fires")),
      obs_non_finite_(
          obs::Registry::Default().GetCounter("detector.non_finite")),
      obs_check_ns_(
          obs::Registry::Default().GetHistogram("detector.check_ns"))
{
    RUMBA_CHECK(predictor_ != nullptr);
}

CheckResult
Detector::Check(const std::vector<double>& inputs,
                const std::vector<double>& approx_outputs)
{
    const obs::ScopedTimer timer(obs_check_ns_);
    CheckResult result;

    // Non-finite guard: a NaN/Inf anywhere in the element means the
    // accelerator (or the data feeding it) misbehaved outright. Fire
    // unconditionally and skip the predictor — running it would both
    // waste the check and, for sequential checkers like the EMA,
    // poison their running state with the garbage value.
    auto any_non_finite = [](const std::vector<double>& values) {
        for (double v : values) {
            if (!std::isfinite(v))
                return true;
        }
        return false;
    };
    if (any_non_finite(approx_outputs) || any_non_finite(inputs)) {
        result.predicted_error = threshold_;
        result.fired = true;
        result.non_finite = true;
        ++checks_;
        ++fired_;
        ++non_finite_;
        obs_checks_->Increment();
        obs_fires_->Increment();
        obs_non_finite_->Increment();
        return result;
    }

    result.predicted_error =
        predictor_->PredictError(inputs, approx_outputs);
    result.fired = result.predicted_error >= threshold_;
    ++checks_;
    obs_checks_->Increment();
    if (result.fired) {
        ++fired_;
        obs_fires_->Increment();
    }
    return result;
}

}  // namespace rumba::core
