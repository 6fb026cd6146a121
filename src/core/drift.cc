#include "core/drift.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "obs/metrics.h"

namespace rumba::core {

DriftMonitor::DriftMonitor(double expected_fire_rate)
    : expected_(expected_fire_rate),
      smoothed_(expected_fire_rate),
      obs_observations_(
          obs::Registry::Default().GetCounter("drift.observations")),
      obs_fire_rate_(
          obs::Registry::Default().GetGauge("drift.smoothed_fire_rate"))
{
    RUMBA_CHECK(expected_ >= 0.0 && expected_ <= 1.0);
}

void
DriftMonitor::Observe(size_t fired, size_t elements)
{
    if (elements == 0)
        return;
    RUMBA_CHECK(fired <= elements);
    const double rate =
        static_cast<double>(fired) / static_cast<double>(elements);
    smoothed_ = kAlpha * rate + (1.0 - kAlpha) * smoothed_;
    ++observations_;
    obs_observations_->Increment();
    obs_fire_rate_->Set(smoothed_);
}

void
DriftMonitor::ReArm()
{
    smoothed_ = expected_;
    observations_ = 0;
    obs_fire_rate_->Set(smoothed_);
}

bool
DriftMonitor::DriftDetected() const
{
    if (!Enabled() || observations_ < kWarmup)
        return false;
    if (std::fabs(smoothed_ - expected_) < kMinDelta)
        return false;
    return smoothed_ > expected_ * kTolerance ||
           smoothed_ < expected_ / kTolerance;
}

}  // namespace rumba::core
