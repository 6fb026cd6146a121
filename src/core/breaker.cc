#include "core/breaker.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/metrics.h"

namespace rumba::core {

const char*
BreakerStateName(BreakerState state)
{
    switch (state) {
      case BreakerState::kClosed: return "closed";
      case BreakerState::kOpen: return "open";
      case BreakerState::kHalfOpen: return "half-open";
    }
    return "unknown";
}

CircuitBreaker::CircuitBreaker(const BreakerConfig& config)
    : config_(config),
      obs_state_(obs::Registry::Default().GetGauge("breaker.state")),
      obs_trips_(obs::Registry::Default().GetCounter("breaker.trips")),
      obs_probes_(obs::Registry::Default().GetCounter("breaker.probes")),
      obs_closes_(obs::Registry::Default().GetCounter("breaker.closes"))
{
    RUMBA_CHECK(config.trip_after > 0);
    RUMBA_CHECK(config.close_after > 0);
    obs_state_->Set(0.0);
}

size_t
CircuitBreaker::ApproxBudget(size_t batch_elements) const
{
    if (!config_.enabled)
        return batch_elements;
    switch (state_) {
      case BreakerState::kClosed:
        return batch_elements;
      case BreakerState::kOpen:
        return 0;
      case BreakerState::kHalfOpen:
        return std::min(kCanaryElements, batch_elements);
    }
    return batch_elements;
}

bool
CircuitBreaker::Unhealthy(const BreakerHealth& health) const
{
    if (health.non_finite > 0 || health.queue_drops > 0)
        return true;
    if (health.drift && health.approx_elements > 0) {
        const double fire_rate =
            static_cast<double>(health.fires) /
            static_cast<double>(health.approx_elements);
        if (fire_rate > kFireRateTrip)
            return true;
    }
    return health.output_error_pct >
           kErrorTripFactor * health.target_error_pct;
}

void
CircuitBreaker::SetState(BreakerState next)
{
    state_ = next;
    obs_state_->Set(static_cast<double>(next));
}

void
CircuitBreaker::OnInvocation(const BreakerHealth& health)
{
    if (!config_.enabled)
        return;
    switch (state_) {
      case BreakerState::kClosed: {
        if (Unhealthy(health)) {
            if (++unhealthy_streak_ >= config_.trip_after) {
                ++trips_;
                obs_trips_->Increment();
                unhealthy_streak_ = 0;
                open_remaining_ = config_.open_invocations;
                SetState(BreakerState::kOpen);
                Warn("circuit breaker OPEN: %zu consecutive unhealthy "
                     "invocations (err %.2f%%, fires %zu/%zu, "
                     "non-finite %zu, drops %zu) — degrading to "
                     "exact-only execution",
                     config_.trip_after, health.output_error_pct,
                     health.fires, health.approx_elements,
                     health.non_finite, health.queue_drops);
            }
        } else {
            unhealthy_streak_ = 0;
        }
        break;
      }
      case BreakerState::kOpen: {
        // Nothing rode the accelerator; just serve out the hold-off.
        if (open_remaining_ > 0)
            --open_remaining_;
        if (open_remaining_ == 0) {
            clean_probes_ = 0;
            SetState(BreakerState::kHalfOpen);
            Inform("circuit breaker HALF-OPEN: probing the accelerator "
                   "with %zu-element canaries",
                   kCanaryElements);
        }
        break;
      }
      case BreakerState::kHalfOpen: {
        ++probes_;
        obs_probes_->Increment();
        if (Unhealthy(health)) {
            ++trips_;
            obs_trips_->Increment();
            open_remaining_ = config_.open_invocations;
            SetState(BreakerState::kOpen);
            Warn("circuit breaker RE-OPEN: canary probe unhealthy "
                 "(err %.2f%%, fires %zu/%zu, non-finite %zu)",
                 health.output_error_pct, health.fires,
                 health.approx_elements, health.non_finite);
        } else if (++clean_probes_ >= config_.close_after) {
            ++closes_;
            obs_closes_->Increment();
            clean_probes_ = 0;
            SetState(BreakerState::kClosed);
            Inform("circuit breaker CLOSED: %zu consecutive clean "
                   "canary probes — accelerator restored",
                   config_.close_after);
        }
        break;
      }
    }
}

void
CircuitBreaker::Reset()
{
    unhealthy_streak_ = 0;
    open_remaining_ = 0;
    clean_probes_ = 0;
    SetState(BreakerState::kClosed);
}

}  // namespace rumba::core
