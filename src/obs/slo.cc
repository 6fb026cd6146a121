#include "obs/slo.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/timer.h"

namespace rumba::obs {

namespace {

/** Ring bucket width: the slow window over kBuckets. */
constexpr uint64_t kBucketWidthNs =
    SloMonitor::kSlowWindowNs / SloMonitor::kBuckets;

}  // namespace

SloMonitor::SloMonitor(std::string name, double objective)
    : name_(std::move(name)),
      objective_(objective),
      fast_gauge_(Registry::Default().GetGauge(
          "slo." + name_ + ".fast_burn_rate")),
      slow_gauge_(Registry::Default().GetGauge(
          "slo." + name_ + ".slow_burn_rate")),
      latch_("slo", name_, "slo." + name_ + ".fast_burn_rate",
             Registry::Default().GetGauge("slo." + name_ + ".alerting"),
             Registry::Default().GetCounter("slo." + name_ + ".alerts"),
             nullptr)
{
    RUMBA_CHECK(objective_ > 0.0 && objective_ < 1.0);
}

void
SloMonitor::AdvanceLocked(uint64_t now_ns)
{
    // Lazy expiry: a bucket belongs to epoch now/width; a slot whose
    // tag differs from the epoch about to use it is stale and resets.
    const uint64_t epoch = now_ns / kBucketWidthNs;
    Bucket& slot = ring_[epoch % ring_.size()];
    if (slot.epoch != epoch) {
        slot.epoch = epoch;
        slot.good = 0;
        slot.bad = 0;
    }
}

void
SloMonitor::Record(bool good, uint64_t now_ns)
{
    if (now_ns == 0)
        now_ns = NowNs();
    EdgeLatch::Step step;
    {
        std::lock_guard<std::mutex> lock(mu_);
        AdvanceLocked(now_ns);
        Bucket& slot =
            ring_[(now_ns / kBucketWidthNs) % ring_.size()];
        if (good)
            ++slot.good;
        else
            ++slot.bad;
        const double fast = BurnLocked(now_ns, kFastWindowNs);
        const double slow = BurnLocked(now_ns, kSlowWindowNs);
        fast_gauge_->Set(fast);
        slow_gauge_->Set(slow);
        uint64_t fast_good = 0;
        uint64_t fast_bad = 0;
        SumWindowLocked(now_ns, kFastWindowNs, &fast_good, &fast_bad);
        // Fire on the multi-window rule; clear with hysteresis on the
        // fast window alone — the slow window can stay hot long after
        // the incident ends.
        step = latch_.Update(fast_good + fast_bad >= kMinEvents &&
                                 fast >= kFastBurnAlert &&
                                 slow >= kSlowBurnAlert,
                             fast < kFastBurnAlert, now_ns,
                             "fast_burn=%.3g slow_burn=%.3g", fast, slow);
    }
    latch_.Deliver(step);
}

void
SloMonitor::SumWindowLocked(uint64_t now_ns, uint64_t window_ns,
                            uint64_t* good, uint64_t* bad) const
{
    *good = 0;
    *bad = 0;
    const uint64_t now_epoch = now_ns / kBucketWidthNs;
    // Count whole buckets whose epoch lies within the window ending
    // now. The window is quantised to bucket granularity — acceptable
    // slack of one bucket width (kSlowWindowNs / kBuckets).
    const uint64_t span = std::min<uint64_t>(
        (window_ns + kBucketWidthNs - 1) / kBucketWidthNs, kBuckets);
    for (const Bucket& slot : ring_) {
        if (slot.epoch + span > now_epoch && slot.epoch <= now_epoch) {
            *good += slot.good;
            *bad += slot.bad;
        }
    }
}

double
SloMonitor::BurnLocked(uint64_t now_ns, uint64_t window_ns) const
{
    uint64_t good = 0;
    uint64_t bad = 0;
    SumWindowLocked(now_ns, window_ns, &good, &bad);
    const uint64_t total = good + bad;
    if (total == 0)
        return 0.0;
    const double bad_fraction =
        static_cast<double>(bad) / static_cast<double>(total);
    return bad_fraction / (1.0 - objective_);
}

double
SloMonitor::FastBurnRate(uint64_t now_ns) const
{
    if (now_ns == 0)
        now_ns = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    return BurnLocked(now_ns, kFastWindowNs);
}

double
SloMonitor::SlowBurnRate(uint64_t now_ns) const
{
    if (now_ns == 0)
        now_ns = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    return BurnLocked(now_ns, kSlowWindowNs);
}

bool
SloMonitor::Alerting() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return latch_.Firing();
}

void
SloMonitor::SetAlertSink(std::function<void(const AlarmEdge&)> sink)
{
    std::lock_guard<std::mutex> lock(mu_);
    latch_.SetSink(std::move(sink));
}

}  // namespace rumba::obs
