#include "obs/trace.h"

#include "common/logging.h"

namespace rumba::obs {

TraceRing::TraceRing(size_t capacity) : ring_(capacity)
{
    RUMBA_CHECK(capacity > 0);
}

void
TraceRing::Start()
{
    std::lock_guard<std::mutex> lock(mu_);
    enabled_ = true;
}

void
TraceRing::Stop()
{
    std::lock_guard<std::mutex> lock(mu_);
    enabled_ = false;
}

bool
TraceRing::Enabled() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return enabled_;
}

void
TraceRing::Record(const TraceEvent& event)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (!enabled_)
        return;
    TraceEvent stamped = event;
    stamped.sequence = ring_.Pushed();
    ring_.Push(stamped);
}

bool
TraceRing::Latest(TraceEvent* event) const
{
    RUMBA_CHECK(event != nullptr);
    std::lock_guard<std::mutex> lock(mu_);
    if (ring_.Empty())
        return false;
    *event = ring_.Newest();
    return true;
}

std::vector<TraceEvent>
TraceRing::Dump() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return ring_.Snapshot();
}

uint64_t
TraceRing::TotalRecorded() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return ring_.Pushed();
}

uint64_t
TraceRing::Dropped() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return ring_.Pushed() - ring_.Size();
}

size_t
TraceRing::Size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return ring_.Size();
}

void
TraceRing::Clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    ring_.Clear();
}

TraceRing&
TraceRing::Default()
{
    static TraceRing ring(kDefaultRingCapacity);
    return ring;
}

}  // namespace rumba::obs
