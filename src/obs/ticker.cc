#include "obs/ticker.h"

#include <algorithm>
#include <chrono>
#include <utility>

namespace rumba::obs {

Ticker::Ticker(std::function<void(bool final)> tick)
    : tick_(std::move(tick))
{
}

Ticker::~Ticker()
{
    Stop();
}

bool
Ticker::Start(int64_t period_ns, const std::function<void()>& setup)
{
    std::lock_guard<std::recursive_mutex> lifecycle(lifecycle_mu_);
    if (period_ns <= 0 || Running())
        return false;
    setup();  // before the thread exists: no concurrent tick.
    std::lock_guard<std::mutex> lock(mu_);
    period_ns_ = std::clamp(period_ns, kMinTickNs, kMaxTickNs);
    ticks_ = 0;
    stop_requested_ = false;
    running_ = true;
    thread_ = std::thread(&Ticker::Loop, this);
    return true;
}

void
Ticker::Stop()
{
    std::lock_guard<std::recursive_mutex> lifecycle(lifecycle_mu_);
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (!running_)
            return;
        stop_requested_ = true;
    }
    cv_.notify_all();
    thread_.join();
    std::lock_guard<std::mutex> lock(mu_);
    running_ = false;
}

void
Ticker::Acquire(const std::function<void()>& start)
{
    std::lock_guard<std::recursive_mutex> lifecycle(lifecycle_mu_);
    if (refs_++ == 0)
        start();
}

void
Ticker::Release()
{
    std::lock_guard<std::recursive_mutex> lifecycle(lifecycle_mu_);
    if (refs_ > 0 && --refs_ == 0)
        Stop();
}

bool
Ticker::Running() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return running_;
}

uint64_t
Ticker::Ticks() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return ticks_;
}

int64_t
Ticker::PeriodNs() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return period_ns_;
}

void
Ticker::Loop()
{
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
        // Wait-first: a short-lived acquire (an engine created and
        // shut down inside one period, as the overhead bench does per
        // round) costs exactly one tick — the final one — instead of
        // a startup + shutdown pair.
        cv_.wait_for(lock, std::chrono::nanoseconds(period_ns_),
                     [this] { return stop_requested_; });
        const bool final = stop_requested_;
        lock.unlock();
        tick_(final);
        lock.lock();
        ++ticks_;
        if (final)
            return;
    }
}

}  // namespace rumba::obs
