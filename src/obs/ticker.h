#ifndef RUMBA_OBS_TICKER_H_
#define RUMBA_OBS_TICKER_H_

/**
 * @file
 * The background-thread lifecycle under the process's periodic
 * sampler; the registry sampler (obs/tsdb.h) is its one client. A
 * Ticker runs its tick function once per period on its own thread,
 * waiting first (an acquire shorter than one period costs exactly one
 * tick) and ticking a final time on stop.
 * Periods are held in nanoseconds and clamped to
 * [kMinTickNs, kMaxTickNs]; a period <= 0 means off: no thread.
 * Acquire()/Release() refcount the thread across the engines and
 * runtimes that share one sampler.
 */

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>

namespace rumba::obs {

inline constexpr int64_t kMinTickNs = 1'000'000;       ///< 1 ms.
inline constexpr int64_t kMaxTickNs = 60'000'000'000;  ///< 60 s.

class Ticker {
  public:
    /** @p tick runs on the ticker thread; its argument is true on the
     *  final tick, the one Stop() asks for. */
    explicit Ticker(std::function<void(bool final)> tick);
    ~Ticker();

    Ticker(const Ticker&) = delete;
    Ticker& operator=(const Ticker&) = delete;

    /** Run @p setup, then tick every @p period_ns (clamped). False,
     *  and no setup, when @p period_ns <= 0 or already running. */
    bool Start(int64_t period_ns, const std::function<void()>& setup);

    /** Wake the thread, let it run its final tick, and join it.
     *  Idempotent. */
    void Stop();

    /** Take a reference; the first one runs @p start, which may
     *  Start() the ticker or leave it off (the count still tracks). */
    void Acquire(const std::function<void()>& start);

    /** Drop a reference; the last one Stop()s the ticker. */
    void Release();

    bool Running() const;
    uint64_t Ticks() const;  ///< ticks since Start(), final included.

  private:
    void Loop();

    const std::function<void(bool)> tick_;
    /** Serializes Start/Stop/Acquire/Release and is held across the
     *  join; recursive so Acquire's @p start may Start(). */
    std::recursive_mutex lifecycle_mu_;
    int refs_ = 0;
    /** Guards the loop state below; never held while ticking. */
    mutable std::mutex mu_;
    std::condition_variable cv_;
    bool running_ = false;
    bool stop_requested_ = false;
    int64_t period_ns_ = 0;
    uint64_t ticks_ = 0;
    std::thread thread_;
};

}  // namespace rumba::obs

#endif  // RUMBA_OBS_TICKER_H_
