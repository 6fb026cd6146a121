#ifndef RUMBA_SERVE_QUEUE_H_
#define RUMBA_SERVE_QUEUE_H_

/**
 * @file
 * Bounded multi-producer/multi-consumer queue backing each serving
 * shard. The policy mirrors the accelerator's recovery queue
 * (core/recovery.h): a full queue *rejects* the push instead of
 * blocking the producer, so backpressure surfaces to the client as a
 * kResourceExhausted status, never as an unbounded stall. Consumers
 * block on a condition variable; Close() wakes them for shutdown.
 */

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <utility>

namespace rumba::serve {

/** Bounded MPMC queue with reject-on-full backpressure. */
template <typename T>
class BoundedQueue {
  public:
    explicit BoundedQueue(size_t capacity) : capacity_(capacity) {}

    BoundedQueue(const BoundedQueue&) = delete;
    BoundedQueue& operator=(const BoundedQueue&) = delete;

    /**
     * Enqueue @p item. @return false — leaving @p item untouched —
     * when the queue is full or closed; the caller converts that into
     * a rejection status.
     */
    bool
    TryPush(T& item)
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            if (closed_ || items_.size() >= capacity_)
                return false;
            items_.push_back(std::move(item));
        }
        cv_.notify_one();
        return true;
    }

    /**
     * Blocking pop: waits for an item (or for Close()). While paused,
     * consumers wait even if items are available — a test hook that
     * lets a producer fill the queue deterministically.
     * @return false when the queue is closed and empty (consumer
     * shutdown signal).
     */
    bool
    Pop(T* out)
    {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] {
            return (!paused_ && !items_.empty()) || closed_;
        });
        if (items_.empty())
            return false;
        *out = std::move(items_.front());
        items_.pop_front();
        return true;
    }

    /**
     * Close the queue and move every undelivered item into @p
     * leftovers (may be nullptr to discard). Pushes fail from here
     * on; blocked consumers wake and exit.
     */
    void
    Close(std::deque<T>* leftovers)
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            closed_ = true;
            if (leftovers != nullptr) {
                for (auto& item : items_)
                    leftovers->push_back(std::move(item));
            }
            items_.clear();
        }
        cv_.notify_all();
    }

    /** Pause/resume consumer pops (see Pop()). */
    void
    SetPaused(bool paused)
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            paused_ = paused;
        }
        cv_.notify_all();
    }

    /** Items currently queued (racy by nature; telemetry only). */
    size_t
    Size() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return items_.size();
    }

    size_t Capacity() const { return capacity_; }

  private:
    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::deque<T> items_;
    const size_t capacity_;
    bool closed_ = false;
    bool paused_ = false;
};

}  // namespace rumba::serve

#endif  // RUMBA_SERVE_QUEUE_H_
