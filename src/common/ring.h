#ifndef RUMBA_COMMON_RING_H_
#define RUMBA_COMMON_RING_H_

/**
 * @file
 * Fixed-capacity ring buffer: once full, every push overwrites the
 * oldest element. The one bounded-history primitive under the
 * invocation trace ring, the request-record rings, the audit result
 * ring, the tsdb series and the efficiency window. Not thread-safe;
 * owners guard it with their own lock.
 */

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace rumba {

template <typename T>
class Ring {
  public:
    /** @param capacity elements retained (at least 1). Storage is
     *  reserved up front, so pushes never allocate. */
    explicit Ring(size_t capacity)
        : capacity_(std::max<size_t>(1, capacity))
    {
        slots_.reserve(capacity_);
    }

    /** Append @p value, overwriting the oldest element when full. */
    void
    Push(T value)
    {
        ++pushed_;
        if (slots_.size() < capacity_) {
            slots_.push_back(std::move(value));
            return;
        }
        slots_[head_] = std::move(value);
        head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
    }

    /** Call @p visit on every retained element, oldest first. */
    template <typename Visit>
    void
    ForEach(Visit&& visit) const
    {
        for (size_t i = head_; i < slots_.size(); ++i)
            visit(slots_[i]);
        for (size_t i = 0; i < head_; ++i)
            visit(slots_[i]);
    }

    /** Retained elements, oldest first. */
    std::vector<T>
    Snapshot() const
    {
        std::vector<T> out;
        out.reserve(slots_.size());
        ForEach([&out](const T& value) { out.push_back(value); });
        return out;
    }

    /** The most recent push (the ring must not be empty). */
    const T&
    Newest() const
    {
        return slots_[(head_ == 0 ? slots_.size() : head_) - 1];
    }

    /** Retained elements in storage order, which is not age order
     *  once the ring has wrapped: for folds whose result must not
     *  depend on where the next write lands. */
    const std::vector<T>& Slots() const { return slots_; }

    size_t Size() const { return slots_.size(); }
    bool Empty() const { return slots_.empty(); }
    size_t Capacity() const { return capacity_; }

    /** Pushes since construction or Clear(), overwritten ones
     *  included. */
    uint64_t Pushed() const { return pushed_; }

    /** Drop every element and restart Pushed() at zero. */
    void
    Clear()
    {
        slots_.clear();
        head_ = 0;
        pushed_ = 0;
    }

  private:
    size_t capacity_;
    std::vector<T> slots_;
    size_t head_ = 0;  ///< oldest slot (and next write) once full.
    uint64_t pushed_ = 0;
};

}  // namespace rumba

#endif  // RUMBA_COMMON_RING_H_
