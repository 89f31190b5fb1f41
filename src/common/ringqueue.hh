/**
 * @file
 * RingQueue: a FIFO on a power-of-two ring buffer.
 *
 * The PE pipeline queues (input, fetch, output, I-structure) push at
 * the back and pop at the front, usually holding a handful of items —
 * exactly the access pattern std::deque serves with 512-byte chunk
 * allocations and pointer-chasing it doesn't need. The ring keeps the
 * live window contiguous (modulo one wrap), so the hot push/pop pair
 * is an index increment and a mask, with no allocation at steady
 * state.
 *
 * Capacity grows geometrically when full (unbounded queues are a
 * documented machine idealization), relocating the live window to the
 * front of the new buffer. A queue built with capacity 0 holds no
 * storage until its first push, for tables of mostly unused queues.
 * Elements must be movable; moves are used for growth and pop.
 */

#ifndef TTDA_COMMON_RINGQUEUE_HH
#define TTDA_COMMON_RINGQUEUE_HH

#include <cstddef>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/logging.hh"

namespace sim
{

/** Growable single-ended FIFO over a power-of-two ring. */
template <typename T>
class RingQueue
{
  public:
    /** @param initial_capacity rounded up to a power of two (min 4),
     *  or 0 to allocate on the first push. */
    explicit RingQueue(std::size_t initial_capacity = 8)
    {
        if (initial_capacity == 0)
            return;
        std::size_t cap = 4;
        while (cap < initial_capacity)
            cap <<= 1;
        buf_.resize(cap);
    }

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }
    std::size_t capacity() const { return buf_.size(); }

    T &
    front()
    {
        SIM_ASSERT_MSG(size_ > 0, "front() on an empty RingQueue");
        return buf_[head_];
    }

    const T &
    front() const
    {
        SIM_ASSERT_MSG(size_ > 0, "front() on an empty RingQueue");
        return buf_[head_];
    }

    void
    push_back(T v)
    {
        if (size_ == buf_.size())
            grow();
        buf_[(head_ + size_) & (buf_.size() - 1)] = std::move(v);
        ++size_;
    }

    void
    pop_front()
    {
        SIM_ASSERT_MSG(size_ > 0, "pop_front() on an empty RingQueue");
        if constexpr (!std::is_trivially_destructible_v<T>)
            buf_[head_] = T{}; // release held resources promptly
        head_ = (head_ + 1) & (buf_.size() - 1);
        --size_;
    }

    void
    clear()
    {
        while (size_ > 0)
            pop_front();
        head_ = 0;
    }

    /** Element `i` positions behind the front (0 == front). */
    T &
    at(std::size_t i)
    {
        SIM_ASSERT_MSG(i < size_, "RingQueue::at({}) with size {}", i,
                       size_);
        return buf_[(head_ + i) & (buf_.size() - 1)];
    }

    const T &
    at(std::size_t i) const
    {
        return const_cast<RingQueue *>(this)->at(i);
    }

  private:
    void
    grow()
    {
        std::vector<T> next(buf_.empty() ? 4 : buf_.size() * 2);
        for (std::size_t i = 0; i < size_; ++i)
            next[i] = std::move(buf_[(head_ + i) & (buf_.size() - 1)]);
        buf_ = std::move(next);
        head_ = 0;
    }

    std::vector<T> buf_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace sim

#endif // TTDA_COMMON_RINGQUEUE_HH
