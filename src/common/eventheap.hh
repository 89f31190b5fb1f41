/**
 * @file
 * EventHeap: a flat binary min-heap of (cycle, payload) events with
 * FIFO tie-breaking.
 *
 * The network and memory models keep their in-flight packets in a
 * structure ordered by ready cycle, popped strictly in (cycle,
 * insertion-order) order. std::multimap provides exactly that order
 * but pays a node allocation and a red-black rebalance per packet —
 * on the simulator's hottest paths (every send, every delivery).
 * This heap keeps the events in one contiguous vector and breaks
 * cycle ties with a monotonic sequence number, so its pop order is
 * bit-identical to the multimap's (equal keys pop in insertion
 * order) while push/pop are allocation-free sift operations.
 */

#ifndef TTDA_COMMON_EVENTHEAP_HH
#define TTDA_COMMON_EVENTHEAP_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace sim
{

/** Min-heap of timestamped events; ties pop in insertion order. */
template <typename T>
class EventHeap
{
  public:
    bool empty() const { return heap_.empty(); }
    std::size_t size() const { return heap_.size(); }

    /** Ready cycle of the earliest event. */
    Cycle
    minKey() const
    {
        SIM_ASSERT_MSG(!heap_.empty(), "minKey() on an empty EventHeap");
        return heap_.front().key;
    }

    /** The earliest event's payload. */
    const T &
    top() const
    {
        SIM_ASSERT_MSG(!heap_.empty(), "top() on an empty EventHeap");
        return heap_.front().val;
    }

    void
    push(Cycle key, T val)
    {
        heap_.push_back(Node{key, nextSeq_++, std::move(val)});
        siftUp(heap_.size() - 1);
    }

    /** Remove and return the earliest event's payload. */
    T
    pop()
    {
        SIM_ASSERT_MSG(!heap_.empty(), "pop() on an empty EventHeap");
        T out = std::move(heap_.front().val);
        heap_.front() = std::move(heap_.back());
        heap_.pop_back();
        if (!heap_.empty())
            siftDown(0);
        return out;
    }

    void
    clear()
    {
        heap_.clear();
        nextSeq_ = 0;
    }

    /** Visit every node as (key, seq, value) in raw storage order —
     *  appending them back in the same order via restoreNode()
     *  reproduces the array (and thus the heap invariant and pop
     *  order) exactly. For checkpointing only. */
    template <typename F>
    void
    forEachNode(F &&f) const
    {
        for (const Node &n : heap_)
            f(n.key, n.seq, n.val);
    }

    /** Append a node verbatim at the end of the storage array.
     *  Only valid when replaying a forEachNode() dump in order onto a
     *  cleared heap; nodes arrive already heap-ordered. */
    void
    restoreNode(Cycle key, std::uint64_t seq, T val)
    {
        heap_.push_back(Node{key, seq, std::move(val)});
    }

    /** FIFO tie-break counter, part of the checkpointed state. */
    std::uint64_t nextSeq() const { return nextSeq_; }
    void setNextSeq(std::uint64_t s) { nextSeq_ = s; }

  private:
    struct Node
    {
        Cycle key = 0;
        std::uint64_t seq = 0; //!< monotonic: FIFO among equal keys
        T val{};

        bool
        before(const Node &o) const
        {
            return key != o.key ? key < o.key : seq < o.seq;
        }
    };

    void
    siftUp(std::size_t i)
    {
        while (i > 0) {
            const std::size_t parent = (i - 1) / 2;
            if (!heap_[i].before(heap_[parent]))
                break;
            std::swap(heap_[i], heap_[parent]);
            i = parent;
        }
    }

    void
    siftDown(std::size_t i)
    {
        const std::size_t n = heap_.size();
        for (;;) {
            std::size_t best = i;
            const std::size_t l = 2 * i + 1, r = 2 * i + 2;
            if (l < n && heap_[l].before(heap_[best]))
                best = l;
            if (r < n && heap_[r].before(heap_[best]))
                best = r;
            if (best == i)
                return;
            std::swap(heap_[i], heap_[best]);
            i = best;
        }
    }

    std::vector<Node> heap_;
    std::uint64_t nextSeq_ = 0;
};

} // namespace sim

#endif // TTDA_COMMON_EVENTHEAP_HH
