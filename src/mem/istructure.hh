/**
 * @file
 * I-Structure Storage (paper Section 2.1, Figure 2-1).
 *
 * Each memory cell carries presence bits with three states:
 *
 *   Empty    — never written; a read must wait.
 *   Deferred — unwritten, and one or more read requests are queued on
 *              the cell's deferred-read list.
 *   Present  — written; reads are satisfied immediately.
 *
 * A read of an Empty/Deferred cell is *put aside* on the deferred list
 * (the paper's key difference from the HEP's busy-waiting full/empty
 * bits). The matching write forwards the datum to every deferred reader
 * as well as storing it. A second write to the same cell violates the
 * single-assignment discipline and is reported, not silently applied.
 *
 * Two layers are provided:
 *  - IStructure<Cont>:          the functional storage itself;
 *  - IStructureController<Cont>: a cycle-timed controller in front of
 *    it, with the paper's cost model (a read is as efficient as an
 *    ordinary memory read; a write takes twice as long because the
 *    presence bits are examined first).
 *
 * Cont is the requester continuation — for the TTDA it is the
 * destination instruction's tag; tests use simple integers.
 */

#ifndef TTDA_MEM_ISTRUCTURE_HH
#define TTDA_MEM_ISTRUCTURE_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/ringqueue.hh"
#include "common/state.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "mem/word.hh"

namespace mem
{

/** Presence-bit state of an I-structure cell. */
enum class Presence : std::uint8_t { Empty, Deferred, Present };

/** Statistics for one I-structure storage unit. */
struct IStructureStats
{
    sim::Counter fetches;          //!< read requests received
    sim::Counter fetchesDeferred;  //!< reads that had to wait
    sim::Counter stores;           //!< write requests received
    sim::Counter deferredServed;   //!< deferred reads satisfied by writes
    sim::Counter multipleWrites;   //!< single-assignment violations
    sim::Accumulator deferredListLen; //!< list length sampled at writes

    template <class V>
    void
    visitState(V &v)
    {
        v(fetches, fetchesDeferred, stores, deferredServed, multipleWrites,
          deferredListLen);
    }
};

/**
 * The storage proper: presence-bit cells plus deferred-read lists.
 */
template <typename Cont, typename ValueT = Word>
class IStructure
{
  public:
    using ValueType = ValueT;

    explicit IStructure(std::size_t words) : cells_(words) {}

    std::size_t size() const { return cells_.words; }

    /**
     * Allocate `n` fresh (Empty) words; returns the base address.
     * Allocation is a bump pointer — the paper's machine allocates
     * structure storage up front per code block invocation.
     */
    std::uint64_t
    allocate(std::size_t n)
    {
        const std::uint64_t base = allocPtr_;
        if (allocPtr_ + n > size())
            return ~std::uint64_t{0}; // out of storage; caller checks
        allocPtr_ += n;
        return base;
    }

    /** Remaining unallocated words. */
    std::size_t freeWords() const { return size() - allocPtr_; }

    /**
     * Process a read request for `addr` on behalf of continuation `c`.
     *
     * @param out  receives (continuation, value) for satisfied reads
     * @return true if satisfied now, false if deferred
     */
    bool
    fetch(std::uint64_t addr, Cont c,
          std::vector<std::pair<Cont, ValueT>> &out)
    {
        Cell &cell = cells_.at(addr);
        stats_.fetches.inc();
        if (cell.presence == Presence::Present) {
            out.emplace_back(std::move(c), cell.value);
            return true;
        }
        cell.presence = Presence::Deferred;
        cell.deferred.push_back(std::move(c));
        stats_.fetchesDeferred.inc();
        return false;
    }

    /**
     * Process a write of `value` to `addr`: store it, set the presence
     * bits, and forward the datum to every deferred reader.
     *
     * @param out  receives (continuation, value) for each deferred read
     * @return false if the cell was already written (single-assignment
     *         violation; the store is ignored)
     */
    bool
    store(std::uint64_t addr, ValueT value,
          std::vector<std::pair<Cont, ValueT>> &out)
    {
        Cell &cell = cells_.at(addr);
        stats_.stores.inc();
        if (cell.presence == Presence::Present) {
            stats_.multipleWrites.inc();
            return false;
        }
        stats_.deferredListLen.sample(
            static_cast<double>(cell.deferred.size()));
        cell.value = value;
        cell.presence = Presence::Present;
        for (auto &c : cell.deferred) {
            out.emplace_back(std::move(c), value);
            stats_.deferredServed.inc();
        }
        cell.deferred.clear();
        return true;
    }

    /** Presence state of a cell (for tests and controllers). */
    Presence
    presence(std::uint64_t addr) const
    {
        return cells_.at(addr).presence;
    }

    /** Value of a Present cell. */
    ValueT
    peek(std::uint64_t addr) const
    {
        return cells_.at(addr).value;
    }

    /** Reset a range back to Empty (storage reuse between runs). */
    void
    clear(std::uint64_t addr, std::size_t n)
    {
        SIM_ASSERT(addr + n <= size());
        std::uint64_t a = addr;
        const std::uint64_t end = addr + n;
        while (a < end) {
            if (!cells_.chunks[a / kChunkWords]) {
                // An unmaterialized chunk is already all-Empty.
                a = (a / kChunkWords + 1) * kChunkWords;
                continue;
            }
            sim::state::reset(cells_.at(a));
            ++a;
        }
    }

    /** Number of reads currently parked on deferred lists. */
    std::size_t
    outstandingReads() const
    {
        std::size_t n = 0;
        cells_.forEachLive([&n](std::uint64_t, const Cell &cell) {
            n += cell.deferred.size();
        });
        return n;
    }

    /** The continuations parked on one cell's deferred-read list
     *  (deadlock forensics: *who* is waiting, not just how many). */
    const std::vector<Cont> &
    deferredList(std::uint64_t addr) const
    {
        return cells_.at(addr).deferred;
    }

    /** Local addresses that still have parked readers (diagnosis of
     *  read-never-written deadlocks), capped at `limit` entries. */
    std::vector<std::uint64_t>
    deferredAddresses(std::size_t limit = 16) const
    {
        std::vector<std::uint64_t> out;
        cells_.forEachLive([&](std::uint64_t addr, const Cell &cell) {
            if (out.size() < limit && !cell.deferred.empty())
                out.push_back(addr);
        });
        return out;
    }

    const IStructureStats &stats() const { return stats_; }

    /** Run state: allocation pointer, statistics, and every cell with
     *  its deferred-read list. The loaded pointer is checked against
     *  the configured size (the bytes are untrusted). */
    template <class V>
    void
    visitState(V &v)
    {
        v(sim::state::bounded(allocPtr_, size(),
                              "i-structure allocation pointer beyond "
                              "size"),
          stats_, cells_);
    }

  private:
    struct Cell
    {
        Presence presence = Presence::Empty;
        ValueT value{};
        std::vector<Cont> deferred;

        template <class V>
        void
        visitState(V &v)
        {
            v(sim::state::bounded(presence, Presence::Present,
                                  "bad i-structure presence state"),
              value, deferred);
        }
    };

    /**
     * Cells live in fixed-size chunks materialized on first write-side
     * touch. The bump-pointer allocator means a run addresses only a
     * prefix of the configured words, so eagerly constructing (and
     * later destructing) every cell — each holding a deferred-list
     * vector — used to dominate Machine construction time. A null
     * chunk reads as all-Empty.
     */
    static constexpr std::size_t kChunkWords = 4096;

    /** The sparse cell array. Its checkpoint codec writes only the
     *  cells that differ from Empty, as (address, cell) pairs in
     *  ascending address order; loading validates every address and
     *  materializes only the chunks the stream touches.
     *
     *  Every cell at or above the high-water mark `touched` is Empty,
     *  so the walks (reset, parked-read counts, snapshots) stop there:
     *  they cost the prefix a run touched, not the materialized
     *  chunks. */
    struct CellStore
    {
        explicit CellStore(std::size_t n)
            : words(n), chunks((n + kChunkWords - 1) / kChunkWords)
        {
        }

        Cell &
        at(std::uint64_t addr)
        {
            SIM_ASSERT_MSG(addr < words,
                           "i-structure address {} beyond size {}",
                           addr, words);
            auto &chunk = chunks[addr / kChunkWords];
            if (!chunk)
                chunk = std::make_unique<Cell[]>(kChunkWords);
            touched = std::max(touched, addr + 1);
            return chunk[addr % kChunkWords];
        }

        const Cell &
        at(std::uint64_t addr) const
        {
            SIM_ASSERT_MSG(addr < words,
                           "i-structure address {} beyond size {}",
                           addr, words);
            const auto &chunk = chunks[addr / kChunkWords];
            if (!chunk) {
                static const Cell kEmpty{};
                return kEmpty;
            }
            return chunk[addr % kChunkWords];
        }

        /** Call f(addr, cell) on every materialized cell below the
         *  high-water mark, in ascending address order. */
        template <class Self, typename F>
        static void
        forEachTouched(Self &s, F &&f)
        {
            for (std::uint64_t addr = 0; addr < s.touched; ++addr) {
                auto &chunk = s.chunks[addr / kChunkWords];
                if (!chunk) {
                    addr = (addr / kChunkWords + 1) * kChunkWords - 1;
                    continue;
                }
                f(addr, chunk[addr % kChunkWords]);
            }
        }

        /** Visit every cell that differs from the default all-Empty
         *  state, in ascending address order. */
        template <typename F>
        void
        forEachLive(F &&f) const
        {
            forEachTouched(*this, [&f](std::uint64_t addr, const Cell &cell) {
                if (cell.presence != Presence::Empty ||
                    !cell.deferred.empty())
                    f(addr, cell);
            });
        }

        /** Every touched cell back to Empty, keeping the materialized
         *  chunks and each cell's deferred-list capacity: the serving
         *  fast path resets a machine between epochs, and
         *  re-materializing the chunks was exactly the construction
         *  cost chunking removed. */
        void
        reset()
        {
            forEachTouched(*this, [](std::uint64_t, Cell &cell) {
                sim::state::reset(cell);
            });
            touched = 0;
        }

        template <class W>
        friend void
        snapSave(W &w, const CellStore &s)
        {
            std::uint64_t live = 0;
            s.forEachLive([&live](std::uint64_t, const Cell &) { ++live; });
            w.u64(live);
            s.forEachLive([&w](std::uint64_t addr, const Cell &cell) {
                w.u64(addr);
                sim::state::save(w, cell);
            });
        }

        template <class R>
        friend void
        snapLoad(R &r, CellStore &s)
        {
            s.reset();
            const std::uint64_t live = r.u64();
            for (std::uint64_t i = 0; i < live; ++i) {
                const std::uint64_t addr = r.u64();
                if (addr >= s.words)
                    r.fail("i-structure cell address out of range");
                sim::state::load(r, s.at(addr));
            }
        }

        std::size_t words;
        std::vector<std::unique_ptr<Cell[]>> chunks;
        std::uint64_t touched = 0; //!< 1 + highest address written
    };

    CellStore cells_;
    std::uint64_t allocPtr_ = 0;
    IStructureStats stats_;
};

/** A request presented to an I-structure controller. */
template <typename Cont, typename ValueT = Word>
struct IStructureRequest
{
    enum class Kind : std::uint8_t { Fetch, Store };

    Kind kind = Kind::Fetch;
    std::uint64_t addr = 0;
    ValueT value{};  //!< stores only
    Cont cont{};     //!< fetches only: where the datum must go
};

/**
 * Cycle-timed controller in front of an IStructure.
 *
 * Service costs model the paper's analysis: a read occupies the
 * controller for `readCost` cycles (default 1, "as efficient as in a
 * traditional memory"), a write for `writeCost` cycles (default 2,
 * "twice as long, due to the prefetching of presence bits").
 */
template <typename Cont, typename ValueT = Word>
class IStructureController
{
  public:
    using Request = IStructureRequest<Cont, ValueT>;

    IStructureController(std::size_t words, sim::Cycle read_cost = 1,
                         sim::Cycle write_cost = 2)
        : storage_(words), readCost_(read_cost), writeCost_(write_cost)
    {
        SIM_ASSERT(read_cost >= 1 && write_cost >= 1);
    }

    IStructure<Cont, ValueT> &storage() { return storage_; }
    const IStructure<Cont, ValueT> &storage() const { return storage_; }

    /**
     * Treat a repeated store of the *same value* into a Present cell as
     * a deduplicated retransmission rather than a single-assignment
     * violation. Lossy fabrics (sim::fault) can duplicate packets, so a
     * machine running under fault injection turns this on; the store is
     * absorbed (it still occupies the controller for writeCost cycles)
     * and counted in dupStores() instead of multipleWrites.
     */
    void enableDedup() { dedup_ = true; }

    /** Duplicate stores absorbed since construction (dedup mode). */
    std::uint64_t dupStores() const { return dupStores_.value(); }

    void
    request(Request req)
    {
        queue_.push_back(std::move(req));
    }

    /** Advance one cycle; satisfied reads appear via pollResponse(). */
    void
    step(sim::Cycle)
    {
        if (busy_ > 0) {
            --busy_;
            return;
        }
        if (queue_.empty())
            return;
        Request req = std::move(queue_.front());
        queue_.pop_front();
        std::vector<std::pair<Cont, ValueT>> out;
        if (req.kind == Request::Kind::Fetch) {
            storage_.fetch(req.addr, std::move(req.cont), out);
            busy_ = readCost_ - 1;
        } else if (dedup_ &&
                   storage_.presence(req.addr) == Presence::Present &&
                   storage_.peek(req.addr) == req.value) {
            dupStores_.inc();
            busy_ = writeCost_ - 1;
        } else {
            storage_.store(req.addr, req.value, out);
            busy_ = writeCost_ - 1;
        }
        for (auto &p : out)
            responses_.push_back(std::move(p));
    }

    std::optional<std::pair<Cont, ValueT>>
    pollResponse()
    {
        if (responses_.empty())
            return std::nullopt;
        auto r = std::move(responses_.front());
        responses_.pop_front();
        return r;
    }

    /** Idle means no queued work; deferred reads may still be parked
     *  in the storage awaiting their writes. */
    bool
    idle() const
    {
        return busy_ == 0 && queue_.empty() && responses_.empty();
    }

  private:
    IStructure<Cont, ValueT> storage_;
    sim::Cycle readCost_;
    sim::Cycle writeCost_;
    sim::Cycle busy_ = 0;
    bool dedup_ = false;
    sim::Counter dupStores_;
    sim::RingQueue<Request> queue_;
    sim::RingQueue<std::pair<Cont, ValueT>> responses_;
};

} // namespace mem

#endif // TTDA_MEM_ISTRUCTURE_HH
