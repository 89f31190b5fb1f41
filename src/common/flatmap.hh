/**
 * @file
 * FlatHashMap: an open-addressing hash table on flat storage.
 *
 * Built for the waiting-matching store, the simulator's hottest
 * associative structure: token partners rendezvous by full tag, so
 * every token that is not monadic costs one probe (and half of them a
 * probe + erase). std::unordered_map serves that pattern with one
 * node allocation per entry and a pointer chase per probe; this table
 * keeps key/value pairs in a single power-of-two array and resolves
 * collisions by linear probing, so a probe is a masked index plus a
 * short contiguous scan.
 *
 * Deletion is tombstone-free: erasing an entry backward-shifts the
 * remainder of its probe cluster, so the table never degrades with
 * insert/erase cycling (the WM store's steady state) and never needs
 * a cleanup rehash.
 *
 * Growth is one pass: an insert that finds the table at 3/4 load
 * doubles it and re-places every entry. The simulator times
 * whole runs, never single operations, and the WM store grows rarely
 * (a few times per PE per run), so spreading the rehash over later
 * operations would only tax every probe.
 */

#ifndef TTDA_COMMON_FLATMAP_HH
#define TTDA_COMMON_FLATMAP_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace sim
{

/**
 * Open-addressing hash map: power-of-two capacity, linear probing,
 * backward-shift deletion, doubling at 3/4 load.
 *
 * Requirements: Key and Value default-constructible and movable; Key
 * equality-comparable; Hash stateless. Pointers returned by insert()
 * and find() stay valid until the next insert, erase or clear.
 */
template <typename Key, typename Value, typename Hash>
class FlatHashMap
{
  public:
    /** @param initial_capacity rounded up to a power of two (min 8). */
    explicit FlatHashMap(std::size_t initial_capacity = 16)
    {
        std::size_t cap = kMinCapacity;
        while (cap < initial_capacity)
            cap <<= 1;
        slots_.resize(cap);
        used_.resize(cap);
        mask_ = cap - 1;
    }

    std::size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }

    /** Slots allocated (diagnostics). */
    std::size_t capacity() const { return slots_.size(); }

    /**
     * Find `key`, default-constructing its value if absent —
     * std::unordered_map::try_emplace semantics. Returns the value
     * and whether it was inserted. An insert that finds the table at
     * 3/4 load doubles it first, even when `key` is present: waiting
     * for a new key would keep a store that hovers at the threshold
     * probing at 3/4 load, where linear-probe runs are longest.
     */
    std::pair<Value *, bool>
    insert(const Key &key)
    {
        if ((count_ + 1) * 4 > slots_.size() * 3)
            grow();
        const std::size_t i = slotFor(key, Hash{}(key));
        if (used_[i])
            return {&slots_[i].val, false};
        used_[i] = 1;
        slots_[i].key = key;
        ++count_;
        return {&slots_[i].val, true};
    }

    /** Pointer to the value mapped to `key`, or nullptr. */
    const Value *
    find(const Key &key) const
    {
        const std::size_t i = slotFor(key, Hash{}(key));
        return used_[i] ? &slots_[i].val : nullptr;
    }

    Value *
    find(const Key &key)
    {
        return const_cast<Value *>(std::as_const(*this).find(key));
    }

    /**
     * Erase `key`; returns whether it was present. Backward-shift
     * deletion: close the hole by shifting back every later cluster
     * member whose probe path crosses it, then clear the final vacated
     * slot. Leaves all probe paths intact with no tombstones.
     */
    bool
    erase(const Key &key)
    {
        std::size_t i = slotFor(key, Hash{}(key));
        if (!used_[i])
            return false;
        for (std::size_t j = (i + 1) & mask_; used_[j];
             j = (j + 1) & mask_) {
            const std::size_t home = Hash{}(slots_[j].key) & mask_;
            // Entry j may fill the hole iff the hole lies on its
            // probe path, i.e. home .. i .. j in cyclic probe order.
            if (((j - home) & mask_) >= ((j - i) & mask_)) {
                slots_[i] = std::move(slots_[j]);
                i = j;
            }
        }
        slots_[i] = Slot{};
        used_[i] = 0;
        --count_;
        return true;
    }

    /** Visit every entry as f(const Key &, Value &), in storage
     *  order. */
    template <typename F>
    void
    forEach(F &&f)
    {
        for (std::size_t i = 0; i < slots_.size(); ++i)
            if (used_[i])
                f(slots_[i].key, slots_[i].val);
    }

    template <typename F>
    void
    forEach(F &&f) const
    {
        for (std::size_t i = 0; i < slots_.size(); ++i)
            if (used_[i])
                f(slots_[i].key, slots_[i].val);
    }

    /** Remove every entry; the capacity stays. */
    void
    clear()
    {
        slots_.assign(slots_.size(), Slot{});
        used_.assign(used_.size(), 0);
        count_ = 0;
    }

  private:
    static constexpr std::size_t kMinCapacity = 8;

    struct Slot
    {
        Key key{};
        Value val{};
    };

    /** The slot holding `key`, or the free slot that ends its probe
     *  path (one exists: the load stays at most 3/4). */
    std::size_t
    slotFor(const Key &key, std::size_t h) const
    {
        std::size_t i = h & mask_;
        while (used_[i] && !(slots_[i].key == key))
            i = (i + 1) & mask_;
        return i;
    }

    /** Double the capacity and re-place every entry. */
    void
    grow()
    {
        std::vector<Slot> slots(slots_.size() * 2);
        std::vector<std::uint8_t> used(slots.size());
        const std::size_t mask = slots.size() - 1;
        for (std::size_t j = 0; j < slots_.size(); ++j) {
            if (!used_[j])
                continue;
            std::size_t i = Hash{}(slots_[j].key) & mask;
            while (used[i])
                i = (i + 1) & mask;
            used[i] = 1;
            slots[i] = std::move(slots_[j]);
        }
        slots_ = std::move(slots);
        used_ = std::move(used);
        mask_ = mask;
    }

    std::vector<Slot> slots_;
    std::vector<std::uint8_t> used_;
    std::size_t mask_ = 0;
    std::size_t count_ = 0;
};

} // namespace sim

#endif // TTDA_COMMON_FLATMAP_HH
