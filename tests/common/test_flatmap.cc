/**
 * @file
 * FlatHashMap unit tests: linear-probe correctness under forced
 * collisions, backward-shift deletion leaving probe paths intact,
 * the growth rule and every entry surviving growth, and a randomized
 * differential check against std::unordered_map.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <unordered_map>
#include <vector>

#include "common/flatmap.hh"

namespace
{

/** All keys land on the same home slot: every probe is a full-cluster
 *  walk, every erase a backward shift through the whole cluster. */
struct ConstantHash
{
    std::size_t operator()(std::uint64_t) const { return 7; }
};

struct IdentityHash
{
    std::size_t
    operator()(std::uint64_t k) const
    {
        return static_cast<std::size_t>(k);
    }
};

TEST(FlatHashMap, InsertFindEraseBasics)
{
    sim::FlatHashMap<std::uint64_t, int, IdentityHash> m;
    EXPECT_TRUE(m.empty());
    auto [v, inserted] = m.insert(42);
    EXPECT_TRUE(inserted);
    *v = 7;
    auto [v2, inserted2] = m.insert(42);
    EXPECT_FALSE(inserted2);
    EXPECT_EQ(*v2, 7);
    EXPECT_EQ(m.size(), 1u);
    ASSERT_NE(m.find(42), nullptr);
    EXPECT_EQ(*m.find(42), 7);
    EXPECT_EQ(m.find(43), nullptr);
    EXPECT_TRUE(m.erase(42));
    EXPECT_FALSE(m.erase(42));
    EXPECT_TRUE(m.empty());
}

TEST(FlatHashMap, AllKeysColliding)
{
    // Every key probes the same cluster; order of insertion and
    // erasure must not lose or duplicate entries.
    sim::FlatHashMap<std::uint64_t, std::uint64_t, ConstantHash> m(8);
    for (std::uint64_t k = 0; k < 64; ++k)
        *m.insert(k).first = k * 10;
    EXPECT_EQ(m.size(), 64u);
    for (std::uint64_t k = 0; k < 64; ++k) {
        ASSERT_NE(m.find(k), nullptr) << "k=" << k;
        EXPECT_EQ(*m.find(k), k * 10);
    }
    // Erase every other key, then re-verify the survivors.
    for (std::uint64_t k = 0; k < 64; k += 2)
        EXPECT_TRUE(m.erase(k));
    EXPECT_EQ(m.size(), 32u);
    for (std::uint64_t k = 0; k < 64; ++k) {
        if (k % 2 == 0)
            EXPECT_EQ(m.find(k), nullptr) << "k=" << k;
        else
            ASSERT_NE(m.find(k), nullptr) << "k=" << k;
    }
}

TEST(FlatHashMap, BackwardShiftPreservesProbePaths)
{
    // Build a wrapped cluster (keys homing near the top of the table)
    // and erase from the middle: the shifted survivors must all stay
    // findable. IdentityHash + capacity 8 gives full control of homes.
    sim::FlatHashMap<std::uint64_t, int, IdentityHash> m(8);
    // Homes: 6,6,6,7,0 -> occupy slots 6,7,0,1,2 (wrapping).
    for (std::uint64_t k : {6, 14, 22, 7, 8})
        *m.insert(k).first = static_cast<int>(k);
    EXPECT_TRUE(m.erase(14)); // middle of the wrapped cluster
    for (std::uint64_t k : {6, 22, 7, 8}) {
        ASSERT_NE(m.find(k), nullptr) << "k=" << k;
        EXPECT_EQ(*m.find(k), static_cast<int>(k));
    }
}

TEST(FlatHashMap, GrowthKeepsEverythingVisible)
{
    sim::FlatHashMap<std::uint64_t, std::uint64_t, IdentityHash> m(8);
    for (std::uint64_t k = 0; k < 4096; ++k) {
        *m.insert(k).first = k;
        // Every prior key stays reachable across each growth
        // (spot-check a stride to keep the test fast).
        for (std::uint64_t j = k % 7; j <= k; j += 97) {
            ASSERT_NE(m.find(j), nullptr)
                << "lost key " << j << " after inserting " << k;
        }
    }
    EXPECT_EQ(m.capacity(), 8192u) << "4096 entries at <= 3/4 load";
    EXPECT_EQ(m.size(), 4096u);
    std::uint64_t sum = 0, count = 0;
    m.forEach([&](const std::uint64_t &k, std::uint64_t &v) {
        EXPECT_EQ(k, v);
        sum += v;
        ++count;
    });
    EXPECT_EQ(count, 4096u);
    EXPECT_EQ(sum, 4096u * 4095u / 2);
}

TEST(FlatHashMap, EraseRightAfterGrowth)
{
    sim::FlatHashMap<std::uint64_t, int, IdentityHash> m(8);
    // Push just past a growth threshold, then erase every key from
    // the re-placed table.
    std::uint64_t k = 0;
    while (m.capacity() == 8)
        *m.insert(k++).first = 1;
    const std::uint64_t n = k;
    for (std::uint64_t j = 0; j < n; ++j)
        EXPECT_TRUE(m.erase(j)) << "j=" << j;
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.capacity(), 16u) << "one table, and erase never shrinks it";
}

TEST(FlatHashMap, InsertEraseReinsertCyclingStaysBounded)
{
    // The WM store's steady state: a working set of W entries churned
    // through many insert/erase/reinsert cycles. Tombstone-free
    // deletion means capacity must stabilize, not creep.
    sim::FlatHashMap<std::uint64_t, std::uint64_t, IdentityHash> m;
    constexpr std::uint64_t kWindow = 100;
    for (std::uint64_t k = 0; k < kWindow; ++k)
        *m.insert(k).first = k;
    // The fill grew the table in one pass each time; the capacity it
    // reached is the steady state.
    const std::size_t steadyCap = m.capacity();
    EXPECT_EQ(steadyCap, 256u) << "100 entries at <= 3/4 load";
    std::uint64_t round = 1;
    auto churn = [&] {
        const std::uint64_t base = round * kWindow;
        for (std::uint64_t k = 0; k < kWindow; ++k) {
            EXPECT_TRUE(m.erase(base - kWindow + k));
            *m.insert(base + k).first = k;
        }
        EXPECT_EQ(m.size(), kWindow);
        ++round;
    };
    for (int i = 0; i < 200; ++i)
        churn();
    EXPECT_EQ(m.capacity(), steadyCap)
        << "capacity crept under steady-state cycling";
}

TEST(FlatHashMap, DoublesOnTheInsertThatWouldPassThreeQuartersLoad)
{
    sim::FlatHashMap<std::uint64_t, int, IdentityHash> m(8);
    std::uint64_t k = 0;
    for (std::size_t cap = 8; cap <= 1024; cap *= 2) {
        // Up to exactly 3/4 load the table keeps its capacity.
        while (m.size() < cap * 3 / 4) {
            *m.insert(k++).first = 1;
            ASSERT_EQ(m.capacity(), cap) << "size " << m.size();
        }
        // The next insert would pass 3/4: the table doubles on it,
        // every entry still there.
        *m.insert(k++).first = 1;
        ASSERT_EQ(m.capacity(), 2 * cap) << "size " << m.size();
        for (std::uint64_t j = 0; j < k; ++j)
            ASSERT_NE(m.find(j), nullptr) << "j=" << j;
    }
    // At 3/4 load an insert that finds its key doubles the table too.
    while (m.size() < m.capacity() * 3 / 4)
        *m.insert(k++).first = 1;
    const std::size_t full = m.capacity();
    EXPECT_FALSE(m.insert(0).second);
    EXPECT_EQ(m.capacity(), 2 * full);
    // clear() keeps the capacity and forgets every key.
    const std::size_t cap = m.capacity();
    m.clear();
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.capacity(), cap);
    const auto &cm = m;
    for (std::uint64_t j = 0; j < k; ++j)
        ASSERT_EQ(cm.find(j), nullptr) << "j=" << j;
}

TEST(FlatHashMap, DifferentialAgainstUnorderedMap)
{
    sim::FlatHashMap<std::uint64_t, std::uint64_t, IdentityHash> m(8);
    std::unordered_map<std::uint64_t, std::uint64_t> ref;
    std::mt19937_64 rng(12345);
    for (int op = 0; op < 20000; ++op) {
        const std::uint64_t key = rng() % 512; // dense: lots of hits
        switch (rng() % 3) {
          case 0: {
            auto [v, inserted] = m.insert(key);
            auto [it, refInserted] = ref.try_emplace(key, 0);
            EXPECT_EQ(inserted, refInserted);
            if (inserted)
                *v = it->second = rng();
            else
                EXPECT_EQ(*v, it->second);
            break;
          }
          case 1: {
            auto *v = m.find(key);
            auto it = ref.find(key);
            if (it == ref.end()) {
                EXPECT_EQ(v, nullptr);
            } else {
                ASSERT_NE(v, nullptr);
                EXPECT_EQ(*v, it->second);
            }
            break;
          }
          default:
            EXPECT_EQ(m.erase(key), ref.erase(key) == 1);
            break;
        }
        EXPECT_EQ(m.size(), ref.size());
    }
    std::size_t visited = 0;
    m.forEach([&](const std::uint64_t &k, std::uint64_t &v) {
        auto it = ref.find(k);
        ASSERT_NE(it, ref.end());
        EXPECT_EQ(v, it->second);
        ++visited;
    });
    EXPECT_EQ(visited, ref.size());
}

TEST(FlatHashMap, ClearResets)
{
    sim::FlatHashMap<std::uint64_t, int, IdentityHash> m(8);
    for (std::uint64_t k = 0; k < 100; ++k)
        *m.insert(k).first = 1;
    const std::size_t cap = m.capacity();
    m.clear();
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.capacity(), cap);
    EXPECT_EQ(m.find(5), nullptr);
    *m.insert(5).first = 9;
    EXPECT_EQ(*m.find(5), 9);
}

} // namespace
