/**
 * @file
 * EventHeap unit tests: min-key pop order, FIFO among equal keys
 * (the property that makes it a drop-in for std::multimap in the
 * deterministic engine), and a randomized differential check.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <random>
#include <utility>

#include "common/eventheap.hh"

namespace
{

TEST(EventHeap, PopsInKeyOrder)
{
    sim::EventHeap<int> h;
    h.push(30, 3);
    h.push(10, 1);
    h.push(20, 2);
    EXPECT_EQ(h.size(), 3u);
    EXPECT_EQ(h.minKey(), 10u);
    EXPECT_EQ(h.pop(), 1);
    EXPECT_EQ(h.minKey(), 20u);
    EXPECT_EQ(h.pop(), 2);
    EXPECT_EQ(h.pop(), 3);
    EXPECT_TRUE(h.empty());
}

TEST(EventHeap, EqualKeysPopInInsertionOrder)
{
    // The machines' determinism depends on this: events scheduled
    // for the same cycle must drain in the order they were
    // scheduled, exactly as a std::multimap iterates them.
    sim::EventHeap<int> h;
    for (int i = 0; i < 100; ++i)
        h.push(5, i);
    h.push(1, -1);
    EXPECT_EQ(h.pop(), -1);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(h.pop(), i) << "FIFO violated among equal keys";
}

TEST(EventHeap, TopPeeksWithoutRemoving)
{
    sim::EventHeap<int> h;
    h.push(7, 42);
    EXPECT_EQ(h.top(), 42);
    EXPECT_EQ(h.size(), 1u);
    EXPECT_EQ(h.pop(), 42);
}

TEST(EventHeap, ClearResets)
{
    sim::EventHeap<int> h;
    h.push(1, 1);
    h.push(2, 2);
    h.clear();
    EXPECT_TRUE(h.empty());
    h.push(9, 9);
    EXPECT_EQ(h.minKey(), 9u);
    EXPECT_EQ(h.pop(), 9);
}

TEST(EventHeap, DifferentialAgainstMultimap)
{
    sim::EventHeap<std::uint64_t> h;
    std::multimap<sim::Cycle, std::uint64_t> ref;
    std::mt19937_64 rng(999);
    std::uint64_t nextVal = 0;
    for (int op = 0; op < 10000; ++op) {
        if (ref.empty() || rng() % 3 != 0) {
            const sim::Cycle key = rng() % 64; // heavy key collisions
            h.push(key, nextVal);
            ref.emplace(key, nextVal);
            ++nextVal;
        } else {
            ASSERT_EQ(h.minKey(), ref.begin()->first);
            ASSERT_EQ(h.pop(), ref.begin()->second)
                << "heap and multimap diverged at op " << op;
            ref.erase(ref.begin());
        }
        ASSERT_EQ(h.size(), ref.size());
    }
    while (!ref.empty()) {
        ASSERT_EQ(h.pop(), ref.begin()->second);
        ref.erase(ref.begin());
    }
    EXPECT_TRUE(h.empty());
}

} // namespace
