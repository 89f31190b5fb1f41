/**
 * @file
 * RingQueue unit tests: FIFO order through wrap-around, geometric
 * growth relocating a wrapped window, prompt release of popped
 * elements, and the at() inspection accessor.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/ringqueue.hh"

namespace
{

TEST(RingQueue, StartsEmptyWithPow2Capacity)
{
    sim::RingQueue<int> q;
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.size(), 0u);
    EXPECT_EQ(q.capacity(), 8u);

    sim::RingQueue<int> tiny(1);
    EXPECT_EQ(tiny.capacity(), 4u); // floor
    sim::RingQueue<int> odd(9);
    EXPECT_EQ(odd.capacity(), 16u); // round up to pow2
}

TEST(RingQueue, ZeroCapacityAllocatesOnFirstPush)
{
    sim::RingQueue<int> q(0);
    EXPECT_EQ(q.capacity(), 0u);
    q.clear();
    EXPECT_EQ(q.capacity(), 0u);
    for (int i = 0; i < 5; ++i)
        q.push_back(i);
    EXPECT_EQ(q.capacity(), 8u);
    q.at(2) = 20;
    for (const int want : {0, 1, 20, 3, 4}) {
        EXPECT_EQ(q.front(), want);
        q.pop_front();
    }
}

TEST(RingQueue, FifoOrder)
{
    sim::RingQueue<int> q;
    for (int i = 0; i < 5; ++i)
        q.push_back(i);
    EXPECT_EQ(q.size(), 5u);
    for (int i = 0; i < 5; ++i) {
        EXPECT_EQ(q.front(), i);
        q.pop_front();
    }
    EXPECT_TRUE(q.empty());
}

TEST(RingQueue, WrapAroundKeepsOrder)
{
    // Interleave pushes and pops so the live window crosses the ring
    // boundary many times without ever growing.
    sim::RingQueue<int> q(4);
    int next_push = 0, next_pop = 0;
    for (int round = 0; round < 100; ++round) {
        while (q.size() < 3)
            q.push_back(next_push++);
        while (q.size() > 1) {
            EXPECT_EQ(q.front(), next_pop++);
            q.pop_front();
        }
    }
    EXPECT_EQ(q.capacity(), 4u) << "should never have grown";
    while (!q.empty()) {
        EXPECT_EQ(q.front(), next_pop++);
        q.pop_front();
    }
    EXPECT_EQ(next_pop, next_push);
}

TEST(RingQueue, GrowthRelocatesWrappedWindow)
{
    sim::RingQueue<int> q(4);
    // Force the window to wrap: advance head by 3, then fill.
    for (int i = 0; i < 3; ++i)
        q.push_back(-1);
    for (int i = 0; i < 3; ++i)
        q.pop_front();
    for (int i = 0; i < 10; ++i) // grows 4 -> 8 -> 16 mid-stream
        q.push_back(i);
    EXPECT_EQ(q.capacity(), 16u);
    EXPECT_EQ(q.size(), 10u);
    for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(q.front(), i);
        q.pop_front();
    }
}

TEST(RingQueue, GrowthAtExactCapacityWithWrappedHead)
{
    // The worst-case growth trigger: the push that finds size ==
    // capacity while the window is wrapped at every possible head
    // offset. The relocated window must preserve FIFO order and the
    // vacated ring must keep working through further churn.
    for (std::size_t headOff = 0; headOff < 4; ++headOff) {
        sim::RingQueue<int> q(4);
        for (std::size_t i = 0; i < headOff; ++i) {
            q.push_back(-1);
            q.pop_front();
        }
        for (int i = 0; i < 4; ++i)
            q.push_back(i); // exactly full, window wraps for headOff>0
        EXPECT_EQ(q.size(), q.capacity());
        q.push_back(4); // the growing push
        EXPECT_EQ(q.capacity(), 8u);
        for (int i = 0; i < 5; ++i) {
            EXPECT_EQ(q.front(), i) << "headOff=" << headOff;
            q.pop_front();
            q.push_back(100 + i); // churn across the new boundary
        }
        for (int i = 0; i < 5; ++i) {
            EXPECT_EQ(q.front(), 100 + i) << "headOff=" << headOff;
            q.pop_front();
        }
        EXPECT_TRUE(q.empty());
    }
}

TEST(RingQueue, AtIndexesFromFront)
{
    sim::RingQueue<int> q(4);
    for (int i = 0; i < 3; ++i)
        q.push_back(i + 10);
    q.pop_front(); // head now mid-ring
    q.push_back(13);
    q.push_back(14); // wrapped
    for (std::size_t i = 0; i < q.size(); ++i)
        EXPECT_EQ(q.at(i), static_cast<int>(i) + 11);
}

TEST(RingQueue, PopReleasesHeldResources)
{
    // pop_front must drop the element's resources immediately, not
    // when the slot is eventually overwritten.
    auto held = std::make_shared<int>(42);
    std::weak_ptr<int> watch = held;
    sim::RingQueue<std::shared_ptr<int>> q;
    q.push_back(std::move(held));
    EXPECT_FALSE(watch.expired());
    q.pop_front();
    EXPECT_TRUE(watch.expired());
}

TEST(RingQueue, MoveOnlyElements)
{
    sim::RingQueue<std::unique_ptr<std::string>> q(4);
    for (int i = 0; i < 9; ++i) // forces growth with move-only T
        q.push_back(std::make_unique<std::string>(std::to_string(i)));
    for (int i = 0; i < 9; ++i) {
        ASSERT_TRUE(q.front());
        EXPECT_EQ(*q.front(), std::to_string(i));
        q.pop_front();
    }
}

TEST(RingQueue, ClearResets)
{
    sim::RingQueue<int> q(4);
    for (int i = 0; i < 7; ++i)
        q.push_back(i);
    q.clear();
    EXPECT_TRUE(q.empty());
    q.push_back(99);
    EXPECT_EQ(q.front(), 99);
}

} // namespace
