/**
 * @file
 * WorkerPool unit tests: every shard runs exactly once per tick, the
 * barrier really is a barrier, exceptions propagate (lowest shard
 * wins), and the pool survives many reuse cycles and clean shutdown.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/parallel.hh"

namespace
{

TEST(WorkerPool, SingleThreadRunsInline)
{
    sim::WorkerPool pool(1);
    EXPECT_EQ(pool.size(), 1u);
    int runs = 0;
    pool.run([&](unsigned shard) {
        EXPECT_EQ(shard, 0u);
        ++runs;
    });
    EXPECT_EQ(runs, 1);
}

TEST(WorkerPool, EveryShardRunsExactlyOnce)
{
    constexpr unsigned kThreads = 4;
    sim::WorkerPool pool(kThreads);
    std::vector<std::atomic<int>> counts(kThreads);
    pool.run([&](unsigned shard) { counts[shard].fetch_add(1); });
    for (unsigned s = 0; s < kThreads; ++s)
        EXPECT_EQ(counts[s].load(), 1) << "shard " << s;
}

TEST(WorkerPool, RunIsABarrier)
{
    // After run() returns, every shard's side effects must be visible
    // to the caller — sum per-shard partial results serially.
    constexpr unsigned kThreads = 4;
    constexpr std::uint64_t kPerShard = 100000;
    sim::WorkerPool pool(kThreads);
    std::vector<std::uint64_t> partial(kThreads, 0);
    pool.run([&](unsigned shard) {
        std::uint64_t acc = 0;
        for (std::uint64_t i = 0; i < kPerShard; ++i)
            acc += i * (shard + 1);
        partial[shard] = acc;
    });
    std::uint64_t expect = 0;
    const std::uint64_t tri = kPerShard * (kPerShard - 1) / 2;
    for (unsigned s = 0; s < kThreads; ++s)
        expect += tri * (s + 1);
    EXPECT_EQ(std::accumulate(partial.begin(), partial.end(),
                              std::uint64_t{0}),
              expect);
}

TEST(WorkerPool, ReusableAcrossManyTicks)
{
    constexpr unsigned kThreads = 3;
    constexpr int kTicks = 2000;
    sim::WorkerPool pool(kThreads);
    std::vector<int> ticks(kThreads, 0);
    for (int t = 0; t < kTicks; ++t)
        pool.run([&](unsigned shard) { ++ticks[shard]; });
    for (unsigned s = 0; s < kThreads; ++s)
        EXPECT_EQ(ticks[s], kTicks) << "shard " << s;
}

TEST(WorkerPool, LowestShardExceptionWins)
{
    sim::WorkerPool pool(4);
    try {
        pool.run([](unsigned shard) {
            if (shard >= 1)
                throw std::runtime_error("shard " +
                                         std::to_string(shard));
        });
        FAIL() << "run() should have rethrown";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "shard 1");
    }
    // The pool must stay usable after a throwing tick.
    std::atomic<int> runs{0};
    pool.run([&](unsigned) { runs.fetch_add(1); });
    EXPECT_EQ(runs.load(), 4);
}

TEST(WorkerPool, CallerExceptionPropagates)
{
    sim::WorkerPool pool(2);
    EXPECT_THROW(pool.run([](unsigned shard) {
        if (shard == 0)
            throw std::logic_error("caller shard");
    }),
                 std::logic_error);
}

TEST(WorkerPool, DestructionJoinsCleanly)
{
    // Construct, use once, destroy — repeatedly. Leaked or wedged
    // workers would hang this test (ctest's timeout catches it).
    for (int i = 0; i < 20; ++i) {
        sim::WorkerPool pool(3);
        std::atomic<int> runs{0};
        pool.run([&](unsigned) { runs.fetch_add(1); });
        EXPECT_EQ(runs.load(), 3);
    }
}

TEST(WorkerPool, DestructionWithoutAnyRun)
{
    sim::WorkerPool pool(4); // park and immediately shut down
}

// ---- spin-budget resolution --------------------------------------

TEST(WorkerPoolSpin, AutoYieldsWhenOversubscribed)
{
    const unsigned hw = std::thread::hardware_concurrency();
    if (hw == 0)
        GTEST_SKIP() << "hardware_concurrency unknown";
    // More shards than cores: spinning would steal the very cycles
    // the barrier is waiting on.
    sim::WorkerPool over(hw + 1);
    EXPECT_EQ(over.spinBudget(), 0);
    // At or under the core count the default budget applies.
    sim::WorkerPool fit(hw);
    EXPECT_EQ(fit.spinBudget(), sim::WorkerPool::kDefaultSpin);
}

TEST(WorkerPoolSpin, YieldOnlyPoolStillCompletes)
{
    // An oversubscribed pool takes the pure-yield path; prove the
    // barrier still works there.
    const unsigned hw = std::thread::hardware_concurrency();
    if (hw == 0)
        GTEST_SKIP() << "hardware_concurrency unknown";
    const unsigned n = hw + 1;
    sim::WorkerPool pool(n);
    ASSERT_EQ(pool.spinBudget(), 0);
    std::vector<int> ticks(n, 0);
    for (int t = 0; t < 200; ++t)
        pool.run([&](unsigned shard) { ++ticks[shard]; });
    for (unsigned s = 0; s < n; ++s)
        EXPECT_EQ(ticks[s], 200) << "shard " << s;
}

} // namespace
