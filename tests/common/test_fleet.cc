/**
 * @file
 * The generic fleet engine: exactly-once delivery at any worker
 * count, claims that partition the jobs, run() as a barrier, reuse
 * across many batches, failure order independent of the worker
 * count, idle threads that sleep, clean shutdown, and deriveJobSeed's
 * job-id-only dependence.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/fleet.hh"

namespace
{

double
processCpuMs()
{
    timespec ts{};
    ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e3 +
           static_cast<double>(ts.tv_nsec) * 1e-6;
}

/** Arrive, then yield until `n` jobs have arrived. A worker runs one
 *  job at a time, so a batch of `n` such jobs completes only with
 *  each job on a different worker. */
void
rendezvous(std::atomic<unsigned> &arrived, unsigned n)
{
    arrived.fetch_add(1);
    while (arrived.load() < n)
        std::this_thread::yield();
}

TEST(Fleet, RunsEveryJobExactlyOnce)
{
    // The last count oversubscribes the host: more workers than
    // hardware threads.
    const unsigned over = std::thread::hardware_concurrency() + 1;
    for (const unsigned workers : {1u, 2u, 4u, over}) {
        sim::Fleet fleet(sim::Fleet::Config{workers});
        constexpr std::size_t kJobs = 2000;
        std::vector<std::atomic<int>> ran(kJobs);
        fleet.run(kJobs, [&](unsigned, std::size_t j) {
            ran[j].fetch_add(1, std::memory_order_relaxed);
        });
        for (std::size_t j = 0; j < kJobs; ++j)
            EXPECT_EQ(ran[j].load(), 1) << "job " << j << " at "
                                        << workers << " workers";
        const auto &perWorker = fleet.jobsPerWorker();
        EXPECT_EQ(perWorker.size(), workers);
        EXPECT_EQ(std::accumulate(perWorker.begin(), perWorker.end(),
                                  std::uint64_t{0}),
                  kJobs);
    }
}

TEST(Fleet, ConcurrentClaimsPartitionTheJobs)
{
    // Each worker logs the jobs it claimed (one thread per worker, so
    // one writer per log): together they are 0..n-1 once each, each
    // log matches the worker's tally, and the one cursor hands every
    // worker rising job indices.
    constexpr std::size_t kJobs = 2000;
    constexpr unsigned kWorkers = 4;
    sim::Fleet fleet(sim::Fleet::Config{kWorkers});
    std::vector<std::vector<std::size_t>> claimed(kWorkers);
    fleet.run(kJobs, [&](unsigned worker, std::size_t j) {
        claimed[worker].push_back(j);
    });

    std::vector<std::size_t> all;
    for (unsigned w = 0; w < kWorkers; ++w) {
        const auto &log = claimed[w];
        EXPECT_EQ(log.size(), fleet.jobsPerWorker()[w]) << "worker " << w;
        EXPECT_TRUE(std::is_sorted(log.begin(), log.end()))
            << "worker " << w << " claimed out of cursor order";
        all.insert(all.end(), log.begin(), log.end());
    }
    std::sort(all.begin(), all.end());
    std::vector<std::size_t> want(kJobs);
    std::iota(want.begin(), want.end(), std::size_t{0});
    EXPECT_EQ(all, want);
}

TEST(Fleet, EveryWorkerTakesOneJobOfARendezvous)
{
    // As many jobs as workers, none finishing until all have started:
    // every worker, the caller included, runs exactly one.
    constexpr unsigned kWorkers = 4;
    sim::Fleet fleet(sim::Fleet::Config{kWorkers});
    std::atomic<unsigned> arrived{0};
    std::vector<std::atomic<int>> ranOn(kWorkers);
    fleet.run(kWorkers, [&](unsigned worker, std::size_t) {
        ranOn[worker].fetch_add(1);
        rendezvous(arrived, kWorkers);
    });
    for (unsigned w = 0; w < kWorkers; ++w)
        EXPECT_EQ(ranOn[w].load(), 1) << "worker " << w;
    EXPECT_EQ(fleet.jobsPerWorker(),
              std::vector<std::uint64_t>(kWorkers, 1));
}

TEST(Fleet, RunIsABarrier)
{
    // One job per worker (they meet first). The jobs off the caller
    // write their plain slots only after a sleep, so run() must wait
    // for them to finish, not just for the cursor to pass the batch.
    constexpr unsigned kWorkers = 4;
    sim::Fleet fleet(sim::Fleet::Config{kWorkers});
    for (int round = 0; round < 5; ++round) {
        std::atomic<unsigned> arrived{0};
        std::vector<std::size_t> slot(kWorkers, 0);
        fleet.run(kWorkers, [&](unsigned worker, std::size_t j) {
            rendezvous(arrived, kWorkers);
            if (worker != 0)
                std::this_thread::sleep_for(std::chrono::milliseconds(5));
            slot[j] = j + 1;
        });
        EXPECT_EQ(slot, (std::vector<std::size_t>{1, 2, 3, 4}))
            << "round " << round;
    }
}

TEST(Fleet, SingleWorkerRunsOnCaller)
{
    sim::Fleet fleet(sim::Fleet::Config{0}); // clamps to one worker
    EXPECT_EQ(fleet.workers(), 1u);
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::size_t> order;
    fleet.run(5, [&](unsigned worker, std::size_t j) {
        EXPECT_EQ(worker, 0u);
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(j);
    });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
    EXPECT_EQ(fleet.jobsPerWorker(), std::vector<std::uint64_t>{5});
}

TEST(Fleet, SingleWorkerRunsEveryBatchInIndexOrder)
{
    // One worker claims every job of every batch, in index order.
    sim::Fleet fleet(sim::Fleet::Config{1});
    for (const std::size_t jobs : {std::size_t{10}, std::size_t{0},
                                   std::size_t{1}, std::size_t{257}}) {
        std::vector<std::size_t> order;
        fleet.run(jobs,
                  [&](unsigned, std::size_t j) { order.push_back(j); });
        std::vector<std::size_t> want(jobs);
        std::iota(want.begin(), want.end(), std::size_t{0});
        EXPECT_EQ(order, want) << jobs << " jobs";
        EXPECT_EQ(fleet.jobsPerWorker(), std::vector<std::uint64_t>{jobs});
    }
}

TEST(Fleet, ResultsIndependentOfWorkerCount)
{
    // Each job computes a pure function of its index; per-job result
    // slots must match across worker counts (the determinism contract
    // the machine fleets inherit).
    const auto runAt = [](unsigned workers) {
        sim::Fleet::Config cfg;
        cfg.workers = workers;
        sim::Fleet fleet(cfg);
        std::vector<std::uint64_t> out(100);
        fleet.run(out.size(), [&](unsigned, std::size_t j) {
            out[j] = sim::deriveJobSeed(7, j);
        });
        return out;
    };
    const auto w1 = runAt(1);
    EXPECT_EQ(w1, runAt(2));
    EXPECT_EQ(w1, runAt(4));
}

TEST(Fleet, ReusableAcrossBatches)
{
    // Batch sizes cycle through 0..6, so empty and one-job batches
    // recur between fuller ones.
    sim::Fleet fleet(sim::Fleet::Config{4});
    for (int b = 0; b < 1200; ++b) {
        const std::size_t jobs = static_cast<std::size_t>(b % 7);
        std::vector<int> hit(jobs, 0);
        fleet.run(jobs, [&](unsigned, std::size_t j) { ++hit[j]; });
        EXPECT_EQ(hit, std::vector<int>(jobs, 1)) << "batch " << b;
    }
}

TEST(Fleet, PerJobStateCarriesAcrossBatches)
{
    // Job j's plain counter is bumped once per batch, by whichever
    // worker claims it: each batch must see the writes of the last.
    constexpr unsigned kWorkers = 3;
    constexpr int kBatches = 2000;
    sim::Fleet fleet(sim::Fleet::Config{kWorkers});
    std::vector<int> tally(kWorkers, 0);
    for (int b = 0; b < kBatches; ++b)
        fleet.run(tally.size(), [&](unsigned, std::size_t j) { ++tally[j]; });
    EXPECT_EQ(tally, std::vector<int>(kWorkers, kBatches));
}

TEST(Fleet, OversubscribedFleetCompletesEveryBatch)
{
    // More workers than hardware threads, across 200 batches; twice
    // the fleet idles past the spin window so parked threads must
    // wake for the next batch.
    const unsigned n = std::thread::hardware_concurrency() + 1;
    sim::Fleet fleet(sim::Fleet::Config{n});
    std::vector<int> tally(n, 0);
    for (int b = 0; b < 200; ++b) {
        fleet.run(n, [&](unsigned, std::size_t j) { ++tally[j]; });
        if (b % 100 == 99)
            std::this_thread::sleep_for(2 * sim::Fleet::kSpinWindow);
    }
    EXPECT_EQ(tally, std::vector<int>(n, 200));
}

TEST(Fleet, ExceptionsPropagate)
{
    sim::Fleet::Config cfg;
    cfg.workers = 2;
    sim::Fleet fleet(cfg);
    EXPECT_THROW(fleet.run(8,
                           [&](unsigned, std::size_t j) {
                               if (j == 3)
                                   throw std::runtime_error("job 3");
                           }),
                 std::runtime_error);
    // The fleet stays usable after a failed batch.
    std::atomic<int> runs{0};
    fleet.run(8, [&](unsigned, std::size_t) { runs.fetch_add(1); });
    EXPECT_EQ(runs.load(), 8);
}

TEST(Fleet, LowestJobIndexExceptionWins)
{
    // Jobs 1 and 2 both throw: job 1's error surfaces whichever
    // workers happened to run them.
    for (const unsigned workers : {1u, 2u, 4u}) {
        sim::Fleet fleet(sim::Fleet::Config{workers});
        try {
            fleet.run(8, [](unsigned, std::size_t j) {
                if (j == 1 || j == 2)
                    throw std::runtime_error("job " + std::to_string(j));
            });
            ADD_FAILURE() << "run() should have rethrown at " << workers
                          << " workers";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "job 1") << workers << " workers";
        }
    }
}

TEST(Fleet, LowestIndexWinsWhenMostJobsThrow)
{
    // Every job but job 0 throws; job 1's error surfaces, and the
    // fleet runs the next batch whole.
    sim::Fleet fleet(sim::Fleet::Config{4});
    try {
        fleet.run(8, [](unsigned, std::size_t j) {
            if (j >= 1)
                throw std::runtime_error("job " + std::to_string(j));
        });
        FAIL() << "run() should have rethrown";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "job 1");
    }
    std::atomic<int> runs{0};
    fleet.run(8, [&](unsigned, std::size_t) { runs.fetch_add(1); });
    EXPECT_EQ(runs.load(), 8);
}

TEST(Fleet, CallerJobExceptionPropagates)
{
    // Two jobs that meet, so each worker runs one; the caller's job
    // throws, and its exception reaches the caller with its type.
    sim::Fleet fleet(sim::Fleet::Config{2});
    const std::thread::id caller = std::this_thread::get_id();
    std::atomic<unsigned> arrived{0};
    EXPECT_THROW(fleet.run(2,
                           [&](unsigned worker, std::size_t) {
                               rendezvous(arrived, 2);
                               if (worker == 0) {
                                   EXPECT_EQ(std::this_thread::get_id(),
                                             caller);
                                   throw std::logic_error("caller job");
                               }
                           }),
                 std::logic_error);
    EXPECT_EQ(fleet.jobsPerWorker(), (std::vector<std::uint64_t>{1, 1}));
}

TEST(Fleet, EveryJobRunsWhenOneThrows)
{
    // A throwing job fails the batch, not the jobs queued behind it.
    for (const unsigned workers : {1u, 2u, 4u}) {
        sim::Fleet fleet(sim::Fleet::Config{workers});
        constexpr std::size_t kJobs = 8;
        std::vector<std::atomic<int>> ran(kJobs);
        EXPECT_THROW(fleet.run(kJobs,
                               [&](unsigned, std::size_t j) {
                                   ran[j].fetch_add(1);
                                   if (j == 3)
                                       throw std::runtime_error("job 3");
                               }),
                     std::runtime_error);
        for (std::size_t j = 0; j < kJobs; ++j)
            EXPECT_EQ(ran[j].load(), 1) << "job " << j << " at "
                                        << workers << " workers";
    }
}

TEST(Fleet, IdleWorkersSleep)
{
    sim::Fleet fleet(sim::Fleet::Config{4});
    fleet.run(4, [](unsigned, std::size_t) {});
    // Past the spin window every thread has parked.
    std::this_thread::sleep_for(3 * sim::Fleet::kSpinWindow);
    const double before = processCpuMs();
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    const double used = processCpuMs() - before;
    EXPECT_LT(used, 10.0) << "an idle 4-worker fleet burned " << used
                          << " ms of CPU in 500 ms";

    // Parked threads wake for the next batch.
    std::vector<std::atomic<int>> ran(16);
    fleet.run(ran.size(), [&](unsigned, std::size_t j) {
        ran[j].fetch_add(1);
    });
    for (std::size_t j = 0; j < ran.size(); ++j)
        EXPECT_EQ(ran[j].load(), 1) << "job " << j;
}

TEST(Fleet, DestructionJoinsCleanly)
{
    // Construct, use once, destroy — repeatedly. A wedged thread
    // would hang this test (ctest's timeout catches it).
    for (int i = 0; i < 20; ++i) {
        sim::Fleet fleet(sim::Fleet::Config{3});
        std::atomic<int> runs{0};
        fleet.run(6, [&](unsigned, std::size_t) { runs.fetch_add(1); });
        EXPECT_EQ(runs.load(), 6);
    }
}

TEST(Fleet, DestructionWithoutAnyRun)
{
    sim::Fleet fleet(sim::Fleet::Config{4}); // start and shut down
}

TEST(DeriveJobSeed, DependsOnJobIdNotCaller)
{
    EXPECT_EQ(sim::deriveJobSeed(1, 0), sim::deriveJobSeed(1, 0));
    EXPECT_NE(sim::deriveJobSeed(1, 0), sim::deriveJobSeed(1, 1));
    EXPECT_NE(sim::deriveJobSeed(1, 0), sim::deriveJobSeed(2, 0));
    // Non-degenerate: job 0 of base 0 is still mixed.
    EXPECT_NE(sim::deriveJobSeed(0, 0), 0u);
}

} // namespace
