/**
 * @file
 * A persistent worker pool: the thread team behind sim::Fleet.
 *
 * run(fn) executes fn(shard) once per shard, with the caller
 * participating as shard 0, and returns only when every shard has
 * finished. The fleet calls it once per batch; each shard then pulls
 * whole jobs (simulation epochs) from a shared queue until the batch
 * is drained. The machines themselves never use a pool: each one
 * runs on the thread that calls it.
 *
 * Design points:
 *  - Workers are created once and parked between runs; a run costs
 *    two generation-counted barrier crossings, not thread creation.
 *  - Waiting spins kDefaultSpin iterations and then yields. When the
 *    pool has more shards than the host has hardware threads, a
 *    spinning shard only steals the core another shard needs to
 *    finish, so an oversubscribed pool yields immediately.
 *  - Exceptions thrown by shard functions are captured and the
 *    lowest-indexed shard's exception is rethrown from run() after the
 *    barrier, so a failing job cannot leave workers running.
 *  - The destructor joins all workers; it must not be called from a
 *    shard function.
 */

#ifndef TTDA_COMMON_PARALLEL_HH
#define TTDA_COMMON_PARALLEL_HH

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

namespace sim
{

/** Persistent thread team executing one function per shard. */
class WorkerPool
{
  public:
    /**
     * @param threads total shard count, including the calling thread;
     *                clamped below by 1. `threads - 1` host threads are
     *                spawned.
     */
    explicit WorkerPool(unsigned threads);

    /** Spin iterations used when every shard has a hardware thread. */
    static constexpr int kDefaultSpin = 4096;

    /** Barrier spin iterations before yielding: kDefaultSpin, or 0
     *  when the pool is oversubscribed (tests and diagnostics). */
    int spinBudget() const { return spin_; }

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    ~WorkerPool();

    /** Shard count (spawned workers + the caller). */
    unsigned size() const { return threads_; }

    /**
     * Run fn(shard) for every shard in [0, size()), the caller
     * executing shard 0, and block until all shards complete. If any
     * invocation threw, the exception of the lowest-indexed throwing
     * shard is rethrown here (the others are discarded).
     *
     * Not reentrant: must not be called from inside a shard function.
     */
    void run(const std::function<void(unsigned)> &fn);

  private:
    void workerLoop(unsigned shard);
    void runShard(unsigned shard);

    /** Spin-then-yield wait until `flag` reaches `target`. */
    void await(const std::atomic<std::uint64_t> &flag,
               std::uint64_t target) const;

    unsigned threads_;
    int spin_ = kDefaultSpin;
    std::vector<std::thread> workers_;

    // Barrier state: epoch_ advances to publish a new task to the
    // workers; done_ counts shards that finished the current epoch.
    std::atomic<std::uint64_t> epoch_{0};
    std::atomic<std::uint64_t> done_{0};
    std::atomic<bool> stop_{false};
    const std::function<void(unsigned)> *task_ = nullptr;

    std::vector<std::exception_ptr> errors_;
};

} // namespace sim

#endif // TTDA_COMMON_PARALLEL_HH
