/**
 * @file
 * Deterministic job-level parallelism: the fleet engine.
 *
 * One machine runs on one host thread: a barrier per simulated cycle
 * costs more than the cycle's work (docs/ARCHITECTURE.md, "One host
 * thread per machine"). Serving workloads offer the parallelism that
 * does pay: *independent* jobs (whole simulation epochs) that need no
 * cross-job synchronization at all, the replica-pool shape inference
 * serving stacks use.
 *
 * sim::Fleet runs K jobs across W workers: the caller is worker 0
 * and W-1 threads persist across batches. A batch is one shared
 * cursor; every worker claims its next job with a fetch-and-add (the
 * Ultracomputer's queue) until the cursor passes the job count. Jobs
 * last milliseconds, so a counter touched once per job never
 * contends: lanes and stealing would buy nothing. A worker waiting
 * for the next batch, and the caller waiting for the batch to end,
 * yield for at most kSpinWindow and then park on a condition
 * variable, so an idle fleet costs no CPU.
 *
 * Determinism contract
 * --------------------
 * Which worker runs a job, and in what order, is host-scheduling
 * noise. Results stay bit-identical for any worker count because:
 *
 *  1. every job's computation must be a pure function of (replica
 *     construction state, job index) — per-job randomness derives
 *     from the job id via deriveJobSeed, never from the worker id or
 *     a shared stream;
 *  2. workers write results only into per-job slots (index = job id),
 *     so aggregation happens after the batch, in job-index order —
 *     failures too: every job runs, and run() rethrows the error of
 *     the lowest job index;
 *  3. anything inherently host-ordered (per-worker job tallies, wall
 *     times) is segregated as informational.
 *
 * serve::TtdaFleet (src/serve) layers warm machine replicas on top.
 */

#ifndef TTDA_COMMON_FLEET_HH
#define TTDA_COMMON_FLEET_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace sim
{

/** SplitMix64-mix a base seed with a job index: the per-job seed for
 *  fault plans, arrival schedules, and workload randomness. Never
 *  derive per-worker — that would tie results to the claim order. */
inline std::uint64_t
deriveJobSeed(std::uint64_t base, std::uint64_t job)
{
    std::uint64_t z = base + 0x9e3779b97f4a7c15ULL * (job + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** The fleet engine. One Fleet is built per worker count and reused
 *  across batches; its threads persist between them. */
class Fleet
{
  public:
    struct Config
    {
        /** Worker count, including the calling thread (it runs jobs
         *  too, as worker 0). Clamped below by 1. */
        unsigned workers = 1;
    };

    using Job = std::function<void(unsigned worker, std::size_t job)>;

    /**
     * How long a waiting thread yields before it parks: about the p99
     * of a whole batch in the perfbench fleet workloads (11 ms for
     * fleet_lossy, 20 ms for emul_fleet), so a busy fleet almost never
     * parks inside or between batches, and an idle one parks this
     * long after its last batch. Parking at once or after 1 ms
     * raised the batch p99 by 11–18% in three of those four cases
     * (EXPERIMENTS.md, "One job runner").
     */
    static constexpr std::chrono::milliseconds kSpinWindow{20};

    explicit Fleet(Config cfg);
    ~Fleet();

    Fleet(const Fleet &) = delete;
    Fleet &operator=(const Fleet &) = delete;

    unsigned workers() const { return workers_; }

    /**
     * Run jobs 0..numJobs-1 to completion across the workers.
     * `runJob(worker, job)` is called exactly once per job, from an
     * unspecified worker and in an unspecified order; it must write
     * its result into storage indexed by `job` and touch no state
     * another job reads (machine replicas are per-worker, results
     * per-job). A throwing job does not stop the others; once all
     * have run, the exception of the lowest throwing job index
     * propagates. Not reentrant: a job must not call run().
     */
    void run(std::size_t numJobs, const Job &runJob);

    /** Always 0: one shared cursor has no lanes to steal from. */
    std::uint64_t steals() const { return 0; }

    /** Jobs each worker ran in the last run() (informational load
     *  balance; sums to the job count). */
    const std::vector<std::uint64_t> &jobsPerWorker() const
    {
        return jobsPerWorker_;
    }

  private:
    void workerLoop(unsigned worker);
    /** Claim and run jobs until the cursor passes the batch. */
    void drain(unsigned worker);
    /** Yield until ready() holds, for at most kSpinWindow; then park
     *  on cv_ until it does. */
    template <class Ready> void await(Ready ready);
    /** Advance batch_ and wake every parked thread. */
    void publish();
    /** Wake the threads to exit and join them. */
    void stop();

    unsigned workers_;

    // Waiting threads park on cv_. Every change that can end a wait
    // (a new batch_, busy_ reaching 0) is made under mu_, and a waiter
    // checks under mu_ before it sleeps, so no wake is lost.
    std::mutex mu_;
    std::condition_variable cv_;
    std::atomic<std::uint64_t> batch_{0}; //!< batches published
    std::atomic<unsigned> busy_{0};       //!< threads still in a batch

    // One batch. The caller writes these before it advances batch_
    // (release); the threads read them after seeing the new batch_
    // (acquire), and hand their slots back through busy_.
    const Job *job_ = nullptr;
    std::size_t numJobs_ = 0;
    bool stop_ = false;
    std::vector<std::exception_ptr> errors_; //!< per job
    std::vector<std::uint64_t> jobsPerWorker_;
    std::atomic<std::size_t> cursor_{0};

    std::vector<std::thread> threads_; //!< last: they use the above
};

} // namespace sim

#endif // TTDA_COMMON_FLEET_HH
