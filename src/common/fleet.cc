#include "common/fleet.hh"

#include "common/logging.hh"

namespace sim
{

JobQueue::JobQueue(std::size_t jobs, std::size_t shards)
    : jobs_(jobs)
{
    std::size_t s = shards == 0 ? 1 : shards;
    if (jobs_ > 0 && s > jobs_)
        s = jobs_;
    if (s < 1)
        s = 1;
    shards_ = std::vector<Lane>(s);
    // Lane l owns jobs l, l+s, l+2s, ...: ceil((jobs - l) / s) of them.
    for (std::size_t l = 0; l < s; ++l)
        shards_[l].count = jobs_ > l ? (jobs_ - l + s - 1) / s : 0;
}

std::optional<std::size_t>
JobQueue::pop(unsigned worker)
{
    const std::size_t s = shards_.size();
    const std::size_t home = worker % s;
    for (std::size_t probe = 0; probe < s; ++probe) {
        const std::size_t lane = (home + probe) % s;
        Lane &ln = shards_[lane];
        // Cheap dry check before touching the cursor: keeps the steal
        // scan from bumping every lane's counter on each empty pass.
        if (ln.cursor.load(std::memory_order_relaxed) >= ln.count)
            continue;
        const std::size_t pos =
            ln.cursor.fetch_add(1, std::memory_order_relaxed);
        if (pos >= ln.count)
            continue; // lost the race; lane went dry under us
        if (probe != 0)
            steals_.fetch_add(1, std::memory_order_relaxed);
        return lane + pos * s;
    }
    return std::nullopt;
}

CompletionRing::CompletionRing(std::size_t capacity)
    : ring_(capacity == 0 ? 1 : capacity)
{
}

void
CompletionRing::push(std::uint32_t job, std::uint32_t worker)
{
    const std::size_t slot =
        tail_.fetch_add(1, std::memory_order_acq_rel);
    SIM_ASSERT_MSG(slot < ring_.size(),
                   "completion ring overflow: slot {} capacity {}",
                   slot, ring_.size());
    ring_[slot] = Entry{job, worker};
}

Fleet::Fleet(Config cfg) : pool_(cfg.workers < 1 ? 1 : cfg.workers) {}

void
Fleet::run(std::size_t numJobs,
           const std::function<void(unsigned, std::size_t)> &runJob)
{
    queue_ = std::make_unique<JobQueue>(numJobs, pool_.size());
    ring_ = std::make_unique<CompletionRing>(numJobs);
    jobsPerWorker_.assign(pool_.size(), 0);

    pool_.run([&](unsigned worker) {
        std::uint64_t ran = 0;
        while (auto job = queue_->pop(worker)) {
            runJob(worker, *job);
            ring_->push(static_cast<std::uint32_t>(*job), worker);
            ++ran;
        }
        // Per-worker slot: no synchronization needed beyond the
        // pool's end-of-run barrier.
        jobsPerWorker_[worker] = ran;
    });
}

} // namespace sim
