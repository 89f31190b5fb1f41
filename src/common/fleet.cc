#include "common/fleet.hh"

#include "common/logging.hh"

namespace sim
{

Fleet::Fleet(Config cfg) : workers_(cfg.workers < 1 ? 1 : cfg.workers)
{
    threads_.reserve(workers_ - 1);
    try {
        for (unsigned w = 1; w < workers_; ++w)
            threads_.emplace_back([this, w] { workerLoop(w); });
    } catch (...) {
        stop(); // join the threads already started
        throw;
    }
}

Fleet::~Fleet() { stop(); }

void
Fleet::stop()
{
    stop_ = true;
    publish();
    for (std::thread &t : threads_)
        t.join();
}

template <class Ready>
void
Fleet::await(Ready ready)
{
    const auto parkAt = std::chrono::steady_clock::now() + kSpinWindow;
    while (!ready()) {
        if (std::chrono::steady_clock::now() >= parkAt) {
            std::unique_lock<std::mutex> lk(mu_);
            cv_.wait(lk, ready);
            return;
        }
        std::this_thread::yield();
    }
}

void
Fleet::publish()
{
    const std::lock_guard<std::mutex> lk(mu_);
    batch_.fetch_add(1, std::memory_order_release);
    cv_.notify_all();
}

void
Fleet::drain(unsigned worker)
{
    std::uint64_t ran = 0;
    for (;;) {
        const std::size_t j =
            cursor_.fetch_add(1, std::memory_order_relaxed);
        if (j >= numJobs_)
            break;
        try {
            (*job_)(worker, j);
        } catch (...) {
            errors_[j] = std::current_exception();
        }
        ++ran;
    }
    jobsPerWorker_[worker] = ran;
}

void
Fleet::workerLoop(unsigned worker)
{
    for (std::uint64_t seen = 0;; ++seen) {
        await([&] { return batch_.load(std::memory_order_acquire) != seen; });
        if (stop_)
            return;
        drain(worker);
        const std::lock_guard<std::mutex> lk(mu_);
        if (busy_.fetch_sub(1, std::memory_order_acq_rel) == 1)
            cv_.notify_all();
    }
}

void
Fleet::run(std::size_t numJobs, const Job &runJob)
{
    SIM_ASSERT_MSG(!job_, "Fleet::run is not reentrant");
    errors_.assign(numJobs, nullptr);
    jobsPerWorker_.assign(workers_, 0);
    job_ = &runJob;
    numJobs_ = numJobs;
    cursor_.store(0, std::memory_order_relaxed);
    busy_.store(workers_ - 1, std::memory_order_relaxed);
    publish();

    drain(0);
    await([&] { return busy_.load(std::memory_order_acquire) == 0; });
    job_ = nullptr;

    for (const std::exception_ptr &e : errors_)
        if (e)
            std::rethrow_exception(e);
}

} // namespace sim
