#include "ccq/common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <vector>

namespace ccq {
namespace {

/// Workers never initiate top-level jobs and re-entrant submissions run
/// inline, so a single flag per thread is enough to prevent deadlock.
thread_local bool t_inside_pool_job = false;

constexpr int kMaxWorkers = 63; // callers participate, so 64-way total

} // namespace

struct ThreadPool::Job {
    const std::function<void(int)>* fn = nullptr;
    int tasks = 0;
    std::atomic<int> next{0};
    std::atomic<int> done{0};
    std::mutex error_mutex;
    std::exception_ptr error;

    /// Claims and runs tasks until none is left; returns the number of
    /// tasks this thread completed.
    int drain()
    {
        int completed = 0;
        for (;;) {
            const int task = next.fetch_add(1, std::memory_order_relaxed);
            if (task >= tasks) return completed;
            try {
                (*fn)(task);
            } catch (...) {
                const std::lock_guard<std::mutex> lock(error_mutex);
                if (!error) error = std::current_exception();
            }
            ++completed;
        }
    }
};

struct ThreadPool::Impl {
    std::mutex run_mutex; // serializes whole jobs
    std::mutex mutex;     // guards job/generation/active/workers
    std::condition_variable wake;
    std::condition_variable finished;
    Job* job = nullptr;
    std::uint64_t generation = 0;
    int active = 0; // workers currently holding a pointer into the job
    std::vector<std::thread> workers;
};

ThreadPool& ThreadPool::shared()
{
    static ThreadPool* pool = [] {
        auto* p = new ThreadPool();
        p->impl_ = new Impl();
        return p;
    }();
    return *pool;
}

int ThreadPool::worker_count() const
{
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    return static_cast<int>(impl_->workers.size());
}

void ThreadPool::ensure_workers(int wanted)
{
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    if (wanted > kMaxWorkers) wanted = kMaxWorkers;
    while (static_cast<int>(impl_->workers.size()) < wanted)
        impl_->workers.emplace_back([this] { worker_loop(); });
}

void ThreadPool::worker_loop()
{
    t_inside_pool_job = true; // nested engine calls inside tasks run inline
    std::uint64_t seen = 0;
    for (;;) {
        Job* job = nullptr;
        {
            std::unique_lock<std::mutex> lock(impl_->mutex);
            impl_->wake.wait(lock, [&] { return impl_->generation != seen; });
            seen = impl_->generation;
            job = impl_->job;
            if (job != nullptr) ++impl_->active;
        }
        if (job == nullptr) continue; // job already finished and detached
        const int completed = job->drain();
        if (completed > 0) job->done.fetch_add(completed, std::memory_order_acq_rel);
        {
            const std::lock_guard<std::mutex> lock(impl_->mutex);
            --impl_->active;
        }
        // The submitter waits for done == tasks && active == 0; once this
        // thread has dropped `active` it no longer touches the job.
        impl_->finished.notify_all();
    }
}

void ThreadPool::run(int tasks, int concurrency, const std::function<void(int)>& fn)
{
    CCQ_EXPECT(tasks >= 0, "ThreadPool::run: negative task count");
    if (tasks == 0) return;
    if (tasks == 1 || concurrency <= 1 || t_inside_pool_job) {
        for (int task = 0; task < tasks; ++task) fn(task);
        return;
    }

    const std::lock_guard<std::mutex> run_lock(impl_->run_mutex);
    ensure_workers(std::min(concurrency, tasks) - 1);

    Job job;
    job.fn = &fn;
    job.tasks = tasks;
    {
        const std::lock_guard<std::mutex> lock(impl_->mutex);
        impl_->job = &job;
        ++impl_->generation;
    }
    impl_->wake.notify_all();

    t_inside_pool_job = true;
    const int completed = job.drain();
    t_inside_pool_job = false;
    if (completed > 0) job.done.fetch_add(completed, std::memory_order_acq_rel);

    {
        std::unique_lock<std::mutex> lock(impl_->mutex);
        // Every task has been claimed once the caller's drain returns, so
        // the job detaches now: late-waking workers see no job.
        impl_->job = nullptr;
        impl_->finished.wait(lock, [&] {
            return impl_->active == 0 &&
                   job.done.load(std::memory_order_acquire) == tasks;
        });
    }
    if (job.error) std::rethrow_exception(job.error);
}

} // namespace ccq
