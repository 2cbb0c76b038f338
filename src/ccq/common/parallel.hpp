// Shared-memory execution substrate for the min-plus engine.
//
// The Congested-Clique *round* accounting lives in clique/ledger.hpp and
// is untouched by anything here: this file only decides how the local
// computation of each simulated node batch is mapped onto OS threads.
// EngineConfig is plumbed alongside CostModel so simulated round charges
// are identical for every {threads, block_size} setting; only wall-clock
// changes.
#ifndef CCQ_COMMON_PARALLEL_HPP
#define CCQ_COMMON_PARALLEL_HPP

#include <cstdint>
#include <functional>
#include <thread>

#include "ccq/common/check.hpp"

namespace ccq {

/// The shared thread-count convention: 0 means "one per hardware
/// thread", any positive value is taken literally.
[[nodiscard]] inline int resolved_thread_count(int threads)
{
    CCQ_EXPECT(threads >= 0, "resolved_thread_count: threads must be >= 0");
    if (threads > 0) return threads;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
}

/// Element-width policy of the dense min-plus kernels.
///
/// kAuto defers to the CCQ_KERNEL_WIDTH environment variable ("wide" |
/// "narrow" | "auto") and otherwise behaves like kNarrowIfSafe.  kWide
/// forces the i64 kernels unconditionally.  kNarrowIfSafe packs the
/// product to i32 lanes whenever the engine's width rule proves the
/// result bitwise identical (max finite A cell + max finite B cell <
/// kInfinity32); unsafe products silently stay wide, so the setting is
/// always correctness-neutral.
enum class KernelWidth {
    kAuto = 0,
    kWide,
    kNarrowIfSafe,
};

/// Local-execution parameters of the min-plus engine.
///
/// `threads == 0` means "one per hardware thread"; `threads == 1` runs
/// strictly serially on the calling thread.  `block_size` is the tile
/// edge of the dense blocked kernel (entries, not bytes).  `width` and
/// `sparse_skip` select kernel variants only — every setting produces
/// bitwise identical output (docs/ENGINE.md).
struct EngineConfig {
    int threads = 0;
    int block_size = 64;
    KernelWidth width = KernelWidth::kAuto;
    bool sparse_skip = true;

    [[nodiscard]] int resolved_threads() const { return resolved_thread_count(threads); }

    [[nodiscard]] int resolved_block_size() const
    {
        CCQ_EXPECT(block_size >= 1, "EngineConfig: block_size must be >= 1");
        return block_size;
    }

    [[nodiscard]] static EngineConfig serial() { return EngineConfig{1, 64}; }

    friend bool operator==(const EngineConfig&, const EngineConfig&) = default;
};

/// Small reusable pool of worker threads.
///
/// One job runs at a time; the submitting thread participates in the
/// work, so `run` with concurrency c uses the caller plus at most c-1
/// workers.  Workers are spawned lazily up to the largest concurrency
/// ever requested (so explicitly asking for 4 threads exercises real
/// cross-thread execution even on a single-core host) and parked on a
/// condition variable between jobs.  Re-entrant calls from inside a job
/// execute inline, which keeps nested engine calls deadlock-free.
///
/// Tasks are claimed first-come-first-served, so the pool promises no
/// task-to-thread mapping: a caller that finishes early may run a task
/// a late-waking worker never gets to.  Code that needs one OS thread
/// per task (concurrent clients, say) must spawn its own threads.
class ThreadPool {
public:
    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /// Process-wide pool (intentionally leaked: workers park forever and
    /// must outlive every static destructor that might run engine code).
    [[nodiscard]] static ThreadPool& shared();

    /// Runs fn(task) for task in [0, tasks), using up to `concurrency`
    /// OS threads including the caller.  Blocks until every task has
    /// finished; the first exception thrown by any task is rethrown.
    void run(int tasks, int concurrency, const std::function<void(int)>& fn);

    /// Workers currently spawned (for tests / introspection).
    [[nodiscard]] int worker_count() const;

private:
    ThreadPool() = default;
    ~ThreadPool() = delete; // shared() leaks the singleton on purpose

    struct Job;
    void ensure_workers(int wanted);
    void worker_loop();

    struct Impl;
    Impl* impl_ = nullptr; // created on first use (see parallel.cpp)
};

/// Partitions [begin, end) into at most `threads` contiguous chunks whose
/// interior boundaries are multiples of `align` (>= 1), and runs
/// fn(chunk_begin, chunk_end) for each chunk on the shared pool.  With
/// threads <= 1 (or a single chunk) this is a plain inline call, so serial
/// configurations never touch the pool.
template <class Fn>
void parallel_chunks(int threads, int begin, int end, int align, Fn&& fn)
{
    CCQ_EXPECT(align >= 1, "parallel_chunks: align must be >= 1");
    const std::int64_t extent = static_cast<std::int64_t>(end) - begin;
    if (extent <= 0) return;
    const std::int64_t blocks = (extent + align - 1) / align;
    std::int64_t tasks = threads < 1 ? 1 : threads;
    if (tasks > blocks) tasks = blocks;
    const std::int64_t blocks_per_task = (blocks + tasks - 1) / tasks;
    const int actual_tasks = static_cast<int>((blocks + blocks_per_task - 1) / blocks_per_task);

    auto body = [&](int task) {
        const std::int64_t first_block = static_cast<std::int64_t>(task) * blocks_per_task;
        const int chunk_begin = begin + static_cast<int>(first_block * align);
        std::int64_t chunk_end64 =
            static_cast<std::int64_t>(begin) + (first_block + blocks_per_task) * align;
        const int chunk_end = chunk_end64 > end ? end : static_cast<int>(chunk_end64);
        fn(chunk_begin, chunk_end);
    };
    if (actual_tasks <= 1) {
        body(0);
        return;
    }
    ThreadPool::shared().run(actual_tasks, actual_tasks, body);
}

} // namespace ccq

#endif // CCQ_COMMON_PARALLEL_HPP
