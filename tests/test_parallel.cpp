// Tests for the thread-pool substrate of the min-plus engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <set>
#include <utility>
#include <vector>

#include "ccq/common/parallel.hpp"

namespace ccq {
namespace {

TEST(EngineConfigTest, ResolvesThreadsAndBlocks)
{
    EXPECT_EQ((EngineConfig{1, 32}).resolved_threads(), 1);
    EXPECT_EQ((EngineConfig{5, 32}).resolved_threads(), 5);
    EXPECT_GE(EngineConfig{}.resolved_threads(), 1); // auto: at least one
    EXPECT_EQ((EngineConfig{1, 32}).resolved_block_size(), 32);
    EXPECT_EQ(EngineConfig::serial().threads, 1);
    EXPECT_THROW((void)(EngineConfig{-2, 8}).resolved_threads(), check_error);
    EXPECT_THROW((void)(EngineConfig{1, 0}).resolved_block_size(), check_error);
}

TEST(ParallelChunks, CoversRangeExactlyOnce)
{
    for (const int threads : {1, 2, 4, 9}) {
        for (const int align : {1, 8, 64}) {
            for (const int extent : {0, 1, 7, 64, 193}) {
                std::mutex mutex;
                std::vector<std::pair<int, int>> chunks;
                parallel_chunks(threads, 0, extent, align, [&](int begin, int end) {
                    const std::lock_guard<std::mutex> lock(mutex);
                    chunks.emplace_back(begin, end);
                });
                std::sort(chunks.begin(), chunks.end());
                int covered = 0;
                int expected_next = 0;
                for (const auto& [begin, end] : chunks) {
                    EXPECT_EQ(begin, expected_next);
                    EXPECT_LT(begin, end);
                    if (end != extent) {
                        EXPECT_EQ(end % align, 0); // interior cuts on align
                    }
                    covered += end - begin;
                    expected_next = end;
                }
                EXPECT_EQ(covered, extent)
                    << "threads=" << threads << " align=" << align << " extent=" << extent;
            }
        }
    }
}

TEST(ParallelChunks, ChunkCountRespectsThreadBound)
{
    std::mutex mutex;
    int chunk_count = 0;
    parallel_chunks(4, 0, 1000, 1, [&](int, int) {
        const std::lock_guard<std::mutex> lock(mutex);
        ++chunk_count;
    });
    EXPECT_LE(chunk_count, 4);
    EXPECT_GE(chunk_count, 1);
}

TEST(ThreadPool, RunsEveryTaskExactlyOnce)
{
    std::mutex mutex;
    std::multiset<int> seen;
    ThreadPool::shared().run(37, 4, [&](int task) {
        const std::lock_guard<std::mutex> lock(mutex);
        seen.insert(task);
    });
    EXPECT_EQ(seen.size(), 37u);
    for (int task = 0; task < 37; ++task) EXPECT_EQ(seen.count(task), 1u) << task;
}

TEST(ThreadPool, SpawnsWorkersForExplicitConcurrency)
{
    // Even on a single-core host an explicit 4-way request must exercise
    // real cross-thread execution (the engine tests rely on this).
    ThreadPool::shared().run(8, 4, [](int) {});
    EXPECT_GE(ThreadPool::shared().worker_count(), 3);
}

TEST(ThreadPool, PropagatesTaskExceptions)
{
    std::atomic<int> executed{0};
    EXPECT_THROW(ThreadPool::shared().run(8, 4,
                                          [&](int task) {
                                              executed.fetch_add(1);
                                              if (task == 3) throw check_error("boom");
                                          }),
                 check_error);
    EXPECT_EQ(executed.load(), 8); // failure does not abandon sibling tasks
}

TEST(ThreadPool, NestedRunsExecuteInline)
{
    std::atomic<int> total{0};
    ThreadPool::shared().run(4, 4, [&](int) {
        ThreadPool::shared().run(4, 4, [&](int) { total.fetch_add(1); });
    });
    EXPECT_EQ(total.load(), 16);
}

TEST(ThreadPool, BackToBackJobsStaySound)
{
    for (int round = 0; round < 200; ++round) {
        std::atomic<int> count{0};
        ThreadPool::shared().run(7, 4, [&](int) { count.fetch_add(1); });
        ASSERT_EQ(count.load(), 7) << "round " << round;
    }
}

} // namespace
} // namespace ccq
