// The largest single heap request made while a piece of code runs.
//
// This header replaces the global operator new / operator delete, so a
// test binary includes it from exactly one translation unit (every
// tests/test_*.cpp is its own binary).  The array and nothrow forms
// forward to these; the code under watch makes no over-aligned
// allocations.
#ifndef CCQ_TESTS_ALLOCATION_WATCH_HPP
#define CCQ_TESTS_ALLOCATION_WATCH_HPP

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace ccq::testing {

inline std::atomic<bool> g_watch_allocations{false};
inline std::atomic<std::size_t> g_largest_allocation{0};

/// The largest single operator-new request made while this watch lives.
class AllocationWatch {
public:
    AllocationWatch()
    {
        g_largest_allocation.store(0, std::memory_order_relaxed);
        g_watch_allocations.store(true, std::memory_order_relaxed);
    }
    ~AllocationWatch() { g_watch_allocations.store(false, std::memory_order_relaxed); }
    AllocationWatch(const AllocationWatch&) = delete;
    AllocationWatch& operator=(const AllocationWatch&) = delete;

    [[nodiscard]] static std::size_t largest() noexcept
    {
        return g_largest_allocation.load(std::memory_order_relaxed);
    }
};

} // namespace ccq::testing

void* operator new(std::size_t size)
{
    using ccq::testing::g_largest_allocation;
    if (ccq::testing::g_watch_allocations.load(std::memory_order_relaxed) &&
        size > g_largest_allocation.load(std::memory_order_relaxed))
        g_largest_allocation.store(size, std::memory_order_relaxed);
    if (void* block = std::malloc(size == 0 ? 1 : size)) return block;
    throw std::bad_alloc();
}

// Out of line: inlined into a delete-expression, free() on a pointer
// from operator new trips -Wmismatched-new-delete.
[[gnu::noinline]] void operator delete(void* block) noexcept { std::free(block); }
[[gnu::noinline]] void operator delete(void* block, std::size_t) noexcept { std::free(block); }

#endif // CCQ_TESTS_ALLOCATION_WATCH_HPP
