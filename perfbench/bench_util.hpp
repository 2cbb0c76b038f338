// Shared plumbing of the perf benchmark: clocks, order statistics,
// memory probes, CPU pinning, the in-memory span recorder, and the
// metric table that becomes the JSON result line.
#ifndef CCQ_PERFBENCH_BENCH_UTIL_HPP
#define CCQ_PERFBENCH_BENCH_UTIL_HPP

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Raised when an output check or an exact-count check fails; the
/// benchmark reports correct=false and exits non-zero.
class check_failure : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// Linear-interpolated quantile of `values` (q in [0, 1]); 0 when empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

/// Peak resident set of the process so far (getrusage), in MB.
[[nodiscard]] double peak_rss_mb();
/// Current resident set (/proc/self/statm), in MB.
[[nodiscard]] double current_rss_mb();
/// Returns freed heap pages to the OS so current_rss_mb() reflects live
/// data rather than allocator caches left behind by a build.
void trim_heap();

/// Runs every thread of the process on one CPU under SCHED_BATCH for
/// the object's lifetime; threads the caller creates meanwhile inherit
/// both.  SCHED_BATCH turns off wake-up preemption, so a closed loop on
/// one CPU hands off in the same order on every request.  The
/// destructor restores the original mask and policy.
class ProcessPin {
public:
    explicit ProcessPin(int cpu);
    ~ProcessPin();
    ProcessPin(const ProcessPin&) = delete;
    ProcessPin& operator=(const ProcessPin&) = delete;

private:
    cpu_set_t original_{};
};

/// The CPUs this process may run on (sched_getaffinity).
[[nodiscard]] std::vector<int> allowed_cpus();

/// A pipe ping-pong between the calling thread and an echo thread the
/// object starts (and joins on destruction): each round trip is a
/// one-byte write and read each way, two context switches when both
/// threads share one CPU.  It times the host's own syscall and switch
/// cost, which no code of the library runs.
class PingPong {
public:
    PingPong();
    ~PingPong();
    PingPong(const PingPong&) = delete;
    PingPong& operator=(const PingPong&) = delete;

    /// Mean us per round trip over `trips` round trips.
    [[nodiscard]] double round_trip_us(int trips);

private:
    int ping_[2] = {-1, -1};
    int pong_[2] = {-1, -1};
    std::thread echo_;
};

/// Fixed probes of the host's speed, timed on one CPU: what the same
/// machine gives a cache-bound and a context-switch-bound loop right now.
/// On a shared VM both move with load the guest cannot see (steal time
/// stays near 0): a latency-bound build and the loopback figures move
/// with them, so a run stamps them at its start and end.
struct HostProbe {
    double chase_ns = 0.0;  ///< ns per step of a random pointer chase over 8 MiB
    double switch_us = 0.0; ///< us per round trip of a pipe ping-pong between two threads
};
[[nodiscard]] HostProbe probe_host(int cpu);

/// One recorded span of the traced run.
struct Span {
    std::string name;
    int parent = -1; ///< index of the enclosing span, -1 at top level
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;

    [[nodiscard]] double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

/// In-memory span recorder.  Spans nest by scope; nothing is written
/// until write_chrome_trace() at the end of the run.  A disabled
/// recorder only reads the clock for the caller's own timing.
class SpanRecorder {
public:
    explicit SpanRecorder(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

    /// RAII span; seconds() is valid after the scope closes or via stop().
    class Scope {
    public:
        Scope(SpanRecorder& recorder, std::string name);
        ~Scope() { stop(); }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

        /// Ends the span (idempotent) and returns its duration.
        double stop();

    private:
        SpanRecorder& recorder_;
        int index_ = -1;
        Clock::time_point start_;
        double seconds_ = -1.0;
    };

    [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
    /// Sum of the durations of every span named `name`.
    [[nodiscard]] double total_seconds(const std::string& name) const;
    /// Durations of every span named `name`, in recording order.
    [[nodiscard]] std::vector<double> durations(const std::string& name) const;
    /// chrome://tracing JSON (complete "X" events with parent ids).
    void write_chrome_trace(const std::string& path) const;

private:
    [[nodiscard]] std::int64_t offset_ns(Clock::time_point t) const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_).count();
    }

    bool enabled_;
    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> open_; ///< stack of open span indices
};

/// One named measurement of the result line.
struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// JSON object text for {"name": {"value": v, "unit": u}, ...}.
[[nodiscard]] std::string metrics_json(const std::vector<Metric>& metrics);

/// A JSON number with full precision (17 significant digits).
[[nodiscard]] std::string json_number(double value);
[[nodiscard]] std::string json_string(const std::string& text);

} // namespace perfbench

#endif // CCQ_PERFBENCH_BENCH_UTIL_HPP
