#include "bench_util.hpp"

#include <dirent.h>
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <random>
#include <sstream>
#include <thread>

namespace perfbench {

double quantile(std::vector<double> values, double q)
{
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double peak_rss_mb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

double current_rss_mb()
{
    std::ifstream statm("/proc/self/statm");
    long total_pages = 0;
    long resident_pages = 0;
    statm >> total_pages >> resident_pages;
    return static_cast<double>(resident_pages) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
           (1024.0 * 1024.0);
}

void trim_heap() { malloc_trim(0); }

namespace {

/// Applies `mask` and `policy` to every thread currently in the process.
void set_all_threads(const cpu_set_t& mask, int policy)
{
    DIR* tasks = opendir("/proc/self/task");
    if (tasks == nullptr) throw std::runtime_error("cannot list /proc/self/task");
    const sched_param param{};
    while (const dirent* entry = readdir(tasks)) {
        if (entry->d_name[0] == '.') continue;
        const pid_t tid = static_cast<pid_t>(std::atoi(entry->d_name));
        // A thread may exit between readdir and the calls; that is fine.
        sched_setaffinity(tid, sizeof(mask), &mask);
        sched_setscheduler(tid, policy, &param);
    }
    closedir(tasks);
}

} // namespace

ProcessPin::ProcessPin(int cpu)
{
    if (sched_getaffinity(0, sizeof(original_), &original_) != 0)
        throw std::runtime_error("sched_getaffinity failed");
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    set_all_threads(one, SCHED_BATCH);
}

ProcessPin::~ProcessPin() { set_all_threads(original_, SCHED_OTHER); }

std::vector<int> allowed_cpus()
{
    cpu_set_t mask;
    CPU_ZERO(&mask);
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof(mask), &mask) != 0) return cpus;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
        if (CPU_ISSET(cpu, &mask)) cpus.push_back(cpu);
    return cpus;
}

namespace {

constexpr std::size_t kChaseEntries = std::size_t{8} << 20 >> 2; // 8 MiB of u32
constexpr std::size_t kChaseSteps = std::size_t{1} << 20;
constexpr int kPingPongs = 2000;
constexpr int kProbeReps = 5;

double chase_ns()
{
    // One random cycle through every entry (Sattolo's shuffle).
    std::vector<std::uint32_t> next(kChaseEntries);
    std::iota(next.begin(), next.end(), 0u);
    std::mt19937 rng(12345);
    for (std::size_t i = next.size() - 1; i > 0; --i)
        std::swap(next[i], next[std::uniform_int_distribution<std::size_t>(0, i - 1)(rng)]);
    std::vector<double> ns;
    std::uint32_t at = 0;
    for (int rep = 0; rep < kProbeReps; ++rep) {
        const Clock::time_point start = Clock::now();
        for (std::size_t step = 0; step < kChaseSteps; ++step) at = next[at];
        ns.push_back(seconds_since(start) * 1e9 / static_cast<double>(kChaseSteps));
    }
    volatile std::uint32_t sink = at;
    (void)sink;
    return median(ns);
}

double switch_us()
{
    PingPong ping_pong;
    std::vector<double> us;
    for (int rep = 0; rep < kProbeReps; ++rep) us.push_back(ping_pong.round_trip_us(kPingPongs));
    return median(us);
}

} // namespace

PingPong::PingPong()
{
    if (pipe(ping_) != 0 || pipe(pong_) != 0) {
        for (const int fd : {ping_[0], ping_[1], pong_[0], pong_[1]})
            if (fd >= 0) close(fd);
        throw std::runtime_error("pipe failed");
    }
    echo_ = std::thread([this] {
        char c = 0;
        while (read(ping_[0], &c, 1) == 1 && c != 'q')
            if (write(pong_[1], &c, 1) != 1) break;
    });
}

PingPong::~PingPong()
{
    const char quit = 'q';
    if (write(ping_[1], &quit, 1) != 1) { // EOF stops the echo thread too
        close(ping_[1]);
        ping_[1] = -1;
    }
    echo_.join();
    for (const int fd : {ping_[0], ping_[1], pong_[0], pong_[1]})
        if (fd >= 0) close(fd);
}

double PingPong::round_trip_us(int trips)
{
    char c = 'x';
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < trips; ++i)
        if (write(ping_[1], &c, 1) != 1 || read(pong_[0], &c, 1) != 1)
            throw std::runtime_error("pipe ping-pong failed");
    return seconds_since(start) * 1e6 / trips;
}

HostProbe probe_host(int cpu)
{
    const ProcessPin pin(cpu);
    return {chase_ns(), switch_us()};
}

SpanRecorder::Scope::Scope(SpanRecorder& recorder, std::string name)
    : recorder_(recorder), start_(Clock::now())
{
    if (!recorder_.enabled_) return;
    index_ = static_cast<int>(recorder_.spans_.size());
    Span span;
    span.name = std::move(name);
    span.parent = recorder_.open_.empty() ? -1 : recorder_.open_.back();
    span.start_ns = recorder_.offset_ns(start_);
    recorder_.spans_.push_back(std::move(span));
    recorder_.open_.push_back(index_);
}

double SpanRecorder::Scope::stop()
{
    if (seconds_ >= 0.0) return seconds_;
    const Clock::time_point end = Clock::now();
    seconds_ = std::chrono::duration<double>(end - start_).count();
    if (index_ >= 0) {
        recorder_.spans_[static_cast<std::size_t>(index_)].end_ns = recorder_.offset_ns(end);
        recorder_.open_.pop_back();
    }
    return seconds_;
}

double SpanRecorder::total_seconds(const std::string& name) const
{
    double total = 0.0;
    for (const Span& span : spans_)
        if (span.name == name) total += span.seconds();
    return total;
}

std::vector<double> SpanRecorder::durations(const std::string& name) const
{
    std::vector<double> out;
    for (const Span& span : spans_)
        if (span.name == name) out.push_back(span.seconds());
    return out;
}

void SpanRecorder::write_chrome_trace(const std::string& path) const
{
    std::ofstream out(path, std::ios::trunc);
    if (!out) throw std::runtime_error("cannot write trace " + path);
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& span = spans_[i];
        out << (i == 0 ? "\n" : ",\n") << "{\"name\":" << json_string(span.name)
            << ",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1"
            << ",\"ts\":" << json_number(static_cast<double>(span.start_ns) / 1000.0)
            << ",\"dur\":" << json_number(static_cast<double>(span.end_ns - span.start_ns) / 1000.0)
            << ",\"args\":{\"id\":" << i << ",\"parent\":" << span.parent << "}}";
    }
    out << "\n]}\n";
}

std::string json_number(double value)
{
    if (!std::isfinite(value)) return "null";
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    return buffer;
}

std::string json_string(const std::string& text)
{
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buffer[8];
            std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
            out += buffer;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string metrics_json(const std::vector<Metric>& metrics)
{
    std::ostringstream out;
    out << "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        out << (i == 0 ? "" : ", ") << json_string(metrics[i].name) << ": {\"value\": "
            << json_number(metrics[i].value) << ", \"unit\": " << json_string(metrics[i].unit)
            << "}";
    }
    out << "}";
    return out.str();
}

} // namespace perfbench
