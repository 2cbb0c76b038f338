#include "serve_loop.hpp"

#include <algorithm>
#include <exception>
#include <thread>

#include "bench_util.hpp"

namespace perfbench {
namespace {

/// Untimed requests before the measured loop, to warm the caches.
constexpr double kWarmupS = 1.0;
/// A host sample, at most every kHostEveryS between two requests:
/// kHostWarmTrips untimed PingPong round trips (they bring its pipes and
/// stacks back into cache after a request), then kHostTrips timed ones.
/// ~1% of the loop's time.  Each adjusted latency uses the samples of
/// its kAdjustWindowS window.
constexpr double kHostEveryS = 0.005;
constexpr int kHostTrips = 16;
constexpr int kHostWarmTrips = 4;
constexpr double kAdjustWindowS = 0.5;

} // namespace

void ServeReport::record(const Answer& answer)
{
    Reply reply;
    reply.ok = answer.ok;
    switch (queries.back().op) {
    case OpKind::distance: reply.distance = answer.distance; break;
    case OpKind::path:
        reply.reachable = answer.path.reachable;
        reply.distance = answer.path.distance;
        reply.first = static_cast<std::uint32_t>(path_nodes_.size());
        reply.count = static_cast<std::uint32_t>(answer.path.nodes.size());
        path_nodes_.insert(path_nodes_.end(), answer.path.nodes.begin(), answer.path.nodes.end());
        break;
    case OpKind::knearest:
        reply.first = static_cast<std::uint32_t>(near_.size());
        reply.count = static_cast<std::uint32_t>(answer.near.size());
        near_.insert(near_.end(), answer.near.begin(), answer.near.end());
        break;
    }
    replies_.push_back(reply);
}

Answer ServeReport::answer(std::size_t i) const
{
    const Reply& reply = replies_[i];
    Answer answer;
    answer.ok = reply.ok;
    switch (queries[i].op) {
    case OpKind::distance: answer.distance = reply.distance; break;
    case OpKind::path:
        answer.path.reachable = reply.reachable;
        answer.path.distance = reply.distance;
        answer.path.nodes.assign(path_nodes_.begin() + reply.first,
                                 path_nodes_.begin() + reply.first + reply.count);
        break;
    case OpKind::knearest:
        answer.near.assign(near_.begin() + reply.first, near_.begin() + reply.first + reply.count);
        break;
    }
    return answer;
}

ServeReport serve_closed_loop(std::shared_ptr<const ccq::QueryEngine> engine,
                              const std::function<Query()>& next_query,
                              const ServeConfig& config)
{
    ServeReport report;
    const ProcessPin pin(config.cpu); // server threads below inherit the one-CPU mask

    ccq::ServerConfig server_config;
    server_config.workers = 1;
    server_config.flight_records = 4096;
    ccq::Server server(engine, server_config);
    const int port = server.listen();
    std::exception_ptr server_error;
    std::thread server_thread([&] {
        try {
            server.run();
        } catch (...) {
            server_error = std::current_exception();
        }
    });

    try {
        ccq::Client client = ccq::Client::connect("127.0.0.1", port);
        for (const Clock::time_point warm = Clock::now(); seconds_since(warm) < kWarmupS;)
            (void)answer_with(client, next_query());

        PingPong host; // its echo thread inherits the one-CPU mask
        double host_s = 0.0;
        double host_last = -kHostEveryS;
        const ccq::CacheStats cache_before = engine->cache_stats();
        const std::uint64_t rows_before = engine->source().rows_materialized();
        const std::uint64_t hits_before = engine->source().row_cache_hits();
        const Clock::time_point start = Clock::now();
        while (true) {
            double at = seconds_since(start);
            if (at >= config.seconds) break;
            if (at - host_last >= kHostEveryS) {
                (void)host.round_trip_us(kHostWarmTrips);
                report.host_rt_us.push_back(static_cast<float>(host.round_trip_us(kHostTrips)));
                report.host_at_s.push_back(static_cast<float>(at));
                host_last = at;
                const double now = seconds_since(start);
                host_s += now - at;
                at = now;
            }
            const Clock::time_point sent = Clock::now();
            const Query query = next_query();
            Answer answer;
            try {
                answer = answer_with(client, query);
            } catch (const ccq::rpc_error&) {
                answer.ok = false; // typed server error: the connection stays usable
            }
            report.latency_us.push_back(
                std::chrono::duration<double, std::micro>(Clock::now() - sent).count());
            report.sent_s.push_back(static_cast<float>(at));
            report.queries.push_back(query);
            report.record(answer);
        }
        report.elapsed_s = seconds_since(start) - host_s;
        const ccq::CacheStats cache_after = engine->cache_stats();
        report.path_cache = {cache_after.hits - cache_before.hits,
                             cache_after.misses - cache_before.misses,
                             cache_after.evictions - cache_before.evictions};
        report.rows_materialized = engine->source().rows_materialized() - rows_before;
        report.row_cache_hits = engine->source().row_cache_hits() - hits_before;
        report.flight = client.flight_records();
        client.shutdown_server();
    } catch (...) {
        server.request_stop();
        server_thread.join();
        throw;
    }
    server_thread.join();
    if (server_error) std::rethrow_exception(server_error);
    return report;
}

LoadFigures load_figures(const ServeReport& report)
{
    LoadFigures figures;
    const std::size_t requests = report.latency_us.size();
    if (requests == 0 || report.host_rt_us.empty()) return figures;

    // Mean host round trip per window; a window without samples (a
    // request longer than the window) takes the run's mean.
    const auto window_of = [](float at) { return static_cast<std::size_t>(at / kAdjustWindowS); };
    const std::size_t windows = window_of(report.sent_s.back()) + 1;
    std::vector<double> rt_sum(windows, 0.0);
    std::vector<double> rt_count(windows, 0.0);
    double rt_total = 0.0;
    for (std::size_t i = 0; i < report.host_rt_us.size(); ++i) {
        const std::size_t w = std::min(window_of(report.host_at_s[i]), windows - 1);
        rt_sum[w] += report.host_rt_us[i];
        rt_count[w] += 1.0;
        rt_total += report.host_rt_us[i];
    }
    figures.host_rt_us = rt_total / static_cast<double>(report.host_rt_us.size());

    std::vector<double> adjusted(requests);
    double latency_total = 0.0;
    double adjusted_total = 0.0;
    for (std::size_t i = 0; i < requests; ++i) {
        const std::size_t w = window_of(report.sent_s[i]);
        const double rt = rt_count[w] > 0.0 ? rt_sum[w] / rt_count[w] : figures.host_rt_us;
        adjusted[i] = report.latency_us[i] * kReferenceRoundTripUs / rt;
        latency_total += report.latency_us[i];
        adjusted_total += adjusted[i];
    }
    figures.qps = static_cast<double>(requests) / report.elapsed_s;
    figures.p50_us = quantile(report.latency_us, 0.50);
    figures.p99_us = quantile(report.latency_us, 0.99);
    figures.qps_adj = figures.qps * latency_total / adjusted_total;
    figures.p50_adj_us = quantile(adjusted, 0.50);
    figures.p99_adj_us = quantile(std::move(adjusted), 0.99);
    return figures;
}

} // namespace perfbench
