// The serving shape every workload measures: one process pinned to one
// CPU, a ccq::Server with one epoll worker on a loopback port, and one
// ccq::Client connection driving a closed loop (the next request is
// sent only after the previous reply arrived).  Between requests the
// loop samples the host's own pipe round trip on the same CPU, so the
// figures can be scaled to a fixed host speed (load_figures).
#ifndef CCQ_PERFBENCH_SERVE_LOOP_HPP
#define CCQ_PERFBENCH_SERVE_LOOP_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "ccq/apsp.hpp"

namespace perfbench {

enum class OpKind : std::uint8_t { distance, path, knearest };

/// One request of the load; `to` is unused for k-nearest.
struct Query {
    OpKind op = OpKind::distance;
    ccq::NodeId from = 0;
    ccq::NodeId to = 0;
};

/// k of every k-nearest request.
inline constexpr int kNearestK = 8;

/// What the client received for one query.
struct Answer {
    bool ok = false; ///< false when the request threw
    ccq::Weight distance = ccq::kInfinity;
    ccq::PathResult path;
    std::vector<ccq::NearTarget> near;
};

/// The host round trip the adjusted figures are scaled to: about the
/// PingPong round trip of a 4-vCPU cloud VM (Xeon, 2.1 GHz) in its fast
/// state.  Only ratios between runs matter; any fixed value would do.
inline constexpr double kReferenceRoundTripUs = 3.0;

struct ServeConfig {
    int cpu = 0;          ///< the one CPU the whole process runs on
    double seconds = 1.0; ///< measured closed-loop duration
};

/// The measured requests and what the client received, in issue order.
/// Answers are stored flat (path nodes and k-nearest entries in shared
/// arrays) so recording allocates a few large blocks rather than one
/// small block per request between the server's own allocations.
struct ServeReport {
    std::vector<Query> queries;
    std::vector<double> latency_us; ///< client-observed, per request
    std::vector<float> sent_s;      ///< send time from the loop's start, per request
    /// PingPong round trips (us) sampled between requests, and when.
    std::vector<float> host_rt_us;
    std::vector<float> host_at_s;
    double elapsed_s = 0.0; ///< the measured loop, host samples excluded
    std::vector<ccq::obs::RequestRecord> flight; ///< server records of the last requests
    ccq::CacheStats path_cache;                  ///< server engine, measured phase only
    std::uint64_t rows_materialized = 0;         ///< source rows built in the measured phase
    std::uint64_t row_cache_hits = 0;

    /// Appends the answer to the request just recorded in `queries`.
    void record(const Answer& answer);
    /// The answer to queries[i], rebuilt from the flat arrays.
    [[nodiscard]] Answer answer(std::size_t i) const;

private:
    struct Reply {
        bool ok = false;
        bool reachable = false;
        ccq::Weight distance = ccq::kInfinity;
        std::uint32_t first = 0; ///< into path_nodes_ or near_
        std::uint32_t count = 0;
    };
    std::vector<Reply> replies_;
    std::vector<ccq::NodeId> path_nodes_;
    std::vector<ccq::NearTarget> near_;
};

/// Figures of the whole measured loop.  The raw ones are what the
/// client saw.  The adjusted ones scale every latency by
/// kReferenceRoundTripUs over the mean host round trip sampled in the
/// same half second: a shared VM moves its syscall and context-switch
/// cost by up to 1.5x for tens of seconds at a time, and a loopback
/// request, several switches and syscalls, moves with it.
struct LoadFigures {
    double qps = 0.0;
    double p50_us = 0.0;
    double p99_us = 0.0;
    double host_rt_us = 0.0; ///< mean sampled host round trip
    double qps_adj = 0.0;
    double p50_adj_us = 0.0;
    double p99_adj_us = 0.0;
};

[[nodiscard]] LoadFigures load_figures(const ServeReport& report);

/// Serves `engine` over loopback and drives `next_query` in a closed loop.
[[nodiscard]] ServeReport serve_closed_loop(std::shared_ptr<const ccq::QueryEngine> engine,
                                            const std::function<Query()>& next_query,
                                            const ServeConfig& config);

/// `query` asked of a ccq::Client (over the wire) or a ccq::QueryEngine
/// (in process, what the wire must reproduce): both have the same calls.
template <class Queryable>
[[nodiscard]] Answer answer_with(Queryable& target, const Query& query)
{
    Answer answer;
    switch (query.op) {
    case OpKind::distance: answer.distance = target.distance(query.from, query.to); break;
    case OpKind::path: answer.path = target.path(query.from, query.to); break;
    case OpKind::knearest: answer.near = target.nearest_targets(query.from, kNearestK); break;
    }
    answer.ok = true;
    return answer;
}

} // namespace perfbench

#endif // CCQ_PERFBENCH_SERVE_LOOP_HPP
