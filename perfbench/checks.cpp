#include "checks.hpp"

#include <algorithm>
#include <atomic>
#include <thread>

namespace perfbench {
namespace {

/// Runs body(i) for i in [0, count) on up to four threads.
template <class Body>
void parallel_for(std::size_t count, Body&& body)
{
    std::atomic<std::size_t> next{0};
    const unsigned workers = std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < workers; ++t)
        threads.emplace_back([&] {
            for (std::size_t i = next++; i < count; i = next++) body(i);
        });
    for (std::thread& thread : threads) thread.join();
}

} // namespace

ExactRows::ExactRows(const ccq::Graph& g, std::span<const ccq::NodeId> sources)
{
    std::vector<std::vector<ccq::Weight>> computed(sources.size());
    parallel_for(sources.size(), [&](std::size_t i) { computed[i] = ccq::dijkstra_from(g, sources[i]); });
    for (std::size_t i = 0; i < sources.size(); ++i) rows_[sources[i]] = std::move(computed[i]);
}

void StretchTally::add(ccq::Weight exact, ccq::Weight answer, double claimed)
{
    if (!ccq::is_finite(exact) || !ccq::is_finite(answer)) {
        if (ccq::is_finite(exact) != ccq::is_finite(answer)) ++violations;
        return;
    }
    if (answer < exact) {
        ++violations;
        return;
    }
    if (exact == 0) {
        if (answer != 0) ++violations;
        return;
    }
    const double stretch = static_cast<double>(answer) / static_cast<double>(exact);
    if (stretch > claimed * (1.0 + 1e-12)) ++violations;
    max_stretch = std::max(max_stretch, stretch);
    sum_stretch += stretch;
    ++ratios;
}

namespace {

/// One wire answer against the served row (bitwise), the in-process
/// engine (k-nearest, and dense paths), and the exact row (contract).
bool check_one(const Query& q, const Answer& got, const ccq::QueryEngine& reference,
               const ccq::Graph& g, const std::vector<ccq::Weight>& truth,
               const std::vector<ccq::Weight>& served, double claimed, bool exact_paths,
               StretchTally& stretch)
{
    if (!got.ok) return false;
    const std::uint64_t before = stretch.violations;
    const auto to = static_cast<std::size_t>(q.to);
    switch (q.op) {
    case OpKind::distance:
        if (got.distance != served[to]) return false;
        stretch.add(truth[to], got.distance, claimed);
        break;
    case OpKind::path: {
        const ccq::PathResult& path = got.path;
        if (path.reachable != ccq::is_finite(served[to]) ||
            (path.reachable && path.distance != served[to]))
            return false;
        // A spanner route is rebuilt by a fresh Dijkstra per walk; its
        // node sequence is checked as a walk instead of recomputed.
        if (!exact_paths && !(path == reference.path(q.from, q.to))) return false;
        stretch.add(truth[to], path.distance, claimed);
        if (path.reachable) {
            const ccq::Weight length = ccq::route_length(g, path.nodes);
            const bool ends = path.nodes.front() == q.from && path.nodes.back() == q.to;
            const bool bounded = exact_paths ? length == path.distance
                                             : truth[to] <= length && length <= path.distance;
            if (!ends || !ccq::is_finite(length) || !bounded) return false;
        }
        break;
    }
    case OpKind::knearest:
        if (got.near != reference.nearest_targets(q.from, kNearestK)) return false;
        for (const ccq::NearTarget& t : got.near)
            stretch.add(truth[static_cast<std::size_t>(t.node)], t.distance, claimed);
        break;
    }
    return stretch.violations == before;
}

/// Sources whose exact and served rows are held at once while checking.
constexpr std::size_t kChunkSources = 64;

} // namespace

WireCheck check_answers(const ServeReport& report, const ccq::QueryEngine& reference,
                        const ccq::Graph& g, double claimed, bool exact_paths)
{
    // Group by source: each source's exact row (Dijkstra on G) and served
    // row (the snapshot's, rebuilt by Dijkstra for a spanner) are computed
    // once, a bounded chunk of sources at a time.
    std::vector<std::size_t> order(report.queries.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return report.queries[a].from < report.queries[b].from;
    });

    WireCheck check;
    const auto n = static_cast<std::size_t>(g.node_count());
    for (std::size_t begin = 0; begin < order.size();) {
        std::vector<ccq::NodeId> chunk;
        std::size_t end = begin;
        for (; end < order.size(); ++end) {
            const ccq::NodeId s = report.queries[order[end]].from;
            if (chunk.empty() || chunk.back() != s) {
                if (chunk.size() == kChunkSources) break;
                chunk.push_back(s);
            }
        }
        std::vector<std::vector<ccq::Weight>> truth(chunk.size());
        std::vector<std::vector<ccq::Weight>> served(chunk.size(), std::vector<ccq::Weight>(n));
        parallel_for(chunk.size(), [&](std::size_t i) {
            truth[i] = ccq::dijkstra_from(g, chunk[i]);
            reference.source().fill_row(chunk[i], served[i]);
        });

        std::size_t at = 0;
        for (std::size_t k = begin; k < end; ++k) {
            const Query& q = report.queries[order[k]];
            const Answer got = report.answer(order[k]);
            while (chunk[at] != q.from) ++at;
            if (!check_one(q, got, reference, g, truth[at], served[at], claimed, exact_paths,
                           check.stretch))
                ++check.failed;
        }
        begin = end;
    }
    return check;
}

} // namespace perfbench
