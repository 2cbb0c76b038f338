#include "ccq/serve/query_engine.hpp"

#include <algorithm>
#include <utility>

namespace ccq {

QueryEngine::QueryEngine(std::shared_ptr<const DistanceSource> source, QueryEngineConfig config)
    : source_(std::move(source)), config_(config)
{
    CCQ_EXPECT(source_ != nullptr, "QueryEngine: null distance source");
    meta_ = source_->meta();
    has_routing_ = source_->has_routing();
}

QueryEngine::QueryEngine(OracleSnapshot snapshot, QueryEngineConfig config)
    : QueryEngine(std::make_shared<const DenseSnapshotSource>(std::move(snapshot)), config)
{
}

QueryEngine::QueryEngine(std::shared_ptr<const MappedSnapshot> mapped, QueryEngineConfig config)
    : QueryEngine(std::make_shared<const MappedSnapshotSource>(std::move(mapped)), config)
{
}

Weight QueryEngine::distance(NodeId from, NodeId to) const
{
    CCQ_EXPECT(valid(from) && valid(to), "QueryEngine::distance: node out of range");
    return source_->distance(from, to);
}

PathResult QueryEngine::reconstruct_path(NodeId from, NodeId to) const
{
    PathResult result;
    DistanceSource::Routed routed = source_->distance_and_route(from, to);
    result.distance = routed.distance;
    result.nodes = std::move(routed.nodes);
    // A walkable route paired with an infinite estimate (or vice versa)
    // only arises from a corrupted snapshot; serve it as unreachable
    // rather than as a self-contradictory answer.
    result.reachable = !result.nodes.empty() && is_finite(result.distance);
    if (!result.reachable) {
        result.distance = kInfinity;
        result.nodes.clear();
    }
    return result;
}

PathResult QueryEngine::path(NodeId from, NodeId to) const
{
    CCQ_EXPECT(valid(from) && valid(to), "QueryEngine::path: node out of range");
    CCQ_EXPECT(has_routing_,
               "QueryEngine::path: snapshot has no routing tables (rebuild with routing)");
    return reconstruct_path(from, to);
}

std::vector<NearTarget> QueryEngine::nearest_targets(NodeId from, int k) const
{
    CCQ_EXPECT(valid(from), "QueryEngine::nearest_targets: node out of range");
    CCQ_EXPECT(k >= 0, "QueryEngine::nearest_targets: k must be >= 0");
    // Whole-row read: sparse sources reconstruct the row once instead of
    // paying n virtual point lookups.
    std::vector<Weight> row(static_cast<std::size_t>(meta_.node_count), kInfinity);
    source_->fill_row(from, row);
    std::vector<NearTarget> candidates;
    candidates.reserve(static_cast<std::size_t>(meta_.node_count));
    for (NodeId v = 0; v < meta_.node_count; ++v) {
        if (v == from) continue;
        const Weight d = row[static_cast<std::size_t>(v)];
        if (!is_finite(d)) continue;
        candidates.push_back({v, d});
    }
    const std::size_t keep = std::min<std::size_t>(candidates.size(),
                                                   static_cast<std::size_t>(k));
    const auto by_weight_then_id = [](const NearTarget& a, const NearTarget& b) {
        return weight_id_less(a.distance, a.node, b.distance, b.node);
    };
    std::partial_sort(candidates.begin(),
                      candidates.begin() + static_cast<std::ptrdiff_t>(keep),
                      candidates.end(), by_weight_then_id);
    candidates.resize(keep);
    return candidates;
}

std::vector<Weight> QueryEngine::batch_distances(std::span<const PointQuery> queries) const
{
    batch_sizes_.record(static_cast<std::int64_t>(queries.size()));
    std::vector<Weight> results(queries.size(), kInfinity);
    parallel_chunks(resolved_thread_count(config_.threads), 0, static_cast<int>(queries.size()), 1,
                    [&](int begin, int end) {
                        for (int i = begin; i < end; ++i)
                            results[static_cast<std::size_t>(i)] =
                                distance(queries[static_cast<std::size_t>(i)].from,
                                         queries[static_cast<std::size_t>(i)].to);
                    });
    return results;
}

std::vector<PathResult> QueryEngine::batch_paths(std::span<const PointQuery> queries) const
{
    batch_sizes_.record(static_cast<std::int64_t>(queries.size()));
    std::vector<PathResult> results(queries.size());
    parallel_chunks(resolved_thread_count(config_.threads), 0, static_cast<int>(queries.size()), 1,
                    [&](int begin, int end) {
                        for (int i = begin; i < end; ++i)
                            results[static_cast<std::size_t>(i)] =
                                path(queries[static_cast<std::size_t>(i)].from,
                                     queries[static_cast<std::size_t>(i)].to);
                    });
    return results;
}

} // namespace ccq
