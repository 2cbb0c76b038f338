// Query engine over a DistanceSource: the serve-many half of
// build-once/serve-many.
//
// The engine answers four query shapes against an immutable source:
// point distance (one source read), full path reconstruction (the
// source's route), k-nearest targets (a bounded selection over the
// source's row, in the library's (weight, id) tie order), and batched
// query vectors, which are partitioned across the shared
// ccq::ThreadPool.
//
// The engine never branches on how the oracle is stored — dense
// in-memory, mmap'd file, or sparse spanner all arrive as the same
// DistanceSource interface (serve/distance_source.hpp); the
// snapshot-taking constructors below are conveniences that wrap the
// right concrete source.
//
// All query methods are const and safe to call concurrently: the
// source is read-only after construction, and every path comes straight
// from it (a dense source walks its stored next hops, a spanner source
// its cached source row), so the engine keeps no answer cache of its
// own.
#ifndef CCQ_SERVE_QUERY_ENGINE_HPP
#define CCQ_SERVE_QUERY_ENGINE_HPP

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "ccq/common/parallel.hpp"
#include "ccq/obs/metrics.hpp"
#include "ccq/serve/distance_source.hpp"
#include "ccq/serve/snapshot.hpp"

namespace ccq {

/// A (source, destination) point query.
struct PointQuery {
    NodeId from = 0;
    NodeId to = 0;

    friend bool operator==(const PointQuery&, const PointQuery&) = default;
};

/// Result of a path-reconstruction query.
struct PathResult {
    bool reachable = false;
    /// The snapshot's estimate for the pair; kInfinity whenever the walk
    /// failed (true unreachability or a corrupted table).
    Weight distance = kInfinity;
    std::vector<NodeId> nodes;    ///< from -> ... -> to; empty when unreachable

    friend bool operator==(const PathResult&, const PathResult&) = default;
};

struct QueryEngineConfig {
    /// Concurrency of the batch entry points (0 = one per hardware
    /// thread, 1 = strictly serial on the caller).
    int threads = 0;
};

/// Path-cache counters, always zero: the engine no longer caches paths.
/// Kept only because perfbench/ still reads them; delete them together
/// with those reads.
struct CacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
};

class QueryEngine {
public:
    /// Serves any DistanceSource — the one constructor every other
    /// constructor delegates to.
    explicit QueryEngine(std::shared_ptr<const DistanceSource> source,
                         QueryEngineConfig config = {});

    /// Serves an in-memory snapshot.  Its cells are shared, not copied,
    /// so several engines can serve the same n^2 data; a borrowing snapshot
    /// (OracleSnapshot::from_result) must outlive the engine.
    explicit QueryEngine(OracleSnapshot snapshot, QueryEngineConfig config = {});

    /// Serves straight from an mmap'd snapshot (lazy row decode for the
    /// compressed codec); the mapping is shared and must stay alive for
    /// the engine's lifetime, which the shared_ptr guarantees.
    explicit QueryEngine(std::shared_ptr<const MappedSnapshot> mapped,
                         QueryEngineConfig config = {});

    [[nodiscard]] int node_count() const noexcept { return meta_.node_count; }
    [[nodiscard]] const SnapshotMeta& meta() const noexcept { return meta_; }
    [[nodiscard]] bool has_routing() const noexcept { return has_routing_; }
    /// The source answering this engine's queries.
    [[nodiscard]] const DistanceSource& source() const noexcept { return *source_; }
    [[nodiscard]] SourceKind source_kind() const noexcept { return source_->kind(); }

    /// Distance estimate for (from, to); kInfinity when unreachable.
    [[nodiscard]] Weight distance(NodeId from, NodeId to) const;

    /// Full path reconstruction by next-hop walking (requires a snapshot
    /// with routing tables): one source_->distance_and_route call per
    /// query.  Walks are hop-budgeted, so corrupted tables report
    /// unreachable instead of looping.
    [[nodiscard]] PathResult path(NodeId from, NodeId to) const;

    /// The k targets nearest to `from` (excluding `from` itself and
    /// unreachable nodes), ordered by (distance, node id).  Returns fewer
    /// than k when fewer are reachable.  The source's nearest_targets:
    /// select_nearest over the row where the source keeps it.
    [[nodiscard]] std::vector<NearTarget> nearest_targets(NodeId from, int k) const;

    /// Batched entry points: answers queries[i] into result[i], executing
    /// chunks of the batch concurrently on the shared ThreadPool.
    [[nodiscard]] std::vector<Weight> batch_distances(std::span<const PointQuery> queries) const;
    [[nodiscard]] std::vector<PathResult> batch_paths(std::span<const PointQuery> queries) const;

    /// Always zero (see CacheStats).
    [[nodiscard]] CacheStats cache_stats() const noexcept { return {}; }

    /// Distribution of batch sizes seen by the batch entry points
    /// (one observation per batch_distances/batch_paths call).
    [[nodiscard]] obs::HistogramSnapshot batch_size_distribution() const noexcept
    {
        return batch_sizes_.snapshot();
    }

private:
    [[nodiscard]] bool valid(NodeId v) const noexcept
    {
        return v >= 0 && v < meta_.node_count;
    }
    [[nodiscard]] PathResult reconstruct_path(NodeId from, NodeId to) const;

    std::shared_ptr<const DistanceSource> source_; ///< the one read path
    SnapshotMeta meta_;
    bool has_routing_ = false;
    QueryEngineConfig config_;
    mutable obs::Histogram batch_sizes_;
};

} // namespace ccq

#endif // CCQ_SERVE_QUERY_ENGINE_HPP
