// Query engine over a DistanceSource: the serve-many half of
// build-once/serve-many.
//
// The engine answers four query shapes against an immutable source:
// point distance (one source read), full path reconstruction (the
// source's route), k-nearest targets (row scan with the library's
// (weight, id) tie order), and batched query vectors, which are
// partitioned across the shared ccq::ThreadPool.
//
// The engine never branches on how the oracle is stored — dense
// in-memory, mmap'd file, or sparse spanner all arrive as the same
// DistanceSource interface (serve/distance_source.hpp); the
// snapshot-taking constructors below are conveniences that wrap the
// right concrete source.
//
// All query methods are const and safe to call concurrently: the
// source is read-only after construction, and the only mutable state
// — the LRU cache of reconstructed paths — is sharded by query key with
// one mutex per shard so concurrent walkers rarely contend.
#ifndef CCQ_SERVE_QUERY_ENGINE_HPP
#define CCQ_SERVE_QUERY_ENGINE_HPP

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <utility>
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

/// One entry of a k-nearest-targets answer.
struct NearTarget {
    NodeId node = -1;
    Weight distance = kInfinity;

    friend bool operator==(const NearTarget&, const NearTarget&) = default;
};

struct QueryEngineConfig {
    /// Concurrency of the batch entry points (0 = one per hardware
    /// thread, 1 = strictly serial on the caller).
    int threads = 0;
    /// Total reconstructed-path cache capacity, split across shards.
    /// 0 disables caching.
    std::size_t path_cache_capacity = 4096;
    /// Number of independent LRU shards (each with its own mutex).
    int cache_shards = 16;
};

/// Aggregate cache counters (monotonic since construction).
struct CacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0; ///< LRU entries displaced by inserts
};

class QueryEngine {
public:
    /// Serves any DistanceSource — the one constructor every other
    /// constructor delegates to.
    explicit QueryEngine(std::shared_ptr<const DistanceSource> source,
                         QueryEngineConfig config = {});

    /// Serves an in-memory snapshot.  Its cells are shared, not copied,
    /// so several engines (e.g. one per bench run, each with a cold
    /// cache) can serve the same n^2 data; a borrowing snapshot
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
    /// with routing tables).  Walks are hop-budgeted, so corrupted tables
    /// report unreachable instead of looping.  Results are cached.
    [[nodiscard]] PathResult path(NodeId from, NodeId to) const;

    /// The k targets nearest to `from` (excluding `from` itself and
    /// unreachable nodes), ordered by (distance, node id).  Returns fewer
    /// than k when fewer are reachable.
    [[nodiscard]] std::vector<NearTarget> nearest_targets(NodeId from, int k) const;

    /// Batched entry points: answers queries[i] into result[i], executing
    /// chunks of the batch concurrently on the shared ThreadPool.
    [[nodiscard]] std::vector<Weight> batch_distances(std::span<const PointQuery> queries) const;
    [[nodiscard]] std::vector<PathResult> batch_paths(std::span<const PointQuery> queries) const;

    [[nodiscard]] CacheStats cache_stats() const noexcept
    {
        return {cache_hits_.load(std::memory_order_relaxed),
                cache_misses_.load(std::memory_order_relaxed),
                cache_evictions_.load(std::memory_order_relaxed)};
    }

    /// Distribution of batch sizes seen by the batch entry points
    /// (one observation per batch_distances/batch_paths call).
    [[nodiscard]] obs::HistogramSnapshot batch_size_distribution() const noexcept
    {
        return batch_sizes_.snapshot();
    }

private:
    using PathPtr = std::shared_ptr<const PathResult>;

    /// One LRU shard: most-recent at the front of `order`.
    struct CacheShard {
        std::mutex mutex;
        std::list<std::pair<std::uint64_t, PathPtr>> order;
        std::unordered_map<std::uint64_t, std::list<std::pair<std::uint64_t, PathPtr>>::iterator>
            index;
    };

    [[nodiscard]] bool valid(NodeId v) const noexcept
    {
        return v >= 0 && v < meta_.node_count;
    }
    [[nodiscard]] std::uint64_t pair_key(NodeId from, NodeId to) const noexcept
    {
        return static_cast<std::uint64_t>(from) *
                   static_cast<std::uint64_t>(meta_.node_count) +
               static_cast<std::uint64_t>(to);
    }
    [[nodiscard]] CacheShard& shard_for(std::uint64_t key) const noexcept
    {
        // splitmix64 finalizer: pair_key is from*n + to, so a bare modulo
        // would pin every query for one destination to one shard whenever
        // n is a multiple of the shard count.
        std::uint64_t mixed = key + 0x9e3779b97f4a7c15ULL;
        mixed = (mixed ^ (mixed >> 30)) * 0xbf58476d1ce4e5b9ULL;
        mixed = (mixed ^ (mixed >> 27)) * 0x94d049bb133111ebULL;
        mixed ^= mixed >> 31;
        return shards_[mixed % shards_.size()];
    }
    [[nodiscard]] PathPtr cache_lookup(std::uint64_t key) const;
    void cache_insert(std::uint64_t key, PathPtr value) const;
    [[nodiscard]] PathResult reconstruct_path(NodeId from, NodeId to) const;
    [[nodiscard]] Weight estimate_at(NodeId from, NodeId to) const
    {
        return source_->distance(from, to);
    }
    void init_cache();

    std::shared_ptr<const DistanceSource> source_; ///< the one read path
    SnapshotMeta meta_;
    bool has_routing_ = false;
    QueryEngineConfig config_;
    std::size_t shard_capacity_ = 0; ///< max entries per shard (0 = caching off)
    mutable std::vector<CacheShard> shards_;
    mutable std::atomic<std::uint64_t> cache_hits_{0};
    mutable std::atomic<std::uint64_t> cache_misses_{0};
    mutable std::atomic<std::uint64_t> cache_evictions_{0};
    mutable obs::Histogram batch_sizes_;
};

} // namespace ccq

#endif // CCQ_SERVE_QUERY_ENGINE_HPP
