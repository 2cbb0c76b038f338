// The versioned read path of the serving stack: every consumer of
// distance estimates (QueryEngine, path reconstruction, k-nearest,
// batching, the wire server) queries an abstract
// DistanceSource instead of branching on how the snapshot is stored.
//
// Three concrete sources exist today:
//
//   DenseSnapshotSource    an in-memory OracleSnapshot (shared cells)
//   MappedSnapshotSource   an mmap'd dense file (lazy v2 row decode)
//   SpannerDistanceSource  a sparse v3 snapshot: only the spanner edge
//                          list is stored; distances are reconstructed
//                          at query time by Dijkstra over the spanner,
//                          one source row at a time, with a sharded LRU
//                          row cache absorbing reuse
//
// The dense pair answers with the snapshot's exact stored cells — the
// refactor is test-enforced bitwise-identical to the pre-DistanceSource
// engine.  The spanner source answers within the construction's stretch
// bound: exact <= answer <= stretch * exact (also test-enforced).
//
// This is the storage/serving trade-off of the deterministic
// spanner-based APSP route (Censor-Hillel–Dory–Korhonen–Leitersdorf,
// arXiv 1903.05956): O(k n^{1+1/k}) stored cells instead of n^2, paid
// for with per-row Dijkstra latency on cache misses.
#ifndef CCQ_SERVE_DISTANCE_SOURCE_HPP
#define CCQ_SERVE_DISTANCE_SOURCE_HPP

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "ccq/graph/dijkstra.hpp"
#include "ccq/serve/snapshot.hpp"

namespace ccq {

/// How a DistanceSource stores its answers.  On the stats wire (and in
/// metrics) since stats v3, so the integer values are a contract.
enum class SourceKind : std::uint8_t {
    dense = 0,   ///< in-memory n^2 estimate
    mapped = 1,  ///< mmap'd dense file
    spanner = 2, ///< sparse spanner, rows reconstructed on demand
};

/// "dense" / "mapped" / "spanner" (metric label values, logs, JSON).
[[nodiscard]] const char* source_kind_name(SourceKind kind) noexcept;

/// A read-only oracle: answers distance (and optionally path) queries
/// for one immutable snapshot.  All methods are const and thread-safe;
/// implementations may keep internal caches but must answer every query
/// identically regardless of cache state (cold == warm, test-enforced).
class DistanceSource {
public:
    virtual ~DistanceSource() = default;

    [[nodiscard]] virtual SourceKind kind() const noexcept = 0;
    [[nodiscard]] virtual const SnapshotMeta& meta() const noexcept = 0;
    /// True when paths can be answered (routing tables, or a structure —
    /// like the spanner — that paths can be computed from).
    [[nodiscard]] virtual bool has_routing() const noexcept = 0;

    /// Distance estimate for (from, to); kInfinity when unreachable.
    /// Both nodes must be in range (callers validate).
    [[nodiscard]] virtual Weight distance(NodeId from, NodeId to) const = 0;

    /// Copies the full estimate row of `from` into `out` (size n).  Row
    /// consumers (k-nearest scans) go through this so sparse sources pay
    /// one reconstruction per row, not n virtual point lookups.
    virtual void fill_row(NodeId from, std::span<Weight> out) const = 0;

    /// A path query's answer: the pair's distance estimate and its route.
    struct Routed {
        Weight distance = kInfinity;
        /// from -> ... -> to; empty when unreachable (or when a corrupted
        /// table breaks the walk).
        std::vector<NodeId> nodes;
    };
    /// distance(from, to) and the route, read together: a source that
    /// derives routes from its rows reads the row of `from` once for
    /// both.  Requires has_routing().
    [[nodiscard]] virtual Routed distance_and_route(NodeId from, NodeId to) const = 0;

    /// The route alone (distance_and_route(from, to).nodes).
    [[nodiscard]] std::vector<NodeId> route(NodeId from, NodeId to) const
    {
        return distance_and_route(from, to).nodes;
    }

    /// Cells the backing snapshot actually stores: n^2 for dense
    /// formats, the spanner edge count for v3.  On the stats wire.
    [[nodiscard]] virtual std::uint64_t stored_cells() const noexcept = 0;

    /// Lazy-row bookkeeping; zero for sources that store rows directly.
    [[nodiscard]] virtual std::uint64_t rows_materialized() const noexcept { return 0; }
    [[nodiscard]] virtual std::uint64_t row_cache_hits() const noexcept { return 0; }

    [[nodiscard]] int node_count() const noexcept { return meta().node_count; }
};

/// Dense source over an in-memory snapshot.  The snapshot's cells are
/// shared, not copied: a borrowing snapshot (OracleSnapshot::from_result)
/// must outlive the source.
class DenseSnapshotSource final : public DistanceSource {
public:
    explicit DenseSnapshotSource(OracleSnapshot snapshot);

    [[nodiscard]] SourceKind kind() const noexcept override { return SourceKind::dense; }
    [[nodiscard]] const SnapshotMeta& meta() const noexcept override { return snapshot_.meta; }
    [[nodiscard]] bool has_routing() const noexcept override
    {
        return snapshot_.routing != nullptr;
    }
    [[nodiscard]] Weight distance(NodeId from, NodeId to) const override;
    void fill_row(NodeId from, std::span<Weight> out) const override;
    [[nodiscard]] Routed distance_and_route(NodeId from, NodeId to) const override;
    [[nodiscard]] std::uint64_t stored_cells() const noexcept override;

    [[nodiscard]] const OracleSnapshot& snapshot() const noexcept { return snapshot_; }

private:
    OracleSnapshot snapshot_;
};

/// Dense source over an mmap'd snapshot file (decode-once lazy rows
/// inside MappedSnapshot).
class MappedSnapshotSource final : public DistanceSource {
public:
    explicit MappedSnapshotSource(std::shared_ptr<const MappedSnapshot> mapped);

    [[nodiscard]] SourceKind kind() const noexcept override { return SourceKind::mapped; }
    [[nodiscard]] const SnapshotMeta& meta() const noexcept override { return mapped_->meta(); }
    [[nodiscard]] bool has_routing() const noexcept override { return mapped_->has_routing(); }
    [[nodiscard]] Weight distance(NodeId from, NodeId to) const override;
    void fill_row(NodeId from, std::span<Weight> out) const override;
    [[nodiscard]] Routed distance_and_route(NodeId from, NodeId to) const override;
    [[nodiscard]] std::uint64_t stored_cells() const noexcept override;

    [[nodiscard]] const MappedSnapshot& mapped() const noexcept { return *mapped_; }

private:
    std::shared_ptr<const MappedSnapshot> mapped_;
};

struct SpannerSourceConfig {
    /// Most reconstructed rows kept across queries, split over
    /// min(16, row_cache_rows) LRU shards with one mutex each (0 disables
    /// caching: every point query runs a fresh Dijkstra — correct but
    /// slow).
    std::size_t row_cache_rows = 1024;
};

/// Sparse source over a v3 snapshot: the spanner is held as an ArcTable
/// (both directions of each stored edge), and the row for a query source
/// is materialized on first touch by the shared Dijkstra kernel
/// (graph/dijkstra.hpp) over the spanner.  Materialized rows live in a
/// sharded LRU keyed by source node; rows_materialized()/row_cache_hits()
/// expose the hit economics to stats and metrics, and every kernel run a
/// query makes counts as one materialized row.
///
/// route(u, v) walks the row of u: it marks the nodes on some shortest
/// u -> v path (backwards from v over tight arcs), then steps from u to
/// the smallest-id marked neighbour x with d(x) = d(here) + w.  With
/// weights >= 1 that is exactly the kernel's next hop toward v, so the
/// route equals build_routing_tables(spanner).route(u, v).  Zero-weight
/// ties follow the kernel's settle order instead, so a spanner with a
/// zero-weight edge runs the kernel from v per route, as the tables do.
///
/// Answers obey exact <= distance(u,v) <= stretch_bound * exact, where
/// exact is the true distance in the source graph (spanner guarantee).
class SpannerDistanceSource final : public DistanceSource {
public:
    explicit SpannerDistanceSource(SparseSnapshot snapshot, SpannerSourceConfig config = {});

    [[nodiscard]] SourceKind kind() const noexcept override { return SourceKind::spanner; }
    [[nodiscard]] const SnapshotMeta& meta() const noexcept override { return meta_; }
    /// Paths come from the same cached rows that answer distances, so a
    /// spanner source always routes — no n^2 next-hop tables needed.
    [[nodiscard]] bool has_routing() const noexcept override { return true; }
    [[nodiscard]] Weight distance(NodeId from, NodeId to) const override;
    void fill_row(NodeId from, std::span<Weight> out) const override;
    [[nodiscard]] Routed distance_and_route(NodeId from, NodeId to) const override;
    [[nodiscard]] std::uint64_t stored_cells() const noexcept override
    {
        return spanner_edges_;
    }
    [[nodiscard]] std::uint64_t rows_materialized() const noexcept override
    {
        return rows_materialized_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t row_cache_hits() const noexcept override
    {
        return row_cache_hits_.load(std::memory_order_relaxed);
    }

    [[nodiscard]] int stretch_bound() const noexcept { return stretch_bound_; }
    [[nodiscard]] int parameter_k() const noexcept { return parameter_k_; }
    [[nodiscard]] const std::string& construction() const noexcept { return construction_; }

private:
    using RowPtr = std::shared_ptr<const std::vector<Weight>>;

    struct RowShard {
        std::mutex mutex;
        std::list<std::pair<NodeId, RowPtr>> order; ///< most-recent first
        std::unordered_map<NodeId, std::list<std::pair<NodeId, RowPtr>>::iterator> index;
    };

    [[nodiscard]] RowPtr row(NodeId from) const;
    [[nodiscard]] RowPtr materialize(NodeId from) const;
    [[nodiscard]] std::vector<NodeId> walk_row(const std::vector<Weight>& dist, NodeId from,
                                               NodeId to) const;
    [[nodiscard]] Routed kernel_route(NodeId from, NodeId to) const;

    SnapshotMeta meta_;
    int stretch_bound_ = 1;
    int parameter_k_ = 1;
    std::string construction_;
    std::uint64_t spanner_edges_ = 0;

    ArcTable arcs_; ///< the spanner, both directions of every edge
    bool zero_weight_ = false; ///< some edge weighs 0: routes take kernel_route

    static constexpr std::size_t kMaxRowShards = 16;
    std::size_t shard_capacity_ = 0; ///< rows per shard (0 = caching off)
    mutable std::vector<RowShard> shards_;
    mutable std::atomic<std::uint64_t> rows_materialized_{0};
    mutable std::atomic<std::uint64_t> row_cache_hits_{0};
};

struct DistanceSourceOptions {
    /// Dense files: serve from an mmap instead of an eager load.
    /// Ignored for v3 (the sparse edge list loads eagerly either way).
    bool prefer_mmap = false;
    /// Row cache of a spanner source (v3 files only).
    std::size_t spanner_row_cache_rows = 1024;
};

/// Opens a snapshot file of any format as the right DistanceSource:
/// peeks the envelope version, then loads v2 as a dense (or mmap)
/// source and v3 as a SpannerDistanceSource.  This is how ccq_served,
/// ccq_serve query, and bench auto-detect v3.
[[nodiscard]] std::shared_ptr<const DistanceSource>
open_distance_source(const std::string& path, const DistanceSourceOptions& options = {});

} // namespace ccq

#endif // CCQ_SERVE_DISTANCE_SOURCE_HPP
