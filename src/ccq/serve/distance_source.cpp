#include "ccq/serve/distance_source.hpp"

#include <algorithm>
#include <limits>
#include <type_traits>
#include <utility>
#include <variant>

#include "ccq/common/check.hpp"
#include "ccq/obs/trace.hpp"

namespace ccq {

const char* source_kind_name(SourceKind kind) noexcept
{
    switch (kind) {
    case SourceKind::dense: return "dense";
    case SourceKind::mapped: return "mapped";
    case SourceKind::spanner: return "spanner";
    }
    return "unknown";
}

namespace {

/// "Unreachable" in a narrow (u32) spanner row.
constexpr std::uint32_t kNarrowUnreachable = std::numeric_limits<std::uint32_t>::max();

/// The unreachable cell of a row of `Cell`s: kInfinity in a Weight row,
/// kNarrowUnreachable in a narrow one.  In both, finite cells keep their
/// values and sit below the sentinel, so cells compare as their Weights.
template <class Cell>
constexpr Cell unreachable_cell() noexcept
{
    if constexpr (std::is_same_v<Cell, Weight>)
        return kInfinity;
    else
        return kNarrowUnreachable;
}

/// A row cell as the Weight it stands for.
template <class Cell>
constexpr Weight widen(Cell cell) noexcept
{
    if constexpr (std::is_same_v<Cell, Weight>)
        return cell;
    else
        return cell == kNarrowUnreachable ? kInfinity : static_cast<Weight>(cell);
}

/// True when no simple path over `edges` weighs kNarrowUnreachable or
/// more, so every finite distance fits a narrow cell below it.
bool fits_narrow_cells(const std::vector<WeightedEdge>& edges)
{
    Weight total = 0;
    for (const WeightedEdge& e : edges) total = saturating_add(total, e.weight);
    return total < static_cast<Weight>(kNarrowUnreachable);
}

/// The kernel scratch of the calling thread, shared by every spanner
/// source it serves: after a thread's first run its misses and kernel
/// routes reuse the buffers.
DijkstraScratch& thread_scratch()
{
    thread_local DijkstraScratch scratch;
    return scratch;
}

template <class Cell>
std::vector<NearTarget> select_nearest_cells(std::span<const Cell> row, NodeId from, int k)
{
    CCQ_EXPECT(k >= 0, "select_nearest: k must be >= 0");
    const std::size_t keep = std::min(static_cast<std::size_t>(k), row.size());
    std::vector<NearTarget> best;
    if (keep == 0) return best;
    best.reserve(keep);
    // A max-heap on (distance, id): best.front() is the k-th nearest so far.
    const auto less = [](const NearTarget& a, const NearTarget& b) {
        return weight_id_less(a.distance, a.node, b.distance, b.node);
    };
    const std::size_t n = row.size();
    std::size_t v = 0;
    for (; v < n && best.size() < keep; ++v) {
        const Cell d = row[v];
        if (static_cast<NodeId>(v) == from || d >= unreachable_cell<Cell>()) continue;
        best.push_back({static_cast<NodeId>(v), static_cast<Weight>(d)});
        std::push_heap(best.begin(), best.end(), less);
    }
    // Full heap: ids rise with v, so a cell at the k-th distance loses
    // the (distance, id) tie too, and `d >= bound` passes over it along
    // with everything farther and every unreachable cell.
    Cell bound = best.size() == keep ? static_cast<Cell>(best.front().distance)
                                     : unreachable_cell<Cell>();
    for (; v < n; ++v) {
        const Cell d = row[v];
        if (d >= bound || static_cast<NodeId>(v) == from) continue;
        std::pop_heap(best.begin(), best.end(), less);
        best.back() = {static_cast<NodeId>(v), static_cast<Weight>(d)};
        std::push_heap(best.begin(), best.end(), less);
        bound = static_cast<Cell>(best.front().distance);
    }
    std::sort_heap(best.begin(), best.end(), less);
    return best;
}

} // namespace

std::vector<NearTarget> select_nearest(std::span<const Weight> row, NodeId from, int k)
{
    return select_nearest_cells(row, from, k);
}

// --- DenseSnapshotSource ----------------------------------------------------

DenseSnapshotSource::DenseSnapshotSource(OracleSnapshot snapshot) : snapshot_(std::move(snapshot))
{
    CCQ_EXPECT(snapshot_.estimate != nullptr, "DenseSnapshotSource: snapshot has no estimate");
    CCQ_EXPECT(snapshot_.meta.node_count == snapshot_.estimate->size(),
               "DenseSnapshotSource: snapshot meta/estimate mismatch");
    CCQ_EXPECT(snapshot_.routing == nullptr ||
                   snapshot_.routing->size() == snapshot_.meta.node_count,
               "DenseSnapshotSource: snapshot routing size mismatch");
}

Weight DenseSnapshotSource::distance(NodeId from, NodeId to) const
{
    return snapshot_.estimate->at(from, to);
}

void DenseSnapshotSource::fill_row(NodeId from, std::span<Weight> out) const
{
    const int n = snapshot_.meta.node_count;
    CCQ_EXPECT(from >= 0 && from < n, "DenseSnapshotSource::fill_row: node out of range");
    CCQ_EXPECT(out.size() == static_cast<std::size_t>(n),
               "DenseSnapshotSource::fill_row: bad row size");
    const Weight* row =
        snapshot_.estimate->data() + static_cast<std::size_t>(from) * static_cast<std::size_t>(n);
    std::copy_n(row, static_cast<std::size_t>(n), out.data());
}

std::vector<NearTarget> DenseSnapshotSource::nearest_targets(NodeId from, int k) const
{
    const auto n = static_cast<std::size_t>(snapshot_.meta.node_count);
    CCQ_EXPECT(from >= 0 && static_cast<std::size_t>(from) < n,
               "DenseSnapshotSource::nearest_targets: node out of range");
    return select_nearest({snapshot_.estimate->data() + static_cast<std::size_t>(from) * n, n},
                          from, k);
}

DistanceSource::Routed DenseSnapshotSource::distance_and_route(NodeId from, NodeId to) const
{
    CCQ_EXPECT(snapshot_.routing != nullptr,
               "DenseSnapshotSource::route: snapshot has no routing tables");
    return {distance(from, to), snapshot_.routing->route(from, to)};
}

std::uint64_t DenseSnapshotSource::stored_cells() const noexcept
{
    const std::uint64_t n = static_cast<std::uint64_t>(snapshot_.meta.node_count);
    return n * n;
}

// --- MappedSnapshotSource ---------------------------------------------------

MappedSnapshotSource::MappedSnapshotSource(std::shared_ptr<const MappedSnapshot> mapped)
    : mapped_(std::move(mapped))
{
    CCQ_EXPECT(mapped_ != nullptr, "MappedSnapshotSource: null mapped snapshot");
}

Weight MappedSnapshotSource::distance(NodeId from, NodeId to) const
{
    return mapped_->distance(from, to);
}

void MappedSnapshotSource::fill_row(NodeId from, std::span<Weight> out) const
{
    const std::span<const Weight> row = mapped_->row(from);
    CCQ_EXPECT(out.size() == row.size(), "MappedSnapshotSource::fill_row: bad row size");
    std::ranges::copy(row, out.begin());
}

std::vector<NearTarget> MappedSnapshotSource::nearest_targets(NodeId from, int k) const
{
    return select_nearest(mapped_->row(from), from, k);
}

DistanceSource::Routed MappedSnapshotSource::distance_and_route(NodeId from, NodeId to) const
{
    return {mapped_->distance(from, to), mapped_->route(from, to)};
}

std::uint64_t MappedSnapshotSource::stored_cells() const noexcept
{
    const std::uint64_t n = static_cast<std::uint64_t>(mapped_->node_count());
    return n * n;
}

// --- SpannerDistanceSource --------------------------------------------------

SpannerDistanceSource::SpannerDistanceSource(SparseSnapshot snapshot, SpannerSourceConfig config)
    : meta_(snapshot.meta),
      stretch_bound_(snapshot.stretch_bound),
      parameter_k_(snapshot.parameter_k),
      construction_(std::move(snapshot.construction)),
      spanner_edges_(snapshot.edges.size()),
      arcs_(snapshot.spanner_graph()),
      zero_weight_(std::ranges::any_of(snapshot.edges,
                                       [](const WeightedEdge& e) { return e.weight == 0; })),
      narrow_(fits_narrow_cells(snapshot.edges))
{
    // shards * (rows / shards) <= rows, and with no more shards than
    // rows every shard holds at least one (0 rows: caching off).
    const std::size_t shard_count =
        std::clamp<std::size_t>(config.row_cache_rows, 1, kMaxRowShards);
    shard_capacity_ = config.row_cache_rows / shard_count;
    shards_ = std::vector<RowShard>(shard_count);
}

SpannerDistanceSource::RowPtr SpannerDistanceSource::materialize(NodeId from) const
{
    // The kernel runs on this thread's scratch (rows are read from several
    // event loops at once), so on a warm thread the fresh row is the only
    // block a miss allocates: the distances are narrowed or copied into
    // it, and it becomes the cached row.
    DijkstraScratch& scratch = thread_scratch();
    dijkstra(arcs_, from, scratch);
    rows_materialized_.fetch_add(1, std::memory_order_relaxed);
    const std::vector<Weight>& dist = scratch.dist;
    if (!narrow_) return std::make_shared<const Row>(std::in_place_type<std::vector<Weight>>, dist);
    std::vector<std::uint32_t> cells(dist.size());
    std::ranges::transform(dist, cells.begin(), [](Weight d) {
        return is_finite(d) ? static_cast<std::uint32_t>(d) : kNarrowUnreachable;
    });
    return std::make_shared<const Row>(std::move(cells));
}

SpannerDistanceSource::RowPtr SpannerDistanceSource::row(NodeId from) const
{
    CCQ_EXPECT(from >= 0 && from < meta_.node_count,
               "SpannerDistanceSource: node out of range");
    if (shard_capacity_ == 0) return materialize(from);
    RowShard& shard = shards_[static_cast<std::size_t>(from) % shards_.size()];
    {
        std::lock_guard<std::mutex> lock(shard.mutex);
        const auto it = shard.index.find(from);
        if (it != shard.index.end()) {
            shard.order.splice(shard.order.begin(), shard.order, it->second); // touch
            row_cache_hits_.fetch_add(1, std::memory_order_relaxed);
            return it->second->second;
        }
    }
    // Dijkstra outside the shard lock: concurrent misses on the same row
    // may both compute it (identical answers), but never block each
    // other or readers of other rows in the shard.
    obs::TraceSpan span("serve/spanner_row", "serve");
    RowPtr fresh = materialize(from);
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (const auto it = shard.index.find(from); it != shard.index.end())
        return it->second->second; // a concurrent walker beat us
    shard.order.emplace_front(from, fresh);
    shard.index.emplace(from, shard.order.begin());
    if (shard.index.size() > shard_capacity_) {
        shard.index.erase(shard.order.back().first);
        shard.order.pop_back();
    }
    return fresh;
}

Weight SpannerDistanceSource::distance(NodeId from, NodeId to) const
{
    CCQ_EXPECT(to >= 0 && to < meta_.node_count, "SpannerDistanceSource: node out of range");
    const RowPtr cells = row(from);
    return std::visit([to](const auto& row) { return widen(row[static_cast<std::size_t>(to)]); },
                      *cells);
}

void SpannerDistanceSource::fill_row(NodeId from, std::span<Weight> out) const
{
    CCQ_EXPECT(out.size() == static_cast<std::size_t>(meta_.node_count),
               "SpannerDistanceSource::fill_row: bad row size");
    const RowPtr cells = row(from);
    std::visit(
        [out](const auto& row) {
            std::ranges::transform(row, out.begin(), [](auto cell) { return widen(cell); });
        },
        *cells);
}

std::vector<NearTarget> SpannerDistanceSource::nearest_targets(NodeId from, int k) const
{
    const RowPtr cells = row(from);
    return std::visit(
        [from, k](const auto& row) { return select_nearest_cells(std::span(row), from, k); },
        *cells);
}

DistanceSource::Routed SpannerDistanceSource::distance_and_route(NodeId from, NodeId to) const
{
    CCQ_EXPECT(from >= 0 && from < meta_.node_count && to >= 0 && to < meta_.node_count,
               "SpannerDistanceSource::route: node out of range");
    if (zero_weight_) return kernel_route(from, to);
    const RowPtr cells = row(from);
    return std::visit(
        [&](const auto& row) -> Routed {
            return {widen(row[static_cast<std::size_t>(to)]), walk_row(std::span(row), from, to)};
        },
        *cells);
}

template <class Cell>
std::vector<NodeId> SpannerDistanceSource::walk_row(std::span<const Cell> cells, NodeId from,
                                                    NodeId to) const
{
    const auto d = [&](NodeId v) { return widen(cells[static_cast<std::size_t>(v)]); };
    if (!is_finite(d(to))) return {};
    // Mark the nodes on some shortest from -> to path: backwards from
    // `to`, x joins through a marked v when the arc x -> v is tight.
    // (Arcs come in both directions, so v's arcs list every such x.)
    std::vector<char> marked(static_cast<std::size_t>(meta_.node_count), 0);
    std::vector<NodeId> stack{to};
    marked[static_cast<std::size_t>(to)] = 1;
    while (!stack.empty()) {
        const NodeId v = stack.back();
        stack.pop_back();
        for (const Edge& e : arcs_.arcs(v)) {
            char& mark = marked[static_cast<std::size_t>(e.to)];
            if (mark == 0 && saturating_add(d(e.to), e.weight) == d(v)) {
                mark = 1;
                stack.push_back(e.to);
            }
        }
    }
    // Forward from `from`: the smallest-id marked neighbour across a
    // tight arc.  For a node on a shortest path these are exactly its
    // tight neighbours toward `to`, the kernel's choice; d rises with
    // every hop, so the walk ends at `to` within n - 1 hops.
    std::vector<NodeId> path{from};
    for (NodeId u = from; u != to;) {
        NodeId next = -1;
        for (const Edge& e : arcs_.arcs(u))
            if (marked[static_cast<std::size_t>(e.to)] != 0 && (next < 0 || e.to < next) &&
                saturating_add(d(u), e.weight) == d(e.to))
                next = e.to;
        if (next < 0 || path.size() == static_cast<std::size_t>(meta_.node_count))
            return {}; // guards only
        path.push_back(u = next);
    }
    return path;
}

DistanceSource::Routed SpannerDistanceSource::kernel_route(NodeId from, NodeId to) const
{
    // Dijkstra from `to`: toward[v] is v's next hop toward it, always a
    // node settled before v, so the walk ends at `to` within n - 1 hops.
    DijkstraScratch& scratch = thread_scratch();
    dijkstra(arcs_, to, scratch, /*with_toward=*/true);
    rows_materialized_.fetch_add(1, std::memory_order_relaxed);
    const Weight distance = scratch.dist[static_cast<std::size_t>(from)];
    if (!is_finite(distance)) return {};
    std::vector<NodeId> path{from};
    for (NodeId v = from; v != to; path.push_back(v)) {
        if (path.size() == static_cast<std::size_t>(meta_.node_count)) return {}; // a guard only
        v = scratch.toward[static_cast<std::size_t>(v)];
    }
    return {distance, std::move(path)};
}

// --- factory ----------------------------------------------------------------

std::shared_ptr<const DistanceSource> open_distance_source(const std::string& path,
                                                           const DistanceSourceOptions& options)
{
    const SnapshotFormat format = peek_snapshot_format(path);
    if (format == SnapshotFormat::v3_spanner) {
        SpannerSourceConfig config;
        config.row_cache_rows = options.spanner_row_cache_rows;
        return std::make_shared<const SpannerDistanceSource>(load_sparse_snapshot(path), config);
    }
    if (options.prefer_mmap)
        return std::make_shared<const MappedSnapshotSource>(
            std::make_shared<const MappedSnapshot>(path));
    return std::make_shared<const DenseSnapshotSource>(load_snapshot(path));
}

} // namespace ccq
