#include "ccq/core/routing.hpp"

#include <algorithm>
#include <atomic>
#include <string>
#include <utility>

#include "ccq/graph/dijkstra.hpp"
#include "ccq/obs/trace.hpp"

namespace ccq {

namespace {

/// Per-thread tile of toward-columns: about 1 MiB, at most 64
/// destinations wide so small graphs still split across threads.
constexpr std::size_t kTileBytes = std::size_t{1} << 20;
constexpr std::size_t kMaxBlock = 64;

} // namespace

std::vector<NodeId> RoutingTables::route(NodeId from, NodeId to) const
{
    CCQ_EXPECT(valid(from) && valid(to), "RoutingTables::route: out of range");
    return walk_next_hops(from, to, n_, [&](NodeId at) {
        return next_hop_[static_cast<std::size_t>(at) * static_cast<std::size_t>(n_) +
                         static_cast<std::size_t>(to)];
    });
}

RoutingTables build_routing_tables(const Graph& backbone, const EngineConfig& engine)
{
    CCQ_EXPECT(!backbone.is_directed(), "build_routing_tables: undirected backbone required");
    const int n = backbone.node_count();
    const int threads = engine.resolved_threads();
    obs::TraceSpan span("routing/build", "core",
                        "{\"n\":" + std::to_string(n) + ",\"threads\":" +
                            std::to_string(threads) + "}");
    const std::size_t row = static_cast<std::size_t>(n);
    std::vector<NodeId> next(row * row, -1);

    // One Dijkstra per destination over the backbone; the tight-arc hops
    // toward the destination are exactly the next hops.  (Each node can
    // do this locally once the backbone is broadcast.)  Destinations run
    // in blocks: a task gathers its block's toward-columns into a tile,
    // then writes the tile row-major into `next`, one run of cells per
    // node instead of one cell per n-stride.
    const ArcTable arcs(backbone);
    const int block = static_cast<int>(
        std::clamp<std::size_t>(kTileBytes / (std::max<std::size_t>(row, 1) * sizeof(NodeId)),
                                1, kMaxBlock));
    // Each task's scratch is allocated here, on the calling thread: freed,
    // it returns to this thread's heap, where the snapshot built next
    // reuses it, instead of staying parked in a pool worker's arena.
    struct TaskScratch {
        DijkstraScratch dijkstra;
        std::vector<NodeId> tile;
    };
    const int tasks = std::max(1, std::min(threads, (n + block - 1) / block));
    std::vector<TaskScratch> scratch(static_cast<std::size_t>(tasks));
    for (TaskScratch& s : scratch) {
        s.dijkstra.dist.reserve(row);
        s.dijkstra.toward.reserve(row);
        s.dijkstra.heap.reset(n);
        s.tile.resize(static_cast<std::size_t>(block) * row);
    }
    std::atomic<std::size_t> claimed{0};
    parallel_chunks(threads, 0, n, block, [&](int d0, int d1) {
        TaskScratch& mine = scratch[claimed.fetch_add(1)];
        std::vector<NodeId>& tile = mine.tile;
        for (NodeId b0 = d0; b0 < d1; b0 += block) {
            const std::size_t width = static_cast<std::size_t>(std::min(block, d1 - b0));
            for (std::size_t j = 0; j < width; ++j) {
                // toward[dest] stays -1, which is the table's "u == v" cell.
                dijkstra(arcs, b0 + static_cast<NodeId>(j), mine.dijkstra, /*with_toward=*/true);
                for (std::size_t u = 0; u < row; ++u)
                    tile[u * width + j] = mine.dijkstra.toward[u];
            }
            for (std::size_t u = 0; u < row; ++u)
                std::copy_n(tile.begin() + static_cast<std::ptrdiff_t>(u * width), width,
                            next.begin() + static_cast<std::ptrdiff_t>(u * row + b0));
        }
    });
    return RoutingTables(n, std::move(next));
}

Weight route_length(const Graph& g, const std::vector<NodeId>& route)
{
    if (route.size() < 2) return route.empty() ? kInfinity : 0;
    Weight total = 0;
    for (std::size_t i = 0; i + 1 < route.size(); ++i) {
        Weight best = kInfinity;
        for (const Edge& e : g.neighbors(route[i]))
            if (e.to == route[i + 1]) best = min_weight(best, e.weight);
        if (!is_finite(best)) return kInfinity; // not an edge of g
        total = saturating_add(total, best);
    }
    return total;
}

} // namespace ccq
