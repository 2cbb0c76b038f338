#include "ccq/graph/exact.hpp"

#include <algorithm>
#include <utility>

#include "ccq/graph/dijkstra.hpp"

namespace ccq {

std::vector<Weight> dijkstra_from(const Graph& g, NodeId source)
{
    CCQ_EXPECT(g.is_valid_node(source), "dijkstra_from: source out of range");
    DijkstraScratch scratch;
    dijkstra(g, source, scratch);
    return std::move(scratch.dist);
}

DistanceMatrix exact_apsp(const Graph& g, const EngineConfig& engine)
{
    const int n = g.node_count();
    DistanceMatrix result(n);
    const ArcTable arcs(g);
    parallel_chunks(engine.resolved_threads(), 0, n, 1, [&](int s0, int s1) {
        DijkstraScratch scratch;
        for (NodeId s = s0; s < s1; ++s) {
            dijkstra(arcs, s, scratch);
            std::copy(scratch.dist.begin(), scratch.dist.end(),
                      result.data() + static_cast<std::size_t>(s) * static_cast<std::size_t>(n));
        }
    });
    return result;
}

DistanceMatrix exact_apsp_floyd_warshall(const Graph& g)
{
    DistanceMatrix d = adjacency_matrix(g);
    const int n = d.size();
    for (NodeId k = 0; k < n; ++k) {
        for (NodeId i = 0; i < n; ++i) {
            const Weight dik = d.at(i, k);
            if (!is_finite(dik)) continue;
            for (NodeId j = 0; j < n; ++j)
                d.relax(i, j, saturating_add(dik, d.at(k, j)));
        }
    }
    return d;
}

std::vector<Weight> hop_limited_from(const Graph& g, NodeId source, int max_hops)
{
    CCQ_EXPECT(g.is_valid_node(source), "hop_limited_from: source out of range");
    CCQ_EXPECT(max_hops >= 0, "hop_limited_from: negative hop budget");
    const int n = g.node_count();
    std::vector<Weight> dist(static_cast<std::size_t>(n), kInfinity);
    dist[static_cast<std::size_t>(source)] = 0;
    std::vector<NodeId> frontier{source};

    // Synchronous rounds: round r relaxes from the *previous* round's
    // values only, so dist after r rounds is exactly the min over paths
    // with at most r hops (in-place relaxation would let a value improved
    // earlier in the same round propagate again, counting r+1 hops as r).
    for (int round = 0; round < max_hops && !frontier.empty(); ++round) {
        std::vector<Weight> next_dist = dist;
        std::vector<NodeId> next;
        std::vector<char> queued(static_cast<std::size_t>(n), 0);
        for (const NodeId u : frontier) {
            const Weight du = dist[static_cast<std::size_t>(u)];
            for (const Edge& e : g.neighbors(u)) {
                const Weight cand = saturating_add(du, e.weight);
                Weight& cur = next_dist[static_cast<std::size_t>(e.to)];
                if (cand < cur) {
                    cur = cand;
                    if (!queued[static_cast<std::size_t>(e.to)]) {
                        queued[static_cast<std::size_t>(e.to)] = 1;
                        next.push_back(e.to);
                    }
                }
            }
        }
        dist = std::move(next_dist);
        frontier = std::move(next);
    }
    return dist;
}

DistanceMatrix hop_limited_apsp(const Graph& g, int max_hops, const EngineConfig& engine)
{
    const int n = g.node_count();
    DistanceMatrix result(n);
    parallel_chunks(engine.resolved_threads(), 0, n, 1, [&](int s0, int s1) {
        for (NodeId s = s0; s < s1; ++s) {
            const std::vector<Weight> dist = hop_limited_from(g, s, max_hops);
            for (NodeId v = 0; v < n; ++v) result.at(s, v) = dist[static_cast<std::size_t>(v)];
        }
    });
    return result;
}

std::vector<int> min_hops_on_shortest_paths(const Graph& g, NodeId source)
{
    CCQ_EXPECT(g.is_valid_node(source), "min_hops_on_shortest_paths: source out of range");
    DijkstraScratch scratch;
    dijkstra(g, source, scratch);
    const std::vector<Weight>& dist = scratch.dist;

    // The shortest paths from `source` are exactly the paths of tight
    // arcs (dist[u] + w == dist[v]), zero-weight arcs included, so the
    // fewest hops on a shortest path is the BFS depth over tight arcs.
    std::vector<int> hops(static_cast<std::size_t>(g.node_count()), -1);
    hops[static_cast<std::size_t>(source)] = 0;
    std::vector<NodeId> queue{source};
    for (std::size_t head = 0; head < queue.size(); ++head) {
        const NodeId u = queue[head];
        for (const Edge& e : g.neighbors(u)) {
            const Weight dv = dist[static_cast<std::size_t>(e.to)];
            int& hv = hops[static_cast<std::size_t>(e.to)];
            if (hv < 0 && is_finite(dv) &&
                saturating_add(dist[static_cast<std::size_t>(u)], e.weight) == dv) {
                hv = hops[static_cast<std::size_t>(u)] + 1;
                queue.push_back(e.to);
            }
        }
    }
    return hops;
}

} // namespace ccq
