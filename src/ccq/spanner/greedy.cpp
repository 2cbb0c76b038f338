#include "ccq/spanner/greedy.hpp"

#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

namespace ccq {
namespace {

/// Dijkstra scratch shared by every candidate edge's search: `dist` is
/// all kInfinity between searches, and each search resets only the
/// entries it touched, so it costs what it explores rather than O(n).
struct SearchScratch {
    using Item = std::pair<Weight, NodeId>;

    explicit SearchScratch(int n) : dist(static_cast<std::size_t>(n), kInfinity) {}

    void push(NodeId u, Weight d)
    {
        Weight& cur = dist[static_cast<std::size_t>(u)];
        if (cur == kInfinity) touched.push_back(u);
        cur = d;
        heap.emplace_back(d, u);
        std::push_heap(heap.begin(), heap.end(), std::greater<>{});
    }

    void reset()
    {
        for (const NodeId u : touched) dist[static_cast<std::size_t>(u)] = kInfinity;
        touched.clear();
        heap.clear();
    }

    std::vector<Weight> dist;
    std::vector<NodeId> touched;
    std::vector<Item> heap; ///< min-heap on (dist, node)
};

/// Distance from `source` in the partial spanner, pruned at `budget`
/// (early exit once the candidate edge is provably needed/unneeded);
/// kInfinity when `target` is unreachable within the budget.
Weight bounded_distance(const Graph& spanner, NodeId source, NodeId target, Weight budget,
                        SearchScratch& scratch)
{
    Weight found = kInfinity;
    scratch.push(source, 0);
    while (!scratch.heap.empty()) {
        std::pop_heap(scratch.heap.begin(), scratch.heap.end(), std::greater<>{});
        const auto [d, u] = scratch.heap.back();
        scratch.heap.pop_back();
        if (d != scratch.dist[static_cast<std::size_t>(u)]) continue;
        if (u == target) {
            found = d;
            break;
        }
        if (d > budget) break; // everything further is over budget
        for (const Edge& e : spanner.neighbors(u)) {
            const Weight cand = saturating_add(d, e.weight);
            if (cand <= budget && cand < scratch.dist[static_cast<std::size_t>(e.to)])
                scratch.push(e.to, cand);
        }
    }
    scratch.reset();
    return found;
}

} // namespace

SpannerResult greedy_spanner(const Graph& g, int k)
{
    CCQ_EXPECT(!g.is_directed(), "greedy_spanner: undirected input required");
    CCQ_EXPECT(k >= 1, "greedy_spanner: k must be >= 1");
    const int stretch = 2 * k - 1;

    std::vector<WeightedEdge> edges = g.simplified().edge_list();
    std::sort(edges.begin(), edges.end(), [](const WeightedEdge& a, const WeightedEdge& b) {
        if (a.weight != b.weight) return a.weight < b.weight;
        if (a.u != b.u) return a.u < b.u;
        return a.v < b.v;
    });

    Graph spanner = Graph::undirected(g.node_count());
    SearchScratch scratch(g.node_count());
    for (const WeightedEdge& e : edges) {
        // stretch * weight, saturated: at or above kInfinity every finite
        // spanner distance is within budget, and only an unreachable
        // endpoint (kInfinity) still needs the edge.
        const Weight budget =
            e.weight > (kInfinity - 1) / stretch ? kInfinity : e.weight * stretch;
        const Weight dist = bounded_distance(spanner, e.u, e.v, budget, scratch);
        if (dist > budget || !is_finite(dist)) spanner.add_edge(e.u, e.v, e.weight);
    }
    return SpannerResult{std::move(spanner), stretch, k};
}

} // namespace ccq
