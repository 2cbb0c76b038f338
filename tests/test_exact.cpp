// Tests for the exact shortest-path references (ccq/graph/exact.hpp):
// mutual agreement of the oracles and hand-checked small cases.
#include <gtest/gtest.h>

#include <limits>
#include <queue>
#include <string>
#include <tuple>
#include <utility>

#include "ccq/graph/exact.hpp"
#include "ccq/graph/generators.hpp"
#include "ccq/matrix/engine.hpp"
#include "test_helpers.hpp"

namespace ccq {
namespace {

using testing::InstanceSpec;

/// The lexicographic (length, hops) Dijkstra that min_hops_on_shortest_paths
/// ran before it moved onto the shared kernel, kept as its reference: the
/// primary key recovers shortest-path lengths, the secondary key minimizes
/// the hop count among shortest paths.
std::vector<int> reference_min_hops(const Graph& g, NodeId source)
{
    const int n = g.node_count();
    std::vector<Weight> dist(static_cast<std::size_t>(n), kInfinity);
    std::vector<int> hops(static_cast<std::size_t>(n), std::numeric_limits<int>::max());
    dist[static_cast<std::size_t>(source)] = 0;
    hops[static_cast<std::size_t>(source)] = 0;
    using Item = std::tuple<Weight, int, NodeId>;
    std::priority_queue<Item, std::vector<Item>, std::greater<>> queue;
    queue.emplace(0, 0, source);
    while (!queue.empty()) {
        const auto [d, h, u] = queue.top();
        queue.pop();
        if (d != dist[static_cast<std::size_t>(u)] || h != hops[static_cast<std::size_t>(u)])
            continue; // stale entry
        for (const Edge& e : g.neighbors(u)) {
            const Weight cand = saturating_add(d, e.weight);
            Weight& cur = dist[static_cast<std::size_t>(e.to)];
            int& cur_hops = hops[static_cast<std::size_t>(e.to)];
            if (cand < cur || (cand == cur && h + 1 < cur_hops)) {
                cur = cand;
                cur_hops = h + 1;
                queue.emplace(cand, h + 1, e.to);
            }
        }
    }
    for (NodeId v = 0; v < n; ++v)
        if (!is_finite(dist[static_cast<std::size_t>(v)])) hops[static_cast<std::size_t>(v)] = -1;
    return hops;
}

TEST(Exact, PathGraphHandChecked)
{
    Graph g = Graph::undirected(4); // 0 -5- 1 -2- 2 -7- 3
    g.add_edge(0, 1, 5);
    g.add_edge(1, 2, 2);
    g.add_edge(2, 3, 7);
    const DistanceMatrix d = exact_apsp(g);
    EXPECT_EQ(d.at(0, 0), 0);
    EXPECT_EQ(d.at(0, 1), 5);
    EXPECT_EQ(d.at(0, 2), 7);
    EXPECT_EQ(d.at(0, 3), 14);
    EXPECT_EQ(d.at(3, 0), 14);
    EXPECT_TRUE(is_symmetric(d));
}

TEST(Exact, DisconnectedPairsAreInfinite)
{
    Graph g = Graph::undirected(4);
    g.add_edge(0, 1, 1);
    g.add_edge(2, 3, 1);
    const DistanceMatrix d = exact_apsp(g);
    EXPECT_FALSE(is_finite(d.at(0, 2)));
    EXPECT_FALSE(is_finite(d.at(1, 3)));
    EXPECT_EQ(d.at(2, 3), 1);
}

TEST(Exact, DirectedAsymmetry)
{
    Graph g = Graph::directed(3);
    g.add_edge(0, 1, 1);
    g.add_edge(1, 2, 1);
    const DistanceMatrix d = exact_apsp(g);
    EXPECT_EQ(d.at(0, 2), 2);
    EXPECT_FALSE(is_finite(d.at(2, 0)));
}

TEST(Exact, SingleNodeAndEmpty)
{
    const DistanceMatrix one = exact_apsp(Graph::undirected(1));
    EXPECT_EQ(one.at(0, 0), 0);
    const DistanceMatrix zero = exact_apsp(Graph::undirected(0));
    EXPECT_EQ(zero.size(), 0);
}

TEST(Exact, ShorterMultiHopBeatsDirectEdge)
{
    Graph g = Graph::undirected(3);
    g.add_edge(0, 2, 10);
    g.add_edge(0, 1, 2);
    g.add_edge(1, 2, 3);
    EXPECT_EQ(exact_apsp(g).at(0, 2), 5);
}

TEST(Exact, DijkstraMatchesFloydWarshallOnRandomGraphs)
{
    // Weights 0..3 add zero-weight edges and many equal-cost ties; the
    // directed copy keeps each edge as one arc u -> v (u <= v).  Sparse
    // disconnected ER graphs and every family, in both orientations, and
    // the corner cases: rows against Floyd–Warshall, and min-hop counts
    // against the lexicographic reference.
    std::vector<testing::NamedGraph> graphs;
    for (const WeightRange weights : {WeightRange{1, 50}, WeightRange{0, 3}}) {
        const std::string range = " weights " + std::to_string(weights.lo) + ".." +
                                  std::to_string(weights.hi);
        for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
            Rng rng(seed);
            graphs.push_back({"er seed " + std::to_string(seed) + range,
                              erdos_renyi(40, 0.15, weights, rng, /*connected=*/false)});
        }
        for (const GraphFamily family : testing::kAllFamilies) {
            for (const std::uint64_t seed : {1u, 2u, 3u}) {
                Rng rng(seed);
                graphs.push_back({std::string(family_name(family)) + " seed " +
                                      std::to_string(seed) + range,
                                  make_family_instance(family, 40, weights, rng)});
            }
        }
    }
    for (std::size_t i = 0, count = graphs.size(); i < count; ++i)
        graphs.push_back({graphs[i].name + " directed",
                          graph_from_edges(graphs[i].graph.node_count(), Orientation::directed,
                                           graphs[i].graph.edge_list())});
    for (const Orientation orientation : {Orientation::undirected, Orientation::directed})
        for (testing::NamedGraph& c : testing::corner_case_graphs(orientation))
            graphs.push_back(std::move(c));

    for (const auto& [name, graph] : graphs) {
        const DistanceMatrix truth = exact_apsp_floyd_warshall(graph);
        EXPECT_EQ(exact_apsp(graph), truth) << name;
        for (NodeId s = 0; s < graph.node_count(); ++s) {
            const std::vector<Weight> row = dijkstra_from(graph, s);
            for (NodeId v = 0; v < graph.node_count(); ++v)
                EXPECT_EQ(row[static_cast<std::size_t>(v)], truth.at(s, v))
                    << name << " " << s << "->" << v;
            ASSERT_EQ(min_hops_on_shortest_paths(graph, s), reference_min_hops(graph, s))
                << name << " source " << s;
        }
    }
}

TEST(Exact, HopLimitedConvergesToTrueDistance)
{
    Rng rng(7);
    const Graph g = make_family_instance(GraphFamily::erdos_renyi_sparse, 36,
                                         WeightRange{1, 20}, rng);
    const DistanceMatrix full = exact_apsp(g);
    const DistanceMatrix limited = hop_limited_apsp(g, g.node_count());
    EXPECT_EQ(limited, full);
}

TEST(Exact, HopLimitedRespectsBudget)
{
    Rng rng(7);
    Graph g = path_graph(6, WeightRange{1, 1}, rng); // unit path
    const std::vector<Weight> two_hops = hop_limited_from(g, 0, 2);
    EXPECT_EQ(two_hops[2], 2);
    EXPECT_FALSE(is_finite(two_hops[3]));
    const std::vector<Weight> zero_hops = hop_limited_from(g, 0, 0);
    EXPECT_EQ(zero_hops[0], 0);
    EXPECT_FALSE(is_finite(zero_hops[1]));
}

TEST(Exact, HopLimitedCanExceedTrueDistanceUnderTightBudget)
{
    // 0-2 direct costs 10; the 2-hop route costs 5.
    Graph g = Graph::undirected(3);
    g.add_edge(0, 2, 10);
    g.add_edge(0, 1, 2);
    g.add_edge(1, 2, 3);
    EXPECT_EQ(hop_limited_from(g, 0, 1)[2], 10);
    EXPECT_EQ(hop_limited_from(g, 0, 2)[2], 5);
}

TEST(Exact, MinHopsOnShortestPathsBasics)
{
    // Shortest 0->3 is the 3-hop chain (cost 3) rather than the direct
    // edge (cost 5); min-hops must follow the shortest path.
    Graph g = Graph::undirected(4);
    g.add_edge(0, 1, 1);
    g.add_edge(1, 2, 1);
    g.add_edge(2, 3, 1);
    g.add_edge(0, 3, 5);
    const std::vector<int> hops = min_hops_on_shortest_paths(g, 0);
    EXPECT_EQ(hops[0], 0);
    EXPECT_EQ(hops[3], 3);
}

TEST(Exact, MinHopsPrefersFewerEdgesAmongEqualLengthPaths)
{
    // Two shortest 0->2 paths of length 4: direct edge vs 2-hop chain.
    Graph g = Graph::undirected(3);
    g.add_edge(0, 2, 4);
    g.add_edge(0, 1, 2);
    g.add_edge(1, 2, 2);
    EXPECT_EQ(min_hops_on_shortest_paths(g, 0)[2], 1);
}

TEST(Exact, MinHopsUnreachableIsMinusOne)
{
    Graph g = Graph::undirected(3);
    g.add_edge(0, 1, 1);
    EXPECT_EQ(min_hops_on_shortest_paths(g, 0)[2], -1);
}

TEST(Exact, MinHopsHandlesZeroWeights)
{
    // 0 -0- 1 -0- 2 and a direct 0-2 zero edge: both shortest (length 0),
    // direct edge has 1 hop.
    Graph g = Graph::undirected(3);
    g.add_edge(0, 1, 0);
    g.add_edge(1, 2, 0);
    g.add_edge(0, 2, 0);
    EXPECT_EQ(min_hops_on_shortest_paths(g, 0)[2], 1);
}

TEST(Exact, MinPlusClosureMatchesDijkstra)
{
    Rng rng(11);
    const Graph g = erdos_renyi(30, 0.2, WeightRange{1, 30}, rng);
    int products = 0;
    const DistanceMatrix closure = min_plus_closure(adjacency_matrix(g), &products);
    EXPECT_EQ(closure, exact_apsp(g));
    EXPECT_GE(products, 1);
    EXPECT_LE(products, 6); // ceil(log2(29))
}

} // namespace
} // namespace ccq
