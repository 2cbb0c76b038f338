// Tests for the single-source kernel (ccq/graph/dijkstra.hpp): the radix
// heap's ordering, the CSR arc table, dijkstra_from / exact_apsp against
// Floyd–Warshall on corner cases in both orientations, and the toward
// rule, whose pointers must never form a cycle.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>

#include "ccq/graph/dijkstra.hpp"
#include "ccq/graph/exact.hpp"
#include "ccq/graph/generators.hpp"
#include "test_helpers.hpp"

namespace ccq {
namespace {

using testing::corner_case_graphs;

void expect_rows_match_floyd_warshall(const Graph& g, const std::string& name)
{
    const DistanceMatrix truth = exact_apsp_floyd_warshall(g);
    const int n = g.node_count();
    for (NodeId s = 0; s < n; ++s) {
        const std::vector<Weight> row = dijkstra_from(g, s);
        ASSERT_EQ(row.size(), static_cast<std::size_t>(n)) << name;
        for (NodeId v = 0; v < n; ++v)
            EXPECT_EQ(row[static_cast<std::size_t>(v)], truth.at(s, v))
                << name << ": " << s << "->" << v;
    }
    for (const int threads : {1, 4})
        EXPECT_EQ(exact_apsp(g, EngineConfig{threads, 64}), truth)
            << name << " threads=" << threads;
}

TEST(Dijkstra, RadixHeapPopsEachNodeOnceInKeyOrder)
{
    // Drives the heap the way Dijkstra does: keys never drop below the
    // last popped one, and a queued node whose key falls is pushed again.
    // Key spreads run from 1 to 2^50.
    constexpr int kNodes = 600;
    std::vector<Weight> keys(kNodes, kInfinity);
    std::vector<char> popped(kNodes, 0);
    RadixHeap heap;
    heap.reset(kNodes);
    Rng rng(7);
    std::uint64_t floor = 0;
    int queued = 0;
    int pops = 0;
    const auto push = [&](NodeId v, std::uint64_t key) {
        if (!is_finite(keys[static_cast<std::size_t>(v)])) ++queued;
        keys[static_cast<std::size_t>(v)] = static_cast<Weight>(key);
        heap.push(v, key);
    };
    for (int round = 0; pops < kNodes; ++round) {
        const std::uint64_t spread = round % 3 == 0 ? 3u : (std::uint64_t{1} << (round % 51));
        for (int i = 0; i < 4; ++i) {
            const NodeId v = static_cast<NodeId>(rng.uniform_int(0, kNodes - 1));
            if (popped[static_cast<std::size_t>(v)]) continue;
            const std::uint64_t key = floor + rng.engine()() % spread;
            // Only improvements re-queue a node, as in Dijkstra.
            if (static_cast<Weight>(key) < keys[static_cast<std::size_t>(v)]) push(v, key);
        }
        if (round % 2 == 0 && queued > 0) {
            const NodeId v = heap.pop(keys);
            ASSERT_GE(v, 0);
            ASSERT_FALSE(popped[static_cast<std::size_t>(v)]) << "node " << v << " popped twice";
            Weight smallest = kInfinity; // over every queued node
            for (NodeId u = 0; u < kNodes; ++u) {
                if (!popped[static_cast<std::size_t>(u)])
                    smallest = std::min(smallest, keys[static_cast<std::size_t>(u)]);
            }
            const Weight key = keys[static_cast<std::size_t>(v)];
            ASSERT_EQ(key, smallest);
            ASSERT_GE(static_cast<std::uint64_t>(key), floor);
            floor = static_cast<std::uint64_t>(key);
            popped[static_cast<std::size_t>(v)] = 1;
            --queued;
            ++pops;
        }
        ASSERT_LT(round, 1000000) << "nodes never all queued";
    }
    EXPECT_EQ(pops, kNodes);
    EXPECT_EQ(heap.pop(keys), -1);
}

TEST(Dijkstra, RadixHeapResetResetsTheFloor)
{
    std::vector<Weight> keys{1000, 2000, 5, 0};
    RadixHeap heap;
    heap.reset(4);
    heap.push(0, 1000);
    heap.push(1, 2000);
    EXPECT_EQ(heap.pop(keys), 0);
    heap.reset(4);
    EXPECT_EQ(heap.pop(keys), -1);
    heap.push(2, 5); // below the old floor: legal after reset()
    heap.push(3, 0);
    heap.push(0, 1000); // popped before reset(), queued again
    EXPECT_EQ(heap.pop(keys), 3);
    EXPECT_EQ(heap.pop(keys), 2);
    EXPECT_EQ(heap.pop(keys), 0);
    EXPECT_EQ(heap.pop(keys), -1);
}

TEST(Dijkstra, ArcTableCopiesAdjacencyInOrder)
{
    for (const Orientation orientation : {Orientation::undirected, Orientation::directed}) {
        for (const testing::NamedGraph& c : corner_case_graphs(orientation)) {
            const ArcTable arcs(c.graph);
            ASSERT_EQ(arcs.node_count(), c.graph.node_count()) << c.name;
            for (NodeId u = 0; u < c.graph.node_count(); ++u) {
                const std::span<const Edge> want = c.graph.neighbors(u);
                const std::span<const Edge> got = arcs.arcs(u);
                EXPECT_TRUE(std::equal(want.begin(), want.end(), got.begin(), got.end()))
                    << c.name << " node " << u;
            }
        }
    }
}

TEST(Dijkstra, MatchesFloydWarshallOnUndirectedCornerCases)
{
    for (const testing::NamedGraph& c : corner_case_graphs(Orientation::undirected))
        expect_rows_match_floyd_warshall(c.graph, c.name);
}

TEST(Dijkstra, MatchesFloydWarshallOnDirectedCornerCases)
{
    for (const testing::NamedGraph& c : corner_case_graphs(Orientation::directed))
        expect_rows_match_floyd_warshall(c.graph, c.name);
}

TEST(Dijkstra, SaturatedSumsStayUnreachable)
{
    const Weight half = kInfinity / 2;
    Graph g = Graph::directed(4);
    g.add_edge(0, 1, half);
    g.add_edge(1, 2, half);          // 0->2 = kInfinity - 1: finite
    g.add_edge(2, 3, kInfinity - 1); // 0->3 saturates
    const std::vector<Weight> row = dijkstra_from(g, 0);
    EXPECT_EQ(row, (std::vector<Weight>{0, half, 2 * half, kInfinity}));
    EXPECT_TRUE(is_finite(row[2]));
}

TEST(Dijkstra, TowardIsTheSmallestTightPredecessor)
{
    // 0 reaches 3 at cost 2 through 1 and through 2 (and at cost 2 through
    // the zero-weight arc 4->3, since 0->4 costs 2): the hop is node 1.
    Graph g = Graph::undirected(5);
    g.add_edge(0, 2, 1);
    g.add_edge(2, 3, 1);
    g.add_edge(0, 1, 1);
    g.add_edge(1, 3, 1);
    g.add_edge(0, 4, 2);
    g.add_edge(4, 3, 0);
    const ArcTable arcs(g);
    DijkstraScratch scratch;
    dijkstra(arcs, 0, scratch, /*with_toward=*/true);
    EXPECT_EQ(scratch.dist, (std::vector<Weight>{0, 1, 1, 2, 2}));
    // 4 is tight from 0 (cost 2) and from 3 (2 + 0): smallest is 0.
    EXPECT_EQ(scratch.toward, (std::vector<NodeId>{-1, 0, 0, 1, 0}));
    // The scratch is reusable: a second source overwrites every cell.
    dijkstra(arcs, 3, scratch, /*with_toward=*/true);
    EXPECT_EQ(scratch.dist, (std::vector<Weight>{2, 1, 1, 0, 0}));
    EXPECT_EQ(scratch.toward, (std::vector<NodeId>{1, 3, 3, -1, 3}));
    EXPECT_THROW(dijkstra(arcs, 5, scratch), check_error);
}

/// From every source s of the undirected `g`, toward is -1 exactly at s
/// and the unreachable nodes, each pointer crosses a tight arc, and the
/// walk from every reachable node ends at s within n - 1 hops.
void expect_toward_walks_reach_the_source(const Graph& g, const std::string& name)
{
    const int n = g.node_count();
    const ArcTable arcs(g);
    DijkstraScratch scratch;
    for (NodeId s = 0; s < n; ++s) {
        dijkstra(arcs, s, scratch, /*with_toward=*/true);
        const std::vector<Weight>& dist = scratch.dist;
        for (NodeId v = 0; v < n; ++v) {
            const std::size_t vi = static_cast<std::size_t>(v);
            if (v == s || !is_finite(dist[vi])) {
                EXPECT_EQ(scratch.toward[vi], -1) << name << " source " << s << " node " << v;
                continue;
            }
            int hops = 0;
            for (NodeId u = v; u != s; ++hops) {
                ASSERT_LT(hops, n) << name << ": toward cycle from " << v << " to " << s;
                const NodeId hop = scratch.toward[static_cast<std::size_t>(u)];
                ASSERT_GE(hop, 0) << name << ": walk from " << v << " to " << s << " stops";
                Weight w = kInfinity; // the lightest hop->u arc is tight if any is
                for (const Edge& e : g.neighbors(hop))
                    if (e.to == u) w = std::min(w, e.weight);
                ASSERT_EQ(saturating_add(dist[static_cast<std::size_t>(hop)], w),
                          dist[static_cast<std::size_t>(u)])
                    << name << ": " << hop << "->" << u << " is not tight";
                u = hop;
            }
        }
    }
}

TEST(Dijkstra, TowardHasNoCyclesAcrossZeroWeightEdges)
{
    // 0 and 1 are both at distance 1 from 2 and joined by a zero-weight
    // edge: whichever settles second must not become the other's hop.
    const std::vector<WeightedEdge> repro_edges{{2, 0, 1}, {2, 1, 1}, {0, 1, 0}};
    const Graph repro = graph_from_edges(3, Orientation::undirected, repro_edges);
    const ArcTable arcs(repro);
    DijkstraScratch scratch;
    dijkstra(arcs, 2, scratch, /*with_toward=*/true);
    EXPECT_EQ(scratch.dist, (std::vector<Weight>{1, 1, 0}));
    const NodeId hop0 = scratch.toward[0];
    const NodeId hop1 = scratch.toward[1];
    // The first to settle keeps hop 2; the second takes the smaller id.
    EXPECT_TRUE((hop0 == 2 && hop1 == 0) || (hop0 == 1 && hop1 == 2))
        << "toward = {" << hop0 << ", " << hop1 << ", " << scratch.toward[2] << "}";
    expect_toward_walks_reach_the_source(repro, "repro");

    // A zero-weight triangle 0-1-2 whose corners all hang off node 3 at
    // cost 1: every corner ties with the other two.
    const std::vector<WeightedEdge> triangle_edges{{0, 1, 0}, {1, 2, 0}, {2, 0, 0},
                                                   {3, 0, 1}, {3, 1, 1}, {3, 2, 1}};
    const Graph triangle = graph_from_edges(4, Orientation::undirected, triangle_edges);
    expect_toward_walks_reach_the_source(triangle, "zero-weight triangle");

    for (const testing::NamedGraph& c : corner_case_graphs(Orientation::undirected))
        expect_toward_walks_reach_the_source(c.graph, c.name);
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
        Rng rng(seed);
        const Graph g = erdos_renyi(60, 0.08, WeightRange{0, 3}, rng, /*connected=*/false);
        expect_toward_walks_reach_the_source(g, "er seed " + std::to_string(seed));
    }
}

} // namespace
} // namespace ccq
