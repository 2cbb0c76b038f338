// Tests for the routing-table layer: next-hop correctness, loop freedom,
// and stretch guarantees when routing along a spanner backbone.
#include <gtest/gtest.h>

#include <queue>
#include <string>
#include <utility>

#include "ccq/core/routing.hpp"
#include "ccq/spanner/baswana_sen.hpp"
#include "test_helpers.hpp"

namespace ccq {
namespace {

/// The original builder, kept as the reference the blocked, parallel one
/// must match cell for cell on positive weights: one std::priority_queue
/// Dijkstra per destination that pushes on every improvement and on every
/// tie won by a smaller hop id.  Its tie rule also lets a node settled
/// later win, so across a zero-weight edge two nodes can point at each
/// other; graphs with zero weights are checked by expect_sound_tables.
std::vector<NodeId> reference_next_hops(const Graph& backbone)
{
    const int n = backbone.node_count();
    std::vector<NodeId> next(static_cast<std::size_t>(n) * static_cast<std::size_t>(n), -1);
    for (NodeId dest = 0; dest < n; ++dest) {
        std::vector<Weight> dist(static_cast<std::size_t>(n), kInfinity);
        std::vector<NodeId> toward(static_cast<std::size_t>(n), -1);
        dist[static_cast<std::size_t>(dest)] = 0;
        using Item = std::pair<Weight, NodeId>;
        std::priority_queue<Item, std::vector<Item>, std::greater<>> queue;
        queue.emplace(0, dest);
        while (!queue.empty()) {
            const auto [d, u] = queue.top();
            queue.pop();
            if (d != dist[static_cast<std::size_t>(u)]) continue;
            for (const Edge& e : backbone.neighbors(u)) {
                const Weight cand = saturating_add(d, e.weight);
                Weight& cur = dist[static_cast<std::size_t>(e.to)];
                if (cand < cur ||
                    (cand == cur && toward[static_cast<std::size_t>(e.to)] > u)) {
                    cur = cand;
                    toward[static_cast<std::size_t>(e.to)] = u;
                    queue.emplace(cand, e.to);
                }
            }
        }
        for (NodeId u = 0; u < n; ++u) {
            if (u == dest) continue;
            next[static_cast<std::size_t>(u) * static_cast<std::size_t>(n) +
                 static_cast<std::size_t>(dest)] = toward[static_cast<std::size_t>(u)];
        }
    }
    return next;
}

/// Every next_hop cell of build_routing_tables(g) under 1 and 4 threads
/// equals the reference.
void expect_identical_to_reference(const Graph& g, const std::string& name)
{
    const int n = g.node_count();
    const std::vector<NodeId> want = reference_next_hops(g);
    for (const int threads : {1, 4}) {
        const RoutingTables tables = build_routing_tables(g, EngineConfig{threads, 64});
        ASSERT_EQ(tables.size(), n) << name;
        std::size_t mismatches = 0;
        for (NodeId u = 0; u < n; ++u) {
            for (NodeId v = 0; v < n; ++v) {
                const NodeId expected =
                    want[static_cast<std::size_t>(u) * static_cast<std::size_t>(n) +
                         static_cast<std::size_t>(v)];
                if (tables.next_hop(u, v) != expected && mismatches++ < 5)
                    ADD_FAILURE() << name << " threads=" << threads << ": next_hop(" << u
                                  << ", " << v << ") = " << tables.next_hop(u, v)
                                  << ", reference " << expected;
            }
        }
        EXPECT_EQ(mismatches, 0u) << name << " threads=" << threads;
    }
}

/// The checks that need no reference, for any weights: the tables are
/// bitwise equal under 1 and 4 threads, every reachable pair routes, each
/// hop crosses a tight arc toward the destination, and each route is as
/// long as the exact distance.  Unreachable pairs route to nothing.
void expect_sound_tables(const Graph& g, const std::string& name)
{
    const int n = g.node_count();
    const DistanceMatrix exact = exact_apsp(g);
    const RoutingTables tables = build_routing_tables(g, EngineConfig{1, 64});
    const RoutingTables threaded = build_routing_tables(g, EngineConfig{4, 64});
    std::size_t failures = 0;
    const auto report = [&](NodeId u, NodeId v, const std::string& what) {
        if (failures++ < 5) ADD_FAILURE() << name << ": pair (" << u << ", " << v << ") " << what;
    };
    for (NodeId u = 0; u < n; ++u) {
        for (NodeId v = 0; v < n; ++v) {
            if (tables.next_hop(u, v) != threaded.next_hop(u, v))
                report(u, v, "differs across threads");
            const std::vector<NodeId> route = tables.route(u, v);
            if (!is_finite(exact.at(u, v))) {
                if (!route.empty()) report(u, v, "routes, but is unreachable");
                continue;
            }
            if (route.empty()) {
                report(u, v, "is reachable, but has no route");
                continue;
            }
            for (std::size_t i = 0; i + 1 < route.size(); ++i) {
                const NodeId a = route[i];
                const NodeId b = route[i + 1];
                if (saturating_add(route_length(g, {a, b}), exact.at(b, v)) != exact.at(a, v))
                    report(u, v, "hops " + std::to_string(a) + "->" + std::to_string(b) +
                                     ", not a tight arc");
            }
            if (route_length(g, route) != exact.at(u, v))
                report(u, v, "routes longer than the exact distance");
        }
    }
    EXPECT_EQ(failures, 0u) << name;
}

bool has_zero_weight(const Graph& g)
{
    for (const WeightedEdge& e : g.edge_list())
        if (e.weight == 0) return true;
    return false;
}

TEST(Routing, BitwiseIdenticalToReferenceOnEveryFamily)
{
    // Three seeds per family; the narrow weight ranges make equal-cost
    // ties common, which is where the hop rule decides.  Positive weights
    // must match the reference; with zero weights ({0, 3}) the tables are
    // checked for soundness instead.  None of the sizes is a multiple of
    // the 64-destination block.
    struct Case {
        std::uint64_t seed;
        int n;
        WeightRange weights;
    };
    constexpr Case kCases[] = {{1, 300, {1, 100}}, {2, 193, {1, 4}}, {3, 131, {0, 3}}};
    for (const GraphFamily family : testing::kAllFamilies) {
        for (const Case& c : kCases) {
            Rng rng(c.seed);
            const Graph g = make_family_instance(family, c.n, c.weights, rng);
            const std::string name =
                std::string(family_name(family)) + " seed " + std::to_string(c.seed);
            if (c.weights.lo > 0) expect_identical_to_reference(g, name);
            expect_sound_tables(g, name);
        }
    }
}

TEST(Routing, BitwiseIdenticalToReferenceOnCornerCases)
{
    for (const testing::NamedGraph& c : testing::corner_case_graphs(Orientation::undirected)) {
        if (!has_zero_weight(c.graph)) expect_identical_to_reference(c.graph, c.name);
        expect_sound_tables(c.graph, c.name);
    }
}

TEST(Routing, BitwiseIdenticalAcrossBlockBoundaries)
{
    // Sizes around one and two 64-destination blocks, disconnected, with
    // zero-weight edges: the tables must not depend on the thread count.
    for (const int n : {63, 64, 65, 129}) {
        Rng rng(static_cast<std::uint64_t>(n));
        const Graph g = erdos_renyi(n, 2.0 / n, WeightRange{0, 2}, rng, /*connected=*/false);
        expect_sound_tables(g, "er n=" + std::to_string(n));
    }
}

TEST(Routing, HandCheckedPath)
{
    Graph g = Graph::undirected(4); // 0-1-2-3 chain
    g.add_edge(0, 1, 1);
    g.add_edge(1, 2, 1);
    g.add_edge(2, 3, 1);
    const RoutingTables tables = build_routing_tables(g);
    EXPECT_EQ(tables.next_hop(0, 3), 1);
    EXPECT_EQ(tables.next_hop(1, 3), 2);
    EXPECT_EQ(tables.next_hop(3, 0), 2);
    EXPECT_EQ(tables.next_hop(0, 0), -1);
    const std::vector<NodeId> route = tables.route(0, 3);
    EXPECT_EQ(route, (std::vector<NodeId>{0, 1, 2, 3}));
    EXPECT_EQ(route_length(g, route), 3);
}

TEST(Routing, RoutesFollowShortestPathsOnBackbone)
{
    Rng rng(1);
    const Graph g = erdos_renyi(48, 0.15, WeightRange{1, 30}, rng);
    const RoutingTables tables = build_routing_tables(g);
    const DistanceMatrix exact = exact_apsp(g);
    for (NodeId u = 0; u < 48; u += 5) {
        for (NodeId v = 0; v < 48; v += 3) {
            if (u == v) continue;
            const std::vector<NodeId> route = tables.route(u, v);
            ASSERT_FALSE(route.empty());
            EXPECT_EQ(route_length(g, route), exact.at(u, v)) << u << "->" << v;
        }
    }
}

TEST(Routing, SpannerBackboneRoutesWithinStretch)
{
    for (const std::uint64_t seed : {2u, 3u}) {
        Rng rng(seed);
        const Graph g = erdos_renyi(56, 0.2, WeightRange{1, 40}, rng);
        const SpannerResult spanner = baswana_sen_spanner(g, 3, rng);
        const RoutingTables tables = build_routing_tables(spanner.spanner);
        const DistanceMatrix exact = exact_apsp(g);
        for (NodeId u = 0; u < 56; u += 7) {
            for (NodeId v = 0; v < 56; v += 5) {
                if (u == v) continue;
                const std::vector<NodeId> route = tables.route(u, v);
                ASSERT_FALSE(route.empty());
                const Weight len = route_length(g, route);
                EXPECT_LE(len, 5 * exact.at(u, v)) << "stretch-5 spanner route " << u << "->"
                                                   << v;
                EXPECT_GE(len, exact.at(u, v));
            }
        }
    }
}

TEST(Routing, UnreachableDestinationsReturnEmptyRoute)
{
    Graph g = Graph::undirected(4);
    g.add_edge(0, 1, 1); // {2,3} disconnected
    const RoutingTables tables = build_routing_tables(g);
    EXPECT_TRUE(tables.route(0, 2).empty());
    EXPECT_EQ(tables.next_hop(0, 2), -1);
    EXPECT_FALSE(tables.route(0, 1).empty());
}

TEST(Routing, RouteToSelfIsTrivial)
{
    Graph g = Graph::undirected(2);
    g.add_edge(0, 1, 1);
    const RoutingTables tables = build_routing_tables(g);
    EXPECT_EQ(tables.route(1, 1), (std::vector<NodeId>{1}));
    EXPECT_EQ(route_length(g, tables.route(1, 1)), 0);
}

TEST(Routing, RouteLengthDetectsNonEdges)
{
    Graph g = Graph::undirected(3);
    g.add_edge(0, 1, 1);
    EXPECT_EQ(route_length(g, {0, 2}), kInfinity); // 0-2 is not an edge
    EXPECT_EQ(route_length(g, {}), kInfinity);
}

TEST(Routing, CorruptedTableWithForwardingCycleReportsUnreachable)
{
    // Adversarially-corrupted table (e.g. from an untrusted snapshot):
    // hops toward destination 2 form the cycle 0 -> 1 -> 0.  The walk
    // must terminate within the hop budget and report unreachable.
    const int n = 3;
    std::vector<NodeId> hops(static_cast<std::size_t>(n) * static_cast<std::size_t>(n), -1);
    hops[0 * 3 + 2] = 1;
    hops[1 * 3 + 2] = 0;
    hops[0 * 3 + 1] = 1; // a legitimate entry stays routable
    const RoutingTables corrupted(n, std::move(hops));
    EXPECT_TRUE(corrupted.route(0, 2).empty());
    EXPECT_TRUE(corrupted.route(1, 2).empty());
    EXPECT_EQ(corrupted.route(0, 1), (std::vector<NodeId>{0, 1}));
}

TEST(Routing, CorruptedTableWithSelfLoopHopReportsUnreachable)
{
    const int n = 2;
    std::vector<NodeId> hops(static_cast<std::size_t>(n) * static_cast<std::size_t>(n), -1);
    hops[0 * 2 + 1] = 0; // forwards to itself forever
    const RoutingTables corrupted(n, std::move(hops));
    EXPECT_TRUE(corrupted.route(0, 1).empty());
}

TEST(Routing, CorruptedTableWithOutOfRangeHopReportsUnreachable)
{
    const int n = 2;
    std::vector<NodeId> hops(static_cast<std::size_t>(n) * static_cast<std::size_t>(n), -1);
    hops[0 * 2 + 1] = 7; // not a node
    const RoutingTables corrupted(n, std::move(hops));
    EXPECT_TRUE(corrupted.route(0, 1).empty());
}

TEST(Routing, BoundsChecked)
{
    Graph g = Graph::undirected(2);
    g.add_edge(0, 1, 1);
    const RoutingTables tables = build_routing_tables(g);
    EXPECT_THROW((void)tables.next_hop(0, 5), check_error);
    EXPECT_THROW((void)tables.route(-1, 0), check_error);
    EXPECT_THROW((void)build_routing_tables(Graph::directed(3)), check_error);
}

} // namespace
} // namespace ccq
