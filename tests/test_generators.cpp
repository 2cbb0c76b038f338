// Tests for the workload generators: structural invariants per family,
// determinism, and weight-range compliance.
#include <gtest/gtest.h>

#include "ccq/graph/generators.hpp"
#include "ccq/graph/metrics.hpp"
#include "test_helpers.hpp"

namespace ccq {
namespace {

using testing::kAllFamilies;

TEST(Generators, AllFamiliesProduceConnectedGraphsInWeightRange)
{
    const WeightRange weights{1, 50};
    for (const GraphFamily family : kAllFamilies) {
        for (const std::uint64_t seed : {1u, 2u}) {
            Rng rng(seed);
            const Graph g = make_family_instance(family, 48, weights, rng);
            EXPECT_GE(g.node_count(), 48) << family_name(family);
            EXPECT_TRUE(is_connected(g)) << family_name(family) << " seed " << seed;
            // The clustered family deliberately scales inter-cluster
            // bridges by a factor of 8 (see make_family_instance).
            const Weight hi =
                family == GraphFamily::clustered ? weights.hi * 8 : weights.hi;
            for (NodeId u = 0; u < g.node_count(); ++u) {
                for (const Edge& e : g.neighbors(u)) {
                    EXPECT_GE(e.weight, weights.lo) << family_name(family);
                    EXPECT_LE(e.weight, hi) << family_name(family);
                }
            }
        }
    }
}

TEST(Generators, DeterministicGivenSeed)
{
    for (const GraphFamily family : kAllFamilies) {
        Rng a(99), b(99);
        const Graph ga = make_family_instance(family, 40, WeightRange{1, 9}, a);
        const Graph gb = make_family_instance(family, 40, WeightRange{1, 9}, b);
        EXPECT_EQ(ga.edge_list(), gb.edge_list()) << family_name(family);
    }
}

TEST(Generators, PathShape)
{
    Rng rng(1);
    const Graph g = path_graph(10, WeightRange{2, 2}, rng);
    EXPECT_EQ(g.edge_count(), 9u);
    EXPECT_EQ(weighted_diameter(g), 18);
    EXPECT_EQ(shortest_path_hop_diameter(g), 9);
}

TEST(Generators, CycleShape)
{
    Rng rng(1);
    const Graph g = cycle_graph(8, WeightRange{1, 1}, rng);
    EXPECT_EQ(g.edge_count(), 8u);
    const DegreeStats stats = degree_stats(g);
    EXPECT_EQ(stats.min_degree, 2);
    EXPECT_EQ(stats.max_degree, 2);
}

TEST(Generators, StarShape)
{
    Rng rng(1);
    const Graph g = star_graph(12, WeightRange{1, 5}, rng);
    EXPECT_EQ(g.edge_count(), 11u);
    EXPECT_EQ(g.neighbors(0).size(), 11u);
    EXPECT_EQ(shortest_path_hop_diameter(g), 2);
}

TEST(Generators, CompleteGraphEdgeCount)
{
    Rng rng(1);
    const Graph g = complete_graph(9, WeightRange{1, 5}, rng);
    EXPECT_EQ(g.edge_count(), 36u);
}

TEST(Generators, GridShape)
{
    Rng rng(1);
    const Graph g = grid_graph(3, 4, WeightRange{1, 1}, rng);
    EXPECT_EQ(g.node_count(), 12);
    EXPECT_EQ(g.edge_count(), 17u); // 3*3 + 2*4
}

TEST(Generators, TreeHasExactlyNMinusOneEdges)
{
    for (const std::uint64_t seed : {1u, 5u, 9u}) {
        Rng rng(seed);
        const Graph g = random_tree(33, WeightRange{1, 7}, rng);
        EXPECT_EQ(g.edge_count(), 32u);
        EXPECT_TRUE(is_connected(g));
    }
}

TEST(Generators, ErdosRenyiDensityScalesWithP)
{
    Rng rng(3);
    const Graph sparse = erdos_renyi(60, 0.05, WeightRange{1, 5}, rng, false);
    const Graph dense = erdos_renyi(60, 0.5, WeightRange{1, 5}, rng, false);
    EXPECT_LT(sparse.edge_count(), dense.edge_count());
    // Expectation for p=0.5 over C(60,2)=1770 pairs: ~885.
    EXPECT_GT(dense.edge_count(), 600u);
    EXPECT_LT(dense.edge_count(), 1200u);
}

TEST(Generators, BarabasiAlbertHasHubs)
{
    Rng rng(17);
    const Graph g = barabasi_albert(120, 2, WeightRange{1, 3}, rng);
    const DegreeStats stats = degree_stats(g);
    EXPECT_GE(stats.max_degree, 10); // preferential attachment creates hubs
    EXPECT_TRUE(is_connected(g));
}

TEST(Generators, ClusteredGraphHasHeavyBridges)
{
    Rng rng(23);
    const Graph g = clustered_graph(60, 4, 0.5, 0.01, WeightRange{1, 10}, 10, rng);
    EXPECT_TRUE(is_connected(g));
    // At least one inter-cluster edge must carry a scaled (heavy) weight.
    Weight heaviest = 0;
    for (NodeId u = 0; u < g.node_count(); ++u)
        for (const Edge& e : g.neighbors(u)) heaviest = std::max(heaviest, e.weight);
    EXPECT_GE(heaviest, 10);
}

TEST(Generators, MakeConnectedFixesComponents)
{
    Rng rng(5);
    Graph g = Graph::undirected(9); // three triangles
    for (int base : {0, 3, 6}) {
        g.add_edge(base, base + 1, 1);
        g.add_edge(base + 1, base + 2, 1);
        g.add_edge(base, base + 2, 1);
    }
    EXPECT_FALSE(is_connected(g));
    make_connected(g, WeightRange{1, 1}, rng);
    EXPECT_TRUE(is_connected(g));
    EXPECT_EQ(g.edge_count(), 11u); // exactly two bridge edges added
}

TEST(Generators, RejectsBadParameters)
{
    Rng rng(1);
    EXPECT_THROW((void)path_graph(0, WeightRange{1, 2}, rng), check_error);
    EXPECT_THROW((void)cycle_graph(2, WeightRange{1, 2}, rng), check_error);
    EXPECT_THROW((void)erdos_renyi(10, 1.5, WeightRange{1, 2}, rng), check_error);
    EXPECT_THROW((void)barabasi_albert(10, 0, WeightRange{1, 2}, rng), check_error);
    EXPECT_THROW((void)grid_graph(0, 3, WeightRange{1, 2}, rng), check_error);
}

} // namespace
} // namespace ccq
