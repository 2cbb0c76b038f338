// Tests for the sequential ablation baselines: the greedy (2k-1)-spanner
// and the greedy hitting set (compared against their distributed
// counterparts for quality).
#include <gtest/gtest.h>

#include <algorithm>

#include "ccq/graph/exact.hpp"
#include "ccq/skeleton/hitting_set.hpp"
#include "ccq/spanner/greedy.hpp"
#include "test_helpers.hpp"

namespace ccq {
namespace {

using testing::InstanceSpec;

class GreedySpannerSweep : public ::testing::TestWithParam<InstanceSpec> {};

TEST_P(GreedySpannerSweep, StretchAndSizeBoundsHold)
{
    const Graph g = make_instance(GetParam());
    for (const int k : {1, 2, 3}) {
        const SpannerResult result = greedy_spanner(g, k);
        EXPECT_LE(measured_spanner_stretch(g, result.spanner),
                  static_cast<double>(2 * k - 1) + 1e-9)
            << GetParam().label() << " k=" << k;
        // Greedy achieves O(n^{1+1/k}) *without* the k factor.
        const double bound =
            4.0 * std::pow(static_cast<double>(g.node_count()), 1.0 + 1.0 / k);
        EXPECT_LE(static_cast<double>(result.spanner.edge_count()), bound);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Families, GreedySpannerSweep,
    ::testing::Values(
        InstanceSpec{GraphFamily::erdos_renyi_dense, 48, 1, 50},
        InstanceSpec{GraphFamily::erdos_renyi_sparse, 48, 2, 50},
        InstanceSpec{GraphFamily::geometric, 48, 3, 50},
        InstanceSpec{GraphFamily::clustered, 48, 4, 50},
        InstanceSpec{GraphFamily::grid, 49, 5, 50},
        InstanceSpec{GraphFamily::erdos_renyi_dense, 48, 6, 1}),
    testing::InstanceSpecName{});

TEST(GreedySpanner, KeepsEveryBridge)
{
    // A tree is its own unique spanner: greedy must keep all edges.
    Rng rng(1);
    const Graph tree = random_tree(24, WeightRange{1, 9}, rng);
    const SpannerResult result = greedy_spanner(tree, 3);
    EXPECT_EQ(result.spanner.edge_count(), tree.edge_count());
}

TEST(GreedySpanner, NeverLargerThanInput)
{
    Rng rng(2);
    const Graph g = complete_graph(20, WeightRange{1, 9}, rng);
    const SpannerResult result = greedy_spanner(g, 2);
    EXPECT_LT(result.spanner.edge_count(), g.edge_count());
}

TEST(GreedySpanner, UsuallySparserThanBaswanaSen)
{
    // Not a theorem, but the expected ablation outcome on dense inputs;
    // fixed seeds keep it deterministic.
    Rng rng(3);
    const Graph g = erdos_renyi(64, 0.4, WeightRange{1, 30}, rng);
    const SpannerResult greedy = greedy_spanner(g, 2);
    const SpannerResult distributed = baswana_sen_spanner(g, 2, rng);
    EXPECT_LE(greedy.spanner.edge_count(), distributed.spanner.edge_count());
}

// Weights near kInfinity: stretch * weight would overflow (k = 3, 5) or
// pass kInfinity (k = 2), where an unreachable endpoint no longer
// compares above the budget.  The budget saturates instead, so every
// kept-out edge is still spanned by a finite path within 2k-1 times its
// weight, and a heavy edge with no alternative path is kept.
TEST(GreedySpanner, WeightsNearInfinityKeepTheStretch)
{
    for (const int k : {2, 3, 5}) {
        const Weight stretch = 2 * k - 1;
        Graph g = Graph::undirected(7);
        g.add_edge(0, 1, kInfinity - 1); // no other path
        g.add_edge(2, 3, kInfinity / 4); // 2-3-4 spans 2-4, so 2-4 goes
        g.add_edge(3, 4, kInfinity / 4);
        g.add_edge(2, 4, kInfinity - 2);
        // The lightest weight whose budget saturates; 5 is unreachable
        // when it is processed, and 5-6 is then spanned through 4.
        g.add_edge(4, 5, (kInfinity - 1) / stretch + 1);
        g.add_edge(5, 6, kInfinity - 3);
        g.add_edge(4, 6, 7);
        const SpannerResult result = greedy_spanner(g, k);
        EXPECT_EQ(result.stretch_bound, stretch);
        const auto kept = [&](const WeightedEdge& e) {
            for (const Edge& s : result.spanner.neighbors(e.u))
                if (s.to == e.v && s.weight == e.weight) return true;
            return false;
        };
        for (const WeightedEdge& e : g.edge_list()) {
            const Weight dist = dijkstra_from(result.spanner, e.u)[static_cast<std::size_t>(e.v)];
            EXPECT_TRUE(is_finite(dist)) << "k=" << k << " edge " << e.u << "-" << e.v;
            // dist <= stretch * weight, without forming the product.
            EXPECT_LE((dist + stretch - 1) / stretch, e.weight)
                << "k=" << k << " edge " << e.u << "-" << e.v;
        }
        EXPECT_TRUE(kept({0, 1, kInfinity - 1})) << "k=" << k;
        EXPECT_FALSE(kept({2, 4, kInfinity - 2})) << "k=" << k;
    }
}

TEST(GreedySpanner, RejectsBadInput)
{
    EXPECT_THROW((void)greedy_spanner(Graph::directed(3), 2), check_error);
    EXPECT_THROW((void)greedy_spanner(Graph::undirected(3), 0), check_error);
}

TEST(GreedyHittingSet, HitsEveryRowAndIsDeterministic)
{
    Rng rng(4);
    const Graph g = erdos_renyi(48, 0.2, WeightRange{1, 20}, rng);
    const DistanceMatrix exact = exact_apsp(g);
    SparseMatrix rows(48);
    for (NodeId u = 0; u < 48; ++u) {
        SparseRow row;
        for (NodeId v = 0; v < 48; ++v)
            if (is_finite(exact.at(u, v))) row.push_back(SparseEntry{v, exact.at(u, v)});
        std::sort(row.begin(), row.end(), entry_less);
        row.resize(std::min<std::size_t>(row.size(), 8));
        rows[static_cast<std::size_t>(u)] = std::move(row);
    }
    const std::vector<NodeId> greedy = compute_hitting_set_greedy(rows);
    EXPECT_EQ(greedy, compute_hitting_set_greedy(rows)); // deterministic
    for (NodeId u = 0; u < 48; ++u) {
        const bool hit = std::any_of(
            rows[static_cast<std::size_t>(u)].begin(), rows[static_cast<std::size_t>(u)].end(),
            [&](const SparseEntry& e) {
                return std::binary_search(greedy.begin(), greedy.end(), e.node);
            });
        EXPECT_TRUE(hit) << "row " << u;
    }

    // Quality: greedy is at least as small as the sampled construction
    // on this instance (its selling point as an ablation baseline).
    RoundLedger ledger;
    CliqueTransport transport(48, CostModel::standard(), ledger);
    const std::vector<NodeId> sampled = compute_hitting_set(rows, 8, rng, transport, "hs");
    EXPECT_LE(greedy.size(), sampled.size());
}

TEST(GreedyHittingSet, SingletonRows)
{
    SparseMatrix rows(3);
    rows[0] = {{0, 0}};
    rows[1] = {{1, 0}};
    rows[2] = {{2, 0}};
    EXPECT_EQ(compute_hitting_set_greedy(rows), (std::vector<NodeId>{0, 1, 2}));
}

TEST(GreedyHittingSet, SharedHubCoversAll)
{
    SparseMatrix rows(3);
    rows[0] = {{0, 0}, {2, 5}};
    rows[1] = {{1, 0}, {2, 4}};
    rows[2] = {{2, 0}};
    EXPECT_EQ(compute_hitting_set_greedy(rows), (std::vector<NodeId>{2}));
}

} // namespace
} // namespace ccq
