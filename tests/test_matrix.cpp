// Tests for the min-plus matrix substrate: dense algebra, sparse rows,
// filtering (including the Lemma 5.5 identity), and the Theorem 6.1
// round-cost model.
#include <gtest/gtest.h>

#include "ccq/graph/exact.hpp"
#include "ccq/graph/generators.hpp"
#include "ccq/matrix/dense.hpp"
#include "ccq/matrix/engine.hpp"
#include "ccq/matrix/round_cost.hpp"
#include "ccq/matrix/sparse.hpp"

namespace ccq {
namespace {

DistanceMatrix identity_matrix(int n)
{
    DistanceMatrix m(n);
    m.set_diagonal_zero();
    return m;
}

TEST(DenseMatrix, IdentityIsNeutral)
{
    Rng rng(1);
    const Graph g = erdos_renyi(20, 0.3, WeightRange{1, 9}, rng);
    const DistanceMatrix a = adjacency_matrix(g);
    EXPECT_EQ(min_plus_product(a, identity_matrix(20)), a);
    EXPECT_EQ(min_plus_product(identity_matrix(20), a), a);
}

TEST(DenseMatrix, ProductIsAssociative)
{
    Rng rng(2);
    const Graph g = erdos_renyi(16, 0.35, WeightRange{1, 9}, rng);
    const DistanceMatrix a = adjacency_matrix(g);
    const DistanceMatrix ab_c = min_plus_product(min_plus_product(a, a), a);
    const DistanceMatrix a_bc = min_plus_product(a, min_plus_product(a, a));
    EXPECT_EQ(ab_c, a_bc);
}

TEST(DenseMatrix, SquareIsTwoHopDistances)
{
    Graph g = Graph::undirected(3);
    g.add_edge(0, 1, 2);
    g.add_edge(1, 2, 3);
    const DistanceMatrix a2 = min_plus_product(adjacency_matrix(g), adjacency_matrix(g));
    EXPECT_EQ(a2.at(0, 2), 5);
    EXPECT_EQ(a2.at(0, 1), 2); // diagonal zero keeps 1-hop entries
}

TEST(DenseMatrix, EntrywiseMinAndSymmetry)
{
    DistanceMatrix a(2), b(2);
    a.at(0, 1) = 5;
    b.at(0, 1) = 3;
    a.at(1, 0) = 4;
    b.at(1, 0) = 9;
    const DistanceMatrix m = entrywise_min(a, b);
    EXPECT_EQ(m.at(0, 1), 3);
    EXPECT_EQ(m.at(1, 0), 4);
    EXPECT_FALSE(is_symmetric(m));
}

TEST(DenseMatrix, BoundsChecked)
{
    DistanceMatrix a(2);
    EXPECT_THROW((void)a.at(0, 2), check_error);
    EXPECT_THROW((void)a.at(-1, 0), check_error);
    EXPECT_THROW(DistanceMatrix(-1), check_error);
}

TEST(SparseMatrix, AdjacencyRowsIncludeDiagonalAndCollapseParallel)
{
    Graph g = Graph::directed(3);
    g.add_edge(0, 1, 5);
    g.add_edge(0, 1, 3); // parallel, lighter
    const SparseMatrix rows = adjacency_rows(g);
    ASSERT_EQ(rows[0].size(), 2u);
    EXPECT_EQ(rows[0][0], (SparseEntry{0, 0}));
    EXPECT_EQ(rows[0][1], (SparseEntry{1, 3}));
}

TEST(SparseMatrix, NormalizeRowSortsByDistThenId)
{
    SparseRow row{{5, 9}, {3, 2}, {7, 2}, {3, 7}};
    normalize_row(row);
    ASSERT_EQ(row.size(), 3u); // node 3 deduplicated to min dist
    EXPECT_EQ(row[0], (SparseEntry{3, 2}));
    EXPECT_EQ(row[1], (SparseEntry{7, 2})); // dist tie broken by id
    EXPECT_EQ(row[2], (SparseEntry{5, 9}));
}

TEST(SparseMatrix, FilterKeepsKSmallestWithIdTies)
{
    SparseMatrix m{{{1, 4}, {2, 4}, {3, 4}, {0, 0}}};
    for (SparseRow& row : m) normalize_row(row);
    const SparseMatrix two = filter_k_smallest(m, 2);
    ASSERT_EQ(two[0].size(), 2u);
    EXPECT_EQ(two[0][0], (SparseEntry{0, 0}));
    EXPECT_EQ(two[0][1], (SparseEntry{1, 4}));
}

TEST(SparseMatrix, SparseProductMatchesDense)
{
    Rng rng(3);
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
        Rng local(seed);
        const Graph g = erdos_renyi(24, 0.2, WeightRange{1, 12}, local, false);
        const SparseMatrix rows = adjacency_rows(g);
        const DistanceMatrix dense = adjacency_matrix(g);
        EXPECT_EQ(sparse_to_dense(min_plus_product(rows, rows, 24), 24),
                  min_plus_product(dense, dense))
            << "seed " << seed;
    }
    (void)rng;
}

TEST(SparseMatrix, HopPowerMatchesHopLimitedDistances)
{
    Rng rng(4);
    const Graph g = erdos_renyi(20, 0.15, WeightRange{1, 10}, rng);
    const SparseMatrix rows = adjacency_rows(g);
    for (const int h : {1, 2, 3, 5}) {
        EXPECT_EQ(sparse_to_dense(hop_power(rows, h, 20), 20), hop_limited_apsp(g, h))
            << "h=" << h;
    }
}

TEST(SparseMatrix, DenseSparseRoundTrip)
{
    Rng rng(5);
    const Graph g = erdos_renyi(15, 0.3, WeightRange{1, 10}, rng);
    const DistanceMatrix dense = adjacency_matrix(g);
    EXPECT_EQ(sparse_to_dense(dense_to_sparse(dense), 15), dense);
}

TEST(SparseMatrix, DensityCountsFiniteEntriesPerRow)
{
    SparseMatrix m(4);
    m[0] = {{0, 0}, {1, 2}};
    m[1] = {{1, 0}};
    m[2] = {};
    m[3] = {{0, 5}};
    EXPECT_DOUBLE_EQ(average_density(m), 1.0);
    EXPECT_DOUBLE_EQ(average_density(SparseMatrix{}), 0.0);
}

// Lemma 5.5: filtering each row to its k smallest entries and
// exponentiating preserves the k smallest entries of the true power.
TEST(SparseMatrix, FilteredPowerIdentityLemma55)
{
    for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
        Rng rng(seed);
        const Graph g = erdos_renyi(28, 0.25, WeightRange{1, 40}, rng);
        const SparseMatrix rows = adjacency_rows(g);
        for (const int k : {2, 4, 8}) {
            for (const int h : {2, 3}) {
                const SparseMatrix truth = filter_k_smallest(hop_power(rows, h, 28), k);
                const SparseMatrix filtered =
                    filter_k_smallest(hop_power(filter_k_smallest(rows, k), h, 28), k);
                EXPECT_EQ(truth, filtered) << "seed=" << seed << " k=" << k << " h=" << h;
            }
        }
    }
}

// The identity also iterates (the induction in the proof of Lemma 5.2).
TEST(SparseMatrix, FilteredPowerIdentityIterates)
{
    Rng rng(11);
    const Graph g = erdos_renyi(24, 0.25, WeightRange{1, 25}, rng);
    const SparseMatrix rows = adjacency_rows(g);
    constexpr int k = 5, h = 2, i = 3; // covers h^i = 8 hops
    SparseMatrix iterated = filter_k_smallest(rows, k);
    for (int round = 0; round < i; ++round)
        iterated = filter_k_smallest(hop_power(iterated, h, 24), k);
    const SparseMatrix truth = filter_k_smallest(hop_power(rows, 8, 24), k);
    EXPECT_EQ(iterated, truth);
}

TEST(RoundCost, Theorem61Formula)
{
    // Dense case rho = n: (n^3)^{1/3} / n^{2/3} + 1 = n^{1/3} + 1.
    EXPECT_NEAR(sparse_product_rounds(1000, 1000, 1000, 1000), 11.0, 1e-9);
    // Constant densities: O(1) rounds regardless of n.
    EXPECT_NEAR(sparse_product_rounds(8, 8, 8, 1'000'000), 1.0008, 1e-4);
    EXPECT_THROW((void)sparse_product_rounds(-1, 1, 1, 10), check_error);
    EXPECT_THROW((void)sparse_product_rounds(1, 1, 1, 0), check_error);
}

TEST(RoundCost, SkeletonDensityPatternIsConstantRounds)
{
    // The Lemma 6.2 product: rho_X <= k, rho_Y <= |S|, rho_XY <= |S|^2/n
    // with |S| = n log k / k.  For k = sqrt(n) this is O(1) rounds.
    const double n = 1 << 20;
    const double k = std::sqrt(n);
    const double s = n * std::log(k) / k;
    EXPECT_LT(sparse_product_rounds(k, s, s * s / n, static_cast<int>(n)), 8.0);
}

TEST(RoundCost, ChargedProductValidatesDensityBound)
{
    RoundLedger ledger;
    CliqueTransport transport(8, CostModel::standard(), ledger);
    Rng rng(6);
    const Graph g = erdos_renyi(8, 0.5, WeightRange{1, 5}, rng);
    const SparseMatrix rows = adjacency_rows(g);
    const SparseMatrix ok = charged_sparse_product(transport, "p", rows, rows, 8.0);
    EXPECT_GT(ledger.total_rounds(), 0.0);
    EXPECT_EQ(sparse_to_dense(ok, 8), sparse_to_dense(min_plus_product(rows, rows, 8), 8));
    // A-priori bound far below the actual density must be rejected.
    EXPECT_THROW((void)charged_sparse_product(transport, "p", rows, rows, 0.5), check_error);
}

} // namespace
} // namespace ccq
