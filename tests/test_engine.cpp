// Randomized equivalence of the blocked/parallel min-plus engine against
// the seed (naive) kernels: dense and sparse, INF / overflow-saturation
// edges, the fused Lemma 5.5 filter, for thread counts {1, 4} and block
// sizes {1, 8, 64}.  Every comparison is exact (operator==), i.e. the
// engine must be bitwise identical to the reference for every config.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "ccq/common/rng.hpp"
#include "ccq/graph/generators.hpp"
#include "ccq/matrix/engine.hpp"

namespace ccq {
namespace {

// Odd thread counts give uneven bands; threads 9 at block 8 asks for
// more threads than there are bands whenever n <= 64 (n=33: 5 bands).
const std::vector<EngineConfig> kConfigs = {
    {1, 1}, {1, 8}, {1, 64}, {3, 8}, {4, 1}, {4, 8}, {4, 64}, {9, 8},
};

std::string config_label(const EngineConfig& config)
{
    return "threads=" + std::to_string(config.threads) +
           " block=" + std::to_string(config.block_size);
}

/// Dense matrix with a mix of small weights, unreachable (kInfinity)
/// cells, and near-saturation values whose sums overflow past kInfinity.
DistanceMatrix random_dense(int n, Rng& rng, double inf_fraction, double huge_fraction)
{
    DistanceMatrix m(n);
    for (NodeId i = 0; i < n; ++i) {
        for (NodeId j = 0; j < n; ++j) {
            const double coin = rng.uniform_real();
            if (coin < inf_fraction) continue; // stays kInfinity
            if (coin < inf_fraction + huge_fraction) {
                m.at(i, j) = kInfinity - rng.uniform_int(1, 1000);
            } else {
                m.at(i, j) = rng.uniform_int(0, 500);
            }
        }
    }
    return m;
}

/// Sparse rows over [0, n) with the same mix; rows are canonicalized.
/// Weights are drawn from [0, max_weight], so a small max_weight makes
/// ties (zero-weight ones included) common; with_self adds the diagonal.
SparseMatrix random_sparse(int n, int per_row, Rng& rng, double huge_fraction,
                           Weight max_weight = 500, bool with_self = true)
{
    SparseMatrix rows(static_cast<std::size_t>(n));
    for (NodeId u = 0; u < n; ++u) {
        SparseRow& row = rows[static_cast<std::size_t>(u)];
        if (with_self) row.push_back(SparseEntry{u, 0});
        for (int j = with_self ? 1 : 0; j < per_row; ++j) {
            const auto node = static_cast<NodeId>(rng.uniform_int(0, n - 1));
            const Weight dist = rng.uniform_real() < huge_fraction
                                    ? kInfinity - rng.uniform_int(1, 1000)
                                    : rng.uniform_int(0, max_weight);
            row.push_back(SparseEntry{node, dist});
        }
        normalize_row(row);
    }
    return rows;
}

/// Every row sorted by (dist, id) with unique nodes and finite dists.
void expect_canonical(const SparseMatrix& m, const std::string& context)
{
    for (std::size_t u = 0; u < m.size(); ++u) {
        const SparseRow& row = m[u];
        std::vector<NodeId> nodes;
        for (std::size_t i = 0; i < row.size(); ++i) {
            EXPECT_TRUE(is_finite(row[i].dist)) << context << " row " << u;
            if (i > 0) {
                EXPECT_TRUE(entry_less(row[i - 1], row[i])) << context << " row " << u;
            }
            nodes.push_back(row[i].node);
        }
        std::sort(nodes.begin(), nodes.end());
        EXPECT_EQ(std::adjacent_find(nodes.begin(), nodes.end()), nodes.end())
            << context << " row " << u << " repeats a node";
    }
}

TEST(EngineDense, MatchesReferenceAcrossConfigs)
{
    for (const int n : {1, 2, 7, 33, 64, 97}) {
        Rng rng(1000 + static_cast<std::uint64_t>(n));
        const DistanceMatrix a = random_dense(n, rng, 0.2, 0.0);
        const DistanceMatrix b = random_dense(n, rng, 0.2, 0.0);
        const DistanceMatrix reference = min_plus_product_reference(a, b);
        for (const EngineConfig& config : kConfigs) {
            EXPECT_EQ(min_plus_product(a, b, config), reference)
                << "n=" << n << " " << config_label(config);
        }
    }
}

TEST(EngineDense, SaturationStaysClampedAndIdentical)
{
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
        Rng rng(seed);
        const int n = 41;
        const DistanceMatrix a = random_dense(n, rng, 0.3, 0.3);
        const DistanceMatrix b = random_dense(n, rng, 0.3, 0.3);
        const DistanceMatrix reference = min_plus_product_reference(a, b);
        for (const EngineConfig& config : kConfigs) {
            const DistanceMatrix c = min_plus_product(a, b, config);
            EXPECT_EQ(c, reference) << "seed=" << seed << " " << config_label(config);
            for (NodeId i = 0; i < n; ++i)
                for (NodeId j = 0; j < n; ++j) ASSERT_LE(c.at(i, j), kInfinity);
        }
    }
}

TEST(EngineDense, ClosureMatchesReferenceSquaring)
{
    Rng rng(7);
    const Graph g = erdos_renyi(40, 0.1, WeightRange{1, 50}, rng);
    DistanceMatrix reference = adjacency_matrix(g);
    int reference_products = 0;
    for (std::int64_t hops = 1; hops < 40 - 1; hops *= 2) {
        reference = min_plus_product_reference(reference, reference);
        ++reference_products;
    }
    for (const EngineConfig& config : kConfigs) {
        int products = 0;
        EXPECT_EQ(min_plus_closure(adjacency_matrix(g), &products, config), reference)
            << config_label(config);
        // The closure may stop squaring once it hits the fixed point;
        // the result above is still bitwise identical to the full
        // ceil(log2(n-1)) schedule.
        EXPECT_GE(products, 1);
        EXPECT_LE(products, reference_products);
    }
}

TEST(EngineDense, ClosureEarlyExitsAtTheFixedPoint)
{
    // A closed matrix (a finished closure) squares to itself, so one
    // product must detect the fixed point regardless of n.
    Rng rng(9);
    const Graph g = erdos_renyi(33, 0.3, WeightRange{1, 20}, rng);
    const DistanceMatrix closed = min_plus_closure(adjacency_matrix(g), nullptr,
                                                   EngineConfig::serial());
    for (const EngineConfig& config : kConfigs) {
        int products = 0;
        EXPECT_EQ(min_plus_closure(closed, &products, config), closed)
            << config_label(config);
        EXPECT_EQ(products, 1) << config_label(config);
    }

    // A path graph is the adversarial opposite: distances keep changing
    // until the hop budget covers n-1, so every squaring must run and
    // the count must match the full schedule exactly.
    Graph path = Graph::undirected(9);
    for (NodeId u = 0; u + 1 < 9; ++u) path.add_edge(u, u + 1, 1);
    DistanceMatrix full = adjacency_matrix(path);
    int full_products = 0;
    for (std::int64_t hops = 1; hops < 9 - 1; hops *= 2) {
        full = min_plus_product_reference(full, full);
        ++full_products;
    }
    int products = 0;
    EXPECT_EQ(min_plus_closure(adjacency_matrix(path), &products, EngineConfig{4, 8}), full);
    EXPECT_EQ(products, full_products);
}

TEST(EngineDense, LegacyEntryPointDelegatesToEngine)
{
    Rng rng(8);
    const DistanceMatrix a = random_dense(23, rng, 0.2, 0.1);
    const DistanceMatrix b = random_dense(23, rng, 0.2, 0.1);
    EXPECT_EQ(min_plus_product(a, b), min_plus_product_reference(a, b));
}

TEST(EngineSparse, MatchesReferenceAcrossConfigs)
{
    for (const int n : {1, 5, 24, 60}) {
        Rng rng(2000 + static_cast<std::uint64_t>(n));
        const SparseMatrix a = random_sparse(n, std::min(n, 6), rng, 0.0);
        const SparseMatrix b = random_sparse(n, std::min(n, 6), rng, 0.0);
        const SparseMatrix reference = min_plus_product_reference(a, b, n);
        expect_canonical(reference, "reference n=" + std::to_string(n));
        for (const EngineConfig& config : kConfigs) {
            const SparseMatrix product = min_plus_product(a, b, n, config);
            EXPECT_EQ(product, reference) << "n=" << n << " " << config_label(config);
            expect_canonical(product, "n=" + std::to_string(n) + " " + config_label(config));
        }
    }
}

TEST(EngineSparse, SaturatedEntriesMatchReference)
{
    const int n = 30;
    Rng rng(21);
    const SparseMatrix a = random_sparse(n, 5, rng, 0.4);
    const SparseMatrix b = random_sparse(n, 5, rng, 0.4);
    const SparseMatrix reference = min_plus_product_reference(a, b, n);
    expect_canonical(reference, "reference");
    for (const EngineConfig& config : kConfigs) {
        const SparseMatrix product = min_plus_product(a, b, n, config);
        EXPECT_EQ(product, reference) << config_label(config);
        expect_canonical(product, config_label(config));
        for (const int k : {0, 2, 7}) {
            EXPECT_EQ(min_plus_product_filtered(a, b, n, k, config),
                      filter_k_smallest(reference, k))
                << config_label(config) << " k=" << k;
        }
    }
}

// A saturated candidate (via + hop >= kInfinity) is not a path: it must
// neither appear in the row nor put its node in the row a second time.
TEST(EngineSparse, SaturatedCandidateIsNeverRelaxed)
{
    const Weight w = kInfinity - 1;
    SparseMatrix a(5);
    a[0] = {{0, 0}, {1, 1}, {2, w}, {3, w}};
    a[1] = {{1, 0}};
    a[2] = {{2, 0}, {4, w}};
    a[3] = {{3, 0}, {4, 0}};
    a[4] = {{4, 0}};
    SparseMatrix want(5);
    want[0] = {{0, 0}, {1, 1}, {2, w}, {3, w}, {4, w}};
    want[1] = {{1, 0}};
    want[2] = {{2, 0}, {4, w}};
    want[3] = {{3, 0}, {4, 0}};
    want[4] = {{4, 0}};
    EXPECT_EQ(min_plus_product_reference(a, a, 5), want);
    for (const EngineConfig& config : kConfigs) {
        const SparseMatrix product = min_plus_product(a, a, 5, config);
        EXPECT_EQ(product, want) << config_label(config);
        expect_canonical(product, config_label(config));
    }
}

TEST(EngineSparse, FilteredProductMatchesFilterOfProduct)
{
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
        Rng rng(seed);
        const Graph g = erdos_renyi(32, 0.2, WeightRange{1, 30}, rng);
        const SparseMatrix rows = adjacency_rows(g);
        const SparseMatrix reference = min_plus_product_reference(rows, rows, 32);
        for (const EngineConfig& config : kConfigs) {
            for (const int k : {0, 1, 4, 16, 100}) {
                EXPECT_EQ(min_plus_product_filtered(rows, rows, 32, k, config),
                          filter_k_smallest(reference, k))
                    << "seed=" << seed << " k=" << k << " " << config_label(config);
            }
        }
    }
}

// The per-row cut-off τ (docs/ENGINE.md, "Bounded filtered products")
// must keep the filtered product bitwise equal to filtering the full
// reference product, on every shape that moves τ: ties at τ (zero
// weights, weights in {0,1,2}), rows without a self entry, operand rows
// shorter than k (τ = ∞), k at and past the row length, and weights near
// kInfinity.
TEST(EngineSparse, BoundedFilterMatchesFilterOfReference)
{
    struct Shape {
        const char* name;
        int per_row;
        Weight max_weight;
        double huge_fraction;
        bool with_self;
    };
    const Shape shapes[] = {
        {"zero-ties", 6, 0, 0.0, true},   {"small-ties", 6, 2, 0.0, true},
        {"no-self", 6, 2, 0.0, false},    {"no-self-zero", 5, 0, 0.0, false},
        {"short-rows", 2, 9, 0.0, false}, {"near-inf", 5, 3, 0.3, true},
        {"near-inf-no-self", 5, 50, 0.5, false},
    };
    const int n = 40;
    for (const Shape& shape : shapes) {
        for (const std::uint64_t seed : {11u, 12u, 13u}) {
            Rng rng(seed);
            const SparseMatrix a =
                random_sparse(n, shape.per_row, rng, shape.huge_fraction, shape.max_weight,
                              shape.with_self);
            const SparseMatrix b =
                random_sparse(n, shape.per_row, rng, shape.huge_fraction, shape.max_weight,
                              shape.with_self);
            const SparseMatrix reference = min_plus_product_reference(a, b, n);
            expect_canonical(reference, shape.name);
            for (const int threads : {1, 4}) {
                const EngineConfig config{threads, 64};
                for (const int k : {1, 2, shape.per_row, shape.per_row + 3, n + 1}) {
                    const std::string label = std::string(shape.name) +
                                              " seed=" + std::to_string(seed) +
                                              " threads=" + std::to_string(threads) +
                                              " k=" + std::to_string(k);
                    const SparseMatrix product = min_plus_product_filtered(a, b, n, k, config);
                    EXPECT_EQ(product, filter_k_smallest(reference, k)) << label;
                    expect_canonical(product, label);
                    // Squaring a filtered operand: B rows of exactly k entries.
                    const SparseMatrix ak = filter_k_smallest(a, k);
                    EXPECT_EQ(min_plus_product_filtered(ak, ak, n, k, config),
                              filter_k_smallest(min_plus_product_reference(ak, ak, n), k))
                        << label << " (filtered operand)";
                }
            }
        }
    }
}

// Ties at exactly τ with different ids: every via reaches the same nodes
// at the same distance, so the k-th candidate ties with later ones and
// the (dist, id) order alone decides which survive.
TEST(EngineSparse, BoundedFilterKeepsTiesAtTheCutoff)
{
    const int n = 8;
    SparseMatrix a(n);
    SparseMatrix b(n);
    for (NodeId u = 0; u < n; ++u) {
        a[static_cast<std::size_t>(u)] = {{(u + 1) % n, 0}, {(u + 2) % n, 0}};
        normalize_row(a[static_cast<std::size_t>(u)]);
        SparseRow& row = b[static_cast<std::size_t>(u)];
        for (NodeId v = 0; v < n; ++v)
            if (v != u) row.push_back(SparseEntry{v, v % 2 == 0 ? 0 : 1});
        normalize_row(row);
    }
    const SparseMatrix reference = min_plus_product_reference(a, b, n);
    for (const int threads : {1, 4}) {
        for (int k = 1; k <= n + 1; ++k) {
            EXPECT_EQ(min_plus_product_filtered(a, b, n, k, EngineConfig{threads, 64}),
                      filter_k_smallest(reference, k))
                << "threads=" << threads << " k=" << k;
        }
    }
}

TEST(EngineSparse, RejectsNonCanonicalOperands)
{
    const int n = 4;
    SparseMatrix good(n);
    for (NodeId u = 0; u < n; ++u) good[static_cast<std::size_t>(u)] = {{u, 0}};
    const SparseRow bad_rows[] = {
        {{1, 5}, {2, 3}},         // not sorted by dist
        {{2, 3}, {1, 3}},         // ties not sorted by id
        {{1, 3}, {1, 5}},         // repeated node
        {{1, 3}, {2, kInfinity}}, // infinite entry
        {{1, -1}},                // negative weight
        {{1, 0}, {n, 1}},         // node out of range
    };
    for (const SparseRow& bad_row : bad_rows) {
        SparseMatrix bad = good;
        bad[1] = bad_row;
        for (const int threads : {1, 4}) {
            const EngineConfig config{threads, 64};
            EXPECT_THROW((void)min_plus_product(good, bad, n, config), check_error);
            EXPECT_THROW((void)min_plus_product_filtered(good, bad, n, 2, config), check_error);
            EXPECT_THROW((void)min_plus_product_filtered(bad, good, n, 2, config), check_error);
        }
    }
}

// The Lemma 5.5 identity, executed entirely on the engine: filtering each
// row to its k smallest entries before exponentiating preserves the k
// smallest entries of the true power, for every engine configuration.
TEST(EngineSparse, FilteredPowerIdentityLemma55)
{
    for (const std::uint64_t seed : {4u, 5u}) {
        Rng rng(seed);
        const Graph g = erdos_renyi(28, 0.25, WeightRange{1, 40}, rng);
        const SparseMatrix rows = adjacency_rows(g);
        for (const EngineConfig& config : kConfigs) {
            for (const int k : {3, 8}) {
                for (const int h : {1, 2, 3}) {
                    const SparseMatrix truth =
                        filter_k_smallest(hop_power(rows, h, 28), k);
                    EXPECT_EQ(filtered_hop_power(rows, h, k, 28, config), truth)
                        << "seed=" << seed << " k=" << k << " h=" << h << " "
                        << config_label(config);
                    EXPECT_EQ(
                        filtered_hop_power(filter_k_smallest(rows, k), h, k, 28, config),
                        truth)
                        << "filtered operand, seed=" << seed << " k=" << k << " h=" << h;
                }
            }
        }
    }
}

TEST(EngineSparse, HopPowerMatchesSerialReference)
{
    Rng rng(31);
    const Graph g = erdos_renyi(20, 0.15, WeightRange{1, 10}, rng);
    const SparseMatrix rows = adjacency_rows(g);
    for (const int h : {1, 2, 4}) {
        SparseMatrix reference = rows;
        for (int i = 1; i < h; ++i) reference = min_plus_product_reference(reference, rows, 20);
        for (const EngineConfig& config : kConfigs) {
            EXPECT_EQ(hop_power(rows, h, 20, config), reference)
                << "h=" << h << " " << config_label(config);
        }
    }
}

TEST(EngineConfigValidation, RejectsBadParameters)
{
    const DistanceMatrix a(4);
    EXPECT_THROW((void)min_plus_product(a, a, (EngineConfig{-1, 8})), check_error);
    EXPECT_THROW((void)min_plus_product(a, a, (EngineConfig{1, 0})), check_error);
    EXPECT_THROW((void)min_plus_product_filtered(SparseMatrix(4), SparseMatrix(4), 4, -1,
                                                 EngineConfig{}),
                 check_error);
    EXPECT_THROW((void)filtered_hop_power(SparseMatrix(4), 0, 1, 4, EngineConfig{}),
                 check_error);
    const DistanceMatrix b(5);
    EXPECT_THROW((void)min_plus_product(a, b, EngineConfig{}), check_error);
}

} // namespace
} // namespace ccq
