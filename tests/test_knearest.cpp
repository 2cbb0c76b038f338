// Tests for the Section 5 k-nearest computation: correctness against a
// brute-force oracle, faithful-bins vs fast-path equivalence, degenerate
// branches, and combination with the hopset (Lemma 3.3).
#include <gtest/gtest.h>

#include <algorithm>

#include "ccq/hopset/knearest_hopset.hpp"
#include "ccq/knearest/bins.hpp"
#include "ccq/graph/metrics.hpp"
#include "ccq/knearest/knearest.hpp"
#include "ccq/matrix/engine.hpp"
#include "test_helpers.hpp"

namespace ccq {
namespace {

using testing::InstanceSpec;

/// Brute-force oracle: k smallest (h-hop distance, id) per node.
SparseMatrix brute_force_k_nearest(const Graph& g, int k, int max_hops)
{
    const int n = g.node_count();
    SparseMatrix rows(static_cast<std::size_t>(n));
    for (NodeId u = 0; u < n; ++u) {
        const std::vector<Weight> dist = hop_limited_from(g, u, max_hops);
        SparseRow row;
        for (NodeId v = 0; v < n; ++v)
            if (is_finite(dist[static_cast<std::size_t>(v)]))
                row.push_back(SparseEntry{v, dist[static_cast<std::size_t>(v)]});
        std::sort(row.begin(), row.end(), entry_less);
        if (std::cmp_less(k, row.size())) row.resize(static_cast<std::size_t>(k));
        rows[static_cast<std::size_t>(u)] = std::move(row);
    }
    return rows;
}

struct KnnCase {
    InstanceSpec instance;
    int k;
    int h;
    int iterations;

    [[nodiscard]] std::string label() const
    {
        return instance.label() + "_k" + std::to_string(k) + "_h" + std::to_string(h) + "_i" +
               std::to_string(iterations);
    }
};

struct KnnCaseName {
    template <class P>
    std::string operator()(const ::testing::TestParamInfo<P>& info) const
    {
        return info.param.label();
    }
};

class KNearestSweep : public ::testing::TestWithParam<KnnCase> {};

// Lemma 5.2: the computed rows equal the k smallest h^i-hop distances.
TEST_P(KNearestSweep, MatchesBruteForceOracle)
{
    const KnnCase& param = GetParam();
    const Graph g = make_instance(param.instance);
    RoundLedger ledger;
    CliqueTransport transport(g.node_count(), CostModel::standard(), ledger);

    KNearestOptions options;
    options.k = param.k;
    options.h = param.h;
    options.iterations = param.iterations;
    const KNearestResult result =
        compute_k_nearest(adjacency_rows(g), options, transport, "knn");

    const auto hop_budget = static_cast<int>(
        std::min<std::int64_t>(result.hop_budget, g.node_count()));
    EXPECT_EQ(result.rows, brute_force_k_nearest(g, std::min(param.k, g.node_count()),
                                                 hop_budget));
    EXPECT_GT(ledger.total_rounds(), 0.0);
}

// The faithful bin/h-combination execution must produce identical rows.
TEST_P(KNearestSweep, FaithfulBinsMatchesFastPath)
{
    const KnnCase& param = GetParam();
    const Graph g = make_instance(param.instance);
    RoundLedger fast_ledger, faithful_ledger;
    CliqueTransport fast_transport(g.node_count(), CostModel::standard(), fast_ledger);
    CliqueTransport faithful_transport(g.node_count(), CostModel::standard(), faithful_ledger);

    KNearestOptions options;
    options.k = param.k;
    options.h = param.h;
    options.iterations = param.iterations;
    const KNearestResult fast =
        compute_k_nearest(adjacency_rows(g), options, fast_transport, "knn");
    options.faithful_bins = true;
    const KNearestResult faithful =
        compute_k_nearest(adjacency_rows(g), options, faithful_transport, "knn");
    EXPECT_EQ(fast.rows, faithful.rows);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, KNearestSweep,
    ::testing::Values(
        KnnCase{{GraphFamily::erdos_renyi_sparse, 48, 1, 30}, 4, 2, 2},
        KnnCase{{GraphFamily::erdos_renyi_sparse, 48, 2, 30}, 6, 2, 3},
        KnnCase{{GraphFamily::erdos_renyi_dense, 48, 3, 30}, 6, 3, 2},
        KnnCase{{GraphFamily::path, 40, 4, 30}, 5, 2, 3},
        KnnCase{{GraphFamily::grid, 36, 5, 30}, 6, 2, 2},
        KnnCase{{GraphFamily::geometric, 48, 6, 30}, 6, 2, 2},
        KnnCase{{GraphFamily::clustered, 48, 7, 30}, 4, 3, 1},
        KnnCase{{GraphFamily::tree, 40, 8, 30}, 6, 2, 2},
        KnnCase{{GraphFamily::star, 40, 9, 30}, 4, 2, 1},
        KnnCase{{GraphFamily::barabasi_albert, 48, 10, 30}, 5, 2, 2},
        KnnCase{{GraphFamily::erdos_renyi_sparse, 48, 11, 1}, 6, 2, 2},
        KnnCase{{GraphFamily::erdos_renyi_dense, 40, 12, 30}, 40, 2, 3}),
    KnnCaseName{});

/// Lemma 5.5 iterations computed on the naive reference product:
/// `iterations` rounds of filter_k_smallest(rows^h).
SparseMatrix reference_k_nearest(const SparseMatrix& adjacency, int k, int h, int iterations)
{
    const int n = static_cast<int>(adjacency.size());
    SparseMatrix rows = filter_k_smallest(adjacency, k);
    for (int i = 0; i < iterations; ++i) {
        SparseMatrix power = rows;
        for (int hop = 1; hop < h; ++hop) power = min_plus_product_reference(power, rows, n);
        rows = filter_k_smallest(power, k);
    }
    return rows;
}

// The bounded filtered products behind compute_k_nearest (fast path and
// both faithful-bins branches, bins.cpp's degenerate broadcast included)
// against the naive reference product, on every family.  Weights 0..4
// make ties at the cut-off common, and zero-weight paths expose a bin
// helper whose h-hop search runs past h hops.
TEST(KNearest, BoundedProductsMatchReferenceOnEveryFamily)
{
    struct Params {
        int k, h, iterations;
    };
    // {6, 2, 2} runs the bin scheme at n=32; {5, 6, 1} is degenerate there.
    const Params params[] = {{6, 2, 2}, {5, 6, 1}};
    bool ran_bins = false, ran_degenerate = false;
    for (const GraphFamily family : testing::kAllFamilies) {
        for (const std::uint64_t seed : {1u, 2u, 3u}) {
            Rng rng(seed);
            const Graph g = make_family_instance(family, 32, WeightRange{0, 4}, rng);
            const SparseMatrix adjacency = adjacency_rows(g);
            for (const Params& p : params) {
                const int k = std::min(p.k, g.node_count());
                const SparseMatrix truth =
                    reference_k_nearest(adjacency, k, p.h, p.iterations);
                const bool degenerate = bin_scheme_params(g.node_count(), k, p.h).degenerate;
                (degenerate ? ran_degenerate : ran_bins) = true;
                for (const bool faithful : {false, true}) {
                    RoundLedger ledger;
                    CliqueTransport transport(g.node_count(), CostModel::standard(), ledger);
                    KNearestOptions options;
                    options.k = p.k;
                    options.h = p.h;
                    options.iterations = p.iterations;
                    options.faithful_bins = faithful;
                    EXPECT_EQ(compute_k_nearest(adjacency, options, transport, "knn").rows,
                              truth)
                        << family_name(family) << " seed=" << seed << " k=" << p.k
                        << " h=" << p.h << " faithful=" << faithful;
                }
            }
        }
    }
    EXPECT_TRUE(ran_bins);
    EXPECT_TRUE(ran_degenerate);
}

TEST(KNearest, BinSchemeParamsMatchPaperFormulas)
{
    // n = 4096, h = 2: p = floor(64 * 2/4) = 32.
    const BinSchemeParams params = bin_scheme_params(4096, 64, 2);
    EXPECT_EQ(params.p, 32);
    EXPECT_FALSE(params.degenerate);
    EXPECT_EQ(params.bin_size, (4096LL * 64) / 32);
    // h * C(p, h) <= n must hold for the canonical parameterization.
    EXPECT_LE(params.combination_count, 4096);
}

TEST(KNearest, BinSchemeDegeneratesGracefully)
{
    // Tiny n with large h: p = floor(n^{1/h} h/4) < h.
    EXPECT_TRUE(bin_scheme_params(16, 2, 8).degenerate);
    EXPECT_TRUE(bin_scheme_params(27, 3, 3).degenerate);
    // A modest parameterization with p >= h stays usable even when k
    // exceeds n^{1/h} (loads are then charged honestly above O(1)).
    EXPECT_FALSE(bin_scheme_params(64, 64, 3).degenerate);
}

TEST(KNearest, DegenerateBroadcastBranchIsStillCorrect)
{
    Rng rng(21);
    const Graph g = erdos_renyi(24, 0.2, WeightRange{1, 9}, rng);
    RoundLedger ledger;
    CliqueTransport transport(24, CostModel::standard(), ledger);
    KNearestOptions options;
    options.k = 5;
    options.h = 6; // forces p < h at n=24
    options.iterations = 1;
    ASSERT_TRUE(bin_scheme_params(24, 5, 6).degenerate);
    const KNearestResult result =
        compute_k_nearest(adjacency_rows(g), options, transport, "knn");
    EXPECT_TRUE(result.used_degenerate_broadcast);
    EXPECT_EQ(result.rows, brute_force_k_nearest(g, 5, 6));
}

TEST(KNearest, ZeroIterationsReturnsFilteredAdjacency)
{
    Rng rng(22);
    const Graph g = erdos_renyi(16, 0.4, WeightRange{1, 9}, rng);
    RoundLedger ledger;
    CliqueTransport transport(16, CostModel::standard(), ledger);
    KNearestOptions options;
    options.k = 3;
    options.iterations = 0;
    const KNearestResult result =
        compute_k_nearest(adjacency_rows(g), options, transport, "knn");
    EXPECT_EQ(result.rows, filter_k_smallest(adjacency_rows(g), 3));
    EXPECT_EQ(result.hop_budget, 1);
}

TEST(KNearest, RequiresDiagonalZeros)
{
    RoundLedger ledger;
    CliqueTransport transport(3, CostModel::standard(), ledger);
    SparseMatrix rows(3);
    rows[0] = {{0, 0}};
    rows[1] = {{2, 5}}; // missing (1,0) self entry
    rows[2] = {{2, 0}};
    KNearestOptions options;
    options.k = 2;
    EXPECT_THROW((void)compute_k_nearest(rows, options, transport, "knn"), check_error);
}

TEST(KNearest, DirectedGraphsSupported)
{
    Rng rng(23);
    Graph g = Graph::directed(20);
    for (NodeId u = 0; u < 20; ++u)
        for (NodeId v = 0; v < 20; ++v)
            if (u != v && rng.bernoulli(0.25))
                g.add_edge(u, v, static_cast<Weight>(rng.uniform_int(1, 9)));
    RoundLedger ledger;
    CliqueTransport transport(20, CostModel::standard(), ledger);
    KNearestOptions options;
    options.k = 4;
    options.h = 2;
    options.iterations = 2;
    const KNearestResult result =
        compute_k_nearest(adjacency_rows(g), options, transport, "knn");
    EXPECT_EQ(result.rows, brute_force_k_nearest(g, 4, 4));
}

// Lemma 3.3 end-to-end: hopset + filtered powers = exact k-nearest.
TEST(KNearest, WithHopsetComputesExactKNearest)
{
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
        Rng rng(seed);
        const Graph g = erdos_renyi(40, 0.1, WeightRange{1, 60}, rng);
        const DistanceMatrix exact = exact_apsp(g);
        RoundLedger ledger;
        CliqueTransport transport(40, CostModel::standard(), ledger);

        const int k = 6;
        const Hopset hopset =
            build_knearest_hopset(g, exact, 1.0, weighted_diameter(exact), transport, "h", k);

        KNearestOptions options;
        options.k = k;
        options.h = 2;
        options.iterations = 1;
        while (saturating_pow(options.h, options.iterations) < hopset.claimed_hop_bound)
            ++options.iterations;
        const KNearestResult result =
            compute_k_nearest(augmented_rows(g, hopset), options, transport, "knn");

        // The rows must hold the true k nearest at exact distances.
        for (NodeId u = 0; u < 40; ++u) {
            SparseRow truth;
            for (NodeId v = 0; v < 40; ++v)
                if (is_finite(exact.at(u, v))) truth.push_back(SparseEntry{v, exact.at(u, v)});
            std::sort(truth.begin(), truth.end(), entry_less);
            if (std::cmp_less(k, truth.size())) truth.resize(k);
            EXPECT_EQ(result.rows[static_cast<std::size_t>(u)], truth)
                << "seed " << seed << " node " << u;
        }
    }
}

} // namespace
} // namespace ccq
