// Tests for the skeleton-graph machinery (Section 6): hitting sets,
// construction invariants, and the Lemma 6.1 guarantee that an
// l-approximation on G_S extends to a 7*l*a^2-approximation on G.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "ccq/skeleton/hitting_set.hpp"
#include "ccq/skeleton/skeleton.hpp"
#include "test_helpers.hpp"

namespace ccq {
namespace {

using testing::InstanceSpec;
using testing::expect_valid_approximation;

/// Exact k-nearest rows (the simplified Lemma 3.4 input: a = 1).
SparseMatrix exact_k_nearest_rows(const DistanceMatrix& exact, int k)
{
    const int n = exact.size();
    SparseMatrix rows(static_cast<std::size_t>(n));
    for (NodeId u = 0; u < n; ++u) {
        SparseRow row;
        for (NodeId v = 0; v < n; ++v)
            if (is_finite(exact.at(u, v))) row.push_back(SparseEntry{v, exact.at(u, v)});
        std::sort(row.begin(), row.end(), entry_less);
        if (std::cmp_less(k, row.size())) row.resize(static_cast<std::size_t>(k));
        rows[static_cast<std::size_t>(u)] = std::move(row);
    }
    return rows;
}

TEST(HittingSet, HitsEveryRow)
{
    Rng rng(1);
    const Graph g = erdos_renyi(60, 0.15, WeightRange{1, 30}, rng);
    const SparseMatrix rows = exact_k_nearest_rows(exact_apsp(g), 8);
    RoundLedger ledger;
    CliqueTransport transport(60, CostModel::standard(), ledger);
    const std::vector<NodeId> hitting = compute_hitting_set(rows, 8, rng, transport, "hs");
    ASSERT_FALSE(hitting.empty());
    for (NodeId u = 0; u < 60; ++u) {
        const bool hit = std::any_of(
            rows[static_cast<std::size_t>(u)].begin(), rows[static_cast<std::size_t>(u)].end(),
            [&](const SparseEntry& e) {
                return std::binary_search(hitting.begin(), hitting.end(), e.node);
            });
        EXPECT_TRUE(hit) << "node " << u << " unhit";
    }
}

TEST(HittingSet, SizeTracksBound)
{
    Rng rng(2);
    const Graph g = erdos_renyi(96, 0.2, WeightRange{1, 30}, rng);
    for (const int k : {4, 8, 16, 32}) {
        const SparseMatrix rows = exact_k_nearest_rows(exact_apsp(g), k);
        RoundLedger ledger;
        CliqueTransport transport(96, CostModel::standard(), ledger);
        Rng local(2);
        const std::vector<NodeId> hitting =
            compute_hitting_set(rows, k, local, transport, "hs");
        EXPECT_LE(static_cast<double>(hitting.size()), skeleton_size_bound(96, k))
            << "k=" << k;
    }
}

TEST(HittingSet, RequiresSelfInRows)
{
    RoundLedger ledger;
    CliqueTransport transport(2, CostModel::standard(), ledger);
    Rng rng(3);
    SparseMatrix rows(2);
    rows[0] = {{0, 0}};
    rows[1] = {{0, 3}}; // 1 not in its own set
    EXPECT_THROW((void)compute_hitting_set(rows, 1, rng, transport, "hs"), check_error);
}

class SkeletonSweep : public ::testing::TestWithParam<InstanceSpec> {};

// Lemma 3.4 with exact inputs and exact skeleton APSP (l = 1, a = 1):
// eta must be a 7-approximation of APSP on G.
TEST_P(SkeletonSweep, ExactInputsYieldSevenApproximation)
{
    const Graph g = make_instance(GetParam());
    const DistanceMatrix exact = exact_apsp(g);
    const int k = std::max(2, g.node_count() / 8);
    const SparseMatrix rows = exact_k_nearest_rows(exact, k);

    RoundLedger ledger;
    CliqueTransport transport(g.node_count(), CostModel::standard(), ledger);
    Rng rng(GetParam().seed);
    const SkeletonGraph skeleton = build_skeleton(g, rows, 1.0, rng, transport, "sk");

    // Structural invariants.
    EXPECT_GT(skeleton.size(), 0);
    EXPECT_LE(static_cast<double>(skeleton.size()),
              skeleton_size_bound(g.node_count(), k));
    for (NodeId u = 0; u < g.node_count(); ++u) {
        const NodeId c = skeleton.center[static_cast<std::size_t>(u)];
        EXPECT_GE(skeleton.member_index[static_cast<std::size_t>(c)], 0)
            << "center must be a skeleton member";
        EXPECT_GE(skeleton.center_delta[static_cast<std::size_t>(u)],
                  exact.at(u, c)); // delta soundness
    }

    // G_S edge weights are realizable path lengths: d_GS >= d_G.
    const DistanceMatrix gs_exact = exact_apsp(skeleton.graph);
    for (int ia = 0; ia < skeleton.size(); ++ia)
        for (int ib = 0; ib < skeleton.size(); ++ib) {
            const Weight through =
                gs_exact.at(static_cast<NodeId>(ia), static_cast<NodeId>(ib));
            if (!is_finite(through)) continue;
            EXPECT_GE(through, exact.at(skeleton.members[static_cast<std::size_t>(ia)],
                                        skeleton.members[static_cast<std::size_t>(ib)]));
        }

    const DistanceMatrix eta =
        extend_skeleton_estimate(skeleton, gs_exact, rows, transport, "ext");
    expect_valid_approximation(exact, eta, 7.0, GetParam().label());
    EXPECT_TRUE(is_symmetric(eta));
}

INSTANTIATE_TEST_SUITE_P(
    Families, SkeletonSweep,
    ::testing::Values(
        InstanceSpec{GraphFamily::path, 40, 1, 60},
        InstanceSpec{GraphFamily::cycle, 40, 2, 60},
        InstanceSpec{GraphFamily::grid, 36, 3, 60},
        InstanceSpec{GraphFamily::tree, 48, 4, 60},
        InstanceSpec{GraphFamily::erdos_renyi_sparse, 56, 5, 60},
        InstanceSpec{GraphFamily::erdos_renyi_dense, 56, 6, 60},
        InstanceSpec{GraphFamily::geometric, 56, 7, 60},
        InstanceSpec{GraphFamily::barabasi_albert, 56, 8, 60},
        InstanceSpec{GraphFamily::clustered, 56, 9, 60},
        InstanceSpec{GraphFamily::star, 40, 10, 60},
        InstanceSpec{GraphFamily::erdos_renyi_sparse, 56, 11, 1},
        InstanceSpec{GraphFamily::erdos_renyi_dense, 56, 12, 100000}),
    testing::InstanceSpecName{});

// Full Lemma 6.1: approximate inputs (an a-approximation delta on the
// rows) still extend, with the factor 7*l*a^2.
TEST(Skeleton, ApproximateInputsRespectLemma61Bound)
{
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
        Rng rng(seed);
        const Graph g = erdos_renyi(48, 0.15, WeightRange{1, 40}, rng);
        const DistanceMatrix exact = exact_apsp(g);
        const int n = g.node_count();
        constexpr int k = 8;
        constexpr double a = 1.5;

        // Build a synthetic a-approximation: inflate distances by a fixed
        // factor (keeps the symmetry and the C1/C2 conditions of
        // Lemma 6.1, since ordering by delta = ordering by d).
        DistanceMatrix delta(n);
        for (NodeId u = 0; u < n; ++u)
            for (NodeId v = 0; v < n; ++v) {
                const Weight d = exact.at(u, v);
                delta.at(u, v) = is_finite(d)
                                     ? static_cast<Weight>(static_cast<double>(d) * a)
                                     : kInfinity;
            }
        SparseMatrix rows(static_cast<std::size_t>(n));
        for (NodeId u = 0; u < n; ++u) {
            SparseRow row;
            for (NodeId v = 0; v < n; ++v)
                if (is_finite(delta.at(u, v))) row.push_back(SparseEntry{v, delta.at(u, v)});
            std::sort(row.begin(), row.end(), entry_less);
            row.resize(std::min<std::size_t>(row.size(), k));
            rows[static_cast<std::size_t>(u)] = std::move(row);
        }

        RoundLedger ledger;
        CliqueTransport transport(n, CostModel::standard(), ledger);
        const SkeletonGraph skeleton = build_skeleton(g, rows, a, rng, transport, "sk");
        const DistanceMatrix gs_exact = exact_apsp(skeleton.graph); // l = 1
        const DistanceMatrix eta =
            extend_skeleton_estimate(skeleton, gs_exact, rows, transport, "ext");
        testing::expect_valid_approximation(exact, eta, 7.0 * a * a,
                                            "lemma6.1 seed=" + std::to_string(seed));
    }
}

// An l-approximation of G_S (not exact) degrades eta by exactly l.
TEST(Skeleton, SkeletonApproximationFactorPropagates)
{
    Rng rng(5);
    const Graph g = erdos_renyi(48, 0.2, WeightRange{1, 25}, rng);
    const DistanceMatrix exact = exact_apsp(g);
    const SparseMatrix rows = exact_k_nearest_rows(exact, 8);
    RoundLedger ledger;
    CliqueTransport transport(48, CostModel::standard(), ledger);
    const SkeletonGraph skeleton = build_skeleton(g, rows, 1.0, rng, transport, "sk");

    constexpr double l = 2.0;
    DistanceMatrix inflated = exact_apsp(skeleton.graph);
    for (NodeId x = 0; x < inflated.size(); ++x)
        for (NodeId y = 0; y < inflated.size(); ++y) {
            if (x == y || !is_finite(inflated.at(x, y))) continue;
            inflated.at(x, y) = static_cast<Weight>(static_cast<double>(inflated.at(x, y)) * l);
        }
    const DistanceMatrix eta =
        extend_skeleton_estimate(skeleton, inflated, rows, transport, "ext");
    testing::expect_valid_approximation(exact, eta, 7.0 * l, "l-propagation");
}

TEST(Skeleton, DisconnectedGraphsKeepInfiniteCrossDistances)
{
    Graph g = Graph::undirected(12);
    for (int base : {0, 6}) {
        for (int i = 0; i < 5; ++i) g.add_edge(base + i, base + i + 1, 2);
    }
    const DistanceMatrix exact = exact_apsp(g);
    const SparseMatrix rows = exact_k_nearest_rows(exact, 3);
    RoundLedger ledger;
    CliqueTransport transport(12, CostModel::standard(), ledger);
    Rng rng(6);
    const SkeletonGraph skeleton = build_skeleton(g, rows, 1.0, rng, transport, "sk");
    const DistanceMatrix eta = extend_skeleton_estimate(skeleton, exact_apsp(skeleton.graph),
                                                        rows, transport, "ext");
    EXPECT_FALSE(is_finite(eta.at(0, 7)));
    EXPECT_TRUE(is_finite(eta.at(0, 5)));
    testing::expect_valid_approximation(exact, eta, 7.0, "disconnected");
}

TEST(Skeleton, SingletonRowsMakeEveryNodeSkeleton)
{
    // k = 1: Ñ1(u) = {u}, so the fix-up forces S = V and c(u) = u.
    Rng rng(7);
    const Graph g = erdos_renyi(16, 0.3, WeightRange{1, 9}, rng);
    const DistanceMatrix exact = exact_apsp(g);
    const SparseMatrix rows = exact_k_nearest_rows(exact, 1);
    RoundLedger ledger;
    CliqueTransport transport(16, CostModel::standard(), ledger);
    const SkeletonGraph skeleton = build_skeleton(g, rows, 1.0, rng, transport, "sk");
    EXPECT_EQ(skeleton.size(), 16);
    const DistanceMatrix eta = extend_skeleton_estimate(skeleton, exact_apsp(skeleton.graph),
                                                        rows, transport, "ext");
    testing::expect_valid_approximation(exact, eta, 7.0, "k=1");
}

// --- the parallel extension against the serial original --------------------

/// The extension as first written, serially: fill eta cell by cell from
/// delta_GS as given, overlay the k-nearest entries both ways, zero the
/// diagonal, then min-symmetrize all n^2 cells.  The library's
/// row-parallel version must match it bitwise.
DistanceMatrix reference_extend(const SkeletonGraph& skeleton, const DistanceMatrix& delta_gs,
                                const SparseMatrix& nk_rows)
{
    const int n = static_cast<int>(skeleton.center.size());
    const auto compact = [&](NodeId u) {
        return static_cast<NodeId>(skeleton.member_index[static_cast<std::size_t>(
            skeleton.center[static_cast<std::size_t>(u)])]);
    };
    DistanceMatrix eta(n);
    for (NodeId u = 0; u < n; ++u)
        for (NodeId v = 0; v < n; ++v)
            eta.at(u, v) = saturating_add(
                skeleton.center_delta[static_cast<std::size_t>(u)],
                saturating_add(delta_gs.at(compact(u), compact(v)),
                               skeleton.center_delta[static_cast<std::size_t>(v)]));
    for (NodeId u = 0; u < n; ++u)
        for (const SparseEntry& e : nk_rows[static_cast<std::size_t>(u)]) {
            eta.relax(u, e.node, e.dist);
            eta.relax(e.node, u, e.dist);
        }
    eta.set_diagonal_zero();
    for (NodeId u = 0; u < n; ++u)
        for (NodeId v = u + 1; v < n; ++v) {
            const Weight m = min_weight(eta.at(u, v), eta.at(v, u));
            eta.at(u, v) = m;
            eta.at(v, u) = m;
        }
    return eta;
}

void expect_extend_matches_reference(const SkeletonGraph& skeleton,
                                     const DistanceMatrix& delta_gs, const SparseMatrix& rows,
                                     const std::string& context)
{
    const DistanceMatrix want = reference_extend(skeleton, delta_gs, rows);
    const int n = static_cast<int>(rows.size());
    for (const int threads : {1, 4}) {
        RoundLedger ledger;
        CliqueTransport transport(std::max(1, n), CostModel::standard(), ledger);
        const DistanceMatrix eta = extend_skeleton_estimate(skeleton, delta_gs, rows, transport,
                                                            "ext", EngineConfig{threads, 64});
        ASSERT_EQ(eta.size(), n) << context;
        std::size_t mismatches = 0;
        for (NodeId u = 0; u < n; ++u)
            for (NodeId v = 0; v < n; ++v)
                if (eta.at(u, v) != want.at(u, v) && mismatches++ < 5)
                    ADD_FAILURE() << context << " threads=" << threads << ": eta(" << u << ", "
                                  << v << ") = " << eta.at(u, v) << ", reference "
                                  << want.at(u, v);
        EXPECT_EQ(mismatches, 0u) << context << " threads=" << threads;
    }
}

/// Rows with one-sided estimates: delta(u,v) = d(u,v) + (7u + v) mod 3,
/// so Ñk(u) and Ñk(v) disagree on the pair and the overlay is
/// asymmetric before the final symmetrization.
SparseMatrix perturbed_rows(SparseMatrix rows)
{
    for (std::size_t u = 0; u < rows.size(); ++u) {
        for (SparseEntry& e : rows[u])
            if (e.node != static_cast<NodeId>(u))
                e.dist += static_cast<Weight>((7 * u + static_cast<std::size_t>(e.node)) % 3);
        std::sort(rows[u].begin(), rows[u].end(), entry_less);
    }
    return rows;
}

/// Builds the skeleton over `rows` and checks the extension of exact
/// delta_GS and of delta_GS with its upper triangle doubled (an
/// asymmetric l-approximation).
void expect_extend_matches_reference_on(const Graph& g, const SparseMatrix& rows,
                                        std::uint64_t seed, const std::string& context)
{
    RoundLedger ledger;
    CliqueTransport transport(std::max(1, g.node_count()), CostModel::standard(), ledger);
    Rng rng(seed);
    const SkeletonGraph skeleton = build_skeleton(g, rows, 1.0, rng, transport, "sk");
    DistanceMatrix delta_gs = exact_apsp(skeleton.graph);
    expect_extend_matches_reference(skeleton, delta_gs, rows, context + " exact G_S");
    for (NodeId a = 0; a < delta_gs.size(); ++a)
        for (NodeId b = a + 1; b < delta_gs.size(); ++b)
            delta_gs.at(a, b) = saturating_add(delta_gs.at(a, b), delta_gs.at(a, b));
    expect_extend_matches_reference(skeleton, delta_gs, rows, context + " asymmetric G_S");
}

TEST(SkeletonExtend, BitwiseIdenticalToReferenceOnEveryFamily)
{
    for (const GraphFamily family : testing::kAllFamilies) {
        for (const std::uint64_t seed : {1u, 2u, 3u}) {
            Rng rng(seed);
            const Graph g = make_family_instance(family, 97, WeightRange{1, 50}, rng);
            const SparseMatrix rows =
                exact_k_nearest_rows(exact_apsp(g), std::max(2, g.node_count() / 8));
            const std::string context =
                std::string(family_name(family)) + " seed " + std::to_string(seed);
            expect_extend_matches_reference_on(g, rows, seed, context);
            expect_extend_matches_reference_on(g, perturbed_rows(rows), seed,
                                               context + " perturbed rows");
        }
    }
}

TEST(SkeletonExtend, BitwiseIdenticalOnDisconnectedGraphsAroundChunkSizes)
{
    // Sparse enough to fall apart into components, so centers in
    // different components sit at kInfinity in delta_GS.
    for (const int n : {63, 64, 65}) {
        Rng rng(static_cast<std::uint64_t>(n));
        const Graph g = erdos_renyi(n, 1.5 / n, WeightRange{1, 3}, rng, /*connected=*/false);
        const DistanceMatrix exact = exact_apsp(g);
        ASSERT_TRUE(std::any_of(exact.data(), exact.data() + n * n,
                                [](Weight w) { return !is_finite(w); }))
            << "n=" << n << " is connected";
        const SparseMatrix rows = exact_k_nearest_rows(exact, 4);
        expect_extend_matches_reference_on(g, rows, static_cast<std::uint64_t>(n),
                                           "er n=" + std::to_string(n));
        expect_extend_matches_reference_on(g, perturbed_rows(rows), static_cast<std::uint64_t>(n),
                                           "er n=" + std::to_string(n) + " perturbed rows");
    }
}

} // namespace
} // namespace ccq
