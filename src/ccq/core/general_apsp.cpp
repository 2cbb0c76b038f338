#include "ccq/core/general_apsp.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "ccq/common/math.hpp"
#include "ccq/core/baselines.hpp"
#include "ccq/core/small_diameter.hpp"
#include "ccq/hopset/knearest_hopset.hpp"
#include "ccq/knearest/knearest.hpp"
#include "ccq/scaling/weight_scaling.hpp"
#include "ccq/skeleton/skeleton.hpp"
#include "ccq/spanner/spanner_apsp.hpp"

namespace ccq {
namespace {

/// Rows of the k smallest (eta, id) entries per node — the approximate
/// nearest sets Ñk(u) of Theorem 8.1's skeleton stage.  Rows are
/// independent and selected in parallel per `engine`.
SparseMatrix nearest_rows_from_estimate(const DistanceMatrix& eta, int k,
                                        const EngineConfig& engine)
{
    const int n = eta.size();
    SparseMatrix rows(static_cast<std::size_t>(n));
    parallel_chunks(engine.resolved_threads(), 0, n, 1, [&](int u0, int u1) {
        for (NodeId u = u0; u < u1; ++u) {
            SparseRow row;
            row.reserve(static_cast<std::size_t>(n));
            for (NodeId v = 0; v < n; ++v) {
                const Weight w = eta.at(u, v);
                if (is_finite(w)) row.push_back(SparseEntry{v, w});
            }
            std::sort(row.begin(), row.end(), entry_less);
            if (std::cmp_less(k, row.size())) row.resize(static_cast<std::size_t>(k));
            rows[static_cast<std::size_t>(u)] = std::move(row);
        }
    });
    return rows;
}

/// Theorem 1.1's outer k: log^4 n in the paper profile, a scaled-down
/// variant that still shrinks the skeleton at simulable n otherwise.
std::int64_t outer_nearest_count(const ApspOptions& options, int n)
{
    const auto log_n = static_cast<std::int64_t>(ceil_log2(std::max(2, n)));
    if (options.profile == ParamProfile::paper)
        return std::min<std::int64_t>(n, log_n * log_n * log_n * log_n);
    return std::clamp<std::int64_t>(std::min<std::int64_t>(log_n * log_n, floor_sqrt(n)), 1, n);
}

} // namespace

DistanceMatrix large_bandwidth_impl(const Graph& g, const ApspOptions& options, Rng& rng,
                                    CliqueTransport& transport, std::string_view phase,
                                    double* claimed)
{
    PhaseScope scope(transport.ledger(), phase);
    const int n = g.node_count();

    if (n <= 8) {
        SubgraphApspResult exact =
            apsp_via_full_broadcast(g, transport, "tiny-exact", options.engine);
        if (claimed != nullptr) *claimed = 1.0;
        return std::move(exact.estimate);
    }

    // Step 1: O(log n)-approximation and sqrt(n)-nearest hopset.
    double a0 = 1.0;
    const DistanceMatrix delta0 =
        bootstrap_logn_approx(g, rng, transport, "bootstrap", &a0, options.engine);
    const Weight max_estimate = max_finite_entry(delta0);
    const Hopset hopset = build_knearest_hopset(g, delta0, a0, std::max<Weight>(2, max_estimate),
                                                transport, "hopset", /*k=*/-1, options.engine);

    // Step 2a: weight scaling on G ∪ H.  The selector delta0 is an
    // h-approximation for h = max(hop bound, a0).
    const Graph augmented = augmented_graph(g, hopset);
    const int h_scale =
        std::max(hopset.claimed_hop_bound, static_cast<int>(std::ceil(a0)));
    const ScaledFamily family =
        build_scaled_family(augmented, std::max<Weight>(1, max_estimate), h_scale, options.eps);

    // Step 2b: Theorem 7.1 on every level, in parallel lanes (the widened
    // bandwidth carries the O(log n)-fold duplication).
    ApspOptions level_options = options;
    level_options.wide_bandwidth = true; // levels run the 7-approx variant
    std::vector<DistanceMatrix> level_estimates;
    double level_stretch = 1.0;
    {
        ParallelScope lanes(transport.ledger(), "scaled-levels");
        for (const ScaledLevel& level : family.levels) {
            double level_claimed = 1.0;
            level_estimates.push_back(small_diameter_impl(level.graph, level.cap, level_options,
                                                          rng, transport, "level",
                                                          &level_claimed));
            level_stretch = std::max(level_stretch, level_claimed);
            lanes.next_lane();
        }
    }
    const DistanceMatrix eta0 = combine_scaled_estimates(family, level_estimates, delta0);
    const double eta0_stretch = (1.0 + options.eps) * level_stretch;

    // Step 3: skeleton over the approximate sqrt(n)-nearest sets, solved
    // exactly (the widened bandwidth affords broadcasting G_S whole).
    const int k = std::max<int>(1, static_cast<int>(floor_sqrt(n)));
    const SparseMatrix rows = nearest_rows_from_estimate(eta0, k, options.engine);
    const SkeletonGraph skeleton =
        build_skeleton(g, rows, eta0_stretch, rng, transport, "skeleton", options.engine);
    const SubgraphApspResult skeleton_apsp =
        apsp_via_full_broadcast(skeleton.graph, transport, "skeleton-apsp", options.engine);
    const DistanceMatrix eta = extend_skeleton_estimate(skeleton, skeleton_apsp.estimate, rows,
                                                        transport, "extend", options.engine);

    // Lemma 6.1: 7 * l * a^2 with l = 1, a = eta0_stretch.
    if (claimed != nullptr) *claimed = 7.0 * eta0_stretch * eta0_stretch;
    return eta;
}

ApspResult apsp_large_bandwidth(const Graph& g, const ApspOptions& options)
{
    ApspResult result;
    result.algorithm = "large-bandwidth";
    ApspOptions effective = options;
    if (effective.cost.bandwidth_words <= 1.0)
        effective.cost = CostModel::with_log_power_bandwidth(std::max(2, g.node_count()), 4);
    CliqueTransport transport(std::max(1, g.node_count()), effective.cost, result.ledger);
    Rng rng(options.seed);
    result.estimate = large_bandwidth_impl(g, effective, rng, transport, "large-bandwidth",
                                           &result.claimed_stretch);
    return result;
}

ApspResult apsp_general(const Graph& g, const ApspOptions& options)
{
    ApspResult result;
    result.algorithm = "general";
    const int n = g.node_count();
    CliqueTransport transport(std::max(1, n), options.cost, result.ledger);
    Rng rng(options.seed);
    PhaseScope scope(result.ledger, "general");

    if (n <= 8) {
        SubgraphApspResult exact =
            apsp_via_full_broadcast(g, transport, "tiny-exact", options.engine);
        result.estimate = std::move(exact.estimate);
        result.claimed_stretch = 1.0;
        return result;
    }

    // Step 1: exact distances to the polylog-many nearest nodes
    // (Lemma 5.2 with h = 2; nodes reach their k nearest within k hops).
    const std::int64_t k = outer_nearest_count(options, n);
    KNearestOptions knn_options;
    knn_options.k = static_cast<int>(k);
    knn_options.h = 2;
    knn_options.faithful_bins = options.faithful_bin_scheme;
    knn_options.iterations = std::max(1, ceil_log2(std::max<std::int64_t>(2, k)));
    knn_options.engine = options.engine;
    const KNearestResult nearest = compute_k_nearest(adjacency_rows(g, /*include_self=*/true),
                                                     knn_options, transport, "outer-k-nearest");

    // Step 2: skeleton with n/polylog nodes (Lemma 3.4, exact sets).
    const SkeletonGraph skeleton = build_skeleton(g, nearest.rows, /*a=*/1.0, rng, transport,
                                                  "outer-skeleton", options.engine);

    // Degenerate protection: if the skeleton did not shrink the node set,
    // run Theorem 8.1 directly (correct; only the simulation trick is moot).
    if (skeleton.size() >= n) {
        ApspOptions direct = options;
        direct.cost = CostModel::with_log_power_bandwidth(std::max(2, n), 4);
        CliqueTransport wide(std::max(1, n), direct.cost, result.ledger);
        result.estimate =
            large_bandwidth_impl(g, direct, rng, wide, "direct-large-bandwidth",
                                 &result.claimed_stretch);
        return result;
    }

    // Step 3: simulate the Theorem 8.1 algorithm on G_S with per-pair
    // bandwidth log^4 n; Lemma 2.1 carries the widened messages across
    // the full clique with O(1) overhead.
    ApspOptions inner = options;
    inner.cost = CostModel::with_log_power_bandwidth(std::max(2, n), 4);
    CliqueTransport skeleton_transport(std::max(1, skeleton.size()), inner.cost,
                                       result.ledger);
    double inner_claimed = 1.0;
    const DistanceMatrix delta_gs = large_bandwidth_impl(
        skeleton.graph, inner, rng, skeleton_transport, "skeleton-sim", &inner_claimed);

    // Step 4: extend back to G (Lemma 3.4: factor 7 * l, a = 1).
    result.estimate = extend_skeleton_estimate(skeleton, delta_gs, nearest.rows, transport,
                                               "extend", options.engine);
    result.claimed_stretch = 7.0 * inner_claimed;
    return result;
}

} // namespace ccq
