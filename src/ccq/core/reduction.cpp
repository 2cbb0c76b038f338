#include "ccq/core/reduction.hpp"

#include <algorithm>
#include <cmath>

#include "ccq/common/math.hpp"
#include "ccq/hopset/knearest_hopset.hpp"
#include "ccq/knearest/knearest.hpp"
#include "ccq/skeleton/skeleton.hpp"
#include "ccq/spanner/spanner_apsp.hpp"

namespace ccq {
namespace {

/// Step-2 schedule: hop base h and set size k.
///
/// Paper profile (proof of Lemma 3.1): h = a^{1/4}/2, k = n^{1/h}, both
/// clamped to usable integer ranges (h >= 2 so iterating gains hops,
/// k <= sqrt(n) so the sqrt(n)-nearest hopset still covers the set).
/// Practical profile: h = 2 and k = sqrt(n) — the same structure with
/// constants that exercise every stage at simulable n.
void choose_schedule(const ApspOptions& options, int n, double a, int& h, std::int64_t& k)
{
    const auto sqrt_n = floor_sqrt(n);
    if (options.profile == ParamProfile::paper) {
        h = std::clamp(static_cast<int>(std::llround(std::pow(a, 0.25) / 2.0)), 2, 16);
        k = std::clamp<std::int64_t>(floor_nth_root(n, h), 1, sqrt_n);
    } else {
        h = 2;
        k = std::max<std::int64_t>(1, sqrt_n);
    }
}

/// Step-4 schedule: spanner parameter b.  Paper: b = sqrt(a).  Both
/// profiles then raise b until the spanner broadcast fits the O(n)-word
/// budget of Corollary 7.1 (|V_S|^{1+1/b} <= c*n), which the paper's size
/// analysis guarantees for its parameters; the explicit loop keeps the
/// round charge honest when clamped parameters leave a larger skeleton.
int choose_spanner_b(double a, int skeleton_size, int n)
{
    int b = std::max(1, static_cast<int>(std::llround(std::sqrt(a))));
    const double budget = 4.0 * static_cast<double>(std::max(n, 2));
    const double s = static_cast<double>(std::max(skeleton_size, 2));
    while (b < 2 * ceil_log2(std::max(n, 2)) &&
           std::pow(s, 1.0 + 1.0 / b) > budget)
        ++b;
    return b;
}

} // namespace

ReductionOutcome reduce_approximation(const Graph& g, const DistanceMatrix& delta, double a,
                                      Weight diameter_bound, const ApspOptions& options,
                                      Rng& rng, CliqueTransport& transport,
                                      std::string_view phase)
{
    const int n = g.node_count();
    CCQ_EXPECT(delta.size() == n, "reduce_approximation: delta size mismatch");
    CCQ_EXPECT(a >= 1.0, "reduce_approximation: a must be >= 1");
    PhaseScope scope(transport.ledger(), phase);

    ReductionOutcome outcome;

    // Step 1: sqrt(n)-nearest O(a log d)-hopset (Lemma 3.2).
    const Hopset hopset = build_knearest_hopset(g, delta, a, diameter_bound, transport,
                                                "hopset", /*k=*/-1, options.engine);
    outcome.trace.hopset_hop_bound = hopset.claimed_hop_bound;

    // Step 2: exact distances to the k nearest (Lemma 3.3): iterate the
    // filtered power until h^i covers the hopset's hop bound.
    int h = 2;
    std::int64_t k = 1;
    choose_schedule(options, n, a, h, k);
    int iterations = 1;
    while (saturating_pow(h, iterations) < hopset.claimed_hop_bound) ++iterations;
    outcome.trace.h = h;
    outcome.trace.k = k;
    outcome.trace.power_iterations = iterations;

    KNearestOptions knn_options;
    knn_options.k = static_cast<int>(k);
    knn_options.h = h;
    knn_options.iterations = iterations;
    knn_options.faithful_bins = options.faithful_bin_scheme;
    knn_options.engine = options.engine;
    const KNearestResult nearest =
        compute_k_nearest(augmented_rows(g, hopset), knn_options, transport, "k-nearest");

    // Step 3: skeleton graph from the exact k-nearest sets (Lemma 3.4,
    // a = 1 because the distances are exact).
    const SkeletonGraph skeleton = build_skeleton(g, nearest.rows, /*a=*/1.0, rng, transport,
                                                  "skeleton", options.engine);
    outcome.trace.skeleton_size = skeleton.size();

    // Step 4: APSP on the skeleton.  Exact when all skeleton edges fit the
    // O(n)-word broadcast budget (this is how Theorem 7.1 achieves its
    // 7-approximation under Congested-Clique[log^3 n]); otherwise Cor 7.1.
    const double broadcast_budget_words =
        4.0 * static_cast<double>(n) * std::max(1.0, transport.cost().bandwidth_words);
    SubgraphApspResult skeleton_apsp;
    if (options.wide_bandwidth ||
        3.0 * static_cast<double>(skeleton.graph.edge_count()) <= broadcast_budget_words) {
        skeleton_apsp = apsp_via_full_broadcast(skeleton.graph, transport, "skeleton-apsp",
                                                options.engine);
        outcome.trace.exact_skeleton_apsp = true;
    } else {
        const int b = choose_spanner_b(a, skeleton.size(), n);
        skeleton_apsp = apsp_via_spanner(skeleton.graph, b, rng, transport, "skeleton-apsp",
                                         options.engine);
        outcome.trace.spanner_b = b;
    }

    // Step 5: extend to the full graph (Lemma 3.4: factor 7*l with a = 1).
    outcome.estimate = extend_skeleton_estimate(skeleton, skeleton_apsp.estimate, nearest.rows,
                                                transport, "extend", options.engine);
    outcome.trace.claimed_stretch = 7.0 * skeleton_apsp.claimed_stretch;
    return outcome;
}

} // namespace ccq
