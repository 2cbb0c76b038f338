#include "ccq/core/loglog_apsp.hpp"

#include <algorithm>

#include "ccq/common/math.hpp"
#include "ccq/core/baselines.hpp"
#include "ccq/hopset/knearest_hopset.hpp"
#include "ccq/knearest/knearest.hpp"
#include "ccq/skeleton/skeleton.hpp"
#include "ccq/spanner/spanner_apsp.hpp"

namespace ccq {

ApspResult apsp_loglog(const Graph& g, const ApspOptions& options)
{
    ApspResult result;
    result.algorithm = "loglog";
    const int n = g.node_count();
    ApspOptions effective = options;
    if (options.wide_bandwidth && effective.cost.bandwidth_words <= 1.0)
        effective.cost = CostModel::with_log_power_bandwidth(std::max(2, n), 3);
    CliqueTransport transport(std::max(1, n), effective.cost, result.ledger);
    Rng rng(options.seed);
    PhaseScope scope(result.ledger, "loglog");

    if (n <= 8) {
        SubgraphApspResult exact =
            apsp_via_full_broadcast(g, transport, "tiny-exact", options.engine);
        result.estimate = std::move(exact.estimate);
        result.claimed_stretch = 1.0;
        return result;
    }

    // Step 1: O(log n)-approximation (Cor. 7.2) in O(1) rounds.
    double a = 1.0;
    const DistanceMatrix delta =
        bootstrap_logn_approx(g, rng, transport, "bootstrap", &a, options.engine);

    // Step 2: sqrt(n)-nearest O(a log d)-hopset (Lemma 3.2).
    const Weight diameter_bound = std::max<Weight>(2, max_finite_entry(delta));
    const Hopset hopset = build_knearest_hopset(g, delta, a, diameter_bound, transport,
                                                "hopset", /*k=*/-1, options.engine);

    // Step 3: distances to the sqrt(n)-nearest nodes with h = 2 and
    // i ∈ O(log log n) squarings (Lemma 3.3).
    KNearestOptions knn_options;
    knn_options.k = std::max(1, static_cast<int>(floor_sqrt(n)));
    knn_options.h = 2;
    knn_options.faithful_bins = options.faithful_bin_scheme;
    knn_options.engine = options.engine;
    knn_options.iterations = 1;
    while (saturating_pow(2, knn_options.iterations) < hopset.claimed_hop_bound)
        ++knn_options.iterations;
    const KNearestResult nearest =
        compute_k_nearest(augmented_rows(g, hopset), knn_options, transport, "k-nearest");

    // Step 4: skeleton graph with k = sqrt(n) (Lemma 3.4, exact sets).
    const SkeletonGraph skeleton = build_skeleton(g, nearest.rows, /*a=*/1.0, rng, transport,
                                                  "skeleton", options.engine);

    // Step 5: 3-spanner of G_S broadcast to everyone (21-approx), or the
    // whole of G_S under widened bandwidth (7-approx).
    SubgraphApspResult skeleton_apsp;
    if (options.wide_bandwidth) {
        skeleton_apsp = apsp_via_full_broadcast(skeleton.graph, transport, "skeleton-apsp",
                                                options.engine);
    } else {
        skeleton_apsp = apsp_via_spanner(skeleton.graph, 2, rng, transport, "skeleton-apsp",
                                         options.engine);
    }

    // Step 6: extension (Lemma 3.4: factor 7 * l).
    result.estimate = extend_skeleton_estimate(skeleton, skeleton_apsp.estimate, nearest.rows,
                                               transport, "extend", options.engine);
    result.claimed_stretch = 7.0 * skeleton_apsp.claimed_stretch;
    return result;
}

} // namespace ccq
