#include "ccq/skeleton/skeleton.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_map>

#include "ccq/matrix/round_cost.hpp"
#include "ccq/skeleton/hitting_set.hpp"

namespace ccq {
namespace {

/// Payload for the x-value aggregation: candidate delta(s_a,u)+delta(u,t)
/// flowing from u to t, tagged with s_a = c(u).
struct CenterCandidate {
    NodeId center;
    Weight value;
};

} // namespace

double skeleton_size_bound(int n, int k, double constant)
{
    const double ln_k = std::max(1.0, std::log(static_cast<double>(std::max(2, k))));
    return constant * static_cast<double>(n) * ln_k / static_cast<double>(std::max(1, k));
}

SkeletonGraph build_skeleton(const Graph& g, const SparseMatrix& nk_rows, double a, Rng& rng,
                             CliqueTransport& transport, std::string_view phase,
                             const EngineConfig& engine)
{
    const int n = g.node_count();
    CCQ_EXPECT(static_cast<int>(nk_rows.size()) == n, "build_skeleton: row count mismatch");
    CCQ_EXPECT(a >= 1.0, "build_skeleton: approximation factor must be >= 1");
    PhaseScope scope(transport.ledger(), phase);

    int k = 1;
    for (const SparseRow& row : nk_rows) k = std::max(k, static_cast<int>(row.size()));

    SkeletonGraph skeleton;
    skeleton.a = a;
    skeleton.members = compute_hitting_set(nk_rows, k, rng, transport, "hitting-set");
    skeleton.member_index.assign(static_cast<std::size_t>(n), -1);
    for (std::size_t i = 0; i < skeleton.members.size(); ++i)
        skeleton.member_index[static_cast<std::size_t>(skeleton.members[i])] = static_cast<int>(i);

    // Step 2: centers c(u) — nearest hitting-set member by (delta, id).
    skeleton.center.assign(static_cast<std::size_t>(n), -1);
    skeleton.center_delta.assign(static_cast<std::size_t>(n), kInfinity);
    for (NodeId u = 0; u < n; ++u) {
        for (const SparseEntry& e : nk_rows[static_cast<std::size_t>(u)]) {
            if (skeleton.member_index[static_cast<std::size_t>(e.node)] < 0) continue;
            if (skeleton.center[static_cast<std::size_t>(u)] < 0 ||
                weight_id_less(e.dist, e.node, skeleton.center_delta[static_cast<std::size_t>(u)],
                               skeleton.center[static_cast<std::size_t>(u)])) {
                skeleton.center[static_cast<std::size_t>(u)] = e.node;
                skeleton.center_delta[static_cast<std::size_t>(u)] = e.dist;
            }
        }
        CCQ_CHECK(skeleton.center[static_cast<std::size_t>(u)] >= 0,
                  "build_skeleton: hitting set missed a k-nearest set");
    }
    transport.note_local_computation("select-centers");

    // x(s_a, t) = min over u with c(u)=s_a, t in Ñk(u) of delta(s_a,u)+delta(u,t).
    // Each u sends one candidate to every t in its set; t aggregates.
    MessageExchange<CenterCandidate> x_stage(n);
    for (NodeId u = 0; u < n; ++u) {
        const NodeId s_a = skeleton.center[static_cast<std::size_t>(u)];
        const Weight to_center = skeleton.center_delta[static_cast<std::size_t>(u)];
        for (const SparseEntry& e : nk_rows[static_cast<std::size_t>(u)])
            x_stage.send(u, e.node, CenterCandidate{s_a, saturating_add(to_center, e.dist)});
    }
    const auto x_inboxes = x_stage.deliver(transport, "x-aggregate", /*words_per_record=*/2);

    // Forward aggregated x values to their skeleton row owners.
    MessageExchange<CenterCandidate> x_forward(n); // payload.center reused as t carrier
    for (NodeId t = 0; t < n; ++t) {
        std::unordered_map<NodeId, Weight> best; // s_a -> min value
        for (const auto& routed : x_inboxes[static_cast<std::size_t>(t)]) {
            auto [it, inserted] = best.try_emplace(routed.payload.center, routed.payload.value);
            if (!inserted) it->second = min_weight(it->second, routed.payload.value);
        }
        for (const auto& [s_a, value] : best)
            x_forward.send(t, s_a, CenterCandidate{t, value});
    }
    const auto x_rows_inboxes = x_forward.deliver(transport, "x-to-rows", /*words_per_record=*/2);

    SparseMatrix x_rows(static_cast<std::size_t>(n)); // row s_a: entries (t, x)
    for (NodeId s_a = 0; s_a < n; ++s_a) {
        SparseRow& row = x_rows[static_cast<std::size_t>(s_a)];
        for (const auto& routed : x_rows_inboxes[static_cast<std::size_t>(s_a)])
            row.push_back(SparseEntry{routed.payload.center, routed.payload.value});
        normalize_row(row);
    }

    // y(t, s_b) = min over v with c(v)=s_b and {t,v} in E of w_tv + delta(v,s_b),
    // plus the t=v rule: y(t, c(t)) <= delta(t, c(t)).
    MessageExchange<CenterCandidate> y_stage(n);
    for (NodeId v = 0; v < n; ++v) {
        const NodeId s_b = skeleton.center[static_cast<std::size_t>(v)];
        const Weight to_center = skeleton.center_delta[static_cast<std::size_t>(v)];
        for (const Edge& e : g.neighbors(v))
            y_stage.send(v, e.to, CenterCandidate{s_b, saturating_add(e.weight, to_center)});
    }
    const auto y_inboxes = y_stage.deliver(transport, "y-aggregate", /*words_per_record=*/2);

    SparseMatrix y_rows(static_cast<std::size_t>(n)); // row t: entries (s_b, y)
    for (NodeId t = 0; t < n; ++t) {
        std::unordered_map<NodeId, Weight> best; // s_b -> min value
        best[skeleton.center[static_cast<std::size_t>(t)]] =
            skeleton.center_delta[static_cast<std::size_t>(t)]; // t = v case
        for (const auto& routed : y_inboxes[static_cast<std::size_t>(t)]) {
            auto [it, inserted] = best.try_emplace(routed.payload.center, routed.payload.value);
            if (!inserted) it->second = min_weight(it->second, routed.payload.value);
        }
        SparseRow& row = y_rows[static_cast<std::size_t>(t)];
        for (const auto& [s_b, value] : best) row.push_back(SparseEntry{s_b, value});
        normalize_row(row);
    }

    // Skeleton edge weights = X * Y over min-plus (Lemma 6.2's single
    // sparse product; densities rho_X <= k, rho_Y <= |S|, rho_XY <= |S|^2/n).
    const double s_count = static_cast<double>(skeleton.members.size());
    const double rho_bound = s_count * s_count / static_cast<double>(n) + 1.0;
    const SparseMatrix weights =
        charged_sparse_product(transport, "skeleton-product", x_rows, y_rows, rho_bound,
                               engine);

    // Materialize the undirected skeleton graph on compact indices.
    std::map<std::pair<int, int>, Weight> best_edge;
    for (NodeId s_a = 0; s_a < n; ++s_a) {
        const int ia = skeleton.member_index[static_cast<std::size_t>(s_a)];
        if (ia < 0) continue;
        for (const SparseEntry& e : weights[static_cast<std::size_t>(s_a)]) {
            const int ib = skeleton.member_index[static_cast<std::size_t>(e.node)];
            CCQ_CHECK(ib >= 0, "skeleton edge endpoint must be a skeleton node");
            if (ia == ib) continue;
            const auto key = std::make_pair(std::min(ia, ib), std::max(ia, ib));
            auto [it, inserted] = best_edge.try_emplace(key, e.dist);
            if (!inserted) it->second = min_weight(it->second, e.dist);
        }
    }
    skeleton.graph = Graph::undirected(static_cast<int>(skeleton.members.size()));
    for (const auto& [key, weight] : best_edge)
        skeleton.graph.add_edge(key.first, key.second, weight);
    return skeleton;
}

DistanceMatrix extend_skeleton_estimate(const SkeletonGraph& skeleton,
                                        const DistanceMatrix& delta_gs,
                                        const SparseMatrix& nk_rows,
                                        CliqueTransport& transport, std::string_view phase,
                                        const EngineConfig& engine)
{
    const int n = static_cast<int>(skeleton.center.size());
    const int s = skeleton.size();
    CCQ_EXPECT(delta_gs.size() == s, "extend_skeleton_estimate: delta_gs size mismatch");
    CCQ_EXPECT(static_cast<int>(nk_rows.size()) == n,
               "extend_skeleton_estimate: nk_rows size mismatch");
    PhaseScope scope(transport.ledger(), phase);

    // eta(u,v) = delta(u,c(u)) + delta_GS(c(u),c(v)) + delta(c(v),v),
    // computed as the matrix chain A^T * (D * A) of Lemma 6.3; both
    // products have constant-density operands, so O(1) rounds each.
    const double rho_d = static_cast<double>(s) * static_cast<double>(s) / std::max(1, n);
    transport.ledger().charge("product-DA",
                              sparse_product_rounds(rho_d, 1.0, static_cast<double>(s), n));
    transport.ledger().charge("product-AtB",
                              sparse_product_rounds(1.0, static_cast<double>(s),
                                                    static_cast<double>(n), n));

    // eta is symmetric: min-symmetrize delta_GS once at |S| x |S| rather
    // than eta at n x n.  saturating_add is monotone and commutative on
    // [0, kInfinity], so min(eta(u,v), eta(v,u)) equals eta built from
    // min(delta_GS(a,b), delta_GS(b,a)).
    DistanceMatrix gs = delta_gs;
    for (NodeId a = 0; a < s; ++a)
        for (NodeId b = a + 1; b < s; ++b) {
            const Weight m = min_weight(gs.at(a, b), gs.at(b, a));
            gs.at(a, b) = m;
            gs.at(b, a) = m;
        }

    // c(v) as a compact skeleton index, so a row gathers from one
    // delta_GS row.
    std::vector<int> center_index(static_cast<std::size_t>(n));
    for (std::size_t v = 0; v < center_index.size(); ++v) {
        center_index[v] = skeleton.member_index[static_cast<std::size_t>(skeleton.center[v])];
        CCQ_EXPECT(center_index[v] >= 0, "extend_skeleton_estimate: center outside the skeleton");
    }

    // Pairs covered by the k-nearest sets use delta directly, in both
    // directions (taking the minimum keeps both the soundness and the
    // upper bound).  Row u's overlay is Ñk(u) plus every w with u in
    // Ñk(w): the latter, grouped by u, is the transpose of nk_rows.
    std::vector<std::size_t> incoming_begin(static_cast<std::size_t>(n) + 1, 0);
    for (const SparseRow& row : nk_rows)
        for (const SparseEntry& e : row) {
            CCQ_EXPECT(e.node >= 0 && e.node < n,
                       "extend_skeleton_estimate: row node out of range");
            ++incoming_begin[static_cast<std::size_t>(e.node) + 1];
        }
    for (std::size_t v = 0; v < static_cast<std::size_t>(n); ++v)
        incoming_begin[v + 1] += incoming_begin[v];
    std::vector<SparseEntry> incoming(incoming_begin.back());
    {
        std::vector<std::size_t> next(incoming_begin.begin(), incoming_begin.end() - 1);
        for (NodeId w = 0; w < n; ++w)
            for (const SparseEntry& e : nk_rows[static_cast<std::size_t>(w)])
                incoming[next[static_cast<std::size_t>(e.node)]++] = SparseEntry{w, e.dist};
    }

    // Every cell is written once by the task that owns its row.
    DistanceMatrix eta = DistanceMatrix::uninitialized(n);
    parallel_chunks(engine.resolved_threads(), 0, n, 1, [&](int begin, int end) {
        for (NodeId u = begin; u < end; ++u) {
            Weight* row = eta.data() + static_cast<std::size_t>(u) * static_cast<std::size_t>(n);
            const Weight du = skeleton.center_delta[static_cast<std::size_t>(u)];
            const Weight* gs_row =
                gs.data() + static_cast<std::size_t>(center_index[static_cast<std::size_t>(u)]) *
                                static_cast<std::size_t>(s);
            for (NodeId v = 0; v < n; ++v)
                row[v] = saturating_add(
                    du, saturating_add(gs_row[center_index[static_cast<std::size_t>(v)]],
                                       skeleton.center_delta[static_cast<std::size_t>(v)]));
            for (const SparseEntry& e : nk_rows[static_cast<std::size_t>(u)])
                row[e.node] = min_weight(row[e.node], e.dist);
            for (std::size_t i = incoming_begin[static_cast<std::size_t>(u)];
                 i < incoming_begin[static_cast<std::size_t>(u) + 1]; ++i)
                row[incoming[i].node] = min_weight(row[incoming[i].node], incoming[i].dist);
            row[u] = 0;
        }
    });
    return eta;
}

} // namespace ccq
