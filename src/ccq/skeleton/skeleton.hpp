// Skeleton graphs (paper Section 6, Lemmas 3.4 and 6.1).
//
// Given, for each node u, an approximate k-nearest set Ñk(u) with local
// distance estimates delta satisfying the two conditions of Lemma 6.1
// (soundness d <= delta <= a*d on the sets, and the separation property
// delta(u,v) <= a*d(u,t) for v in, t outside the set), we build:
//
//  * a hitting set S of size O(n log k / k) (cluster centers),
//  * per-node centers c(u) = argmin_{s in S ∩ Ñk(u)} delta(u, s),
//  * the skeleton graph G_S on S whose edges come from the 2-hop
//    exploration u -> t (t in Ñk(u)) -> v ({t,v} in E or t = v), with
//    weight delta(c(u),u) + delta(u,t) + w_tv + delta(v,c(v)),
//
// such that any l-approximation of APSP on G_S extends to a
// 7*l*a^2-approximation on G via
//    eta(u,v) = delta(u, c(u)) + delta_GS(c(u), c(v)) + delta(c(v), v)
// (pairs covered by the sets use delta directly).
#ifndef CCQ_SKELETON_SKELETON_HPP
#define CCQ_SKELETON_SKELETON_HPP

#include <string_view>
#include <vector>

#include "ccq/clique/transport.hpp"
#include "ccq/common/parallel.hpp"
#include "ccq/common/rng.hpp"
#include "ccq/graph/graph.hpp"
#include "ccq/matrix/dense.hpp"
#include "ccq/matrix/sparse.hpp"

namespace ccq {

struct SkeletonGraph {
    std::vector<NodeId> members;      ///< S, sorted by node id
    std::vector<int> member_index;    ///< node -> compact index in S, or -1
    std::vector<NodeId> center;       ///< c(u) per node (a member of S)
    std::vector<Weight> center_delta; ///< delta(u, c(u)) per node
    Graph graph;                      ///< G_S on compact indices [0, |S|)
    double a = 1.0;                   ///< approximation factor of the input delta

    [[nodiscard]] int size() const noexcept { return static_cast<int>(members.size()); }
};

/// Builds the skeleton graph.  `nk_rows[u]` is Ñk(u) as (node, delta(u,node))
/// entries sorted by (delta, id) and must contain u itself; `a` is the
/// approximation factor the rows satisfy (1 for exact k-nearest sets).
[[nodiscard]] SkeletonGraph build_skeleton(const Graph& g, const SparseMatrix& nk_rows,
                                           double a, Rng& rng, CliqueTransport& transport,
                                           std::string_view phase,
                                           const EngineConfig& engine = {});

/// Extends an l-approximation `delta_gs` of APSP on G_S (indexed by the
/// compact skeleton ids) to the full graph: the eta of Lemma 6.1.  The
/// result is symmetric and satisfies eta >= d and (per Lemma 6.4)
/// eta <= 7*l*a^2*d.  Rows are filled in parallel over `engine.threads`;
/// the result is bitwise identical for every thread count.
[[nodiscard]] DistanceMatrix extend_skeleton_estimate(const SkeletonGraph& skeleton,
                                                      const DistanceMatrix& delta_gs,
                                                      const SparseMatrix& nk_rows,
                                                      CliqueTransport& transport,
                                                      std::string_view phase,
                                                      const EngineConfig& engine = {});

/// Upper bound on |S| promised by Lemma 6.1: c * n * max(1, ln k) / k.
[[nodiscard]] double skeleton_size_bound(int n, int k, double constant = 4.0);

} // namespace ccq

#endif // CCQ_SKELETON_SKELETON_HPP
