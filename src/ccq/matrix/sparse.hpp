// Sparse rows over the min-plus semiring, and filtered matrix products.
//
// Section 5 of the paper phrases the k-nearest computation as *filtered
// matrix multiplication*: keep only the k smallest entries of each row
// (ties by node id) and exponentiate.  Lemma 5.5 shows filtering commutes
// with exponentiation for the k smallest entries; the test suite checks
// that identity directly against these primitives.
//
// Density ρ_M (CDKL21): average number of non-infinity entries per row —
// the quantity that drives the sparse product round cost (Theorem 6.1).
#ifndef CCQ_MATRIX_SPARSE_HPP
#define CCQ_MATRIX_SPARSE_HPP

#include <vector>

#include "ccq/graph/graph.hpp"
#include "ccq/matrix/dense.hpp"

namespace ccq {

/// One finite entry of a sparse row: "node is reachable at distance dist".
struct SparseEntry {
    NodeId node = 0;
    Weight dist = 0;

    friend bool operator==(const SparseEntry&, const SparseEntry&) = default;
};

/// Row in canonical form: unique nodes, sorted by (dist, node id).
using SparseRow = std::vector<SparseEntry>;

/// Matrix as one sparse row per source node.
using SparseMatrix = std::vector<SparseRow>;

/// Collapses duplicate nodes to their minimum and sorts by (dist, id).
void normalize_row(SparseRow& row);

/// Entry order used by every "k smallest" selection in the paper.
[[nodiscard]] inline bool entry_less(const SparseEntry& a, const SparseEntry& b) noexcept
{
    return weight_id_less(a.dist, a.node, b.dist, b.node);
}

/// Adjacency rows of `g` (one row per node; `include_self` adds the
/// diagonal zero, matching A[v,v] = 0 of Section 2.1).  Parallel arcs are
/// collapsed to their minimum.
[[nodiscard]] SparseMatrix adjacency_rows(const Graph& g, bool include_self = true);

/// Keeps the k smallest entries of each row, ties by node id (the matrix
/// written as "A-bar" in Section 5).
[[nodiscard]] SparseMatrix filter_k_smallest(const SparseMatrix& m, int k);

/// Average finite entries per row (ρ of CDKL21 / Theorem 6.1).
[[nodiscard]] double average_density(const SparseMatrix& m);

[[nodiscard]] DistanceMatrix sparse_to_dense(const SparseMatrix& m, int n);
[[nodiscard]] SparseMatrix dense_to_sparse(const DistanceMatrix& d);

} // namespace ccq

#endif // CCQ_MATRIX_SPARSE_HPP
