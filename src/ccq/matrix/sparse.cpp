#include "ccq/matrix/sparse.hpp"

#include <algorithm>
#include <utility>

namespace ccq {

void normalize_row(SparseRow& row)
{
    std::sort(row.begin(), row.end(), [](const SparseEntry& a, const SparseEntry& b) {
        return a.node != b.node ? a.node < b.node : a.dist < b.dist;
    });
    // Unique nodes: first occurrence has the smallest dist.
    row.erase(std::unique(row.begin(), row.end(),
                          [](const SparseEntry& a, const SparseEntry& b) {
                              return a.node == b.node;
                          }),
              row.end());
    std::sort(row.begin(), row.end(), entry_less);
}

SparseMatrix adjacency_rows(const Graph& g, bool include_self)
{
    const int n = g.node_count();
    SparseMatrix rows(static_cast<std::size_t>(n));
    for (NodeId u = 0; u < n; ++u) {
        SparseRow& row = rows[static_cast<std::size_t>(u)];
        if (include_self) row.push_back(SparseEntry{u, 0});
        for (const Edge& e : g.neighbors(u)) row.push_back(SparseEntry{e.to, e.weight});
        normalize_row(row);
    }
    return rows;
}

SparseMatrix filter_k_smallest(const SparseMatrix& m, int k)
{
    CCQ_EXPECT(k >= 0, "filter_k_smallest: k must be >= 0");
    SparseMatrix result(m.size());
    for (std::size_t u = 0; u < m.size(); ++u) {
        SparseRow row = m[u]; // already canonical: sorted by (dist, id)
        if (std::cmp_less(k, row.size())) row.resize(static_cast<std::size_t>(k));
        result[u] = std::move(row);
    }
    return result;
}

double average_density(const SparseMatrix& m)
{
    if (m.empty()) return 0.0;
    std::size_t total = 0;
    for (const SparseRow& row : m) total += row.size();
    return static_cast<double>(total) / static_cast<double>(m.size());
}

DistanceMatrix sparse_to_dense(const SparseMatrix& m, int n)
{
    CCQ_EXPECT(std::cmp_less_equal(m.size(), static_cast<std::size_t>(n)),
               "sparse_to_dense: n too small");
    DistanceMatrix d(n);
    for (std::size_t u = 0; u < m.size(); ++u)
        for (const SparseEntry& e : m[u]) d.relax(static_cast<NodeId>(u), e.node, e.dist);
    return d;
}

SparseMatrix dense_to_sparse(const DistanceMatrix& d)
{
    SparseMatrix m(static_cast<std::size_t>(d.size()));
    for (NodeId u = 0; u < d.size(); ++u) {
        SparseRow& row = m[static_cast<std::size_t>(u)];
        for (NodeId v = 0; v < d.size(); ++v) {
            const Weight w = d.at(u, v);
            if (is_finite(w)) row.push_back(SparseEntry{v, w});
        }
        std::sort(row.begin(), row.end(), entry_less);
    }
    return m;
}

} // namespace ccq
