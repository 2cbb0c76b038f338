#include "ccq/matrix/dense.hpp"

#include <algorithm>

#include "ccq/graph/graph.hpp"

namespace ccq {

DistanceMatrix adjacency_matrix(const Graph& g)
{
    DistanceMatrix a(g.node_count());
    a.set_diagonal_zero();
    for (NodeId u = 0; u < g.node_count(); ++u)
        for (const Edge& e : g.neighbors(u)) a.relax(u, e.to, e.weight);
    return a;
}

DistanceMatrix entrywise_min(const DistanceMatrix& a, const DistanceMatrix& b)
{
    CCQ_EXPECT(a.size() == b.size(), "entrywise_min: size mismatch");
    DistanceMatrix c(a.size());
    for (NodeId i = 0; i < a.size(); ++i)
        for (NodeId j = 0; j < a.size(); ++j) c.at(i, j) = min_weight(a.at(i, j), b.at(i, j));
    return c;
}

bool is_symmetric(const DistanceMatrix& a)
{
    for (NodeId i = 0; i < a.size(); ++i)
        for (NodeId j = i + 1; j < a.size(); ++j)
            if (a.at(i, j) != a.at(j, i)) return false;
    return true;
}

Weight max_finite_entry(const DistanceMatrix& a)
{
    Weight best = 0;
    for (NodeId i = 0; i < a.size(); ++i)
        for (NodeId j = 0; j < a.size(); ++j)
            if (is_finite(a.at(i, j))) best = std::max(best, a.at(i, j));
    return best;
}

} // namespace ccq
