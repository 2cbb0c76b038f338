// Exact shortest-path references.
//
// These are the sequential ground-truth oracles the reproduction measures
// against: Dijkstra-based APSP, Floyd–Warshall (cross-check), hop-limited
// distances (the h-hop distance A^h of Section 2.1), and the minimum hop
// count over shortest paths (used to measure hopset hop bounds, Section 4).
#ifndef CCQ_GRAPH_EXACT_HPP
#define CCQ_GRAPH_EXACT_HPP

#include <vector>

#include "ccq/common/parallel.hpp"
#include "ccq/graph/graph.hpp"
#include "ccq/matrix/dense.hpp"

namespace ccq {

/// Single-source shortest path lengths (works for both orientations).
/// One run of the graph/dijkstra.hpp kernel; loops over many sources
/// should build one ArcTable and reuse a DijkstraScratch instead.
[[nodiscard]] std::vector<Weight> dijkstra_from(const Graph& g, NodeId source);

/// All-pairs shortest paths via n Dijkstra runs over one ArcTable;
/// sources are independent and run in parallel per `engine`.
[[nodiscard]] DistanceMatrix exact_apsp(const Graph& g, const EngineConfig& engine = {});

/// All-pairs shortest paths via Floyd–Warshall (O(n^3), for cross-checks).
[[nodiscard]] DistanceMatrix exact_apsp_floyd_warshall(const Graph& g);

/// Single-source h-hop distances: minimum length over paths with at most
/// `max_hops` edges (Bellman–Ford truncated at `max_hops` rounds).
[[nodiscard]] std::vector<Weight> hop_limited_from(const Graph& g, NodeId source, int max_hops);

/// All-pairs h-hop distances (the matrix A^h of Section 2.1); sources run
/// in parallel per `engine`.
[[nodiscard]] DistanceMatrix hop_limited_apsp(const Graph& g, int max_hops,
                                              const EngineConfig& engine = {});

/// For each node v: the minimum number of edges over all *shortest*
/// source→v paths (kInfinity distance ⇒ hop count reported as -1).
/// Used to verify that a hopset H guarantees β-hop shortest paths.
[[nodiscard]] std::vector<int> min_hops_on_shortest_paths(const Graph& g, NodeId source);

} // namespace ccq

#endif // CCQ_GRAPH_EXACT_HPP
