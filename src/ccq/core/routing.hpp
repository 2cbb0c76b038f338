// Compact routing from APSP estimates.
//
// The paper motivates APSP by its "close connection to network routing"
// (Section 1).  This layer turns the library's distance estimates into
// actionable next-hop routing tables: every node stores, per destination,
// the neighbor to forward to, and the guarantee is that greedy forwarding
// terminates with a route of length at most the estimate used.
//
// Construction: route toward the destination along the structure that
// produced the estimate — here, a spanner/subgraph whose edges are known
// locally after the broadcast stage, which is exactly what the O(1)-round
// algorithms disseminate.
#ifndef CCQ_CORE_ROUTING_HPP
#define CCQ_CORE_ROUTING_HPP

#include <span>
#include <vector>

#include "ccq/common/parallel.hpp"
#include "ccq/graph/graph.hpp"
#include "ccq/matrix/dense.hpp"

namespace ccq {

/// The hop-budgeted next-hop walk behind every route over stored tables
/// (RoutingTables::route, MappedSnapshot::route): the node sequence from
/// `from` to `to`, following `next_hop(at)` (at's next hop toward `to`).
/// Tables can come from untrusted snapshots, so a hop outside [0, n) or
/// a walk longer than n hops (a forwarding cycle) ends it as unreachable
/// (empty) rather than looping or throwing.
template <class NextHop>
[[nodiscard]] std::vector<NodeId> walk_next_hops(NodeId from, NodeId to, int n,
                                                 const NextHop& next_hop)
{
    std::vector<NodeId> path{from};
    for (NodeId at = from; at != to;) {
        if (path.size() > static_cast<std::size_t>(n)) return {};
        at = next_hop(at);
        if (at < 0 || at >= n) return {};
        path.push_back(at);
    }
    return path;
}

/// next_hop[u][v]: the neighbor u forwards to for destination v (u == v
/// or unreachable: -1).
class RoutingTables {
public:
    RoutingTables() = default;
    RoutingTables(int n, std::vector<NodeId> next_hops)
        : n_(n), next_hop_(std::move(next_hops))
    {
        CCQ_EXPECT(static_cast<std::size_t>(n_) * static_cast<std::size_t>(n_) ==
                       next_hop_.size(),
                   "RoutingTables: size mismatch");
    }

    [[nodiscard]] int size() const noexcept { return n_; }

    [[nodiscard]] NodeId next_hop(NodeId from, NodeId to) const
    {
        CCQ_EXPECT(valid(from) && valid(to), "RoutingTables::next_hop: out of range");
        return next_hop_[static_cast<std::size_t>(from) * static_cast<std::size_t>(n_) +
                         static_cast<std::size_t>(to)];
    }

    /// Next hops from `from` toward every destination, indexed by
    /// destination (row `from` of the table).
    [[nodiscard]] std::span<const NodeId> row(NodeId from) const
    {
        CCQ_EXPECT(valid(from), "RoutingTables::row: out of range");
        return {next_hop_.data() + static_cast<std::size_t>(from) * static_cast<std::size_t>(n_),
                static_cast<std::size_t>(n_)};
    }

    /// Follows next hops from `from` to `to`.  Returns the node sequence
    /// (starting at `from`, ending at `to`), or an empty vector if the
    /// destination is unreachable.  The walk is walk_next_hops, hardened
    /// against untrusted tables (e.g. loaded from disk).
    [[nodiscard]] std::vector<NodeId> route(NodeId from, NodeId to) const;

private:
    [[nodiscard]] bool valid(NodeId v) const noexcept { return v >= 0 && v < n_; }

    int n_ = 0;
    std::vector<NodeId> next_hop_;
};

/// Builds next-hop tables by routing along `backbone` (a subgraph of the
/// communication graph whose edges every node knows, e.g. the broadcast
/// spanner).  Routes followed through the tables have length exactly
/// d_backbone(u, v), hence within the backbone's stretch of d_G.
///
/// next_hop(u, v) is the smallest-id neighbour w of u with
/// w(u,w) + d(w,v) == d(u,v) among those the Dijkstra from v settles
/// before u (graph/dijkstra.hpp), so forwarding never cycles, even across
/// zero-weight edges.  Each destination runs on one thread, so the tables
/// are bitwise identical for every `engine.threads`.  Destinations run in
/// blocks of up to 64 across the engine's threads.
[[nodiscard]] RoutingTables build_routing_tables(const Graph& backbone,
                                                 const EngineConfig& engine = {});

/// Total length of a route under graph `g` (kInfinity for an empty or
/// broken route).
[[nodiscard]] Weight route_length(const Graph& g, const std::vector<NodeId>& route);

} // namespace ccq

#endif // CCQ_CORE_ROUTING_HPP
