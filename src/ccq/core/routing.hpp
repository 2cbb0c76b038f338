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
    /// destination is unreachable.  The walk is hardened for serving
    /// against untrusted tables (e.g. loaded from disk): a forwarding
    /// cycle, an out-of-range hop, or any walk longer than n hops is
    /// reported as unreachable rather than looping or throwing.
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
