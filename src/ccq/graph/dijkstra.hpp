// The single-source shortest-path kernel behind dijkstra_from,
// exact_apsp and the routing-table builder.
//
// Three pieces, each built or allocated once and reused across sources:
//
//   ArcTable       a CSR copy of a graph's arcs (one offset per node over
//                  one contiguous Edge array);
//   RadixHeap      a monotone min-heap of node ids over non-negative
//                  integer keys — Dijkstra never pops a key smaller than
//                  the last one, so nodes are bucketed by the highest bit
//                  in which their key differs from the last popped key;
//   DijkstraScratch  the dist / toward vectors and the heap of one thread.
//
// `dist` is the exact (saturating) distance, whatever the pop order.
// `toward[v]` is the smallest-id neighbour u with dist[u] + w(u,v) ==
// dist[v] among the nodes settled before v.  Every pointer therefore goes
// to an earlier-settled node, so the toward graph has no cycles, even
// across zero-weight edges.  With weights >= 1 every tight predecessor
// settles first, so toward is the smallest tight predecessor outright;
// only zero-weight ties follow the heap's settle order.  One run is one
// thread, so the thread count never changes a row.
#ifndef CCQ_GRAPH_DIJKSTRA_HPP
#define CCQ_GRAPH_DIJKSTRA_HPP

#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "ccq/graph/graph.hpp"

namespace ccq {

/// Compressed-sparse-row copy of a graph's stored arcs (both halves of
/// an undirected edge, in adjacency order).
class ArcTable {
public:
    explicit ArcTable(const Graph& g);

    [[nodiscard]] int node_count() const noexcept
    {
        return static_cast<int>(offsets_.size()) - 1;
    }

    [[nodiscard]] std::span<const Edge> arcs(NodeId u) const noexcept
    {
        const std::size_t i = static_cast<std::size_t>(u);
        return {arcs_.data() + offsets_[i], offsets_[i + 1] - offsets_[i]};
    }

private:
    std::vector<std::size_t> offsets_;
    std::vector<Edge> arcs_;
};

/// Monotone radix heap of node ids for Dijkstra.  A node's key lives in
/// the caller's array (the distances): push() files the node under its
/// key at that moment, and pop() reads the array again when it splits a
/// bucket.  Keys may only fall while a node is queued and never below the
/// last popped key.  A node pushed again after its key fell leaves a
/// stale entry, dropped once the node is popped, so there is no
/// decrease-key and an entry is a 4-byte id, not a (key, id) pair.  Push
/// is O(1); an entry moves to a lower bucket at most 64 times.
class RadixHeap {
public:
    /// Empties the heap for nodes [0, n) and resets the floor to 0;
    /// bucket capacity is kept for the next run.
    void reset(int n);

    void push(NodeId node, std::uint64_t key) { buckets_[bucket_of(key)].push_back(node); }

    /// Removes and returns a node not popped since reset() whose key in
    /// `keys` is minimal, or -1 when no such node is queued.
    NodeId pop(std::span<const Weight> keys);

    /// True once pop() has returned `node` since reset().
    [[nodiscard]] bool popped(NodeId node) const noexcept
    {
        return popped_[static_cast<std::size_t>(node)] != 0;
    }

private:
    [[nodiscard]] int bucket_of(std::uint64_t key) const noexcept
    {
        return key == last_ ? 0 : 64 - std::countl_zero(key ^ last_);
    }

    std::array<std::vector<NodeId>, 65> buckets_;
    std::vector<char> popped_;
    std::uint64_t last_ = 0;
};

/// Per-thread working set of the kernel; allocate once, reuse per source.
struct DijkstraScratch {
    std::vector<Weight> dist;
    std::vector<NodeId> toward; ///< filled only by runs with with_toward
    RadixHeap heap;
};

/// Dijkstra from `source` over `arcs` into `scratch.dist` (kInfinity =
/// unreachable; additions saturate).  With `with_toward`, also fills
/// `scratch.toward[v]` with the smallest-id u, among the nodes settled
/// before v, whose arc u->v is tight (dist[u] + w == dist[v]); -1 for the
/// source and unreachable nodes.  On an undirected graph that u is v's
/// next hop toward `source`, and following toward from any reachable node
/// ends at `source`.
void dijkstra(const ArcTable& arcs, NodeId source, DijkstraScratch& scratch,
              bool with_toward = false);

/// The same distance-only run straight over `g`'s adjacency lists, for a
/// single source, where copying the arcs would cost more than it saves.
void dijkstra(const Graph& g, NodeId source, DijkstraScratch& scratch);

} // namespace ccq

#endif // CCQ_GRAPH_DIJKSTRA_HPP
