#include "ccq/graph/dijkstra.hpp"

#include <algorithm>

namespace ccq {

ArcTable::ArcTable(const Graph& g)
{
    const int n = g.node_count();
    offsets_.reserve(static_cast<std::size_t>(n) + 1);
    arcs_.reserve(g.arc_count());
    offsets_.push_back(0);
    for (NodeId u = 0; u < n; ++u) {
        const std::span<const Edge> out = g.neighbors(u);
        arcs_.insert(arcs_.end(), out.begin(), out.end());
        offsets_.push_back(arcs_.size());
    }
}

void RadixHeap::reset(int n)
{
    for (std::vector<NodeId>& bucket : buckets_) bucket.clear();
    popped_.assign(static_cast<std::size_t>(n), 0);
    last_ = 0;
}

NodeId RadixHeap::pop(std::span<const Weight> keys)
{
    const auto key = [&](NodeId v) {
        return static_cast<std::uint64_t>(keys[static_cast<std::size_t>(v)]);
    };
    for (;;) {
        while (buckets_[0].empty()) {
            std::size_t i = 1;
            while (i < buckets_.size() && buckets_[i].empty()) ++i;
            if (i == buckets_.size()) return -1;
            // Split the lowest non-empty bucket around its minimum key.
            // Every queued key there shares its bits above bucket i with
            // that minimum, so each entry moves strictly down; entries of
            // already popped nodes are stale and dropped.
            std::vector<NodeId>& spill = buckets_[i];
            std::uint64_t floor = ~std::uint64_t{0};
            for (const NodeId v : spill)
                if (!popped_[static_cast<std::size_t>(v)]) floor = std::min(floor, key(v));
            if (floor != ~std::uint64_t{0}) {
                last_ = floor;
                for (const NodeId v : spill)
                    if (!popped_[static_cast<std::size_t>(v)])
                        buckets_[bucket_of(key(v))].push_back(v);
            }
            spill.clear();
        }
        // Bucket 0 holds keys equal to the floor, the minimum.
        const NodeId v = buckets_[0].back();
        buckets_[0].pop_back();
        char& done = popped_[static_cast<std::size_t>(v)];
        if (done) continue; // a stale duplicate
        done = 1;
        return v;
    }
}

namespace {

/// Graph::neighbors behind the ArcTable interface, for one-off runs.
struct GraphArcs {
    const Graph& g;
    [[nodiscard]] int node_count() const noexcept { return g.node_count(); }
    [[nodiscard]] std::span<const Edge> arcs(NodeId u) const { return g.neighbors(u); }
};

template <bool kToward, class Arcs>
void run_dijkstra(const Arcs& arcs, NodeId source, DijkstraScratch& scratch)
{
    std::vector<Weight>& dist = scratch.dist;
    std::vector<NodeId>& toward = scratch.toward;
    RadixHeap& heap = scratch.heap;
    const std::size_t n = static_cast<std::size_t>(arcs.node_count());
    dist.assign(n, kInfinity);
    if constexpr (kToward) toward.assign(n, -1);
    heap.reset(static_cast<int>(n));

    dist[static_cast<std::size_t>(source)] = 0;
    heap.push(source, 0);
    for (NodeId u; (u = heap.pop(dist)) >= 0;) {
        const Weight d = dist[static_cast<std::size_t>(u)];
        for (const Edge& e : arcs.arcs(u)) {
            const Weight cand = saturating_add(d, e.weight);
            Weight& cur = dist[static_cast<std::size_t>(e.to)];
            if (cand < cur) {
                cur = cand;
                if constexpr (kToward) toward[static_cast<std::size_t>(e.to)] = u;
                heap.push(e.to, static_cast<std::uint64_t>(cand));
            } else if constexpr (kToward) {
                // Equal-cost tie: keep the smallest hop id, nothing to
                // re-settle.  A settled node keeps its hop: across a
                // zero-weight arc, u may have settled after e.to and
                // point back at it.  The source (toward -1) and
                // unreachable nodes never take a hop here.
                NodeId& hop = toward[static_cast<std::size_t>(e.to)];
                if (cand == cur && hop > u && !heap.popped(e.to)) hop = u;
            }
        }
    }
}

} // namespace

void dijkstra(const ArcTable& arcs, NodeId source, DijkstraScratch& scratch, bool with_toward)
{
    CCQ_EXPECT(source >= 0 && source < arcs.node_count(), "dijkstra: source out of range");
    if (with_toward)
        run_dijkstra<true>(arcs, source, scratch);
    else
        run_dijkstra<false>(arcs, source, scratch);
}

void dijkstra(const Graph& g, NodeId source, DijkstraScratch& scratch)
{
    CCQ_EXPECT(g.is_valid_node(source), "dijkstra: source out of range");
    run_dijkstra<false>(GraphArcs{g}, source, scratch);
}

} // namespace ccq
