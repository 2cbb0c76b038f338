#include "ccq/hopset/knearest_hopset.hpp"

#include <algorithm>
#include <cmath>

#include "ccq/common/math.hpp"
#include "ccq/graph/dijkstra.hpp"
#include "ccq/graph/exact.hpp"

namespace ccq {
namespace {

/// Approximate k-nearest set of v by (delta, id); includes v itself since
/// delta(v, v) = 0 is minimal.
std::vector<NodeId> approx_nearest_by_delta(const DistanceMatrix& delta, NodeId v, int k)
{
    const int n = delta.size();
    std::vector<NodeId> order(static_cast<std::size_t>(n));
    for (NodeId u = 0; u < n; ++u) order[static_cast<std::size_t>(u)] = u;
    const auto by_delta = [&](NodeId a, NodeId b) {
        return weight_id_less(delta.at(v, a), a, delta.at(v, b), b);
    };
    if (k < n) {
        std::nth_element(order.begin(), order.begin() + k, order.end(), by_delta);
        order.resize(static_cast<std::size_t>(k));
    }
    return order;
}

} // namespace

Hopset build_knearest_hopset(const Graph& g, const DistanceMatrix& delta, double a,
                             Weight diameter_bound, CliqueTransport& transport,
                             std::string_view phase, int k, const EngineConfig& engine)
{
    const int n = g.node_count();
    CCQ_EXPECT(delta.size() == n, "build_knearest_hopset: delta size mismatch");
    CCQ_EXPECT(a >= 1.0, "build_knearest_hopset: approximation factor must be >= 1");
    CCQ_EXPECT(diameter_bound >= 0, "build_knearest_hopset: negative diameter bound");
    if (k < 0) k = static_cast<int>(floor_sqrt(n));
    k = std::clamp(k, 1, n);
    PhaseScope scope(transport.ledger(), phase);
    const int threads = engine.resolved_threads();

    // Step 1 (local): approximate k-nearest sets by delta.
    std::vector<std::vector<NodeId>> nearest(static_cast<std::size_t>(n));
    parallel_chunks(threads, 0, n, 1, [&](int v0, int v1) {
        for (NodeId v = v0; v < v1; ++v)
            nearest[static_cast<std::size_t>(v)] = approx_nearest_by_delta(delta, v, k);
    });
    transport.note_local_computation("select-approx-nearest");

    // Step 2: each v learns the k lightest out-edges of each u in its set.
    // Senders duplicate one k-edge list to many requesters, so this is a
    // Lemma 2.2 (receive-bounded) routing instance.
    std::vector<std::vector<Edge>> lightest(static_cast<std::size_t>(n));
    for (NodeId u = 0; u < n; ++u) lightest[static_cast<std::size_t>(u)] = g.lightest_out_edges(u, k);

    MessageExchange<WeightedEdge> exchange(n);
    for (NodeId v = 0; v < n; ++v) {
        for (const NodeId u : nearest[static_cast<std::size_t>(v)]) {
            for (const Edge& e : lightest[static_cast<std::size_t>(u)])
                exchange.send(u, v, WeightedEdge{u, e.to, e.weight});
        }
    }
    const auto inboxes = exchange.deliver(transport, "collect-lightest-edges",
                                          /*words_per_record=*/2, /*redundant=*/true);

    // Steps 3-4: local shortest paths; record shortcuts to the set members.
    // The per-node subproblems are independent, so they run in parallel;
    // the shortcut lists are then drained serially in node order, keeping
    // edge order and message staging identical to a serial execution.
    Hopset hopset;
    hopset.k = k;
    std::vector<std::vector<WeightedEdge>> shortcuts(static_cast<std::size_t>(n));
    parallel_chunks(threads, 0, n, 1, [&](int v0, int v1) {
        // v's subproblem touches O(k^2) nodes: relabel them densely
        // (v is local 0) and run the shared kernel on a directed graph
        // of the gathered arcs.  `local` is -1 outside the current v.
        std::vector<NodeId> local(static_cast<std::size_t>(n), -1);
        std::vector<NodeId> members;
        std::vector<WeightedEdge> arcs;
        DijkstraScratch scratch;
        const auto local_id = [&](NodeId u) {
            NodeId& id = local[static_cast<std::size_t>(u)];
            if (id < 0) {
                id = static_cast<NodeId>(members.size());
                members.push_back(u);
            }
            return id;
        };
        for (NodeId v = v0; v < v1; ++v) {
            local_id(v);
            for (const auto& routed : inboxes[static_cast<std::size_t>(v)])
                arcs.push_back({local_id(routed.payload.u), local_id(routed.payload.v),
                                routed.payload.weight});
            for (const Edge& e : g.neighbors(v)) arcs.push_back({0, local_id(e.to), e.weight});
            dijkstra(graph_from_edges(static_cast<int>(members.size()), Orientation::directed,
                                      arcs),
                     0, scratch);
            for (const NodeId u : nearest[static_cast<std::size_t>(v)]) {
                const NodeId id = local[static_cast<std::size_t>(u)];
                if (u == v || id < 0 || !is_finite(scratch.dist[static_cast<std::size_t>(id)]))
                    continue;
                shortcuts[static_cast<std::size_t>(v)].push_back(
                    WeightedEdge{v, u, scratch.dist[static_cast<std::size_t>(id)]});
            }
            for (const NodeId u : members) local[static_cast<std::size_t>(u)] = -1;
            members.clear();
            arcs.clear();
        }
    });
    MessageExchange<WeightedEdge> reverse_notify(n);
    for (NodeId v = 0; v < n; ++v) {
        for (const WeightedEdge& shortcut : shortcuts[static_cast<std::size_t>(v)]) {
            hopset.edges.push_back(shortcut);
            reverse_notify.send(v, shortcut.v, shortcut);
        }
    }
    // Make each shortcut known to both endpoints (one Lenzen round).
    (void)reverse_notify.deliver(transport, "notify-endpoints", /*words_per_record=*/2);

    // Lemma 4.2: hop bound 2*ceil(a ln d) + 3.
    const double log_d = std::log(static_cast<double>(std::max<Weight>(2, diameter_bound)));
    hopset.claimed_hop_bound = 2 * static_cast<int>(std::ceil(a * log_d)) + 3;
    return hopset;
}

Graph augmented_graph(const Graph& g, const Hopset& hopset)
{
    Graph result(g.node_count(), g.orientation());
    for (const WeightedEdge& e : g.edge_list()) result.add_edge(e.u, e.v, e.weight);
    for (const WeightedEdge& e : hopset.edges) result.add_edge(e.u, e.v, e.weight);
    return result;
}

SparseMatrix augmented_rows(const Graph& g, const Hopset& hopset)
{
    SparseMatrix rows = adjacency_rows(g, /*include_self=*/true);
    for (const WeightedEdge& e : hopset.edges) {
        rows[static_cast<std::size_t>(e.u)].push_back(SparseEntry{e.v, e.weight});
        if (!g.is_directed())
            rows[static_cast<std::size_t>(e.v)].push_back(SparseEntry{e.u, e.weight});
    }
    for (SparseRow& row : rows) normalize_row(row);
    return rows;
}

int measured_hopset_bound(const Graph& g, const Hopset& hopset)
{
    const Graph augmented = augmented_graph(g, hopset);
    const int n = g.node_count();
    int worst = 0;
    for (NodeId v = 0; v < n; ++v) {
        const std::vector<Weight> dist = dijkstra_from(g, v);
        const std::vector<int> hops = min_hops_on_shortest_paths(augmented, v);
        // True k-nearest of v by (distance, id).
        std::vector<NodeId> order(static_cast<std::size_t>(n));
        for (NodeId u = 0; u < n; ++u) order[static_cast<std::size_t>(u)] = u;
        std::sort(order.begin(), order.end(), [&](NodeId x, NodeId y) {
            return weight_id_less(dist[static_cast<std::size_t>(x)], x,
                                  dist[static_cast<std::size_t>(y)], y);
        });
        const int limit = std::min(hopset.k, n);
        for (int rank = 0; rank < limit; ++rank) {
            const NodeId u = order[static_cast<std::size_t>(rank)];
            if (!is_finite(dist[static_cast<std::size_t>(u)])) break;
            worst = std::max(worst, hops[static_cast<std::size_t>(u)]);
        }
    }
    return worst;
}

} // namespace ccq
