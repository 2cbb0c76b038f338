#include "ccq/knearest/bins.hpp"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "ccq/common/math.hpp"
#include "ccq/knearest/knearest.hpp"
#include "ccq/matrix/engine.hpp"

namespace ccq {
namespace {

/// One h-combination: an ordered first bin plus h-1 unordered others.
struct Combination {
    int first_bin = 0;
    std::vector<int> other_bins;
};

/// Enumerates all h * C(p, h) combinations deterministically: for each
/// first bin, the (h-1)-subsets of the remaining bins in lexicographic
/// order.  The paper (Lemma 5.3) proves the count is at most n for the
/// canonical parameters; callers verified this via bin_scheme_params.
std::vector<Combination> enumerate_combinations(int p, int h)
{
    std::vector<Combination> combos;
    std::vector<int> subset(static_cast<std::size_t>(h - 1));
    for (int first = 0; first < p; ++first) {
        // Remaining bins, in increasing order.
        std::vector<int> rest;
        rest.reserve(static_cast<std::size_t>(p - 1));
        for (int b = 0; b < p; ++b)
            if (b != first) rest.push_back(b);
        // Lexicographic (h-1)-subsets of `rest` by index positions.
        const int m = static_cast<int>(rest.size());
        const int need = h - 1;
        if (need == 0) {
            combos.push_back(Combination{first, {}});
            continue;
        }
        std::vector<int> idx(static_cast<std::size_t>(need));
        for (int i = 0; i < need; ++i) idx[static_cast<std::size_t>(i)] = i;
        while (true) {
            for (int i = 0; i < need; ++i)
                subset[static_cast<std::size_t>(i)] = rest[static_cast<std::size_t>(idx[static_cast<std::size_t>(i)])];
            combos.push_back(Combination{first, subset});
            // Next combination of indices.
            int i = need - 1;
            while (i >= 0 && idx[static_cast<std::size_t>(i)] == m - need + i) --i;
            if (i < 0) break;
            ++idx[static_cast<std::size_t>(i)];
            for (int j = i + 1; j < need; ++j)
                idx[static_cast<std::size_t>(j)] = idx[static_cast<std::size_t>(j - 1)] + 1;
        }
    }
    return combos;
}

/// Record delivered to a helper node: one triplet of the global list M,
/// tagged with the bin it came from.
struct BinRecord {
    NodeId owner;
    NodeId node;
    Weight dist;
    std::int32_t bin;
};

/// Helper-side h-hop DP for query start `u`: first hop restricted to
/// `first_bin` edges out of u, later hops over all held edges.
SparseRow helper_candidates(const std::unordered_map<NodeId, std::vector<BinRecord>>& edges_by_source,
                            NodeId u, int first_bin, int h, int k)
{
    std::unordered_map<NodeId, Weight> best;
    best[u] = 0;
    std::vector<NodeId> frontier;
    const auto relax = [&](NodeId to, Weight dist, std::vector<NodeId>& next) {
        auto [it, inserted] = best.try_emplace(to, dist);
        if (!inserted) {
            if (dist >= it->second) return;
            it->second = dist;
        }
        next.push_back(to);
    };

    // Hop 1: only first-bin edges out of u.
    if (const auto it = edges_by_source.find(u); it != edges_by_source.end()) {
        for (const BinRecord& e : it->second) {
            if (e.bin != first_bin) continue;
            relax(e.node, e.dist, frontier);
        }
    }
    // Hops 2..h: any held edge.  Each hop extends the previous hop's
    // distances, read before it relaxes anything: a value lowered during
    // this hop already spans `hop` arcs and must not be extended again.
    for (int hop = 2; hop <= h && !frontier.empty(); ++hop) {
        std::vector<Weight> start(frontier.size());
        for (std::size_t i = 0; i < frontier.size(); ++i) start[i] = best.at(frontier[i]);
        std::vector<NodeId> next;
        for (std::size_t i = 0; i < frontier.size(); ++i) {
            const auto it = edges_by_source.find(frontier[i]);
            if (it == edges_by_source.end()) continue;
            const Weight dx = start[i];
            for (const BinRecord& e : it->second)
                relax(e.node, saturating_add(dx, e.dist), next);
        }
        frontier = std::move(next);
    }

    SparseRow candidates;
    candidates.reserve(best.size());
    for (const auto& [node, dist] : best) candidates.push_back(SparseEntry{node, dist});
    std::sort(candidates.begin(), candidates.end(), entry_less);
    if (std::cmp_less(k, candidates.size())) candidates.resize(static_cast<std::size_t>(k));
    return candidates;
}

} // namespace

SparseMatrix knearest_iteration_bins(const SparseMatrix& filtered, int k, int h,
                                     CliqueTransport& transport, std::string_view phase,
                                     const EngineConfig& engine)
{
    const int n = static_cast<int>(filtered.size());
    CCQ_EXPECT(n >= 1 && k >= 1 && h >= 1, "knearest_iteration_bins: bad parameters");
    PhaseScope scope(transport.ledger(), phase);

    const BinSchemeParams params = bin_scheme_params(n, k, h);
    if (params.degenerate) {
        // Broadcast branch (paper Section 5.2 assumptions): every node
        // publishes its k-list, computation is local.
        transport.charge_broadcast_all("broadcast-k-lists", 2 * static_cast<std::uint64_t>(k));
        return filtered_hop_power(filtered, h, k, n, engine);
    }

    const std::int64_t bin_size = params.bin_size;
    const int p = static_cast<int>(params.p_effective);
    std::vector<Combination> combos = enumerate_combinations(p, h);
    CCQ_CHECK(std::cmp_less_equal(combos.size(), static_cast<std::size_t>(n)),
              "bin scheme: more combinations than nodes");

    std::vector<std::vector<int>> combos_by_first_bin(static_cast<std::size_t>(p));
    for (std::size_t c = 0; c < combos.size(); ++c)
        combos_by_first_bin[static_cast<std::size_t>(combos[c].first_bin)].push_back(
            static_cast<int>(c));

    // Index setup: nodes agree on which segment of each local list feeds
    // which helper (the l_uv / r_uv exchange of Lemma 5.3).
    RoutingLoad setup;
    setup.max_sent = setup.max_received = 2 * static_cast<std::uint64_t>(n);
    setup.total_words = 2ULL * static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(n);
    transport.charge_route("bin-index-setup", setup);

    // Step 3: deliver bin contents to helper nodes (real routing).
    const auto for_each_entry_in_bin = [&](int bin, auto&& consume) {
        const std::int64_t lo = static_cast<std::int64_t>(bin) * bin_size;
        const std::int64_t hi =
            std::min<std::int64_t>(lo + bin_size, static_cast<std::int64_t>(n) * k);
        for (std::int64_t g = lo; g < hi; ++g) {
            const NodeId owner = static_cast<NodeId>(g / k);
            const std::size_t pos = static_cast<std::size_t>(g % k);
            const SparseRow& row = filtered[static_cast<std::size_t>(owner)];
            if (pos >= row.size()) continue; // padding slot: nothing to send
            consume(owner, row[pos], bin);
        }
    };

    MessageExchange<BinRecord> delivery(n);
    for (std::size_t c = 0; c < combos.size(); ++c) {
        const auto helper = static_cast<NodeId>(c);
        const auto send_bin = [&](int bin) {
            for_each_entry_in_bin(bin, [&](NodeId owner, const SparseEntry& entry, int b) {
                delivery.send(owner, helper,
                              BinRecord{owner, entry.node, entry.dist, static_cast<std::int32_t>(b)});
            });
        };
        send_bin(combos[c].first_bin);
        for (const int bin : combos[c].other_bins) send_bin(bin);
    }
    const auto helper_inboxes =
        delivery.deliver(transport, "bin-delivery", /*words_per_record=*/3, /*redundant=*/true);

    // Step 4: each node u queries the helpers whose first bin intersects
    // M(u); helpers respond with u's k candidate nearest.
    std::vector<std::vector<NodeId>> queries(combos.size());
    for (NodeId u = 0; u < n; ++u) {
        const std::int64_t lo = static_cast<std::int64_t>(u) * k;
        const std::int64_t hi = lo + k - 1;
        const int b_lo = static_cast<int>(lo / bin_size);
        const int b_hi = static_cast<int>(hi / bin_size);
        for (int b = b_lo; b <= std::min(b_hi, p - 1); ++b) {
            for (const int c : combos_by_first_bin[static_cast<std::size_t>(b)])
                queries[static_cast<std::size_t>(c)].push_back(u);
        }
    }

    MessageExchange<SparseEntry> responses(n);
    for (std::size_t c = 0; c < combos.size(); ++c) {
        if (queries[c].empty()) continue;
        const auto helper = static_cast<NodeId>(c);
        std::unordered_map<NodeId, std::vector<BinRecord>> edges_by_source;
        for (const auto& routed : helper_inboxes[static_cast<std::size_t>(helper)])
            edges_by_source[routed.payload.owner].push_back(routed.payload);
        std::vector<NodeId> starts = queries[c];
        std::sort(starts.begin(), starts.end());
        starts.erase(std::unique(starts.begin(), starts.end()), starts.end());
        for (const NodeId u : starts) {
            const SparseRow candidates =
                helper_candidates(edges_by_source, u, combos[c].first_bin, h, k);
            for (const SparseEntry& entry : candidates) responses.send(helper, u, entry);
        }
    }
    const auto response_inboxes =
        responses.deliver(transport, "bin-responses", /*words_per_record=*/2, /*redundant=*/true);

    // Merge: minimum per target over all helper responses, plus self.
    SparseMatrix result(static_cast<std::size_t>(n));
    for (NodeId u = 0; u < n; ++u) {
        std::unordered_map<NodeId, Weight> best;
        best[u] = 0;
        for (const auto& routed : response_inboxes[static_cast<std::size_t>(u)]) {
            auto [it, inserted] = best.try_emplace(routed.payload.node, routed.payload.dist);
            if (!inserted) it->second = min_weight(it->second, routed.payload.dist);
        }
        SparseRow row;
        row.reserve(best.size());
        for (const auto& [node, dist] : best) row.push_back(SparseEntry{node, dist});
        std::sort(row.begin(), row.end(), entry_less);
        if (std::cmp_less(k, row.size())) row.resize(static_cast<std::size_t>(k));
        result[static_cast<std::size_t>(u)] = std::move(row);
    }
    return result;
}

} // namespace ccq
