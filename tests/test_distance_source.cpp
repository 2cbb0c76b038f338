// Tests for the DistanceSource read path: the dense and mapped sources
// must answer bitwise-identically to the snapshot they wrap (the
// refactor changes plumbing, never answers), the spanner source must
// answer within its construction's stretch bound, its rows must equal a
// plain Dijkstra's and its routes the dense routing tables' over the same
// spanner, its row cache must be invisible to answers (cold == warm), and
// the open_distance_source factory must auto-detect every codec.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <limits>
#include <memory>
#include <queue>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ccq/core/routing.hpp"
#include "ccq/graph/exact.hpp"
#include "ccq/serve/distance_source.hpp"
#include "ccq/serve/query_engine.hpp"
#include "ccq/serve/snapshot.hpp"
#include "ccq/spanner/baswana_sen.hpp"
#include "ccq/spanner/greedy.hpp"
#include "allocation_watch.hpp"
#include "built_oracle.hpp"
#include "test_helpers.hpp"

namespace ccq {
namespace {

using testing::BuiltOracle;
using testing::InstanceSpec;

std::string sparse_bytes(const SparseSnapshot& snapshot)
{
    std::ostringstream out(std::ios::binary);
    write_sparse_snapshot(out, snapshot);
    return out.str();
}

SparseSnapshot sparse_round_trip(const SparseSnapshot& snapshot)
{
    const testing::TempFile file("ccq_source_round_trip.snap", sparse_bytes(snapshot));
    return load_sparse_snapshot(file.path());
}

/// The row loop SpannerDistanceSource ran before it moved onto the shared
/// kernel, kept as the reference its rows must equal bitwise: a
/// std::priority_queue Dijkstra over the spanner, ordered by (distance,
/// node).
std::vector<Weight> reference_row(const Graph& spanner, NodeId from)
{
    std::vector<Weight> dist(static_cast<std::size_t>(spanner.node_count()), kInfinity);
    dist[static_cast<std::size_t>(from)] = 0;
    using HeapEntry = std::pair<Weight, NodeId>;
    std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<HeapEntry>> heap;
    heap.push({0, from});
    while (!heap.empty()) {
        const auto [d, u] = heap.top();
        heap.pop();
        if (d != dist[static_cast<std::size_t>(u)]) continue; // stale entry
        for (const Edge& edge : spanner.neighbors(u)) {
            const Weight candidate = saturating_add(d, edge.weight);
            if (candidate < dist[static_cast<std::size_t>(edge.to)]) {
                dist[static_cast<std::size_t>(edge.to)] = candidate;
                heap.push({candidate, edge.to});
            }
        }
    }
    return dist;
}

/// UINT32_MAX: a spanner source keeps narrow (4-byte) rows only when its
/// edge weights sum below this.
constexpr Weight kNarrowLimit = std::numeric_limits<std::uint32_t>::max();

/// The whole graph of `n` nodes and `edges` as a v3 snapshot.
SparseSnapshot whole_spanner(int n, const std::vector<WeightedEdge>& edges)
{
    const Graph g = graph_from_edges(n, Orientation::undirected, edges);
    return SparseSnapshot::from_spanner(g, SpannerResult{g, 1, 1}, "whole", 0);
}

/// The path 0 - 1 - ... - 6, one of its edges weighing 0, whose weights
/// sum to `total`, and an isolated node 7: d(0, 6) is the whole sum.
SparseSnapshot heavy_path(Weight total)
{
    constexpr Weight kBillion = 1'000'000'000;
    return whole_spanner(8, {{0, 1, kBillion},
                             {1, 2, 0},
                             {2, 3, kBillion},
                             {3, 4, kBillion},
                             {4, 5, kBillion},
                             {5, 6, total - 4 * kBillion}});
}

/// The cell width a spanner source must pick for `snapshot`.
std::size_t expected_cell_bytes(const SparseSnapshot& snapshot)
{
    Weight total = 0;
    for (const WeightedEdge& e : snapshot.edges) total = saturating_add(total, e.weight);
    return total < kNarrowLimit ? 4 : 8;
}

bool has_zero_weight(const SparseSnapshot& snapshot)
{
    return std::ranges::any_of(snapshot.edges, [](const WeightedEdge& e) { return e.weight == 0; });
}

/// Baswana–Sen k=2 v3 snapshots of every GraphFamily x 3 seeds x weights
/// {1..100, 0..3}, the undirected corner cases stored whole (the
/// snapshot drops their self-loops and keeps the lightest parallel edge),
/// and a whole unit-weight grid of 400 nodes, where most pairs have many
/// shortest paths.  All of these keep narrow rows; three heavy spanners
/// sit on both sides of the width rule, with unreachable nodes in each:
/// a path weighing UINT32_MAX - 1 (narrow, its longest distance is the
/// largest narrow cell), the same path one heavier (wide), and two
/// components with tied routes and distances past 2^32 (wide).
std::vector<std::pair<std::string, SparseSnapshot>> pinned_snapshots()
{
    std::vector<std::pair<std::string, SparseSnapshot>> snapshots;
    for (const GraphFamily family : testing::kAllFamilies) {
        for (const std::uint64_t seed : {1u, 2u, 3u}) {
            for (const WeightRange weights : {WeightRange{1, 100}, WeightRange{0, 3}}) {
                Rng rng(seed);
                const Graph g = make_family_instance(family, 48, weights, rng);
                snapshots.emplace_back(
                    std::string(family_name(family)) + " seed " + std::to_string(seed) +
                        " weights " + std::to_string(weights.lo) + ".." +
                        std::to_string(weights.hi),
                    SparseSnapshot::from_spanner(g, baswana_sen_spanner(g, 2, rng),
                                                 "baswana-sen", seed));
            }
        }
    }
    for (const testing::NamedGraph& c : testing::corner_case_graphs(Orientation::undirected))
        snapshots.emplace_back(c.name, SparseSnapshot::from_spanner(
                                           c.graph, SpannerResult{c.graph, 1, 1}, "whole", 0));
    Rng rng(4);
    const Graph grid = make_family_instance(GraphFamily::grid, 400, WeightRange{1, 1}, rng);
    snapshots.emplace_back(
        "unit grid 400", SparseSnapshot::from_spanner(grid, SpannerResult{grid, 1, 1}, "whole", 4));
    snapshots.emplace_back("path weighing UINT32_MAX - 1", heavy_path(kNarrowLimit - 1));
    snapshots.emplace_back("path weighing UINT32_MAX", heavy_path(kNarrowLimit));
    constexpr Weight kHeavy = 1'000'000'000;
    snapshots.emplace_back("two heavy components",
                           whole_spanner(9, {{0, 1, 3 * kHeavy},
                                             {1, 2, 3 * kHeavy},
                                             {2, 3, 3 * kHeavy},
                                             {3, 0, 3 * kHeavy},
                                             {1, 4, 2 * kHeavy},
                                             {3, 4, 2 * kHeavy},
                                             {5, 6, 5 * kHeavy},
                                             {6, 7, 5 * kHeavy},
                                             {5, 7, 10 * kHeavy}}));
    return snapshots;
}

TEST(DistanceSource, PinnedSpannersCoverBothCellWidths)
{
    // The width rule is strict: a path weighing UINT32_MAX - 1 reaches
    // the largest narrow cell, one weighing UINT32_MAX would collide with
    // the unreachable cell, so it keeps wide rows.  Both widths appear
    // with and without zero-weight edges, so every pinned-snapshot test
    // below runs the row walk and the kernel route on both.
    int widths_and_zeros[2][2] = {};
    for (const auto& [name, snapshot] : pinned_snapshots()) {
        const SpannerDistanceSource source(snapshot);
        EXPECT_EQ(source.cell_bytes(), expected_cell_bytes(snapshot)) << name;
        ++widths_and_zeros[source.cell_bytes() == 8][has_zero_weight(snapshot)];
    }
    for (const auto& by_zero : widths_and_zeros)
        for (const int count : by_zero) EXPECT_GT(count, 0);
    const SpannerDistanceSource narrow(heavy_path(kNarrowLimit - 1));
    const SpannerDistanceSource wide(heavy_path(kNarrowLimit));
    EXPECT_EQ(narrow.cell_bytes(), 4u);
    EXPECT_EQ(wide.cell_bytes(), 8u);
    EXPECT_EQ(narrow.distance(0, 6), kNarrowLimit - 1);
    EXPECT_EQ(wide.distance(6, 0), kNarrowLimit);
    EXPECT_EQ(narrow.distance(0, 7), kInfinity);
    EXPECT_EQ(wide.distance(7, 0), kInfinity);
}

TEST(DistanceSource, SpannerRowsEqualTheReferenceLoop)
{
    // Under every cache size, from four threads at once: the row misses
    // run concurrently, each on its own kernel scratch.
    for (const auto& [name, snapshot] : pinned_snapshots()) {
        const Graph spanner = snapshot.spanner_graph();
        const int n = spanner.node_count();
        std::vector<std::vector<Weight>> want;
        for (NodeId u = 0; u < n; ++u) want.push_back(reference_row(spanner, u));
        for (const std::size_t rows : {std::size_t{0}, std::size_t{2}, std::size_t{1024}}) {
            const SpannerDistanceSource source(snapshot,
                                               SpannerSourceConfig{.row_cache_rows = rows});
            const auto check = [&](int offset) {
                std::vector<Weight> got(static_cast<std::size_t>(n));
                for (NodeId i = 0; i < n; ++i) {
                    const NodeId u = (i + offset) % n;
                    source.fill_row(u, got);
                    EXPECT_EQ(got, want[static_cast<std::size_t>(u)])
                        << name << " rows=" << rows << " source " << u;
                    const NodeId v = n - 1 - u;
                    EXPECT_EQ(source.distance(u, v),
                              want[static_cast<std::size_t>(u)][static_cast<std::size_t>(v)])
                        << name << " rows=" << rows;
                }
            };
            std::vector<std::thread> threads;
            for (int t = 1; t < 4; ++t) threads.emplace_back(check, t * 11);
            check(0);
            for (std::thread& thread : threads) thread.join();
        }
    }
}

TEST(DistanceSource, SpannerRoutesFollowTheDenseTablesRule)
{
    // v3 routes and the dense next-hop tables share the kernel's tie rule,
    // so over the same spanner they pick the same path for every pair,
    // zero-weight ties included.  Under every cache size, from four
    // threads at once (each owns every fourth source), each source's
    // routes are checked cold, before its row is read, and again warm,
    // after fill_row.  A zero cache keeps every route cold, so it skips
    // the warm pass.
    for (const auto& [name, snapshot] : pinned_snapshots()) {
        const RoutingTables tables = build_routing_tables(snapshot.spanner_graph());
        const int n = snapshot.meta.node_count;
        for (const std::size_t rows : {std::size_t{0}, std::size_t{2}, std::size_t{1024}}) {
            const SpannerDistanceSource source(snapshot,
                                               SpannerSourceConfig{.row_cache_rows = rows});
            const auto expect_routes = [&](NodeId u, const char* state) {
                for (NodeId v = 0; v < n; ++v)
                    ASSERT_EQ(source.route(u, v), tables.route(u, v))
                        << name << " rows=" << rows << " " << state << ": route " << u
                        << " -> " << v;
            };
            const auto check = [&](NodeId first) {
                std::vector<Weight> row(static_cast<std::size_t>(n));
                for (NodeId u = first; u < n; u += 4) {
                    expect_routes(u, "cold");
                    if (rows == 0) continue;
                    source.fill_row(u, row);
                    expect_routes(u, "warm");
                }
            };
            std::vector<std::thread> threads;
            for (NodeId t = 1; t < 4; ++t) threads.emplace_back(check, t);
            check(0);
            for (std::thread& thread : threads) thread.join();
        }
    }
}

TEST(DistanceSource, SpannerPathsReadOneRowAndRunNoKernelWhenWarm)
{
    // Weights >= 1: a route walks the cached row of `from`, so after
    // distance(u, .) no route from u runs the kernel, and a path query
    // through the engine reads that row once (rows_materialized +
    // row_cache_hits counts every row read).  On an er_sparse spanner and
    // on every pinned spanner without a zero-weight edge, both widths.
    const Graph g = testing::make_instance(InstanceSpec{GraphFamily::erdos_renyi_sparse, 40, 6});
    Rng rng(6);
    std::vector<std::pair<std::string, SparseSnapshot>> snapshots{
        {"er_sparse 40", SparseSnapshot::from_spanner(g, baswana_sen_spanner(g, 2, rng),
                                                      "baswana-sen", 6)}};
    for (auto& [name, snapshot] : pinned_snapshots())
        if (!has_zero_weight(snapshot)) snapshots.emplace_back(name, std::move(snapshot));
    for (const auto& [name, snapshot] : snapshots) {
        SCOPED_TRACE(name);
        const int n = snapshot.meta.node_count;
        {
            const SpannerDistanceSource source(snapshot);
            for (NodeId u = 0; u < n; ++u) {
                (void)source.distance(u, (u + 1) % n);
                const std::uint64_t rows = source.rows_materialized();
                for (NodeId v = 0; v < n; ++v) (void)source.route(u, v);
                EXPECT_EQ(source.rows_materialized(), rows) << "route from " << u;
            }
            EXPECT_EQ(source.rows_materialized(), static_cast<std::uint64_t>(n));
        }
        // Each pair twice: a repeated path reads its row again, so the
        // engine must not answer it from anywhere but the source.
        const auto source = std::make_shared<const SpannerDistanceSource>(snapshot);
        const QueryEngine engine(source);
        std::vector<std::pair<PointQuery, PathResult>> answers;
        for (NodeId u = 0; u < n; u += 3)
            for (NodeId v = 0; v < n; v += 5)
                for (int repeat = 0; repeat < 2; ++repeat)
                    answers.push_back({{u, v}, engine.path(u, v)});
        EXPECT_EQ(source->rows_materialized() + source->row_cache_hits(), answers.size());
        for (const auto& [query, path] : answers) {
            const Weight distance = source->distance(query.from, query.to);
            EXPECT_EQ(path.reachable, is_finite(distance));
            EXPECT_EQ(path.distance, distance);
            EXPECT_EQ(path.nodes, source->route(query.from, query.to));
        }
    }
}

/// What QueryEngine::path must make of a source's distance_and_route:
/// a route and a finite distance, or unreachable with neither.
PathResult normalized(DistanceSource::Routed routed)
{
    PathResult path;
    path.reachable = !routed.nodes.empty() && is_finite(routed.distance);
    if (path.reachable) {
        path.distance = routed.distance;
        path.nodes = std::move(routed.nodes);
    }
    return path;
}

TEST(DistanceSource, EnginePathsComeStraightFromEverySource)
{
    // The engine keeps no answers of its own: on the dense, mapped and
    // spanner sources, every path (each pair asked twice) equals the
    // source's own distance_and_route.
    const BuiltOracle built(InstanceSpec{GraphFamily::erdos_renyi_sparse, 30, 4});
    const testing::TempFile file("ccq_source_engine_paths.snap", "");
    save_snapshot(file.path(), built.snapshot);
    Rng rng(4);
    const SparseSnapshot sparse = SparseSnapshot::from_spanner(
        built.graph, baswana_sen_spanner(built.graph, 2, rng), "baswana-sen", 4);
    const std::vector<std::shared_ptr<const DistanceSource>> sources{
        std::make_shared<const DenseSnapshotSource>(built.snapshot),
        std::make_shared<const MappedSnapshotSource>(
            std::make_shared<const MappedSnapshot>(file.path())),
        std::make_shared<const SpannerDistanceSource>(sparse)};
    for (const auto& source : sources) {
        const QueryEngine engine(source);
        const int n = engine.node_count();
        for (int pass = 0; pass < 2; ++pass)
            for (NodeId u = 0; u < n; ++u)
                for (NodeId v = 0; v < n; ++v)
                    ASSERT_EQ(engine.path(u, v), normalized(source->distance_and_route(u, v)))
                        << source_kind_name(source->kind()) << " " << u << " -> " << v
                        << " pass " << pass;
    }
}

TEST(DistanceSource, ZeroWeightSpannersRouteThroughTheKernel)
{
    // A zero-weight edge makes routes follow the kernel's settle order,
    // so every route runs the kernel from its target — warm row or not —
    // counts that run as a materialized row, and still matches the
    // tables.  On a clustered spanner with one edge set to 0 and on every
    // pinned spanner with a zero-weight edge, both widths.
    const Graph g = testing::make_instance(InstanceSpec{GraphFamily::clustered, 36, 8});
    Rng rng(8);
    std::vector<std::pair<std::string, SparseSnapshot>> snapshots{
        {"clustered 36", SparseSnapshot::from_spanner(g, baswana_sen_spanner(g, 2, rng),
                                                      "baswana-sen", 8)}};
    snapshots.front().second.edges.front().weight = 0;
    for (auto& [name, snapshot] : pinned_snapshots())
        if (has_zero_weight(snapshot)) snapshots.emplace_back(name, std::move(snapshot));
    for (const auto& [name, snapshot] : snapshots) {
        SCOPED_TRACE(name);
        const RoutingTables tables = build_routing_tables(snapshot.spanner_graph());
        const SpannerDistanceSource source(snapshot);
        const int n = snapshot.meta.node_count;
        std::vector<Weight> row(static_cast<std::size_t>(n));
        for (NodeId u = 0; u < n; ++u) {
            source.fill_row(u, row);
            for (NodeId v = 0; v < n; ++v) {
                const std::uint64_t rows = source.rows_materialized();
                const DistanceSource::Routed routed = source.distance_and_route(u, v);
                EXPECT_EQ(source.rows_materialized(), rows + 1) << "route " << u << " -> " << v;
                EXPECT_EQ(routed.nodes, tables.route(u, v)) << "route " << u << " -> " << v;
                EXPECT_EQ(routed.distance, row[static_cast<std::size_t>(v)]);
            }
        }
    }
}

/// A Baswana–Sen v3 snapshot of an er_sparse graph of 400 nodes, its
/// stored weights times `scale`.
SparseSnapshot scaled_er_spanner(Weight scale)
{
    const Graph g = testing::make_instance(InstanceSpec{GraphFamily::erdos_renyi_sparse, 400, 12});
    Rng rng(12);
    SparseSnapshot snapshot =
        SparseSnapshot::from_spanner(g, baswana_sen_spanner(g, 2, rng), "baswana-sen", 12);
    for (WeightedEdge& e : snapshot.edges) e.weight *= scale;
    return snapshot;
}

TEST(DistanceSource, SpannerMissesAllocateOneRowOfTheirWidth)
{
    // Once this thread has run the kernel, a row miss allocates its row
    // and nothing larger: 4n bytes on a narrow source, 8n on a wide one.
    // A warm row's k-nearest reads the cells in place, and a kernel route
    // on a zero-weight spanner reuses the thread's scratch too.
    for (const Weight scale : {Weight{1}, Weight{100'000'000}}) {
        SparseSnapshot snapshot = scaled_er_spanner(scale);
        const std::size_t n = static_cast<std::size_t>(snapshot.meta.node_count);
        const SpannerDistanceSource source(snapshot);
        const std::size_t cell = scale == 1 ? 4 : 8;
        ASSERT_EQ(source.cell_bytes(), cell);
        (void)source.distance(0, 1); // the warm-up miss
        for (NodeId u = 1; u < 9; ++u) {
            std::size_t miss = 0;
            std::size_t nearest = 0;
            {
                const testing::AllocationWatch watch;
                (void)source.distance(u, 0);
                miss = testing::AllocationWatch::largest();
            }
            {
                const testing::AllocationWatch watch;
                (void)source.nearest_targets(u, 8);
                nearest = testing::AllocationWatch::largest();
            }
            EXPECT_EQ(miss, cell * n) << "miss of row " << u << ": the row is the largest block";
            EXPECT_LE(nearest, 8 * sizeof(NearTarget)) << "k-nearest of warm row " << u;
        }
        snapshot.edges.front().weight = 0;
        const SpannerDistanceSource zero(snapshot);
        (void)zero.distance_and_route(0, 1);
        for (NodeId u = 1; u < 9; ++u) {
            const testing::AllocationWatch watch;
            const DistanceSource::Routed routed = zero.distance_and_route(u, 0);
            ASSERT_FALSE(routed.nodes.empty());
            EXPECT_LE(testing::AllocationWatch::largest(), routed.nodes.size() * 2 * sizeof(NodeId))
                << "kernel route " << u << " -> 0 allocates more than its path";
        }
    }
}

TEST(DistanceSource, DenseAndMappedAnswerBitwiseIdenticallyToTheSnapshot)
{
    // The contract that lets the QueryEngine drop its storage branches:
    // both dense sources return the snapshot's exact stored cells, and
    // the engines built on them agree on every distance, path, and
    // k-nearest answer.
    const InstanceSpec spec{GraphFamily::erdos_renyi_sparse, 36, 13};
    const BuiltOracle built(spec);
    const OracleSnapshot& snapshot = built.snapshot;
    const std::string path = ::testing::TempDir() + "ccq_source_identity.snap";
    save_snapshot(path, snapshot, SnapshotFormat::v2_compressed);

    const auto dense = std::make_shared<const DenseSnapshotSource>(snapshot);
    const auto mapped = std::make_shared<const MappedSnapshotSource>(
        std::make_shared<const MappedSnapshot>(path));
    EXPECT_EQ(dense->kind(), SourceKind::dense);
    EXPECT_EQ(mapped->kind(), SourceKind::mapped);

    const int n = snapshot.meta.node_count;
    const std::uint64_t cells = static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(n);
    EXPECT_EQ(dense->stored_cells(), cells);
    EXPECT_EQ(mapped->stored_cells(), cells);
    EXPECT_EQ(dense->rows_materialized(), 0u);
    EXPECT_EQ(mapped->row_cache_hits(), 0u);

    const QueryEngine dense_engine(dense);
    const QueryEngine mapped_engine(mapped);
    EXPECT_EQ(dense_engine.source_kind(), SourceKind::dense);
    EXPECT_EQ(mapped_engine.source_kind(), SourceKind::mapped);
    for (NodeId u = 0; u < n; ++u) {
        std::vector<Weight> dense_row(static_cast<std::size_t>(n), 0);
        std::vector<Weight> mapped_row(static_cast<std::size_t>(n), 0);
        dense->fill_row(u, dense_row);
        mapped->fill_row(u, mapped_row);
        for (NodeId v = 0; v < n; ++v) {
            const Weight expected = snapshot.estimate->at(u, v);
            EXPECT_EQ(dense_engine.distance(u, v), expected);
            EXPECT_EQ(mapped_engine.distance(u, v), expected);
            EXPECT_EQ(dense_row[static_cast<std::size_t>(v)], expected);
            EXPECT_EQ(mapped_row[static_cast<std::size_t>(v)], expected);
            if (u != v) {
                EXPECT_EQ(dense_engine.path(u, v), mapped_engine.path(u, v));
            }
        }
        EXPECT_EQ(dense_engine.nearest_targets(u, 5), mapped_engine.nearest_targets(u, 5));
    }
    std::remove(path.c_str());
}

/// The k-nearest answer before select_nearest, kept as its reference:
/// copy the whole row, collect every reachable non-self cell, and
/// partial_sort the first k by (distance, id).
std::vector<NearTarget> reference_nearest(const DistanceSource& source, NodeId from, int k)
{
    const int n = source.node_count();
    std::vector<Weight> row(static_cast<std::size_t>(n), kInfinity);
    source.fill_row(from, row);
    std::vector<NearTarget> candidates;
    for (NodeId v = 0; v < n; ++v)
        if (v != from && is_finite(row[static_cast<std::size_t>(v)]))
            candidates.push_back({v, row[static_cast<std::size_t>(v)]});
    const std::size_t keep = std::min(candidates.size(), static_cast<std::size_t>(k));
    std::partial_sort(candidates.begin(), candidates.begin() + static_cast<std::ptrdiff_t>(keep),
                      candidates.end(), [](const NearTarget& a, const NearTarget& b) {
                          return weight_id_less(a.distance, a.node, b.distance, b.node);
                      });
    candidates.resize(keep);
    return candidates;
}

/// Two components and an isolated node, weights 1..2 times `unit`: most
/// rows hold long runs of tied distances and a block of unreachable
/// cells.
Graph tied_two_component_graph(Weight unit = 1)
{
    Graph g(41, Orientation::undirected);
    for (NodeId i = 0; i < 25; ++i) { // a 5x5 unit grid
        if (i % 5 != 4) g.add_edge(i, i + 1, unit);
        if (i + 5 < 25) g.add_edge(i, i + 5, unit);
    }
    for (NodeId i = 25; i < 39; ++i) g.add_edge(i, i + 1, (1 + i % 2) * unit); // 40 stays alone
    g.add_edge(25, 32, 2 * unit);
    return g;
}

TEST(DistanceSource, NearestTargetsEqualTheCopyAndPartialSortReference)
{
    // The heavy copy of the tied graph keeps wide spanner rows.
    const Graph tied = tied_two_component_graph();
    const Graph heavy = tied_two_component_graph(1'000'000'000);
    const Graph clustered =
        testing::make_instance(InstanceSpec{GraphFamily::clustered, 40, 7, /*max_weight=*/3});
    for (const Graph* g : {&tied, &heavy, &clustered}) {
        const int n = g->node_count();
        SCOPED_TRACE("n = " + std::to_string(n));
        const ApspResult result =
            DistanceOracle(*g, ApspAlgorithmKind::logn_baseline).result();
        const OracleSnapshot snapshot = OracleSnapshot::from_result(*g, result, 1);
        const std::string path = ::testing::TempDir() + "ccq_source_nearest.snap";
        save_snapshot(path, snapshot, SnapshotFormat::v2_compressed);
        const std::vector<std::pair<std::string, std::shared_ptr<const DistanceSource>>> sources{
            {"dense", std::make_shared<const DenseSnapshotSource>(snapshot)},
            {"mapped", std::make_shared<const MappedSnapshotSource>(
                           std::make_shared<const MappedSnapshot>(path))},
            {"spanner", std::make_shared<const SpannerDistanceSource>(SparseSnapshot::from_spanner(
                            *g, SpannerResult{*g, 1, 1}, "whole", 0))},
        };
        for (const auto& [name, source] : sources) {
            SCOPED_TRACE(name);
            const QueryEngine engine(source);
            for (NodeId u = 0; u < n; ++u) {
                for (const int k : {0, 1, 8, n - 1, n, n + 10,
                                    std::numeric_limits<std::int32_t>::max()}) {
                    const std::vector<NearTarget> want = reference_nearest(*source, u, k);
                    ASSERT_EQ(source->nearest_targets(u, k), want) << u << " k=" << k;
                    ASSERT_EQ(engine.nearest_targets(u, k), want) << u << " k=" << k;
                }
                // The largest k holds one entry per node at most, and the
                // row is read in place (the row is warm by now).
                std::size_t largest = 0;
                {
                    const testing::AllocationWatch watch;
                    (void)source->nearest_targets(u, std::numeric_limits<std::int32_t>::max());
                    largest = testing::AllocationWatch::largest();
                }
                EXPECT_LE(largest, static_cast<std::size_t>(n) * sizeof(NearTarget)) << u;
                EXPECT_THROW((void)source->nearest_targets(u, -1), check_error);
                EXPECT_THROW((void)engine.nearest_targets(u, -1), check_error);
            }
        }
        std::remove(path.c_str());
    }
    EXPECT_EQ(SpannerDistanceSource(SparseSnapshot::from_spanner(heavy, SpannerResult{heavy, 1, 1},
                                                                 "whole", 0))
                  .cell_bytes(),
              8u);
    // Unreachable cells really were in play: node 40 of the tied graph
    // has no targets at all, and node 0 none outside its grid.
    const QueryEngine tied_engine(std::make_shared<const SpannerDistanceSource>(
        SparseSnapshot::from_spanner(tied, SpannerResult{tied, 1, 1}, "whole", 0)));
    EXPECT_TRUE(tied_engine.nearest_targets(40, 100).empty());
    EXPECT_EQ(tied_engine.nearest_targets(0, 100).size(), 24u);
}

TEST(DistanceSource, SelectNearestKeepsTheFirstIdAmongTies)
{
    const std::vector<Weight> row{5, 3, kInfinity, 3, 0, 3, 7, 3};
    EXPECT_EQ(select_nearest(row, 4, 2), (std::vector<NearTarget>{{1, 3}, {3, 3}}));
    EXPECT_EQ(select_nearest(row, 1, 3), (std::vector<NearTarget>{{4, 0}, {3, 3}, {5, 3}}));
    EXPECT_EQ(select_nearest(row, 0, 100).size(), 6u); // self and the unreachable cell left out
    EXPECT_TRUE(select_nearest(row, 0, 0).empty());
    EXPECT_TRUE(select_nearest({}, 0, 3).empty());
    EXPECT_THROW((void)select_nearest(row, 0, -1), check_error);
}

TEST(DistanceSource, SparseSnapshotRoundTripsThroughBytes)
{
    const Graph g = testing::make_instance(InstanceSpec{GraphFamily::clustered, 40, 3});
    Rng rng(3);
    const SpannerResult result = baswana_sen_spanner(g, 2, rng);
    const SparseSnapshot original = SparseSnapshot::from_spanner(g, result, "baswana-sen", 3);
    EXPECT_EQ(original.stretch_bound, result.stretch_bound);
    EXPECT_EQ(original.parameter_k, result.parameter_k);
    EXPECT_EQ(sparse_round_trip(original), original);

    // And through a file, via the save/load pair.
    const std::string path = ::testing::TempDir() + "ccq_sparse_roundtrip.snap";
    save_sparse_snapshot(path, original);
    EXPECT_EQ(peek_snapshot_format(path), SnapshotFormat::v3_spanner);
    EXPECT_EQ(load_sparse_snapshot(path), original);
    std::remove(path.c_str());
}

TEST(DistanceSource, SpannerSourceAnswersWithinTheStretchBound)
{
    // Property: for every pair, exact <= answer <= stretch_bound * exact
    // (and matching reachability) — on both spanner constructions,
    // after a round trip through the v3 codec.
    for (const InstanceSpec spec : {InstanceSpec{GraphFamily::erdos_renyi_sparse, 48, 7},
                                    InstanceSpec{GraphFamily::clustered, 40, 21},
                                    InstanceSpec{GraphFamily::grid, 36, 5}}) {
        const Graph g = testing::make_instance(spec);
        Rng rng(spec.seed);
        for (const bool greedy : {false, true}) {
            const SpannerResult result =
                greedy ? greedy_spanner(g, 2) : baswana_sen_spanner(g, 2, rng);
            const SparseSnapshot snapshot = sparse_round_trip(SparseSnapshot::from_spanner(
                g, result, greedy ? "greedy" : "baswana-sen", spec.seed));
            const SpannerDistanceSource source(snapshot);
            EXPECT_EQ(source.kind(), SourceKind::spanner);
            EXPECT_EQ(source.stored_cells(), snapshot.edges.size());
            const std::string context = spec.label() + (greedy ? "/greedy" : "/baswana-sen");
            for (NodeId u = 0; u < g.node_count(); ++u) {
                const std::vector<Weight> exact = dijkstra_from(g, u);
                for (NodeId v = 0; v < g.node_count(); ++v) {
                    const Weight answer = source.distance(u, v);
                    const Weight truth = exact[static_cast<std::size_t>(v)];
                    ASSERT_EQ(is_finite(answer), is_finite(truth))
                        << context << ": reachability mismatch at (" << u << "," << v << ")";
                    if (!is_finite(truth)) continue;
                    EXPECT_GE(answer, truth) << context;
                    EXPECT_LE(answer, truth * static_cast<Weight>(snapshot.stretch_bound))
                        << context;
                }
            }
        }
    }
}

TEST(DistanceSource, SpannerRouteMatchesItsOwnDistance)
{
    const Graph g = testing::make_instance(InstanceSpec{GraphFamily::erdos_renyi_sparse, 32, 9});
    Rng rng(9);
    const SpannerResult result = baswana_sen_spanner(g, 2, rng);
    const SparseSnapshot snapshot = SparseSnapshot::from_spanner(g, result, "baswana-sen", 9);
    const SpannerDistanceSource source(snapshot);
    ASSERT_TRUE(source.has_routing());
    const Graph spanner = snapshot.spanner_graph();
    for (NodeId u = 0; u < g.node_count(); ++u) {
        for (NodeId v = 0; v < g.node_count(); ++v) {
            const std::vector<NodeId> path = source.route(u, v);
            if (!is_finite(source.distance(u, v))) {
                EXPECT_TRUE(path.empty());
                continue;
            }
            ASSERT_FALSE(path.empty());
            EXPECT_EQ(path.front(), u);
            EXPECT_EQ(path.back(), v);
            // The walked edges exist in the spanner and sum to the
            // source's own estimate for the pair.
            Weight total = 0;
            for (std::size_t i = 0; i + 1 < path.size(); ++i) {
                bool found = false;
                for (const Edge& e : spanner.neighbors(path[i]))
                    if (e.to == path[i + 1]) {
                        total = saturating_add(total, e.weight);
                        found = true;
                        break;
                    }
                ASSERT_TRUE(found) << "route uses a non-spanner edge";
            }
            EXPECT_EQ(total, source.distance(u, v));
        }
    }
}

TEST(DistanceSource, SpannerRowCacheIsInvisibleToAnswers)
{
    // cold == warm: a tiny cache that thrashes and a disabled cache must
    // agree with a large cache on every answer, and the counters must
    // prove the cache actually engaged.
    const Graph g = testing::make_instance(InstanceSpec{GraphFamily::clustered, 44, 17});
    Rng rng(17);
    const SparseSnapshot snapshot =
        SparseSnapshot::from_spanner(g, baswana_sen_spanner(g, 2, rng), "baswana-sen", 17);

    const SpannerDistanceSource warm(snapshot, SpannerSourceConfig{.row_cache_rows = 1024});
    const SpannerDistanceSource tiny(snapshot, SpannerSourceConfig{.row_cache_rows = 2});
    const SpannerDistanceSource cold(snapshot, SpannerSourceConfig{.row_cache_rows = 0});

    const int n = g.node_count();
    for (int pass = 0; pass < 2; ++pass)
        for (NodeId u = 0; u < n; ++u)
            for (NodeId v = 0; v < n; v += 7) {
                const Weight expected = cold.distance(u, v);
                EXPECT_EQ(warm.distance(u, v), expected);
                EXPECT_EQ(tiny.distance(u, v), expected);
            }

    // Warm source: each row computed once, then served from cache.
    EXPECT_EQ(warm.rows_materialized(), static_cast<std::uint64_t>(n));
    EXPECT_GT(warm.row_cache_hits(), 0u);
    // Thrashing source: recomputes rows it evicted.
    EXPECT_GT(tiny.rows_materialized(), static_cast<std::uint64_t>(n));
    // Disabled cache: every query pays a fresh Dijkstra, no hits ever.
    EXPECT_EQ(cold.row_cache_hits(), 0u);
    EXPECT_GT(cold.rows_materialized(), static_cast<std::uint64_t>(n));
}

TEST(DistanceSource, SpannerRowCacheHoldsAtMostItsConfiguredRows)
{
    // A 2-row cache keeps at most 2 of 16 distinct rows, so a second
    // sweep over them finds at most 2 still cached.
    const Graph g = testing::make_instance(InstanceSpec{GraphFamily::erdos_renyi_sparse, 24, 3});
    Rng rng(3);
    const SpannerDistanceSource source(
        SparseSnapshot::from_spanner(g, baswana_sen_spanner(g, 2, rng), "baswana-sen", 3),
        SpannerSourceConfig{.row_cache_rows = 2});
    for (int pass = 0; pass < 2; ++pass)
        for (NodeId u = 0; u < 16; ++u) (void)source.distance(u, 0);
    EXPECT_LE(source.row_cache_hits(), 2u);
    EXPECT_EQ(source.rows_materialized() + source.row_cache_hits(), 32u);
}

TEST(DistanceSource, FactoryAutoDetectsEveryFormat)
{
    const InstanceSpec spec{GraphFamily::erdos_renyi_sparse, 30, 5};
    const BuiltOracle built(spec);
    const OracleSnapshot& dense = built.snapshot;
    const Graph& g = built.graph;
    Rng rng(5);
    const SparseSnapshot sparse =
        SparseSnapshot::from_spanner(g, baswana_sen_spanner(g, 2, rng), "baswana-sen", 5);

    const std::string dir = ::testing::TempDir();
    const std::string v2 = dir + "ccq_factory.v2.snap";
    const std::string v3 = dir + "ccq_factory.v3.snap";
    save_snapshot(v2, dense, SnapshotFormat::v2_compressed);
    save_sparse_snapshot(v3, sparse);

    EXPECT_EQ(peek_snapshot_format(v2), SnapshotFormat::v2_compressed);
    EXPECT_EQ(peek_snapshot_format(v3), SnapshotFormat::v3_spanner);

    const auto eager = open_distance_source(v2);
    const auto mmapped = open_distance_source(v2, DistanceSourceOptions{.prefer_mmap = true});
    const auto spanner = open_distance_source(v3);
    EXPECT_EQ(eager->kind(), SourceKind::dense);
    EXPECT_EQ(mmapped->kind(), SourceKind::mapped);
    EXPECT_EQ(spanner->kind(), SourceKind::spanner);
    EXPECT_EQ(eager->node_count(), dense.meta.node_count);
    EXPECT_EQ(spanner->node_count(), g.node_count());

    // Both dense loads answer identically; the sparse one within bound.
    for (NodeId u = 0; u < dense.meta.node_count; ++u)
        for (NodeId v = 0; v < dense.meta.node_count; ++v)
            EXPECT_EQ(eager->distance(u, v), mmapped->distance(u, v));

    // The dense readers refuse the sparse file with a pointer to the
    // right loader, and vice versa.
    EXPECT_THROW((void)load_snapshot(v3), snapshot_io_error);
    EXPECT_THROW((void)MappedSnapshot(v3), snapshot_io_error);
    EXPECT_THROW((void)load_sparse_snapshot(v2), snapshot_io_error);

    for (const std::string& path : {v2, v3}) std::remove(path.c_str());
}

TEST(DistanceSource, UnknownVersionErrorsReportTheFoundVersion)
{
    // Satellite contract: an unknown envelope version names the number
    // it found, so operators can tell "new build needed" from "corrupt".
    const Graph g = testing::make_instance(InstanceSpec{GraphFamily::tree, 16, 2});
    Rng rng(2);
    const SparseSnapshot sparse =
        SparseSnapshot::from_spanner(g, baswana_sen_spanner(g, 2, rng), "baswana-sen", 2);
    std::string bytes = sparse_bytes(sparse);
    bytes[8] = 9; // version u32 little-endian low byte: 3 -> 9
    const testing::TempFile file("ccq_source_version_9.snap", bytes);

    const auto expect_mentions_9 = [&](const auto& loader) {
        try {
            (void)loader(file.path());
            FAIL() << "unknown version accepted";
        } catch (const snapshot_io_error& error) {
            EXPECT_NE(std::string(error.what()).find('9'), std::string::npos)
                << "error does not name the found version: " << error.what();
        }
    };
    expect_mentions_9([](const std::string& path) { return load_snapshot(path); });
    expect_mentions_9([](const std::string& path) { return load_sparse_snapshot(path); });
    expect_mentions_9([](const std::string& path) { return peek_snapshot_format(path); });
    expect_mentions_9(
        [](const std::string& path) { return std::make_unique<MappedSnapshot>(path); });
}

TEST(DistanceSource, V3CorruptionIsDetected)
{
    const Graph g = testing::make_instance(InstanceSpec{GraphFamily::erdos_renyi_sparse, 24, 4});
    Rng rng(4);
    const SparseSnapshot sparse =
        SparseSnapshot::from_spanner(g, baswana_sen_spanner(g, 2, rng), "baswana-sen", 4);
    const std::string bytes = sparse_bytes(sparse);

    // A flipped payload byte fails the checksum.
    std::string flipped = bytes;
    flipped[flipped.size() / 2] = static_cast<char>(flipped[flipped.size() / 2] ^ 0x20);
    const testing::TempFile flipped_file("ccq_source_v3_flipped.snap", flipped);
    EXPECT_THROW((void)load_sparse_snapshot(flipped_file.path()), snapshot_io_error);

    // Truncation at any of several points fails cleanly.
    for (const std::size_t keep : {bytes.size() - 1, bytes.size() / 2, std::size_t{10}}) {
        const testing::TempFile cut("ccq_source_v3_cut.snap", bytes.substr(0, keep));
        EXPECT_THROW((void)load_sparse_snapshot(cut.path()), snapshot_io_error);
    }
}

} // namespace
} // namespace ccq
