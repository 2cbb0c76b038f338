// Tests for the DistanceSource read path: the dense and mapped sources
// must answer bitwise-identically to the snapshot they wrap (the
// refactor changes plumbing, never answers), the spanner source must
// answer within its construction's stretch bound, its row cache must be
// invisible to answers (cold == warm), and the open_distance_source
// factory must auto-detect every codec.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "ccq/graph/exact.hpp"
#include "ccq/serve/distance_source.hpp"
#include "ccq/serve/query_engine.hpp"
#include "ccq/serve/snapshot.hpp"
#include "ccq/spanner/baswana_sen.hpp"
#include "ccq/spanner/greedy.hpp"
#include "built_oracle.hpp"

namespace ccq {
namespace {

using testing::BuiltOracle;
using testing::InstanceSpec;

SparseSnapshot sparse_round_trip(const SparseSnapshot& snapshot)
{
    std::ostringstream out(std::ios::binary);
    write_sparse_snapshot(out, snapshot);
    std::istringstream in(out.str(), std::ios::binary);
    return read_sparse_snapshot(in);
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
    EXPECT_FALSE(dense_engine.is_mapped());
    EXPECT_TRUE(mapped_engine.is_mapped());
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
    const SpannerDistanceSource tiny(snapshot,
                                     SpannerSourceConfig{.row_cache_rows = 2, .cache_shards = 1});
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
    const std::string v1 = dir + "ccq_factory.v1.snap";
    const std::string v2 = dir + "ccq_factory.v2.snap";
    const std::string v3 = dir + "ccq_factory.v3.snap";
    save_snapshot(v1, dense, SnapshotFormat::v1_raw);
    save_snapshot(v2, dense, SnapshotFormat::v2_compressed);
    save_sparse_snapshot(v3, sparse);

    EXPECT_EQ(peek_snapshot_format(v1), SnapshotFormat::v1_raw);
    EXPECT_EQ(peek_snapshot_format(v2), SnapshotFormat::v2_compressed);
    EXPECT_EQ(peek_snapshot_format(v3), SnapshotFormat::v3_spanner);

    const auto eager = open_distance_source(v1);
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
    EXPECT_THROW((void)load_sparse_snapshot(v1), snapshot_io_error);

    for (const std::string& path : {v1, v2, v3}) std::remove(path.c_str());
}

TEST(DistanceSource, UnknownVersionErrorsReportTheFoundVersion)
{
    // Satellite contract: an unknown envelope version names the number
    // it found, so operators can tell "new build needed" from "corrupt".
    const Graph g = testing::make_instance(InstanceSpec{GraphFamily::tree, 16, 2});
    Rng rng(2);
    const SparseSnapshot sparse =
        SparseSnapshot::from_spanner(g, baswana_sen_spanner(g, 2, rng), "baswana-sen", 2);
    std::ostringstream out(std::ios::binary);
    write_sparse_snapshot(out, sparse);
    std::string bytes = out.str();
    bytes[8] = 9; // version u32 little-endian low byte: 3 -> 9

    const auto expect_mentions_9 = [](const auto& loader, std::string bytes_copy) {
        try {
            std::istringstream in(bytes_copy, std::ios::binary);
            (void)loader(in);
            FAIL() << "unknown version accepted";
        } catch (const snapshot_io_error& error) {
            EXPECT_NE(std::string(error.what()).find('9'), std::string::npos)
                << "error does not name the found version: " << error.what();
        }
    };
    expect_mentions_9([](std::istream& in) { return read_snapshot(in); }, bytes);
    expect_mentions_9([](std::istream& in) { return read_sparse_snapshot(in); }, bytes);
}

TEST(DistanceSource, V3CorruptionIsDetected)
{
    const Graph g = testing::make_instance(InstanceSpec{GraphFamily::erdos_renyi_sparse, 24, 4});
    Rng rng(4);
    const SparseSnapshot sparse =
        SparseSnapshot::from_spanner(g, baswana_sen_spanner(g, 2, rng), "baswana-sen", 4);
    std::ostringstream out(std::ios::binary);
    write_sparse_snapshot(out, sparse);
    const std::string bytes = out.str();

    // A flipped payload byte fails the checksum.
    std::string flipped = bytes;
    flipped[flipped.size() / 2] = static_cast<char>(flipped[flipped.size() / 2] ^ 0x20);
    std::istringstream in_flipped(flipped, std::ios::binary);
    EXPECT_THROW((void)read_sparse_snapshot(in_flipped), snapshot_io_error);

    // Truncation at any of several points fails cleanly.
    for (const std::size_t keep : {bytes.size() - 1, bytes.size() / 2, std::size_t{10}}) {
        std::istringstream in(bytes.substr(0, keep), std::ios::binary);
        EXPECT_THROW((void)read_sparse_snapshot(in), snapshot_io_error);
    }
}

} // namespace
} // namespace ccq
