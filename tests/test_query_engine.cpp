// Tests for the serving query engine: bitwise agreement with the
// in-process ApspResult, path reconstruction, k-nearest ordering, and
// concurrent batches.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "ccq/core/oracle.hpp"
#include "ccq/serve/query_engine.hpp"
#include "built_oracle.hpp"

namespace ccq {
namespace {

using testing::BuiltOracle;
using testing::InstanceSpec;

TEST(QueryEngine, DistancesBitwiseEqualTheApspResultOnEveryPair)
{
    // The acceptance check of the serving layer: a snapshot round-trip
    // must not perturb a single bit of any estimate.
    for (const ApspAlgorithmKind kind :
         {ApspAlgorithmKind::logn_baseline, ApspAlgorithmKind::general}) {
        const BuiltOracle built(InstanceSpec{GraphFamily::erdos_renyi_sparse, 40, 13}, kind);
        const QueryEngine engine(built.snapshot);
        for (NodeId u = 0; u < built.graph.node_count(); ++u)
            for (NodeId v = 0; v < built.graph.node_count(); ++v)
                ASSERT_EQ(engine.distance(u, v), built.result.estimate.at(u, v))
                    << algorithm_kind_name(kind) << " " << u << "->" << v;
    }
}

TEST(QueryEngine, PathsWalkTheRoutingTables)
{
    const BuiltOracle built(InstanceSpec{GraphFamily::clustered, 48, 3});
    const QueryEngine engine(built.snapshot);
    ASSERT_TRUE(engine.has_routing());
    for (NodeId u = 0; u < 48; u += 5) {
        for (NodeId v = 0; v < 48; v += 7) {
            const PathResult path = engine.path(u, v);
            EXPECT_EQ(path.nodes, built.routing.route(u, v)) << u << "->" << v;
            if (path.reachable) {
                ASSERT_FALSE(path.nodes.empty());
                EXPECT_EQ(path.nodes.front(), u);
                EXPECT_EQ(path.nodes.back(), v);
                EXPECT_EQ(path.distance, engine.distance(u, v));
                // Every hop must be a real edge of the source graph.
                EXPECT_TRUE(is_finite(route_length(built.graph, path.nodes)));
            }
        }
    }
}

TEST(QueryEngine, UnreachablePairsReportUnreachable)
{
    Graph g = Graph::undirected(4);
    g.add_edge(0, 1, 2); // {2,3} in another component
    g.add_edge(2, 3, 2);
    const ApspResult result = DistanceOracle(g, ApspAlgorithmKind::exact_baseline).result();
    const RoutingTables routing = build_routing_tables(g);
    const QueryEngine engine(OracleSnapshot::from_result(g, result, 1, &routing));
    EXPECT_EQ(engine.distance(0, 3), kInfinity);
    const PathResult path = engine.path(0, 3);
    EXPECT_FALSE(path.reachable);
    EXPECT_TRUE(path.nodes.empty());
    EXPECT_EQ(path.distance, kInfinity);
    EXPECT_TRUE(engine.path(0, 1).reachable);
}

TEST(QueryEngine, BatchSizeHistogramRecordsEveryBatch)
{
    const BuiltOracle built(InstanceSpec{GraphFamily::erdos_renyi_sparse, 32, 5});
    const QueryEngine engine(built.snapshot);
    const std::vector<PointQuery> three{{0, 1}, {0, 2}, {0, 3}};
    const std::vector<PointQuery> one{{4, 5}};
    (void)engine.batch_distances(three);
    (void)engine.batch_paths(three);
    (void)engine.batch_distances(one);
    (void)engine.batch_distances({}); // empty batches count too

    const obs::HistogramSnapshot snap = engine.batch_size_distribution();
    EXPECT_EQ(snap.total(), 4u);
    EXPECT_EQ(snap.sum, 7u);
    EXPECT_EQ(snap.counts[obs::Histogram::bucket_index(3)], 2u);
    EXPECT_EQ(snap.counts[obs::Histogram::bucket_index(1)], 1u);
    EXPECT_EQ(snap.counts[0], 1u);
}

TEST(QueryEngine, ConcurrentBatchPathsMatchSerialAnswers)
{
    // Many concurrent batched path queries, repeated pairs included:
    // every answer must match the same engine's serial answer.
    const BuiltOracle built(InstanceSpec{GraphFamily::clustered, 40, 21});
    QueryEngineConfig config;
    config.threads = 4;
    const QueryEngine engine(built.snapshot, config);

    Rng rng(9);
    std::vector<PointQuery> queries;
    for (int i = 0; i < 2000; ++i)
        queries.push_back({static_cast<NodeId>(rng.uniform_int(0, 39)),
                           static_cast<NodeId>(rng.uniform_int(0, 39))});
    std::vector<PathResult> serial;
    for (const PointQuery& q : queries) serial.push_back(engine.path(q.from, q.to));

    constexpr int kThreads = 4;
    constexpr int kRounds = 3;
    std::vector<std::thread> workers;
    std::atomic<int> failures{0};
    for (int w = 0; w < kThreads; ++w)
        workers.emplace_back([&] {
            for (int round = 0; round < kRounds; ++round)
                if (engine.batch_paths(queries) != serial) failures.fetch_add(1);
        });
    for (std::thread& worker : workers) worker.join();
    EXPECT_EQ(failures.load(), 0);
}

TEST(QueryEngine, NearestTargetsAreOrderedAndComplete)
{
    const BuiltOracle built(InstanceSpec{GraphFamily::erdos_renyi_sparse, 40, 9});
    const QueryEngine engine(built.snapshot);
    const int n = engine.node_count();
    for (const NodeId from : {NodeId{0}, NodeId{17}, NodeId{39}}) {
        const std::vector<NearTarget> top = engine.nearest_targets(from, 7);
        ASSERT_LE(top.size(), 7u);
        // Ordered by (distance, id).
        for (std::size_t i = 1; i < top.size(); ++i)
            EXPECT_TRUE(weight_id_less(top[i - 1].distance, top[i - 1].node, top[i].distance,
                                       top[i].node));
        // Complete: no excluded node is closer than the worst kept one.
        for (NodeId v = 0; v < n; ++v) {
            if (v == from || !is_finite(engine.distance(from, v))) continue;
            const bool kept =
                std::any_of(top.begin(), top.end(),
                            [v](const NearTarget& t) { return t.node == v; });
            if (!kept && !top.empty()) {
                EXPECT_TRUE(weight_id_less(top.back().distance, top.back().node,
                                           engine.distance(from, v), v));
            }
        }
    }
    // k larger than the graph returns everything reachable, self excluded.
    const std::vector<NearTarget> all = engine.nearest_targets(0, n + 10);
    EXPECT_LE(all.size(), static_cast<std::size_t>(n - 1));
    EXPECT_EQ(engine.nearest_targets(0, 0).size(), 0u);
}

TEST(QueryEngine, BatchesMatchPointQueriesAcrossThreadCounts)
{
    const BuiltOracle built(InstanceSpec{GraphFamily::clustered, 40, 21});
    Rng rng(4);
    std::vector<PointQuery> queries;
    for (int i = 0; i < 500; ++i)
        queries.push_back({static_cast<NodeId>(rng.uniform_int(0, 39)),
                           static_cast<NodeId>(rng.uniform_int(0, 39))});
    for (const int threads : {1, 4}) {
        QueryEngineConfig config;
        config.threads = threads;
        const QueryEngine engine(built.snapshot, config);
        const std::vector<Weight> distances = engine.batch_distances(queries);
        const std::vector<PathResult> paths = engine.batch_paths(queries);
        ASSERT_EQ(distances.size(), queries.size());
        ASSERT_EQ(paths.size(), queries.size());
        for (std::size_t i = 0; i < queries.size(); ++i) {
            EXPECT_EQ(distances[i], engine.distance(queries[i].from, queries[i].to));
            EXPECT_EQ(paths[i], engine.path(queries[i].from, queries[i].to));
        }
    }
}

TEST(QueryEngine, EmptyBatchIsFine)
{
    const BuiltOracle built(InstanceSpec{GraphFamily::tree, 12, 2});
    const QueryEngine engine(built.snapshot);
    EXPECT_TRUE(engine.batch_distances({}).empty());
    EXPECT_TRUE(engine.batch_paths({}).empty());
}

TEST(QueryEngine, PathRequiresRoutingTables)
{
    const Graph g = testing::make_instance(InstanceSpec{GraphFamily::tree, 12, 2});
    const ApspResult result = DistanceOracle(g, ApspAlgorithmKind::logn_baseline).result();
    const QueryEngine engine(OracleSnapshot::from_result(g, result, 1));
    EXPECT_FALSE(engine.has_routing());
    EXPECT_EQ(engine.distance(0, 5), result.estimate.at(0, 5));
    EXPECT_THROW((void)engine.path(0, 5), check_error);
}

TEST(QueryEngine, BoundsChecked)
{
    const BuiltOracle built(InstanceSpec{GraphFamily::tree, 12, 2});
    const QueryEngine engine(built.snapshot);
    EXPECT_THROW((void)engine.distance(-1, 0), check_error);
    EXPECT_THROW((void)engine.distance(0, 12), check_error);
    EXPECT_THROW((void)engine.path(12, 0), check_error);
    EXPECT_THROW((void)engine.nearest_targets(0, -1), check_error);
    EXPECT_THROW((void)engine.nearest_targets(12, 1), check_error);
}

TEST(QueryEngine, CorruptedRoutingTablesServeAsUnreachableNotHang)
{
    // An adversarial snapshot: next hops form a 2-cycle that never
    // reaches the destination.  Serving must answer, not loop.
    const int n = 3;
    std::vector<NodeId> hops(static_cast<std::size_t>(n) * static_cast<std::size_t>(n), -1);
    hops[0 * 3 + 2] = 1; // 0 -> 1 toward 2
    hops[1 * 3 + 2] = 0; // 1 -> 0 toward 2: cycle
    Graph g = Graph::undirected(n);
    g.add_edge(0, 1, 1);
    g.add_edge(1, 2, 1);
    const ApspResult result = DistanceOracle(g, ApspAlgorithmKind::exact_baseline).result();
    const RoutingTables corrupted(n, std::move(hops));
    const QueryEngine engine(OracleSnapshot::from_result(g, result, 1, &corrupted));
    const PathResult path = engine.path(0, 2);
    EXPECT_FALSE(path.reachable);
    EXPECT_TRUE(path.nodes.empty());
}

TEST(QueryEngine, InconsistentEstimateAndRoutingServeAsUnreachable)
{
    // Forged snapshot where the routing walk succeeds but the estimate
    // cell claims unreachable: no self-contradictory answer may escape.
    const BuiltOracle built(InstanceSpec{GraphFamily::tree, 12, 2});
    auto estimate = std::make_shared<DistanceMatrix>(built.result.estimate);
    estimate->at(0, 5) = kInfinity;
    OracleSnapshot forged = built.snapshot;
    forged.estimate = std::move(estimate);
    const QueryEngine engine(forged);
    const PathResult path = engine.path(0, 5);
    EXPECT_FALSE(path.reachable);
    EXPECT_TRUE(path.nodes.empty());
    EXPECT_EQ(path.distance, kInfinity);
}

} // namespace
} // namespace ccq
