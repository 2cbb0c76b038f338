// A small built oracle and the snapshot that borrows its cells, shared
// by the serving-layer tests.
#ifndef CCQ_TESTS_BUILT_ORACLE_HPP
#define CCQ_TESTS_BUILT_ORACLE_HPP

#include "ccq/core/oracle.hpp"
#include "ccq/core/routing.hpp"
#include "ccq/serve/snapshot.hpp"
#include "test_helpers.hpp"

namespace ccq::testing {

/// A build (graph, estimate, routing tables) next to the snapshot that
/// borrows its cells through OracleSnapshot::from_result.  The snapshot
/// points into this object's own members, so the object is neither
/// copyable nor movable: construct it where it is used.
struct BuiltOracle {
    explicit BuiltOracle(const InstanceSpec& spec,
                         ApspAlgorithmKind kind = ApspAlgorithmKind::logn_baseline)
        : graph(make_instance(spec)),
          result(DistanceOracle(graph, kind, seeded(spec.seed)).result()),
          routing(build_routing_tables(graph)),
          snapshot(OracleSnapshot::from_result(graph, result, spec.seed, &routing))
    {
    }
    BuiltOracle(const BuiltOracle&) = delete;
    BuiltOracle& operator=(const BuiltOracle&) = delete;

    [[nodiscard]] static ApspOptions seeded(std::uint64_t seed)
    {
        ApspOptions options;
        options.seed = seed;
        return options;
    }

    Graph graph;
    ApspResult result;
    RoutingTables routing;
    OracleSnapshot snapshot;
};

} // namespace ccq::testing

#endif // CCQ_TESTS_BUILT_ORACLE_HPP
