// Umbrella header: the public API of the ccq library.
//
// Quick start:
//
//   ccq::Graph g = ccq::erdos_renyi(512, 0.05, {1, 100}, rng);
//   ccq::ApspResult r = ccq::apsp_general(g);   // Theorem 1.1
//   // r.estimate.at(u, v): distance estimate
//   // r.claimed_stretch:   guaranteed approximation factor
//   // r.ledger:            Congested-Clique round accounting
//
// Module map:
//
//   common/   scalar types, checks, RNG, thread pool
//   clique/   Congested-Clique transport + round ledger (the cost model)
//   matrix/   dense/sparse min-plus algebra and the blocked engine
//   graph/    graph type, generators, exact oracles, IO, metrics
//   hopset/ knearest/ skeleton/ spanner/ scaling/ mst/   paper stages
//   core/     composed algorithms (Theorems 1.1/1.2/7.1/8.1), baselines,
//             the DistanceOracle facade, and next-hop routing tables
//   serve/    build-once/serve-many layer: snapshot persistence
//             (serve/snapshot.hpp: the dense codec v2, the sparse
//             spanner codec v3, and mmap-backed loading), the
//             DistanceSource read-path abstraction over dense, mapped,
//             and spanner-backed oracles (serve/distance_source.hpp),
//             and the concurrent query engine (serve/query_engine.hpp),
//             fronted by tools/ccq_serve.cpp — formats and contract in
//             docs/SNAPSHOTS.md
//   net/      networked serving: length-prefixed framed protocol
//             (net/protocol.hpp, spec in docs/PROTOCOL.md), TCP/stdio
//             transports (net/socket.hpp), the multiplexing Server
//             (net/server.hpp; shared-nothing epoll event loops of
//             net/epoll_server.hpp) and the pipelining
//             Client/ClientPool library (net/client.hpp), fronted by
//             tools/ccq_served.cpp + tools/ccq_client.cpp
//   obs/      observability: lock-free metrics + Prometheus registry
//             (obs/metrics.hpp, scraped via the `metrics` op), the
//             chrome://tracing span tracer (obs/trace.hpp), the
//             flight recorder of recent requests (obs/flight.hpp,
//             dumped via the `flight` op), hardware perf counters
//             (obs/perf.hpp), and rate-limited structured stderr
//             logging (obs/log.hpp) — see docs/OBSERVABILITY.md
//
// See DESIGN.md for details and EXPERIMENTS.md for the measured
// reproduction of every quantitative claim.
#ifndef CCQ_APSP_HPP
#define CCQ_APSP_HPP

#include "ccq/core/apsp_result.hpp"
#include "ccq/core/baselines.hpp"
#include "ccq/core/loglog_apsp.hpp"
#include "ccq/core/oracle.hpp"
#include "ccq/core/routing.hpp"
#include "ccq/core/general_apsp.hpp"
#include "ccq/core/reduction.hpp"
#include "ccq/core/small_diameter.hpp"
#include "ccq/core/stretch.hpp"
#include "ccq/core/tradeoff.hpp"
#include "ccq/core/zero_weights.hpp"
#include "ccq/graph/exact.hpp"
#include "ccq/graph/generators.hpp"
#include "ccq/graph/graph.hpp"
#include "ccq/graph/io.hpp"
#include "ccq/graph/metrics.hpp"
#include "ccq/net/client.hpp"
#include "ccq/net/server.hpp"
#include "ccq/obs/flight.hpp"
#include "ccq/obs/log.hpp"
#include "ccq/obs/metrics.hpp"
#include "ccq/obs/perf.hpp"
#include "ccq/obs/trace.hpp"
#include "ccq/serve/distance_source.hpp"
#include "ccq/serve/query_engine.hpp"
#include "ccq/serve/snapshot.hpp"

#endif // CCQ_APSP_HPP
