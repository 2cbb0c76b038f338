// ccq_served — the long-running distance-oracle server.
//
//   ccq_served --snapshot wan.snap --port 7465
//   ccq_served --snapshot wan.snap --port 0 --port-file port.txt --mmap
//   ccq_served --snapshot wan.snap --stdio
//
// Loads a snapshot — dense v2 (eagerly, or mmap-backed with --mmap
// so the process starts serving before touching the n^2 payload) or a
// sparse v3 spanner, auto-detected from the file header — and speaks
// the framed protocol of docs/PROTOCOL.md: over TCP by default, or over
// stdin/stdout with --stdio (one connection, ends at EOF).  Graceful
// shutdown on SIGINT/SIGTERM or a shutdown control frame; --port-file
// writes the bound port for scripts that bind an ephemeral port.
//
// Observability: --log-level debug turns on per-connection log lines,
// --trace-out FILE writes a chrome://tracing JSON of the server's life
// (snapshot load span + connection instants + sampled request span
// chains) at shutdown — including shutdown by SIGINT/SIGTERM, so the
// JSON is always well-formed.  --no-metrics disables hot-path metric
// recording (the metrics scrape op still answers, with zero request
// counts).  --flight-records N sizes the flight recorder ring (the
// flight wire op dumps the last N requests), and --slow-query-us T
// logs a structured warn line for any request slower than T.
#include <csignal>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <string>

#include "ccq/common/parallel.hpp"
#include "ccq/net/server.hpp"
#include "ccq/net/socket.hpp"
#include "ccq/obs/log.hpp"
#include "ccq/obs/trace.hpp"
#include "ccq/serve/distance_source.hpp"
#include "ccq/serve/query_engine.hpp"
#include "ccq/serve/snapshot.hpp"
#include "tool_common.hpp"

namespace {

using namespace ccq;
using ccq_tools::Args;

Server* g_server = nullptr;

void handle_signal(int)
{
    // Only atomics and shutdown(2) behind this call: async-signal-safe.
    if (g_server != nullptr) g_server->request_stop();
}

int usage()
{
    std::fprintf(stderr,
                 "usage: ccq_served --snapshot <file> [--host <ip>] [--port <n>]\n"
                 "       [--port-file <file>] [--mmap] [--stdio] [--threads <n>]\n"
                 "       [--shutdown-token <t>] [--max-connections <n>] [--workers <n>]\n"
                 "       [--log-level error|warn|info|debug] [--trace-out <file>]\n"
                 "       [--no-metrics] [--flight-records <n>] [--slow-query-us <t>]\n");
    return 1;
}

int run(Args& args)
{
    const std::optional<std::string> snapshot_path = args.value("--snapshot");
    if (!snapshot_path) throw std::runtime_error("--snapshot is required");
    ServerConfig config;
    if (const std::optional<std::string> host = args.value("--host")) config.host = *host;
    if (const std::optional<std::string> port = args.value("--port"))
        config.port = std::stoi(*port);
    if (const std::optional<std::string> token = args.value("--shutdown-token"))
        config.shutdown_token = *token;
    if (const std::optional<std::string> max_conns = args.value("--max-connections"))
        config.max_connections = std::stoi(*max_conns);
    if (const std::optional<std::string> workers = args.value("--workers"))
        config.workers = std::stoi(*workers);
    if (const std::optional<std::string> level = args.value("--log-level"))
        obs::set_log_level(obs::parse_log_level(*level));
    const std::optional<std::string> trace_out = args.value("--trace-out");
    if (args.flag("--no-metrics")) config.metrics = false;
    if (const std::optional<std::string> records = args.value("--flight-records"))
        config.flight_records = static_cast<std::size_t>(std::stoull(*records));
    if (const std::optional<std::string> slow = args.value("--slow-query-us"))
        config.slow_query_us = std::stoll(*slow);
    const std::optional<std::string> port_file = args.value("--port-file");
    const bool use_mmap = args.flag("--mmap");
    const bool stdio = args.flag("--stdio");
    QueryEngineConfig engine_config;
    if (const std::optional<std::string> threads = args.value("--threads"))
        engine_config.threads = std::stoi(*threads);
    args.finish();

    if (trace_out) obs::Tracer::global().enable();

    // Format auto-detect: dense v2 (eager or --mmap) and sparse v3
    // all arrive as a DistanceSource; the engine never knows which.
    const std::shared_ptr<const DistanceSource> source =
        open_distance_source(*snapshot_path, DistanceSourceOptions{.prefer_mmap = use_mmap});
    CCQ_LOG_INFO("opened %s (%s, %s source, n=%d, %llu stored cells, routing=%s)",
                 snapshot_path->c_str(),
                 snapshot_format_name(peek_snapshot_format(*snapshot_path)),
                 source_kind_name(source->kind()), source->node_count(),
                 static_cast<unsigned long long>(source->stored_cells()),
                 source->has_routing() ? "yes" : "no");
    const std::shared_ptr<const QueryEngine> engine =
        std::make_shared<const QueryEngine>(source, engine_config);

    Server server(engine, config);
    const auto write_trace = [&] {
        if (!trace_out) return;
        obs::Tracer::global().write(*trace_out);
        CCQ_LOG_INFO("wrote trace (%zu events) to %s", obs::Tracer::global().event_count(),
                     trace_out->c_str());
    };
    if (stdio) {
        // Signals interrupt the blocked stdin read too (request_stop
        // shuts down every registered stream), so Ctrl-C on a stdio
        // server still drops out of serve_stream and writes the trace.
        g_server = &server;
        std::signal(SIGINT, handle_signal);
        std::signal(SIGTERM, handle_signal);
        FdStream stream(0, 1, /*owns=*/false);
        try {
            server.serve_stream(stream);
        } catch (...) {
            g_server = nullptr;
            write_trace();
            throw;
        }
        g_server = nullptr;
        write_trace();
        return 0;
    }

    // Bind before installing the handlers: request_stop() from a signal
    // must never race listener construction inside listen().
    const int port = server.listen();
    g_server = &server;
    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);
    if (port_file) {
        std::ofstream out(*port_file);
        if (!out) throw std::runtime_error("cannot write port file " + *port_file);
        out << port << "\n";
    }
    std::printf("ccq_served: listening on %s:%d (%d event loops)\n", config.host.c_str(), port,
                resolved_thread_count(config.workers));
    std::fflush(stdout);
    try {
        server.run();
    } catch (...) {
        // A serving failure still gets a well-formed trace file.
        g_server = nullptr;
        write_trace();
        throw;
    }

    const ServerStats stats = server.stats();
    std::printf("ccq_served: shut down after %.1fs — %llu connections, %llu ok, %llu errors\n",
                stats.uptime_seconds,
                static_cast<unsigned long long>(stats.connections_accepted),
                static_cast<unsigned long long>(stats.frames_served),
                static_cast<unsigned long long>(stats.errors));
    write_trace();
    g_server = nullptr;
    return 0;
}

} // namespace

int main(int argc, char** argv)
{
    Args args(argc - 1, argv + 1);
    try {
        return run(args);
    } catch (const std::exception& error) {
        std::fprintf(stderr, "ccq_served: %s\n", error.what());
        return argc < 2 ? usage() : 2;
    }
}
