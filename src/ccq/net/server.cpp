#include "ccq/net/server.hpp"

#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <exception>
#include <thread>
#include <utility>

#include "ccq/common/parallel.hpp"
#include "ccq/matrix/engine.hpp"
#include "ccq/net/epoll_server.hpp"
#include "ccq/obs/log.hpp"
#include "ccq/obs/trace.hpp"

namespace ccq {
namespace {

/// Raised inside request handling to produce a non-ok response without
/// tearing the connection down.
struct request_rejected {
    Status status;
    std::string message;
};

void append_json_path(std::string& out, const std::vector<NodeId>& nodes)
{
    out += '[';
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        if (i > 0) out += ',';
        out += std::to_string(nodes[i]);
    }
    out += ']';
}

void append_json_path_result(std::string& out, NodeId from, NodeId to, const PathResult& path)
{
    out += "{\"from\":" + std::to_string(from) + ",\"to\":" + std::to_string(to) +
           ",\"reachable\":" + (path.reachable ? "true" : "false") +
           ",\"distance\":" + std::to_string(path.reachable ? path.distance : -1) +
           ",\"path\":";
    append_json_path(out, path.nodes);
    out += '}';
}

[[nodiscard]] std::string json_error_reply(Status status, const std::string& message)
{
    return "{\"error\":{\"status\":\"" + std::string(status_name(status)) +
           "\",\"message\":\"" + json_escape(message) + "\"}}";
}

} // namespace

Server::Server(std::shared_ptr<const QueryEngine> engine, ServerConfig config)
    : engine_(std::move(engine)), config_(std::move(config)), flight_(config_.flight_records)
{
    CCQ_EXPECT(engine_ != nullptr, "Server: null engine");
    init_metrics();
}

void Server::init_metrics()
{
    static const std::string kRequests = "ccq_requests_total";
    static const std::string kLatency = "ccq_request_latency_us";
    static const std::string kSourceLatency = "ccq_query_latency_us";
    const std::string source_label = source_kind_name(engine_->source_kind());
    for (std::size_t i = 0; i < kOpMetricCount; ++i) {
        const std::string op = op_metric_name(i);
        op_metrics_[i].ok = &registry_.counter(
            kRequests, "Requests served, by opcode and outcome.", {{"op", op}, {"status", "ok"}});
        op_metrics_[i].error =
            &registry_.counter(kRequests, "Requests served, by opcode and outcome.",
                               {{"op", op}, {"status", "error"}});
        op_metrics_[i].latency_us = &registry_.histogram(
            kLatency, "Request decode+dispatch+render latency in microseconds.", {{"op", op}});
        op_metrics_[i].source_latency_us = &registry_.histogram(
            kSourceLatency,
            "Request latency in microseconds, by opcode and the engine's source kind.",
            {{"op", op}, {"source", source_label}});
    }
    bytes_read_ = &registry_.counter("ccq_bytes_read_total",
                                     "Bytes read from client connections, framing included.");
    bytes_written_ = &registry_.counter(
        "ccq_bytes_written_total", "Bytes written to client connections, framing included.");
    static const std::string kConns = "ccq_connection_events_total";
    static const std::string kConnsHelp = "Connection lifecycle events, by kind.";
    conns_opened_ = &registry_.counter(kConns, kConnsHelp, {{"event", "opened"}});
    conns_closed_ = &registry_.counter(kConns, kConnsHelp, {{"event", "closed"}});
    conns_shed_ = &registry_.counter(kConns, kConnsHelp, {{"event", "shed"}});
    conns_poisoned_ = &registry_.counter(kConns, kConnsHelp, {{"event", "poisoned"}});

    // Values that already live in ServerStats atomics / the engine are
    // rendered at scrape time instead of being double-counted.
    registry_.add_collector([this](std::string& out) {
        const ServerStats s = stats();
        obs::append_header(out, "ccq_connections_accepted_total",
                           "Connections accepted since start.", "counter");
        obs::append_sample(out, "ccq_connections_accepted_total", {}, s.connections_accepted);
        obs::append_header(out, "ccq_connections_rejected_total",
                           "Connections shed by the --max-connections guard.", "counter");
        obs::append_sample(out, "ccq_connections_rejected_total", {}, s.connections_rejected);
        obs::append_header(out, "ccq_active_connections", "Currently open connections.",
                           "gauge");
        obs::append_sample(out, "ccq_active_connections", {}, s.active_connections);
        obs::append_header(out, "ccq_frames_served_total", "Frames answered with status ok.",
                           "counter");
        obs::append_sample(out, "ccq_frames_served_total", {}, s.frames_served);
        obs::append_header(out, "ccq_errors_total", "Frames answered with a non-ok status.",
                           "counter");
        obs::append_sample(out, "ccq_errors_total", {}, s.errors);
        obs::append_header(out, "ccq_backpressure_pauses_total",
                           "Times a connection's reads paused for backpressure.", "counter");
        obs::append_sample(out, "ccq_backpressure_pauses_total", {}, s.backpressure_pauses);
        obs::append_header(out, "ccq_batch_size",
                           "Items per batch request seen by the query engine.", "histogram");
        obs::append_histogram(out, "ccq_batch_size", {}, engine_->batch_size_distribution());
        obs::append_header(out, "ccq_uptime_seconds", "Seconds since the server started.",
                           "gauge");
        obs::append_sample(out, "ccq_uptime_seconds", {}, s.uptime_seconds);
        obs::append_header(out, "ccq_snapshot_nodes", "Node count of the served snapshot.",
                           "gauge");
        obs::append_sample(out, "ccq_snapshot_nodes", {},
                           static_cast<std::int64_t>(s.node_count));
        obs::append_header(out, "ccq_snapshot_has_routing",
                           "1 when the snapshot carries next-hop routing tables.", "gauge");
        obs::append_sample(out, "ccq_snapshot_has_routing", {},
                           static_cast<std::int64_t>(s.has_routing ? 1 : 0));
        obs::append_header(out, "ccq_snapshot_build_rounds",
                           "Congested-Clique rounds charged by the build (RoundLedger).",
                           "gauge");
        obs::append_sample(out, "ccq_snapshot_build_rounds", {}, s.build_total_rounds);
        obs::append_header(out, "ccq_snapshot_build_words",
                           "Machine words sent by the build (RoundLedger).", "gauge");
        obs::append_sample(out, "ccq_snapshot_build_words", {},
                           static_cast<std::int64_t>(s.build_total_words));
        // The serving DistanceSource: identity, persisted size, and the
        // lazy-materialization work a sparse source has done so far.
        const char* kind = source_kind_name(static_cast<SourceKind>(s.source_kind));
        obs::append_header(out, "ccq_source_info",
                           "1 for the DistanceSource kind answering queries.", "gauge");
        obs::append_sample(out, "ccq_source_info", {{"kind", kind}},
                           static_cast<std::int64_t>(1));
        obs::append_header(out, "ccq_source_stored_cells",
                           "Cells the source persists (n^2 dense, edge count sparse).",
                           "gauge");
        obs::append_sample(out, "ccq_source_stored_cells", {},
                           static_cast<std::int64_t>(s.stored_cells));
        obs::append_header(out, "ccq_source_rows_materialized_total",
                           "Distance rows computed on demand by a sparse source.", "counter");
        obs::append_sample(out, "ccq_source_rows_materialized_total", {},
                           s.rows_materialized);
        obs::append_header(out, "ccq_source_row_cache_hits_total",
                           "Row-cache hits inside a sparse source.", "counter");
        obs::append_sample(out, "ccq_source_row_cache_hits_total", {},
                           engine_->source().row_cache_hits());
        // Width-adaptive min-plus engine: products run in this process
        // (lazy sparse-source rows, admin rebuilds), by element width
        // and k-loop shape.
        const EngineCounters ec = engine_counters();
        obs::append_header(out, "ccq_engine_products_total",
                           "Dense min-plus products run, by kernel element width.", "counter");
        obs::append_sample(out, "ccq_engine_products_total", {{"width", "wide"}},
                           ec.products_wide);
        obs::append_sample(out, "ccq_engine_products_total", {{"width", "narrow"}},
                           ec.products_narrow);
        obs::append_header(out, "ccq_engine_sparse_skip_products_total",
                           "Dense min-plus products that ran the sparse-row skip pass.",
                           "counter");
        obs::append_sample(out, "ccq_engine_sparse_skip_products_total", {},
                           ec.products_sparse_skip);
    });
}

void Server::record_request(std::size_t op_index, bool ok, std::int64_t latency_us) noexcept
{
    OpMetrics& m = op_metrics_[op_index];
    (ok ? m.ok : m.error)->add(1);
    m.latency_us->record(latency_us);
    m.source_latency_us->record(latency_us);
}

void Server::note_conn_opened(std::uint64_t conn_id)
{
    conns_opened_->add(1);
    CCQ_LOG_DEBUG("conn %llu open", static_cast<unsigned long long>(conn_id));
    obs::Tracer::global().instant_event("conn/open", "net");
}

void Server::note_conn_closed(std::uint64_t conn_id)
{
    conns_closed_->add(1);
    CCQ_LOG_DEBUG("conn %llu close", static_cast<unsigned long long>(conn_id));
    obs::Tracer::global().instant_event("conn/close", "net");
}

void Server::note_conn_shed()
{
    conns_shed_->add(1);
    CCQ_LOG_INFO("conn shed: at the --max-connections limit");
}

void Server::note_conn_poisoned(std::uint64_t conn_id, const char* reason)
{
    conns_poisoned_->add(1);
    CCQ_LOG_WARN("conn %llu poisoned: %s", static_cast<unsigned long long>(conn_id), reason);
}

void Server::add_bytes_read(std::uint64_t n) noexcept { bytes_read_->add(n); }

void Server::add_bytes_written(std::uint64_t n) noexcept { bytes_written_->add(n); }

Server::~Server()
{
    // Backstop for callers that never ran, or that still serve a stream.
    // (If run() or serve_stream() is still executing on another thread,
    // outliving the Server is the caller's lifetime bug; the embedded
    // pattern — tests, bench — joins that thread first.)
    request_stop();
    {
        std::lock_guard<std::mutex> lock(streams_mutex_);
        for (Stream* stream : active_streams_) stream->interrupt();
    }
    // The wakeup eventfd stays open for the Server's whole lifetime so
    // request_stop() can never race a close; this is the only close.
    const int wake = loop_wakeup_fd_.exchange(-1, std::memory_order_acq_rel);
    if (wake >= 0) ::close(wake);
}

int Server::listen()
{
    CCQ_EXPECT(!listener_.has_value(), "Server::listen: already listening");
    listener_.emplace(config_.host, config_.port);
    return listener_->port();
}

int Server::port() const
{
    CCQ_EXPECT(listener_.has_value(), "Server::port: call listen() first");
    return listener_->port();
}

void Server::request_stop() noexcept
{
    stop_.store(true, std::memory_order_release);
    if (listener_.has_value()) listener_->close();
    // Wake the event loops too: write(2) is async-signal-safe, exactly
    // like the shutdown(2) inside listener close.
    const int wake = loop_wakeup_fd_.load(std::memory_order_acquire);
    if (wake >= 0) {
        const std::uint64_t one = 1;
        [[maybe_unused]] const ssize_t ignored = ::write(wake, &one, sizeof(one));
    }
}

void Server::run()
{
    CCQ_EXPECT(listener_.has_value(), "Server::run: call listen() first");
    // Create (once) and publish the stop eventfd before any loop exists.
    // The Server owns it and ~Server closes it: request_stop() may write
    // it from any thread or signal handler at any point in the Server's
    // lifetime, so it must never be closed while a concurrent writer
    // could still hold the value.
    if (loop_wakeup_fd_.load(std::memory_order_relaxed) < 0) {
        const int wake = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
        if (wake < 0) throw net_error("eventfd: " + std::string(std::strerror(errno)));
        loop_wakeup_fd_.store(wake, std::memory_order_release);
    }

    std::vector<std::unique_ptr<EpollLoop>> loops;
    const int loop_count = resolved_thread_count(config_.workers);
    for (int i = 0; i < loop_count; ++i) loops.push_back(std::make_unique<EpollLoop>(*this, i));
    for (const std::unique_ptr<EpollLoop>& loop : loops) loops_.push_back(loop.get());

    // Loop 0 runs on the calling thread, the rest on their own.  A loop
    // that fails stops the others; the first failure is rethrown once
    // every loop has returned.
    std::mutex failure_mutex;
    std::exception_ptr failure;
    const auto run_loop = [&](EpollLoop& loop) {
        try {
            loop.run();
        } catch (...) {
            request_stop();
            std::lock_guard<std::mutex> lock(failure_mutex);
            if (!failure) failure = std::current_exception();
        }
    };
    std::vector<std::thread> threads;
    try {
        for (std::size_t i = 1; i < loops.size(); ++i)
            threads.emplace_back(run_loop, std::ref(*loops[i]));
    } catch (...) {
        request_stop();
        for (std::thread& thread : threads) thread.join();
        loops_.clear();
        throw;
    }
    run_loop(*loops[0]);
    for (std::thread& thread : threads) thread.join();
    loops_.clear();
    if (failure) std::rethrow_exception(failure);
}

void Server::shed_connection(TcpStream& stream)
{
    connections_rejected_.fetch_add(1, std::memory_order_relaxed);
    note_conn_shed();
    try {
        write_frame(stream, encode_error_reply(
                                Status::busy, "server is at its connection limit, retry later"));
    } catch (const std::exception&) {
        // Best effort: the peer may already be gone; shedding must not
        // take the accept loop down.
    }
}

void Server::serve_stream(Stream& stream)
{
    active_connections_.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t conn_id =
        connections_accepted_.fetch_add(1, std::memory_order_relaxed) + 1;
    note_conn_opened(conn_id);
    {
        // Register so ~Server can interrupt a blocked read on this
        // connection.
        std::lock_guard<std::mutex> lock(streams_mutex_);
        active_streams_.push_back(&stream);
    }
    const auto deregister = [&] {
        note_conn_closed(conn_id);
        active_connections_.fetch_sub(1, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(streams_mutex_);
        const auto it = std::find(active_streams_.begin(), active_streams_.end(), &stream);
        if (it != active_streams_.end()) active_streams_.erase(it);
    };
    try {
        while (!stopping() && serve_one(stream, conn_id)) {
        }
    } catch (...) {
        deregister();
        throw;
    }
    deregister();
}

std::string Server::process_frame(const std::string& body, bool& shutdown_now,
                                  PendingRequest* pending)
{
    using clock = std::chrono::steady_clock;
    const clock::time_point t0 = clock::now();

    // The optional trace envelope sits in front of the request proper;
    // untagged bodies cost exactly one byte compare here.
    std::string_view inner(body);
    TraceContext trace;
    bool tagged = false;
    Request request;
    bool decoded = true;
    bool json_body = false;
    Status status = Status::ok;
    std::string reply;
    // Error replies go out in the caller's own mode, binary or JSON.
    const auto reject = [&](Status why, const std::string& message) {
        status = why;
        reply = json_body ? json_error_reply(why, message) : encode_error_reply(why, message);
    };
    try {
        if (std::optional<TraceContext> envelope = split_trace_envelope(inner)) {
            trace = *envelope;
            tagged = true;
        }
        json_body = !inner.empty() && inner.front() == '{';
        request = decode_request(inner);
    } catch (const protocol_error& error) {
        // The frame boundary is intact (the caller consumed exactly the
        // declared bytes), so answer the error and keep the connection.
        decoded = false;
        reject(Status::malformed, error.what());
    }
    const clock::time_point t1 = clock::now();

    if (decoded) {
        try {
            if (stopping() && request.op != Opcode::shutdown)
                throw request_rejected{Status::shutting_down, "server is shutting down"};
            const Answer result = answer(request);
            reply = request.json ? render_json(request, result) : render_binary(request, result);
        } catch (const request_rejected& rejected) {
            reject(rejected.status, rejected.message);
        } catch (const std::exception& error) {
            reject(Status::internal, error.what());
        }
    }

    const bool ok = status == Status::ok;
    (ok ? frames_served_ : errors_).fetch_add(1, std::memory_order_relaxed);
    const clock::time_point t2 = clock::now();
    if (config_.metrics) {
        const std::int64_t us =
            std::chrono::duration_cast<std::chrono::microseconds>(t2 - t0).count();
        record_request(decoded ? op_metric_index(request.op) : kInvalidOpMetric, ok, us);
    }

    if (pending != nullptr) {
        pending->decode_start = t0;
        pending->decode_end = t1;
        pending->execute_end = t2;
        pending->rec.trace_id = tagged ? trace.trace_id : 0;
        pending->rec.sampled = tagged && trace.sampled;
        pending->rec.opcode = decoded ? static_cast<std::uint8_t>(request.op) : 0;
        pending->rec.status = static_cast<std::uint8_t>(status);
        pending->rec.request_bytes = static_cast<std::uint32_t>(4 + body.size());
    }

    shutdown_now = ok && request.op == Opcode::shutdown;
    return reply;
}

namespace {

[[nodiscard]] std::uint32_t stage_us(std::chrono::steady_clock::time_point from,
                                     std::chrono::steady_clock::time_point to) noexcept
{
    if (to <= from) return 0;
    const auto us = std::chrono::duration_cast<std::chrono::microseconds>(to - from).count();
    return us > 0xffffffffll ? 0xffffffffu : static_cast<std::uint32_t>(us);
}

void emit_request_span(const char* name, std::chrono::steady_clock::time_point start,
                       std::chrono::steady_clock::time_point end,
                       const obs::RequestRecord& rec)
{
    char args[128];
    std::snprintf(args, sizeof args, "{\"trace_id\":\"0x%llx\",\"conn\":%llu,\"op\":\"%s\"}",
                  static_cast<unsigned long long>(rec.trace_id),
                  static_cast<unsigned long long>(rec.conn_id),
                  op_metric_name(op_metric_index(static_cast<Opcode>(rec.opcode))));
    obs::Tracer::global().complete_event(name, "req", start, end, args);
}

} // namespace

void Server::commit_request(PendingRequest& pending,
                            std::chrono::steady_clock::time_point flush_end)
{
    obs::RequestRecord& rec = pending.rec;
    rec.queue_us = stage_us(pending.enqueued, pending.decode_start);
    rec.decode_us = stage_us(pending.decode_start, pending.decode_end);
    rec.execute_us = stage_us(pending.decode_end, pending.execute_end);
    rec.encode_us = stage_us(pending.encode_start, pending.encode_end);
    rec.flush_us = stage_us(pending.encode_end, flush_end);
    rec.seq = flight_.record(rec);

    if (rec.sampled && obs::Tracer::global().enabled()) {
        // The whole chain is emitted here, after the flush, with the
        // timestamps captured along the way — one connected trace per
        // sampled request.
        emit_request_span("req/queue", pending.enqueued, pending.decode_start, rec);
        emit_request_span("req/decode", pending.decode_start, pending.decode_end, rec);
        emit_request_span("req/execute", pending.decode_end, pending.execute_end, rec);
        emit_request_span("req/encode", pending.encode_start, pending.encode_end, rec);
        emit_request_span("req/flush", pending.encode_end, flush_end, rec);
    }

    if (config_.slow_query_us > 0 &&
        rec.total_us() >= static_cast<std::uint64_t>(config_.slow_query_us)) {
        CCQ_LOG_WARN("slow query: op=%s status=%s conn=%llu trace=0x%llx total_us=%llu "
                     "decode_us=%u queue_us=%u execute_us=%u encode_us=%u flush_us=%u "
                     "request_bytes=%u reply_bytes=%u",
                     op_metric_name(op_metric_index(static_cast<Opcode>(rec.opcode))),
                     status_name(static_cast<Status>(rec.status)),
                     static_cast<unsigned long long>(rec.conn_id),
                     static_cast<unsigned long long>(rec.trace_id),
                     static_cast<unsigned long long>(rec.total_us()), rec.decode_us,
                     rec.queue_us, rec.execute_us, rec.encode_us, rec.flush_us,
                     rec.request_bytes, rec.reply_bytes);
    }
}

bool Server::serve_one(Stream& stream, std::uint64_t conn_id)
{
    using clock = std::chrono::steady_clock;
    const std::optional<std::string> body = read_frame(stream); // throws on desync
    if (!body.has_value()) return false;                        // clean EOF

    PendingRequest pending;
    pending.rec.conn_id = conn_id;
    // Requests run where they arrive: the queue stage is the instant
    // between frame arrival and decode.
    pending.enqueued = clock::now();
    bool shutdown_now = false;
    const std::string reply = process_frame(*body, shutdown_now, &pending);
    pending.encode_start = clock::now();
    const std::string frame = encode_frame(reply);
    pending.encode_end = clock::now();
    stream.write_all(frame.data(), frame.size());
    pending.rec.reply_bytes = static_cast<std::uint32_t>(frame.size());
    if (config_.metrics) {
        add_bytes_read(4 + body->size());
        add_bytes_written(frame.size());
    }
    commit_request(pending, clock::now());
    if (shutdown_now) {
        request_stop();
        return false;
    }
    return true;
}

namespace {

void check_range(NodeId v, int n)
{
    if (v < 0 || v >= n)
        throw request_rejected{Status::out_of_range,
                               "node " + std::to_string(v) + " outside [0, " +
                                   std::to_string(n) + ")"};
}

/// The shutdown auth gate: with a configured token, a control frame
/// missing it (or carrying the wrong one) is rejected as `forbidden` and
/// never reaches the request_stop() path (which only fires on an ok
/// shutdown reply).
void check_shutdown_token(const ServerConfig& config, const Request& request)
{
    if (!config.shutdown_token.empty() && request.token != config.shutdown_token)
        throw request_rejected{Status::forbidden,
                               "shutdown requires the server's shutdown token"};
}

} // namespace

Server::Answer Server::answer(const Request& request)
{
    const int n = engine_->node_count();
    switch (request.op) {
    case Opcode::ping: return Ack{};
    case Opcode::shutdown:
        check_shutdown_token(config_, request);
        return Ack{};
    case Opcode::distance:
        check_range(request.from, n);
        check_range(request.to, n);
        distance_queries_.fetch_add(1, std::memory_order_relaxed);
        return engine_->distance(request.from, request.to);
    case Opcode::path:
        check_range(request.from, n);
        check_range(request.to, n);
        if (!engine_->has_routing())
            throw request_rejected{Status::unsupported,
                                   "snapshot has no routing tables (rebuild with routing)"};
        path_queries_.fetch_add(1, std::memory_order_relaxed);
        return engine_->path(request.from, request.to);
    case Opcode::k_nearest:
        check_range(request.from, n);
        if (request.k < 0)
            throw request_rejected{Status::out_of_range, "k must be >= 0"};
        knearest_queries_.fetch_add(1, std::memory_order_relaxed);
        return engine_->nearest_targets(request.from, request.k);
    case Opcode::batch_distances: {
        for (const PointQuery& q : request.pairs) {
            check_range(q.from, n);
            check_range(q.to, n);
        }
        batch_items_.fetch_add(request.pairs.size(), std::memory_order_relaxed);
        return engine_->batch_distances(request.pairs);
    }
    case Opcode::batch_paths: {
        for (const PointQuery& q : request.pairs) {
            check_range(q.from, n);
            check_range(q.to, n);
        }
        if (!engine_->has_routing())
            throw request_rejected{Status::unsupported,
                                   "snapshot has no routing tables (rebuild with routing)"};
        batch_items_.fetch_add(request.pairs.size(), std::memory_order_relaxed);
        return engine_->batch_paths(request.pairs);
    }
    case Opcode::stats: return stats();
    case Opcode::metrics: return metrics_text();
    case Opcode::flight: return flight_.snapshot();
    case Opcode::json: break; // unreachable: decode never yields a bare json op
    }
    throw request_rejected{Status::malformed, "unhandled opcode"};
}

std::string Server::render_binary(const Request& request, const Answer& answer)
{
    switch (request.op) {
    case Opcode::ping: return encode_ping_reply();
    case Opcode::shutdown: return encode_ok_reply();
    case Opcode::distance: return encode_distance_reply(std::get<Weight>(answer));
    case Opcode::path: return encode_path_reply(std::get<PathResult>(answer));
    case Opcode::k_nearest:
        return encode_nearest_reply(std::get<std::vector<NearTarget>>(answer));
    case Opcode::batch_distances:
        return encode_batch_distances_reply(std::get<std::vector<Weight>>(answer));
    case Opcode::batch_paths:
        return encode_batch_paths_reply(std::get<std::vector<PathResult>>(answer));
    case Opcode::stats: return encode_stats_reply(std::get<ServerStats>(answer));
    case Opcode::metrics: return encode_metrics_reply(std::get<std::string>(answer));
    case Opcode::flight:
        return encode_flight_reply(std::get<std::vector<obs::RequestRecord>>(answer));
    case Opcode::json: break;
    }
    throw request_rejected{Status::malformed, "unhandled opcode"};
}

std::string Server::render_json(const Request& request, const Answer& answer)
{
    switch (request.op) {
    case Opcode::ping:
        return "{\"op\":\"ping\",\"protocol\":" + std::to_string(kProtocolVersion) + "}";
    case Opcode::shutdown: return "{\"op\":\"shutdown\",\"ok\":true}";
    case Opcode::distance: {
        const Weight d = std::get<Weight>(answer);
        const bool reachable = is_finite(d);
        return "{\"op\":\"distance\",\"from\":" + std::to_string(request.from) +
               ",\"to\":" + std::to_string(request.to) +
               ",\"reachable\":" + (reachable ? "true" : "false") +
               ",\"distance\":" + std::to_string(reachable ? d : -1) + "}";
    }
    case Opcode::path: {
        std::string out = "{\"op\":\"path\",\"result\":";
        append_json_path_result(out, request.from, request.to, std::get<PathResult>(answer));
        out += '}';
        return out;
    }
    case Opcode::k_nearest: {
        const auto& nearest = std::get<std::vector<NearTarget>>(answer);
        std::string out = "{\"op\":\"k_nearest\",\"from\":" + std::to_string(request.from) +
                          ",\"nearest\":[";
        for (std::size_t i = 0; i < nearest.size(); ++i) {
            if (i > 0) out += ',';
            out += "{\"node\":" + std::to_string(nearest[i].node) +
                   ",\"distance\":" + std::to_string(nearest[i].distance) + "}";
        }
        out += "]}";
        return out;
    }
    case Opcode::batch_distances: {
        const auto& distances = std::get<std::vector<Weight>>(answer);
        std::string out = "{\"op\":\"batch_distances\",\"results\":[";
        for (std::size_t i = 0; i < distances.size(); ++i) {
            if (i > 0) out += ',';
            out += std::to_string(is_finite(distances[i]) ? distances[i] : -1);
        }
        out += "]}";
        return out;
    }
    case Opcode::batch_paths: {
        const auto& paths = std::get<std::vector<PathResult>>(answer);
        std::string out = "{\"op\":\"batch_paths\",\"results\":[";
        for (std::size_t i = 0; i < paths.size(); ++i) {
            if (i > 0) out += ',';
            append_json_path_result(out, request.pairs[i].from, request.pairs[i].to, paths[i]);
        }
        out += "]}";
        return out;
    }
    case Opcode::stats: {
        const ServerStats& s = std::get<ServerStats>(answer);
        std::string out = "{\"op\":\"stats\"";
        out += ",\"connections_accepted\":" + std::to_string(s.connections_accepted);
        out += ",\"connections_rejected\":" + std::to_string(s.connections_rejected);
        out += ",\"active_connections\":" + std::to_string(s.active_connections);
        out += ",\"frames_served\":" + std::to_string(s.frames_served);
        out += ",\"errors\":" + std::to_string(s.errors);
        out += ",\"distance_queries\":" + std::to_string(s.distance_queries);
        out += ",\"path_queries\":" + std::to_string(s.path_queries);
        out += ",\"knearest_queries\":" + std::to_string(s.knearest_queries);
        out += ",\"batch_items\":" + std::to_string(s.batch_items);
        out += ",\"cache_hits\":" + std::to_string(s.cache_hits);
        out += ",\"cache_misses\":" + std::to_string(s.cache_misses);
        out += ",\"backpressure_pauses\":" + std::to_string(s.backpressure_pauses);
        out += ",\"build_total_rounds\":" + std::to_string(s.build_total_rounds);
        out += ",\"build_total_words\":" + std::to_string(s.build_total_words);
        out += ",\"source_kind\":\"" +
               std::string(source_kind_name(static_cast<SourceKind>(s.source_kind))) + "\"";
        out += ",\"stored_cells\":" + std::to_string(s.stored_cells);
        out += ",\"rows_materialized\":" + std::to_string(s.rows_materialized);
        out += ",\"node_count\":" + std::to_string(s.node_count);
        out += ",\"has_routing\":" + std::string(s.has_routing ? "true" : "false");
        out += "}";
        return out;
    }
    case Opcode::metrics:
        return "{\"op\":\"metrics\",\"content_type\":\"text/plain; version=0.0.4\",\"text\":\"" +
               json_escape(std::get<std::string>(answer)) + "\"}";
    case Opcode::flight: {
        const auto& records = std::get<std::vector<obs::RequestRecord>>(answer);
        std::string out = "{\"op\":\"flight\",\"records\":[";
        for (std::size_t i = 0; i < records.size(); ++i) {
            const obs::RequestRecord& r = records[i];
            if (i > 0) out += ',';
            char buf[320];
            std::snprintf(buf, sizeof buf,
                          "{\"seq\":%llu,\"trace_id\":\"0x%llx\",\"conn\":%llu,\"op\":\"%s\","
                          "\"status\":\"%s\",\"sampled\":%s,\"request_bytes\":%u,"
                          "\"reply_bytes\":%u,\"decode_us\":%u,\"queue_us\":%u,"
                          "\"execute_us\":%u,\"encode_us\":%u,\"flush_us\":%u}",
                          static_cast<unsigned long long>(r.seq),
                          static_cast<unsigned long long>(r.trace_id),
                          static_cast<unsigned long long>(r.conn_id),
                          op_metric_name(op_metric_index(static_cast<Opcode>(r.opcode))),
                          status_name(static_cast<Status>(r.status)),
                          r.sampled ? "true" : "false", r.request_bytes, r.reply_bytes,
                          r.decode_us, r.queue_us, r.execute_us, r.encode_us, r.flush_us);
            out += buf;
        }
        out += "]}";
        return out;
    }
    case Opcode::json: break;
    }
    throw request_rejected{Status::malformed, "unhandled opcode"};
}

ServerStats Server::stats() const
{
    ServerStats stats;
    stats.connections_accepted = connections_accepted_.load(std::memory_order_relaxed);
    stats.connections_rejected = connections_rejected_.load(std::memory_order_relaxed);
    stats.active_connections = active_connections_.load(std::memory_order_relaxed);
    stats.frames_served = frames_served_.load(std::memory_order_relaxed);
    stats.errors = errors_.load(std::memory_order_relaxed);
    stats.distance_queries = distance_queries_.load(std::memory_order_relaxed);
    stats.path_queries = path_queries_.load(std::memory_order_relaxed);
    stats.knearest_queries = knearest_queries_.load(std::memory_order_relaxed);
    stats.batch_items = batch_items_.load(std::memory_order_relaxed);
    stats.uptime_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - started_).count();
    stats.node_count = engine_->node_count();
    stats.has_routing = engine_->has_routing();
    stats.backpressure_pauses = backpressure_pauses_.load(std::memory_order_relaxed);
    stats.build_total_rounds = engine_->meta().total_rounds;
    stats.build_total_words = engine_->meta().total_words;
    const DistanceSource& source = engine_->source();
    stats.source_kind = static_cast<std::uint8_t>(source.kind());
    stats.stored_cells = source.stored_cells();
    stats.rows_materialized = source.rows_materialized();
    return stats;
}

} // namespace ccq
