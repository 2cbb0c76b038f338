// The serving front-end: a framed-protocol server over the QueryEngine.
//
// One Server multiplexes any number of client connections onto a single
// immutable QueryEngine (whose own batch entry points fan out on the
// shared ccq::ThreadPool).  run() starts `ServerConfig::workers` epoll
// event loops (net/epoll_server.hpp) that share the listening socket;
// accepted connections are dealt out over the loops round-robin, and
// each loop answers its own connections' requests inline, so no request
// ever crosses a thread.  The engine's concurrency
// guarantees make the loops safe without any per-query locking in this
// layer.  A connection can also be served inline from any Stream — that
// is the stdin/stdout mode of ccq_served.  Linux is the one platform.
//
// Shutdown is graceful and can come from three places: a shutdown
// control frame on any connection, request_stop() (signal-handler safe),
// or destroying the Server.  In every case the listener closes first,
// queued replies flush, blocked reads are interrupted, and run() joins
// every loop before returning.
#ifndef CCQ_NET_SERVER_HPP
#define CCQ_NET_SERVER_HPP

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "ccq/net/protocol.hpp"
#include "ccq/net/socket.hpp"
#include "ccq/obs/flight.hpp"
#include "ccq/obs/metrics.hpp"
#include "ccq/serve/query_engine.hpp"

namespace ccq {

class EpollLoop;

/// Per-request identity + stage timestamps, carried from frame arrival
/// to the flushed reply and then committed to the flight recorder (and,
/// for sampled requests, rendered as a span chain in the trace).  The
/// caller fills conn_id/enqueued before process_frame and the encode/
/// flush marks after; process_frame fills everything in between.
struct PendingRequest {
    obs::RequestRecord rec;
    std::chrono::steady_clock::time_point enqueued{};     ///< frame complete
    std::chrono::steady_clock::time_point decode_start{}; ///< process_frame entry
    std::chrono::steady_clock::time_point decode_end{};
    std::chrono::steady_clock::time_point execute_end{};
    std::chrono::steady_clock::time_point encode_start{};
    std::chrono::steady_clock::time_point encode_end{};
};

struct ServerConfig {
    std::string host = "127.0.0.1";
    int port = 0; ///< 0 picks an ephemeral port (see Server::port())
    /// When non-empty, a `shutdown` control frame must carry exactly
    /// this token; a missing or wrong token answers `forbidden` and the
    /// server keeps serving.  Empty keeps the historical open-shutdown
    /// behavior (fine for stdio/loopback embeddings, not for shared
    /// ports — see docs/PROTOCOL.md).
    std::string shutdown_token;
    /// Load shedding: beyond this many concurrent connections a new
    /// connection is answered with one `busy` error frame and closed.
    /// 0 = unlimited.
    int max_connections = 0;
    /// Event loops run() starts, one thread each (0 = one per hardware
    /// thread).  A loop answers its connections' requests itself.
    int workers = 0;
    /// Backpressure: once this many response bytes are queued toward a
    /// slow reader, the connection stops being read and answered until
    /// the queue drains below half.
    std::size_t max_output_bytes = 4u << 20;
    /// Per-request metric recording (per-op counters, latency
    /// histograms, byte counters).  The `metrics` scrape op always
    /// answers; disabling only stops the hot-path recording
    /// (ccq_served --no-metrics, and the bench overhead A/B).
    bool metrics = true;
    /// Flight-recorder depth: the last this-many requests stay
    /// queryable via the `flight` op.  Rounded up to a power of two.
    /// The recorder is always on (its cost is a handful of relaxed
    /// stores), so --no-metrics servers still answer `flight`.
    std::size_t flight_records = 256;
    /// When > 0, a request whose stage breakdown sums to at least this
    /// many microseconds emits one structured warn log line.
    std::int64_t slow_query_us = 0;
};

class Server {
public:
    explicit Server(std::shared_ptr<const QueryEngine> engine, ServerConfig config = {});
    ~Server(); ///< request_stop() + join (safe if run() already returned)
    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;

    /// Binds the listening socket; returns the bound port.
    int listen();

    /// The bound port; valid after listen().
    [[nodiscard]] int port() const;

    /// Runs the event loops until a shutdown frame or request_stop(),
    /// then drains them.  Call listen() first.
    void run();

    /// Serves one connection inline until EOF or shutdown (stdio mode).
    void serve_stream(Stream& stream);

    /// Initiates shutdown from any thread or a signal handler: only
    /// touches atomics and shutdown(2).  run() performs the actual drain.
    void request_stop() noexcept;

    [[nodiscard]] bool stopping() const noexcept
    {
        return stop_.load(std::memory_order_acquire);
    }

    [[nodiscard]] ServerStats stats() const;

    /// Times a connection's queued replies reached max_output_bytes and
    /// its reads paused for backpressure.  Also on the wire since stats v2.
    [[nodiscard]] std::uint64_t backpressure_pauses() const noexcept
    {
        return backpressure_pauses_.load(std::memory_order_relaxed);
    }

    /// The Prometheus text exposition served by the `metrics` op; also
    /// callable in-process (tests, an embedding's own scrape endpoint).
    [[nodiscard]] std::string metrics_text() const { return registry_.render(); }

    /// The server's metric registry, for embeddings that want to attach
    /// their own counters or collectors to the same scrape.
    [[nodiscard]] obs::Registry& metrics_registry() noexcept { return registry_; }

private:
    friend class EpollLoop;

    /// What answer() computed, before an encoder renders it: the ping/
    /// shutdown acknowledgement, a distance, a path, k-nearest targets,
    /// batch distances, batch paths, stats, scrape text or flight records.
    struct Ack {};
    using Answer = std::variant<Ack, Weight, PathResult, std::vector<NearTarget>,
                                std::vector<Weight>, std::vector<PathResult>, ServerStats,
                                std::string, std::vector<obs::RequestRecord>>;

    /// One request/response exchange; returns false when the connection
    /// should close (EOF or shutdown frame).
    bool serve_one(FrameReader& reader, std::uint64_t conn_id);
    /// The whole request pipeline for one intact frame body: strip the
    /// optional trace envelope, decode, validate, dispatch, render —
    /// shared by the event loops and serve_stream, so the two cannot
    /// diverge byte-wise.  Sets `shutdown_now` when the frame
    /// was an authorized shutdown whose ok acknowledgement is the
    /// returned reply.  When `pending` is given, its record and
    /// decode/execute timestamps are filled in.
    [[nodiscard]] std::string process_frame(const std::string& body, bool& shutdown_now,
                                            PendingRequest* pending = nullptr);
    /// Final per-request bookkeeping once the reply bytes reached the
    /// socket: derive the stage breakdown, push the record into the
    /// flight recorder, emit the span chain for sampled requests, and
    /// fire the --slow-query-us log line when the total crosses it.
    void commit_request(PendingRequest& pending,
                        std::chrono::steady_clock::time_point flush_end);
    /// Sheds one over-limit connection: best-effort busy frame + close.
    void shed_connection(TcpStream& stream);
    /// The one typed dispatch: validates a decoded request, counts it
    /// and runs it on the engine.  Throws request_rejected (server.cpp)
    /// for a typed error reply.
    [[nodiscard]] Answer answer(const Request& request);
    /// The two renderings of an ok answer: the binary reply body, and
    /// the JSON debug mode's reply text.
    [[nodiscard]] static std::string render_binary(const Request& request, const Answer& answer);
    [[nodiscard]] static std::string render_json(const Request& request, const Answer& answer);

    // --- observability hooks ------------------------------------------
    void init_metrics();
    /// Per-request accounting called from process_frame.
    void record_request(std::size_t op_index, bool ok, std::int64_t latency_us) noexcept;
    void note_conn_opened(std::uint64_t conn_id);
    void note_conn_closed(std::uint64_t conn_id);
    void note_conn_shed();
    /// A connection that desynced the framing (or hit a transport
    /// error) and was dropped.
    void note_conn_poisoned(std::uint64_t conn_id, const char* reason);
    void add_bytes_read(std::uint64_t n) noexcept;
    void add_bytes_written(std::uint64_t n) noexcept;

    std::shared_ptr<const QueryEngine> engine_;
    ServerConfig config_;
    std::optional<TcpListener> listener_;
    std::atomic<bool> stop_{false};
    /// The event loops' stop eventfd; request_stop() writes it
    /// (async-signal-safe) and it stays readable from then on, so every
    /// loop's epoll_wait wakes.  Created lazily by run(), owned by the
    /// Server, and closed only in ~Server — never while the loops wind
    /// down — so a concurrent request_stop() can never write a closed
    /// (or reused) fd.
    std::atomic<int> loop_wakeup_fd_{-1};
    /// The event loops, set by run() before any of them starts and
    /// cleared once all have joined; accepted connections are dealt
    /// out over them.
    std::vector<EpollLoop*> loops_;

    std::mutex streams_mutex_;
    std::vector<Stream*> active_streams_; ///< serve_stream's, for ~Server

    std::chrono::steady_clock::time_point started_ = std::chrono::steady_clock::now();
    std::atomic<std::uint64_t> connections_accepted_{0};
    std::atomic<std::uint64_t> connections_rejected_{0};
    std::atomic<std::uint64_t> backpressure_pauses_{0};
    std::atomic<std::uint64_t> active_connections_{0};
    std::atomic<std::uint64_t> frames_served_{0};
    std::atomic<std::uint64_t> errors_{0};
    std::atomic<std::uint64_t> distance_queries_{0};
    std::atomic<std::uint64_t> path_queries_{0};
    std::atomic<std::uint64_t> knearest_queries_{0};
    std::atomic<std::uint64_t> batch_items_{0};

    /// Per-opcode registry handles (index = op_metric_index).
    struct OpMetrics {
        obs::Counter* ok = nullptr;
        obs::Counter* error = nullptr;
        obs::Histogram* latency_us = nullptr;
        /// Same latency stream, additionally labeled with the engine's
        /// source kind so dashboards can split dense vs spanner serving.
        obs::Histogram* source_latency_us = nullptr;
    };

    obs::Registry registry_;
    obs::FlightRecorder flight_;
    OpMetrics op_metrics_[kOpMetricCount] = {};
    obs::Counter* bytes_read_ = nullptr;
    obs::Counter* bytes_written_ = nullptr;
    obs::Counter* conns_opened_ = nullptr;
    obs::Counter* conns_closed_ = nullptr;
    obs::Counter* conns_shed_ = nullptr;
    obs::Counter* conns_poisoned_ = nullptr;
};

} // namespace ccq

#endif // CCQ_NET_SERVER_HPP
