// Client half of the serving protocol: a typed request/response API
// over any Stream, mirroring the QueryEngine surface one-to-one so
// callers (ccq_client, the closed-loop bench) can swap between
// in-process and over-the-wire serving without changing shape.
//
// A Client owns one connection.  The typed calls are sequential (one
// frame in flight); the pipelined_* batch entry points keep a bounded
// window of request frames in flight on the same connection and match
// replies in order — the server guarantees arrival-order responses, so
// no correlation ids are needed.  Every reply is read through one
// FrameReader, which may read ahead across pipelined replies.
// Server-reported failures throw rpc_error (carrying the status),
// transport failures throw net_error, and undecodable responses throw
// protocol_error.
#ifndef CCQ_NET_CLIENT_HPP
#define CCQ_NET_CLIENT_HPP

#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "ccq/net/protocol.hpp"
#include "ccq/net/socket.hpp"

namespace ccq {

class Client {
public:
    /// Wraps an already-connected stream (socketpair, stdio, ...).
    explicit Client(std::unique_ptr<Stream> stream);

    /// Connects over TCP ("localhost" or a numeric IPv4 address).
    [[nodiscard]] static Client connect(const std::string& host, int port);

    /// Liveness probe; returns the server's protocol version.
    std::uint32_t ping();

    [[nodiscard]] Weight distance(NodeId from, NodeId to);
    [[nodiscard]] PathResult path(NodeId from, NodeId to);
    [[nodiscard]] std::vector<NearTarget> nearest_targets(NodeId from, int k);
    [[nodiscard]] std::vector<Weight> batch_distances(std::span<const PointQuery> queries);
    [[nodiscard]] std::vector<PathResult> batch_paths(std::span<const PointQuery> queries);
    [[nodiscard]] ServerStats stats();

    /// Scrapes the server's metric registry: Prometheus text exposition.
    [[nodiscard]] std::string metrics();

    /// Dumps the server's flight recorder: the last N request records,
    /// oldest first.
    [[nodiscard]] std::vector<obs::RequestRecord> flight_records();

    /// Tag every subsequent request frame with a trace envelope: ids
    /// start at `first_id` and increment per request (pipelined frames
    /// included), `sampled` asks the server to record the span chain.
    void enable_trace_envelopes(std::uint64_t first_id, bool sampled = true) noexcept
    {
        trace_enabled_ = true;
        next_trace_id_ = first_id;
        trace_sampled_ = sampled;
    }
    void disable_trace_envelopes() noexcept { trace_enabled_ = false; }

    /// Trace id the next tagged request will carry (envelopes enabled).
    [[nodiscard]] std::uint64_t next_trace_id() const noexcept { return next_trace_id_; }

    /// Point-distance queries pipelined over this connection: up to
    /// `window` request frames in flight at once, replies consumed in
    /// order.  One round-trip per window instead of one per query.  On a
    /// non-ok reply the remaining in-flight replies are drained (the
    /// connection stays usable) and the first error is rethrown as
    /// rpc_error.
    [[nodiscard]] std::vector<Weight>
    pipelined_distances(std::span<const PointQuery> queries, int window = 32);

    /// Path reconstructions with the same pipelining discipline.
    [[nodiscard]] std::vector<PathResult>
    pipelined_paths(std::span<const PointQuery> queries, int window = 32);

    /// Asks the server to shut down gracefully; returns once acknowledged.
    /// Token-protected servers (ccq_served --shutdown-token) answer
    /// rpc_error(Status::forbidden) unless `token` matches.
    void shutdown_server(const std::string& token = {});

    /// JSON debug mode passthrough: sends `json` (must be one object) as
    /// a frame and returns the server's JSON reply verbatim.
    [[nodiscard]] std::string json_request(const std::string& json);

private:
    /// Sends one request frame and returns the ok payload of the reply.
    [[nodiscard]] std::string roundtrip(const Request& request);
    /// The encoded request body, wrapped in a trace envelope (and
    /// consuming one trace id) when envelopes are enabled.
    [[nodiscard]] std::string request_body(const Request& request);

    std::unique_ptr<Stream> stream_;
    FrameReader reader_; ///< reads ahead across pipelined replies
    bool trace_enabled_ = false;
    bool trace_sampled_ = true;
    std::uint64_t next_trace_id_ = 1;
};

/// A pool of ready connections to one server, for callers that issue
/// bursts of requests from many threads (the network bench, tools).
/// acquire() reuses an idle pooled connection or dials a new one; the
/// returned Lease gives the connection back on destruction — unless the
/// caller discard()s it after an error that may have desynced the
/// stream.  Thread-safe.
class ClientPool {
public:
    ClientPool(std::string host, int port, std::size_t max_idle = 16);

    /// RAII handle on a pooled connection.
    class Lease {
    public:
        Lease(ClientPool& pool, std::unique_ptr<Client> client) noexcept
            : pool_(&pool), client_(std::move(client))
        {
        }
        ~Lease();
        Lease(Lease&& other) noexcept = default;
        Lease& operator=(Lease&&) = delete;
        Lease(const Lease&) = delete;
        Lease& operator=(const Lease&) = delete;

        [[nodiscard]] Client& operator*() noexcept { return *client_; }
        [[nodiscard]] Client* operator->() noexcept { return client_.get(); }

        /// Drops the connection instead of pooling it (call after any
        /// net_error/protocol_error: the stream position is unknown).
        void discard() noexcept { client_.reset(); }

    private:
        ClientPool* pool_;
        std::unique_ptr<Client> client_;
    };

    /// An idle pooled connection, or a freshly dialed one (may throw
    /// net_error like Client::connect).
    [[nodiscard]] Lease acquire();

    /// Connections currently parked in the pool.
    [[nodiscard]] std::size_t idle_count() const;

private:
    void give_back(std::unique_ptr<Client> client) noexcept;

    std::string host_;
    int port_;
    std::size_t max_idle_;
    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<Client>> idle_;
};

} // namespace ccq

#endif // CCQ_NET_CLIENT_HPP
