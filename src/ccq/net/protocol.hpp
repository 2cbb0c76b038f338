// Wire protocol of the serving subsystem: length-prefixed frames
// carrying binary request/response bodies, with a JSON debug mode.
//
// Every message is one frame:
//
//   length  u32 little-endian   body byte count (<= kMaxFrameBytes)
//   body    length bytes
//
// A request body is an opcode byte followed by its operands; a response
// body is a status byte followed by either the op-specific payload
// (status ok) or an error message string.  A request body whose first
// byte is '{' is the JSON debug mode: the body is a flat JSON object
// ({"op":"distance","from":0,"to":5}) and the response body is JSON
// text.  docs/PROTOCOL.md is the authoritative spec.
//
// This header is transport-free: encoding/decoding works on byte
// strings, framing works on any net/socket.hpp Stream.  Malformed bytes
// throw protocol_error; a server-reported error status surfaces in the
// client as rpc_error.
#ifndef CCQ_NET_PROTOCOL_HPP
#define CCQ_NET_PROTOCOL_HPP

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "ccq/net/socket.hpp"
#include "ccq/obs/flight.hpp"
#include "ccq/serve/query_engine.hpp"

namespace ccq {

/// Thrown on malformed or oversized protocol bytes.
class protocol_error : public std::runtime_error {
public:
    explicit protocol_error(const std::string& what_arg) : std::runtime_error(what_arg) {}
};

inline constexpr std::uint32_t kProtocolVersion = 1;

/// Frames larger than this are rejected unread: a garbage length prefix
/// must not turn into a giant allocation.
inline constexpr std::uint32_t kMaxFrameBytes = 64u << 20;

enum class Opcode : std::uint8_t {
    ping = 0x01,            ///< liveness + protocol version
    distance = 0x02,        ///< point distance estimate
    path = 0x03,            ///< full path reconstruction
    k_nearest = 0x04,       ///< k nearest reachable targets
    batch_distances = 0x05, ///< vector of point distances
    batch_paths = 0x06,     ///< vector of path reconstructions
    stats = 0x10,           ///< server + source counters
    metrics = 0x11,         ///< Prometheus text-exposition scrape
    flight = 0x12,          ///< flight-recorder dump (debug)
    shutdown = 0x1f,        ///< graceful server shutdown (control frame)
    json = 0x7b,            ///< '{': body is a JSON debug request
};

/// Number of distinct metric slots for per-opcode accounting: every
/// real opcode plus one trailing "invalid" slot for undecodable
/// frames.
inline constexpr std::size_t kOpMetricCount = 11;
inline constexpr std::size_t kInvalidOpMetric = kOpMetricCount - 1;

/// Dense 0-based index of an opcode for per-op metric arrays.
[[nodiscard]] std::size_t op_metric_index(Opcode op) noexcept;

/// Stable lowercase label for per-op metrics; index kInvalidOpMetric
/// renders as "invalid".
[[nodiscard]] const char* op_metric_name(std::size_t index) noexcept;

enum class Status : std::uint8_t {
    ok = 0,
    malformed = 1,     ///< undecodable or unknown request
    out_of_range = 2,  ///< node id / k outside the snapshot
    unsupported = 3,   ///< e.g. path query against a snapshot without routing
    shutting_down = 4, ///< request raced a graceful shutdown
    internal = 5,      ///< unexpected server-side failure
    forbidden = 6,     ///< control frame without the required auth token
    busy = 7,          ///< connection shed by the --max-connections guard
};

[[nodiscard]] const char* status_name(Status status);

/// Thrown by the Client when the server answers with a non-ok status.
class rpc_error : public std::runtime_error {
public:
    rpc_error(Status status, const std::string& message)
        : std::runtime_error(std::string(status_name(status)) + ": " + message),
          status_(status)
    {
    }
    [[nodiscard]] Status status() const noexcept { return status_; }

private:
    Status status_;
};

/// A decoded request (the union of every op's operands).
struct Request {
    Opcode op = Opcode::ping;
    NodeId from = 0;
    NodeId to = 0;
    int k = 0;
    std::vector<PointQuery> pairs; ///< batch ops
    std::string token;             ///< shutdown auth token (may be empty)
    bool json = false;             ///< arrived via the JSON debug mode
};

/// Counters reported by the stats op.
struct ServerStats {
    std::uint64_t connections_accepted = 0;
    std::uint64_t connections_rejected = 0; ///< shed by --max-connections (busy)
    std::uint64_t active_connections = 0;
    std::uint64_t frames_served = 0;   ///< ok responses
    std::uint64_t errors = 0;          ///< non-ok responses
    std::uint64_t distance_queries = 0;
    std::uint64_t path_queries = 0;
    std::uint64_t knearest_queries = 0;
    std::uint64_t batch_items = 0;     ///< individual queries inside batches
    // Reserved, always 0: the retired path cache's counters keep their
    // wire slots so the reply's length and layout stay fixed.
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    double uptime_seconds = 0.0;
    std::int32_t node_count = 0;
    bool has_routing = false;
    // --- stats v2 fields (PR 6).  Encoded after has_routing; a v1
    // server's reply simply ends early and decoders leave the defaults.
    std::uint64_t backpressure_pauses = 0; ///< output-cap read pauses
    double build_total_rounds = 0.0;       ///< snapshot RoundLedger summary
    std::uint64_t build_total_words = 0;   ///< ditto, machine words sent
    // --- stats v3 fields (sparse serving).  Same nesting rule: a
    // pre-v3 server's reply ends at build_total_words and decoders
    // leave these defaults (a dense source materializes zero rows).
    std::uint8_t source_kind = 0;        ///< ccq::SourceKind on the wire
    std::uint64_t stored_cells = 0;      ///< n^2 dense; edge count sparse
    std::uint64_t rows_materialized = 0; ///< rows computed on demand (sparse)

    friend bool operator==(const ServerStats&, const ServerStats&) = default;
};

// --- framing ----------------------------------------------------------------

void write_frame(Stream& stream, std::string_view body);

/// Reads one frame body; std::nullopt on clean EOF at a frame boundary.
[[nodiscard]] std::optional<std::string> read_frame(Stream& stream);

/// One frame (length prefix + body) as a byte string, for writers that
/// batch several frames into one send (the event loop, pipelined clients).
[[nodiscard]] std::string encode_frame(std::string_view body);

/// Incremental frame reassembly for nonblocking transports: feed() the
/// bytes each readiness event delivers (a frame may arrive across many
/// events, or many frames in one event) and pop complete bodies with
/// next().  An oversized length prefix throws protocol_error as soon as
/// the prefix itself is readable — the body is never buffered.
class FrameDecoder {
public:
    /// Appends raw stream bytes to the reassembly buffer.
    void feed(std::string_view bytes);

    /// Pops the next complete frame body, or std::nullopt if more bytes
    /// are needed.  Throws protocol_error on an oversized length prefix.
    [[nodiscard]] std::optional<std::string> next();

    /// Bytes buffered but not yet returned by next().
    [[nodiscard]] std::size_t buffered_bytes() const noexcept
    {
        return buffer_.size() - pos_;
    }

    /// True when EOF now would cut a frame in half (partial bytes pending).
    [[nodiscard]] bool mid_frame() const noexcept { return buffered_bytes() > 0; }

private:
    std::string buffer_;
    std::size_t pos_ = 0; ///< consumed prefix of buffer_ (compacted lazily)
};

// --- trace envelope ---------------------------------------------------------
//
// A request body may be prefixed with an optional trace envelope:
//
//   marker    u8   0x1e (never a valid opcode or '{')
//   trace_id  u64  little-endian, caller-chosen correlation id
//   flags     u8   bit 0: sampled (record spans server-side)
//
// followed by the ordinary request body.  Untagged bodies are the
// pre-envelope wire shape, so old clients keep working; an old server
// that receives a tagged frame rejects it as an unknown opcode (a
// malformed-status reply) without tearing the connection down —
// detectable version skew, same as the shutdown-token precedent.

inline constexpr std::uint8_t kTraceEnvelopeMarker = 0x1e;

struct TraceContext {
    std::uint64_t trace_id = 0;
    bool sampled = false;

    friend bool operator==(const TraceContext&, const TraceContext&) = default;
};

/// Prefix `body` with a trace envelope.
[[nodiscard]] std::string wrap_trace_envelope(const TraceContext& context,
                                              std::string_view body);

/// If `body` starts with an envelope, strips it (advancing `body` to
/// the inner request) and returns the context; returns std::nullopt
/// and leaves `body` untouched for untagged bodies.  A marker byte
/// with a truncated envelope throws protocol_error.
[[nodiscard]] std::optional<TraceContext> split_trace_envelope(std::string_view& body);

// --- request bodies ---------------------------------------------------------

[[nodiscard]] std::string encode_request(const Request& request);
[[nodiscard]] Request decode_request(std::string_view body); ///< throws protocol_error

// --- response bodies --------------------------------------------------------

[[nodiscard]] std::string encode_error_reply(Status status, std::string_view message);
[[nodiscard]] std::string encode_ok_reply(); ///< bare ok (shutdown acknowledgement)
[[nodiscard]] std::string encode_ping_reply();
[[nodiscard]] std::string encode_distance_reply(Weight distance);
[[nodiscard]] std::string encode_path_reply(const PathResult& path);
[[nodiscard]] std::string encode_nearest_reply(std::span<const NearTarget> targets);
[[nodiscard]] std::string encode_batch_distances_reply(std::span<const Weight> distances);
[[nodiscard]] std::string encode_batch_paths_reply(std::span<const PathResult> paths);
[[nodiscard]] std::string encode_stats_reply(const ServerStats& stats);
[[nodiscard]] std::string encode_metrics_reply(std::string_view text);
[[nodiscard]] std::string encode_flight_reply(std::span<const obs::RequestRecord> records);

/// Splits a response body into (status, rest).  The rest is the ok
/// payload, or the error message for non-ok statuses.
[[nodiscard]] std::pair<Status, std::string_view> split_reply(std::string_view body);

[[nodiscard]] std::uint32_t decode_ping_reply(std::string_view payload);
[[nodiscard]] Weight decode_distance_reply(std::string_view payload);
[[nodiscard]] PathResult decode_path_reply(std::string_view payload);
[[nodiscard]] std::vector<NearTarget> decode_nearest_reply(std::string_view payload);
[[nodiscard]] std::vector<Weight> decode_batch_distances_reply(std::string_view payload);
[[nodiscard]] std::vector<PathResult> decode_batch_paths_reply(std::string_view payload);
[[nodiscard]] ServerStats decode_stats_reply(std::string_view payload);
[[nodiscard]] std::string decode_metrics_reply(std::string_view payload);
[[nodiscard]] std::vector<obs::RequestRecord> decode_flight_reply(std::string_view payload);

// --- JSON debug mode --------------------------------------------------------

/// Parses a flat JSON request object ({"op":"distance","from":0,"to":5};
/// batches use "pairs":[[u,v],...]).  Throws protocol_error.
[[nodiscard]] Request parse_json_request(std::string_view body);

/// Minimal JSON string escaping for untrusted text in rendered replies.
[[nodiscard]] std::string json_escape(std::string_view text);

} // namespace ccq

#endif // CCQ_NET_PROTOCOL_HPP
