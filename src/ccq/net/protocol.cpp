#include "ccq/net/protocol.hpp"

#include <cctype>
#include <cstdio>
#include <limits>
#include <utility>

#include "ccq/common/bytes.hpp"

namespace ccq {
namespace {

/// Wraps ByteReader truncation errors with protocol context.
template <class Fn>
[[nodiscard]] auto decoding(const char* what, Fn&& fn) -> decltype(fn())
{
    try {
        return fn();
    } catch (const decode_error& error) {
        throw protocol_error(std::string(what) + ": " + error.what());
    }
}

void put_point_query(std::string& out, const PointQuery& q)
{
    put_i32(out, q.from);
    put_i32(out, q.to);
}

void put_path_result(std::string& out, const PathResult& path)
{
    put_u8(out, path.reachable ? 1 : 0);
    put_i64(out, path.distance);
    put_u32(out, static_cast<std::uint32_t>(path.nodes.size()));
    for (const NodeId v : path.nodes) put_i32(out, v);
}

[[nodiscard]] PathResult read_path_result(ByteReader& reader)
{
    PathResult path;
    const std::uint8_t reachable = reader.u8();
    if (reachable > 1) throw protocol_error("path reply: malformed reachable flag");
    path.reachable = reachable == 1;
    path.distance = reader.i64();
    const std::uint32_t count = reader.u32();
    // Each node costs 4 bytes: prove they exist before allocating.
    if (count > reader.remaining() / 4)
        throw protocol_error("path reply: node count exceeds frame");
    path.nodes.resize(count);
    for (NodeId& v : path.nodes) v = reader.i32();
    return path;
}

} // namespace

std::size_t op_metric_index(Opcode op) noexcept
{
    switch (op) {
    case Opcode::ping: return 0;
    case Opcode::distance: return 1;
    case Opcode::path: return 2;
    case Opcode::k_nearest: return 3;
    case Opcode::batch_distances: return 4;
    case Opcode::batch_paths: return 5;
    case Opcode::stats: return 6;
    case Opcode::metrics: return 7;
    case Opcode::shutdown: return 8;
    case Opcode::flight: return 9;
    case Opcode::json: break; // JSON bodies resolve to a real op before accounting
    }
    return kInvalidOpMetric;
}

const char* op_metric_name(std::size_t index) noexcept
{
    static constexpr const char* kNames[kOpMetricCount] = {
        "ping",        "distance", "path",    "k_nearest", "batch_distances",
        "batch_paths", "stats",    "metrics", "shutdown",  "flight",
        "invalid",
    };
    return index < kOpMetricCount ? kNames[index] : "invalid";
}

const char* status_name(Status status)
{
    switch (status) {
    case Status::ok: return "ok";
    case Status::malformed: return "malformed";
    case Status::out_of_range: return "out_of_range";
    case Status::unsupported: return "unsupported";
    case Status::shutting_down: return "shutting_down";
    case Status::internal: return "internal";
    case Status::forbidden: return "forbidden";
    case Status::busy: return "busy";
    }
    return "unknown";
}

// --- framing ----------------------------------------------------------------

std::string encode_frame(std::string_view body)
{
    if (body.size() > kMaxFrameBytes) throw protocol_error("encode_frame: body too large");
    std::string frame;
    frame.reserve(4 + body.size());
    put_u32(frame, static_cast<std::uint32_t>(body.size()));
    frame.append(body);
    return frame;
}

void write_frame(Stream& stream, std::string_view body)
{
    // One write per frame keeps concurrent writers (none today, but the
    // Stream contract allows them) from interleaving header and body.
    const std::string frame = encode_frame(body);
    stream.write_all(frame.data(), frame.size());
}

void FrameDecoder::feed(std::string_view bytes)
{
    // Compact before growing: once everything buffered has been consumed
    // (the steady state between frames) the buffer restarts from zero, so
    // a long-lived connection never accumulates dead prefix bytes.
    if (pos_ == buffer_.size()) {
        buffer_.clear();
        pos_ = 0;
    } else if (pos_ >= 64 * 1024) {
        buffer_.erase(0, pos_);
        pos_ = 0;
    }
    buffer_.append(bytes);
}

std::optional<std::string> FrameDecoder::next()
{
    if (buffer_.size() - pos_ < 4) return std::nullopt;
    std::uint32_t length = 0;
    for (int i = 0; i < 4; ++i)
        length |= static_cast<std::uint32_t>(
                      static_cast<unsigned char>(buffer_[pos_ + static_cast<std::size_t>(i)]))
                  << (8 * i);
    if (length > kMaxFrameBytes)
        throw protocol_error("frame of " + std::to_string(length) + " bytes exceeds the " +
                             std::to_string(kMaxFrameBytes) + "-byte limit");
    if (buffer_.size() - pos_ - 4 < length) return std::nullopt;
    std::string body = buffer_.substr(pos_ + 4, length);
    pos_ += 4 + static_cast<std::size_t>(length);
    return body;
}

std::optional<std::string> FrameReader::next()
{
    while (true) {
        if (std::optional<std::string> body = decoder_.next()) return body;
        char chunk[kFrameReadChunk];
        const std::size_t got = stream_->read_some(chunk, sizeof(chunk));
        if (got == 0) {
            if (decoder_.mid_frame()) throw net_error("connection closed mid-message");
            return std::nullopt; // clean EOF at a frame boundary
        }
        decoder_.feed(std::string_view(chunk, got));
    }
}

// --- trace envelope ---------------------------------------------------------

std::string wrap_trace_envelope(const TraceContext& context, std::string_view body)
{
    std::string out;
    out.reserve(10 + body.size());
    put_u8(out, kTraceEnvelopeMarker);
    put_u64(out, context.trace_id);
    put_u8(out, context.sampled ? 1 : 0);
    out.append(body);
    return out;
}

std::optional<TraceContext> split_trace_envelope(std::string_view& body)
{
    if (body.empty() || static_cast<std::uint8_t>(body.front()) != kTraceEnvelopeMarker)
        return std::nullopt;
    return decoding("trace envelope", [&]() -> std::optional<TraceContext> {
        ByteReader reader(body);
        (void)reader.u8(); // marker
        TraceContext context;
        context.trace_id = reader.u64();
        const std::uint8_t flags = reader.u8();
        if ((flags & ~std::uint8_t{1}) != 0)
            throw protocol_error("trace envelope: unknown flag bits");
        context.sampled = (flags & 1) != 0;
        body.remove_prefix(10);
        return context;
    });
}

// --- request bodies ---------------------------------------------------------

std::string encode_request(const Request& request)
{
    std::string body;
    put_u8(body, static_cast<std::uint8_t>(request.op));
    switch (request.op) {
    case Opcode::ping:
    case Opcode::stats:
    case Opcode::metrics:
    case Opcode::flight: break;
    case Opcode::shutdown:
        // Token operand, omitted entirely when empty so unauthenticated
        // frames keep the pre-token wire shape (old servers reject a
        // token-bearing frame as trailing bytes, which is the correct
        // failure for version skew).
        if (!request.token.empty()) put_string(body, request.token);
        break;
    case Opcode::distance:
    case Opcode::path:
        put_i32(body, request.from);
        put_i32(body, request.to);
        break;
    case Opcode::k_nearest:
        put_i32(body, request.from);
        put_i32(body, request.k);
        break;
    case Opcode::batch_distances:
    case Opcode::batch_paths:
        put_u32(body, static_cast<std::uint32_t>(request.pairs.size()));
        for (const PointQuery& q : request.pairs) put_point_query(body, q);
        break;
    case Opcode::json: throw protocol_error("encode_request: use the JSON text directly");
    }
    return body;
}

Request decode_request(std::string_view body)
{
    return decoding("request", [&] {
        if (!body.empty() && body.front() == '{') return parse_json_request(body);
        ByteReader reader(body);
        Request request;
        const std::uint8_t op = reader.u8();
        switch (static_cast<Opcode>(op)) {
        case Opcode::ping:
        case Opcode::stats:
        case Opcode::metrics:
        case Opcode::flight: break;
        case Opcode::shutdown:
            if (!reader.exhausted()) request.token = reader.str();
            break;
        case Opcode::distance:
        case Opcode::path:
            request.from = reader.i32();
            request.to = reader.i32();
            break;
        case Opcode::k_nearest:
            request.from = reader.i32();
            request.k = reader.i32();
            break;
        case Opcode::batch_distances:
        case Opcode::batch_paths: {
            const std::uint32_t count = reader.u32();
            if (count > reader.remaining() / 8)
                throw protocol_error("batch request: pair count exceeds frame");
            request.pairs.resize(count);
            for (PointQuery& q : request.pairs) {
                q.from = reader.i32();
                q.to = reader.i32();
            }
            break;
        }
        case Opcode::json: // '{' is handled above; a bare 0x7b opcode is bogus
        default:
            throw protocol_error("unknown opcode " + std::to_string(op));
        }
        request.op = static_cast<Opcode>(op);
        if (!reader.exhausted()) throw protocol_error("request has trailing bytes");
        return request;
    });
}

// --- response bodies --------------------------------------------------------

std::string encode_error_reply(Status status, std::string_view message)
{
    CCQ_EXPECT(status != Status::ok, "encode_error_reply: ok is not an error");
    std::string body;
    put_u8(body, static_cast<std::uint8_t>(status));
    put_string(body, message);
    return body;
}

namespace {
[[nodiscard]] std::string ok_body()
{
    std::string body;
    put_u8(body, static_cast<std::uint8_t>(Status::ok));
    return body;
}
} // namespace

std::string encode_ok_reply() { return ok_body(); }

std::string encode_ping_reply()
{
    std::string body = ok_body();
    put_u32(body, kProtocolVersion);
    return body;
}

std::string encode_distance_reply(Weight distance)
{
    std::string body = ok_body();
    put_i64(body, distance);
    return body;
}

std::string encode_path_reply(const PathResult& path)
{
    std::string body = ok_body();
    put_path_result(body, path);
    return body;
}

std::string encode_nearest_reply(std::span<const NearTarget> targets)
{
    std::string body = ok_body();
    put_u32(body, static_cast<std::uint32_t>(targets.size()));
    for (const NearTarget& t : targets) {
        put_i32(body, t.node);
        put_i64(body, t.distance);
    }
    return body;
}

std::string encode_batch_distances_reply(std::span<const Weight> distances)
{
    std::string body = ok_body();
    put_u32(body, static_cast<std::uint32_t>(distances.size()));
    for (const Weight d : distances) put_i64(body, d);
    return body;
}

std::string encode_batch_paths_reply(std::span<const PathResult> paths)
{
    std::string body = ok_body();
    put_u32(body, static_cast<std::uint32_t>(paths.size()));
    for (const PathResult& p : paths) put_path_result(body, p);
    return body;
}

std::string encode_stats_reply(const ServerStats& stats)
{
    std::string body = ok_body();
    put_u64(body, stats.connections_accepted);
    put_u64(body, stats.connections_rejected);
    put_u64(body, stats.active_connections);
    put_u64(body, stats.frames_served);
    put_u64(body, stats.errors);
    put_u64(body, stats.distance_queries);
    put_u64(body, stats.path_queries);
    put_u64(body, stats.knearest_queries);
    put_u64(body, stats.batch_items);
    put_u64(body, stats.cache_hits);
    put_u64(body, stats.cache_misses);
    put_f64(body, stats.uptime_seconds);
    put_i32(body, stats.node_count);
    put_u8(body, stats.has_routing ? 1 : 0);
    // stats v2 trailer (decoders accept replies that stop above).
    put_u64(body, stats.backpressure_pauses);
    put_f64(body, stats.build_total_rounds);
    put_u64(body, stats.build_total_words);
    // stats v3 trailer: the serving source's identity and row work.
    put_u8(body, stats.source_kind);
    put_u64(body, stats.stored_cells);
    put_u64(body, stats.rows_materialized);
    return body;
}

std::string encode_metrics_reply(std::string_view text)
{
    // The payload is the raw UTF-8 exposition text: the frame length
    // already delimits it, so no string prefix is needed.
    std::string body = ok_body();
    body.append(text);
    return body;
}

std::string encode_flight_reply(std::span<const obs::RequestRecord> records)
{
    std::string body = ok_body();
    put_u32(body, static_cast<std::uint32_t>(records.size()));
    for (const obs::RequestRecord& rec : records) {
        put_u64(body, rec.seq);
        put_u64(body, rec.trace_id);
        put_u64(body, rec.conn_id);
        put_u8(body, rec.opcode);
        put_u8(body, rec.status);
        put_u8(body, rec.sampled ? 1 : 0);
        put_u32(body, rec.request_bytes);
        put_u32(body, rec.reply_bytes);
        put_u32(body, rec.decode_us);
        put_u32(body, rec.queue_us);
        put_u32(body, rec.execute_us);
        put_u32(body, rec.encode_us);
        put_u32(body, rec.flush_us);
    }
    return body;
}

std::pair<Status, std::string_view> split_reply(std::string_view body)
{
    if (body.empty()) throw protocol_error("empty response body");
    const std::uint8_t status = static_cast<std::uint8_t>(body.front());
    if (status > static_cast<std::uint8_t>(Status::busy))
        throw protocol_error("unknown response status " + std::to_string(status));
    return {static_cast<Status>(status), body.substr(1)};
}

std::uint32_t decode_ping_reply(std::string_view payload)
{
    return decoding("ping reply", [&] {
        ByteReader reader(payload);
        const std::uint32_t version = reader.u32();
        if (!reader.exhausted()) throw protocol_error("ping reply has trailing bytes");
        return version;
    });
}

Weight decode_distance_reply(std::string_view payload)
{
    return decoding("distance reply", [&] {
        ByteReader reader(payload);
        const Weight distance = reader.i64();
        if (!reader.exhausted()) throw protocol_error("distance reply has trailing bytes");
        return distance;
    });
}

PathResult decode_path_reply(std::string_view payload)
{
    return decoding("path reply", [&] {
        ByteReader reader(payload);
        PathResult path = read_path_result(reader);
        if (!reader.exhausted()) throw protocol_error("path reply has trailing bytes");
        return path;
    });
}

std::vector<NearTarget> decode_nearest_reply(std::string_view payload)
{
    return decoding("k-nearest reply", [&] {
        ByteReader reader(payload);
        const std::uint32_t count = reader.u32();
        if (count > reader.remaining() / 12)
            throw protocol_error("k-nearest reply: count exceeds frame");
        std::vector<NearTarget> targets(count);
        for (NearTarget& t : targets) {
            t.node = reader.i32();
            t.distance = reader.i64();
        }
        if (!reader.exhausted()) throw protocol_error("k-nearest reply has trailing bytes");
        return targets;
    });
}

std::vector<Weight> decode_batch_distances_reply(std::string_view payload)
{
    return decoding("batch distances reply", [&] {
        ByteReader reader(payload);
        const std::uint32_t count = reader.u32();
        if (count > reader.remaining() / 8)
            throw protocol_error("batch distances reply: count exceeds frame");
        std::vector<Weight> distances(count);
        for (Weight& d : distances) d = reader.i64();
        if (!reader.exhausted())
            throw protocol_error("batch distances reply has trailing bytes");
        return distances;
    });
}

std::vector<PathResult> decode_batch_paths_reply(std::string_view payload)
{
    return decoding("batch paths reply", [&] {
        ByteReader reader(payload);
        const std::uint32_t count = reader.u32();
        // Each path costs at least 13 bytes (flag + distance + count).
        if (count > reader.remaining() / 13)
            throw protocol_error("batch paths reply: count exceeds frame");
        std::vector<PathResult> paths(count);
        for (PathResult& p : paths) p = read_path_result(reader);
        if (!reader.exhausted()) throw protocol_error("batch paths reply has trailing bytes");
        return paths;
    });
}

ServerStats decode_stats_reply(std::string_view payload)
{
    return decoding("stats reply", [&] {
        ByteReader reader(payload);
        ServerStats stats;
        stats.connections_accepted = reader.u64();
        stats.connections_rejected = reader.u64();
        stats.active_connections = reader.u64();
        stats.frames_served = reader.u64();
        stats.errors = reader.u64();
        stats.distance_queries = reader.u64();
        stats.path_queries = reader.u64();
        stats.knearest_queries = reader.u64();
        stats.batch_items = reader.u64();
        stats.cache_hits = reader.u64();
        stats.cache_misses = reader.u64();
        stats.uptime_seconds = reader.f64();
        stats.node_count = reader.i32();
        const std::uint8_t routing = reader.u8();
        if (routing > 1) throw protocol_error("stats reply: malformed routing flag");
        stats.has_routing = routing == 1;
        // stats v2 trailer: a pre-PR6 server's reply ends here, which
        // must keep decoding (back-compat), leaving the defaults.
        if (!reader.exhausted()) {
            stats.backpressure_pauses = reader.u64();
            stats.build_total_rounds = reader.f64();
            stats.build_total_words = reader.u64();
        }
        // stats v3 trailer: nested so a v2 server's reply (ending just
        // above) still decodes with the defaults.
        if (!reader.exhausted()) {
            stats.source_kind = reader.u8();
            stats.stored_cells = reader.u64();
            stats.rows_materialized = reader.u64();
        }
        if (!reader.exhausted()) throw protocol_error("stats reply has trailing bytes");
        return stats;
    });
}

std::string decode_metrics_reply(std::string_view payload)
{
    return std::string(payload);
}

std::vector<obs::RequestRecord> decode_flight_reply(std::string_view payload)
{
    return decoding("flight reply", [&] {
        ByteReader reader(payload);
        const std::uint32_t count = reader.u32();
        // Each record costs exactly 55 bytes on the wire.
        if (count > reader.remaining() / 55)
            throw protocol_error("flight reply: record count exceeds frame");
        std::vector<obs::RequestRecord> records(count);
        for (obs::RequestRecord& rec : records) {
            rec.seq = reader.u64();
            rec.trace_id = reader.u64();
            rec.conn_id = reader.u64();
            rec.opcode = reader.u8();
            rec.status = reader.u8();
            const std::uint8_t sampled = reader.u8();
            if (sampled > 1) throw protocol_error("flight reply: malformed sampled flag");
            rec.sampled = sampled == 1;
            rec.request_bytes = reader.u32();
            rec.reply_bytes = reader.u32();
            rec.decode_us = reader.u32();
            rec.queue_us = reader.u32();
            rec.execute_us = reader.u32();
            rec.encode_us = reader.u32();
            rec.flush_us = reader.u32();
        }
        if (!reader.exhausted()) throw protocol_error("flight reply has trailing bytes");
        return records;
    });
}

// --- JSON debug mode --------------------------------------------------------
//
// The grammar is deliberately tiny: one flat object, string or integer
// values, plus "pairs":[[u,v],...] for batches.  It exists for humans
// poking the server with netcat-style tools, not as a general JSON
// implementation.

namespace {

class JsonCursor {
public:
    explicit JsonCursor(std::string_view text) : text_(text) {}

    void skip_ws()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])) != 0)
            ++pos_;
    }

    [[nodiscard]] bool consume(char c)
    {
        skip_ws();
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    void expect(char c)
    {
        if (!consume(c))
            throw protocol_error(std::string("json request: expected '") + c + "'");
    }

    [[nodiscard]] std::string string_value()
    {
        expect('"');
        std::string out;
        while (pos_ < text_.size() && text_[pos_] != '"') {
            if (text_[pos_] == '\\')
                throw protocol_error("json request: escapes are not supported");
            out += text_[pos_++];
        }
        expect('"');
        return out;
    }

    [[nodiscard]] long long number_value()
    {
        skip_ws();
        const std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
        while (pos_ < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0)
            ++pos_;
        if (pos_ == start || (text_[start] == '-' && pos_ == start + 1))
            throw protocol_error("json request: expected a number");
        try {
            return std::stoll(std::string(text_.substr(start, pos_ - start)));
        } catch (const std::out_of_range&) {
            // Must surface as a malformed-status reply, not tear the
            // connection down (serve_one only catches protocol_error
            // at the decode stage).
            throw protocol_error("json request: number out of range");
        }
    }

    /// A number that must fit the wire's i32 fields (node ids, k): a
    /// silent narrowing cast would alias an out-of-range id onto a valid
    /// node and serve a wrong answer instead of out_of_range.
    [[nodiscard]] std::int32_t i32_value(const char* what)
    {
        const long long value = number_value();
        if (value < std::numeric_limits<std::int32_t>::min() ||
            value > std::numeric_limits<std::int32_t>::max())
            throw protocol_error(std::string("json request: \"") + what +
                                 "\" does not fit 32 bits");
        return static_cast<std::int32_t>(value);
    }

    [[nodiscard]] std::vector<PointQuery> pairs_value()
    {
        expect('[');
        std::vector<PointQuery> pairs;
        if (consume(']')) return pairs;
        do {
            expect('[');
            PointQuery q;
            q.from = i32_value("pairs");
            expect(',');
            q.to = i32_value("pairs");
            expect(']');
            pairs.push_back(q);
        } while (consume(','));
        expect(']');
        return pairs;
    }

    [[nodiscard]] bool at_end()
    {
        skip_ws();
        return pos_ == text_.size();
    }

private:
    std::string_view text_;
    std::size_t pos_ = 0;
};

[[nodiscard]] Opcode opcode_from_name(const std::string& name)
{
    if (name == "ping") return Opcode::ping;
    if (name == "distance") return Opcode::distance;
    if (name == "path") return Opcode::path;
    if (name == "k_nearest") return Opcode::k_nearest;
    if (name == "batch_distances") return Opcode::batch_distances;
    if (name == "batch_paths") return Opcode::batch_paths;
    if (name == "stats") return Opcode::stats;
    if (name == "metrics") return Opcode::metrics;
    if (name == "flight") return Opcode::flight;
    if (name == "shutdown") return Opcode::shutdown;
    throw protocol_error("json request: unknown op '" + name + "'");
}

} // namespace

Request parse_json_request(std::string_view body)
{
    JsonCursor cursor(body);
    cursor.expect('{');
    Request request;
    request.json = true;
    bool have_op = false;
    if (!cursor.consume('}')) {
        do {
            const std::string key = cursor.string_value();
            cursor.expect(':');
            if (key == "op") {
                request.op = opcode_from_name(cursor.string_value());
                have_op = true;
            } else if (key == "from") {
                request.from = cursor.i32_value("from");
            } else if (key == "to") {
                request.to = cursor.i32_value("to");
            } else if (key == "k") {
                request.k = cursor.i32_value("k");
            } else if (key == "pairs") {
                request.pairs = cursor.pairs_value();
            } else if (key == "token") {
                request.token = cursor.string_value();
            } else {
                throw protocol_error("json request: unknown key '" + key + "'");
            }
        } while (cursor.consume(','));
        cursor.expect('}');
    }
    if (!cursor.at_end()) throw protocol_error("json request: trailing characters");
    if (!have_op) throw protocol_error("json request: missing \"op\"");
    return request;
}

std::string json_escape(std::string_view text)
{
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buffer[8];
            std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
            out += buffer;
        } else {
            out += c;
        }
    }
    return out;
}

} // namespace ccq
