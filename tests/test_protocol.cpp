// Tests for the serving wire protocol: framing over in-memory streams,
// request/response codec round trips, malformed-input rejection, the
// JSON debug-mode request grammar, and seeded mutation runs that feed
// every decoder hostile bytes.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <deque>
#include <limits>

#include "allocation_watch.hpp"
#include "ccq/common/rng.hpp"
#include "ccq/net/protocol.hpp"

namespace ccq {
namespace {

/// An in-memory Stream: everything written becomes readable.
class LoopbackStream : public Stream {
public:
    std::size_t read_some(void* buffer, std::size_t count) override
    {
        if (bytes_.empty()) return 0; // EOF once drained
        const std::size_t take = std::min(count, bytes_.size());
        for (std::size_t i = 0; i < take; ++i) {
            static_cast<char*>(buffer)[i] = bytes_.front();
            bytes_.pop_front();
        }
        return take;
    }

    void write_all(const void* buffer, std::size_t count) override
    {
        const char* bytes = static_cast<const char*>(buffer);
        bytes_.insert(bytes_.end(), bytes, bytes + count);
    }

    void interrupt() noexcept override {}

private:
    std::deque<char> bytes_;
};

/// A read-only Stream over fixed bytes that hands out at most `chunk`
/// bytes per read, so frames straddle reads; allocates nothing.
class ChunkedStream : public Stream {
public:
    ChunkedStream(std::string_view bytes, std::size_t chunk) : bytes_(bytes), chunk_(chunk) {}

    std::size_t read_some(void* buffer, std::size_t count) override
    {
        ++reads_;
        const std::size_t take = std::min({count, chunk_, bytes_.size()});
        std::memcpy(buffer, bytes_.data(), take);
        bytes_.remove_prefix(take);
        return take;
    }

    void write_all(const void*, std::size_t) override { throw net_error("read-only stream"); }

    void interrupt() noexcept override {}

    [[nodiscard]] std::size_t reads() const noexcept { return reads_; }

private:
    std::string_view bytes_;
    std::size_t chunk_;
    std::size_t reads_ = 0;
};

TEST(Protocol, FramesRoundTripThroughAStream)
{
    LoopbackStream stream;
    write_frame(stream, "hello");
    write_frame(stream, ""); // empty frames are legal
    write_frame(stream, std::string(1000, 'x'));
    FrameReader reader(stream);
    EXPECT_EQ(reader.next(), "hello");
    EXPECT_EQ(reader.next(), "");
    EXPECT_EQ(reader.next(), std::string(1000, 'x'));
    EXPECT_EQ(reader.next(), std::nullopt); // clean EOF
}

TEST(Protocol, FrameReaderReadsAheadAcrossFrames)
{
    // Three frames arrive in one read and each next() pops one of them;
    // a frame longer than a read chunk takes as many reads as it needs.
    std::string wire = encode_frame("a") + encode_frame("bb") + encode_frame("ccc");
    wire += encode_frame(std::string(3 * FrameReader::kFrameReadChunk, 'y'));
    ChunkedStream stream(wire, std::numeric_limits<std::size_t>::max());
    FrameReader reader(stream);
    EXPECT_EQ(reader.next(), "a");
    EXPECT_EQ(reader.next(), "bb");
    EXPECT_EQ(reader.next(), "ccc");
    EXPECT_EQ(stream.reads(), 1u);
    EXPECT_EQ(reader.next(), std::string(3 * FrameReader::kFrameReadChunk, 'y'));
    EXPECT_EQ(stream.reads(), 4u);
    EXPECT_EQ(reader.next(), std::nullopt);
}

TEST(Protocol, OversizedFrameLengthIsRejectedUnread)
{
    LoopbackStream stream;
    const std::uint32_t huge = kMaxFrameBytes + 1;
    char prefix[4];
    std::memcpy(prefix, &huge, 4); // test host is little-endian like the wire
    stream.write_all(prefix, 4);
    FrameReader reader(stream);
    EXPECT_THROW((void)reader.next(), protocol_error);
}

TEST(Protocol, TruncatedFrameBodyThrowsNetError)
{
    LoopbackStream stream;
    write_frame(stream, "full frame");
    LoopbackStream truncated;
    const std::uint32_t claimed = 100;
    char prefix[4];
    std::memcpy(prefix, &claimed, 4);
    truncated.write_all(prefix, 4);
    truncated.write_all("short", 5);
    FrameReader reader(truncated);
    EXPECT_THROW((void)reader.next(), net_error);
    // A lone partial prefix is cut mid-frame too.
    LoopbackStream cut_prefix;
    cut_prefix.write_all(prefix, 3);
    FrameReader prefix_reader(cut_prefix);
    EXPECT_THROW((void)prefix_reader.next(), net_error);
}

TEST(Protocol, RequestsRoundTripForEveryOpcode)
{
    for (const Opcode op : {Opcode::ping, Opcode::distance, Opcode::path, Opcode::k_nearest,
                            Opcode::stats, Opcode::metrics, Opcode::shutdown}) {
        Request request;
        request.op = op;
        request.from = 3;
        request.to = 17;
        request.k = 5;
        const Request decoded = decode_request(encode_request(request));
        EXPECT_EQ(decoded.op, op);
        if (op == Opcode::distance || op == Opcode::path) {
            EXPECT_EQ(decoded.from, 3);
            EXPECT_EQ(decoded.to, 17);
        }
        if (op == Opcode::k_nearest) {
            EXPECT_EQ(decoded.from, 3);
            EXPECT_EQ(decoded.k, 5);
        }
        EXPECT_FALSE(decoded.json);
    }
}

TEST(Protocol, ShutdownTokenRoundTrips)
{
    // Tokenless: the legacy one-byte frame, decoding to an empty token.
    Request bare;
    bare.op = Opcode::shutdown;
    EXPECT_EQ(encode_request(bare).size(), 1u);
    EXPECT_TRUE(decode_request(encode_request(bare)).token.empty());

    Request request;
    request.op = Opcode::shutdown;
    request.token = "s3cret";
    const Request decoded = decode_request(encode_request(request));
    EXPECT_EQ(decoded.op, Opcode::shutdown);
    EXPECT_EQ(decoded.token, "s3cret");

    // JSON debug mode carries the same operand.
    const Request json = parse_json_request(R"({"op":"shutdown","token":"abc"})");
    EXPECT_EQ(json.op, Opcode::shutdown);
    EXPECT_EQ(json.token, "abc");

    // A truncated token string is malformed, not a silent empty token.
    std::string truncated;
    truncated += static_cast<char>(0x1f);
    const std::uint32_t length = 100;
    truncated.append(reinterpret_cast<const char*>(&length), 4);
    truncated += "short";
    EXPECT_THROW((void)decode_request(truncated), protocol_error);
}

TEST(Protocol, ForbiddenStatusIsNamedAndSplits)
{
    const std::string reply = encode_error_reply(Status::forbidden, "no token");
    const auto [status, rest] = split_reply(reply);
    EXPECT_EQ(status, Status::forbidden);
    EXPECT_STREQ(status_name(Status::forbidden), "forbidden");
    // One past the last defined status must still be rejected.
    EXPECT_THROW((void)split_reply(std::string(1, static_cast<char>(8))), protocol_error);
}

TEST(Protocol, BusyStatusIsNamedAndSplits)
{
    const std::string reply = encode_error_reply(Status::busy, "at connection limit");
    const auto [status, rest] = split_reply(reply);
    EXPECT_EQ(status, Status::busy);
    EXPECT_STREQ(status_name(Status::busy), "busy");
}

TEST(Protocol, FrameDecoderReassemblesByteAtATime)
{
    // The slow-loris shape: every byte of two frames arrives in its own
    // feed() call, and a frame must complete exactly at its last byte.
    const std::string wire = encode_frame("hello") + encode_frame("");
    FrameDecoder decoder;
    std::vector<std::string> frames;
    for (std::size_t i = 0; i < wire.size(); ++i) {
        decoder.feed(std::string_view(wire).substr(i, 1));
        while (std::optional<std::string> frame = decoder.next())
            frames.push_back(std::move(*frame));
    }
    ASSERT_EQ(frames.size(), 2u);
    EXPECT_EQ(frames[0], "hello");
    EXPECT_EQ(frames[1], "");
    EXPECT_FALSE(decoder.mid_frame());
}

TEST(Protocol, FrameDecoderSplitsAPipelinedBurst)
{
    // The pipelining shape: many frames land in one feed().
    std::string wire;
    for (int i = 0; i < 100; ++i) wire += encode_frame(std::string(i, 'a' + (i % 26)));
    FrameDecoder decoder;
    decoder.feed(wire);
    for (int i = 0; i < 100; ++i) {
        const std::optional<std::string> frame = decoder.next();
        ASSERT_TRUE(frame.has_value()) << "frame " << i;
        EXPECT_EQ(*frame, std::string(i, 'a' + (i % 26)));
    }
    EXPECT_EQ(decoder.next(), std::nullopt);
    EXPECT_FALSE(decoder.mid_frame());
}

TEST(Protocol, FrameDecoderTracksPartialFrames)
{
    FrameDecoder decoder;
    const std::string wire = encode_frame("abcdef");
    decoder.feed(std::string_view(wire).substr(0, 7)); // prefix + half the body
    EXPECT_EQ(decoder.next(), std::nullopt);
    EXPECT_TRUE(decoder.mid_frame()); // EOF here would cut a frame in half
    decoder.feed(std::string_view(wire).substr(7));
    EXPECT_EQ(decoder.next(), "abcdef");
    EXPECT_FALSE(decoder.mid_frame());
}

TEST(Protocol, FrameDecoderRejectsOversizedPrefixBeforeTheBody)
{
    FrameDecoder decoder;
    const std::uint32_t huge = kMaxFrameBytes + 1;
    decoder.feed(std::string_view(reinterpret_cast<const char*>(&huge), 4));
    // The prefix alone must poison the stream — no waiting for (or
    // buffering of) a 64 MiB body that is never coming.
    EXPECT_THROW((void)decoder.next(), protocol_error);
}

TEST(Protocol, EncodeFrameMatchesWriteFrame)
{
    LoopbackStream stream;
    write_frame(stream, "payload");
    const std::string encoded = encode_frame("payload");
    std::string streamed(encoded.size() + 1, '\0');
    streamed.resize(stream.read_some(streamed.data(), streamed.size()));
    EXPECT_EQ(streamed, encoded);
}

TEST(Protocol, BatchRequestsCarryTheirPairs)
{
    Request request;
    request.op = Opcode::batch_paths;
    request.pairs = {{0, 1}, {5, 9}, {2, 2}};
    const Request decoded = decode_request(encode_request(request));
    EXPECT_EQ(decoded.op, Opcode::batch_paths);
    ASSERT_EQ(decoded.pairs.size(), 3u);
    EXPECT_EQ(decoded.pairs[1].from, 5);
    EXPECT_EQ(decoded.pairs[1].to, 9);
}

TEST(Protocol, MalformedRequestsAreRejected)
{
    EXPECT_THROW((void)decode_request(""), protocol_error);
    EXPECT_THROW((void)decode_request("\xff"), protocol_error);         // unknown opcode
    EXPECT_THROW((void)decode_request("\x02\x01"), protocol_error);     // truncated operands
    EXPECT_THROW((void)decode_request(std::string("\x01\x00", 2)), protocol_error); // trailing
    // A batch whose count field promises more pairs than the frame holds
    // must fail before allocating that count.
    std::string body;
    body += static_cast<char>(0x05);
    const std::uint32_t count = 1u << 30;
    body.append(reinterpret_cast<const char*>(&count), 4);
    EXPECT_THROW((void)decode_request(body), protocol_error);
}

TEST(Protocol, RepliesRoundTrip)
{
    EXPECT_EQ(decode_ping_reply(split_reply(encode_ping_reply()).second), kProtocolVersion);
    EXPECT_EQ(decode_distance_reply(split_reply(encode_distance_reply(12345)).second), 12345);

    PathResult path;
    path.reachable = true;
    path.distance = 42;
    path.nodes = {0, 3, 9};
    EXPECT_EQ(decode_path_reply(split_reply(encode_path_reply(path)).second), path);

    const std::vector<NearTarget> targets{{4, 10}, {7, 11}};
    EXPECT_EQ(decode_nearest_reply(split_reply(encode_nearest_reply(targets)).second), targets);

    const std::vector<Weight> distances{1, kInfinity, 7};
    EXPECT_EQ(
        decode_batch_distances_reply(split_reply(encode_batch_distances_reply(distances)).second),
        distances);

    const std::vector<PathResult> paths{path, PathResult{}};
    EXPECT_EQ(decode_batch_paths_reply(split_reply(encode_batch_paths_reply(paths)).second),
              paths);

    ServerStats stats;
    stats.connections_accepted = 3;
    stats.connections_rejected = 2;
    stats.frames_served = 99;
    stats.cache_hits = 7;
    stats.uptime_seconds = 1.5;
    stats.node_count = 96;
    stats.has_routing = true;
    stats.backpressure_pauses = 11;
    stats.build_total_rounds = 17.5;
    stats.build_total_words = 4096;
    stats.source_kind = 2; // spanner
    stats.stored_cells = 1234;
    stats.rows_materialized = 17;
    EXPECT_EQ(decode_stats_reply(split_reply(encode_stats_reply(stats)).second), stats);

    // Prometheus scrape text passes through byte-for-byte.
    const std::string exposition = "# HELP x y\nx_total 3\n";
    EXPECT_EQ(decode_metrics_reply(split_reply(encode_metrics_reply(exposition)).second),
              exposition);
}

TEST(Protocol, StatsV1RepliesDecodeWithDefaultTrailer)
{
    // Older servers' stats replies simply end early; the decoder must
    // leave the newer trailer fields at their defaults, not reject the
    // frame.  Strip the trailers the current encoder appends — v3 is
    // 17 bytes (u8 + u64 + u64), v2 another 24 (u64 + f64 + u64) — to
    // forge the old shapes.
    ServerStats stats;
    stats.frames_served = 5;
    stats.backpressure_pauses = 9;
    stats.build_total_rounds = 3.25;
    stats.build_total_words = 64;
    stats.source_kind = 1; // mapped
    stats.stored_cells = 9216;
    stats.rows_materialized = 3;
    const std::string reply = encode_stats_reply(stats);
    const auto [status, payload] = split_reply(reply);
    ASSERT_EQ(status, Status::ok);

    // A v2 server's reply: ends after build_total_words.
    const ServerStats from_v2 =
        decode_stats_reply(std::string(payload).substr(0, payload.size() - 17));
    EXPECT_EQ(from_v2.frames_served, 5u);
    EXPECT_EQ(from_v2.build_total_words, 64u);
    EXPECT_EQ(from_v2.source_kind, 0u);
    EXPECT_EQ(from_v2.stored_cells, 0u);
    EXPECT_EQ(from_v2.rows_materialized, 0u);

    // A v1 server's reply: ends after has_routing.
    const ServerStats from_v1 =
        decode_stats_reply(std::string(payload).substr(0, payload.size() - 17 - 24));
    EXPECT_EQ(from_v1.frames_served, 5u);
    EXPECT_EQ(from_v1.backpressure_pauses, 0u);
    EXPECT_EQ(from_v1.build_total_rounds, 0.0);
    EXPECT_EQ(from_v1.build_total_words, 0u);
    EXPECT_EQ(from_v1.source_kind, 0u);

    // A partial trailer is torn, not an older version: reject it.
    EXPECT_THROW((void)decode_stats_reply(std::string(payload).substr(0, payload.size() - 8)),
                 protocol_error);
    EXPECT_THROW(
        (void)decode_stats_reply(std::string(payload).substr(0, payload.size() - 17 - 8)),
        protocol_error);
}

TEST(Protocol, OpMetricIndexCoversEveryOpcode)
{
    // Every real opcode owns a distinct slot with a stable name; the
    // JSON debug pseudo-opcode folds into the trailing invalid slot.
    std::vector<bool> seen(kOpMetricCount, false);
    for (const Opcode op : {Opcode::ping, Opcode::distance, Opcode::path, Opcode::k_nearest,
                            Opcode::batch_distances, Opcode::batch_paths, Opcode::stats,
                            Opcode::metrics, Opcode::flight, Opcode::shutdown}) {
        const std::size_t index = op_metric_index(op);
        ASSERT_LT(index, kOpMetricCount);
        EXPECT_NE(index, kInvalidOpMetric);
        EXPECT_FALSE(seen[index]) << op_metric_name(index);
        seen[index] = true;
        EXPECT_STRNE(op_metric_name(index), "");
    }
    EXPECT_EQ(op_metric_index(Opcode::json), kInvalidOpMetric);
    EXPECT_STREQ(op_metric_name(kInvalidOpMetric), "invalid");
    EXPECT_STREQ(op_metric_name(op_metric_index(Opcode::ping)), "ping");
}

TEST(Protocol, ErrorRepliesCarryStatusAndMessage)
{
    const std::string body = encode_error_reply(Status::out_of_range, "node 200");
    const auto [status, payload] = split_reply(body);
    EXPECT_EQ(status, Status::out_of_range);
    EXPECT_NE(std::string(payload).find("node 200"), std::string::npos);
    EXPECT_THROW((void)split_reply(""), protocol_error);
    EXPECT_THROW((void)split_reply("\x63"), protocol_error); // unknown status byte
}

TEST(Protocol, TruncatedRepliesAreRejected)
{
    const std::string good = encode_path_reply(PathResult{true, 9, {0, 1}});
    const auto [status, payload] = split_reply(good);
    ASSERT_EQ(status, Status::ok);
    for (std::size_t keep = 0; keep < payload.size(); ++keep)
        EXPECT_THROW((void)decode_path_reply(payload.substr(0, keep)), protocol_error)
            << "kept " << keep << " of " << payload.size();
    // A count field larger than the remaining bytes must not allocate.
    const std::uint32_t huge = 1u << 30;
    std::string forged(reinterpret_cast<const char*>(&huge), 4);
    EXPECT_THROW((void)decode_batch_paths_reply(forged), protocol_error);
}

TEST(Protocol, JsonRequestsParse)
{
    const Request distance = decode_request(R"({"op":"distance","from":4,"to":9})");
    EXPECT_EQ(distance.op, Opcode::distance);
    EXPECT_EQ(distance.from, 4);
    EXPECT_EQ(distance.to, 9);
    EXPECT_TRUE(distance.json);

    const Request nearest = parse_json_request(R"({ "op" : "k_nearest" , "from": 2, "k": 8 })");
    EXPECT_EQ(nearest.op, Opcode::k_nearest);
    EXPECT_EQ(nearest.k, 8);

    const Request batch =
        parse_json_request(R"({"op":"batch_distances","pairs":[[0,1],[2,3]]})");
    ASSERT_EQ(batch.pairs.size(), 2u);
    EXPECT_EQ(batch.pairs[1].from, 2);
    EXPECT_EQ(batch.pairs[1].to, 3);

    const Request bare = parse_json_request(R"({"op":"stats"})");
    EXPECT_EQ(bare.op, Opcode::stats);

    const Request scrape = parse_json_request(R"({"op":"metrics"})");
    EXPECT_EQ(scrape.op, Opcode::metrics);
}

TEST(Protocol, MalformedJsonRequestsAreRejected)
{
    for (const char* bad : {
             "{",                                  // unterminated
             "{}",                                 // missing op
             R"({"op":"no_such_op"})",             // unknown op
             R"({"op":"distance","from":"x"})",    // non-numeric operand
             R"({"op":"distance"} trailing)",      // trailing characters
             R"({"unknown_key":1,"op":"ping"})",   // unknown key
             R"({"op":"batch_paths","pairs":[0]})", // pairs not pairs
             // Overflowing numbers must be a protocol_error (answered as
             // malformed), not an escaping std::out_of_range that tears
             // the connection down.
             R"({"op":"distance","from":99999999999999999999999,"to":1})",
             // Fits a long long but not the wire's i32 node ids: a silent
             // truncation would alias onto a valid node (4294967296 -> 0)
             // and serve a wrong answer instead of an error.
             R"({"op":"distance","from":4294967296,"to":5})",
             R"({"op":"k_nearest","from":0,"k":2147483648})"
         })
        EXPECT_THROW((void)parse_json_request(bad), protocol_error) << bad;
}

TEST(Protocol, JsonEscapeHandlesControlBytesAndQuotes)
{
    EXPECT_EQ(json_escape("plain"), "plain");
    EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
    EXPECT_EQ(json_escape(std::string("x\ny", 3)), "x\\u000ay");
}

TEST(Protocol, TraceEnvelopeRoundTrips)
{
    Request request;
    request.op = Opcode::distance;
    request.from = 4;
    request.to = 9;
    const std::string inner = encode_request(request);

    const TraceContext context{0xdeadbeefcafe1234u, true};
    const std::string tagged = wrap_trace_envelope(context, inner);
    ASSERT_EQ(tagged.size(), inner.size() + 10);
    EXPECT_EQ(static_cast<std::uint8_t>(tagged[0]), kTraceEnvelopeMarker);

    std::string_view body(tagged);
    const std::optional<TraceContext> split = split_trace_envelope(body);
    ASSERT_TRUE(split.has_value());
    EXPECT_EQ(*split, context);
    EXPECT_EQ(body, inner); // envelope stripped, inner body intact
    EXPECT_EQ(decode_request(body).op, Opcode::distance);

    // Unsampled context round-trips its flag bit.
    const std::string unsampled_wire = wrap_trace_envelope(TraceContext{7, false}, inner);
    std::string_view unsampled_body(unsampled_wire);
    const std::optional<TraceContext> unsampled = split_trace_envelope(unsampled_body);
    ASSERT_TRUE(unsampled.has_value());
    EXPECT_EQ(unsampled->trace_id, 7u);
    EXPECT_FALSE(unsampled->sampled);
}

TEST(Protocol, UntaggedBodiesSplitToNullopt)
{
    // The pre-envelope wire shape: every existing opcode byte must pass
    // through untouched.  0x1e is reserved precisely because no opcode
    // or JSON body starts with it.
    for (const Opcode op : {Opcode::ping, Opcode::distance, Opcode::stats, Opcode::shutdown}) {
        Request request;
        request.op = op;
        const std::string inner = encode_request(request);
        std::string_view body(inner);
        EXPECT_EQ(split_trace_envelope(body), std::nullopt);
        EXPECT_EQ(body, inner);
    }
    std::string_view json(R"({"op":"ping"})");
    EXPECT_EQ(split_trace_envelope(json), std::nullopt);
    std::string_view empty;
    EXPECT_EQ(split_trace_envelope(empty), std::nullopt);
}

TEST(Protocol, TruncatedOrUnknownFlagEnvelopesAreRejected)
{
    const std::string tagged =
        wrap_trace_envelope(TraceContext{42, true}, encode_request(Request{}));
    // Every strict prefix of the 10-byte envelope is a torn envelope,
    // not an untagged request.
    for (std::size_t keep = 1; keep < 10; ++keep) {
        std::string_view body(tagged.data(), keep);
        EXPECT_THROW((void)split_trace_envelope(body), protocol_error) << "kept " << keep;
    }
    // Unknown flag bits are version skew this decoder must not guess at.
    std::string bad_flags = tagged;
    bad_flags[9] = static_cast<char>(0x02);
    std::string_view body(bad_flags);
    EXPECT_THROW((void)split_trace_envelope(body), protocol_error);
}

TEST(Protocol, TaggedFramesSurviveTheFrameDecoderByteAtATime)
{
    // A tagged frame is framing-transparent: the decoder reassembles it
    // like any other body, tagged and untagged frames interleave, and
    // the envelope splits off only after reassembly.
    Request request;
    request.op = Opcode::distance;
    request.from = 1;
    request.to = 2;
    const std::string inner = encode_request(request);
    const std::string wire = encode_frame(wrap_trace_envelope(TraceContext{9, true}, inner)) +
                             encode_frame(inner) +
                             encode_frame(wrap_trace_envelope(TraceContext{10, false}, inner));
    FrameDecoder decoder;
    std::vector<std::string> frames;
    for (std::size_t i = 0; i < wire.size(); ++i) {
        decoder.feed(std::string_view(wire).substr(i, 1));
        while (std::optional<std::string> frame = decoder.next())
            frames.push_back(std::move(*frame));
    }
    ASSERT_EQ(frames.size(), 3u);

    std::string_view first(frames[0]);
    const std::optional<TraceContext> c0 = split_trace_envelope(first);
    ASSERT_TRUE(c0.has_value());
    EXPECT_EQ(c0->trace_id, 9u);
    EXPECT_TRUE(c0->sampled);
    EXPECT_EQ(first, inner);

    std::string_view second(frames[1]);
    EXPECT_EQ(split_trace_envelope(second), std::nullopt);
    EXPECT_EQ(second, inner);

    std::string_view third(frames[2]);
    const std::optional<TraceContext> c2 = split_trace_envelope(third);
    ASSERT_TRUE(c2.has_value());
    EXPECT_EQ(c2->trace_id, 10u);
    EXPECT_FALSE(c2->sampled);
}

TEST(Protocol, FlightRepliesRoundTrip)
{
    obs::RequestRecord a;
    a.seq = 7;
    a.trace_id = 0x1122334455667788u;
    a.conn_id = 3;
    a.opcode = static_cast<std::uint8_t>(Opcode::distance);
    a.status = static_cast<std::uint8_t>(Status::ok);
    a.sampled = true;
    a.request_bytes = 19;
    a.reply_bytes = 9;
    a.decode_us = 1;
    a.queue_us = 2;
    a.execute_us = 3;
    a.encode_us = 4;
    a.flush_us = 5;
    obs::RequestRecord b; // all-defaults record survives too
    const std::vector<obs::RequestRecord> records{a, b};

    const std::string reply = encode_flight_reply(records);
    const auto [status, payload] = split_reply(reply);
    ASSERT_EQ(status, Status::ok);
    const std::vector<obs::RequestRecord> decoded = decode_flight_reply(payload);
    ASSERT_EQ(decoded.size(), 2u);
    EXPECT_EQ(decoded[0], a);
    EXPECT_EQ(decoded[1], b);
    EXPECT_EQ(decoded[0].total_us(), 15u);

    const auto empty = decode_flight_reply(split_reply(encode_flight_reply({})).second);
    EXPECT_TRUE(empty.empty());
}

TEST(Protocol, ForgedFlightRepliesAreRejected)
{
    // A count promising more records than the payload holds must fail
    // before allocating that count.
    const std::uint32_t huge = 1u << 30;
    std::string forged(reinterpret_cast<const char*>(&huge), 4);
    EXPECT_THROW((void)decode_flight_reply(forged), protocol_error);

    obs::RequestRecord rec;
    const std::string good(split_reply(encode_flight_reply({&rec, 1})).second);
    // Truncation anywhere inside the record is torn, not short.
    for (std::size_t keep = 0; keep < good.size(); ++keep)
        EXPECT_THROW((void)decode_flight_reply(good.substr(0, keep)), protocol_error)
            << "kept " << keep;
    // Trailing bytes after the promised records are a framing bug.
    EXPECT_THROW((void)decode_flight_reply(good + "x"), protocol_error);
    // A sampled byte other than 0/1 is not a bool.
    std::string bad_sampled = good;
    bad_sampled[4 + 8 + 8 + 8 + 1 + 1] = 2; // count + seq + trace + conn + op + status
    EXPECT_THROW((void)decode_flight_reply(bad_sampled), protocol_error);
}

// --- hostile bytes ----------------------------------------------------------
//
// Each ProtocolMutation test derives kMutants mutants from valid
// messages with a fixed seed: bit flips, cuts, appended bytes, and
// forged u32 lengths (aimed at the message's own length fields most of
// the time).  Every mutant must decode to a value or throw
// protocol_error: no crash, no other exception, and no allocation far
// beyond the mutant's own size.  Run under ASan/UBSan, this is the
// in-tree stand-in for a fuzzer.

constexpr int kMutants = 400;

using testing::AllocationWatch;

/// A valid message and the offsets of the u32 lengths inside it.
struct MutationSeed {
    std::string bytes;
    std::vector<std::size_t> length_offsets;
};

void put_u32_at(std::string& bytes, std::size_t at, std::uint32_t value)
{
    for (std::size_t i = 0; i < 4; ++i)
        bytes[at + i] = static_cast<char>((value >> (8 * i)) & 0xff);
}

std::string mutate(Rng& rng, const MutationSeed& seed)
{
    std::string bytes = seed.bytes;
    const auto pick = [&rng](std::size_t size) {
        return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(size) - 1));
    };
    const int edits = static_cast<int>(rng.uniform_int(1, 3));
    for (int edit = 0; edit < edits; ++edit) {
        switch (rng.uniform_int(0, 3)) {
        case 0: // flip one bit
            if (!bytes.empty()) bytes[pick(bytes.size())] ^= static_cast<char>(1 << pick(8));
            break;
        case 1: // cut: drop the tail, or a span from the middle
            if (bytes.empty()) break;
            if (rng.bernoulli(0.5)) {
                bytes.resize(pick(bytes.size()));
            } else {
                const std::size_t at = pick(bytes.size());
                bytes.erase(at, 1 + pick(bytes.size() - at));
            }
            break;
        case 2: // append random bytes
            for (std::size_t i = 1 + pick(16); i > 0; --i)
                bytes += static_cast<char>(rng.uniform_int(0, 255));
            break;
        default: { // forge a length
            if (bytes.size() < 4) break;
            std::size_t at = pick(bytes.size() - 3);
            if (!seed.length_offsets.empty() && rng.bernoulli(0.75)) {
                const std::size_t field = seed.length_offsets[pick(seed.length_offsets.size())];
                if (field + 4 <= bytes.size()) at = field;
            }
            static constexpr std::uint32_t kForged[] = {
                0xffffffffu, 0x80000000u, kMaxFrameBytes, kMaxFrameBytes + 1, 1u << 20, 0u};
            const std::uint32_t value =
                rng.bernoulli(0.5)
                    ? kForged[pick(std::size(kForged))]
                    : static_cast<std::uint32_t>(rng.uniform_int(0, 0xffffffffLL));
            put_u32_at(bytes, at, value);
            break;
        }
        }
    }
    return bytes;
}

std::string hex(std::string_view bytes)
{
    std::string out;
    for (const char c : bytes) {
        char digits[4];
        std::snprintf(digits, sizeof digits, "%02x", static_cast<unsigned char>(c));
        out += digits;
    }
    return out;
}

/// Feeds kMutants mutants of `seeds` to `decode` and checks each one's
/// verdict and allocation.  Both verdicts must occur, so the mutants
/// reach past the decoder's first check.
template <class Decode>
void expect_mutants_are_safe(std::uint64_t seed, const std::vector<MutationSeed>& seeds,
                             Decode decode)
{
    Rng rng(seed);
    int decoded = 0;
    int rejected = 0;
    for (int i = 0; i < kMutants; ++i) {
        const std::string mutant = mutate(rng, seeds[static_cast<std::size_t>(i) % seeds.size()]);
        bool threw_protocol_error = false;
        std::string other_error;
        std::size_t largest = 0;
        {
            const AllocationWatch watch;
            try {
                decode(std::string_view(mutant));
            } catch (const protocol_error&) {
                threw_protocol_error = true;
            } catch (const std::exception& error) {
                other_error = error.what();
            } catch (...) {
                other_error = "a non-std exception";
            }
            largest = AllocationWatch::largest();
        }
        ASSERT_TRUE(other_error.empty())
            << "mutant " << i << " threw " << other_error << ": " << hex(mutant);
        EXPECT_LE(largest, 8 * mutant.size() + 1024)
            << "mutant " << i << " of " << mutant.size() << " bytes: " << hex(mutant);
        ++(threw_protocol_error ? rejected : decoded);
    }
    EXPECT_GT(decoded, 0);
    EXPECT_GT(rejected, 0);
}

/// The server's decode of one request body: strip a trace envelope,
/// then decode.
void decode_request_body(std::string_view body)
{
    (void)split_trace_envelope(body);
    const Request request = decode_request(body);
    EXPECT_LE(request.pairs.size() * 5, body.size()) << "more pairs than the body holds";
}

/// A client's decode of a reply: the status, then the ok payload (an
/// error reply's message is its value).
template <class DecodePayload>
auto reply_decoder(DecodePayload decode_payload)
{
    return [decode_payload](std::string_view body) {
        const auto [status, payload] = split_reply(body);
        if (status == Status::ok) (void)decode_payload(payload);
    };
}

TEST(ProtocolMutation, BinaryRequests)
{
    Request batch;
    batch.op = Opcode::batch_paths;
    batch.pairs = {{0, 1}, {2, 3}, {4, 5}};
    Request shutdown;
    shutdown.op = Opcode::shutdown;
    shutdown.token = "secret-token";
    Request nearest;
    nearest.op = Opcode::k_nearest;
    nearest.from = 3;
    nearest.k = 5;
    Request distance;
    distance.op = Opcode::distance;
    distance.from = 7;
    distance.to = 9;
    const std::string traced =
        wrap_trace_envelope({0x1122334455667788u, true}, encode_request(batch));
    expect_mutants_are_safe(101,
                            {{encode_request(batch), {1}},
                             {encode_request(shutdown), {1}},
                             {encode_request(nearest), {}},
                             {encode_request(distance), {}},
                             {traced, {11}}},
                            decode_request_body);
}

TEST(ProtocolMutation, JsonRequests)
{
    expect_mutants_are_safe(
        202,
        {{R"({"op":"batch_paths","pairs":[[0,1],[2,3],[40,5]]})", {}},
         {R"({"op":"distance","from":0,"to":5})", {}},
         {R"({"op":"k_nearest","from":12,"k":3})", {}},
         {R"({"op":"shutdown","token":"secret-token"})", {}}},
        decode_request_body);
}

TEST(ProtocolMutation, StatsRepliesAtEveryTrailerVersion)
{
    ServerStats stats;
    stats.connections_accepted = 3;
    stats.frames_served = 99;
    stats.uptime_seconds = 1.5;
    stats.node_count = 96;
    stats.has_routing = true;
    stats.backpressure_pauses = 11;
    stats.build_total_rounds = 17.5;
    stats.build_total_words = 4096;
    stats.source_kind = 2;
    stats.stored_cells = 1234;
    stats.rows_materialized = 17;
    const std::string v3 = encode_stats_reply(stats);
    // v3 ends 17 trailer bytes after v2, v2 24 bytes after v1.
    const std::string v2 = v3.substr(0, v3.size() - 17);
    const std::string v1 = v2.substr(0, v2.size() - 24);
    std::uint64_t seed = 303;
    for (const std::string& reply : {v1, v2, v3}) {
        SCOPED_TRACE("stats reply of " + std::to_string(reply.size()) + " bytes");
        expect_mutants_are_safe(seed++, {{reply, {}}}, reply_decoder(decode_stats_reply));
    }
}

TEST(ProtocolMutation, FlightReplies)
{
    obs::RequestRecord a;
    a.seq = 7;
    a.trace_id = 0x1122334455667788u;
    a.opcode = static_cast<std::uint8_t>(Opcode::path);
    a.sampled = true;
    a.request_bytes = 13;
    a.execute_us = 40;
    const obs::RequestRecord b;
    const std::vector<obs::RequestRecord> records{a, b};
    // The record count follows the status byte.
    expect_mutants_are_safe(404, {{encode_flight_reply(records), {1}}},
                            reply_decoder(decode_flight_reply));
}

/// The seed of the frame-stream mutants: four frames, their prefixes marked.
MutationSeed frame_stream_seed()
{
    Request batch;
    batch.op = Opcode::batch_distances;
    batch.pairs = {{0, 1}, {2, 3}};
    MutationSeed stream;
    for (const std::string& body :
         {encode_request(batch), std::string(), encode_ping_reply(), std::string(300, 'x')}) {
        stream.length_offsets.push_back(stream.bytes.size());
        stream.bytes += encode_frame(body);
    }
    return stream;
}

TEST(ProtocolMutation, FrameDecoderStreams)
{
    // Chunk sizes vary with the mutant, so frames straddle feeds.
    std::size_t chunk = 0;
    expect_mutants_are_safe(505, {frame_stream_seed()}, [&chunk](std::string_view bytes) {
        chunk = chunk % 13 + 1;
        FrameDecoder decoder;
        std::size_t delivered = 0;
        for (std::size_t at = 0; at < bytes.size(); at += chunk) {
            decoder.feed(bytes.substr(at, chunk));
            while (const std::optional<std::string> body = decoder.next())
                delivered += 4 + body->size();
        }
        EXPECT_EQ(delivered + decoder.buffered_bytes(), bytes.size());
    });
}

TEST(ProtocolMutation, FrameReaderStreams)
{
    // The same mutants through the blocking reader, over a stream that
    // hands out 1..13 bytes per read (or everything at once), so frames
    // straddle reads.  A stream cut mid-frame (net_error) counts as a
    // rejection, like an oversized prefix.
    std::size_t chunk = 0;
    expect_mutants_are_safe(606, {frame_stream_seed()}, [&chunk](std::string_view bytes) {
        chunk = chunk % 14 + 1;
        ChunkedStream stream(bytes, chunk == 14 ? std::numeric_limits<std::size_t>::max() : chunk);
        FrameReader reader(stream);
        std::size_t delivered = 0;
        try {
            while (const std::optional<std::string> body = reader.next())
                delivered += 4 + body->size();
        } catch (const net_error&) {
            EXPECT_LT(delivered, bytes.size());
            throw protocol_error("stream ends mid-frame");
        }
        EXPECT_EQ(delivered, bytes.size());
    });
}

TEST(ProtocolMutation, FrameReaderForgedPrefixAllocatesNothingLarge)
{
    // A prefix claiming 60 MiB, five body bytes, then EOF: the reader
    // buffers the nine bytes that came and throws; it never sizes a
    // buffer by the claim.
    std::string wire(4, '\0');
    put_u32_at(wire, 0, 60u << 20);
    wire += "hello";
    std::size_t largest = 0;
    {
        const AllocationWatch watch;
        ChunkedStream stream(wire, std::numeric_limits<std::size_t>::max());
        FrameReader reader(stream);
        EXPECT_THROW((void)reader.next(), net_error);
        largest = AllocationWatch::largest();
    }
    EXPECT_LE(largest, std::size_t{1024});
}

} // namespace
} // namespace ccq
