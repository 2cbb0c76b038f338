// Tests for the networked serving subsystem: Server + Client over real
// loopback TCP sockets and over socketpair streams (the stdio mode).
//
// The load-bearing tests are equivalence tests: every answer served
// over the socket protocol — against the compressed codec-v2 snapshot,
// mmap-loaded — must be bitwise identical to the in-process QueryEngine
// answer against the eagerly loaded snapshot, and the reply bytes must
// be the in-process encoding of that answer however many event loops
// serve the connections.  Every Server test therefore runs under one
// and under four loops via TEST_P.
#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <thread>

#include "ccq/core/oracle.hpp"
#include "ccq/net/client.hpp"
#include "ccq/net/server.hpp"
#include "ccq/obs/trace.hpp"
#include "built_oracle.hpp"

namespace ccq {
namespace {

using testing::BuiltOracle;
using testing::InstanceSpec;

// A dead peer mid-write must surface as net_error, not SIGPIPE.
struct IgnoreSigpipe {
    IgnoreSigpipe() { std::signal(SIGPIPE, SIG_IGN); }
} const g_ignore_sigpipe;

/// A listening server plus the thread running its accept loop.
class RunningServer {
public:
    explicit RunningServer(std::shared_ptr<const QueryEngine> engine,
                           ServerConfig config = {})
        : server_(std::move(engine), std::move(config))
    {
        port_ = server_.listen();
        thread_ = std::thread([this] { server_.run(); });
    }

    ~RunningServer()
    {
        server_.request_stop();
        if (thread_.joinable()) thread_.join();
    }

    [[nodiscard]] int port() const { return port_; }
    [[nodiscard]] Server& server() { return server_; }
    [[nodiscard]] Client connect() { return Client::connect("127.0.0.1", port_); }

private:
    Server server_;
    int port_ = 0;
    std::thread thread_;
};

/// The value of one exposition sample ("name{labels}" or bare "name"),
/// or nullopt when the sample line is absent.
[[nodiscard]] std::optional<double> sample_value(const std::string& text,
                                                 const std::string& sample)
{
    const std::string haystack = "\n" + text;
    const std::string needle = "\n" + sample + " ";
    const std::size_t pos = haystack.find(needle);
    if (pos == std::string::npos) return std::nullopt;
    return std::stod(haystack.substr(pos + needle.size()));
}

/// Connections each of a server's `loops` event loops took on
/// (ccq_loop_connections_total{loop=...}).
[[nodiscard]] std::vector<double> connections_per_loop(const Server& server, int loops)
{
    const std::string text = server.metrics_text();
    std::vector<double> counts;
    for (int i = 0; i < loops; ++i)
        counts.push_back(
            sample_value(text, "ccq_loop_connections_total{loop=\"" + std::to_string(i) + "\"}")
                .value_or(-1.0));
    return counts;
}

/// Every Server test runs once per event-loop count; one loop and four
/// must be behaviorally indistinguishable through the whole suite.
class ServerBackends : public ::testing::TestWithParam<int> {
protected:
    [[nodiscard]] static ServerConfig backend_config()
    {
        ServerConfig config;
        config.workers = GetParam();
        return config;
    }
};

INSTANTIATE_TEST_SUITE_P(Loops, ServerBackends, ::testing::Values(1, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                             return "loops" + std::to_string(info.param);
                         });

TEST_P(ServerBackends, AnswersBitwiseIdenticalToTheEngine)
{
    const BuiltOracle built(InstanceSpec{GraphFamily::erdos_renyi_sparse, 40, 13});
    const auto engine = std::make_shared<const QueryEngine>(built.snapshot);
    RunningServer running(engine, backend_config());
    Client client = running.connect();

    EXPECT_EQ(client.ping(), kProtocolVersion);
    for (NodeId u = 0; u < 40; u += 3) {
        for (NodeId v = 0; v < 40; v += 5) {
            ASSERT_EQ(client.distance(u, v), engine->distance(u, v)) << u << "->" << v;
            ASSERT_EQ(client.path(u, v), engine->path(u, v)) << u << "->" << v;
        }
        ASSERT_EQ(client.nearest_targets(u, 7), engine->nearest_targets(u, 7)) << u;
    }

    std::vector<PointQuery> batch;
    for (NodeId u = 0; u < 40; ++u) batch.push_back({u, static_cast<NodeId>(39 - u)});
    EXPECT_EQ(client.batch_distances(batch), engine->batch_distances(batch));
    EXPECT_EQ(client.batch_paths(batch), engine->batch_paths(batch));
}

/// Sends `bodies` one frame at a time and returns the raw reply bodies.
[[nodiscard]] std::vector<std::string> raw_replies(int port,
                                                   const std::vector<std::string>& bodies)
{
    const std::unique_ptr<TcpStream> stream = TcpStream::connect("127.0.0.1", port);
    FrameReader reader(*stream);
    std::vector<std::string> replies;
    replies.reserve(bodies.size());
    for (const std::string& body : bodies) {
        write_frame(*stream, body);
        std::optional<std::string> reply = reader.next();
        if (!reply.has_value()) throw net_error("server closed early");
        replies.push_back(std::move(*reply));
    }
    return replies;
}

TEST_P(ServerBackends, PipelinedRepliesAreTheEngineAnswersBitwise)
{
    // Identical request bytes in, the in-process encoding of the
    // engine's answer out — binary and JSON alike, in request order,
    // with the whole script written before the first reply is read.
    const BuiltOracle built(InstanceSpec{GraphFamily::clustered, 32, 9});
    const auto engine = std::make_shared<const QueryEngine>(built.snapshot);

    std::vector<std::string> bodies;
    std::vector<std::string> expected;
    const auto add = [&](Request request, std::string reply) {
        bodies.push_back(encode_request(request));
        expected.push_back(std::move(reply));
    };
    Request ping;
    ping.op = Opcode::ping;
    add(ping, encode_ping_reply());
    for (NodeId u = 0; u < 32; u += 5)
        for (NodeId v = 0; v < 32; v += 7) {
            Request distance;
            distance.op = Opcode::distance;
            distance.from = u;
            distance.to = v;
            add(distance, encode_distance_reply(engine->distance(u, v)));
            Request path;
            path.op = Opcode::path;
            path.from = u;
            path.to = v;
            add(path, encode_path_reply(engine->path(u, v)));
        }
    Request nearest;
    nearest.op = Opcode::k_nearest;
    nearest.from = 3;
    nearest.k = 6;
    add(nearest, encode_nearest_reply(engine->nearest_targets(3, 6)));
    Request batch;
    batch.op = Opcode::batch_distances;
    for (NodeId u = 0; u < 32; ++u) batch.pairs.push_back({u, static_cast<NodeId>(31 - u)});
    add(batch, encode_batch_distances_reply(engine->batch_distances(batch.pairs)));
    Request bad;
    bad.op = Opcode::distance;
    bad.from = 4000; // typed out_of_range error
    add(bad, encode_error_reply(Status::out_of_range, "node 4000 outside [0, 32)"));
    const Weight d = engine->distance(1, 30);
    const std::string json_distance =
        "{\"op\":\"distance\",\"from\":1,\"to\":30,\"reachable\":" +
        std::string(is_finite(d) ? "true" : "false") +
        ",\"distance\":" + std::to_string(is_finite(d) ? d : -1) + "}";
    const std::vector<std::string> unchecked = {
        "\xee\xee\xee",                          // malformed, answered not dropped
        R"({"op":"distance","from":1,"to":30})", // JSON debug mode
        R"({"op":"nonsense"})",                  // JSON error
    };
    bodies.insert(bodies.end(), unchecked.begin(), unchecked.end());

    RunningServer running(engine, backend_config());
    const std::unique_ptr<TcpStream> stream = TcpStream::connect("127.0.0.1", running.port());
    std::string burst;
    for (const std::string& body : bodies) burst += encode_frame(body);
    stream->write_all(burst.data(), burst.size());
    FrameReader reader(*stream);
    std::vector<std::string> replies;
    for (std::size_t i = 0; i < bodies.size(); ++i) {
        std::optional<std::string> reply = reader.next();
        ASSERT_TRUE(reply.has_value()) << "reply " << i;
        replies.push_back(std::move(*reply));
    }
    for (std::size_t i = 0; i < expected.size(); ++i)
        ASSERT_EQ(replies[i], expected[i]) << "request " << i;
    const std::size_t tail = expected.size();
    EXPECT_EQ(split_reply(replies[tail]).first, Status::malformed);
    EXPECT_EQ(replies[tail + 1], json_distance);
    EXPECT_EQ(replies[tail + 2].rfind("{\"error\":{\"status\":\"malformed\"", 0), 0u)
        << replies[tail + 2];
}

TEST_P(ServerBackends, RoundTripEquivalenceAcrossCodecV2AndMmap)
{
    // The acceptance criterion of the serving subsystem: socket protocol
    // + compressed snapshot + mmap loading vs in-process eager answers.
    const BuiltOracle built(InstanceSpec{GraphFamily::clustered, 48, 3});

    const std::string v2_path = ::testing::TempDir() + "ccq_server_equiv_v2.snap";
    save_snapshot(v2_path, built.snapshot, SnapshotFormat::v2_compressed);

    const QueryEngine reference(load_snapshot(v2_path));
    const auto mapped = std::make_shared<const MappedSnapshot>(v2_path);
    RunningServer running(std::make_shared<const QueryEngine>(mapped), backend_config());
    Client client = running.connect();

    for (NodeId u = 0; u < 48; ++u)
        for (NodeId v = 0; v < 48; v += 3) {
            ASSERT_EQ(client.distance(u, v), reference.distance(u, v)) << u << "->" << v;
            ASSERT_EQ(client.path(u, v), reference.path(u, v)) << u << "->" << v;
        }
    std::remove(v2_path.c_str());
}

TEST_P(ServerBackends, ConcurrentClientsGetConsistentAnswers)
{
    const BuiltOracle built(InstanceSpec{GraphFamily::erdos_renyi_sparse, 32, 5});
    const auto engine = std::make_shared<const QueryEngine>(built.snapshot);
    RunningServer running(engine, backend_config());

    constexpr int kClients = 4;
    std::vector<std::thread> workers;
    std::atomic<int> failures{0};
    for (int w = 0; w < kClients; ++w)
        workers.emplace_back([&, w] {
            Client client = running.connect();
            Rng rng(static_cast<std::uint64_t>(w) + 1);
            for (int i = 0; i < 200; ++i) {
                const NodeId u = static_cast<NodeId>(rng.uniform_int(0, 31));
                const NodeId v = static_cast<NodeId>(rng.uniform_int(0, 31));
                if (client.distance(u, v) != engine->distance(u, v) ||
                    client.path(u, v) != engine->path(u, v))
                    failures.fetch_add(1);
            }
        });
    for (std::thread& worker : workers) worker.join();
    EXPECT_EQ(failures.load(), 0);

    const ServerStats stats = running.server().stats();
    EXPECT_EQ(stats.connections_accepted, static_cast<std::uint64_t>(kClients));
    EXPECT_GE(stats.frames_served, static_cast<std::uint64_t>(kClients) * 400);
    EXPECT_EQ(stats.errors, 0u);
    // The retired path cache's wire slots stay, always zero.
    EXPECT_EQ(stats.cache_hits, 0u);
    EXPECT_EQ(stats.cache_misses, 0u);
}

TEST_P(ServerBackends, PipelinedBatchesMatchSequentialAnswers)
{
    const BuiltOracle built(InstanceSpec{GraphFamily::erdos_renyi_sparse, 36, 21});
    const auto engine = std::make_shared<const QueryEngine>(built.snapshot);
    RunningServer running(engine, backend_config());
    Client client = running.connect();

    std::vector<PointQuery> queries;
    Rng rng(7);
    for (int i = 0; i < 500; ++i)
        queries.push_back({static_cast<NodeId>(rng.uniform_int(0, 35)),
                           static_cast<NodeId>(rng.uniform_int(0, 35))});

    const std::vector<Weight> pipelined = client.pipelined_distances(queries, /*window=*/16);
    const std::vector<PathResult> paths = client.pipelined_paths(queries, /*window=*/16);
    ASSERT_EQ(pipelined.size(), queries.size());
    ASSERT_EQ(paths.size(), queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
        ASSERT_EQ(pipelined[i], engine->distance(queries[i].from, queries[i].to)) << i;
        ASSERT_EQ(paths[i], engine->path(queries[i].from, queries[i].to)) << i;
    }
    // The connection is still in sync after two pipelined batches.
    EXPECT_EQ(client.ping(), kProtocolVersion);
}

TEST_P(ServerBackends, PipelinedErrorDrainsAndTheConnectionSurvives)
{
    const BuiltOracle built(InstanceSpec{GraphFamily::tree, 16, 2});
    const auto engine = std::make_shared<const QueryEngine>(built.snapshot);
    RunningServer running(engine, backend_config());
    Client client = running.connect();

    std::vector<PointQuery> queries;
    for (NodeId u = 0; u < 16; ++u) queries.push_back({u, static_cast<NodeId>(15 - u)});
    queries[7] = {400, 0}; // one typed failure mid-window
    try {
        (void)client.pipelined_distances(queries, /*window=*/8);
        FAIL() << "expected rpc_error";
    } catch (const rpc_error& error) {
        EXPECT_EQ(error.status(), Status::out_of_range);
    }
    // The in-flight tail was drained: the stream is at a frame boundary.
    EXPECT_EQ(client.distance(0, 5), engine->distance(0, 5));
}

TEST_P(ServerBackends, ManyFramesWrittenBeforeAnyReadComeBackInOrder)
{
    // The raw pipelining shape: the whole burst hits the server before
    // the client reads a single reply.  Responses must come back
    // complete, in request order.
    const BuiltOracle built(InstanceSpec{GraphFamily::clustered, 30, 11});
    const auto engine = std::make_shared<const QueryEngine>(built.snapshot);
    RunningServer running(engine, backend_config());

    const std::unique_ptr<TcpStream> stream = TcpStream::connect("127.0.0.1", running.port());
    constexpr int kBurst = 300;
    std::string burst;
    for (int i = 0; i < kBurst; ++i) {
        Request request;
        request.op = Opcode::distance;
        request.from = static_cast<NodeId>(i % 30);
        request.to = static_cast<NodeId>((i * 7) % 30);
        burst += encode_frame(encode_request(request));
    }
    stream->write_all(burst.data(), burst.size());
    FrameReader reader(*stream);
    for (int i = 0; i < kBurst; ++i) {
        const std::optional<std::string> reply = reader.next();
        ASSERT_TRUE(reply.has_value()) << "reply " << i;
        const auto [status, payload] = split_reply(*reply);
        ASSERT_EQ(status, Status::ok) << "reply " << i;
        ASSERT_EQ(decode_distance_reply(payload),
                  engine->distance(static_cast<NodeId>(i % 30),
                                   static_cast<NodeId>((i * 7) % 30)))
            << "reply " << i;
    }
}

TEST_P(ServerBackends, SlowLorisByteAtATimeStillGetsAnswered)
{
    // Two requests dribbled one byte per write: frame reassembly must
    // work at any fragmentation, and the second frame must not be
    // swallowed by the first one's read.
    const BuiltOracle built(InstanceSpec{GraphFamily::tree, 12, 2});
    const auto engine = std::make_shared<const QueryEngine>(built.snapshot);
    RunningServer running(engine, backend_config());

    const std::unique_ptr<TcpStream> stream = TcpStream::connect("127.0.0.1", running.port());
    FrameReader reader(*stream);
    for (const auto& [from, to] : {std::pair<NodeId, NodeId>{0, 5}, {3, 9}}) {
        Request request;
        request.op = Opcode::distance;
        request.from = from;
        request.to = to;
        const std::string wire = encode_frame(encode_request(request));
        for (const char byte : wire) stream->write_all(&byte, 1);
        const std::optional<std::string> reply = reader.next();
        ASSERT_TRUE(reply.has_value());
        const auto [status, payload] = split_reply(*reply);
        ASSERT_EQ(status, Status::ok);
        EXPECT_EQ(decode_distance_reply(payload), engine->distance(from, to));
    }
}

TEST_P(ServerBackends, ReadDisciplineLosesNoBytes)
{
    // A loop reads a connection until a short read and leaves the rest
    // to the next (level-triggered) readiness report; the client reads
    // replies 64 KiB at a time and keeps what it read ahead.  Neither
    // side may strand bytes.
    const BuiltOracle built(InstanceSpec{GraphFamily::erdos_renyi_sparse, 30, 5});
    const auto engine = std::make_shared<const QueryEngine>(built.snapshot);
    RunningServer running(engine, backend_config());
    const auto distance_frame = [](NodeId from, NodeId to) {
        Request request;
        request.op = Opcode::distance;
        request.from = from;
        request.to = to;
        return encode_frame(encode_request(request));
    };
    const auto expect_distance = [&](const std::optional<std::string>& reply, NodeId from,
                                     NodeId to) {
        ASSERT_TRUE(reply.has_value()) << from << "->" << to;
        const auto [status, payload] = split_reply(*reply);
        ASSERT_EQ(status, Status::ok) << from << "->" << to;
        EXPECT_EQ(decode_distance_reply(payload), engine->distance(from, to)) << from << "->" << to;
    };

    {
        SCOPED_TRACE("one byte per read, with pauses");
        const std::unique_ptr<TcpStream> stream = TcpStream::connect("127.0.0.1", running.port());
        for (const char byte : distance_frame(2, 17)) {
            stream->write_all(&byte, 1);
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        expect_distance(FrameReader(*stream).next(), 2, 17);
    }
    {
        SCOPED_TRACE("request, then EOF");
        const std::unique_ptr<TcpStream> stream = TcpStream::connect("127.0.0.1", running.port());
        const std::string wire = distance_frame(4, 9) + distance_frame(9, 4);
        stream->write_all(wire.data(), wire.size());
        ASSERT_EQ(::shutdown(stream->native_handle(), SHUT_WR), 0);
        FrameReader reader(*stream);
        expect_distance(reader.next(), 4, 9);
        expect_distance(reader.next(), 9, 4);
        EXPECT_EQ(reader.next(), std::nullopt) << "server must close after the peer's EOF";
    }
    {
        SCOPED_TRACE("a burst of several read chunks");
        constexpr int kBurst = 12000; // 13 bytes a frame: ~156 KB each way
        static_assert(kBurst * 13 > 2 * FrameReader::kFrameReadChunk);
        const std::unique_ptr<TcpStream> stream = TcpStream::connect("127.0.0.1", running.port());
        std::string burst;
        for (int i = 0; i < kBurst; ++i)
            burst += distance_frame(static_cast<NodeId>(i % 30), static_cast<NodeId>(i * 7 % 30));
        stream->write_all(burst.data(), burst.size());
        FrameReader reader(*stream);
        for (int i = 0; i < kBurst; ++i) {
            expect_distance(reader.next(), static_cast<NodeId>(i % 30),
                            static_cast<NodeId>(i * 7 % 30));
            if (::testing::Test::HasFatalFailure()) return;
        }
    }
    {
        SCOPED_TRACE("pipelined_distances with a window of several read chunks");
        std::vector<PointQuery> queries;
        for (int i = 0; i < 20000; ++i)
            queries.push_back({static_cast<NodeId>(i * 11 % 30), static_cast<NodeId>(i % 30)});
        Client client = running.connect();
        std::vector<Weight> expected;
        for (const PointQuery& q : queries) expected.push_back(engine->distance(q.from, q.to));
        EXPECT_EQ(client.pipelined_distances(queries, 8192), expected);
        EXPECT_EQ(client.pipelined_distances(queries, 3), expected);
        EXPECT_EQ(client.distance(5, 6), engine->distance(5, 6)); // still at a frame boundary
    }
}

TEST(Server, StalledReaderIsPausedNotBuffered)
{
    // Backpressure: a client that floods requests without reading its
    // replies must get its reads paused (bounded output queue), while
    // other connections stay responsive — and every reply must still
    // arrive, in order, once the reader catches up.
    const BuiltOracle built(InstanceSpec{GraphFamily::tree, 20, 4});
    const auto engine = std::make_shared<const QueryEngine>(built.snapshot);
    ServerConfig config;
    config.max_output_bytes = 1024;
    RunningServer running(engine, config);

    const std::unique_ptr<TcpStream> stall = TcpStream::connect("127.0.0.1", running.port());
    constexpr int kFlood = 400;
    std::string burst;
    for (int i = 0; i < kFlood; ++i) {
        Request request;
        request.op = Opcode::distance;
        request.from = static_cast<NodeId>(i % 20);
        request.to = static_cast<NodeId>((i + 1) % 20);
        burst += encode_frame(encode_request(request));
    }
    stall->write_all(burst.data(), burst.size()); // ...and read nothing

    // The output cap guarantees pauses while the flood drains.
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (running.server().backpressure_pauses() == 0 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_GT(running.server().backpressure_pauses(), 0u);

    // A well-behaved connection is not starved by the stalled one.
    Client polite = running.connect();
    EXPECT_EQ(polite.ping(), kProtocolVersion);
    EXPECT_EQ(polite.distance(0, 5), engine->distance(0, 5));

    // The stalled reader wakes up: every reply, in order.
    FrameReader reader(*stall);
    for (int i = 0; i < kFlood; ++i) {
        const std::optional<std::string> reply = reader.next();
        ASSERT_TRUE(reply.has_value()) << "reply " << i;
        const auto [status, payload] = split_reply(*reply);
        ASSERT_EQ(status, Status::ok) << "reply " << i;
        ASSERT_EQ(decode_distance_reply(payload),
                  engine->distance(static_cast<NodeId>(i % 20),
                                   static_cast<NodeId>((i + 1) % 20)))
            << "reply " << i;
    }
}

TEST(Server, EventLoopHoldsAThousandIdleConnections)
{
    // The reason the event loops exist: >=1024 concurrent connections
    // on a few loops without a thread per connection.
    constexpr std::size_t kConnections = 1100;
    if (!raise_fd_limit(2 * kConnections + 256))
        GTEST_SKIP() << "cannot raise RLIMIT_NOFILE high enough";

    const BuiltOracle built(InstanceSpec{GraphFamily::tree, 12, 2});
    const auto engine = std::make_shared<const QueryEngine>(built.snapshot);
    ServerConfig config;
    config.workers = 2; // two loops, however many connections land
    RunningServer running(engine, config);

    std::vector<std::unique_ptr<TcpStream>> idle;
    idle.reserve(kConnections);
    for (std::size_t i = 0; i < kConnections; ++i)
        idle.push_back(TcpStream::connect("127.0.0.1", running.port()));

    // All of them are accepted and live at once...
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (running.server().stats().connections_accepted < kConnections &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    const ServerStats stats = running.server().stats();
    EXPECT_GE(stats.connections_accepted, kConnections);
    EXPECT_GE(stats.active_connections, kConnections);

    // ...and the server still answers queries among the idle herd.
    Client active = running.connect();
    EXPECT_EQ(active.ping(), kProtocolVersion);
    EXPECT_EQ(active.distance(0, 5), engine->distance(0, 5));

    // A random idle connection still works too (it was not just parked
    // in an accept backlog).
    write_frame(*idle[kConnections / 2], encode_request(Request{}));
    const std::optional<std::string> reply = FrameReader(*idle[kConnections / 2]).next();
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(split_reply(*reply).first, Status::ok);
}

TEST_P(ServerBackends, MaxConnectionsShedsWithTypedBusyStatus)
{
    const BuiltOracle built(InstanceSpec{GraphFamily::tree, 12, 2});
    const auto engine = std::make_shared<const QueryEngine>(built.snapshot);
    ServerConfig config = backend_config();
    config.max_connections = 2;
    RunningServer running(engine, config);

    Client first = running.connect();
    Client second = running.connect();
    EXPECT_EQ(first.ping(), kProtocolVersion); // both fully registered
    EXPECT_EQ(second.ping(), kProtocolVersion);

    // The third connection is accepted just long enough to be told why
    // it is being dropped: one typed `busy` error frame, then close.
    const std::unique_ptr<TcpStream> shed = TcpStream::connect("127.0.0.1", running.port());
    FrameReader reader(*shed);
    const std::optional<std::string> reply = reader.next();
    ASSERT_TRUE(reply.has_value());
    try {
        const auto [status, payload] = split_reply(*reply);
        ASSERT_EQ(status, Status::busy);
    } catch (const protocol_error&) {
        FAIL() << "shed connection got an undecodable reply";
    }
    EXPECT_EQ(reader.next(), std::nullopt) << "server must close after shedding";

    // Shedding is load shedding, not lockout: room frees up, service
    // resumes, and the rejection is visible in the stats.
    { Client drop = std::move(first); }
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    for (;;) {
        try {
            Client retry = running.connect();
            EXPECT_EQ(retry.ping(), kProtocolVersion);
            break;
        } catch (const std::exception&) {
            if (std::chrono::steady_clock::now() >= deadline) {
                ADD_FAILURE() << "service never resumed after a slot freed";
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
    }
    EXPECT_GE(running.server().stats().connections_rejected, 1u);
}

TEST(Server, MaxConnectionsIsExactAcrossLoops)
{
    // Four loops accept concurrently from one listener; the limit is one
    // server-wide reservation, so exactly max_connections stay live and
    // every other connect is told `busy`.
    constexpr int kLimit = 8;
    constexpr int kConnects = 32;
    const BuiltOracle built(InstanceSpec{GraphFamily::tree, 12, 2});
    ServerConfig config;
    config.workers = 4;
    config.max_connections = kLimit;
    RunningServer running(std::make_shared<const QueryEngine>(built.snapshot), config);

    std::vector<std::unique_ptr<TcpStream>> streams(kConnects);
    {
        std::vector<std::thread> connectors;
        for (int i = 0; i < kConnects; ++i)
            connectors.emplace_back([&, i] {
                streams[static_cast<std::size_t>(i)] =
                    TcpStream::connect("127.0.0.1", running.port());
            });
        for (std::thread& connector : connectors) connector.join();
    }
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    const auto handled = [&] {
        const ServerStats stats = running.server().stats();
        return stats.connections_accepted + stats.connections_rejected;
    };
    while (handled() < static_cast<std::uint64_t>(kConnects) &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    const ServerStats stats = running.server().stats();
    EXPECT_EQ(stats.connections_accepted, static_cast<std::uint64_t>(kLimit));
    EXPECT_EQ(stats.connections_rejected, static_cast<std::uint64_t>(kConnects - kLimit));
    EXPECT_EQ(stats.active_connections, static_cast<std::uint64_t>(kLimit));

    // Client side: a shed connection has its busy frame waiting; a live
    // one has nothing to read until it asks.
    int busy = 0;
    int live = 0;
    for (const std::unique_ptr<TcpStream>& stream : streams) {
        pollfd readable = {stream->native_handle(), POLLIN, 0};
        FrameReader reader(*stream);
        if (::poll(&readable, 1, 200) == 1) {
            const std::optional<std::string> reply = reader.next();
            ASSERT_TRUE(reply.has_value());
            EXPECT_EQ(split_reply(*reply).first, Status::busy);
            EXPECT_EQ(reader.next(), std::nullopt) << "server must close after shedding";
            ++busy;
        } else {
            write_frame(*stream, encode_request(Request{}));
            const std::optional<std::string> reply = reader.next();
            ASSERT_TRUE(reply.has_value());
            EXPECT_EQ(split_reply(*reply).first, Status::ok);
            ++live;
        }
    }
    EXPECT_EQ(live, kLimit);
    EXPECT_EQ(busy, kConnects - kLimit);
    // The limit held across loops: whichever loops won the accepts, the
    // live connections were dealt out round-robin, two to each, and
    // each answered its ping above from the loop that owns it.
    EXPECT_EQ(connections_per_loop(running.server(), 4), std::vector<double>(4, 2.0));
}

TEST_P(ServerBackends, ClientPoolReusesConnections)
{
    const BuiltOracle built(InstanceSpec{GraphFamily::tree, 12, 2});
    const auto engine = std::make_shared<const QueryEngine>(built.snapshot);
    RunningServer running(engine, backend_config());

    ClientPool pool("127.0.0.1", running.port());
    {
        ClientPool::Lease lease = pool.acquire();
        EXPECT_EQ(lease->ping(), kProtocolVersion);
        EXPECT_EQ(pool.idle_count(), 0u);
    }
    EXPECT_EQ(pool.idle_count(), 1u);
    {
        ClientPool::Lease lease = pool.acquire(); // reused, not re-dialed
        EXPECT_EQ(lease->distance(0, 5), engine->distance(0, 5));
    }
    EXPECT_EQ(running.server().stats().connections_accepted, 1u);

    // discard() drops a (possibly desynced) connection instead of
    // returning it; the next acquire dials fresh.
    {
        ClientPool::Lease lease = pool.acquire();
        lease.discard();
    }
    EXPECT_EQ(pool.idle_count(), 0u);
    {
        ClientPool::Lease lease = pool.acquire();
        EXPECT_EQ(lease->ping(), kProtocolVersion);
    }
    EXPECT_EQ(running.server().stats().connections_accepted, 2u);
}

TEST_P(ServerBackends, RejectsBadRequestsWithTypedStatuses)
{
    const BuiltOracle built(InstanceSpec{GraphFamily::tree, 12, 2});
    const auto engine = std::make_shared<const QueryEngine>(built.snapshot);
    RunningServer running(engine, backend_config());
    Client client = running.connect();

    try {
        (void)client.distance(200, 0);
        FAIL() << "expected rpc_error";
    } catch (const rpc_error& error) {
        EXPECT_EQ(error.status(), Status::out_of_range);
    }
    try {
        (void)client.nearest_targets(0, -1);
        FAIL() << "expected rpc_error";
    } catch (const rpc_error& error) {
        EXPECT_EQ(error.status(), Status::out_of_range);
    }
    // The connection survives a rejected request.
    EXPECT_EQ(client.distance(0, 5), engine->distance(0, 5));
    EXPECT_GE(running.server().stats().errors, 2u);
}

TEST_P(ServerBackends, PathAgainstRoutinglessSnapshotIsUnsupported)
{
    const Graph g = testing::make_instance(InstanceSpec{GraphFamily::tree, 12, 2});
    const ApspResult result = DistanceOracle(g, ApspAlgorithmKind::logn_baseline).result();
    const auto engine = std::make_shared<const QueryEngine>(
        OracleSnapshot::from_result(g, result, 1)); // no routing tables
    RunningServer running(engine, backend_config());
    Client client = running.connect();
    try {
        (void)client.path(0, 5);
        FAIL() << "expected rpc_error";
    } catch (const rpc_error& error) {
        EXPECT_EQ(error.status(), Status::unsupported);
    }
    EXPECT_EQ(client.distance(0, 5), engine->distance(0, 5));
}

TEST_P(ServerBackends, MalformedFrameGetsAnErrorAndTheConnectionSurvives)
{
    const BuiltOracle built(InstanceSpec{GraphFamily::tree, 12, 2});
    RunningServer running(std::make_shared<const QueryEngine>(built.snapshot),
                          backend_config());

    std::unique_ptr<TcpStream> raw = TcpStream::connect("127.0.0.1", running.port());
    write_frame(*raw, "\xee\xee\xee"); // unknown opcode + garbage
    FrameReader reader(*raw);
    const std::optional<std::string> error_reply = reader.next();
    ASSERT_TRUE(error_reply.has_value());
    EXPECT_EQ(split_reply(*error_reply).first, Status::malformed);

    // Framing is intact, so a well-formed request still succeeds.
    Request request;
    request.op = Opcode::ping;
    write_frame(*raw, encode_request(request));
    const std::optional<std::string> ok_reply = reader.next();
    ASSERT_TRUE(ok_reply.has_value());
    EXPECT_EQ(split_reply(*ok_reply).first, Status::ok);
}

TEST_P(ServerBackends, JsonDebugModeAnswersJson)
{
    const BuiltOracle built(InstanceSpec{GraphFamily::tree, 12, 2});
    const auto engine = std::make_shared<const QueryEngine>(built.snapshot);
    RunningServer running(engine, backend_config());
    Client client = running.connect();

    const Weight expected = engine->distance(0, 5);
    const std::string reply = client.json_request(R"({"op":"distance","from":0,"to":5})");
    EXPECT_EQ(reply, "{\"op\":\"distance\",\"from\":0,\"to\":5,\"reachable\":true,"
                     "\"distance\":" + std::to_string(expected) + "}");

    const std::string error = client.json_request(R"({"op":"distance","from":99,"to":0})");
    EXPECT_EQ(error.rfind("{\"error\"", 0), 0u) << error;

    // A JSON body that fails to even parse (overflowing number) must
    // still be answered in JSON, on a surviving connection.
    const std::string overflow =
        client.json_request(R"({"op":"distance","from":99999999999999999999999,"to":1})");
    EXPECT_EQ(overflow.rfind("{\"error\"", 0), 0u) << overflow;
    EXPECT_NE(overflow.find("malformed"), std::string::npos) << overflow;

    const std::string stats = client.json_request(R"({"op":"stats"})");
    EXPECT_NE(stats.find("\"node_count\":12"), std::string::npos) << stats;
    EXPECT_NE(stats.find("\"backpressure_pauses\":0"), std::string::npos) << stats;
    EXPECT_NE(stats.find("\"build_total_rounds\":"), std::string::npos) << stats;

    const std::string scrape = client.json_request(R"({"op":"metrics"})");
    EXPECT_EQ(scrape.rfind("{\"op\":\"metrics\"", 0), 0u) << scrape;
    EXPECT_NE(scrape.find("text/plain"), std::string::npos) << scrape;
    EXPECT_NE(scrape.find("ccq_requests_total"), std::string::npos) << scrape;
}

TEST_P(ServerBackends, MetricsScrapeCountsScriptedWorkloadExactly)
{
    const BuiltOracle built(InstanceSpec{GraphFamily::erdos_renyi_sparse, 30, 4});
    const auto engine = std::make_shared<const QueryEngine>(built.snapshot);
    RunningServer running(engine, backend_config());
    Client client = running.connect();

    // Scripted workload with known per-op counts.
    for (int i = 0; i < 3; ++i) (void)client.ping();
    for (NodeId v = 1; v <= 5; ++v) (void)client.distance(0, v);
    for (NodeId v = 1; v <= 2; ++v) (void)client.path(0, v);
    (void)client.nearest_targets(0, 4);
    (void)client.stats();
    EXPECT_THROW((void)client.distance(999, 0), rpc_error); // one distance error

    const std::string text = client.metrics();
    EXPECT_EQ(sample_value(text, "ccq_requests_total{op=\"ping\",status=\"ok\"}"), 3.0);
    EXPECT_EQ(sample_value(text, "ccq_requests_total{op=\"distance\",status=\"ok\"}"), 5.0);
    EXPECT_EQ(sample_value(text, "ccq_requests_total{op=\"distance\",status=\"error\"}"), 1.0);
    EXPECT_EQ(sample_value(text, "ccq_requests_total{op=\"path\",status=\"ok\"}"), 2.0);
    EXPECT_EQ(sample_value(text, "ccq_requests_total{op=\"k_nearest\",status=\"ok\"}"), 1.0);
    EXPECT_EQ(sample_value(text, "ccq_requests_total{op=\"stats\",status=\"ok\"}"), 1.0);
    // Latency histograms observe exactly the ok+error request count.
    EXPECT_EQ(sample_value(text, "ccq_request_latency_us_count{op=\"distance\"}"), 6.0);
    EXPECT_EQ(sample_value(text, "ccq_request_latency_us_count{op=\"ping\"}"), 3.0);
    // A scrape renders before its own accounting lands: the first
    // scrape reports zero metrics ops, the next reports that one.
    EXPECT_EQ(sample_value(text, "ccq_requests_total{op=\"metrics\",status=\"ok\"}"), 0.0);
    const std::string second = client.metrics();
    EXPECT_EQ(sample_value(second, "ccq_requests_total{op=\"metrics\",status=\"ok\"}"), 1.0);

    // Transport and engine metrics ride the same scrape.
    EXPECT_GT(sample_value(second, "ccq_bytes_read_total").value_or(0.0), 0.0);
    EXPECT_GT(sample_value(second, "ccq_bytes_written_total").value_or(0.0), 0.0);
    EXPECT_EQ(sample_value(second, "ccq_connections_accepted_total"), 1.0);
    EXPECT_EQ(sample_value(second, "ccq_connection_events_total{event=\"opened\"}"), 1.0);
    EXPECT_EQ(sample_value(second, "ccq_snapshot_nodes"), 30.0);
    // The engine keeps no path cache, so it exports no cache family.
    EXPECT_EQ(second.find("ccq_cache_events_total"), std::string::npos);
    EXPECT_EQ(sample_value(second, "ccq_snapshot_build_rounds"),
              built.snapshot.meta.total_rounds);
    // The engine's width-dispatch counters render on every scrape
    // (values are process-lifetime, so only presence is asserted here;
    // tests/test_kernel_width.cpp pins the increments).
    ASSERT_TRUE(
        sample_value(second, "ccq_engine_products_total{width=\"wide\"}").has_value());
    ASSERT_TRUE(
        sample_value(second, "ccq_engine_products_total{width=\"narrow\"}").has_value());
    ASSERT_TRUE(
        sample_value(second, "ccq_engine_sparse_skip_products_total").has_value());
}

TEST_P(ServerBackends, MetricsDisabledStillAnswersWithZeroRequestCounts)
{
    const BuiltOracle built(InstanceSpec{GraphFamily::tree, 12, 2});
    ServerConfig config = backend_config();
    config.metrics = false;
    RunningServer running(std::make_shared<const QueryEngine>(built.snapshot), config);
    Client client = running.connect();

    for (int i = 0; i < 4; ++i) (void)client.ping();
    const std::string text = client.metrics();
    // Hot-path recording is off...
    EXPECT_EQ(sample_value(text, "ccq_requests_total{op=\"ping\",status=\"ok\"}"), 0.0);
    EXPECT_EQ(sample_value(text, "ccq_bytes_read_total"), 0.0);
    // ...but cheap per-connection lifecycle events still count, and the
    // ServerStats collector still renders.
    EXPECT_EQ(sample_value(text, "ccq_connection_events_total{event=\"opened\"}"), 1.0);
    EXPECT_EQ(sample_value(text, "ccq_frames_served_total"), 4.0);
}

TEST_P(ServerBackends, StatsCarryLedgerTotalsFromTheSnapshot)
{
    const BuiltOracle built(InstanceSpec{GraphFamily::erdos_renyi_sparse, 24, 9});
    const auto engine = std::make_shared<const QueryEngine>(built.snapshot);
    RunningServer running(engine, backend_config());
    Client client = running.connect();

    const ServerStats stats = client.stats();
    EXPECT_EQ(stats.build_total_rounds, built.snapshot.meta.total_rounds);
    EXPECT_EQ(stats.build_total_words, built.snapshot.meta.total_words);
    EXPECT_GT(stats.build_total_rounds, 0.0);
    EXPECT_EQ(stats.backpressure_pauses, running.server().backpressure_pauses());
}

TEST_P(ServerBackends, ShutdownFrameStopsTheAcceptLoopGracefully)
{
    const BuiltOracle built(InstanceSpec{GraphFamily::tree, 12, 2});
    Server server(std::make_shared<const QueryEngine>(built.snapshot), backend_config());
    const int port = server.listen();
    std::thread accept_thread([&server] { server.run(); });

    {
        Client client = Client::connect("127.0.0.1", port);
        EXPECT_EQ(client.distance(0, 5) >= 0, true);
        client.shutdown_server(); // acknowledged before the server stops
    }
    accept_thread.join(); // run() must return on its own
    EXPECT_TRUE(server.stopping());
    EXPECT_THROW((void)Client::connect("127.0.0.1", port), net_error);
}

TEST_P(ServerBackends, ShutdownTokenRejectsUnauthenticatedFrames)
{
    // The ROADMAP-flagged hole: anyone who could connect could stop the
    // server.  With a configured token, a tokenless or wrong-token
    // shutdown must answer `forbidden` and leave the server serving.
    const BuiltOracle built(InstanceSpec{GraphFamily::tree, 12, 2});
    const auto engine = std::make_shared<const QueryEngine>(built.snapshot);
    ServerConfig config = backend_config();
    config.shutdown_token = "s3cret";
    RunningServer running(engine, config);
    Client client = running.connect();

    try {
        client.shutdown_server(); // legacy tokenless frame
        FAIL() << "expected rpc_error";
    } catch (const rpc_error& error) {
        EXPECT_EQ(error.status(), Status::forbidden);
    }
    try {
        client.shutdown_server("wrong");
        FAIL() << "expected rpc_error";
    } catch (const rpc_error& error) {
        EXPECT_EQ(error.status(), Status::forbidden);
    }

    // The server is still up and the same connection still answers.
    EXPECT_FALSE(running.server().stopping());
    EXPECT_EQ(client.distance(0, 5), engine->distance(0, 5));
    // A fresh connection also still lands (the listener is alive).
    Client fresh = running.connect();
    EXPECT_EQ(fresh.ping(), kProtocolVersion);
    EXPECT_GE(running.server().stats().errors, 2u);

    // The JSON debug mode goes through the same gate.
    const std::string denied = fresh.json_request(R"({"op":"shutdown"})");
    EXPECT_EQ(denied.rfind("{\"error\"", 0), 0u) << denied;
    EXPECT_NE(denied.find("forbidden"), std::string::npos) << denied;
    EXPECT_FALSE(running.server().stopping());
}

TEST_P(ServerBackends, ShutdownTokenAcceptsTheRightToken)
{
    const BuiltOracle built(InstanceSpec{GraphFamily::tree, 12, 2});
    ServerConfig config = backend_config();
    config.shutdown_token = "s3cret";
    Server server(std::make_shared<const QueryEngine>(built.snapshot), config);
    const int port = server.listen();
    std::thread accept_thread([&server] { server.run(); });

    Client client = Client::connect("127.0.0.1", port);
    client.shutdown_server("s3cret"); // acknowledged before the server stops
    accept_thread.join();             // run() must return on its own
    EXPECT_TRUE(server.stopping());
}

TEST_P(ServerBackends, JsonShutdownWithTokenStopsTheServer)
{
    const BuiltOracle built(InstanceSpec{GraphFamily::tree, 12, 2});
    ServerConfig config = backend_config();
    config.shutdown_token = "tok";
    Server server(std::make_shared<const QueryEngine>(built.snapshot), config);
    const int port = server.listen();
    std::thread accept_thread([&server] { server.run(); });

    Client client = Client::connect("127.0.0.1", port);
    const std::string reply = client.json_request(R"({"op":"shutdown","token":"tok"})");
    EXPECT_EQ(reply, "{\"op\":\"shutdown\",\"ok\":true}");
    accept_thread.join();
    EXPECT_TRUE(server.stopping());
}

TEST_P(ServerBackends, TokenlessServerKeepsOpenShutdown)
{
    // Back-compat: no configured token means any shutdown frame —
    // including one that carries a token — still stops the server.
    const BuiltOracle built(InstanceSpec{GraphFamily::tree, 12, 2});
    Server server(std::make_shared<const QueryEngine>(built.snapshot), backend_config());
    const int port = server.listen();
    std::thread accept_thread([&server] { server.run(); });
    Client client = Client::connect("127.0.0.1", port);
    client.shutdown_server("ignored");
    accept_thread.join();
    EXPECT_TRUE(server.stopping());
}

TEST_P(ServerBackends, RequestStopUnblocksIdleConnections)
{
    const BuiltOracle built(InstanceSpec{GraphFamily::tree, 12, 2});
    Server server(std::make_shared<const QueryEngine>(built.snapshot), backend_config());
    const int port = server.listen();
    std::thread accept_thread([&server] { server.run(); });

    // An idle client parks an armed epoll interest on its loop;
    // request_stop must still drain everything without hanging.
    Client idle = Client::connect("127.0.0.1", port);
    EXPECT_EQ(idle.ping(), kProtocolVersion);
    server.request_stop();
    accept_thread.join();
}

TEST(Server, ServeStreamSpeaksTheProtocolOverASocketpair)
{
    // The stdio mode without process games: one socketpair, the server
    // serving one end inline, a Client on the other.
    const BuiltOracle built(InstanceSpec{GraphFamily::clustered, 24, 7});
    const auto engine = std::make_shared<const QueryEngine>(built.snapshot);
    Server server(engine);

    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    std::thread serving([&server, fd = fds[0]] {
        FdStream stream(fd, fd, /*owns=*/true);
        server.serve_stream(stream);
    });
    {
        Client client(std::make_unique<FdStream>(fds[1], fds[1], /*owns=*/true));
        for (NodeId u = 0; u < 24; u += 4)
            for (NodeId v = 0; v < 24; v += 4) {
                ASSERT_EQ(client.distance(u, v), engine->distance(u, v));
                ASSERT_EQ(client.path(u, v), engine->path(u, v));
            }
    } // Client destruction closes the socket: EOF ends serve_stream.
    serving.join();
    EXPECT_EQ(server.stats().connections_accepted, 1u);
}

TEST_P(ServerBackends, TaggedAndUntaggedRequestsGetIdenticalReplies)
{
    // The trace envelope must be invisible in the reply bytes: a tagged
    // request and its untagged twin answer identically.
    const BuiltOracle built(InstanceSpec{GraphFamily::clustered, 24, 7});
    const auto engine = std::make_shared<const QueryEngine>(built.snapshot);
    RunningServer running(engine, backend_config());

    std::vector<std::string> untagged;
    Request ping;
    ping.op = Opcode::ping;
    untagged.push_back(encode_request(ping));
    Request distance;
    distance.op = Opcode::distance;
    distance.from = 2;
    distance.to = 19;
    untagged.push_back(encode_request(distance));
    Request path;
    path.op = Opcode::path;
    path.from = 0;
    path.to = 23;
    untagged.push_back(encode_request(path));
    Request bad;
    bad.op = Opcode::distance;
    bad.from = 4000;
    untagged.push_back(encode_request(bad)); // errors answer identically too

    std::vector<std::string> tagged;
    std::uint64_t trace_id = 50;
    for (const std::string& body : untagged)
        tagged.push_back(wrap_trace_envelope(TraceContext{trace_id++, true}, body));

    const std::vector<std::string> plain = raw_replies(running.port(), untagged);
    const std::vector<std::string> traced = raw_replies(running.port(), tagged);
    ASSERT_EQ(plain.size(), traced.size());
    for (std::size_t i = 0; i < plain.size(); ++i)
        EXPECT_EQ(plain[i], traced[i]) << "request " << i;
}

TEST_P(ServerBackends, FlightRecorderReturnsTheScriptedWorkloadExactly)
{
    const BuiltOracle built(InstanceSpec{GraphFamily::tree, 12, 2});
    const auto engine = std::make_shared<const QueryEngine>(built.snapshot);
    RunningServer running(engine, backend_config());
    Client client = running.connect();
    client.enable_trace_envelopes(100);

    (void)client.ping();                                     // trace 100
    (void)client.distance(0, 5);                             // trace 101
    (void)client.path(0, 5);                                 // trace 102
    EXPECT_THROW((void)client.distance(999, 0), rpc_error);  // trace 103

    // The flight dump itself commits only after it executes, so the
    // snapshot holds exactly the four prior requests, oldest first.
    const std::vector<obs::RequestRecord> records = client.flight_records();
    ASSERT_EQ(records.size(), 4u);

    const auto expect_record = [](const obs::RequestRecord& rec, Opcode op, Status status,
                                  std::uint64_t trace_id, std::uint32_t request_bytes) {
        EXPECT_EQ(rec.opcode, static_cast<std::uint8_t>(op));
        EXPECT_EQ(rec.status, static_cast<std::uint8_t>(status));
        EXPECT_EQ(rec.trace_id, trace_id);
        EXPECT_TRUE(rec.sampled);
        EXPECT_EQ(rec.request_bytes, request_bytes);
        EXPECT_GT(rec.reply_bytes, 4u);
        EXPECT_NE(rec.conn_id, 0u);
    };
    // request_bytes = frame prefix 4 + envelope 10 + opcode 1 (+ 2*i32
    // operands for the point queries).
    expect_record(records[0], Opcode::ping, Status::ok, 100, 15);
    expect_record(records[1], Opcode::distance, Status::ok, 101, 23);
    expect_record(records[2], Opcode::path, Status::ok, 102, 23);
    expect_record(records[3], Opcode::distance, Status::out_of_range, 103, 23);

    EXPECT_EQ(records[0].reply_bytes, 9u); // 4 + status + protocol u32
    for (std::size_t i = 1; i < records.size(); ++i) {
        EXPECT_GT(records[i].seq, records[i - 1].seq);
        EXPECT_EQ(records[i].conn_id, records[0].conn_id);
    }
}

TEST_P(ServerBackends, FlightRingKeepsOnlyTheLastRecords)
{
    const BuiltOracle built(InstanceSpec{GraphFamily::tree, 12, 2});
    ServerConfig config = backend_config();
    config.flight_records = 4;
    RunningServer running(std::make_shared<const QueryEngine>(built.snapshot), config);
    Client client = running.connect();

    for (int i = 0; i < 10; ++i) (void)client.ping();
    const std::vector<obs::RequestRecord> records = client.flight_records();
    ASSERT_EQ(records.size(), 4u);
    // Sequences 0..9 were recorded; the ring holds the newest four.
    EXPECT_EQ(records.front().seq, 6u);
    EXPECT_EQ(records.back().seq, 9u);
    for (const obs::RequestRecord& rec : records) {
        EXPECT_EQ(rec.opcode, static_cast<std::uint8_t>(Opcode::ping));
        EXPECT_EQ(rec.trace_id, 0u); // untagged requests record id 0
        EXPECT_FALSE(rec.sampled);
    }
}

TEST_P(ServerBackends, FlightRecorderAnswersWithMetricsDisabled)
{
    // --no-metrics turns off aggregate counters, not the flight ring:
    // the last-N dump is exactly the tool you want on a server that was
    // started lean.
    const BuiltOracle built(InstanceSpec{GraphFamily::tree, 12, 2});
    ServerConfig config = backend_config();
    config.metrics = false;
    RunningServer running(std::make_shared<const QueryEngine>(built.snapshot), config);
    Client client = running.connect();

    for (int i = 0; i < 3; ++i) (void)client.ping();
    const std::vector<obs::RequestRecord> records = client.flight_records();
    ASSERT_EQ(records.size(), 3u);
    for (const obs::RequestRecord& rec : records)
        EXPECT_EQ(rec.opcode, static_cast<std::uint8_t>(Opcode::ping));
}

TEST_P(ServerBackends, SampledRequestRendersAConnectedSpanChain)
{
    // The tentpole acceptance criterion: one sampled request shows up in
    // the chrome://tracing stream as the full decode → queue → execute
    // → encode → flush chain, tied together by its trace id.
    struct TracerGuard {
        ~TracerGuard()
        {
            obs::Tracer::global().disable();
            obs::Tracer::global().clear();
        }
    } guard;
    obs::Tracer::global().clear();
    obs::Tracer::global().enable();

    const BuiltOracle built(InstanceSpec{GraphFamily::tree, 12, 2});
    const auto engine = std::make_shared<const QueryEngine>(built.snapshot);
    RunningServer running(engine, backend_config());
    Client client = running.connect();

    client.enable_trace_envelopes(0xabc123);
    (void)client.distance(0, 5);
    // An untagged follow-up forces the sampled request's commit to
    // happen-before this reply (frames are processed in order), so the
    // render below cannot race it — and being unsampled, it must add no
    // spans of its own.
    client.disable_trace_envelopes();
    (void)client.ping();

    const std::string json = obs::Tracer::global().render_json();
    for (const char* name : {"req/queue", "req/decode", "req/execute", "req/encode", "req/flush"})
        EXPECT_NE(json.find(name), std::string::npos) << name << " missing in " << json;
    EXPECT_NE(json.find("0xabc123"), std::string::npos) << json;
    EXPECT_NE(json.find("\"op\":\"distance\""), std::string::npos) << json;
    EXPECT_EQ(json.find("\"op\":\"ping\""), std::string::npos) << "unsampled request traced";
}

/// A canned v1 server: replays scripted reply frames and swallows
/// whatever the client writes.
class ScriptedV1Server : public Stream {
public:
    void push_reply(const std::string& body) { wire_ += encode_frame(body); }

    std::size_t read_some(void* buffer, std::size_t count) override
    {
        const std::size_t take = std::min(count, wire_.size() - offset_);
        std::memcpy(buffer, wire_.data() + offset_, take);
        offset_ += take;
        return take;
    }
    void write_all(const void*, std::size_t) override {}
    void interrupt() noexcept override {}

private:
    std::string wire_;
    std::size_t offset_ = 0;
};

TEST(Server, VersionSkewAgainstASimulatedV1Peer)
{
    // A v2 client talking to a v1 server: stats decode from the shorter
    // v1 shape with the v2 trailer defaulted, and the ops the v1 server
    // does not know (metrics scrape, flight dump, tagged frames) come
    // back as typed `malformed` errors — detectable skew, never a torn
    // connection or a garbage decode.
    auto scripted = std::make_unique<ScriptedV1Server>();
    ServerStats v1_stats;
    v1_stats.frames_served = 5;
    v1_stats.node_count = 12;
    v1_stats.backpressure_pauses = 9;     // trailer fields a v1 server
    v1_stats.build_total_rounds = 3.25;   // never sends: forged below by
    v1_stats.build_total_words = 64;      // truncating the reply
    std::string stats_reply = encode_stats_reply(v1_stats);
    stats_reply.resize(stats_reply.size() - 24 - 17); // strip the v2+v3 trailers
    scripted->push_reply(stats_reply);
    scripted->push_reply(encode_error_reply(Status::malformed, "unknown opcode 0x11"));
    scripted->push_reply(encode_error_reply(Status::malformed, "unknown opcode 0x12"));
    scripted->push_reply(encode_error_reply(Status::malformed, "unknown opcode 0x1e"));

    Client client(std::move(scripted));
    const ServerStats decoded = client.stats();
    EXPECT_EQ(decoded.frames_served, 5u);
    EXPECT_EQ(decoded.node_count, 12);
    EXPECT_EQ(decoded.backpressure_pauses, 0u);
    EXPECT_EQ(decoded.build_total_rounds, 0.0);
    EXPECT_EQ(decoded.build_total_words, 0u);

    try {
        (void)client.metrics();
        FAIL() << "expected rpc_error";
    } catch (const rpc_error& error) {
        EXPECT_EQ(error.status(), Status::malformed);
    }
    try {
        (void)client.flight_records();
        FAIL() << "expected rpc_error";
    } catch (const rpc_error& error) {
        EXPECT_EQ(error.status(), Status::malformed);
    }
    client.enable_trace_envelopes(1);
    try {
        (void)client.ping(); // tagged frame: v1 sees marker 0x1e as an opcode
        FAIL() << "expected rpc_error";
    } catch (const rpc_error& error) {
        EXPECT_EQ(error.status(), Status::malformed);
    }
}

} // namespace
} // namespace ccq
