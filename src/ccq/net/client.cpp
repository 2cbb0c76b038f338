#include "ccq/net/client.hpp"

#include <utility>

#include "ccq/common/bytes.hpp"
#include "ccq/common/check.hpp"

namespace ccq {
namespace {

[[nodiscard]] Stream& non_null(const std::unique_ptr<Stream>& stream)
{
    CCQ_EXPECT(stream != nullptr, "Client: null stream");
    return *stream;
}

} // namespace

Client::Client(std::unique_ptr<Stream> stream)
    : stream_(std::move(stream)), reader_(non_null(stream_))
{
}

Client Client::connect(const std::string& host, int port)
{
    return Client(TcpStream::connect(host, port));
}

std::string Client::request_body(const Request& request)
{
    std::string body = encode_request(request);
    if (trace_enabled_)
        body = wrap_trace_envelope(TraceContext{next_trace_id_++, trace_sampled_}, body);
    return body;
}

std::string Client::roundtrip(const Request& request)
{
    write_frame(*stream_, request_body(request));
    std::optional<std::string> reply = reader_.next();
    if (!reply.has_value()) throw net_error("server closed the connection");
    const auto [status, payload] = split_reply(*reply);
    if (status != Status::ok) {
        std::string message;
        try {
            ByteReader reader(payload);
            message = reader.str();
        } catch (const decode_error&) {
            message = "(garbled error message)";
        }
        throw rpc_error(status, message);
    }
    return std::string(payload);
}

std::uint32_t Client::ping()
{
    Request request;
    request.op = Opcode::ping;
    return decode_ping_reply(roundtrip(request));
}

Weight Client::distance(NodeId from, NodeId to)
{
    Request request;
    request.op = Opcode::distance;
    request.from = from;
    request.to = to;
    return decode_distance_reply(roundtrip(request));
}

PathResult Client::path(NodeId from, NodeId to)
{
    Request request;
    request.op = Opcode::path;
    request.from = from;
    request.to = to;
    return decode_path_reply(roundtrip(request));
}

std::vector<NearTarget> Client::nearest_targets(NodeId from, int k)
{
    Request request;
    request.op = Opcode::k_nearest;
    request.from = from;
    request.k = k;
    return decode_nearest_reply(roundtrip(request));
}

namespace {

/// The reply's element count is server-controlled: callers index the
/// result by their own query count, so a short reply must fail here,
/// not as an out-of-bounds read later.
template <class T>
void check_batch_size(const std::vector<T>& results, std::size_t expected)
{
    if (results.size() != expected)
        throw protocol_error("batch reply has " + std::to_string(results.size()) +
                             " results for " + std::to_string(expected) + " queries");
}

} // namespace

std::vector<Weight> Client::batch_distances(std::span<const PointQuery> queries)
{
    Request request;
    request.op = Opcode::batch_distances;
    request.pairs.assign(queries.begin(), queries.end());
    std::vector<Weight> distances = decode_batch_distances_reply(roundtrip(request));
    check_batch_size(distances, queries.size());
    return distances;
}

std::vector<PathResult> Client::batch_paths(std::span<const PointQuery> queries)
{
    Request request;
    request.op = Opcode::batch_paths;
    request.pairs.assign(queries.begin(), queries.end());
    std::vector<PathResult> paths = decode_batch_paths_reply(roundtrip(request));
    check_batch_size(paths, queries.size());
    return paths;
}

ServerStats Client::stats()
{
    Request request;
    request.op = Opcode::stats;
    return decode_stats_reply(roundtrip(request));
}

std::string Client::metrics()
{
    Request request;
    request.op = Opcode::metrics;
    return decode_metrics_reply(roundtrip(request));
}

std::vector<obs::RequestRecord> Client::flight_records()
{
    Request request;
    request.op = Opcode::flight;
    return decode_flight_reply(roundtrip(request));
}

namespace {

[[nodiscard]] std::string error_message_of(std::string_view payload)
{
    try {
        ByteReader reader(payload);
        return reader.str();
    } catch (const decode_error&) {
        return "(garbled error message)";
    }
}

/// The shared pipelining engine: keeps up to `window` frames in flight,
/// coalescing each window top-up into one write, and consumes replies in
/// arrival order.  After a non-ok reply the remaining in-flight replies
/// are drained so the connection ends at a frame boundary, then the
/// first error is thrown.
template <class EncodeBody, class MakeRequest, class OnPayload>
void run_pipeline(FrameReader& reader, std::size_t count, int window, EncodeBody encode_body,
                  MakeRequest make_request, OnPayload on_payload)
{
    CCQ_EXPECT(window >= 1, "pipelined batch: window must be >= 1");
    std::size_t sent = 0;
    std::size_t received = 0;
    std::optional<std::pair<Status, std::string>> failure;
    std::string burst;
    while (failure.has_value() ? received < sent : received < count) {
        if (!failure.has_value()) {
            burst.clear();
            while (sent < count && sent - received < static_cast<std::size_t>(window)) {
                burst += encode_frame(encode_body(make_request(sent)));
                ++sent;
            }
            if (!burst.empty()) reader.stream().write_all(burst.data(), burst.size());
        }
        std::optional<std::string> reply = reader.next();
        if (!reply.has_value())
            throw net_error("server closed the connection mid-pipeline");
        const std::size_t index = received++;
        const auto [status, payload] = split_reply(*reply);
        if (status != Status::ok) {
            if (!failure.has_value()) failure.emplace(status, error_message_of(payload));
            continue;
        }
        if (!failure.has_value()) on_payload(index, payload);
    }
    if (failure.has_value()) throw rpc_error(failure->first, failure->second);
}

} // namespace

std::vector<Weight> Client::pipelined_distances(std::span<const PointQuery> queries, int window)
{
    std::vector<Weight> distances(queries.size());
    run_pipeline(
        reader_, queries.size(), window,
        [this](const Request& r) { return request_body(r); },
        [&](std::size_t i) {
            Request request;
            request.op = Opcode::distance;
            request.from = queries[i].from;
            request.to = queries[i].to;
            return request;
        },
        [&](std::size_t i, std::string_view payload) {
            distances[i] = decode_distance_reply(payload);
        });
    return distances;
}

std::vector<PathResult> Client::pipelined_paths(std::span<const PointQuery> queries, int window)
{
    std::vector<PathResult> paths(queries.size());
    run_pipeline(
        reader_, queries.size(), window,
        [this](const Request& r) { return request_body(r); },
        [&](std::size_t i) {
            Request request;
            request.op = Opcode::path;
            request.from = queries[i].from;
            request.to = queries[i].to;
            return request;
        },
        [&](std::size_t i, std::string_view payload) {
            paths[i] = decode_path_reply(payload);
        });
    return paths;
}

void Client::shutdown_server(const std::string& token)
{
    Request request;
    request.op = Opcode::shutdown;
    request.token = token;
    (void)roundtrip(request);
}

std::string Client::json_request(const std::string& json)
{
    CCQ_EXPECT(!json.empty() && json.front() == '{',
               "Client::json_request: body must be a JSON object");
    write_frame(*stream_, json);
    std::optional<std::string> reply = reader_.next();
    if (!reply.has_value()) throw net_error("server closed the connection");
    return *reply;
}

// --- ClientPool -------------------------------------------------------------

ClientPool::ClientPool(std::string host, int port, std::size_t max_idle)
    : host_(std::move(host)), port_(port), max_idle_(max_idle)
{
}

ClientPool::Lease ClientPool::acquire()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!idle_.empty()) {
            std::unique_ptr<Client> client = std::move(idle_.back());
            idle_.pop_back();
            return Lease(*this, std::move(client));
        }
    }
    return Lease(*this, std::make_unique<Client>(TcpStream::connect(host_, port_)));
}

std::size_t ClientPool::idle_count() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return idle_.size();
}

void ClientPool::give_back(std::unique_ptr<Client> client) noexcept
{
    try {
        std::lock_guard<std::mutex> lock(mutex_);
        if (idle_.size() < max_idle_) idle_.push_back(std::move(client));
    } catch (...) {
        // Dropping the connection on allocation failure is safe: the
        // pool just dials a fresh one next time.
    }
}

ClientPool::Lease::~Lease()
{
    if (pool_ != nullptr && client_ != nullptr) pool_->give_back(std::move(client_));
}

} // namespace ccq
