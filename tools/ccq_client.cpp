// ccq_client — command-line client for a running ccq_served.
//
//   ccq_client --port 7465 --from 0 --to 50 --path --json
//   ccq_client --port 7465 --from 3 --k 8
//   ccq_client --port 7465 --batch queries.txt --json
//   ccq_client --port 7465 --stats --json
//   ccq_client --port 7465 --metrics [--human]
//   ccq_client --port 7465 --flight [--json]
//   ccq_client --port 7465 --ping
//   ccq_client --port 7465 --shutdown
//   ccq_client --port 7465 --raw-json '{"op":"distance","from":0,"to":5}'
//
// Speaks the binary framed protocol through ccq::Client and renders
// answers as text or JSON (the same shapes ccq_serve query prints, so
// scripts can swap between in-process and networked serving).
// --raw-json exercises the wire-level JSON debug mode instead and
// prints the server's JSON reply verbatim.
//
// --trace-id N tags every request frame of the invocation with a trace
// envelope (ids counting up from N, sampled), so a ccq_served running
// with --trace-out records the request's span chain.  --flight dumps
// the server's flight recorder; --metrics --human summarises the
// latency histograms as interpolated p50/p90/p99 instead of raw
// exposition text.
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "ccq/net/client.hpp"
#include "ccq/obs/metrics.hpp"
#include "ccq/serve/distance_source.hpp"
#include "tool_common.hpp"

namespace {

using namespace ccq;
using ccq_tools::Args;
using ccq_tools::render_answer;
using ccq_tools::require_ll;

int usage()
{
    std::fprintf(stderr,
                 "usage: ccq_client [--host <ip>] --port <n> [--json] <command>\n"
                 "commands:\n"
                 "  --from <u> --to <v> [--path]   point distance / path query\n"
                 "  --from <u> --k <n>             k nearest targets\n"
                 "  --batch <file> [--path]        one query per 'u v' line\n"
                 "  --stats | --ping | --shutdown  control frames\n"
                 "  --metrics [--human]            Prometheus scrape (raw or p50/p90/p99)\n"
                 "  --flight                       dump the server's flight recorder\n"
                 "  --token <t>                    auth token for --shutdown\n"
                 "  --raw-json <object>            JSON debug mode passthrough\n"
                 "  --trace-id <n>                 tag requests with trace envelopes from id n\n");
    return 1;
}

void print_flight(const std::vector<obs::RequestRecord>& records, bool json)
{
    if (json) {
        std::string out = "{\"records\":[";
        char buf[352];
        for (std::size_t i = 0; i < records.size(); ++i) {
            const obs::RequestRecord& r = records[i];
            const char* op = op_metric_name(op_metric_index(static_cast<Opcode>(r.opcode)));
            std::snprintf(buf, sizeof buf,
                          "%s{\"seq\":%llu,\"trace_id\":\"0x%llx\",\"conn\":%llu,"
                          "\"op\":\"%s\",\"status\":\"%s\",\"sampled\":%s,"
                          "\"request_bytes\":%u,\"reply_bytes\":%u,\"decode_us\":%u,"
                          "\"queue_us\":%u,\"execute_us\":%u,\"encode_us\":%u,"
                          "\"flush_us\":%u,\"total_us\":%llu}",
                          i == 0 ? "" : ",", static_cast<unsigned long long>(r.seq),
                          static_cast<unsigned long long>(r.trace_id),
                          static_cast<unsigned long long>(r.conn_id), op,
                          status_name(static_cast<Status>(r.status)),
                          r.sampled != 0 ? "true" : "false", r.request_bytes, r.reply_bytes,
                          r.decode_us, r.queue_us, r.execute_us, r.encode_us, r.flush_us,
                          static_cast<unsigned long long>(r.total_us()));
            out += buf;
        }
        out += "]}";
        std::printf("%s\n", out.c_str());
        return;
    }
    std::printf("flight recorder: %zu records (oldest first)\n", records.size());
    std::printf("%6s %18s %5s %-15s %-10s %7s %7s %7s %6s %6s %6s %6s %7s\n", "seq",
                "trace_id", "conn", "op", "status", "req_B", "reply_B", "decode", "queue",
                "exec", "encode", "flush", "total");
    for (const obs::RequestRecord& r : records) {
        const char* op = op_metric_name(op_metric_index(static_cast<Opcode>(r.opcode)));
        std::printf("%6llu 0x%016llx %5llu %-15s %-10s %7u %7u %7u %6u %6u %6u %6u %7llu\n",
                    static_cast<unsigned long long>(r.seq),
                    static_cast<unsigned long long>(r.trace_id),
                    static_cast<unsigned long long>(r.conn_id), op,
                    status_name(static_cast<Status>(r.status)), r.request_bytes, r.reply_bytes,
                    r.decode_us, r.queue_us, r.execute_us, r.encode_us, r.flush_us,
                    static_cast<unsigned long long>(r.total_us()));
    }
}

/// The value of `<key>"..."` inside a label block, or nullopt.  Label
/// values here (op names, le bounds) are machine-generated and never
/// contain escape sequences, so scanning to the next quote is exact.
std::optional<std::string> label_value(const std::string& line, const char* key)
{
    const std::size_t at = line.find(key);
    if (at == std::string::npos) return std::nullopt;
    const std::size_t begin = at + std::string(key).size();
    const std::size_t end = line.find('"', begin);
    if (end == std::string::npos) return std::nullopt;
    return line.substr(begin, end - begin);
}

/// Rebuilds each op's log2 latency histogram from the cumulative
/// _bucket lines of the exposition text and prints interpolated
/// quantiles — the human-readable counterpart of the raw scrape.
void print_human_metrics(const std::string& exposition)
{
    static const char* kPrefix = "ccq_request_latency_us_bucket{";
    std::map<std::string, obs::HistogramSnapshot> per_op;
    std::map<std::string, std::uint64_t> cumulative_seen;
    std::size_t pos = 0;
    while (pos < exposition.size()) {
        std::size_t eol = exposition.find('\n', pos);
        if (eol == std::string::npos) eol = exposition.size();
        const std::string line = exposition.substr(pos, eol - pos);
        pos = eol + 1;
        if (line.rfind(kPrefix, 0) != 0) continue;
        const std::optional<std::string> op = label_value(line, "op=\"");
        const std::optional<std::string> le = label_value(line, "le=\"");
        const std::size_t space = line.rfind(' ');
        if (!op || !le || space == std::string::npos) continue;
        const std::uint64_t cumulative = std::stoull(line.substr(space + 1));
        // Bucket i covers values up to 2^i - 1, so the bound maps back
        // to its index via bit_width; "+Inf" is the last bucket.
        const int index = *le == "+Inf"
                              ? obs::kHistogramBuckets - 1
                              : static_cast<int>(std::bit_width(std::stoull(*le)));
        obs::HistogramSnapshot& snap = per_op[*op];
        std::uint64_t& prev = cumulative_seen[*op];
        if (index < 0 || index >= obs::kHistogramBuckets || cumulative < prev) continue;
        snap.counts[static_cast<std::size_t>(index)] = cumulative - prev;
        prev = cumulative;
    }
    std::printf("request latency in us, interpolated from log2 buckets:\n");
    std::printf("%-16s %10s %10s %10s %10s\n", "op", "count", "p50", "p90", "p99");
    for (const auto& [op, snap] : per_op) {
        const std::uint64_t total = snap.total();
        if (total == 0) continue;
        std::printf("%-16s %10llu %10.1f %10.1f %10.1f\n", op.c_str(),
                    static_cast<unsigned long long>(total),
                    obs::histogram_quantile(snap, 0.50), obs::histogram_quantile(snap, 0.90),
                    obs::histogram_quantile(snap, 0.99));
    }
}

int run(Args& args)
{
    const std::string host = args.value("--host").value_or("127.0.0.1");
    const int port = static_cast<int>(require_ll(args.value("--port"), "--port"));
    const bool json = args.flag("--json");
    const bool want_path = args.flag("--path");
    const bool want_stats = args.flag("--stats");
    const bool want_metrics = args.flag("--metrics");
    const bool want_flight = args.flag("--flight");
    const bool human = args.flag("--human");
    const bool want_ping = args.flag("--ping");
    const bool want_shutdown = args.flag("--shutdown");
    const std::optional<std::string> trace_id_text = args.value("--trace-id");
    const std::string token = args.value("--token").value_or("");
    const std::optional<std::string> raw_json = args.value("--raw-json");
    const std::optional<std::string> batch = args.value("--batch");
    const std::optional<std::string> from_text = args.value("--from");
    const std::optional<std::string> to_text = args.value("--to");
    const std::optional<std::string> k_text = args.value("--k");
    args.finish();

    Client client = Client::connect(host, port);
    if (trace_id_text)
        client.enable_trace_envelopes(
            static_cast<std::uint64_t>(std::stoull(*trace_id_text)));

    if (raw_json) {
        std::printf("%s\n", client.json_request(*raw_json).c_str());
        return 0;
    }
    if (want_ping) {
        const std::uint32_t version = client.ping();
        if (json)
            std::printf("{\"ok\":true,\"protocol\":%u}\n", version);
        else
            std::printf("ok (protocol %u)\n", version);
        return 0;
    }
    if (want_shutdown) {
        client.shutdown_server(token);
        if (json)
            std::printf("{\"ok\":true,\"shutdown\":true}\n");
        else
            std::printf("server acknowledged shutdown\n");
        return 0;
    }
    if (want_metrics) {
        const std::string text = client.metrics();
        if (human)
            print_human_metrics(text);
        else
            // Raw exposition text: already line-oriented, newline-terminated.
            std::fputs(text.c_str(), stdout);
        return 0;
    }
    if (want_flight) {
        print_flight(client.flight_records(), json);
        return 0;
    }
    if (want_stats) {
        const ServerStats s = client.stats();
        if (json) {
            std::printf("{\"connections_accepted\":%llu,\"connections_rejected\":%llu,"
                        "\"active_connections\":%llu,"
                        "\"frames_served\":%llu,\"errors\":%llu,\"distance_queries\":%llu,"
                        "\"path_queries\":%llu,\"knearest_queries\":%llu,\"batch_items\":%llu,"
                        "\"cache_hits\":%llu,\"cache_misses\":%llu,"
                        "\"backpressure_pauses\":%llu,\"build_total_rounds\":%.6g,"
                        "\"build_total_words\":%llu,\"source_kind\":\"%s\","
                        "\"stored_cells\":%llu,\"rows_materialized\":%llu,"
                        "\"uptime_seconds\":%.3f,"
                        "\"node_count\":%d,\"has_routing\":%s}\n",
                        static_cast<unsigned long long>(s.connections_accepted),
                        static_cast<unsigned long long>(s.connections_rejected),
                        static_cast<unsigned long long>(s.active_connections),
                        static_cast<unsigned long long>(s.frames_served),
                        static_cast<unsigned long long>(s.errors),
                        static_cast<unsigned long long>(s.distance_queries),
                        static_cast<unsigned long long>(s.path_queries),
                        static_cast<unsigned long long>(s.knearest_queries),
                        static_cast<unsigned long long>(s.batch_items),
                        static_cast<unsigned long long>(s.cache_hits),
                        static_cast<unsigned long long>(s.cache_misses),
                        static_cast<unsigned long long>(s.backpressure_pauses),
                        s.build_total_rounds,
                        static_cast<unsigned long long>(s.build_total_words),
                        source_kind_name(static_cast<SourceKind>(s.source_kind)),
                        static_cast<unsigned long long>(s.stored_cells),
                        static_cast<unsigned long long>(s.rows_materialized),
                        s.uptime_seconds, s.node_count, s.has_routing ? "true" : "false");
        } else {
            std::printf("n=%d routing=%s up=%.1fs source=%s\n", s.node_count,
                        s.has_routing ? "yes" : "no", s.uptime_seconds,
                        source_kind_name(static_cast<SourceKind>(s.source_kind)));
            std::printf("connections: %llu accepted, %llu rejected, %llu active\n",
                        static_cast<unsigned long long>(s.connections_accepted),
                        static_cast<unsigned long long>(s.connections_rejected),
                        static_cast<unsigned long long>(s.active_connections));
            std::printf("frames: %llu ok, %llu errors (%llu distance, %llu path, "
                        "%llu k-nearest, %llu batch items)\n",
                        static_cast<unsigned long long>(s.frames_served),
                        static_cast<unsigned long long>(s.errors),
                        static_cast<unsigned long long>(s.distance_queries),
                        static_cast<unsigned long long>(s.path_queries),
                        static_cast<unsigned long long>(s.knearest_queries),
                        static_cast<unsigned long long>(s.batch_items));
            std::printf("backpressure: %llu pauses\n",
                        static_cast<unsigned long long>(s.backpressure_pauses));
            std::printf("build ledger: %.6g rounds, %llu words\n", s.build_total_rounds,
                        static_cast<unsigned long long>(s.build_total_words));
            std::printf("source: %llu stored cells, %llu rows materialized\n",
                        static_cast<unsigned long long>(s.stored_cells),
                        static_cast<unsigned long long>(s.rows_materialized));
        }
        return 0;
    }

    if (batch) {
        const std::vector<PointQuery> queries = ccq_tools::read_batch_file(*batch);
        std::vector<PathResult> paths;
        std::vector<Weight> distances;
        if (want_path)
            paths = client.batch_paths(queries);
        else
            distances = client.batch_distances(queries);
        ccq_tools::print_batch_answers(queries, distances, paths, want_path, json);
        return 0;
    }

    const NodeId from = static_cast<NodeId>(require_ll(from_text, "--from"));
    if (k_text) {
        const int k = std::stoi(*k_text);
        ccq_tools::print_nearest(from, client.nearest_targets(from, k), json);
        return 0;
    }
    const NodeId to = static_cast<NodeId>(require_ll(to_text, "--to"));
    if (want_path) {
        const PathResult path = client.path(from, to);
        std::printf("%s\n", render_answer(from, to, path.distance, &path, json).c_str());
    } else {
        std::printf("%s\n",
                    render_answer(from, to, client.distance(from, to), nullptr, json).c_str());
    }
    return 0;
}

} // namespace

int main(int argc, char** argv)
{
    if (argc < 2) return usage();
    Args args(argc - 1, argv + 1);
    try {
        return run(args);
    } catch (const rpc_error& error) {
        std::fprintf(stderr, "ccq_client: server rejected the request — %s\n", error.what());
        return 3;
    } catch (const std::exception& error) {
        std::fprintf(stderr, "ccq_client: %s\n", error.what());
        return 2;
    }
}
