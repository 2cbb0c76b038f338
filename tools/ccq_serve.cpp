// ccq_serve — the distance-oracle serving front-end.
//
// The build-once/serve-many workflow in three subcommands:
//
//   ccq_serve build  --graph wan.gr --algo general --out wan.snap
//   ccq_serve query  --snapshot wan.snap --from 0 --to 95 --path --json
//   ccq_serve bench  --snapshot wan.snap --threads 4 --net 4 --out BENCH_serve.json
//
// `build` runs any of the library's APSP algorithms on a graph file (or
// a generated instance via --random family:n:seed), attaches next-hop
// routing tables, and persists the oracle as a dense codec-v2 snapshot
// (or, with --sparse, a codec-v3 spanner).  `query` answers
// one-shot or batch-file queries from a loaded snapshot (--mmap serves
// straight from the mapped file).  `bench` is a closed-loop load
// generator: after --warmup untimed iterations, per-query latencies are
// recorded on every worker and reported as queries/sec plus latency
// percentiles; --net additionally drives the same workload through a
// real loopback TCP edge (in-process Server + one Client per
// connection).  Everything — including snapshot file size, format and
// load time — lands in a BENCH_serve.json artifact.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <exception>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

#ifdef __linux__
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#endif

#include "ccq/apsp.hpp"
#include "ccq/net/client.hpp"
#include "ccq/net/server.hpp"
#include "ccq/obs/trace.hpp"
#include "ccq/serve/distance_source.hpp"
#include "ccq/serve/query_engine.hpp"
#include "ccq/serve/snapshot.hpp"
#include "ccq/spanner/greedy.hpp"
#include "tool_common.hpp"

namespace {

using namespace ccq;
using ccq_tools::Args;
using ccq_tools::render_answer;
using ccq_tools::require_ll;

int usage(const char* argv0)
{
    std::fprintf(stderr,
                 "usage:\n"
                 "  %s build --out <snapshot> (--graph <file> | --random <family>:<n>:<seed>)\n"
                 "       [--algo exact-minplus|logn-spanner|loglog|small-diameter|"
                 "large-bandwidth|general]\n"
                 "       [--seed <n>] [--eps <x>] [--threads <n>] [--no-routing]"
                 " [--save-graph <file>] [--trace-out <json>]\n"
                 "       [--sparse [--spanner baswana-sen|greedy] [--spanner-k <k>]"
                 " [--verify-stretch <sources>]]\n"
                 "  %s query --snapshot <file> (--from <u> --to <v> | --batch <file>)\n"
                 "       [--path] [--k <n>] [--json] [--threads <n>] [--mmap]\n"
                 "  %s bench --snapshot <file> [--queries <n>] [--warmup <n>] [--threads <n>]\n"
                 "       [--net <connections> | --connections <n>] [--rate <qps>]\n"
                 "       [--trace-every <n>]\n"
                 "       [--mmap] [--no-metrics]"
                 " [--metrics-ab]\n"
                 "       [--mix distance|path|mixed] [--seed <n>] [--out <json>]\n"
                 "  %s bench --oracle-ablation [--sizes <n1,n2,...>] [--family <name>]\n"
                 "       [--queries <n>] [--spanner-k <k>] [--stretch-sources <n>]\n"
                 "       [--seed <n>] [--out <json>]\n",
                 argv0, argv0, argv0, argv0);
    return 1;
}

[[nodiscard]] std::optional<ApspAlgorithmKind> parse_algorithm(const std::string& name)
{
    for (const ApspAlgorithmKind kind :
         {ApspAlgorithmKind::exact_baseline, ApspAlgorithmKind::logn_baseline,
          ApspAlgorithmKind::loglog, ApspAlgorithmKind::small_diameter,
          ApspAlgorithmKind::large_bandwidth, ApspAlgorithmKind::general})
        if (name == algorithm_kind_name(kind)) return kind;
    return std::nullopt;
}

[[nodiscard]] std::optional<GraphFamily> parse_family(const std::string& name)
{
    for (const GraphFamily family :
         {GraphFamily::path, GraphFamily::cycle, GraphFamily::star, GraphFamily::grid,
          GraphFamily::tree, GraphFamily::erdos_renyi_sparse, GraphFamily::erdos_renyi_dense,
          GraphFamily::geometric, GraphFamily::barabasi_albert, GraphFamily::clustered})
        if (name == family_name(family)) return family;
    return std::nullopt;
}

/// "--random family:n:seed" -> a generated instance.
[[nodiscard]] Graph generate_instance(const std::string& spec)
{
    std::istringstream fields(spec);
    std::string family_text, n_text, seed_text;
    if (!std::getline(fields, family_text, ':') || !std::getline(fields, n_text, ':') ||
        !std::getline(fields, seed_text))
        throw std::runtime_error("--random expects <family>:<n>:<seed>, got '" + spec + "'");
    const std::optional<GraphFamily> family = parse_family(family_text);
    if (!family) throw std::runtime_error("unknown graph family '" + family_text + "'");
    Rng rng(static_cast<std::uint64_t>(std::stoull(seed_text)));
    return make_family_instance(*family, std::stoi(n_text), WeightRange{1, 100}, rng);
}

// --- build ------------------------------------------------------------------

/// `build --sparse`: persist a spanner edge list (codec v3) instead of a
/// dense n^2 oracle.  Orders of magnitude smaller on disk; the server
/// answers from it with one Dijkstra per source row, kept in a row cache.
int cmd_build_sparse(Args& args, const std::string& out)
{
    const std::optional<std::string> graph_path = args.value("--graph");
    const std::optional<std::string> random_spec = args.value("--random");
    if (graph_path.has_value() == random_spec.has_value())
        throw std::runtime_error("build: exactly one of --graph / --random is required");
    const std::optional<std::string> save = args.value("--save-graph");
    if (args.value("--algo"))
        throw std::runtime_error(
            "build: --sparse picks codec v3; --algo applies to dense snapshots only");

    std::uint64_t seed = 0;
    if (const std::optional<std::string> seed_text = args.value("--seed"))
        seed = static_cast<std::uint64_t>(std::stoull(*seed_text));
    int k = 2;
    if (const std::optional<std::string> k_text = args.value("--spanner-k")) {
        k = std::stoi(*k_text);
        if (k < 1) throw std::runtime_error("build: --spanner-k must be >= 1");
    }
    std::string construction = args.value("--spanner").value_or("baswana-sen");
    if (construction != "baswana-sen" && construction != "greedy")
        throw std::runtime_error("build: --spanner must be baswana-sen or greedy");
    std::optional<int> verify_sources;
    if (const std::optional<std::string> verify = args.value("--verify-stretch")) {
        verify_sources = std::stoi(*verify);
        if (*verify_sources < 1)
            throw std::runtime_error("build: --verify-stretch needs >= 1 sample sources");
    }
    args.finish();

    const Graph g = graph_path ? load_graph(*graph_path) : generate_instance(*random_spec);
    if (g.is_directed()) throw std::runtime_error("build: --sparse requires an undirected graph");
    if (save) save_graph(*save, g, "ccq_serve build instance");

    const auto t0 = std::chrono::steady_clock::now();
    Rng rng(seed);
    const SpannerResult result =
        construction == "greedy" ? greedy_spanner(g, k) : baswana_sen_spanner(g, k, rng);
    const auto t1 = std::chrono::steady_clock::now();

    const SparseSnapshot snapshot = SparseSnapshot::from_spanner(g, result, construction, seed);
    save_sparse_snapshot(out, snapshot);

    const double build_s = std::chrono::duration<double>(t1 - t0).count();
    std::printf("built %s spanner: n=%d m=%zu -> %zu edges, stretch<=%d (k=%d) (%.2fs)\n",
                construction.c_str(), g.node_count(), g.edge_count(), snapshot.edges.size(),
                snapshot.stretch_bound, snapshot.parameter_k, build_s);
    std::printf("snapshot: %s (codec=v%u, %llu bytes, routing=on-demand)\n", out.c_str(),
                format_version(SnapshotFormat::v3_spanner),
                static_cast<unsigned long long>(std::filesystem::file_size(out)));
    if (verify_sources) {
        const double measured = measured_spanner_stretch(g, result.spanner, *verify_sources);
        std::printf("measured stretch over %d sources: %.4f (bound %d)\n", *verify_sources,
                    measured, snapshot.stretch_bound);
        if (measured > static_cast<double>(snapshot.stretch_bound) + 1e-9)
            throw std::runtime_error("build: measured stretch exceeds the claimed bound");
    }
    return 0;
}

/// Peak resident set of this process so far, in MB (ru_maxrss is KiB).
[[nodiscard]] double peak_rss_mb()
{
    struct rusage usage = {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

int cmd_build(Args& args)
{
    const std::optional<std::string> out = args.value("--out");
    if (!out) throw std::runtime_error("build: --out is required");
    if (args.flag("--sparse")) return cmd_build_sparse(args, *out);
    const std::optional<std::string> graph_path = args.value("--graph");
    const std::optional<std::string> random_spec = args.value("--random");
    if (graph_path.has_value() == random_spec.has_value())
        throw std::runtime_error("build: exactly one of --graph / --random is required");
    const std::optional<std::string> save = args.value("--save-graph");

    ApspAlgorithmKind kind = ApspAlgorithmKind::general;
    if (const std::optional<std::string> algo = args.value("--algo")) {
        const std::optional<ApspAlgorithmKind> parsed = parse_algorithm(*algo);
        if (!parsed) throw std::runtime_error("unknown algorithm '" + *algo + "'");
        kind = *parsed;
    }
    ApspOptions options;
    if (const std::optional<std::string> seed = args.value("--seed"))
        options.seed = static_cast<std::uint64_t>(std::stoull(*seed));
    if (const std::optional<std::string> eps = args.value("--eps")) options.eps = std::stod(*eps);
    if (const std::optional<std::string> threads = args.value("--threads"))
        options.engine.threads = std::stoi(*threads);
    const bool no_routing = args.flag("--no-routing");
    const std::optional<std::string> trace_out = args.value("--trace-out");
    args.finish();

    // Tracing covers the whole build: engine product spans, the ledger's
    // phase tree (B/E events), and the snapshot write all land on one
    // chrome://tracing timeline.
    if (trace_out) obs::Tracer::global().enable();

    const Graph g = graph_path ? load_graph(*graph_path) : generate_instance(*random_spec);
    if (save) save_graph(*save, g, "ccq_serve build instance");
    const bool with_routing = !no_routing && !g.is_directed();

    const auto t0 = std::chrono::steady_clock::now();
    const DistanceOracle oracle(g, kind, options);
    const auto t1 = std::chrono::steady_clock::now();

    std::optional<RoutingTables> routing;
    if (with_routing) routing = build_routing_tables(g, options.engine);
    const auto t2 = std::chrono::steady_clock::now();
    const OracleSnapshot snapshot = OracleSnapshot::from_result(
        g, oracle.result(), options.seed, routing ? &*routing : nullptr);
    save_snapshot(*out, snapshot, SnapshotFormat::v2_compressed, options.engine);
    const auto t3 = std::chrono::steady_clock::now();

    if (trace_out) {
        oracle.result().ledger.emit_trace_totals();
        obs::Tracer::global().write(*trace_out);
        std::printf("trace: %s (%zu events)\n", trace_out->c_str(),
                    obs::Tracer::global().event_count());
    }

    const auto seconds = [](auto from, auto to) {
        return std::chrono::duration<double>(to - from).count();
    };
    std::printf("built %s oracle: n=%d m=%zu stretch<=%.2f rounds=%.1f (%.2fs)\n",
                oracle.algorithm().c_str(), g.node_count(), g.edge_count(),
                oracle.claimed_stretch(), oracle.simulated_rounds(), seconds(t0, t1));
    std::printf("wall: oracle %.2fs, routing %.2fs, snapshot write %.2fs, peak rss %.1f MB\n",
                seconds(t0, t1), seconds(t1, t2), seconds(t2, t3), peak_rss_mb());
    std::printf("snapshot: %s (codec=v%u, %llu bytes, routing=%s)\n", out->c_str(),
                format_version(SnapshotFormat::v2_compressed),
                static_cast<unsigned long long>(std::filesystem::file_size(*out)),
                routing ? "yes" : "no");
    return 0;
}

// --- query ------------------------------------------------------------------

int cmd_query(Args& args)
{
    const std::optional<std::string> snapshot_path = args.value("--snapshot");
    if (!snapshot_path) throw std::runtime_error("query: --snapshot is required");
    const bool json = args.flag("--json");
    const bool want_path = args.flag("--path");
    const bool use_mmap = args.flag("--mmap");
    QueryEngineConfig config;
    if (const std::optional<std::string> threads = args.value("--threads"))
        config.threads = std::stoi(*threads);
    const std::optional<std::string> batch = args.value("--batch");
    const std::optional<std::string> from_text = args.value("--from");
    const std::optional<std::string> k_text = args.value("--k");
    const std::optional<std::string> to_text = args.value("--to");
    args.finish();

    // The factory hides the format: dense v2 (eager or mmap'd) and
    // sparse v3 all come back as the same DistanceSource.
    const QueryEngine engine(
        open_distance_source(*snapshot_path, DistanceSourceOptions{.prefer_mmap = use_mmap}),
        config);
    if (want_path && !engine.has_routing())
        throw std::runtime_error(
            "query: snapshot has no routing tables, cannot answer --path "
            "(rebuild without --no-routing)");

    if (batch) {
        const std::vector<PointQuery> queries = ccq_tools::read_batch_file(*batch);
        // Answer the whole batch concurrently, then render those answers
        // in input order.
        std::vector<PathResult> paths;
        std::vector<Weight> distances;
        if (want_path)
            paths = engine.batch_paths(queries);
        else
            distances = engine.batch_distances(queries);
        ccq_tools::print_batch_answers(queries, distances, paths, want_path, json);
        return 0;
    }

    const NodeId from = static_cast<NodeId>(require_ll(from_text, "--from"));
    if (k_text) {
        const int k = std::stoi(*k_text);
        ccq_tools::print_nearest(from, engine.nearest_targets(from, k), json);
        return 0;
    }
    const NodeId to = static_cast<NodeId>(require_ll(to_text, "--to"));
    if (want_path) {
        const PathResult path = engine.path(from, to);
        std::printf("%s\n", render_answer(from, to, path.distance, &path, json).c_str());
    } else {
        std::printf("%s\n",
                    render_answer(from, to, engine.distance(from, to), nullptr, json).c_str());
    }
    return 0;
}

// --- bench ------------------------------------------------------------------

/// What one generated query executes ("mixed" draws from all three).
enum class QueryKind { distance, path, knearest };

struct BenchRun {
    int threads = 1;
    double seconds = 0.0;
    double qps = 0.0;
    double p50_us = 0.0;
    double p90_us = 0.0;
    double p99_us = 0.0;
    double p99_9_us = 0.0;
    double max_us = 0.0;
};

[[nodiscard]] double percentile_us(const std::vector<double>& sorted_us, double p)
{
    if (sorted_us.empty()) return 0.0;
    const double rank = p * static_cast<double>(sorted_us.size() - 1);
    return sorted_us[static_cast<std::size_t>(rank + 0.5)];
}

[[nodiscard]] BenchRun summarize(std::vector<std::vector<double>>& latencies, int threads,
                                 double seconds)
{
    std::vector<double> all;
    for (const std::vector<double>& chunk : latencies)
        all.insert(all.end(), chunk.begin(), chunk.end());
    std::sort(all.begin(), all.end());

    BenchRun run;
    run.threads = threads;
    run.seconds = seconds;
    run.qps = seconds > 0.0 ? static_cast<double>(all.size()) / seconds : 0.0;
    run.p50_us = percentile_us(all, 0.50);
    run.p90_us = percentile_us(all, 0.90);
    run.p99_us = percentile_us(all, 0.99);
    run.p99_9_us = percentile_us(all, 0.999);
    run.max_us = all.empty() ? 0.0 : all.back();
    return run;
}

void execute_query(const QueryEngine& engine, const PointQuery& q, QueryKind kind)
{
    switch (kind) {
    case QueryKind::distance: (void)engine.distance(q.from, q.to); break;
    case QueryKind::path: (void)engine.path(q.from, q.to); break;
    case QueryKind::knearest: (void)engine.nearest_targets(q.from, 8); break;
    }
}

/// Runs fn(client) for client in [0, clients), each on its own OS thread,
/// joins them, and rethrows the first client's exception.  The bench's
/// clients must really run side by side; the shared ThreadPool claims
/// tasks first-come-first-served, so one thread may run several of them
/// in turn.
template <class Fn>
void run_clients(int clients, const Fn& fn)
{
    std::vector<std::exception_ptr> errors(static_cast<std::size_t>(clients));
    {
        std::vector<std::jthread> threads; // joined on scope exit, even on a throw
        threads.reserve(static_cast<std::size_t>(clients));
        for (int client = 0; client < clients; ++client)
            threads.emplace_back([&fn, &errors, client] {
                try {
                    fn(client);
                } catch (...) {
                    errors[static_cast<std::size_t>(client)] = std::current_exception();
                }
            });
    }
    for (const std::exception_ptr& error : errors)
        if (error) std::rethrow_exception(error);
}

/// Closed-loop run: an untimed pass over the first `warmup` queries
/// (caches, branch predictors, lazily decoded mmap rows), then `threads`
/// workers replay and time the whole workload — the warmed prefix
/// included — each issuing its queries serially (the next query starts
/// when the previous returns).
[[nodiscard]] BenchRun run_load(const QueryEngine& engine,
                                const std::vector<PointQuery>& queries,
                                const std::vector<QueryKind>& kinds, std::size_t warmup,
                                int threads)
{
    const std::size_t total = queries.size();
    warmup = std::min(warmup, total);
    std::vector<std::vector<double>> latencies(static_cast<std::size_t>(threads));
    // Untimed warmup pass over the workload prefix (caches, branch
    // predictors, lazily decoded mmap rows).
    run_clients(threads, [&](int worker) {
        for (std::size_t i = static_cast<std::size_t>(worker); i < warmup;
             i += static_cast<std::size_t>(threads))
            execute_query(engine, queries[i], kinds[i]);
    });
    const auto t0 = std::chrono::steady_clock::now();
    run_clients(threads, [&](int worker) {
        std::vector<double>& mine = latencies[static_cast<std::size_t>(worker)];
        mine.reserve(total / static_cast<std::size_t>(threads) + 1);
        for (std::size_t i = static_cast<std::size_t>(worker); i < total;
             i += static_cast<std::size_t>(threads)) {
            const PointQuery q = queries[i];
            const auto q0 = std::chrono::steady_clock::now();
            execute_query(engine, q, kinds[i]);
            const auto q1 = std::chrono::steady_clock::now();
            mine.push_back(std::chrono::duration<double, std::micro>(q1 - q0).count());
        }
    });
    const auto t1 = std::chrono::steady_clock::now();
    return summarize(latencies, threads, std::chrono::duration<double>(t1 - t0).count());
}

/// The same closed loop through a real network edge: one TCP connection
/// per worker against an in-process loopback server.
[[nodiscard]] BenchRun run_net_load(const std::string& host, int port,
                                    const std::vector<PointQuery>& queries,
                                    const std::vector<QueryKind>& kinds, std::size_t warmup,
                                    int connections)
{
    const std::size_t total = queries.size();
    warmup = std::min(warmup, total);
    std::vector<Client> clients;
    clients.reserve(static_cast<std::size_t>(connections));
    for (int c = 0; c < connections; ++c) clients.push_back(Client::connect(host, port));

    std::vector<std::vector<double>> latencies(static_cast<std::size_t>(connections));
    const auto run_phase = [&](std::size_t begin, std::size_t end, bool timed) {
        run_clients(connections, [&](int worker) {
            Client& client = clients[static_cast<std::size_t>(worker)];
            std::vector<double>& mine = latencies[static_cast<std::size_t>(worker)];
            for (std::size_t i = begin + static_cast<std::size_t>(worker); i < end;
                 i += static_cast<std::size_t>(connections)) {
                const PointQuery q = queries[i];
                const auto q0 = std::chrono::steady_clock::now();
                switch (kinds[i]) {
                case QueryKind::distance: (void)client.distance(q.from, q.to); break;
                case QueryKind::path: (void)client.path(q.from, q.to); break;
                case QueryKind::knearest: (void)client.nearest_targets(q.from, 8); break;
                }
                if (timed) {
                    const auto q1 = std::chrono::steady_clock::now();
                    mine.push_back(std::chrono::duration<double, std::micro>(q1 - q0).count());
                }
            }
        });
    };

    // Same methodology as run_load: untimed pass over the warmup prefix,
    // then the timed pass replays the whole workload.
    run_phase(0, warmup, /*timed=*/false);
    const auto t0 = std::chrono::steady_clock::now();
    run_phase(0, total, /*timed=*/true);
    const auto t1 = std::chrono::steady_clock::now();
    return summarize(latencies, connections,
                     std::chrono::duration<double>(t1 - t0).count());
}

#ifdef __linux__

/// Open-loop network run: one epoll-multiplexed generator thread holds
/// `connections` sockets open and injects the workload at a fixed
/// aggregate `rate` (queries/sec), round-robin across connections,
/// regardless of how fast responses come back.  Latency is measured from
/// each query's *scheduled* send time, so server-side queueing delay is
/// charged to the server — a closed loop would throttle the offered load
/// down to whatever the server absorbs and hide exactly the tail that
/// p99.9 is supposed to expose.  A single thread multiplexing every
/// socket is also what lets the generator field thousands of concurrent
/// connections without a thread per connection.
[[nodiscard]] BenchRun run_open_load(const std::string& host, int port,
                                     const std::vector<PointQuery>& queries,
                                     const std::vector<QueryKind>& kinds, int connections,
                                     double rate, std::size_t trace_every)
{
    using clock = std::chrono::steady_clock;
    struct LoadConn {
        std::unique_ptr<TcpStream> stream;
        FrameDecoder decoder;
        std::string out;
        std::size_t out_offset = 0;
        std::deque<clock::time_point> due; ///< scheduled times of in-flight queries
        std::uint32_t armed = EPOLLIN;
        bool dirty = false; ///< has unsent bytes queued this tick
    };

    (void)raise_fd_limit(static_cast<std::size_t>(connections) + 64);
    std::vector<LoadConn> conns(static_cast<std::size_t>(connections));
    const int epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd < 0) throw std::runtime_error("bench: epoll_create1 failed");
    try {
        for (std::size_t c = 0; c < conns.size(); ++c) {
            conns[c].stream = TcpStream::connect(host, port);
            conns[c].stream->set_nonblocking(true);
            epoll_event ev = {};
            ev.events = conns[c].armed;
            ev.data.u64 = c;
            if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, conns[c].stream->native_handle(),
                            &ev) != 0)
                throw std::runtime_error("bench: epoll_ctl failed");
        }

        const auto encode_query = [&](std::size_t i) {
            Request request;
            switch (kinds[i]) {
            case QueryKind::distance:
                request.op = Opcode::distance;
                request.from = queries[i].from;
                request.to = queries[i].to;
                break;
            case QueryKind::path:
                request.op = Opcode::path;
                request.from = queries[i].from;
                request.to = queries[i].to;
                break;
            case QueryKind::knearest:
                request.op = Opcode::k_nearest;
                request.from = queries[i].from;
                request.k = 8;
                break;
            }
            std::string body = encode_request(request);
            // Every trace_every-th query carries a sampled trace
            // envelope (id = query index + 1, so ids are nonzero and
            // greppable in the server's trace/flight output).
            if (trace_every > 0 && i % trace_every == 0)
                body = wrap_trace_envelope(TraceContext{i + 1, /*sampled=*/true}, body);
            return encode_frame(body);
        };
        const auto set_interest = [&](std::size_t c, std::uint32_t wanted) {
            if (wanted == conns[c].armed) return;
            epoll_event ev = {};
            ev.events = wanted;
            ev.data.u64 = c;
            if (::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, conns[c].stream->native_handle(),
                            &ev) != 0)
                throw std::runtime_error("bench: epoll_ctl failed");
            conns[c].armed = wanted;
        };
        // Nonblocking flush: the generator must never block on a socket
        // the server has paused (backpressure), or the offered load — the
        // thing an open loop holds constant — would degrade.
        const auto try_flush = [&](std::size_t c) {
            LoadConn& conn = conns[c];
            while (conn.out_offset < conn.out.size()) {
                const ssize_t wrote =
                    ::send(conn.stream->native_handle(), conn.out.data() + conn.out_offset,
                           conn.out.size() - conn.out_offset, MSG_NOSIGNAL);
                if (wrote > 0) {
                    conn.out_offset += static_cast<std::size_t>(wrote);
                    continue;
                }
                if (wrote < 0 && errno == EINTR) continue;
                if (wrote < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
                throw std::runtime_error("bench: server connection failed mid-load");
            }
            if (conn.out_offset == conn.out.size()) {
                conn.out.clear();
                conn.out_offset = 0;
            }
            set_interest(c, conn.out.empty() ? EPOLLIN : (EPOLLIN | EPOLLOUT));
        };

        const std::size_t total = queries.size();
        std::size_t sent = 0;
        std::size_t received = 0;
        std::vector<double> latencies;
        latencies.reserve(total);
        const auto t0 = clock::now();
        auto last_done = t0;
        const auto due_at = [&](std::size_t i) {
            return t0 + std::chrono::duration_cast<clock::duration>(
                            std::chrono::duration<double>(static_cast<double>(i) / rate));
        };
        std::vector<std::size_t> dirty;
        epoll_event events[256];
        while (received < total) {
            const auto now = clock::now();
            dirty.clear();
            while (sent < total && due_at(sent) <= now) {
                const std::size_t c = sent % conns.size();
                LoadConn& conn = conns[c];
                conn.out += encode_query(sent);
                conn.due.push_back(due_at(sent));
                if (!conn.dirty) {
                    conn.dirty = true;
                    dirty.push_back(c);
                }
                ++sent;
            }
            for (const std::size_t c : dirty) {
                conns[c].dirty = false;
                try_flush(c);
            }

            int timeout = 100; // replies-only phase: poll generously
            if (sent < total) {
                const auto until = std::chrono::duration_cast<std::chrono::milliseconds>(
                    due_at(sent) - clock::now());
                timeout = static_cast<int>(std::clamp<long long>(until.count(), 0, 100));
            }
            const int ready = ::epoll_wait(
                epoll_fd, events, static_cast<int>(sizeof(events) / sizeof(events[0])),
                timeout);
            if (ready < 0) {
                if (errno == EINTR) continue;
                throw std::runtime_error("bench: epoll_wait failed");
            }
            for (int e = 0; e < ready; ++e) {
                const std::size_t c = events[e].data.u64;
                LoadConn& conn = conns[c];
                if ((events[e].events & EPOLLOUT) != 0) try_flush(c);
                if ((events[e].events & EPOLLIN) == 0) continue;
                char buffer[64 * 1024];
                while (true) {
                    const ssize_t got =
                        ::recv(conn.stream->native_handle(), buffer, sizeof(buffer), 0);
                    if (got > 0) {
                        conn.decoder.feed(
                            std::string_view(buffer, static_cast<std::size_t>(got)));
                        continue;
                    }
                    if (got < 0 && errno == EINTR) continue;
                    if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
                    throw std::runtime_error("bench: server closed a connection mid-load");
                }
                const auto done = clock::now();
                while (std::optional<std::string> reply = conn.decoder.next()) {
                    if (conn.due.empty())
                        throw std::runtime_error("bench: reply without an in-flight query");
                    latencies.push_back(
                        std::chrono::duration<double, std::micro>(done - conn.due.front())
                            .count());
                    conn.due.pop_front();
                    ++received;
                    last_done = done;
                }
            }
        }

        const double seconds = std::chrono::duration<double>(last_done - t0).count();
        std::sort(latencies.begin(), latencies.end());
        BenchRun run;
        run.threads = connections;
        run.seconds = seconds;
        run.qps = seconds > 0.0 ? static_cast<double>(total) / seconds : 0.0;
        run.p50_us = percentile_us(latencies, 0.50);
        run.p90_us = percentile_us(latencies, 0.90);
        run.p99_us = percentile_us(latencies, 0.99);
        run.p99_9_us = percentile_us(latencies, 0.999);
        run.max_us = latencies.empty() ? 0.0 : latencies.back();
        ::close(epoll_fd);
        return run;
    } catch (...) {
        ::close(epoll_fd);
        throw;
    }
}

#else

[[nodiscard]] BenchRun run_open_load(const std::string&, int, const std::vector<PointQuery>&,
                                     const std::vector<QueryKind>&, int, double, std::size_t)
{
    throw std::runtime_error("bench: --rate (open-loop load) requires Linux");
}

#endif // __linux__

void append_run_json(std::string& out, const BenchRun& run)
{
    char buffer[320];
    std::snprintf(buffer, sizeof(buffer),
                  "{\"threads\":%d,\"seconds\":%.6f,\"qps\":%.1f,\"p50_us\":%.3f,"
                  "\"p90_us\":%.3f,\"p99_us\":%.3f,\"p99_9_us\":%.3f,\"max_us\":%.3f}",
                  run.threads, run.seconds, run.qps, run.p50_us, run.p90_us, run.p99_us,
                  run.p99_9_us, run.max_us);
    out += buffer;
}

// --- bench --oracle-ablation ------------------------------------------------

/// One (codec, instance) measurement of the storage/latency/accuracy
/// trade-off: bytes on disk, load time, point-query percentiles, and the
/// worst observed estimate/exact ratio over the sampled source rows.
struct AblationFormatStats {
    std::string format;
    std::string kind;
    std::uint64_t bytes = 0;
    double load_seconds = 0.0;
    double p50_us = 0.0;
    double p99_us = 0.0;
    double measured_stretch = 0.0; ///< infinity if any finite pair was lost
};

[[nodiscard]] AblationFormatStats measure_format(
    const std::string& path, const std::vector<PointQuery>& queries,
    const std::vector<std::pair<NodeId, std::vector<Weight>>>& exact_rows)
{
    AblationFormatStats stats;
    stats.bytes = static_cast<std::uint64_t>(std::filesystem::file_size(path));

    const auto load0 = std::chrono::steady_clock::now();
    const std::shared_ptr<const DistanceSource> source = open_distance_source(path);
    const auto load1 = std::chrono::steady_clock::now();
    stats.load_seconds = std::chrono::duration<double>(load1 - load0).count();
    stats.format = snapshot_format_name(peek_snapshot_format(path));
    stats.kind = source_kind_name(source->kind());

    const QueryEngine engine(source, QueryEngineConfig{.threads = 1});
    std::vector<double> latencies;
    latencies.reserve(queries.size());
    for (const PointQuery& q : queries) {
        const auto t0 = std::chrono::steady_clock::now();
        (void)engine.distance(q.from, q.to);
        const auto t1 = std::chrono::steady_clock::now();
        latencies.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
    }
    std::sort(latencies.begin(), latencies.end());
    stats.p50_us = percentile_us(latencies, 0.50);
    stats.p99_us = percentile_us(latencies, 0.99);

    double worst = 1.0;
    for (const auto& [s, exact] : exact_rows) {
        for (NodeId t = 0; t < static_cast<NodeId>(exact.size()); ++t) {
            if (t == s || !is_finite(exact[static_cast<std::size_t>(t)])) continue;
            const Weight estimate = engine.distance(s, t);
            if (!is_finite(estimate)) {
                worst = std::numeric_limits<double>::infinity();
                continue;
            }
            worst = std::max(worst, static_cast<double>(estimate) /
                                        static_cast<double>(exact[static_cast<std::size_t>(t)]));
        }
    }
    stats.measured_stretch = worst;
    return stats;
}

void append_format_json(std::string& out, const AblationFormatStats& stats)
{
    // An infinite stretch (a pair the format lost) has no JSON spelling;
    // it lands as null so consumers notice instead of mis-parsing "inf".
    char stretch_text[32] = "null";
    if (stats.measured_stretch < std::numeric_limits<double>::infinity())
        std::snprintf(stretch_text, sizeof(stretch_text), "%.4f", stats.measured_stretch);
    char buffer[384];
    std::snprintf(buffer, sizeof(buffer),
                  "{\"format\": \"%s\", \"kind\": \"%s\", \"bytes\": %llu, "
                  "\"load_seconds\": %.6f, \"query_p50_us\": %.3f, \"query_p99_us\": %.3f, "
                  "\"measured_stretch\": %s}",
                  stats.format.c_str(), stats.kind.c_str(),
                  static_cast<unsigned long long>(stats.bytes), stats.load_seconds, stats.p50_us,
                  stats.p99_us, stretch_text);
    out += buffer;
}

/// `bench --oracle-ablation`: for each instance size, build the same
/// oracle two ways (dense v2, spanner v3), then measure
/// bytes / load time / query latency / realized stretch for each.  The
/// artifact (BENCH_oracle.json) is the data behind docs/SNAPSHOTS.md's
/// trade-off table.
int cmd_bench_ablation(Args& args)
{
    const std::string out_path = args.value("--out").value_or("BENCH_oracle.json");
    std::vector<int> sizes{48, 96, 192};
    if (const std::optional<std::string> text = args.value("--sizes")) {
        sizes.clear();
        std::istringstream fields(*text);
        for (std::string item; std::getline(fields, item, ',');) sizes.push_back(std::stoi(item));
        if (sizes.empty()) throw std::runtime_error("bench: --sizes needs at least one n");
        for (const int n : sizes)
            if (n < 2) throw std::runtime_error("bench: ablation sizes must be >= 2");
    }
    const std::string family_text = args.value("--family").value_or("er_sparse");
    const std::optional<GraphFamily> family = parse_family(family_text);
    if (!family) throw std::runtime_error("unknown graph family '" + family_text + "'");
    std::uint64_t seed = 7;
    if (const std::optional<std::string> s = args.value("--seed"))
        seed = static_cast<std::uint64_t>(std::stoull(*s));
    long long query_count = 2000;
    if (const std::optional<std::string> q = args.value("--queries")) query_count = std::stoll(*q);
    if (query_count < 1) throw std::runtime_error("bench: --queries must be >= 1");
    int spanner_k = 2;
    if (const std::optional<std::string> k = args.value("--spanner-k")) spanner_k = std::stoi(*k);
    if (spanner_k < 1) throw std::runtime_error("bench: --spanner-k must be >= 1");
    int stretch_sources = 4;
    if (const std::optional<std::string> c = args.value("--stretch-sources"))
        stretch_sources = std::stoi(*c);
    if (stretch_sources < 1) throw std::runtime_error("bench: --stretch-sources must be >= 1");
    args.finish();

    const std::filesystem::path tmp_dir =
        std::filesystem::temp_directory_path() /
        ("ccq_ablation_" + std::to_string(static_cast<unsigned long long>(seed)));
    std::filesystem::create_directories(tmp_dir);

    std::string points_json;
    for (std::size_t index = 0; index < sizes.size(); ++index) {
        const int n = sizes[index];
        Rng instance_rng(seed + static_cast<std::uint64_t>(n));
        const Graph g = make_family_instance(*family, n, WeightRange{1, 100}, instance_rng);

        // Ground truth for the sampled sources (exact Dijkstra on the
        // input graph), shared by both formats.
        Rng source_rng(seed * 31 + static_cast<std::uint64_t>(n));
        std::vector<NodeId> sources;
        while (sources.size() < static_cast<std::size_t>(std::min(stretch_sources, n))) {
            const NodeId s = static_cast<NodeId>(source_rng.uniform_int(0, n - 1));
            if (std::find(sources.begin(), sources.end(), s) == sources.end())
                sources.push_back(s);
        }
        std::vector<std::pair<NodeId, std::vector<Weight>>> exact_rows;
        for (const NodeId s : sources) exact_rows.emplace_back(s, dijkstra_from(g, s));

        // Identical workload for every format at this n.
        Rng query_rng(seed + 1);
        std::vector<PointQuery> queries;
        queries.reserve(static_cast<std::size_t>(query_count));
        for (long long i = 0; i < query_count; ++i) {
            PointQuery q;
            q.from = static_cast<NodeId>(query_rng.uniform_int(0, n - 1));
            q.to = static_cast<NodeId>(query_rng.uniform_int(0, n - 2));
            if (q.to >= q.from) ++q.to;
            queries.push_back(q);
        }

        // The dense oracle (codec v2).
        ApspOptions options;
        options.seed = seed;
        const DistanceOracle oracle(g, ApspAlgorithmKind::general, options);
        RoutingTables routing = build_routing_tables(g);
        const OracleSnapshot dense =
            OracleSnapshot::from_result(g, oracle.result(), seed, &routing);
        const std::string v2_path = (tmp_dir / (std::to_string(n) + ".v2.snap")).string();
        save_snapshot(v2_path, dense);

        // Spanner snapshot of the same instance (codec v3).
        Rng spanner_rng(seed + 2);
        const SpannerResult spanner = baswana_sen_spanner(g, spanner_k, spanner_rng);
        const SparseSnapshot sparse =
            SparseSnapshot::from_spanner(g, spanner, "baswana-sen", seed);
        const std::string v3_path = (tmp_dir / (std::to_string(n) + ".v3.snap")).string();
        save_sparse_snapshot(v3_path, sparse);

        std::string formats_json;
        for (const std::string& path : {v2_path, v3_path}) {
            if (!formats_json.empty()) formats_json += ", ";
            const AblationFormatStats stats = measure_format(path, queries, exact_rows);
            append_format_json(formats_json, stats);
            std::printf("n=%d %-13s %9llu bytes  load=%.4fs  p50=%.1fus p99=%.1fus  "
                        "stretch=%.3f\n",
                        n, stats.format.c_str(), static_cast<unsigned long long>(stats.bytes),
                        stats.load_seconds, stats.p50_us, stats.p99_us, stats.measured_stretch);
            std::filesystem::remove(path);
        }

        if (index > 0) points_json += ",\n";
        points_json += "    {\"n\": " + std::to_string(n) +
                       ", \"edges\": " + std::to_string(g.edge_count()) +
                       ", \"spanner_edges\": " + std::to_string(sparse.edges.size()) +
                       ", \"spanner_stretch_bound\": " + std::to_string(sparse.stretch_bound) +
                       ", \"formats\": [" + formats_json + "]}";
    }
    std::filesystem::remove_all(tmp_dir);

    std::string json = "{\n  \"tool\": \"ccq_serve bench --oracle-ablation\",\n";
    json += "  \"family\": \"" + family_text + "\",\n";
    json += "  \"seed\": " + std::to_string(seed) + ",\n";
    json += "  \"queries\": " + std::to_string(query_count) + ",\n";
    json += "  \"spanner_k\": " + std::to_string(spanner_k) + ",\n";
    json += "  \"stretch_sources\": " + std::to_string(stretch_sources) + ",\n";
    json += "  \"points\": [\n" + points_json + "\n  ]\n}\n";

    std::ofstream out(out_path);
    if (!out) throw std::runtime_error("bench: cannot open " + out_path);
    out << json;
    std::printf("oracle ablation: %zu sizes -> %s\n", sizes.size(), out_path.c_str());
    return 0;
}

int cmd_bench(Args& args)
{
    if (args.flag("--oracle-ablation")) return cmd_bench_ablation(args);
    const std::optional<std::string> snapshot_path = args.value("--snapshot");
    if (!snapshot_path) throw std::runtime_error("bench: --snapshot is required");
    const std::string out_path = args.value("--out").value_or("BENCH_serve.json");
    long long query_count = 50000;
    if (const std::optional<std::string> q = args.value("--queries")) query_count = std::stoll(*q);
    if (query_count < 1) throw std::runtime_error("bench: --queries must be >= 1");
    long long warmup_count = 2000;
    if (const std::optional<std::string> w = args.value("--warmup")) warmup_count = std::stoll(*w);
    if (warmup_count < 0) throw std::runtime_error("bench: --warmup must be >= 0");
    int threads = 4;
    if (const std::optional<std::string> t = args.value("--threads")) threads = std::stoi(*t);
    int net_connections = 0;
    if (const std::optional<std::string> c = args.value("--net"))
        net_connections = std::stoi(*c);
    if (const std::optional<std::string> c = args.value("--connections"))
        net_connections = std::stoi(*c); // spelled-out alias of --net
    if (net_connections < 0) throw std::runtime_error("bench: --net must be >= 0");
    double rate = 0.0; // 0 = closed loop (the historical behavior)
    if (const std::optional<std::string> r = args.value("--rate")) rate = std::stod(*r);
    if (rate < 0.0) throw std::runtime_error("bench: --rate must be >= 0");
    if (rate > 0.0 && net_connections == 0)
        throw std::runtime_error("bench: --rate needs --connections (or --net)");
    std::size_t trace_every = 0; // 0 = no trace envelopes
    if (const std::optional<std::string> every = args.value("--trace-every"))
        trace_every = static_cast<std::size_t>(std::stoull(*every));
    const bool use_mmap = args.flag("--mmap");
    const bool no_metrics = args.flag("--no-metrics");
    const bool metrics_ab = args.flag("--metrics-ab");
    std::uint64_t seed = 42;
    if (const std::optional<std::string> s = args.value("--seed"))
        seed = static_cast<std::uint64_t>(std::stoull(*s));
    const std::string mix_name = args.value("--mix").value_or("mixed");
    args.finish();
    if (threads < 1) throw std::runtime_error("bench: --threads must be >= 1");
    if (metrics_ab && net_connections == 0)
        throw std::runtime_error("bench: --metrics-ab needs --net (or --connections)");
    if (metrics_ab && rate > 0.0)
        throw std::runtime_error(
            "bench: --metrics-ab measures closed-loop qps, drop --rate");
    if (trace_every > 0 && rate <= 0.0)
        throw std::runtime_error("bench: --trace-every needs --rate (open-loop load)");

    // Load (timed): eagerly, just the mmap open + integrity pass, or —
    // for a v3 file — the sparse decode + CSR build.
    const std::uint64_t file_bytes =
        static_cast<std::uint64_t>(std::filesystem::file_size(*snapshot_path));
    const SnapshotFormat format = peek_snapshot_format(*snapshot_path);
    const bool sparse = format == SnapshotFormat::v3_spanner;
    if (sparse && use_mmap)
        throw std::runtime_error(
            "bench: --mmap applies to dense snapshots (v3 decodes into memory)");
    const auto load0 = std::chrono::steady_clock::now();
    const std::shared_ptr<const DistanceSource> source =
        open_distance_source(*snapshot_path, DistanceSourceOptions{.prefer_mmap = use_mmap});
    const auto load1 = std::chrono::steady_clock::now();
    const double load_seconds = std::chrono::duration<double>(load1 - load0).count();

    const SnapshotMeta& meta = source->meta();
    const std::uint32_t file_format_version = format_version(format);
    const int n = meta.node_count;
    if (n < 2) throw std::runtime_error("bench: snapshot too small to query");
    const bool can_path = source->has_routing();
    if (mix_name == "path" && !can_path)
        throw std::runtime_error("bench: snapshot has no routing tables, cannot bench --mix path");

    // Pre-generate the workload so every run replays identical queries.
    Rng rng(seed);
    std::vector<PointQuery> queries;
    std::vector<QueryKind> kinds;
    queries.reserve(static_cast<std::size_t>(query_count));
    kinds.reserve(static_cast<std::size_t>(query_count));
    for (long long i = 0; i < query_count; ++i) {
        PointQuery q;
        q.from = static_cast<NodeId>(rng.uniform_int(0, n - 1));
        q.to = static_cast<NodeId>(rng.uniform_int(0, n - 2));
        if (q.to >= q.from) ++q.to; // distinct endpoints
        queries.push_back(q);
        if (mix_name == "distance")
            kinds.push_back(QueryKind::distance);
        else if (mix_name == "path")
            kinds.push_back(QueryKind::path);
        else if (mix_name == "mixed") {
            const double r = rng.uniform_real();
            if (can_path && r < 0.3)
                kinds.push_back(QueryKind::path);
            else if (r < 0.5)
                kinds.push_back(QueryKind::knearest);
            else
                kinds.push_back(QueryKind::distance);
        } else
            throw std::runtime_error("bench: unknown --mix '" + mix_name + "'");
    }
    const std::size_t warmup = static_cast<std::size_t>(warmup_count);

    std::vector<BenchRun> runs;
    std::vector<int> thread_counts{1};
    if (threads > 1) thread_counts.push_back(threads);
    for (const int count : thread_counts) {
        const QueryEngine engine(source);
        runs.push_back(run_load(engine, queries, kinds, warmup, count));
        std::printf("in-process threads=%d  %.0f queries/s  p50=%.1fus p99=%.1fus\n",
                    runs.back().threads, runs.back().qps, runs.back().p50_us,
                    runs.back().p99_us);
    }
    const bool measured_speedup = runs.size() == 2 && runs[0].qps > 0.0;
    const double speedup = measured_speedup ? runs[1].qps / runs[0].qps : 1.0;

    // The network edge: same workload, one in-process loopback server per
    // run over the same source, one Client connection per worker.
    // `metrics_on` toggles ServerConfig::metrics so the A/B pass below can
    // price hot-path recording against an otherwise identical server.
    const auto run_net_once = [&](int count, bool metrics_on) {
        const auto engine = std::make_shared<const QueryEngine>(source);
        ServerConfig server_config;
        server_config.metrics = metrics_on;
        Server server(engine, server_config);
        const int port = server.listen();
        std::thread accept_thread([&server] { server.run(); });
        const BenchRun run =
            rate > 0.0
                ? run_open_load("127.0.0.1", port, queries, kinds, count, rate, trace_every)
                : run_net_load("127.0.0.1", port, queries, kinds, warmup, count);
        {
            Client control = Client::connect("127.0.0.1", port);
            control.shutdown_server();
        }
        accept_thread.join();
        return run;
    };

    std::vector<BenchRun> net_runs;
    if (net_connections > 0) {
        // An open-loop run measures one operating point (connections x
        // rate); the closed loop keeps its 1-vs-N scaling pair.
        std::vector<int> connection_counts;
        if (rate > 0.0) {
            connection_counts.push_back(net_connections);
        } else {
            connection_counts.push_back(1);
            if (net_connections > 1) connection_counts.push_back(net_connections);
        }
        for (const int count : connection_counts) {
            net_runs.push_back(run_net_once(count, /*metrics_on=*/!no_metrics));
            char rate_label[32] = "";
            if (rate > 0.0)
                std::snprintf(rate_label, sizeof rate_label, " rate=%.0f", rate);
            std::printf("network connections=%d%s  %.0f queries/s  "
                        "p50=%.1fus p99=%.1fus p99.9=%.1fus\n",
                        net_runs.back().threads, rate_label,
                        net_runs.back().qps, net_runs.back().p50_us,
                        net_runs.back().p99_us, net_runs.back().p99_9_us);
        }
    }

    // Metrics A/B: alternate off/on closed-loop runs and keep each arm's
    // best qps — best-of-N damps scheduler noise where a mean would
    // smear it into the overhead estimate.
    struct MetricsAb {
        double on_qps = 0.0;
        double off_qps = 0.0;
        double overhead_pct = 0.0;
    };
    std::optional<MetricsAb> ab;
    if (metrics_ab) {
        MetricsAb measured;
        constexpr int kAbRepeats = 5;
        for (int repeat = 0; repeat < kAbRepeats; ++repeat) {
            measured.off_qps =
                std::max(measured.off_qps, run_net_once(net_connections, false).qps);
            measured.on_qps =
                std::max(measured.on_qps, run_net_once(net_connections, true).qps);
        }
        measured.overhead_pct =
            measured.off_qps > 0.0
                ? (measured.off_qps - measured.on_qps) / measured.off_qps * 100.0
                : 0.0;
        ab = measured;
        std::printf("metrics A/B connections=%d  on=%.0f qps, off=%.0f qps, "
                    "overhead=%.2f%%\n",
                    net_connections, ab->on_qps, ab->off_qps,
                    ab->overhead_pct);
    }

    std::string json = "{\n  \"tool\": \"ccq_serve bench\",\n";
    json += "  \"snapshot\": {\"nodes\": " + std::to_string(n) +
            ", \"edges\": " + std::to_string(meta.edge_count) + ", \"algorithm\": \"" +
            json_escape(meta.algorithm) + "\", \"claimed_stretch\": " +
            std::to_string(meta.claimed_stretch) + ", \"routing\": " +
            (can_path ? "true" : "false") + "},\n";
    json += "  \"snapshot_file\": {\"path\": \"" + json_escape(*snapshot_path) +
            "\", \"bytes\": " + std::to_string(file_bytes) +
            ", \"format_version\": " + std::to_string(file_format_version) +
            ", \"format\": \"" + snapshot_format_name(format) +
            "\", \"source_kind\": \"" + source_kind_name(source->kind()) +
            "\", \"load_mode\": \"" + (sparse ? "sparse" : (use_mmap ? "mmap" : "eager")) +
            "\", \"load_seconds\": " + std::to_string(load_seconds) + "},\n";
    json += "  \"mix\": \"" + mix_name + "\",\n";
    json += "  \"queries\": " + std::to_string(query_count) + ",\n";
    json += "  \"warmup\": " + std::to_string(warmup_count) + ",\n";
    const unsigned hw = std::thread::hardware_concurrency();
    json += "  \"hardware_threads\": " + std::to_string(hw == 0 ? 1 : hw) + ",\n";
    json += "  \"runs\": [";
    for (std::size_t i = 0; i < runs.size(); ++i) {
        if (i > 0) json += ", ";
        append_run_json(json, runs[i]);
    }
    json += "],\n";
    // Honest reporting: with a single run there is no measured speedup.
    std::string speedup_text = "null";
    if (measured_speedup) {
        char buffer[64];
        std::snprintf(buffer, sizeof(buffer), "%.3f", speedup);
        speedup_text = buffer;
    }
    json += "  \"speedup_vs_single_thread\": " + speedup_text + ",\n";
    if (ab) {
        char buffer[192];
        std::snprintf(buffer, sizeof(buffer),
                      "{\"connections\": %d, \"metrics_on_qps\": %.1f, "
                      "\"metrics_off_qps\": %.1f, \"overhead_pct\": %.3f}",
                      net_connections, ab->on_qps, ab->off_qps, ab->overhead_pct);
        json += "  \"metrics_overhead\": ";
        json += buffer;
        json += ",\n";
    } else {
        json += "  \"metrics_overhead\": null,\n";
    }
    if (net_runs.empty()) {
        json += "  \"net\": null\n}\n";
    } else {
        std::string rate_text = "null";
        if (rate > 0.0) {
            char buffer[64];
            std::snprintf(buffer, sizeof(buffer), "%.1f", rate);
            rate_text = buffer;
        }
        json += std::string("  \"net\": {\"mode\": \"") + (rate > 0.0 ? "open" : "closed") +
                "\", \"connections\": " + std::to_string(net_connections) +
                ", \"rate\": " + rate_text + ", \"runs\": [";
        for (std::size_t i = 0; i < net_runs.size(); ++i) {
            if (i > 0) json += ", ";
            append_run_json(json, net_runs[i]);
        }
        // The headline tail numbers (the highest-connection run) under a
        // stable key so CI and dashboards need not dig through `runs`.
        const BenchRun& last = net_runs.back();
        char latency[256];
        std::snprintf(latency, sizeof(latency),
                      "{\"p50_us\":%.3f,\"p90_us\":%.3f,\"p99_us\":%.3f,"
                      "\"p99_9_us\":%.3f,\"max_us\":%.3f}",
                      last.p50_us, last.p90_us, last.p99_us, last.p99_9_us, last.max_us);
        json += "], \"latency\": ";
        json += latency;
        json += "}\n}\n";
    }

    std::ofstream out(out_path);
    if (!out) throw std::runtime_error("bench: cannot open " + out_path);
    out << json;
    std::printf("speedup %dx-thread vs 1-thread: %.2fx; %s %llu bytes -> %s\n", threads, speedup,
                snapshot_format_name(format), static_cast<unsigned long long>(file_bytes),
                out_path.c_str());
    return 0;
}

} // namespace

int main(int argc, char** argv)
{
    if (argc < 2) return usage(argv[0]);
    const std::string command = argv[1];
    Args args(argc - 2, argv + 2);
    try {
        if (command == "build") return cmd_build(args);
        if (command == "query") return cmd_query(args);
        if (command == "bench") return cmd_bench(args);
        return usage(argv[0]);
    } catch (const std::exception& error) {
        std::fprintf(stderr, "ccq_serve %s: %s\n", command.c_str(), error.what());
        return 2;
    }
}
