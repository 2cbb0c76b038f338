// ccq_perfbench: one workload of the perf benchmark per process.
//
//   ccq_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --out-dir <dir>
//
// Workloads (README.md says why each exists):
//   build-general  general (Theorem 1.1) on er_sparse n=4096: repeated graph -> file builds
//   build-exact    exact-minplus on er_sparse n=1536: repeated graph -> file builds
//   serve-spanner  a v3 Baswana-Sen k=2 spanner of er_sparse n=20000, served over loopback
//
// Every workload ends by serving its snapshot through the one-CPU
// loopback shape of serve_loop.hpp and checking each answer.  stdout
// carries an "env" line, a "report" line with every measurement, and
// last the result line; --trace 1 replays the builds stage by stage
// under in-memory spans and reports the per-layer metrics instead.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "ccq/apsp.hpp"
#include "ccq/common/math.hpp"
#include "ccq/core/general_apsp.hpp"
#include "ccq/knearest/knearest.hpp"
#include "ccq/matrix/engine.hpp"
#include "ccq/matrix/kernels/kernels.hpp"
#include "ccq/skeleton/skeleton.hpp"
#include "ccq/spanner/baswana_sen.hpp"
#include "checks.hpp"
#include "serve_loop.hpp"

namespace perfbench {
namespace {

/// Setup runs this many times per process; setup_s is their median.
constexpr int kSetupReps = 3;
/// Dijkstra sources of the stretch checks (and the query sources of build-*).
constexpr int kSampleSources = 128;
/// Measured queries replayed twice in-process by the exact-count check.
constexpr std::size_t kCountReplay = 500;
/// In-process queries timed per op kind for serve.*_ns, and their time cap.
constexpr std::size_t kInProcessQueries = 4000;
constexpr double kInProcessBudgetS = 0.5;
/// Share of --seconds a build workload spends building (at least
/// kMinBuilds builds); the rest, and at least the other share, serves.
constexpr double kBuildShare = 0.5;
constexpr std::size_t kMinBuilds = 2;
constexpr int kSpannerK = 2;
constexpr int kSpannerBuilds = 60;
constexpr double kZipfExponent = 1.1;

enum class Kind { build_general, build_exact, serve_spanner };

struct Workload {
    const char* name;
    Kind kind;
    int n;
};

constexpr Workload kWorkloads[] = {
    {"build-general", Kind::build_general, 4096},
    {"build-exact", Kind::build_exact, 1536},
    {"serve-spanner", Kind::serve_spanner, 20000},
};

/// The result line's metrics; BENCHMARK.json lists the same names.
constexpr const char* kEndToEnd[][2] = {
    {"setup_s", "s"},         {"apsp_s", "s"},      {"build_s", "s"},
    {"peak_rss_mb", "MB"},    {"snapshot_mb", "MB"}, {"stretch_mean", "ratio"},
    {"qps_adj", "1/s"},       {"p50_adj_us", "us"}, {"p99_adj_us", "us"},
    {"serve_rss_mb", "MB"},
};
constexpr const char* kPerLayer[][2] = {
    {"graph.generate_s", "s"},
    {"knearest.compute_s", "s"},
    {"knearest.row_entries", "count"},
    {"skeleton.build_s", "s"},
    {"skeleton.size", "count"},
    {"skeleton.extend_s", "s"},
    {"core.skeleton_sim_s", "s"},
    {"core.routing_s", "s"},
    {"matrix.products_wide", "count"},
    {"matrix.products_narrow", "count"},
    {"matrix.products_sparse_skip", "count"},
    {"matrix.dense_product_s", "s"},
    {"matrix.sparse_skip_product_s", "s"},
    {"matrix.cell_updates_per_s", "1/s"},
    {"clique.rounds", "rounds"},
    {"clique.words", "count"},
    {"clique.rounds_knearest", "rounds"},
    {"clique.rounds_skeleton", "rounds"},
    {"clique.rounds_skeleton_sim", "rounds"},
    {"clique.rounds_extend", "rounds"},
    {"clique.rounds_minplus", "rounds"},
    {"serve.snapshot_write_s", "s"},
    {"serve.snapshot_open_s", "s"},
    {"serve.distance_ns", "ns"},
    {"serve.path_ns", "ns"},
    {"serve.knearest_ns", "ns"},
    {"serve.path_cache_hit_rate", "ratio"},
    {"serve.row_miss_us", "us"},
    {"serve.rows_materialized", "count"},
    {"serve.row_cache_hit_rate", "ratio"},
    {"net.overhead_us", "us"},
    {"net.queue_us", "us"},
    {"net.flush_us", "us"},
    {"spanner.build_s", "s"},
    {"trace.apsp_traced_s", "s"},
    {"trace.overhead_s", "s"},
    {"trace.stage_share", "ratio"},
};

struct Options {
    const Workload* workload = nullptr;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string out_dir = ".";
};

/// Everything one run measures, plus the operation tally.
struct Context {
    Options opt;
    SpanRecorder spans;
    std::map<std::string, Metric> metrics;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    int cpu = 0;
    std::string snapshot_path;

    explicit Context(const Options& options)
        : opt(options), spans(options.trace),
          snapshot_path(options.out_dir + "/" + options.workload->name + ".snap")
    {
    }

    void put(const std::string& name, double value, const std::string& unit)
    {
        metrics[name] = Metric{name, value, unit};
    }
    [[nodiscard]] ccq::ApspOptions apsp_options() const
    {
        ccq::ApspOptions options;
        options.seed = opt.seed;
        return options;
    }
};

ccq::ApspAlgorithmKind oracle_kind(const Context& ctx)
{
    return ctx.opt.workload->kind == Kind::build_exact ? ccq::ApspAlgorithmKind::exact_baseline
                                                       : ccq::ApspAlgorithmKind::general;
}

ccq::Graph generate(Context& ctx)
{
    SpanRecorder::Scope span(ctx.spans, "graph.generate");
    ccq::Rng rng(ctx.opt.seed);
    ccq::Graph g = ccq::make_family_instance(ccq::GraphFamily::erdos_renyi_sparse,
                                             ctx.opt.workload->n, ccq::WeightRange{1, 100}, rng);
    ctx.put("graph.generate_s", span.stop(), "s");
    return g;
}

/// Stretch of the sampled source rows: the mean is the steady quality
/// figure of the result line, the worst case goes to the report.
void put_stretch(Context& ctx, const StretchTally& stretch)
{
    ctx.put("stretch_mean", stretch.mean_stretch(), "ratio");
    ctx.put("stretch_max", stretch.max_stretch, "ratio");
}

std::vector<ccq::NodeId> sample_sources(int n, std::uint64_t seed)
{
    ccq::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
    std::vector<ccq::NodeId> picked;
    while (picked.size() < static_cast<std::size_t>(std::min(kSampleSources, n))) {
        const auto v = static_cast<ccq::NodeId>(rng.uniform_int(0, n - 1));
        if (std::find(picked.begin(), picked.end(), v) == picked.end()) picked.push_back(v);
    }
    return picked;
}

// --- exact counts -----------------------------------------------------------

/// Counts a build must reproduce exactly, run after run.
struct BuildCounts {
    double rounds = 0.0;
    std::uint64_t words = 0;
    std::uint64_t products_wide = 0;
    std::uint64_t products_narrow = 0;
    std::uint64_t products_sparse_skip = 0;

    friend bool operator==(const BuildCounts&, const BuildCounts&) = default;
};

BuildCounts counts_of(const ccq::ApspResult& result, const ccq::EngineCounters& before)
{
    const ccq::EngineCounters after = ccq::engine_counters();
    return {result.ledger.total_rounds(), result.ledger.total_words(),
            after.products_wide - before.products_wide,
            after.products_narrow - before.products_narrow,
            after.products_sparse_skip - before.products_sparse_skip};
}

void require_same_counts(const BuildCounts& first, const BuildCounts& again, const char* what)
{
    if (!(first == again))
        throw check_failure(std::string("exact-count check failed: ") + what +
                            " differ between two runs of the same seed");
}

// --- traced replays -----------------------------------------------------------

/// apsp_general, one public stage call at a time under spans.  The
/// stage parameters mirror core/general_apsp.cpp (practical profile);
/// the bitwise comparison with the one-shot call catches any drift.
ccq::ApspResult replay_general(Context& ctx, const ccq::Graph& g)
{
    const ccq::ApspOptions options = ctx.apsp_options();
    const int n = g.node_count();
    ccq::ApspResult result;
    result.algorithm = "general";
    ccq::CliqueTransport transport(std::max(1, n), options.cost, result.ledger);
    ccq::Rng rng(options.seed);
    ccq::PhaseScope scope(result.ledger, "general");

    const auto log_n = static_cast<std::int64_t>(ccq::ceil_log2(std::max(2, n)));
    const std::int64_t k =
        std::clamp<std::int64_t>(std::min<std::int64_t>(log_n * log_n, ccq::floor_sqrt(n)), 1, n);
    ccq::KNearestOptions knn;
    knn.k = static_cast<int>(k);
    knn.h = 2;
    knn.faithful_bins = options.faithful_bin_scheme;
    knn.iterations = std::max(1, ccq::ceil_log2(std::max<std::int64_t>(2, k)));
    knn.engine = options.engine;

    std::optional<ccq::KNearestResult> nearest;
    {
        SpanRecorder::Scope span(ctx.spans, "knearest.compute");
        nearest = ccq::compute_k_nearest(ccq::adjacency_rows(g, true), knn, transport,
                                         "outer-k-nearest");
    }
    std::optional<ccq::SkeletonGraph> skeleton;
    {
        SpanRecorder::Scope span(ctx.spans, "skeleton.build");
        skeleton = ccq::build_skeleton(g, nearest->rows, 1.0, rng, transport, "outer-skeleton",
                                       options.engine);
    }
    if (skeleton->size() >= n)
        throw check_failure("replay: the skeleton did not shrink the graph (degenerate branch)");

    ccq::ApspOptions inner = options;
    inner.cost = ccq::CostModel::with_log_power_bandwidth(std::max(2, n), 4);
    ccq::CliqueTransport skeleton_transport(std::max(1, skeleton->size()), inner.cost,
                                            result.ledger);
    double inner_claimed = 1.0;
    std::optional<ccq::DistanceMatrix> delta_gs;
    {
        SpanRecorder::Scope span(ctx.spans, "core.skeleton_sim");
        delta_gs = ccq::large_bandwidth_impl(skeleton->graph, inner, rng, skeleton_transport,
                                             "skeleton-sim", &inner_claimed);
    }
    {
        SpanRecorder::Scope span(ctx.spans, "skeleton.extend");
        result.estimate = ccq::extend_skeleton_estimate(*skeleton, *delta_gs, nearest->rows,
                                                        transport, "extend");
    }
    result.claimed_stretch = 7.0 * inner_claimed;

    std::uint64_t entries = 0;
    for (const ccq::SparseRow& row : nearest->rows) entries += row.size();
    ctx.put("knearest.row_entries", static_cast<double>(entries), "count");
    ctx.put("skeleton.size", skeleton->size(), "count");
    return result;
}

/// exact_apsp_clique as one min_plus_product call (plus its plan) per squaring.
ccq::ApspResult replay_exact(Context& ctx, const ccq::Graph& g)
{
    const ccq::ApspOptions options = ctx.apsp_options();
    const int n = g.node_count();
    ccq::ApspResult result;
    result.algorithm = "exact-minplus";
    ccq::CliqueTransport transport(std::max(1, n), options.cost, result.ledger);

    ccq::DistanceMatrix a = ccq::adjacency_matrix(g);
    int used = 0;
    for (std::int64_t hops = 1; hops < n - 1; hops *= 2) {
        const ccq::ProductPlan plan = ccq::preview_product_plan(a, a, options.engine);
        ccq::DistanceMatrix next;
        {
            SpanRecorder::Scope span(ctx.spans, plan.sparse_skip ? "matrix.sparse_skip_product"
                                                                 : "matrix.dense_product");
            next = ccq::min_plus_product(a, a, options.engine);
        }
        ++used;
        const bool fixed_point = next == a;
        a = std::move(next);
        if (fixed_point) break;
    }
    transport.charge_dense_products("minplus-squaring", used);
    result.estimate = std::move(a);
    result.claimed_stretch = 1.0;
    return result;
}

void require_identical(const ccq::ApspResult& one_shot, const ccq::ApspResult& replay)
{
    const ccq::RoundLedger& a = one_shot.ledger;
    const ccq::RoundLedger& b = replay.ledger;
    bool same = one_shot.estimate == replay.estimate &&
                one_shot.claimed_stretch == replay.claimed_stretch &&
                a.total_rounds() == b.total_rounds() && a.total_words() == b.total_words() &&
                a.entries().size() == b.entries().size();
    for (std::size_t i = 0; same && i < a.entries().size(); ++i) {
        const ccq::LedgerEntry& x = a.entries()[i];
        const ccq::LedgerEntry& y = b.entries()[i];
        same = x.phase == y.phase && x.rounds == y.rounds && x.words == y.words &&
               x.parallel_lane == y.parallel_lane;
    }
    if (!same) throw check_failure("traced replay is not bitwise identical to the one-shot call");
}

// --- dense builds -------------------------------------------------------------

struct DenseBuild {
    double apsp_s = 0.0;
    double routing_s = 0.0;
    double write_s = 0.0;
    double build_s = 0.0;
    BuildCounts counts;
    StretchTally stretch;
};

/// Graph -> snapshot file as `ccq_serve build --compress` does it: the
/// oracle, routing tables, OracleSnapshot::from_result, save_snapshot v2.
/// With `replay`, the oracle is the traced stage-by-stage replay and must
/// equal `*replay`'s one-shot result bitwise.
DenseBuild dense_build(Context& ctx, const ccq::Graph& g, const ExactRows& exact,
                       const std::vector<ccq::NodeId>& sources,
                       const ccq::ApspResult* replay_of = nullptr)
{
    DenseBuild build;
    const ccq::EngineCounters before = ccq::engine_counters();
    const Clock::time_point start = Clock::now();

    std::optional<ccq::DistanceOracle> oracle;
    ccq::ApspResult replayed;
    {
        SpanRecorder::Scope span(ctx.spans, "apsp");
        if (replay_of != nullptr)
            replayed = oracle_kind(ctx) == ccq::ApspAlgorithmKind::general ? replay_general(ctx, g)
                                                                           : replay_exact(ctx, g);
        else
            oracle.emplace(g, oracle_kind(ctx), ctx.apsp_options());
        build.apsp_s = span.stop();
    }
    const ccq::ApspResult& result = oracle ? oracle->result() : replayed;
    std::optional<ccq::RoutingTables> routing;
    {
        SpanRecorder::Scope span(ctx.spans, "core.routing");
        routing = ccq::build_routing_tables(g);
        build.routing_s = span.stop();
    }
    {
        const ccq::OracleSnapshot snapshot =
            ccq::OracleSnapshot::from_result(g, result, ctx.opt.seed, &*routing);
        SpanRecorder::Scope span(ctx.spans, "serve.snapshot_write");
        ccq::save_snapshot(ctx.snapshot_path, snapshot, ccq::SnapshotFormat::v2_compressed);
        build.write_s = span.stop();
    }
    build.build_s = seconds_since(start);

    build.counts = counts_of(result, before);
    if (replay_of != nullptr) require_identical(*replay_of, result);
    build.stretch = check_rows(exact, sources, result.claimed_stretch, [&](ccq::NodeId s) {
        std::vector<ccq::Weight> row(static_cast<std::size_t>(g.node_count()));
        for (ccq::NodeId v = 0; v < g.node_count(); ++v)
            row[static_cast<std::size_t>(v)] = result.estimate.at(s, v);
        return row;
    });

    const ccq::RoundLedger& ledger = result.ledger;
    ctx.put("clique.rounds", ledger.total_rounds(), "rounds");
    ctx.put("clique.words", static_cast<double>(ledger.total_words()), "count");
    ctx.put("clique.rounds_knearest", ledger.rounds_in_phase("general/outer-k-nearest"), "rounds");
    ctx.put("clique.rounds_skeleton", ledger.rounds_in_phase("general/outer-skeleton"), "rounds");
    ctx.put("clique.rounds_skeleton_sim", ledger.rounds_in_phase("general/skeleton-sim"),
            "rounds");
    ctx.put("clique.rounds_extend", ledger.rounds_in_phase("general/extend"), "rounds");
    ctx.put("clique.rounds_minplus", ledger.rounds_in_phase("minplus-squaring"), "rounds");
    ctx.put("matrix.products_wide", static_cast<double>(build.counts.products_wide), "count");
    ctx.put("matrix.products_narrow", static_cast<double>(build.counts.products_narrow), "count");
    ctx.put("matrix.products_sparse_skip", static_cast<double>(build.counts.products_sparse_skip),
            "count");
    return build;
}

/// The traced run's build: a one-shot oracle call, the traced replay
/// (which must match it bitwise, counts included), then a second
/// one-shot call.  trace.overhead_s is the replay's apsp_s minus the
/// mean of the two untraced calls around it.
DenseBuild traced_build(Context& ctx, const ccq::Graph& g, const ExactRows& exact,
                        const std::vector<ccq::NodeId>& sources)
{
    const ccq::EngineCounters before = ccq::engine_counters();
    Clock::time_point start = Clock::now();
    std::optional<ccq::DistanceOracle> one_shot(std::in_place, g, oracle_kind(ctx),
                                                ctx.apsp_options());
    double untraced_s = seconds_since(start);
    const BuildCounts counts = counts_of(one_shot->result(), before);
    const DenseBuild build = dense_build(ctx, g, exact, sources, &one_shot->result());
    require_same_counts(counts, build.counts, "rounds/words/products");
    one_shot.reset();
    start = Clock::now();
    { const ccq::DistanceOracle again(g, oracle_kind(ctx), ctx.apsp_options()); }
    untraced_s = (untraced_s + seconds_since(start)) / 2.0;
    ctx.put("trace.overhead_s", build.apsp_s - untraced_s, "s");
    return build;
}

std::shared_ptr<const ccq::DistanceSource> open_snapshot(Context& ctx)
{
    SpanRecorder::Scope span(ctx.spans, "serve.snapshot_open");
    std::shared_ptr<const ccq::DistanceSource> source =
        ccq::open_distance_source(ctx.snapshot_path);
    ctx.put("serve.snapshot_open_s", span.stop(), "s");
    return source;
}

// --- serving --------------------------------------------------------------------

/// Dense-snapshot load: 70% distance, 20% path, 10% k-nearest, sources
/// drawn from `sources`, uniform targets.
std::function<Query()> dense_mix(std::uint64_t seed, int n, std::vector<ccq::NodeId> sources)
{
    auto rng = std::make_shared<ccq::Rng>(seed * 0xbf58476d1ce4e5b9ULL + 7);
    return [rng, n, sources = std::move(sources)] {
        const std::int64_t pick = rng->uniform_int(0, 99);
        Query q;
        q.op = pick < 70 ? OpKind::distance : pick < 90 ? OpKind::path : OpKind::knearest;
        q.from = sources[static_cast<std::size_t>(
            rng->uniform_int(0, static_cast<std::int64_t>(sources.size()) - 1))];
        q.to = static_cast<ccq::NodeId>(rng->uniform_int(0, n - 1));
        return q;
    };
}

/// Spanner load: Zipf(1.1) sources over a seeded permutation, uniform
/// targets, 80% distance and 20% path.
std::function<Query()> zipf_mix(std::uint64_t seed, int n)
{
    auto rng = std::make_shared<ccq::Rng>(seed * 0xbf58476d1ce4e5b9ULL + 11);
    std::vector<ccq::NodeId> perm(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) perm[static_cast<std::size_t>(i)] = i;
    rng->shuffle(std::span<ccq::NodeId>(perm));
    std::vector<double> cdf(static_cast<std::size_t>(n));
    double total = 0.0;
    for (int r = 0; r < n; ++r) {
        total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
        cdf[static_cast<std::size_t>(r)] = total;
    }
    return [rng, perm = std::move(perm), cdf = std::move(cdf), total, n] {
        const double u = rng->uniform_real() * total;
        const auto rank = static_cast<std::size_t>(
            std::min<std::ptrdiff_t>(std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin(),
                                     n - 1));
        Query q;
        q.op = rng->uniform_int(0, 99) < 80 ? OpKind::distance : OpKind::path;
        q.from = perm[rank];
        q.to = static_cast<ccq::NodeId>(rng->uniform_int(0, n - 1));
        return q;
    };
}

/// Median in-process latency (ns) of the first measured queries of `op`,
/// each timed alone; stops early after kInProcessBudgetS.
double in_process_ns(const ccq::QueryEngine& engine, const ServeReport& report, OpKind op)
{
    std::vector<double> ns;
    const Clock::time_point budget = Clock::now();
    for (const Query& q : report.queries) {
        if (q.op != op) continue;
        if (ns.size() == kInProcessQueries || seconds_since(budget) > kInProcessBudgetS) break;
        const Clock::time_point start = Clock::now();
        const Answer answer = answer_with(engine, q);
        ns.push_back(std::chrono::duration<double, std::nano>(Clock::now() - start).count());
        if (!answer.ok) throw check_failure("in-process query failed");
    }
    return median(ns);
}

/// Cache and row counters after replaying the first measured queries on
/// a fresh engine (and, for lazy sources, a fresh source).
struct ServeCounts {
    std::uint64_t path_hits = 0;
    std::uint64_t path_misses = 0;
    std::uint64_t rows_materialized = 0;
    std::uint64_t row_cache_hits = 0;

    friend bool operator==(const ServeCounts&, const ServeCounts&) = default;
};

ServeCounts replay_counts(Context& ctx, const ServeReport& report,
                          const std::shared_ptr<const ccq::DistanceSource>& served)
{
    const std::shared_ptr<const ccq::DistanceSource> source =
        served->kind() == ccq::SourceKind::spanner
            ? ccq::open_distance_source(ctx.snapshot_path)
            : served;
    const ccq::QueryEngine engine(source);
    const std::size_t count = std::min(kCountReplay, report.queries.size());
    for (std::size_t i = 0; i < count; ++i) (void)answer_with(engine, report.queries[i]);
    const ccq::CacheStats cache = engine.cache_stats();
    return {cache.hits, cache.misses, source->rows_materialized(), source->row_cache_hits()};
}

void trace_serving(Context& ctx, const ServeReport& report,
                   const std::shared_ptr<const ccq::DistanceSource>& source);

/// Serves the snapshot behind `source`, checks every answer, and records
/// the serve-side end-to-end and per-layer metrics.
void serve_phase(Context& ctx, const ccq::Graph& g,
                 std::shared_ptr<const ccq::DistanceSource> source,
                 const std::function<Query()>& next_query, double seconds)
{
    const bool spanner = source->kind() == ccq::SourceKind::spanner;
    const double claimed = source->meta().claimed_stretch;
    auto engine = std::make_shared<const ccq::QueryEngine>(source);
    trim_heap();

    ServeConfig config;
    config.cpu = ctx.cpu;
    config.seconds = seconds;
    ServeReport report;
    {
        SpanRecorder::Scope span(ctx.spans, "serve.loopback");
        report = serve_closed_loop(engine, next_query, config);
    }
    const LoadFigures load = load_figures(report);
    ctx.put("qps", load.qps, "1/s");
    ctx.put("p50_us", load.p50_us, "us");
    ctx.put("p99_us", load.p99_us, "us");
    ctx.put("host.rt_us", load.host_rt_us, "us");
    ctx.put("qps_adj", load.qps_adj, "1/s");
    ctx.put("p50_adj_us", load.p50_adj_us, "us");
    ctx.put("p99_adj_us", load.p99_adj_us, "us");

    const WireCheck check = [&] {
        SpanRecorder::Scope span(ctx.spans, "check.answers");
        const ccq::QueryEngine reference(source); // cold path cache: answers are recomputed
        return check_answers(report, reference, g, claimed, spanner);
    }();
    ctx.attempted += report.queries.size();
    ctx.failed += check.failed;
    std::fprintf(stderr, "serve: %zu requests, %llu failed checks, stretch<=%.3f\n",
                 report.queries.size(), static_cast<unsigned long long>(check.failed),
                 check.stretch.max_stretch);

    ServeCounts first;
    std::thread replay([&] { first = replay_counts(ctx, report, source); });
    const ServeCounts second = replay_counts(ctx, report, source);
    replay.join();
    if (!(first == second))
        throw check_failure("exact-count check failed: cache counters differ between replays");

    const std::uint64_t lookups = report.path_cache.hits + report.path_cache.misses;
    ctx.put("serve.path_cache_hit_rate",
            lookups == 0 ? 0.0 : static_cast<double>(report.path_cache.hits) /
                                     static_cast<double>(lookups),
            "ratio");
    ctx.put("serve.rows_materialized", static_cast<double>(report.rows_materialized), "count");
    const std::uint64_t row_reads = report.rows_materialized + report.row_cache_hits;
    ctx.put("serve.row_cache_hit_rate",
            row_reads == 0 ? 0.0 : static_cast<double>(report.row_cache_hits) /
                                       static_cast<double>(row_reads),
            "ratio");

    if (ctx.opt.trace) trace_serving(ctx, report, source);

    // The served state alone: the recorded answers grow with qps, so they
    // are released (and the heap trimmed) before RSS is read.
    report = ServeReport{};
    trim_heap();
    ctx.put("serve_rss_mb", current_rss_mb(), "MB");
}

/// Per-layer figures of a traced serve phase: in-process latencies of the
/// same queries, the wire overhead over them, the flight recorder's stage
/// means, and the spanner's row-miss cost.
void trace_serving(Context& ctx, const ServeReport& report,
                   const std::shared_ptr<const ccq::DistanceSource>& source)
{
    const ccq::QueryEngine in_process(source);
    const double distance_ns = in_process_ns(in_process, report, OpKind::distance);
    ctx.put("serve.distance_ns", distance_ns, "ns");
    ctx.put("serve.path_ns", in_process_ns(in_process, report, OpKind::path), "ns");
    ctx.put("serve.knearest_ns", in_process_ns(in_process, report, OpKind::knearest), "ns");

    std::vector<double> wire_distance_us;
    for (std::size_t i = 0; i < report.queries.size(); ++i)
        if (report.queries[i].op == OpKind::distance)
            wire_distance_us.push_back(report.latency_us[i]);
    ctx.put("net.overhead_us", median(wire_distance_us) - distance_ns / 1000.0, "us"); // p50 - p50
    double queue = 0.0;
    double flush = 0.0;
    for (const ccq::obs::RequestRecord& rec : report.flight) {
        queue += rec.queue_us;
        flush += rec.flush_us;
    }
    const double records = static_cast<double>(std::max<std::size_t>(report.flight.size(), 1));
    ctx.put("net.queue_us", queue / records, "us");
    ctx.put("net.flush_us", flush / records, "us");

    if (source->kind() == ccq::SourceKind::spanner) {
        // Row miss cost: a cache-less source rebuilds the row on every read.
        const ccq::DistanceSourceOptions uncached{false, 0};
        const std::shared_ptr<const ccq::DistanceSource> cold =
            ccq::open_distance_source(ctx.snapshot_path, uncached);
        std::vector<double> miss_us;
        std::vector<ccq::Weight> row(static_cast<std::size_t>(cold->node_count()));
        for (std::size_t i = 0; i < report.queries.size() && miss_us.size() < 64; ++i) {
            const Clock::time_point start = Clock::now();
            cold->fill_row(report.queries[i].from, row);
            miss_us.push_back(seconds_since(start) * 1e6);
        }
        ctx.put("serve.row_miss_us", median(miss_us), "us");
    }
}

// --- workloads -------------------------------------------------------------------

void run_build_workload(Context& ctx)
{
    std::vector<double> setup_s;
    std::optional<ccq::Graph> g;
    for (int rep = 0; rep < (ctx.opt.trace ? 1 : kSetupReps); ++rep) {
        const Clock::time_point start = Clock::now();
        g = generate(ctx);
        {
            // Warm-up: the first build of a process pays allocator and
            // thread-pool start-up costs the timed builds must not see.
            SpanRecorder::Scope span(ctx.spans, "setup.warmup");
            const ccq::DistanceOracle warm(*g, oracle_kind(ctx), ctx.apsp_options());
        }
        setup_s.push_back(seconds_since(start));
    }
    ctx.put("setup_s", median(setup_s), "s");

    const std::vector<ccq::NodeId> sources = sample_sources(g->node_count(), ctx.opt.seed);
    const ExactRows exact(*g, sources);

    std::vector<DenseBuild> builds;
    const Clock::time_point start = Clock::now();
    if (ctx.opt.trace) {
        builds.push_back(traced_build(ctx, *g, exact, sources));
    } else {
        do {
            builds.push_back(dense_build(ctx, *g, exact, sources));
            require_same_counts(builds.front().counts, builds.back().counts,
                                "rounds/words/products");
        } while (builds.size() < kMinBuilds || seconds_since(start) < kBuildShare * ctx.opt.seconds);
    }

    std::vector<double> apsp_s;
    std::vector<double> build_s;
    for (const DenseBuild& build : builds) {
        apsp_s.push_back(build.apsp_s);
        build_s.push_back(build.build_s);
        ctx.attempted += 1;
        if (build.stretch.violations != 0) ctx.failed += 1;
    }
    ctx.put("apsp_s", median(apsp_s), "s");
    ctx.put("build_s", median(build_s), "s");
    put_stretch(ctx, builds.back().stretch);
    ctx.put("peak_rss_mb", peak_rss_mb(), "MB");
    ctx.put("snapshot_mb", static_cast<double>(std::filesystem::file_size(ctx.snapshot_path)) / 1e6,
            "MB");
    ctx.put("core.routing_s", builds.back().routing_s, "s");
    ctx.put("serve.snapshot_write_s", builds.back().write_s, "s");

    std::shared_ptr<const ccq::DistanceSource> source = open_snapshot(ctx);
    const double remaining = std::max(ctx.opt.seconds - seconds_since(start),
                                      (1.0 - kBuildShare) * ctx.opt.seconds);
    serve_phase(ctx, *g, std::move(source),
                dense_mix(ctx.opt.seed, g->node_count(), sources), remaining);
}

/// Graph -> v3 file as `ccq_serve build --sparse` does it; returns
/// {spanner_s, build_s} and checks the edge count against `edges`.
std::pair<double, double> spanner_build(Context& ctx, const ccq::Graph& g,
                                        std::optional<std::size_t>& edges)
{
    const Clock::time_point start = Clock::now();
    ccq::Rng rng(ctx.opt.seed + 2);
    std::optional<ccq::SpannerResult> spanner;
    double spanner_s = 0.0;
    {
        SpanRecorder::Scope span(ctx.spans, "spanner.build");
        spanner = ccq::baswana_sen_spanner(g, kSpannerK, rng);
        spanner_s = span.stop();
    }
    const ccq::SparseSnapshot snapshot =
        ccq::SparseSnapshot::from_spanner(g, *spanner, "baswana-sen", ctx.opt.seed);
    {
        SpanRecorder::Scope span(ctx.spans, "serve.snapshot_write");
        ccq::save_sparse_snapshot(ctx.snapshot_path, snapshot);
        ctx.put("serve.snapshot_write_s", span.stop(), "s");
    }
    if (edges && *edges != snapshot.edges.size())
        throw check_failure("exact-count check failed: spanner edge count differs");
    edges = snapshot.edges.size();
    return {spanner_s, seconds_since(start)};
}

void run_serve_spanner(Context& ctx)
{
    std::vector<double> setup_s;
    std::vector<double> spanner_s;
    std::vector<double> build_s;
    std::optional<ccq::Graph> g;
    std::shared_ptr<const ccq::DistanceSource> source;
    std::optional<std::size_t> edges;
    for (int rep = 0; rep < (ctx.opt.trace ? 1 : kSetupReps); ++rep) {
        source.reset();
        const Clock::time_point start = Clock::now();
        g = generate(ctx);
        const auto [spanner, build] = spanner_build(ctx, *g, edges);
        spanner_s.push_back(spanner);
        build_s.push_back(build);
        source = open_snapshot(ctx);
        setup_s.push_back(seconds_since(start));
        // A spanner build takes tens of milliseconds: time more of them
        // than set-up makes, a share after each repetition, so that their
        // median spans the ~15 s of set-up and several of the host's speed
        // swings.  All of them back to back spread 17-25% over seeds.
        const auto builds = static_cast<std::size_t>((rep + 1) * kSpannerBuilds / kSetupReps);
        while (spanner_s.size() < builds) {
            const auto [more_spanner, more_build] = spanner_build(ctx, *g, edges);
            spanner_s.push_back(more_spanner);
            build_s.push_back(more_build);
        }
    }
    ctx.put("setup_s", median(setup_s), "s");
    ctx.put("apsp_s", median(spanner_s), "s");
    ctx.put("spanner.build_s", median(spanner_s), "s");
    ctx.put("build_s", median(build_s), "s");
    ctx.put("snapshot_mb", static_cast<double>(std::filesystem::file_size(ctx.snapshot_path)) / 1e6,
            "MB");


    const std::vector<ccq::NodeId> sources = sample_sources(g->node_count(), ctx.opt.seed);
    const ExactRows exact(*g, sources);
    const StretchTally stretch =
        check_rows(exact, sources, source->meta().claimed_stretch, [&](ccq::NodeId s) {
            std::vector<ccq::Weight> row(static_cast<std::size_t>(g->node_count()));
            source->fill_row(s, row);
            return row;
        });
    put_stretch(ctx, stretch);
    ctx.attempted += 1;
    if (stretch.violations != 0) ctx.failed += 1;

    ctx.put("peak_rss_mb", peak_rss_mb(), "MB");

    // A fresh source: the stretch check above must not warm its cache.
    source = open_snapshot(ctx);
    serve_phase(ctx, *g, source, zipf_mix(ctx.opt.seed, g->node_count()),
                ctx.opt.seconds);
}

// --- per-layer roll-up ------------------------------------------------------------

void derive_layer_metrics(Context& ctx)
{
    const SpanRecorder& spans = ctx.spans;
    ctx.put("knearest.compute_s", spans.total_seconds("knearest.compute"), "s");
    ctx.put("skeleton.build_s", spans.total_seconds("skeleton.build"), "s");
    ctx.put("skeleton.extend_s", spans.total_seconds("skeleton.extend"), "s");
    ctx.put("core.skeleton_sim_s", spans.total_seconds("core.skeleton_sim"), "s");
    const std::vector<double> dense = spans.durations("matrix.dense_product");
    const std::vector<double> skip = spans.durations("matrix.sparse_skip_product");
    ctx.put("matrix.dense_product_s", median(dense), "s");
    ctx.put("matrix.sparse_skip_product_s", median(skip), "s");
    double product_s = 0.0;
    for (const double s : dense) product_s += s;
    for (const double s : skip) product_s += s;
    const double n = ctx.opt.workload->n;
    const double products = static_cast<double>(dense.size() + skip.size());
    ctx.put("matrix.cell_updates_per_s", product_s > 0.0 ? products * n * n * n / product_s : 0.0,
            "1/s");

    const double traced_apsp = spans.total_seconds("apsp"); // the one replayed build
    ctx.put("trace.apsp_traced_s", traced_apsp, "s");
    const double stages = ctx.opt.workload->kind == Kind::build_exact
                              ? product_s
                              : spans.total_seconds("knearest.compute") +
                                    spans.total_seconds("skeleton.build") +
                                    spans.total_seconds("core.skeleton_sim") +
                                    spans.total_seconds("skeleton.extend");
    const double share = traced_apsp > 0.0 ? stages / traced_apsp : 0.0;
    ctx.put("trace.stage_share", share, "ratio");
    const bool replayed = ctx.opt.workload->kind != Kind::serve_spanner;
    if (replayed && (share < 0.9 || share > 1.0 + 1e-9))
        throw check_failure("traced stage times do not account for the traced apsp_s (share " +
                            std::to_string(share) + ")");
}

// --- entry ------------------------------------------------------------------------

[[noreturn]] void usage(const char* message)
{
    std::fprintf(stderr,
                 "ccq_perfbench: %s\n"
                 "usage: ccq_perfbench --workload <build-general|build-exact|serve-spanner> "
                 "--seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]\n",
                 message);
    std::exit(2);
}

Options parse(int argc, char** argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        if (flag == "--workload") {
            for (const Workload& w : kWorkloads)
                if (value == w.name) opt.workload = &w;
            if (opt.workload == nullptr) usage(("unknown workload " + value).c_str());
        } else if (flag == "--seed") {
            opt.seed = std::stoull(value);
        } else if (flag == "--seconds") {
            opt.seconds = std::stod(value);
            if (!(opt.seconds > 0.0)) usage("--seconds must be positive");
        } else if (flag == "--trace") {
            if (value != "0" && value != "1") usage("--trace takes 0 or 1");
            opt.trace = value == "1";
        } else if (flag == "--out-dir") {
            opt.out_dir = value;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (opt.workload == nullptr) usage("--workload is required");
    return opt;
}

std::string env_value(const char* name)
{
    const char* value = std::getenv(name);
    return value == nullptr ? "" : value;
}

void print_env(const Context& ctx, const HostProbe& host)
{
    std::string cpus;
    for (const int cpu : allowed_cpus()) {
        if (!cpus.empty()) cpus += ',';
        cpus += std::to_string(cpu);
    }
    std::printf("{\"env\": {\"build_type\": \"release\", \"isa\": %s, \"CCQ_SIMD\": %s, "
                "\"CCQ_KERNEL_WIDTH\": %s, \"CCQ_NUMA\": %s, \"nproc\": %u, "
                "\"allowed_cpus\": %s, \"pinned_cpu\": %d, \"workload\": %s, \"seed\": %llu, "
                "\"seconds\": %s, \"trace\": %d, \"host_chase_ns\": %s, "
                "\"host_switch_us\": %s}}\n",
                json_string(ccq::kernels::isa_name(ccq::kernels::dispatch_isa())).c_str(),
                json_string(env_value("CCQ_SIMD")).c_str(),
                json_string(env_value("CCQ_KERNEL_WIDTH")).c_str(),
                json_string(env_value("CCQ_NUMA")).c_str(), std::thread::hardware_concurrency(),
                json_string(cpus).c_str(), ctx.cpu, json_string(ctx.opt.workload->name).c_str(),
                static_cast<unsigned long long>(ctx.opt.seed),
                json_number(ctx.opt.seconds).c_str(), ctx.opt.trace ? 1 : 0,
                json_number(host.chase_ns).c_str(), json_number(host.switch_us).c_str());
}

template <std::size_t N>
std::vector<Metric> select(Context& ctx, const char* const (&names)[N][2])
{
    std::vector<Metric> out;
    for (const auto& entry : names) {
        const auto found = ctx.metrics.find(entry[0]);
        // A layer this workload never runs did no work: 0.
        out.push_back(found != ctx.metrics.end() ? found->second : Metric{entry[0], 0.0, entry[1]});
    }
    return out;
}

int run(int argc, char** argv)
{
#ifndef NDEBUG
    std::fprintf(stderr, "ccq_perfbench: refusing to measure a build without NDEBUG "
                         "(configure with -DCMAKE_BUILD_TYPE=Release)\n");
    return 2;
#endif
    const Options opt = parse(argc, argv);
    std::filesystem::create_directories(opt.out_dir);
    Context ctx(opt);
    const std::vector<int> cpus = allowed_cpus();
    if (cpus.empty()) throw std::runtime_error("no CPU in the affinity mask");
    ctx.cpu = cpus.back();
    // The host probes bracket the run: a run whose figures moved with the
    // host shows it here, in the env stamp and the report line.
    const HostProbe host_start = probe_host(ctx.cpu);
    ctx.put("host.chase_ns", host_start.chase_ns, "ns");
    ctx.put("host.switch_us", host_start.switch_us, "us");
    print_env(ctx, host_start);

    bool correct = true;
    std::string failure;
    try {
        switch (opt.workload->kind) {
        case Kind::build_general:
        case Kind::build_exact: run_build_workload(ctx); break;
        case Kind::serve_spanner: run_serve_spanner(ctx); break;
        }
        if (opt.trace) derive_layer_metrics(ctx);
    } catch (const check_failure& e) {
        correct = false;
        failure = e.what();
    }
    if (ctx.failed != 0) {
        correct = false;
        if (failure.empty()) failure = std::to_string(ctx.failed) + " operations failed checks";
    }
    if (!failure.empty()) std::fprintf(stderr, "ccq_perfbench: CHECK FAILED: %s\n", failure.c_str());
    if (opt.trace) {
        const std::string trace_path = opt.out_dir + "/" + opt.workload->name + "-" +
                                       std::to_string(opt.seed) + ".trace.json";
        ctx.spans.write_chrome_trace(trace_path);
        std::fprintf(stderr, "trace: %s (%zu spans)\n", trace_path.c_str(), ctx.spans.spans().size());
    }

    const HostProbe host_end = probe_host(ctx.cpu);
    ctx.put("host.chase_ns_end", host_end.chase_ns, "ns");
    ctx.put("host.switch_us_end", host_end.switch_us, "us");

    const std::uint64_t attempted = std::max<std::uint64_t>(ctx.attempted, 1);
    ctx.put("error_rate", static_cast<double>(ctx.failed) / static_cast<double>(attempted), "ratio");
    if (!opt.trace && ctx.metrics.contains("clique.rounds"))
        ctx.put("rounds", ctx.metrics["clique.rounds"].value, "rounds");
    std::vector<Metric> everything;
    for (const auto& [name, metric] : ctx.metrics) everything.push_back(metric);
    std::printf("{\"report\": %s}\n", metrics_json(everything).c_str());

    const std::vector<Metric> result = opt.trace ? select(ctx, kPerLayer) : select(ctx, kEndToEnd);
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
                correct ? "true" : "false", static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(ctx.failed), metrics_json(result).c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

} // namespace
} // namespace perfbench

int main(int argc, char** argv)
{
    try {
        return perfbench::run(argc, argv);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "ccq_perfbench: %s\n", e.what());
        return 1;
    }
}
