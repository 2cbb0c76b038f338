// E8 — Theorem 6.1 substrate (CDKL21): sparse min-plus product round cost
//
//   O( (rho_S rho_T rho_ST)^{1/3} / n^{2/3} + 1 ).
//
// The sweep varies operand density and reports the formula's round charge
// next to the product's wall time; the skeleton construction's density
// pattern (rho_X <= k, rho_Y <= |S|, rho_XY <= |S|^2/n) must land in the
// O(1)-rounds regime.
#include "bench_helpers.hpp"

#include <chrono>
#include <cmath>
#include <map>
#include <optional>

#include "ccq/matrix/engine.hpp"
#include "ccq/matrix/kernels/kernels.hpp"
#include "ccq/matrix/round_cost.hpp"
#include "ccq/obs/perf.hpp"

namespace {

using namespace ccq;

SparseMatrix random_rows(int n, int per_row, std::uint64_t seed)
{
    Rng rng(seed);
    SparseMatrix rows(static_cast<std::size_t>(n));
    for (NodeId u = 0; u < n; ++u) {
        SparseRow& row = rows[static_cast<std::size_t>(u)];
        row.push_back(SparseEntry{u, 0});
        for (int j = 1; j < per_row; ++j)
            row.push_back(SparseEntry{static_cast<NodeId>(rng.uniform_int(0, n - 1)),
                                      static_cast<Weight>(rng.uniform_int(1, 1000))});
        normalize_row(row);
    }
    return rows;
}

void BM_SparseProductDensitySweep(benchmark::State& state)
{
    const int n = 512;
    const int per_row = static_cast<int>(state.range(0));
    const SparseMatrix rows = random_rows(n, per_row, 41);
    SparseMatrix product;
    for (auto _ : state) product = min_plus_product(rows, rows, n);
    const double rho = average_density(rows);
    const double rho_out = average_density(product);
    state.counters["rho_in"] = rho;
    state.counters["rho_out"] = rho_out;
    state.counters["rounds_formula"] = sparse_product_rounds(rho, rho, rho_out, n);
    state.counters["n"] = n;
}
BENCHMARK(BM_SparseProductDensitySweep)
    ->Arg(2)->Arg(8)->Arg(32)->Arg(128)->Arg(512)
    ->Unit(benchmark::kMillisecond);

void BM_DenseProductReference(benchmark::State& state)
{
    const int n = static_cast<int>(state.range(0));
    const Graph g = ccq::bench::make_graph(n, 42, 100, GraphFamily::erdos_renyi_dense);
    const DistanceMatrix a = adjacency_matrix(g);
    DistanceMatrix c;
    for (auto _ : state) c = min_plus_product(a, a);
    benchmark::DoNotOptimize(c);
    // [CKK+19] round charge for the exact baseline.
    state.counters["rounds_charge"] = std::cbrt(static_cast<double>(n));
}
BENCHMARK(BM_DenseProductReference)->Arg(128)->Arg(256)->Arg(512)
    ->Unit(benchmark::kMillisecond);

// ---- serial-vs-parallel ablation -----------------------------------------
//
// BM_DenseMinPlusSeed is the seed (naive triple loop) kernel;
// BM_DenseMinPlusEngine sweeps {threads} x {block_size} on the same
// operands.  The acceptance bar: at n = 512, threads = 4 the engine must
// be >= 3x faster than the seed kernel with bitwise-identical output
// (the `identical` counter, checked once per configuration).

const DistanceMatrix& bench_operand(int n)
{
    static std::map<int, DistanceMatrix> cache;
    auto it = cache.find(n);
    if (it == cache.end()) {
        const Graph g = ccq::bench::make_graph(n, 42, 100, GraphFamily::erdos_renyi_dense);
        it = cache.emplace(n, adjacency_matrix(g)).first;
    }
    return it->second;
}

const DistanceMatrix& seed_product(int n)
{
    static std::map<int, DistanceMatrix> cache;
    auto it = cache.find(n);
    if (it == cache.end())
        it = cache.emplace(n, min_plus_product_reference(bench_operand(n), bench_operand(n)))
                 .first;
    return it->second;
}

/// Seed serial kernel wall time (milliseconds), best of 3 runs so one
/// scheduler hiccup cannot skew the speedup columns; cached per n.
double seed_serial_ms(int n)
{
    static std::map<int, double> cache;
    auto it = cache.find(n);
    if (it == cache.end()) {
        const DistanceMatrix& a = bench_operand(n);
        double best_ms = 0.0;
        for (int attempt = 0; attempt < 3; ++attempt) {
            const auto start = std::chrono::steady_clock::now();
            const DistanceMatrix c = min_plus_product_reference(a, a);
            const auto stop = std::chrono::steady_clock::now();
            benchmark::DoNotOptimize(c.data());
            const double ms =
                std::chrono::duration<double, std::milli>(stop - start).count();
            if (attempt == 0 || ms < best_ms) best_ms = ms;
        }
        it = cache.emplace(n, best_ms).first;
    }
    return it->second;
}

void BM_DenseMinPlusSeed(benchmark::State& state)
{
    const int n = static_cast<int>(state.range(0));
    const DistanceMatrix& a = bench_operand(n);
    DistanceMatrix c;
    for (auto _ : state) c = min_plus_product_reference(a, a);
    benchmark::DoNotOptimize(c);
    state.counters["n"] = n;
    state.counters["threads"] = 1;
    state.counters["block_size"] = 0; // unblocked
}
BENCHMARK(BM_DenseMinPlusSeed)->ArgName("n")->Arg(128)->Arg(512)
    ->Unit(benchmark::kMillisecond);

void BM_DenseMinPlusEngine(benchmark::State& state)
{
    const int n = static_cast<int>(state.range(0));
    const EngineConfig config{static_cast<int>(state.range(1)),
                              static_cast<int>(state.range(2))};
    const DistanceMatrix& a = bench_operand(n);
    const bool identical = min_plus_product(a, a, config) == seed_product(n);
    // Time the benchmark's own measured loop, so the speedup column uses
    // the same per-iteration mean the Time column reports.
    DistanceMatrix c;
    const auto start = std::chrono::steady_clock::now();
    std::int64_t iterations = 0;
    for (auto _ : state) {
        c = min_plus_product(a, a, config);
        ++iterations;
    }
    const auto stop = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(c);
    const double engine_ms =
        std::chrono::duration<double, std::milli>(stop - start).count() /
        static_cast<double>(iterations > 0 ? iterations : 1);

    state.counters["n"] = n;
    state.counters["threads"] = static_cast<double>(config.threads);
    state.counters["block_size"] = static_cast<double>(config.block_size);
    state.counters["identical"] = identical ? 1.0 : 0.0;
    state.counters["seed_serial_ms"] = seed_serial_ms(n);
    state.counters["speedup_vs_seed"] = seed_serial_ms(n) / engine_ms;
}
BENCHMARK(BM_DenseMinPlusEngine)
    ->ArgNames({"n", "threads", "block"})
    ->ArgsProduct({{128, 512}, {1, 2, 4}, {8, 64, 128}})
    ->Unit(benchmark::kMillisecond);

// ---- per-{ISA, width} kernel ablation --------------------------------------
//
// One benchmark per {ISA, element width} the host supports (scalar
// always; AVX2/AVX-512 when the CPU has them; i64 always; i32 whenever
// the width rule admits it — which it always does for these max_weight
// = 100 operands), single-threaded so the counters isolate the kernel
// itself.  The acceptance bars: at n = 512 the widest available SIMD
// kernel must beat the blocked scalar kernel (speedup_vs_scalar_kernel
// > 1), and on the SIMD ISAs the i32 kernel must beat the same-ISA i64
// kernel (speedup_vs_same_isa_wide >= 1) — all with bitwise-identical
// output (identical == 1).

/// EngineConfig{1, 64} pinned to an explicit width, so the ablation legs
/// are immune to CCQ_KERNEL_WIDTH in the bench environment.
EngineConfig kernel_config(KernelWidth width)
{
    EngineConfig config{1, 64};
    config.width = width;
    return config;
}

/// Blocked scalar i64-kernel wall time (milliseconds), best of 3; cached.
/// The historical baseline every speedup_vs_scalar_kernel column divides
/// by, so it stays pinned wide even now that auto width packs to i32.
double scalar_kernel_ms(int n)
{
    static std::map<int, double> cache;
    auto it = cache.find(n);
    if (it == cache.end()) {
        const DistanceMatrix& a = bench_operand(n);
        kernels::set_isa_override(kernels::Isa::scalar);
        double best_ms = 0.0;
        for (int attempt = 0; attempt < 3; ++attempt) {
            const auto start = std::chrono::steady_clock::now();
            const DistanceMatrix c = min_plus_product(a, a, kernel_config(KernelWidth::kWide));
            const auto stop = std::chrono::steady_clock::now();
            benchmark::DoNotOptimize(c.data());
            const double ms =
                std::chrono::duration<double, std::milli>(stop - start).count();
            if (attempt == 0 || ms < best_ms) best_ms = ms;
        }
        kernels::set_isa_override(std::nullopt);
        it = cache.emplace(n, best_ms).first;
    }
    return it->second;
}

/// Same-ISA i64 wall time (milliseconds), best of 3; cached per {isa, n}.
/// Denominator of the narrow-vs-wide speedup column.
double isa_wide_ms(kernels::Isa isa, int n)
{
    static std::map<std::pair<int, int>, double> cache;
    const auto key = std::make_pair(static_cast<int>(isa), n);
    auto it = cache.find(key);
    if (it == cache.end()) {
        const DistanceMatrix& a = bench_operand(n);
        kernels::set_isa_override(isa);
        double best_ms = 0.0;
        for (int attempt = 0; attempt < 3; ++attempt) {
            const auto start = std::chrono::steady_clock::now();
            const DistanceMatrix c = min_plus_product(a, a, kernel_config(KernelWidth::kWide));
            const auto stop = std::chrono::steady_clock::now();
            benchmark::DoNotOptimize(c.data());
            const double ms =
                std::chrono::duration<double, std::milli>(stop - start).count();
            if (attempt == 0 || ms < best_ms) best_ms = ms;
        }
        kernels::set_isa_override(std::nullopt);
        it = cache.emplace(key, best_ms).first;
    }
    return it->second;
}

void BM_DenseMinPlusKernel(benchmark::State& state, kernels::Isa isa, KernelWidth width)
{
    const int n = static_cast<int>(state.range(0));
    const DistanceMatrix& a = bench_operand(n);
    const EngineConfig config = kernel_config(width);
    kernels::set_isa_override(isa);
    const ProductPlan plan = preview_product_plan(a, a, config);
    const bool identical = min_plus_product(a, a, config) == seed_product(n);
    DistanceMatrix c;
    // Hardware counters bracket exactly the timed loop; on hosts where
    // perf_event_open is forbidden they degrade to available == false
    // and the derived counters are simply omitted.
    obs::PerfCounters perf;
    perf.start();
    const auto start = std::chrono::steady_clock::now();
    std::int64_t iterations = 0;
    for (auto _ : state) {
        c = min_plus_product(a, a, config);
        ++iterations;
    }
    const auto stop = std::chrono::steady_clock::now();
    const obs::PerfCounts counts = perf.stop();
    benchmark::DoNotOptimize(c);
    kernels::set_isa_override(std::nullopt);
    const double kernel_ms =
        std::chrono::duration<double, std::milli>(stop - start).count() /
        static_cast<double>(iterations > 0 ? iterations : 1);

    state.counters["n"] = n;
    state.counters["isa"] = static_cast<double>(isa);
    state.counters["element_width"] = plan.narrow ? 32.0 : 64.0;
    state.counters["identical"] = identical ? 1.0 : 0.0;
    state.counters["speedup_vs_seed"] = seed_serial_ms(n) / kernel_ms;
    state.counters["speedup_vs_scalar_kernel"] = scalar_kernel_ms(n) / kernel_ms;
    state.counters["speedup_vs_same_isa_wide"] = isa_wide_ms(isa, n) / kernel_ms;
    state.counters["perf_available"] = counts.available ? 1.0 : 0.0;
    if (counts.available) {
        const double cells = static_cast<double>(iterations > 0 ? iterations : 1) *
                             static_cast<double>(n) * static_cast<double>(n);
        state.counters["ipc"] = counts.ipc();
        state.counters["cache_misses_per_cell"] =
            static_cast<double>(counts.cache_misses) / cells;
        state.counters["branch_misses_per_cell"] =
            static_cast<double>(counts.branch_misses) / cells;
    }
}

/// Registers the ablation for exactly the {ISA, width} grid this host can
/// run, so a non-AVX runner produces a JSON without fake zero rows.
const int g_register_kernel_benchmarks = [] {
    for (const kernels::Isa isa : kernels::supported_isas()) {
        for (const KernelWidth width : {KernelWidth::kWide, KernelWidth::kNarrowIfSafe}) {
            const std::string name = std::string("BM_DenseMinPlusKernel/isa:") +
                                     kernels::isa_name(isa) +
                                     (width == KernelWidth::kWide ? "/w:i64" : "/w:i32");
            benchmark::RegisterBenchmark(name.c_str(),
                                         [isa, width](benchmark::State& state) {
                                             BM_DenseMinPlusKernel(state, isa, width);
                                         })
                ->ArgName("n")
                ->Arg(128)
                ->Arg(512)
                ->Unit(benchmark::kMillisecond);
        }
    }
    return 0;
}();

// ---- sparse-row skip ablation ----------------------------------------------
//
// A spanner-density dense operand (diagonal + ~8 finite cells per row,
// everything else kInfinity — the shape Theorem 1.1's skeleton products
// feed the dense engine) through the dense band kernel with and without
// the sparse-row skip pass.  Acceptance: skip on beats skip off
// (speedup_vs_dense_band > 1) with bitwise-identical output.

const DistanceMatrix& spanner_density_operand(int n)
{
    static std::map<int, DistanceMatrix> cache;
    auto it = cache.find(n);
    if (it == cache.end()) {
        Rng rng(4242);
        DistanceMatrix m(n);
        m.set_diagonal_zero();
        for (NodeId u = 0; u < n; ++u)
            for (int e = 0; e < 8; ++e)
                m.at(u, static_cast<NodeId>(rng.uniform_int(0, n - 1))) =
                    rng.uniform_int(1, 100);
        it = cache.emplace(n, std::move(m)).first;
    }
    return it->second;
}

/// Dense-band (skip off) wall time on the spanner-density operand, best
/// of 3; cached per {width, n}.
double dense_band_ms(KernelWidth width, int n)
{
    static std::map<std::pair<int, int>, double> cache;
    const auto key = std::make_pair(static_cast<int>(width), n);
    auto it = cache.find(key);
    if (it == cache.end()) {
        const DistanceMatrix& a = spanner_density_operand(n);
        EngineConfig config = kernel_config(width);
        config.sparse_skip = false;
        double best_ms = 0.0;
        for (int attempt = 0; attempt < 3; ++attempt) {
            const auto start = std::chrono::steady_clock::now();
            const DistanceMatrix c = min_plus_product(a, a, config);
            const auto stop = std::chrono::steady_clock::now();
            benchmark::DoNotOptimize(c.data());
            const double ms =
                std::chrono::duration<double, std::milli>(stop - start).count();
            if (attempt == 0 || ms < best_ms) best_ms = ms;
        }
        it = cache.emplace(key, best_ms).first;
    }
    return it->second;
}

void BM_DenseMinPlusSparseSkip(benchmark::State& state)
{
    const int n = 512;
    const bool skip = state.range(0) != 0;
    const KernelWidth width =
        state.range(1) != 0 ? KernelWidth::kNarrowIfSafe : KernelWidth::kWide;
    const DistanceMatrix& a = spanner_density_operand(n);
    EngineConfig config = kernel_config(width);
    config.sparse_skip = skip;
    const ProductPlan plan = preview_product_plan(a, a, config);
    const bool identical = min_plus_product(a, a, config) == min_plus_product_reference(a, a);
    DistanceMatrix c;
    const auto start = std::chrono::steady_clock::now();
    std::int64_t iterations = 0;
    for (auto _ : state) {
        c = min_plus_product(a, a, config);
        ++iterations;
    }
    const auto stop = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(c);
    const double pass_ms =
        std::chrono::duration<double, std::milli>(stop - start).count() /
        static_cast<double>(iterations > 0 ? iterations : 1);

    state.counters["n"] = n;
    state.counters["density"] = plan.a_density;
    state.counters["sparse_skip"] = plan.sparse_skip ? 1.0 : 0.0;
    state.counters["element_width"] = plan.narrow ? 32.0 : 64.0;
    state.counters["identical"] = identical ? 1.0 : 0.0;
    state.counters["speedup_vs_dense_band"] = dense_band_ms(width, n) / pass_ms;
}
BENCHMARK(BM_DenseMinPlusSparseSkip)
    ->ArgNames({"skip", "narrow"})
    ->ArgsProduct({{0, 1}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

void BM_SparseMinPlusEngineThreads(benchmark::State& state)
{
    const int n = 512;
    const int per_row = static_cast<int>(state.range(0));
    const EngineConfig config{static_cast<int>(state.range(1)), 64};
    const SparseMatrix rows = random_rows(n, per_row, 41);
    SparseMatrix product;
    for (auto _ : state) product = min_plus_product(rows, rows, n, config);
    state.counters["n"] = n;
    state.counters["rho_in"] = average_density(rows);
    state.counters["threads"] = static_cast<double>(config.threads);
}
BENCHMARK(BM_SparseMinPlusEngineThreads)
    ->ArgNames({"per_row", "threads"})
    ->ArgsProduct({{32, 128}, {1, 4}})
    ->Unit(benchmark::kMillisecond);

// ---- bounded filtered product ----------------------------------------------
//
// The Lemma 5.5 shape of the paper's k-nearest phase: k-nearest rows of
// er_sparse at n = 4096 with k = 64 (six filtered squarings of the
// adjacency rows, as compute_k_nearest runs them), squared through the
// filtered product, whose per-row cut-off skips every candidate above
// the row's k-th candidate distance.  `identical` compares against
// filter_k_smallest of the naive reference product, computed once
// outside the timed loop.

constexpr int kFilteredN = 4096;
constexpr int kFilteredK = 64;

const SparseMatrix& knearest_operand()
{
    static const SparseMatrix rows = [] {
        const Graph g = ccq::bench::make_graph(kFilteredN, 42);
        const EngineConfig config{4, 64};
        SparseMatrix r = filter_k_smallest(adjacency_rows(g), kFilteredK);
        for (int i = 0; i < 6; ++i)
            r = min_plus_product_filtered(r, r, kFilteredN, kFilteredK, config);
        return r;
    }();
    return rows;
}

struct FilteredReference {
    SparseMatrix product;
    double ms = 0.0;
};

const FilteredReference& filtered_reference()
{
    static const FilteredReference reference = [] {
        const SparseMatrix& rows = knearest_operand();
        FilteredReference r;
        const auto start = std::chrono::steady_clock::now();
        r.product = filter_k_smallest(min_plus_product_reference(rows, rows, kFilteredN),
                                      kFilteredK);
        const auto stop = std::chrono::steady_clock::now();
        r.ms = std::chrono::duration<double, std::milli>(stop - start).count();
        return r;
    }();
    return reference;
}

void BM_SparseMinPlusFiltered(benchmark::State& state)
{
    const EngineConfig config{static_cast<int>(state.range(0)), 64};
    const SparseMatrix& rows = knearest_operand();
    const FilteredReference& reference = filtered_reference();
    SparseMatrix product;
    const auto start = std::chrono::steady_clock::now();
    std::int64_t iterations = 0;
    for (auto _ : state) {
        product = min_plus_product_filtered(rows, rows, kFilteredN, kFilteredK, config);
        benchmark::DoNotOptimize(product);
        ++iterations;
    }
    const auto stop = std::chrono::steady_clock::now();
    const double product_ms =
        std::chrono::duration<double, std::milli>(stop - start).count() /
        static_cast<double>(iterations > 0 ? iterations : 1);

    state.counters["n"] = kFilteredN;
    state.counters["k"] = kFilteredK;
    state.counters["threads"] = static_cast<double>(config.threads);
    state.counters["rho_in"] = average_density(rows);
    state.counters["identical"] = product == reference.product ? 1.0 : 0.0;
    state.counters["reference_ms"] = reference.ms;
    state.counters["speedup_vs_reference"] = reference.ms / product_ms;
}
BENCHMARK(BM_SparseMinPlusFiltered)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

} // namespace
