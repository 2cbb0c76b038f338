#include "ccq/matrix/engine.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "ccq/matrix/kernels/kernels.hpp"
#include "ccq/obs/trace.hpp"

namespace ccq {
namespace {

// ---- width dispatch + sparse-skip planning ---------------------------------

std::atomic<std::uint64_t> g_products_wide{0};
std::atomic<std::uint64_t> g_products_narrow{0};
std::atomic<std::uint64_t> g_products_sparse_skip{0};

/// CCQ_KERNEL_WIDTH environment policy, parsed once: "wide" forces i64,
/// "narrow" means narrow-if-safe, anything else (incl. "auto"/unset)
/// leaves the decision to the default rule.  Consulted only when the
/// config says kAuto, so programmatic settings (tests, ablations) win.
[[nodiscard]] KernelWidth env_kernel_width()
{
    static const KernelWidth resolved = [] {
        if (const char* env = std::getenv("CCQ_KERNEL_WIDTH")) {
            const std::string want(env);
            if (want == "wide") return KernelWidth::kWide;
            if (want == "narrow") return KernelWidth::kNarrowIfSafe;
        }
        return KernelWidth::kAuto;
    }();
    return resolved;
}

[[nodiscard]] KernelWidth resolved_kernel_width(const EngineConfig& engine)
{
    KernelWidth width = engine.width;
    if (width == KernelWidth::kAuto) width = env_kernel_width();
    if (width == KernelWidth::kAuto) width = KernelWidth::kNarrowIfSafe;
    return width;
}

struct OperandScan {
    Weight max_finite = 0;
    std::size_t finite_cells = 0;
};

/// One parallel pass over the cells: max finite value + finite count.
[[nodiscard]] OperandScan scan_operand(const DistanceMatrix& m, int threads)
{
    const int n = m.size();
    const Weight* p = m.data();
    std::mutex mutex;
    OperandScan total;
    parallel_chunks(threads, 0, n, 1, [&](int r0, int r1) {
        OperandScan local;
        const Weight* cell = p + static_cast<std::size_t>(r0) * n;
        const Weight* end = p + static_cast<std::size_t>(r1) * n;
        for (; cell != end; ++cell) {
            if (is_finite(*cell)) {
                ++local.finite_cells;
                if (*cell > local.max_finite) local.max_finite = *cell;
            }
        }
        const std::lock_guard<std::mutex> lock(mutex);
        total.finite_cells += local.finite_cells;
        if (local.max_finite > total.max_finite) total.max_finite = local.max_finite;
    });
    return total;
}

/// The width-dispatch rule.  Narrow is provably safe when
///
///   max_a + max_b < kInfinity32
///
/// (maxes over *finite* cells; 0 when a matrix has none): then every
/// finite cell packs losslessly (each max < kInfinity32), every
/// finite+finite candidate stays < kInfinity32 — exactly the i64 sum —
/// and every finite+sentinel candidate lands in (kInfinity32, 2^31), so
/// it loses all comparisons just like its >= kInfinity i64 twin.  Add
/// and min are exact in both domains, so the unpacked narrow product is
/// bitwise identical to the wide one (docs/ENGINE.md spells out the
/// case analysis; tests/test_kernel_width.cpp straddles the boundary).
/// A squaring (`&a == &b`) scans its one operand once.
[[nodiscard]] ProductPlan make_plan(const DistanceMatrix& a, const DistanceMatrix& b,
                                    const EngineConfig& engine)
{
    const int n = a.size();
    const int threads = engine.resolved_threads();
    const OperandScan sa = scan_operand(a, threads);
    const OperandScan sb = &a == &b ? sa : scan_operand(b, threads);
    ProductPlan plan;
    plan.max_a = sa.max_finite;
    plan.max_b = sb.max_finite;
    const std::size_t cells = static_cast<std::size_t>(n) * static_cast<std::size_t>(n);
    plan.a_density =
        cells == 0 ? 0.0 : static_cast<double>(sa.finite_cells) / static_cast<double>(cells);
    plan.sparse_skip = engine.sparse_skip && plan.a_density < kSparseSkipThreshold;
    plan.narrow = resolved_kernel_width(engine) != KernelWidth::kWide &&
                  plan.max_a + plan.max_b < static_cast<Weight>(kInfinity32);
    return plan;
}

/// Pack rows [r0, r1) into the i32 domain: finite cells map to
/// themselves (they fit — the width rule bounds them), kInfinity maps
/// to kInfinity32.
void pack_rows(const Weight* src, Weight32* dst, int n, int r0, int r1)
{
    const Weight* cell = src + static_cast<std::size_t>(r0) * n;
    const Weight* end = src + static_cast<std::size_t>(r1) * n;
    Weight32* out = dst + static_cast<std::size_t>(r0) * n;
    for (; cell != end; ++cell, ++out)
        *out = is_finite(*cell) ? static_cast<Weight32>(*cell) : kInfinity32;
}

/// Largest finite weight: the cut-off of an unfiltered row, so the one
/// relax loop below also stops at saturated candidates.
constexpr Weight kMaxFinite = kInfinity - 1;

/// Cut-off τ(u) of row u of a*b under the keep-smallest filter
/// (docs/ENGINE.md, "Bounded filtered products"): every via whose B row
/// holds at least `keep` entries supplies `keep` distinct nodes at
/// distance <= via.dist + B[via][keep-1].dist, so no candidate above the
/// minimum of those sums survives the filter.  keep < 0 (plain product)
/// bounds nothing but saturation; keep == 0 admits no candidate at all.
[[nodiscard]] Weight row_bound(const SparseRow& a_row, const SparseMatrix& b, int keep)
{
    if (keep < 0) return kMaxFinite;
    if (keep == 0) return -1;
    Weight bound = kMaxFinite;
    for (const SparseEntry& via : a_row) {
        if (via.dist >= bound) break; // weights are >= 0: no later via can lower it
        const SparseRow& hops = b[static_cast<std::size_t>(via.node)];
        if (std::cmp_less(hops.size(), keep)) continue;
        const Weight kth = hops[static_cast<std::size_t>(keep) - 1].dist;
        bound = std::min(bound, saturating_add(via.dist, kth));
    }
    return bound;
}

/// Relaxes one row of a*b into the dense scratch `best`, recording
/// touched columns, and stops at the first via and the first candidate
/// above `bound` — both operands are canonical, so everything after them
/// is larger still.  Ties at the bound are relaxed.  Since bound <=
/// kMaxFinite, a saturated candidate is never relaxed.
void relax_sparse_row(const SparseRow& a_row, const SparseMatrix& b, Weight bound,
                      std::vector<Weight>& best, std::vector<NodeId>& touched)
{
    touched.clear();
    for (const SparseEntry& via : a_row) {
        if (via.dist > bound) break;
        for (const SparseEntry& hop : b[static_cast<std::size_t>(via.node)]) {
            const Weight cand = saturating_add(via.dist, hop.dist);
            if (cand > bound) break;
            Weight& cell = best[static_cast<std::size_t>(hop.node)];
            if (cell == kInfinity) touched.push_back(hop.node);
            cell = min_weight(cell, cand);
        }
    }
}

/// True when every row of `m` is canonical over [0, n): sorted by
/// (dist, id), unique nodes, every dist finite and >= 0.  The bounded
/// relax loop relies on all of it.
[[nodiscard]] bool rows_canonical(const SparseMatrix& m, int n, int threads)
{
    std::atomic<bool> ok{true};
    parallel_chunks(threads, 0, static_cast<int>(m.size()), 1, [&](int r0, int r1) {
        std::vector<int> seen(static_cast<std::size_t>(n), -1); // node -> last row holding it
        for (int r = r0; r < r1 && ok.load(std::memory_order_relaxed); ++r) {
            const SparseRow& row = m[static_cast<std::size_t>(r)];
            for (std::size_t i = 0; i < row.size(); ++i) {
                const SparseEntry& e = row[i];
                if (e.node < 0 || e.node >= n || e.dist < 0 || !is_finite(e.dist) ||
                    seen[static_cast<std::size_t>(e.node)] == r ||
                    (i > 0 && !entry_less(row[i - 1], e))) {
                    ok.store(false, std::memory_order_relaxed);
                    return;
                }
                seen[static_cast<std::size_t>(e.node)] = r;
            }
        }
    });
    return ok.load();
}

/// Drains the scratch into a canonical row; keep >= 0 applies the
/// Lemma 5.5 k-smallest filter before the final sort (nth_element on the
/// total (dist, id) order selects exactly the entries the reference
/// sort-then-resize keeps).
SparseRow collect_sparse_row(std::vector<Weight>& best, std::vector<NodeId>& touched, int keep)
{
    SparseRow row;
    row.reserve(touched.size());
    for (const NodeId w : touched) {
        row.push_back(SparseEntry{w, best[static_cast<std::size_t>(w)]});
        best[static_cast<std::size_t>(w)] = kInfinity;
    }
    if (keep >= 0 && std::cmp_less(keep, row.size())) {
        std::nth_element(row.begin(), row.begin() + keep, row.end(), entry_less);
        row.resize(static_cast<std::size_t>(keep));
        row.shrink_to_fit(); // the kept rows outlive the product; hold k, not every candidate
    }
    std::sort(row.begin(), row.end(), entry_less);
    return row;
}

/// Shared body of the plain (keep = -1) and filtered sparse products:
/// one bounded relax loop, whose cut-off is the only difference.
SparseMatrix sparse_product_impl(const SparseMatrix& a, const SparseMatrix& b, int n, int keep,
                                 const EngineConfig& engine)
{
    CCQ_EXPECT(a.size() == b.size(), "min_plus_product(sparse): size mismatch");
    CCQ_EXPECT(std::cmp_less_equal(a.size(), static_cast<std::size_t>(n)),
               "min_plus_product(sparse): n too small");
    const int threads = engine.resolved_threads();
    CCQ_EXPECT(rows_canonical(a, n, threads) && rows_canonical(b, n, threads),
               "min_plus_product(sparse): operand rows must be canonical");
    SparseMatrix result(a.size());
    parallel_chunks(threads, 0, static_cast<int>(a.size()), 1, [&](int row_begin, int row_end) {
        std::vector<Weight> best(static_cast<std::size_t>(n), kInfinity);
        std::vector<NodeId> touched;
        for (int u = row_begin; u < row_end; ++u) {
            const SparseRow& a_row = a[static_cast<std::size_t>(u)];
            relax_sparse_row(a_row, b, row_bound(a_row, b, keep), best, touched);
            result[static_cast<std::size_t>(u)] = collect_sparse_row(best, touched, keep);
        }
    });
    return result;
}

} // namespace

ProductPlan preview_product_plan(const DistanceMatrix& a, const DistanceMatrix& b,
                                 const EngineConfig& engine)
{
    CCQ_EXPECT(a.size() == b.size(), "preview_product_plan: size mismatch");
    return make_plan(a, b, engine);
}

EngineCounters engine_counters() noexcept
{
    EngineCounters counters;
    counters.products_wide = g_products_wide.load(std::memory_order_relaxed);
    counters.products_narrow = g_products_narrow.load(std::memory_order_relaxed);
    counters.products_sparse_skip = g_products_sparse_skip.load(std::memory_order_relaxed);
    return counters;
}

DistanceMatrix min_plus_product(const DistanceMatrix& a, const DistanceMatrix& b,
                                const EngineConfig& engine)
{
    CCQ_EXPECT(a.size() == b.size(), "min_plus_product: size mismatch");
    const int n = a.size();
    if (n == 0) return DistanceMatrix(0);
    const ProductPlan plan = make_plan(a, b, engine);
    obs::TraceSpan span(
        "min_plus_product", "engine",
        obs::Tracer::global().enabled()
            ? "{\"n\":" + std::to_string(n) +
                  ",\"width\":" + (plan.narrow ? "\"narrow\"" : "\"wide\"") +
                  ",\"sparse_skip\":" + (plan.sparse_skip ? "true" : "false") +
                  ",\"max_a\":" + std::to_string(plan.max_a) +
                  ",\"max_b\":" + std::to_string(plan.max_b) +
                  ",\"a_density\":" + std::to_string(plan.a_density) + "}"
            : std::string());
    const int bs = std::min(engine.resolved_block_size(), n);
    const int threads = engine.resolved_threads();
    const std::size_t cells = static_cast<std::size_t>(n) * static_cast<std::size_t>(n);
    // The band kernels for the dispatched ISA (cpuid + CCQ_SIMD
    // override), resolved once per product.  Every ISA, element width,
    // and k-loop shape is bitwise identical.
    const kernels::BandKernels band = kernels::band_kernels(kernels::dispatch_isa());
    (plan.narrow ? g_products_narrow : g_products_wide).fetch_add(1, std::memory_order_relaxed);
    if (plan.sparse_skip) g_products_sparse_skip.fetch_add(1, std::memory_order_relaxed);
    // C starts uninitialized; each band task fills its own rows with
    // kInfinity before relaxing them, which saves a serial n² pass.
    DistanceMatrix c = DistanceMatrix::uninitialized(n);
    Weight* cp = c.data();
    if (plan.narrow) {
        // Narrow path: pack both operands to i32 (O(n^2), amortized by
        // the O(n^3) kernel; a squaring packs its one operand once), run
        // the 2x-lane kernels, unpack each band back to i64 in the task
        // that computed it.
        const bool square = &a == &b;
        const std::unique_ptr<Weight32[]> a32(new Weight32[cells]);
        const std::unique_ptr<Weight32[]> b32(square ? nullptr : new Weight32[cells]);
        const std::unique_ptr<Weight32[]> c32(new Weight32[cells]);
        parallel_chunks(threads, 0, n, 1, [&](int r0, int r1) {
            pack_rows(a.data(), a32.get(), n, r0, r1);
            if (!square) pack_rows(b.data(), b32.get(), n, r0, r1);
        });
        const Weight32* b32_cells = square ? a32.get() : b32.get();
        const kernels::DenseBandFn32 band32 =
            plan.sparse_skip ? band.sparse_narrow : band.dense_narrow;
        parallel_chunks(threads, 0, n, bs, [&](int i0, int i1) {
            Weight32* cb = c32.get() + static_cast<std::size_t>(i0) * n;
            std::fill(cb, c32.get() + static_cast<std::size_t>(i1) * n, kInfinity32);
            band32(a32.get(), b32_cells, c32.get(), n, i0, i1, bs);
            const Weight32* in = c32.get() + static_cast<std::size_t>(i0) * n;
            const Weight32* end = c32.get() + static_cast<std::size_t>(i1) * n;
            Weight* out = cp + static_cast<std::size_t>(i0) * n;
            for (; in != end; ++in, ++out)
                *out = is_finite32(*in) ? static_cast<Weight>(*in) : kInfinity;
        });
        return c;
    }
    const Weight* ap = a.data();
    const Weight* bp = b.data();
    const kernels::DenseBandFn band64 = plan.sparse_skip ? band.sparse_wide : band.dense_wide;
    parallel_chunks(threads, 0, n, bs, [&](int i0, int i1) {
        std::fill(cp + static_cast<std::size_t>(i0) * n,
                  cp + static_cast<std::size_t>(i1) * n, kInfinity);
        band64(ap, bp, cp, n, i0, i1, bs);
    });
    return c;
}

DistanceMatrix min_plus_closure(DistanceMatrix a, int* products_used, const EngineConfig& engine)
{
    int used = 0;
    const int n = a.size();
    // (n-1) hops suffice; square until the hop budget covers that — or
    // until a squaring changes nothing.  At a fixed point A*A == A every
    // further squaring is the identity, so stopping early returns the
    // exact matrix the full ceil(log2(n-1)) schedule would.
    for (std::int64_t hops = 1; hops < n - 1; hops *= 2) {
        obs::TraceSpan span("min_plus_closure/square", "engine",
                            obs::Tracer::global().enabled()
                                ? "{\"iteration\":" + std::to_string(used) + "}"
                                : std::string());
        DistanceMatrix next = min_plus_product(a, a, engine);
        ++used;
        const bool fixed_point = next == a;
        a = std::move(next);
        if (fixed_point) break;
    }
    if (products_used != nullptr) *products_used = used;
    return a;
}

SparseMatrix min_plus_product(const SparseMatrix& a, const SparseMatrix& b, int n,
                              const EngineConfig& engine)
{
    return sparse_product_impl(a, b, n, /*keep=*/-1, engine);
}

SparseMatrix min_plus_product_filtered(const SparseMatrix& a, const SparseMatrix& b, int n,
                                       int k, const EngineConfig& engine)
{
    CCQ_EXPECT(k >= 0, "min_plus_product_filtered: k must be >= 0");
    return sparse_product_impl(a, b, n, k, engine);
}

SparseMatrix hop_power(const SparseMatrix& a, int h, int n, const EngineConfig& engine)
{
    CCQ_EXPECT(h >= 1, "hop_power: h must be >= 1");
    SparseMatrix result = a;
    for (int i = 1; i < h; ++i) result = min_plus_product(result, a, n, engine);
    return result;
}

SparseMatrix filtered_hop_power(const SparseMatrix& a, int h, int k, int n,
                                const EngineConfig& engine)
{
    CCQ_EXPECT(h >= 1, "filtered_hop_power: h must be >= 1");
    CCQ_EXPECT(k >= 0, "filtered_hop_power: k must be >= 0");
    if (h == 1) return filter_k_smallest(a, k);
    SparseMatrix result = a;
    for (int i = 1; i < h - 1; ++i) result = min_plus_product(result, a, n, engine);
    return min_plus_product_filtered(result, a, n, k, engine);
}

DistanceMatrix min_plus_product_reference(const DistanceMatrix& a, const DistanceMatrix& b)
{
    CCQ_EXPECT(a.size() == b.size(), "min_plus_product: size mismatch");
    const int n = a.size();
    DistanceMatrix c(n);
    for (NodeId i = 0; i < n; ++i) {
        for (NodeId k = 0; k < n; ++k) {
            const Weight aik = a.at(i, k);
            if (!is_finite(aik)) continue;
            for (NodeId j = 0; j < n; ++j) {
                const Weight cand = saturating_add(aik, b.at(k, j));
                c.relax(i, j, cand);
            }
        }
    }
    return c;
}

SparseMatrix min_plus_product_reference(const SparseMatrix& a, const SparseMatrix& b, int n)
{
    CCQ_EXPECT(a.size() == b.size(), "min_plus_product(sparse): size mismatch");
    CCQ_EXPECT(std::cmp_less_equal(a.size(), static_cast<std::size_t>(n)),
               "min_plus_product(sparse): n too small");
    SparseMatrix result(a.size());
    for (std::size_t u = 0; u < a.size(); ++u) {
        std::map<NodeId, Weight> best;
        for (const SparseEntry& via : a[u]) {
            for (const SparseEntry& hop : b[static_cast<std::size_t>(via.node)]) {
                const Weight cand = saturating_add(via.dist, hop.dist);
                if (!is_finite(cand)) continue;
                const auto [it, inserted] = best.try_emplace(hop.node, cand);
                if (!inserted) it->second = std::min(it->second, cand);
            }
        }
        SparseRow& row = result[u];
        for (const auto& [node, dist] : best) row.push_back(SparseEntry{node, dist});
        std::sort(row.begin(), row.end(), entry_less);
    }
    return result;
}

} // namespace ccq
