// Cache-blocked, multithreaded min-plus engine.
//
// Every algorithm in the paper bottoms out in min-plus products (dense
// [CKK+19]-style squaring for the exact baseline, sparse/filtered
// products for the k-nearest and skeleton stages), so they all share the
// kernels below.  EngineConfig{threads, block_size} selects the local
// execution strategy only: outputs are bitwise identical to the seed
// (reference) kernels for every configuration — min is associative and
// commutative, and the saturating arithmetic is replicated exactly — and
// simulated round charges never depend on it.
#ifndef CCQ_MATRIX_ENGINE_HPP
#define CCQ_MATRIX_ENGINE_HPP

#include "ccq/common/parallel.hpp"
#include "ccq/matrix/dense.hpp"
#include "ccq/matrix/sparse.hpp"

namespace ccq {

/// Finite-cell density of A below which the engine swaps the dense band
/// kernel for the sparse-row skip pass (per-row packed finite-k lists).
/// Both shapes are bitwise identical; the threshold only tunes speed.
inline constexpr double kSparseSkipThreshold = 0.25;

/// The per-product kernel decisions the engine derives from one scan of
/// the operands — exposed so tests and bench ablations can assert the
/// width-dispatch rule instead of reverse-engineering it from timings.
struct ProductPlan {
    bool narrow = false;     ///< i32 kernels selected (provably bitwise safe)
    bool sparse_skip = false; ///< sparse-row skip pass selected for A's density
    Weight max_a = 0;        ///< max finite cell of A (0 when none)
    Weight max_b = 0;        ///< max finite cell of B (0 when none)
    double a_density = 0.0;  ///< finite fraction of A's cells

    friend bool operator==(const ProductPlan&, const ProductPlan&) = default;
};

/// The plan min_plus_product would execute for these operands — the
/// width rule (`max_a + max_b < kInfinity32`, gated by engine.width /
/// CCQ_KERNEL_WIDTH) and the sparse-skip threshold decision.
[[nodiscard]] ProductPlan preview_product_plan(const DistanceMatrix& a,
                                               const DistanceMatrix& b,
                                               const EngineConfig& engine);

/// Process-lifetime engine counters (relaxed atomics), rendered into the
/// obs/ registry by the server's collector: dense products by element
/// width, plus how many ran the sparse-row skip pass.
struct EngineCounters {
    std::uint64_t products_wide = 0;
    std::uint64_t products_narrow = 0;
    std::uint64_t products_sparse_skip = 0;
};

/// Snapshot of the global counters.
[[nodiscard]] EngineCounters engine_counters() noexcept;

/// Blocked parallel C[i,j] = min_k A[i,k] + B[k,j].  Tiles all three loop
/// dimensions by engine.block_size and parallelizes block rows of C on
/// the ISA-dispatched SIMD band kernels (matrix/kernels/); each band
/// task fills its own rows of C, so no serial n² fill precedes the
/// kernels.  Per product the engine picks the element width (i64 /
/// packed i32) and k-loop shape (dense / sparse-row skip) from one scan
/// of the operands; every choice is bitwise identical.  docs/ENGINE.md
/// describes the full execution model.  For `A*A` (the closure's
/// squarings) A is scanned and packed once and serves as both operands.
[[nodiscard]] DistanceMatrix min_plus_product(const DistanceMatrix& a, const DistanceMatrix& b,
                                              const EngineConfig& engine = {});

/// Min-plus closure A^(n-1) by repeated squaring on the blocked kernel.
/// Stops as soon as a squaring reaches the fixed point (A*A == A), so
/// `products_used`, when non-null, receives the squarings actually run —
/// at most ceil(log2(n-1)), often fewer on low-diameter instances — with
/// output bitwise identical to the full schedule (the [CKK+19] baseline
/// charges O(n^{1/3}) rounds per product).
[[nodiscard]] DistanceMatrix min_plus_closure(DistanceMatrix a, int* products_used = nullptr,
                                              const EngineConfig& engine = {});

/// Row-parallel sparse product: row u of the result relaxes through
/// every (v, d1) in a[u] and (w, d2) in b[v] (rows are independent; each
/// worker keeps its own dense scratch accumulator).  Both operands must
/// be canonical (sorted by (dist, id), unique nodes in [0, n), finite
/// dists >= 0), checked once per product (throws check_error); so are
/// the result rows.  Saturated candidates are never relaxed.
[[nodiscard]] SparseMatrix min_plus_product(const SparseMatrix& a, const SparseMatrix& b, int n,
                                            const EngineConfig& engine = {});

/// Sparse product with the Lemma 5.5 row filter fused into the kernel:
/// each result row keeps only its k smallest entries (ties by node id).
/// Identical to filter_k_smallest(min_plus_product(a, b, n), k) but never
/// materializes the unfiltered rows, and stops each row at its k-th
/// candidate distance (docs/ENGINE.md, "Bounded filtered products").
[[nodiscard]] SparseMatrix min_plus_product_filtered(const SparseMatrix& a,
                                                     const SparseMatrix& b, int n, int k,
                                                     const EngineConfig& engine);

/// a^h over min-plus on the parallel sparse kernel (h >= 1).  Rows of
/// `a` must contain their diagonal zeros so powers are monotone ("at most
/// h hops" semantics of A^h).
[[nodiscard]] SparseMatrix hop_power(const SparseMatrix& a, int h, int n,
                                     const EngineConfig& engine = {});

/// filter_k_smallest(hop_power(a, h, n), k) with the final product run
/// through the fused filtered kernel — the shape every Lemma 5.2 / 5.5
/// filtered-power iteration uses.
[[nodiscard]] SparseMatrix filtered_hop_power(const SparseMatrix& a, int h, int k, int n,
                                              const EngineConfig& engine);

/// Naive kernels (dense triple loop; sparse per-row ordered map of
/// finite candidates), kept independent of the engine as the ground
/// truth for the randomized equivalence tests and the bench ablations.
[[nodiscard]] DistanceMatrix min_plus_product_reference(const DistanceMatrix& a,
                                                        const DistanceMatrix& b);
[[nodiscard]] SparseMatrix min_plus_product_reference(const SparseMatrix& a,
                                                      const SparseMatrix& b, int n);

} // namespace ccq

#endif // CCQ_MATRIX_ENGINE_HPP
