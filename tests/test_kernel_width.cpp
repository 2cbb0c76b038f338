// The width-dispatch rule and the i32/i64 differential guarantee:
// narrow products must be bitwise identical to wide products exactly
// when the rule admits them (max finite A cell + max finite B cell <
// kInfinity32), straddling the promotion boundary, across all-INF rows,
// ragged tails, the sparse-row skip pass, and a closure whose estimates
// grow past the boundary mid-run.  Explicit EngineConfig widths are
// used throughout so the suite stays meaningful under a forced
// CCQ_KERNEL_WIDTH environment (one CI leg runs the whole suite with
// CCQ_KERNEL_WIDTH=wide; config settings outrank the env).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ccq/common/rng.hpp"
#include "ccq/matrix/engine.hpp"
#include "ccq/matrix/kernels/kernels.hpp"

namespace ccq {
namespace {

using kernels::Isa;

/// RAII ISA force for one test scope.
struct ScopedIsa {
    explicit ScopedIsa(Isa isa) { kernels::set_isa_override(isa); }
    ~ScopedIsa() { kernels::set_isa_override(std::nullopt); }
};

[[nodiscard]] EngineConfig with_width(KernelWidth width, int threads = 1, int block = 64,
                                      bool sparse_skip = true)
{
    EngineConfig config{threads, block};
    config.width = width;
    config.sparse_skip = sparse_skip;
    return config;
}

/// Random matrix with weights drawn from [lo, hi] and a fraction of
/// kInfinity cells.
DistanceMatrix random_weighted(int n, Rng& rng, Weight lo, Weight hi, double inf_fraction)
{
    DistanceMatrix m(n);
    for (NodeId i = 0; i < n; ++i) {
        for (NodeId j = 0; j < n; ++j) {
            if (rng.uniform_real() < inf_fraction) continue; // stays kInfinity
            m.at(i, j) = rng.uniform_int(lo, hi);
        }
    }
    return m;
}

TEST(WidthRule, BoundaryExactlyMirrorsTheI32Domain)
{
    const EngineConfig narrow_if_safe = with_width(KernelWidth::kNarrowIfSafe);
    DistanceMatrix a(2);
    DistanceMatrix b(2);
    // max_a + max_b == kInfinity32 - 1: the last admissible pair.
    a.at(0, 0) = static_cast<Weight>(kInfinity32) / 2;
    b.at(0, 0) = static_cast<Weight>(kInfinity32) - 1 - a.at(0, 0);
    ProductPlan plan = preview_product_plan(a, b, narrow_if_safe);
    EXPECT_TRUE(plan.narrow);
    EXPECT_EQ(plan.max_a + plan.max_b, static_cast<Weight>(kInfinity32) - 1);
    // max_a + max_b == kInfinity32: the first inadmissible pair.
    b.at(0, 0) += 1;
    plan = preview_product_plan(a, b, narrow_if_safe);
    EXPECT_FALSE(plan.narrow);
    EXPECT_EQ(plan.max_a + plan.max_b, static_cast<Weight>(kInfinity32));
}

TEST(WidthRule, AllInfOperandsAreNarrow)
{
    // No finite cells: maxes are 0, the rule trivially admits i32.
    const DistanceMatrix a(8);
    const DistanceMatrix b(8);
    const ProductPlan plan = preview_product_plan(a, b, with_width(KernelWidth::kNarrowIfSafe));
    EXPECT_TRUE(plan.narrow);
    EXPECT_EQ(plan.max_a, 0);
    EXPECT_EQ(plan.max_b, 0);
    EXPECT_EQ(plan.a_density, 0.0);
}

TEST(WidthRule, ForcedWideOutranksSafety)
{
    Rng rng(11);
    const DistanceMatrix a = random_weighted(8, rng, 1, 100, 0.2);
    EXPECT_TRUE(preview_product_plan(a, a, with_width(KernelWidth::kNarrowIfSafe)).narrow);
    EXPECT_FALSE(preview_product_plan(a, a, with_width(KernelWidth::kWide)).narrow);
}

// Operands whose sums land just below the promotion boundary: the
// narrow product must be admitted and bitwise identical to both the
// forced-wide product and the seed reference, on every supported ISA.
TEST(WidthDifferential, ProductsIdenticalJustBelowTheBoundary)
{
    const Weight half = static_cast<Weight>(kInfinity32) / 2 - 1;
    for (const int n : {9, 17, 32}) {
        Rng rng(2200 + static_cast<std::uint64_t>(n));
        // Weights near kInfinity32/2 so candidate sums crowd the top of
        // the admissible range without crossing it.
        const DistanceMatrix a = random_weighted(n, rng, half - 1000, half, 0.3);
        const DistanceMatrix b = random_weighted(n, rng, half - 1000, half, 0.3);
        const DistanceMatrix reference = min_plus_product_reference(a, b);
        for (const Isa isa : kernels::supported_isas()) {
            ScopedIsa forced(isa);
            for (const int threads : {1, 3, 4, 9}) {
                for (const int block : {1, 8, 64}) {
                    const EngineConfig narrow =
                        with_width(KernelWidth::kNarrowIfSafe, threads, block);
                    ASSERT_TRUE(preview_product_plan(a, b, narrow).narrow);
                    EXPECT_EQ(min_plus_product(a, b, narrow), reference)
                        << kernels::isa_name(isa) << " narrow threads=" << threads
                        << " block=" << block;
                    EXPECT_EQ(min_plus_product(
                                  a, b, with_width(KernelWidth::kWide, threads, block)),
                              reference)
                        << kernels::isa_name(isa) << " wide threads=" << threads
                        << " block=" << block;
                }
            }
        }
    }
}

// Operands just past the boundary: narrow-if-safe must demote itself to
// the wide kernels (the plan says wide) and still match the reference.
TEST(WidthDifferential, PromotionPastTheBoundaryStaysWideAndCorrect)
{
    const Weight half = static_cast<Weight>(kInfinity32) / 2;
    for (const int n : {9, 17}) {
        Rng rng(3300 + static_cast<std::uint64_t>(n));
        const DistanceMatrix a = random_weighted(n, rng, half, half + 1000, 0.3);
        const DistanceMatrix b = random_weighted(n, rng, half, half + 1000, 0.3);
        const DistanceMatrix reference = min_plus_product_reference(a, b);
        for (const Isa isa : kernels::supported_isas()) {
            ScopedIsa forced(isa);
            const EngineConfig config = with_width(KernelWidth::kNarrowIfSafe, 1, 8);
            ASSERT_FALSE(preview_product_plan(a, b, config).narrow);
            EXPECT_EQ(min_plus_product(a, b, config), reference) << kernels::isa_name(isa);
        }
    }
}

// All-INF rows and ragged tails (n not a multiple of the 8/16-lane
// vectors) through the engine, both widths, both k-loop shapes.
TEST(WidthDifferential, AllInfRowsAndRaggedTails)
{
    for (const int n : {13, 17, 23, 31, 47}) {
        Rng rng(4400 + static_cast<std::uint64_t>(n));
        DistanceMatrix a = random_weighted(n, rng, 0, 900, 0.4);
        DistanceMatrix b = random_weighted(n, rng, 0, 900, 0.4);
        for (NodeId j = 0; j < n; ++j) {
            a.at(2, j) = kInfinity; // fully unreachable rows in both operands
            b.at(4, j) = kInfinity;
        }
        const DistanceMatrix reference = min_plus_product_reference(a, b);
        for (const Isa isa : kernels::supported_isas()) {
            ScopedIsa forced(isa);
            for (const KernelWidth width : {KernelWidth::kWide, KernelWidth::kNarrowIfSafe}) {
                for (const bool skip : {false, true}) {
                    const EngineConfig config = with_width(width, 4, 8, skip);
                    EXPECT_EQ(min_plus_product(a, b, config), reference)
                        << kernels::isa_name(isa) << " n=" << n
                        << (width == KernelWidth::kWide ? " wide" : " narrow")
                        << " skip=" << skip;
                }
            }
        }
    }
}

// A closure that starts narrow and is forced wide mid-run: path-graph
// weights of ~kInfinity32/3 admit i32 for the first squaring (sums
// ~2/3 kInfinity32) but the squared estimates (~2/3 kInfinity32 each)
// push later squarings past the boundary.  The counters must show both
// widths used, and the result must equal the forced-wide closure.
TEST(WidthDifferential, ClosureFlipsToWideAsEstimatesGrow)
{
    const int n = 8;
    const Weight w = static_cast<Weight>(kInfinity32) / 3;
    DistanceMatrix chain(n);
    chain.set_diagonal_zero();
    for (NodeId u = 0; u + 1 < n; ++u) {
        chain.at(u, u + 1) = w;
        chain.at(u + 1, u) = w;
    }
    ASSERT_TRUE(preview_product_plan(chain, chain, with_width(KernelWidth::kNarrowIfSafe))
                    .narrow);

    const EngineCounters before = engine_counters();
    int products_narrow_run = 0;
    const DistanceMatrix closure =
        min_plus_closure(chain, &products_narrow_run, with_width(KernelWidth::kNarrowIfSafe));
    const EngineCounters after = engine_counters();
    EXPECT_GE(after.products_narrow - before.products_narrow, 1u)
        << "first squaring should run narrow";
    EXPECT_GE(after.products_wide - before.products_wide, 1u)
        << "later squarings must promote to wide as estimates grow";

    int products_wide_run = 0;
    const DistanceMatrix wide_closure =
        min_plus_closure(chain, &products_wide_run, with_width(KernelWidth::kWide));
    EXPECT_EQ(closure, wide_closure);
    EXPECT_EQ(products_narrow_run, products_wide_run);
    // Sanity: the chain's far end is (n-1) * w — finite and beyond the
    // i32 domain, so the flip really happened on real data.
    EXPECT_EQ(closure.at(0, n - 1), static_cast<Weight>(n - 1) * w);
    EXPECT_GT(closure.at(0, n - 1), static_cast<Weight>(kInfinity32));
}

TEST(SparseSkip, ThresholdDrivesThePlan)
{
    const int n = 64;
    Rng rng(5500);
    // Spanner-shaped: diagonal + ~3 finite cells per row, far below the
    // threshold.
    DistanceMatrix sparse(n);
    sparse.set_diagonal_zero();
    for (NodeId u = 0; u < n; ++u)
        for (int e = 0; e < 3; ++e)
            sparse.at(u, static_cast<NodeId>(rng.uniform_int(0, n - 1))) =
                rng.uniform_int(1, 100);
    const DistanceMatrix dense = random_weighted(n, rng, 1, 100, 0.0);

    EngineConfig config = with_width(KernelWidth::kNarrowIfSafe);
    EXPECT_TRUE(preview_product_plan(sparse, sparse, config).sparse_skip);
    EXPECT_FALSE(preview_product_plan(dense, dense, config).sparse_skip);
    EXPECT_LT(preview_product_plan(sparse, sparse, config).a_density, kSparseSkipThreshold);
    // The decision keys on A (it drives the k-loop), not B.
    EXPECT_TRUE(preview_product_plan(sparse, dense, config).sparse_skip);
    EXPECT_FALSE(preview_product_plan(dense, sparse, config).sparse_skip);
    // Opting out of the pass is honored.
    config.sparse_skip = false;
    EXPECT_FALSE(preview_product_plan(sparse, sparse, config).sparse_skip);
}

TEST(SparseSkip, SkipPassIsBitwiseIdenticalInBothWidths)
{
    const int n = 48;
    Rng rng(6600);
    DistanceMatrix a(n);
    a.set_diagonal_zero();
    for (NodeId u = 0; u < n; ++u)
        for (int e = 0; e < 4; ++e)
            a.at(u, static_cast<NodeId>(rng.uniform_int(0, n - 1))) = rng.uniform_int(1, 100);
    const DistanceMatrix reference = min_plus_product_reference(a, a);
    // A squaring (one operand, scanned and packed once) must plan and
    // compute exactly what the same product over a copy of A does.
    const DistanceMatrix copy = a;
    for (const Isa isa : kernels::supported_isas()) {
        ScopedIsa forced(isa);
        for (const KernelWidth width : {KernelWidth::kWide, KernelWidth::kNarrowIfSafe}) {
            for (const bool skip : {false, true}) {
                const EngineConfig config = with_width(width, 4, 8, skip);
                const std::string label = std::string(kernels::isa_name(isa)) +
                                          (width == KernelWidth::kWide ? " wide" : " narrow") +
                                          " skip=" + std::to_string(skip);
                EXPECT_EQ(preview_product_plan(a, a, config), preview_product_plan(a, copy, config))
                    << label;
                EXPECT_EQ(min_plus_product(a, a, config), reference) << label;
                EXPECT_EQ(min_plus_product(a, copy, config), reference) << label;
            }
        }
    }
}

TEST(Counters, ProductsCountByWidthAndSkip)
{
    Rng rng(7700);
    const DistanceMatrix small = random_weighted(16, rng, 1, 100, 0.9);
    const EngineCounters before = engine_counters();
    (void)min_plus_product(small, small, with_width(KernelWidth::kNarrowIfSafe));
    (void)min_plus_product(small, small, with_width(KernelWidth::kWide));
    const EngineCounters after = engine_counters();
    EXPECT_EQ(after.products_narrow - before.products_narrow, 1u);
    EXPECT_EQ(after.products_wide - before.products_wide, 1u);
    EXPECT_EQ(after.products_sparse_skip - before.products_sparse_skip, 2u);
}

} // namespace
} // namespace ccq
