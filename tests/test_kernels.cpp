// Differential tests for the ISA-dispatched dense min-plus kernels:
// every compiled-and-supported ISA (scalar, AVX2, AVX-512) must produce
// bitwise identical products for every {threads, block_size}
// configuration — in both element widths and both k-loop shapes —
// including adversarial all-INF and near-saturation rows.  Raw band
// calls are checked against a naive band loop written here, not against
// the scalar lane policy, which shares the kernels' loop nests.  ISAs
// the host CPU lacks are skipped, never failed.  (The width-dispatch
// rule itself is covered by tests/test_kernel_width.cpp.)
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
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

const std::vector<EngineConfig> kConfigs = {
    {1, 1}, {1, 8}, {1, 64}, {4, 1}, {4, 8}, {4, 64},
};

std::string label(Isa isa, const EngineConfig& config)
{
    return std::string(kernels::isa_name(isa)) + " threads=" + std::to_string(config.threads) +
           " block=" + std::to_string(config.block_size);
}

DistanceMatrix random_dense(int n, Rng& rng, double inf_fraction, double huge_fraction)
{
    DistanceMatrix m(n);
    for (NodeId i = 0; i < n; ++i) {
        for (NodeId j = 0; j < n; ++j) {
            const double coin = rng.uniform_real();
            if (coin < inf_fraction) continue; // stays kInfinity
            if (coin < inf_fraction + huge_fraction) {
                m.at(i, j) = kInfinity - rng.uniform_int(1, 1000);
            } else {
                m.at(i, j) = rng.uniform_int(0, 500);
            }
        }
    }
    return m;
}

TEST(KernelDispatch, ScalarIsAlwaysSupported)
{
    EXPECT_TRUE(kernels::isa_compiled(Isa::scalar));
    EXPECT_TRUE(kernels::isa_supported(Isa::scalar));
    const std::vector<Isa> isas = kernels::supported_isas();
    ASSERT_FALSE(isas.empty());
    EXPECT_EQ(isas.front(), Isa::scalar);
    for (const Isa isa : isas) EXPECT_TRUE(kernels::isa_supported(isa));
    EXPECT_TRUE(kernels::isa_supported(kernels::dispatch_isa()));
}

TEST(KernelDispatch, NamesAreStable)
{
    EXPECT_STREQ(kernels::isa_name(Isa::scalar), "scalar");
    EXPECT_STREQ(kernels::isa_name(Isa::avx2), "avx2");
    EXPECT_STREQ(kernels::isa_name(Isa::avx512), "avx512");
}

TEST(KernelDispatch, OverrideForcesTheIsa)
{
    for (const Isa isa : kernels::supported_isas()) {
        ScopedIsa forced(isa);
        EXPECT_EQ(kernels::dispatch_isa(), isa);
    }
    // Cleared override returns to automatic dispatch (a supported ISA).
    EXPECT_TRUE(kernels::isa_supported(kernels::dispatch_isa()));
}

TEST(KernelDispatch, UnsupportedIsaIsRejected)
{
    for (const Isa isa : {Isa::avx2, Isa::avx512}) {
        if (kernels::isa_supported(isa)) continue;
        EXPECT_THROW((void)kernels::band_kernels(isa), check_error);
        EXPECT_THROW(kernels::set_isa_override(isa), check_error);
    }
}

// The dispatch matrix: every supported ISA, threads {1,4} x block
// {1,8,64}, random operands with unreachable cells — all bitwise equal
// to the seed reference kernel.
TEST(KernelDifferential, EveryIsaMatchesReferenceAcrossConfigs)
{
    for (const int n : {1, 2, 7, 33, 64, 97}) {
        Rng rng(4000 + static_cast<std::uint64_t>(n));
        const DistanceMatrix a = random_dense(n, rng, 0.2, 0.0);
        const DistanceMatrix b = random_dense(n, rng, 0.2, 0.0);
        const DistanceMatrix reference = min_plus_product_reference(a, b);
        for (const Isa isa : kernels::supported_isas()) {
            ScopedIsa forced(isa);
            for (const EngineConfig& config : kConfigs) {
                EXPECT_EQ(min_plus_product(a, b, config), reference)
                    << "n=" << n << " " << label(isa, config);
            }
        }
    }
}

// Adversarial rows: whole rows of kInfinity (the INF-skip path must fire
// for complete rows), whole rows of near-saturation weights (raw adds
// just below the overflow argument's ceiling), and a mixed random tail.
TEST(KernelDifferential, AdversarialInfinityAndSaturationRows)
{
    const int n = 37;
    Rng rng(77);
    DistanceMatrix a = random_dense(n, rng, 0.3, 0.3);
    DistanceMatrix b = random_dense(n, rng, 0.3, 0.3);
    for (NodeId j = 0; j < n; ++j) {
        a.at(3, j) = kInfinity;     // fully unreachable row in A
        b.at(5, j) = kInfinity;     // fully unreachable row in B
        a.at(7, j) = kInfinity - 1; // saturation row: sums overflow past kInfinity
        b.at(9, j) = kInfinity - 1;
    }
    const DistanceMatrix reference = min_plus_product_reference(a, b);
    for (const Isa isa : kernels::supported_isas()) {
        ScopedIsa forced(isa);
        for (const EngineConfig& config : kConfigs) {
            const DistanceMatrix c = min_plus_product(a, b, config);
            EXPECT_EQ(c, reference) << label(isa, config);
            for (NodeId i = 0; i < n; ++i)
                for (NodeId j = 0; j < n; ++j) ASSERT_LE(c.at(i, j), kInfinity);
        }
    }
}

/// Cells of `m` in row-major order, for raw band calls.
std::vector<Weight> cells(const DistanceMatrix& m)
{
    return std::vector<Weight>(m.data(), m.data() + static_cast<std::size_t>(m.size()) * m.size());
}

/// Packs a small-weight matrix into the i32 domain the narrow kernels
/// consume (kInfinity -> kInfinity32, finite cells verbatim).
std::vector<Weight32> pack32(const DistanceMatrix& m)
{
    std::vector<Weight32> packed;
    for (const Weight cell : cells(m))
        packed.push_back(is_finite(cell) ? static_cast<Weight32>(cell) : kInfinity32);
    return packed;
}

/// The oracle for raw band calls, independent of the kernels' nests and
/// lane policies: rows [i0, i1) of the min-plus triple loop, with every
/// sum formed in i64 (no wraparound in either width); all other rows of
/// C are left untouched.
template <class Cell>
void naive_band(const std::vector<Cell>& a, const std::vector<Cell>& b, std::vector<Cell>& c,
                int n, int i0, int i1, Cell sentinel)
{
    const auto at = [n](int r, int col) { return static_cast<std::size_t>(r) * n + col; };
    for (int i = i0; i < i1; ++i)
        for (int k = 0; k < n; ++k) {
            if (a[at(i, k)] >= sentinel) continue;
            for (int j = 0; j < n; ++j) {
                const std::int64_t cand = std::int64_t{a[at(i, k)]} + b[at(k, j)];
                if (cand < c[at(i, j)]) c[at(i, j)] = static_cast<Cell>(cand);
            }
        }
}

/// Both shapes of one width from an ISA's table.
std::vector<std::pair<const char*, kernels::DenseBandFn>> shapes(const kernels::BandKernels& k,
                                                                Weight)
{
    return {{"dense_wide", k.dense_wide}, {"sparse_wide", k.sparse_wide}};
}
std::vector<std::pair<const char*, kernels::DenseBandFn32>>
shapes(const kernels::BandKernels& k, Weight32)
{
    return {{"dense_narrow", k.dense_narrow}, {"sparse_narrow", k.sparse_narrow}};
}

/// Every supported ISA x both shapes of this width x partial bands x
/// block sizes, each raw call starting from `c` and compared whole (so
/// rows outside the band must come back untouched).
template <class Cell>
void expect_band_calls_match_naive(const std::vector<Cell>& a, const std::vector<Cell>& b,
                                   const std::vector<Cell>& c, int n, Cell sentinel,
                                   const std::string& what)
{
    for (const auto& [i0, i1] :
         std::vector<std::pair<int, int>>{{0, n}, {0, 1}, {n / 2, n}, {1, n - 1}}) {
        if (i0 >= i1) continue;
        std::vector<Cell> expected = c;
        naive_band(a, b, expected, n, i0, i1, sentinel);
        for (const Isa isa : kernels::supported_isas()) {
            for (const auto& [shape, fn] : shapes(kernels::band_kernels(isa), Cell{})) {
                for (const int bs : {1, 3, 8, 64}) {
                    std::vector<Cell> actual = c;
                    fn(a.data(), b.data(), actual.data(), n, i0, i1, bs);
                    EXPECT_EQ(actual, expected)
                        << kernels::isa_name(isa) << " " << shape << " " << what << " n=" << n
                        << " band=[" << i0 << "," << i1 << ") bs=" << bs;
                }
            }
        }
    }
}

// Direct band-kernel calls (no engine, no pool) against the naive band
// loop: every ISA's four BandKernels entries on partial bands, block
// sizes {1, 3, 8, 64}, and n covering every tail length of 4-, 8- and
// 16-lane vectors (n = 16..31 in one bs=64 tile; n < 16 are mostly
// tail).  A mixes dense rows with the mostly-INF rows the sparse-row
// skip shape targets; C starts all-INF (as the engine leaves it) or
// partly finite, so the min with old cells counts too.  The i64 cases
// keep near-saturation cells and whole rows of kInfinity - 1 (raw sums
// just below the overflow argument's ceiling); the narrow cases use
// small weights, the only ones the engine's width rule packs to i32.
TEST(KernelDifferential, RawBandCallsMatchNaiveBandLoop)
{
    std::vector<int> sizes = {1, 2, 3, 5, 7, 8, 11, 33, 49};
    for (int n = 16; n < 32; ++n) sizes.push_back(n);
    for (const int n : sizes) {
        Rng rng(600 + static_cast<std::uint64_t>(n));
        for (const auto& [a_inf, c_inf] : std::vector<std::pair<double, double>>{
                 {0.25, 1.0}, {0.25, 0.5}, {0.8, 1.0}, {0.8, 0.5}}) {
            const std::string what =
                "a_inf=" + std::to_string(a_inf) + " c_inf=" + std::to_string(c_inf);
            DistanceMatrix a = random_dense(n, rng, a_inf, 0.1);
            DistanceMatrix b = random_dense(n, rng, 0.25, 0.1);
            for (NodeId j = 0; j < n; ++j) {
                a.at(0, j) = kInfinity - 1;
                b.at(n - 1, j) = kInfinity - 1;
            }
            expect_band_calls_match_naive(cells(a), cells(b),
                                          cells(random_dense(n, rng, c_inf, 0.1)), n, kInfinity,
                                          what);
            expect_band_calls_match_naive(pack32(random_dense(n, rng, a_inf, 0.0)),
                                          pack32(random_dense(n, rng, 0.2, 0.0)),
                                          pack32(random_dense(n, rng, c_inf, 0.0)), n,
                                          kInfinity32, what);
        }
    }
}

// The closure (repeated squaring + early exit) through every ISA: the
// full pipeline stays bitwise stable, not just one product.
TEST(KernelDifferential, ClosureIsIsaInvariant)
{
    Rng rng(91);
    const DistanceMatrix a = random_dense(48, rng, 0.6, 0.05);
    std::optional<DistanceMatrix> expected;
    std::optional<int> expected_products;
    for (const Isa isa : kernels::supported_isas()) {
        ScopedIsa forced(isa);
        int products = 0;
        const DistanceMatrix closure = min_plus_closure(a, &products, EngineConfig{4, 8});
        if (!expected.has_value()) {
            expected = closure;
            expected_products = products;
        } else {
            EXPECT_EQ(closure, *expected) << kernels::isa_name(isa);
            EXPECT_EQ(products, *expected_products) << kernels::isa_name(isa);
        }
    }
}

} // namespace
} // namespace ccq
