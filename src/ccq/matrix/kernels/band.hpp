// The two band loop nests every min-plus kernel shares, each written
// once and parameterized by a lane policy.  Internal to kernels/: the
// engine reaches them only through band_kernels(isa).
//
// A lane policy is a small struct that supplies
//
//   using Cell = ...;                      // Weight or Weight32
//   static constexpr Cell kSentinel = ...; // the width's infinity
//   static void relax(Cell* crow, const Cell* brow, Cell aik, int len);
//
// where relax sets crow[j] = min(crow[j], aik + brow[j]) for every j in
// [0, len), tail included, with raw adds.  The nests own everything
// else (tiling, INF-skip, prefetch), so one ISA differs from another
// only in its relax.
//
// Each ISA file instantiates the nests from `target(...)` + `flatten`
// wrappers: flatten inlines the untargeted nest and the target-
// attributed relax into the wrapper, so every BandKernels entry compiles
// to one function with the vector ops inline and no call per (i, k,
// tile).  `always_inline` on relax would not do: GCC refuses to inline a
// target-attributed callee into an untargeted caller ("target specific
// option mismatch").  Nor are the ISA files built with per-file -m
// flags: every inline function they share (this header, the standard
// library) would then be compiled for AVX-512 in one object and for the
// baseline in another, and the linker may keep either copy.
#ifndef CCQ_MATRIX_KERNELS_BAND_HPP
#define CCQ_MATRIX_KERNELS_BAND_HPP

#include <algorithm>
#include <cstddef>
#include <vector>

#include "ccq/matrix/kernels/kernels.hpp"

#if !defined(CCQ_SIMD_DISABLED) && defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define CCQ_KERNELS_X86 1
#endif

namespace ccq::kernels::detail {

/// How many k-loop iterations ahead the nests prefetch the next B row
/// of the current j-tile.  Tuned on the CI-class hardware: 1 row keeps
/// the prefetch inside the tile's reuse window without thrashing L1 on
/// small block sizes.
inline constexpr int kPrefetchRowDistance = 1;

/// Prefetch every cacheline of [p, p + bytes) for reading.
inline void prefetch_span(const void* p, std::size_t bytes) noexcept
{
    const char* c = static_cast<const char*>(p);
    for (std::size_t off = 0; off < bytes; off += 64) __builtin_prefetch(c + off, 0, 3);
}

/// Portable lanes, one cell at a time; also the base the SIMD policies
/// take their Cell and kSentinel from, and the AVX2 policies their tail.
/// Every stored cell stays <= kSentinel and the width's safety argument
/// (kernels.hpp) keeps aik + brow[j] from overflowing, so "store only if
/// smaller" reproduces the seed kernel's saturating relax bit for bit.
template <class T, T Sentinel>
struct ScalarLanes {
    using Cell = T;
    static constexpr Cell kSentinel = Sentinel;

    static void relax(Cell* crow, const Cell* brow, Cell aik, int len)
    {
        for (std::ptrdiff_t j = 0; j < len; ++j) { // one index for both rows, like the seed
            const Cell cand = aik + brow[j];
            if (cand < crow[j]) crow[j] = cand;
        }
    }
};

using ScalarWide = ScalarLanes<Weight, kInfinity>;
using ScalarNarrow = ScalarLanes<Weight32, kInfinity32>;

/// Dense shape: the (ii, kk, jj) tiled nest over rows [i0, i1) of C.
template <class Lanes>
void dense_band(const typename Lanes::Cell* a, const typename Lanes::Cell* b,
                typename Lanes::Cell* c, int n, int i0, int i1, int bs)
{
    using Cell = typename Lanes::Cell;
    for (int ii = i0; ii < i1; ii += bs) {
        const int iend = std::min(ii + bs, i1);
        for (int kk = 0; kk < n; kk += bs) {
            const int kend = std::min(kk + bs, n);
            for (int jj = 0; jj < n; jj += bs) {
                const int len = std::min(jj + bs, n) - jj;
                for (int i = ii; i < iend; ++i) {
                    const Cell* arow = a + static_cast<std::size_t>(i) * n;
                    Cell* crow = c + static_cast<std::size_t>(i) * n;
                    for (int k = kk; k < kend; ++k) {
                        const Cell aik = arow[k];
                        // INF-skip, hoisted off the j-loop.  [[likely]] only fixes the layout:
                        // without it GCC makes the inlined relax the fall-through, and the skip
                        // of a spanner-density A ran 1.7x slower (two taken branches per k).
                        if (aik >= Lanes::kSentinel) [[likely]] continue;
                        const int pk = k + kPrefetchRowDistance;
                        if (pk < n)
                            prefetch_span(b + static_cast<std::size_t>(pk) * n + jj,
                                          static_cast<std::size_t>(len) * sizeof(Cell));
                        Lanes::relax(crow + jj, b + static_cast<std::size_t>(k) * n + jj, aik, len);
                    }
                }
            }
        }
    }
}

/// Sparse-row skip shape: pre-scans each A row of the band for finite
/// entries and drives the k-loop off the packed index list.  The same
/// set of (i, k) relaxations runs in ascending k per j-tile; min over
/// exact candidates is order-independent, so the output is bitwise
/// identical to the dense shape — the win is skipping the INF cells of
/// mostly-empty rows once per row instead of once per (j-tile, k).
template <class Lanes>
void sparse_band(const typename Lanes::Cell* a, const typename Lanes::Cell* b,
                 typename Lanes::Cell* c, int n, int i0, int i1, int bs)
{
    using Cell = typename Lanes::Cell;
    std::vector<int> ks;
    ks.reserve(static_cast<std::size_t>(n));
    for (int i = i0; i < i1; ++i) {
        const Cell* arow = a + static_cast<std::size_t>(i) * n;
        ks.clear();
        for (int k = 0; k < n; ++k)
            if (arow[k] < Lanes::kSentinel) ks.push_back(k);
        if (ks.empty()) continue;
        Cell* crow = c + static_cast<std::size_t>(i) * n;
        for (int jj = 0; jj < n; jj += bs) {
            const int len = std::min(jj + bs, n) - jj;
            for (std::size_t t = 0; t < ks.size(); ++t) {
                if (t + kPrefetchRowDistance < ks.size())
                    prefetch_span(b + static_cast<std::size_t>(ks[t + kPrefetchRowDistance]) * n +
                                      jj,
                                  static_cast<std::size_t>(len) * sizeof(Cell));
                const int k = ks[t];
                Lanes::relax(crow + jj, b + static_cast<std::size_t>(k) * n + jj, arow[k], len);
            }
        }
    }
}

/// The per-ISA tables, one per ISA file: both shapes over its wide and
/// narrow policies.  Callers gate on isa_supported.
[[nodiscard]] BandKernels scalar_band_kernels();
#ifdef CCQ_KERNELS_X86
[[nodiscard]] BandKernels avx2_band_kernels();
[[nodiscard]] BandKernels avx512_band_kernels();
#endif

} // namespace ccq::kernels::detail

#endif // CCQ_MATRIX_KERNELS_BAND_HPP
