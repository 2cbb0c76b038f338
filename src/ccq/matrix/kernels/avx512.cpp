#include "ccq/matrix/kernels/band.hpp"

#ifdef CCQ_KERNELS_X86

#include <immintrin.h>

namespace ccq::kernels::detail {
namespace {

#if defined(__GNUC__) && !defined(__clang__)
// _mm512_min_epi64 passes _mm512_undefined_epi32() as the (fully masked
// out) merge source; GCC's -Wmaybe-uninitialized cannot see the mask
// (GCC PR105593).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

// AVX-512F: 8 x 64-bit lanes with a native signed min (vpminsq) and a
// masked tail, so every block width runs branch-free.  Same raw-add /
// signed-min algebra as the scalar policy — bitwise identical output.
struct Avx512Wide : ScalarWide {
    __attribute__((target("avx512f"))) static void relax(Weight* crow, const Weight* brow,
                                                         Weight aik, int len)
    {
        const __m512i vaik = _mm512_set1_epi64(aik);
        int j = 0;
        for (; j + 8 <= len; j += 8) {
            const __m512i vb = _mm512_loadu_si512(brow + j);
            const __m512i vc = _mm512_loadu_si512(crow + j);
            const __m512i cand = _mm512_add_epi64(vaik, vb);
            _mm512_storeu_si512(crow + j, _mm512_min_epi64(vc, cand));
        }
        if (j < len) {
            const __mmask8 tail = static_cast<__mmask8>((1u << (len - j)) - 1u);
            const __m512i vb = _mm512_maskz_loadu_epi64(tail, brow + j);
            const __m512i vc = _mm512_maskz_loadu_epi64(tail, crow + j);
            const __m512i cand = _mm512_add_epi64(vaik, vb);
            _mm512_mask_storeu_epi64(crow + j, tail, _mm512_min_epi64(vc, cand));
        }
    }
};

// Narrow (i32) lanes: 16 per vector with native vpminsd and a 16-bit
// tail mask.  The engine's width rule keeps every candidate below 2^31
// (finite sums < kInfinity32, finite + sentinel < 2*kInfinity32), so
// add_epi32 never wraps and the signed min orders exactly like i64.
struct Avx512Narrow : ScalarNarrow {
    __attribute__((target("avx512f"))) static void relax(Weight32* crow, const Weight32* brow,
                                                         Weight32 aik, int len)
    {
        const __m512i vaik = _mm512_set1_epi32(aik);
        int j = 0;
        for (; j + 16 <= len; j += 16) {
            const __m512i vb = _mm512_loadu_si512(brow + j);
            const __m512i vc = _mm512_loadu_si512(crow + j);
            const __m512i cand = _mm512_add_epi32(vaik, vb);
            _mm512_storeu_si512(crow + j, _mm512_min_epi32(vc, cand));
        }
        if (j < len) {
            const __mmask16 tail = static_cast<__mmask16>((1u << (len - j)) - 1u);
            const __m512i vb = _mm512_maskz_loadu_epi32(tail, brow + j);
            const __m512i vc = _mm512_maskz_loadu_epi32(tail, crow + j);
            const __m512i cand = _mm512_add_epi32(vaik, vb);
            _mm512_mask_storeu_epi32(crow + j, tail, _mm512_min_epi32(vc, cand));
        }
    }
};

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

template <class Lanes, bool Sparse>
__attribute__((target("avx512f"), flatten)) void
entry(const typename Lanes::Cell* a, const typename Lanes::Cell* b, typename Lanes::Cell* c,
      int n, int i0, int i1, int bs)
{
    if constexpr (Sparse) sparse_band<Lanes>(a, b, c, n, i0, i1, bs);
    else dense_band<Lanes>(a, b, c, n, i0, i1, bs);
}

} // namespace

BandKernels avx512_band_kernels()
{
    return {&entry<Avx512Wide, false>, &entry<Avx512Wide, true>, &entry<Avx512Narrow, false>,
            &entry<Avx512Narrow, true>};
}

} // namespace ccq::kernels::detail

#endif // CCQ_KERNELS_X86
