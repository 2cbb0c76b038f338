#include "ccq/matrix/kernels/band.hpp"

#ifdef CCQ_KERNELS_X86

#include <immintrin.h>

namespace ccq::kernels::detail {
namespace {

// AVX2 has no 64-bit min instruction, so min(cur, cand) is a signed
// compare + byte blend.  All cells are in [0, 2*kInfinity) < 2^63, so
// the signed compare is exact — the same total order the scalar policy
// uses — and the result is bitwise identical to it.
struct Avx2Wide : ScalarWide {
    __attribute__((target("avx2"))) static void relax(Weight* crow, const Weight* brow,
                                                      Weight aik, int len)
    {
        const __m256i vaik = _mm256_set1_epi64x(aik);
        int j = 0;
        for (; j + 4 <= len; j += 4) {
            const __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(brow + j));
            const __m256i vc = _mm256_loadu_si256(reinterpret_cast<__m256i*>(crow + j));
            const __m256i cand = _mm256_add_epi64(vaik, vb);
            // cur > cand ? cand : cur, lane-wise signed.
            const __m256i take = _mm256_cmpgt_epi64(vc, cand);
            const __m256i best = _mm256_blendv_epi8(vc, cand, take);
            _mm256_storeu_si256(reinterpret_cast<__m256i*>(crow + j), best);
        }
        ScalarWide::relax(crow + j, brow + j, aik, len - j);
    }
};

// Narrow (i32) lanes: 8 per vector instead of 4, and AVX2 *does* have a
// native signed 32-bit min (vpminsd).  The engine's width rule keeps
// every candidate below 2^31 (finite sums < kInfinity32, finite +
// sentinel < 2*kInfinity32), so add_epi32 never wraps and the signed
// min orders exactly like the i64 domain.
struct Avx2Narrow : ScalarNarrow {
    __attribute__((target("avx2"))) static void relax(Weight32* crow, const Weight32* brow,
                                                      Weight32 aik, int len)
    {
        const __m256i vaik = _mm256_set1_epi32(aik);
        int j = 0;
        for (; j + 8 <= len; j += 8) {
            const __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(brow + j));
            const __m256i vc = _mm256_loadu_si256(reinterpret_cast<__m256i*>(crow + j));
            const __m256i cand = _mm256_add_epi32(vaik, vb);
            _mm256_storeu_si256(reinterpret_cast<__m256i*>(crow + j), _mm256_min_epi32(vc, cand));
        }
        ScalarNarrow::relax(crow + j, brow + j, aik, len - j);
    }
};

template <class Lanes, bool Sparse>
__attribute__((target("avx2"), flatten)) void
entry(const typename Lanes::Cell* a, const typename Lanes::Cell* b, typename Lanes::Cell* c,
      int n, int i0, int i1, int bs)
{
    if constexpr (Sparse) sparse_band<Lanes>(a, b, c, n, i0, i1, bs);
    else dense_band<Lanes>(a, b, c, n, i0, i1, bs);
}

} // namespace

BandKernels avx2_band_kernels()
{
    return {&entry<Avx2Wide, false>, &entry<Avx2Wide, true>, &entry<Avx2Narrow, false>,
            &entry<Avx2Narrow, true>};
}

} // namespace ccq::kernels::detail

#endif // CCQ_KERNELS_X86
