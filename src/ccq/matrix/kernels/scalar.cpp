#include "ccq/matrix/kernels/band.hpp"

namespace ccq::kernels::detail {
namespace {

// Portable reference entries (the seed blocked loop): ScalarLanes in
// both shared nests.  No target attribute, so -march builds may still
// auto-vectorize them.
template <class Lanes, bool Sparse>
__attribute__((flatten)) void
entry(const typename Lanes::Cell* a, const typename Lanes::Cell* b, typename Lanes::Cell* c,
      int n, int i0, int i1, int bs)
{
    if constexpr (Sparse) sparse_band<Lanes>(a, b, c, n, i0, i1, bs);
    else dense_band<Lanes>(a, b, c, n, i0, i1, bs);
}

} // namespace

BandKernels scalar_band_kernels()
{
    return {&entry<ScalarWide, false>, &entry<ScalarWide, true>, &entry<ScalarNarrow, false>,
            &entry<ScalarNarrow, true>};
}

} // namespace ccq::kernels::detail
