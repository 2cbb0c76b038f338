// ISA-dispatched dense min-plus band kernels.
//
// The blocked dense engine (matrix/engine.cpp) spends essentially all of
// its time in one loop: for a finite A[i,k], relax C[i, jj..jend) with
// A[i,k] + B[k, jj..jend).  That loop vectorizes cleanly over integer
// lanes (broadcast-add + lane-wise signed min; the INF-skip on A[i,k] is
// hoisted out of the j-loop), so each instruction set — scalar
// reference, AVX2, AVX-512, selected at runtime via cpuid — provides a
// BandKernels table of four kernels, in two element widths and two
// k-loop shapes:
//
//   width:  i64 (Weight, 4/8 SIMD lanes) and i32 (Weight32, 8/16 lanes).
//           The engine packs operands to i32 only when its width-dispatch
//           rule proves every sum the kernel can form compares identically
//           in both domains (engine.cpp / docs/ENGINE.md), so the unpacked
//           narrow result is bitwise identical to the wide one.
//   shape:  dense ((ii,kk,jj) tiled nest) and sparse-row skip (per-row
//           pre-scan of A for finite entries; the k-loop runs off the
//           packed index list — a large win when rows are mostly INF,
//           e.g. spanner-shaped operands).
//
// Each shape is one loop nest (band.hpp), written once and instantiated
// per ISA with a lane policy that relaxes one j-segment; the nests
// software-prefetch the B row the k-loop will touch next.
//
// Contract: every kernel computes, for rows [i0, i1) of C,
//
//   C[i,j] = min(C[i,j], min_{k, A[i,k] finite} A[i,k] + B[k,j])
//
// with raw (non-saturating) additions, leaving all other rows untouched,
// for every input whose cells are all <= the width's infinity sentinel.
// Integer add and min are exact, each C cell depends only on its own
// column, and min is order-independent over exact candidates, so neither
// SIMD width nor the k-loop shape can change a single output bit.
// tests/test_kernels.cpp checks every {ISA, width, shape} against a
// naive band loop of its own.
//
// Selection order: the programmatic override (set_isa_override, used by
// tests and bench ablations), then the CCQ_SIMD environment variable
// ("scalar" | "avx2" | "avx512" | "auto"; unsupported values fall back
// to auto), then the widest ISA the CPU supports.  Building with
// -DCCQ_SIMD=OFF compiles the scalar kernels only; non-x86 targets do
// the same automatically.  Element width is NOT selected here — that is
// the engine's provable per-product decision (EngineConfig::width +
// CCQ_KERNEL_WIDTH).
#ifndef CCQ_MATRIX_KERNELS_KERNELS_HPP
#define CCQ_MATRIX_KERNELS_KERNELS_HPP

#include <optional>
#include <vector>

#include "ccq/common/types.hpp"

namespace ccq::kernels {

/// Instruction sets a dense band kernel can target, narrowest first.
enum class Isa {
    scalar = 0, ///< portable reference kernel (always available)
    avx2 = 1,   ///< 4 x i64 / 8 x i32 lanes, compare+blend or native min
    avx512 = 2, ///< 8 x i64 / 16 x i32 lanes, native vpmins{q,d} + masked tail
};

[[nodiscard]] const char* isa_name(Isa isa);

/// Dense band kernel: rows [i0, i1) of C, all of A and B, tiled by bs.
/// See the file header for the exact semantics contract.
using DenseBandFn = void (*)(const Weight* a, const Weight* b, Weight* c, int n, int i0,
                             int i1, int bs);

/// Same contract over the packed i32 domain (sentinel kInfinity32).
using DenseBandFn32 = void (*)(const Weight32* a, const Weight32* b, Weight32* c, int n,
                               int i0, int i1, int bs);

/// The four band kernels one ISA provides: both element widths, each in
/// the dense tiled shape and the sparse-row skip shape.  All four obey
/// the same semantics contract over their width's domain.
struct BandKernels {
    DenseBandFn dense_wide;
    DenseBandFn sparse_wide;
    DenseBandFn32 dense_narrow;
    DenseBandFn32 sparse_narrow;
};

/// True if this binary contains a kernel for `isa` (CCQ_SIMD=ON and an
/// x86-64 toolchain; scalar is always compiled).
[[nodiscard]] bool isa_compiled(Isa isa);

/// True if `isa` is compiled in AND the running CPU supports it.
[[nodiscard]] bool isa_supported(Isa isa);

/// Every ISA usable on this host, narrowest first (never empty).
[[nodiscard]] std::vector<Isa> supported_isas();

/// The ISA the engine will use: override > CCQ_SIMD env > widest
/// supported.  Always returns a supported ISA.
[[nodiscard]] Isa dispatch_isa();

/// All four band kernels for `isa`; requires isa_supported(isa).
[[nodiscard]] BandKernels band_kernels(Isa isa);

/// Forces dispatch_isa() to `isa` (must be supported); nullopt restores
/// automatic dispatch.  For tests and bench ablations.
void set_isa_override(std::optional<Isa> isa);

} // namespace ccq::kernels

#endif // CCQ_MATRIX_KERNELS_KERNELS_HPP
