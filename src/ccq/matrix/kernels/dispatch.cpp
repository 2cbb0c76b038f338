#include <atomic>
#include <cstdlib>
#include <string>

#include "ccq/common/check.hpp"
#include "ccq/matrix/kernels/band.hpp"

namespace ccq::kernels {
namespace {

/// -1 = automatic dispatch, otherwise the forced Isa value.
std::atomic<int> g_override{-1};

[[nodiscard]] bool cpu_has(Isa isa)
{
    switch (isa) {
    case Isa::scalar: return true;
#ifdef CCQ_KERNELS_X86
    case Isa::avx2: return __builtin_cpu_supports("avx2") != 0;
    case Isa::avx512: return __builtin_cpu_supports("avx512f") != 0;
#else
    case Isa::avx2:
    case Isa::avx512: return false;
#endif
    }
    return false;
}

/// CCQ_SIMD environment override, parsed once: a recognized ISA that
/// this host supports wins; anything else (including "auto", unset, or
/// an ISA the CPU lacks) means automatic dispatch.
[[nodiscard]] Isa env_or_widest()
{
    static const Isa resolved = [] {
        if (const char* env = std::getenv("CCQ_SIMD")) {
            const std::string want(env);
            for (const Isa isa : {Isa::scalar, Isa::avx2, Isa::avx512})
                if (want == isa_name(isa) && isa_supported(isa)) return isa;
        }
        Isa widest = Isa::scalar;
        for (const Isa isa : {Isa::avx2, Isa::avx512})
            if (isa_supported(isa)) widest = isa;
        return widest;
    }();
    return resolved;
}

} // namespace

const char* isa_name(Isa isa)
{
    switch (isa) {
    case Isa::scalar: return "scalar";
    case Isa::avx2: return "avx2";
    case Isa::avx512: return "avx512";
    }
    return "unknown";
}

bool isa_compiled(Isa isa)
{
#ifdef CCQ_KERNELS_X86
    (void)isa;
    return true;
#else
    return isa == Isa::scalar;
#endif
}

bool isa_supported(Isa isa) { return isa_compiled(isa) && cpu_has(isa); }

std::vector<Isa> supported_isas()
{
    std::vector<Isa> isas;
    for (const Isa isa : {Isa::scalar, Isa::avx2, Isa::avx512})
        if (isa_supported(isa)) isas.push_back(isa);
    return isas;
}

Isa dispatch_isa()
{
    const int forced = g_override.load(std::memory_order_acquire);
    if (forced >= 0) return static_cast<Isa>(forced);
    return env_or_widest();
}

BandKernels band_kernels(Isa isa)
{
    CCQ_EXPECT(isa_supported(isa), "band_kernels: ISA not supported on this host");
#ifdef CCQ_KERNELS_X86
    if (isa == Isa::avx2) return detail::avx2_band_kernels();
    if (isa == Isa::avx512) return detail::avx512_band_kernels();
#endif
    return detail::scalar_band_kernels();
}

void set_isa_override(std::optional<Isa> isa)
{
    if (isa.has_value()) {
        CCQ_EXPECT(isa_supported(*isa), "set_isa_override: ISA not supported on this host");
        g_override.store(static_cast<int>(*isa), std::memory_order_release);
    } else {
        g_override.store(-1, std::memory_order_release);
    }
}

} // namespace ccq::kernels
