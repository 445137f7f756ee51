#include "linalg/kernel_tier.hpp"

#include "linalg/kernels_fast.hpp"

namespace mcs {

namespace {

CpuFeatures detect_cpu_features() {
    CpuFeatures f;
#if defined(__x86_64__) || defined(__i386__)
    __builtin_cpu_init();
    f.avx2 = __builtin_cpu_supports("avx2") != 0;
    f.fma = __builtin_cpu_supports("fma") != 0;
    f.avx512f = __builtin_cpu_supports("avx512f") != 0;
#elif defined(__aarch64__)
    f.neon = true;  // Advanced SIMD is architecturally baseline on AArch64
#endif
    return f;
}

thread_local KernelTier t_active_tier = KernelTier::kExact;

}  // namespace

const CpuFeatures& cpu_features() {
    static const CpuFeatures features = detect_cpu_features();
    return features;
}

const char* fast_kernel_path() { return fastk::fast_kernels().path; }

KernelTier active_kernel_tier() { return t_active_tier; }

void set_active_kernel_tier(KernelTier tier) { t_active_tier = tier; }

}  // namespace mcs
