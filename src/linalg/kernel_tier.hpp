// Kernel-tier selection and CPU feature dispatch (DESIGN.md §13).
//
// Every `_into` kernel in linalg/kernels.hpp has two implementations:
//
//   * KernelTier::kExact — the seed scalar loops, bit-for-bit identical to
//     the value-returning ops. The default, and what every bit-identity
//     contract in the repo (runtime merge order, checkpoint resume,
//     linalg_kernels_test) is stated against.
//   * KernelTier::kFast — register-blocked, SIMD-vectorised micro-kernels
//     selected at runtime from the CPU: AVX2+FMA on x86-64, NEON on
//     aarch64, and a cache-blocked unrolled scalar path everywhere else.
//     The fast tier keeps a fixed, thread-count-independent reduction
//     order (per destination element, the summation tree depends only on
//     the operand shapes), so results are deterministic run-to-run and
//     across --threads — but they are NOT bit-identical to the exact
//     tier: FMA contraction and vector-lane partial sums round
//     differently (≤1e-12 relative in practice).
//
// The active tier is ambient, per-thread state: pipeline entry points
// (FleetRunner shard workers, the CLI, benchmarks) install a
// KernelTierScope and everything below — objective gradients, Gram
// products, the randomized range-finder — dispatches through it. Being
// thread-local, a scope installed on one FleetRunner worker never leaks
// into another.
#pragma once

#include <cstddef>
#include <string>

#include "common/context.hpp"

namespace mcs {

/// What the running CPU offers (resolved once, at first use).
struct CpuFeatures {
    bool avx2 = false;
    bool fma = false;
    bool avx512f = false;
    bool neon = false;
};

/// Detected features of this process's CPU.
const CpuFeatures& cpu_features();

/// Name of the fast-tier code path the dispatcher resolved for this CPU:
/// "avx2+fma", "neon", or "scalar-blocked". Fixed for the process
/// lifetime; the exact tier is always plain "scalar".
const char* fast_kernel_path();

/// Ambient kernel tier of the calling thread (default kExact).
KernelTier active_kernel_tier();

/// Set the calling thread's ambient tier. Prefer KernelTierScope.
void set_active_kernel_tier(KernelTier tier);

/// RAII tier selection: installs `tier` for the calling thread, restores
/// the previous tier on destruction. Nesting is fine (innermost wins).
class KernelTierScope {
public:
    explicit KernelTierScope(KernelTier tier)
        : previous_(active_kernel_tier()) {
        set_active_kernel_tier(tier);
    }
    ~KernelTierScope() { set_active_kernel_tier(previous_); }
    KernelTierScope(const KernelTierScope&) = delete;
    KernelTierScope& operator=(const KernelTierScope&) = delete;

private:
    KernelTier previous_;
};

}  // namespace mcs
