// Fast-tier micro-kernels: register-blocked, SIMD-vectorised row-range
// primitives behind a function-pointer table resolved once per process
// from the CPU (AVX2+FMA on x86-64, NEON on AArch64, a blocked-scalar
// fallback elsewhere).
//
// These operate on raw row-major buffers — the Matrix-level contracts
// (shape checks, alias checks, FLOP counters, tier selection) all live in
// linalg/kernels.cpp, which is the only caller: a whole-matrix kernel runs
// its row-range kernel once over [0, rows), a row-range form over the
// rows it names. The arithmetic performed for any single
// destination element depends only on the operand shapes, never on the
// [lo, hi) grouping — that is the fast tier's determinism contract
// (identical bits run-to-run and across --threads). On the AVX2 path a
// GEMM element (multiply_rows, transpose_multiply) is one FMA chain over
// ascending k, started at +0.0 or at dst when accumulating, whatever the
// register tile it lands in. A dot-product element (multiply_transposed,
// masked_residual) uses a fixed tree: 4 SIMD accumulators filled in
// ascending k, combined as ((acc0+acc1)+(acc2+acc3)), horizontal-summed in
// fixed lane order, then the scalar tail folded in ascending order. FMA
// contraction makes the results differ from the exact tier's plain
// multiply-add loops by rounding only (≤1e-12 relative; asserted in
// linalg_kernels_test).
#pragma once

#include <cstddef>

namespace mcs::fastk {

/// Resolved fast-tier kernel table. All pointers are non-null.
struct FastKernels {
    /// Dispatcher-chosen code path: "avx2+fma", "neon", "scalar-blocked".
    const char* path;

    /// Rows [lo, hi) of dst(m x n) = a(m x kdim) · b(kdim x n).
    void (*multiply_rows)(double* dst, const double* a, const double* b,
                          std::size_t lo, std::size_t hi, std::size_t kdim,
                          std::size_t n);

    /// Rows [lo, hi) of dst(m x n) = a(m x kdim) · b(n x kdim)ᵀ.
    void (*multiply_transposed_rows)(double* dst, const double* a,
                                     const double* b, std::size_t lo,
                                     std::size_t hi, std::size_t n,
                                     std::size_t kdim);

    /// Full dst(acols x bcols) = a(m x acols)ᵀ · b(m x bcols), or
    /// dst += that product when `accumulate` is set: every element then
    /// continues its k-chain from the value in dst, so a product split
    /// into consecutive row ranges of a and b, accumulated in order, has
    /// the bits of the product taken whole.
    void (*transpose_multiply)(double* dst, const double* a, const double* b,
                               std::size_t m, std::size_t acols,
                               std::size_t bcols, bool accumulate);

    /// Rows [lo, hi) of dst(m x n) = (l·rᵀ) ∘ mask − s, with
    /// l(m x rank), r(n x rank), mask/s(m x n).
    void (*masked_residual_rows)(double* dst, const double* l,
                                 const double* r, const double* mask,
                                 const double* s, std::size_t lo,
                                 std::size_t hi, std::size_t n,
                                 std::size_t rank);

    /// dst[i] = a[i] * b[i] for i in [0, n).
    void (*hadamard)(double* dst, const double* a, const double* b,
                     std::size_t n);

    /// y[i] += alpha * x[i] for i in [0, n).
    void (*axpy)(double* y, double alpha, const double* x, std::size_t n);

    /// dst[i] = a[i] - b[i] for i in [0, n).
    void (*subtract)(double* dst, const double* a, const double* b,
                     std::size_t n);
};

/// The table for this CPU, resolved on first call and fixed thereafter.
const FastKernels& fast_kernels();

}  // namespace mcs::fastk
