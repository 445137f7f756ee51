#include "linalg/kernels_fast.hpp"

#include <cmath>

#include "linalg/kernel_tier.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define MCS_HAVE_X86_DISPATCH 1
// Per-function code generation: the translation unit itself is compiled for
// the baseline ISA, so the binary still runs on CPUs without AVX2 — the
// dispatcher just never points at these functions there.
#define MCS_TARGET_AVX2 __attribute__((target("avx2,fma")))
#endif

#if defined(__aarch64__)
#include <arm_neon.h>
#define MCS_HAVE_NEON 1
#endif

namespace mcs::fastk {

namespace {

// ---- Portable blocked-scalar fallback ----------------------------------
//
// Mirrors the SIMD paths' fixed reduction shape (4 independent
// accumulators over ascending k, combined as ((a0+a1)+(a2+a3)), tail in
// ascending order) so the fallback is deterministic under the same
// contract, just without vector registers.
namespace blocked {

double dot(const double* x, const double* y, std::size_t n) {
    double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
    std::size_t k = 0;
    for (; k + 4 <= n; k += 4) {
        a0 += x[k] * y[k];
        a1 += x[k + 1] * y[k + 1];
        a2 += x[k + 2] * y[k + 2];
        a3 += x[k + 3] * y[k + 3];
    }
    double acc = (a0 + a1) + (a2 + a3);
    for (; k < n; ++k) {
        acc += x[k] * y[k];
    }
    return acc;
}

void multiply_rows(double* dst, const double* a, const double* b,
                   std::size_t lo, std::size_t hi, std::size_t kdim,
                   std::size_t n) {
    for (std::size_t i = lo; i < hi; ++i) {
        double* out = dst + i * n;
        for (std::size_t j = 0; j < n; ++j) {
            out[j] = 0.0;
        }
        const double* ai = a + i * kdim;
        for (std::size_t k = 0; k < kdim; ++k) {
            const double aik = ai[k];
            if (aik == 0.0) {
                continue;
            }
            const double* bk = b + k * n;
            std::size_t j = 0;
            for (; j + 4 <= n; j += 4) {
                out[j] += aik * bk[j];
                out[j + 1] += aik * bk[j + 1];
                out[j + 2] += aik * bk[j + 2];
                out[j + 3] += aik * bk[j + 3];
            }
            for (; j < n; ++j) {
                out[j] += aik * bk[j];
            }
        }
    }
}

void multiply_transposed_rows(double* dst, const double* a, const double* b,
                              std::size_t lo, std::size_t hi, std::size_t n,
                              std::size_t kdim) {
    for (std::size_t i = lo; i < hi; ++i) {
        const double* ai = a + i * kdim;
        double* out = dst + i * n;
        for (std::size_t j = 0; j < n; ++j) {
            out[j] = dot(ai, b + j * kdim, kdim);
        }
    }
}

void transpose_multiply(double* dst, const double* a, const double* b,
                        std::size_t m, std::size_t acols, std::size_t bcols,
                        bool accumulate) {
    for (std::size_t p = 0; p < acols * bcols && !accumulate; ++p) {
        dst[p] = 0.0;
    }
    for (std::size_t k = 0; k < m; ++k) {
        const double* ak = a + k * acols;
        const double* bk = b + k * bcols;
        for (std::size_t i = 0; i < acols; ++i) {
            const double aki = ak[i];
            if (aki == 0.0) {
                continue;
            }
            double* out = dst + i * bcols;
            for (std::size_t j = 0; j < bcols; ++j) {
                out[j] += aki * bk[j];
            }
        }
    }
}

void masked_residual_rows(double* dst, const double* l, const double* r,
                          const double* mask, const double* s, std::size_t lo,
                          std::size_t hi, std::size_t n, std::size_t rank) {
    for (std::size_t i = lo; i < hi; ++i) {
        const double* li = l + i * rank;
        double* out = dst + i * n;
        const double* mi = mask + i * n;
        const double* si = s + i * n;
        for (std::size_t j = 0; j < n; ++j) {
            if (mi[j] != 0.0) {
                out[j] = dot(li, r + j * rank, rank) * mi[j] - si[j];
            } else {
                out[j] = -si[j];
            }
        }
    }
}

void hadamard(double* dst, const double* a, const double* b, std::size_t n) {
    for (std::size_t k = 0; k < n; ++k) {
        dst[k] = a[k] * b[k];
    }
}

void axpy(double* y, double alpha, const double* x, std::size_t n) {
    for (std::size_t k = 0; k < n; ++k) {
        y[k] += alpha * x[k];
    }
}

void subtract(double* dst, const double* a, const double* b, std::size_t n) {
    for (std::size_t k = 0; k < n; ++k) {
        dst[k] = a[k] - b[k];
    }
}

}  // namespace blocked

// ---- AVX2 + FMA --------------------------------------------------------
#if defined(MCS_HAVE_X86_DISPATCH)
namespace avx2 {

// Fixed-order horizontal sum: (v0 + v2) + (v1 + v3). The lane pairing is
// part of the determinism contract — never reorder it.
MCS_TARGET_AVX2 inline double hsum(__m256d v) {
    const __m128d lo = _mm256_castpd256_pd128(v);
    const __m128d hi = _mm256_extractf128_pd(v, 1);
    const __m128d pair = _mm_add_pd(lo, hi);
    const __m128d swap = _mm_unpackhi_pd(pair, pair);
    return _mm_cvtsd_f64(_mm_add_sd(pair, swap));
}

// dot over ascending k: 4 accumulator registers (16 doubles/iteration),
// combined ((acc0+acc1)+(acc2+acc3)), remaining 4-wide chunks into acc
// order fixed by n alone, scalar tail folded last in ascending order.
MCS_TARGET_AVX2 double dot(const double* x, const double* y, std::size_t n) {
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    __m256d acc2 = _mm256_setzero_pd();
    __m256d acc3 = _mm256_setzero_pd();
    std::size_t k = 0;
    for (; k + 16 <= n; k += 16) {
        acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(x + k),
                               _mm256_loadu_pd(y + k), acc0);
        acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(x + k + 4),
                               _mm256_loadu_pd(y + k + 4), acc1);
        acc2 = _mm256_fmadd_pd(_mm256_loadu_pd(x + k + 8),
                               _mm256_loadu_pd(y + k + 8), acc2);
        acc3 = _mm256_fmadd_pd(_mm256_loadu_pd(x + k + 12),
                               _mm256_loadu_pd(y + k + 12), acc3);
    }
    for (; k + 4 <= n; k += 4) {
        acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(x + k),
                               _mm256_loadu_pd(y + k), acc0);
    }
    double acc = hsum(_mm256_add_pd(_mm256_add_pd(acc0, acc1),
                                    _mm256_add_pd(acc2, acc3)));
    for (; k < n; ++k) {
        acc = std::fma(x[k], y[k], acc);
    }
    return acc;
}

// Four dot products sharing one left vector over the multiple-of-4 prefix
// [0, k4): returns [x·y0, x·y1, x·y2, x·y3]. One accumulator register per
// column; each lane then reduces as (l0+l1)+(l2+l3) via the fixed
// hadd/permute combine below. Amortises the horizontal reduction over four
// outputs — the dot() route pays a full hsum per element, which dominates
// at the pipeline's small inner dimensions (rank ≈ 16).
MCS_TARGET_AVX2 inline __m256d dot4(const double* x, const double* y0,
                                    const double* y1, const double* y2,
                                    const double* y3, std::size_t k4) {
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    __m256d acc2 = _mm256_setzero_pd();
    __m256d acc3 = _mm256_setzero_pd();
    for (std::size_t k = 0; k < k4; k += 4) {
        const __m256d xv = _mm256_loadu_pd(x + k);
        acc0 = _mm256_fmadd_pd(xv, _mm256_loadu_pd(y0 + k), acc0);
        acc1 = _mm256_fmadd_pd(xv, _mm256_loadu_pd(y1 + k), acc1);
        acc2 = _mm256_fmadd_pd(xv, _mm256_loadu_pd(y2 + k), acc2);
        acc3 = _mm256_fmadd_pd(xv, _mm256_loadu_pd(y3 + k), acc3);
    }
    // hadd pairs lanes (0+1 | 2+3); the permute/blend swap lines the two
    // half-sums of each column up in one register. Per-lane tree:
    // (l0+l1)+(l2+l3), fixed by the shape alone.
    const __m256d h01 = _mm256_hadd_pd(acc0, acc1);
    const __m256d h23 = _mm256_hadd_pd(acc2, acc3);
    const __m256d swap = _mm256_permute2f128_pd(h01, h23, 0x21);
    const __m256d blend = _mm256_blend_pd(h01, h23, 0b1100);
    return _mm256_add_pd(swap, blend);
}

// Register-tiled GEMM: dst rows [lo, hi) of an (hi−lo)×n product whose
// k-term for dst row i is a[i·ri + k·rk] — covers both a·b (ri = kdim,
// rk = 1) and aᵀ·b (ri = 1, rk = acols); b is row-major k×n in both. Rows
// go in strips of 4 (then one of 2 and one of 1 for the leftovers), each
// strip in 4×8 tiles whose 8 accumulators stay in registers across the
// whole k loop, fed per k by 2 loads of b and 4 broadcasts of a. The last
// n mod 8 columns take one narrower tile whose last vector is masked to
// the n mod 4 columns left, so no column falls back to scalar code. Every
// dst element accumulates its k-terms as one ascending FMA chain — from
// +0.0, or from dst's value with `accumulate` (dst += product) — so
// neither the tiling nor the [lo, hi) split can change the bits.

// Lanes [0, count) of a 4-lane mask.
MCS_TARGET_AVX2 inline __m256i lane_mask(std::size_t count) {
    return _mm256_cmpgt_epi64(
        _mm256_set1_epi64x(static_cast<long long>(count)),
        _mm256_setr_epi64x(0, 1, 2, 3));
}

// Vector v of a tile row, cut to the `tail` lanes when it is the last
// vector of a masked tile (masked-off lanes load as zero, store nothing).
template <int V, bool Masked>
MCS_TARGET_AVX2 inline __m256d tile_load(const double* p, int v,
                                         __m256i tail) {
    return Masked && v == V - 1 ? _mm256_maskload_pd(p, tail)
                                : _mm256_loadu_pd(p);
}

template <int V, bool Masked>
MCS_TARGET_AVX2 inline void tile_store(double* p, int v, __m256i tail,
                                       __m256d x) {
    if (Masked && v == V - 1) {
        _mm256_maskstore_pd(p, tail, x);
    } else {
        _mm256_storeu_pd(p, x);
    }
}

// One R×4V tile of dst at `out` (row stride n); `a` points at the tile's
// first row of a, `b` at its first column of b. Always inlined into its
// strip: at the ASD products' short k loops, a call per tile (with its
// register shuffling) cost more than the tiling saved.
template <int R, int V, bool Masked>
MCS_TARGET_AVX2 __attribute__((always_inline)) inline void gemm_tile(
    double* out, const double* a, std::size_t ri, std::size_t rk,
    const double* b, std::size_t kdim, std::size_t n, bool accumulate,
    __m256i tail) {
    __m256d c[R][V];
    for (int r = 0; r < R; ++r) {
        for (int v = 0; v < V; ++v) {
            c[r][v] = accumulate
                          ? tile_load<V, Masked>(out + r * n + 4 * v, v, tail)
                          : _mm256_setzero_pd();
        }
    }
    for (std::size_t k = 0; k < kdim; ++k, a += rk, b += n) {
        __m256d bv[V];
        for (int v = 0; v < V; ++v) {
            bv[v] = tile_load<V, Masked>(b + 4 * v, v, tail);
        }
        for (int r = 0; r < R; ++r) {
            const __m256d av = _mm256_set1_pd(a[r * ri]);
            for (int v = 0; v < V; ++v) {
                c[r][v] = _mm256_fmadd_pd(av, bv[v], c[r][v]);
            }
        }
    }
    for (int r = 0; r < R; ++r) {
        for (int v = 0; v < V; ++v) {
            tile_store<V, Masked>(out + r * n + 4 * v, v, tail, c[r][v]);
        }
    }
}

// R rows of dst, all n columns: 8-wide tiles, then one tile for the rest.
template <int R>
MCS_TARGET_AVX2 inline void gemm_strip(double* out, const double* a,
                                       std::size_t ri, std::size_t rk,
                                       const double* b, std::size_t kdim,
                                       std::size_t n, bool accumulate) {
    const __m256i tail = lane_mask(n % 4);
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8) {
        gemm_tile<R, 2, false>(out + j, a, ri, rk, b + j, kdim, n,
                               accumulate, tail);
    }
    const std::size_t rest = n - j;
    if (rest > 4) {
        gemm_tile<R, 2, true>(out + j, a, ri, rk, b + j, kdim, n,
                              accumulate, tail);
    } else if (rest == 4) {
        gemm_tile<R, 1, false>(out + j, a, ri, rk, b + j, kdim, n,
                               accumulate, tail);
    } else if (rest > 0) {
        gemm_tile<R, 1, true>(out + j, a, ri, rk, b + j, kdim, n,
                              accumulate, tail);
    }
}

MCS_TARGET_AVX2
void gemm_rows(double* dst, const double* a, std::size_t ri, std::size_t rk,
               const double* b, std::size_t lo, std::size_t hi,
               std::size_t kdim, std::size_t n, bool accumulate) {
    std::size_t i = lo;
    for (; i + 4 <= hi; i += 4) {
        gemm_strip<4>(dst + i * n, a + i * ri, ri, rk, b, kdim, n,
                      accumulate);
    }
    if (i + 2 <= hi) {
        gemm_strip<2>(dst + i * n, a + i * ri, ri, rk, b, kdim, n,
                      accumulate);
        i += 2;
    }
    if (i < hi) {
        gemm_strip<1>(dst + i * n, a + i * ri, ri, rk, b, kdim, n,
                      accumulate);
    }
}

MCS_TARGET_AVX2
void multiply_rows(double* dst, const double* a, const double* b,
                   std::size_t lo, std::size_t hi, std::size_t kdim,
                   std::size_t n) {
    gemm_rows(dst, a, kdim, 1, b, lo, hi, kdim, n, false);
}

MCS_TARGET_AVX2
void multiply_transposed_rows(double* dst, const double* a, const double* b,
                              std::size_t lo, std::size_t hi, std::size_t n,
                              std::size_t kdim) {
    const std::size_t k4 = kdim - kdim % 4;
    for (std::size_t i = lo; i < hi; ++i) {
        const double* ai = a + i * kdim;
        double* out = dst + i * n;
        std::size_t j = 0;
        for (; j + 4 <= n; j += 4) {
            const double* r0 = b + j * kdim;
            const __m256d sums =
                dot4(ai, r0, r0 + kdim, r0 + 2 * kdim, r0 + 3 * kdim, k4);
            if (k4 == kdim) {
                _mm256_storeu_pd(out + j, sums);
            } else {
                alignas(32) double tmp[4];
                _mm256_store_pd(tmp, sums);
                for (std::size_t t = 0; t < 4; ++t) {
                    double v = tmp[t];
                    const double* rj = r0 + t * kdim;
                    for (std::size_t k = k4; k < kdim; ++k) {
                        v = std::fma(ai[k], rj[k], v);
                    }
                    out[j + t] = v;
                }
            }
        }
        for (; j < n; ++j) {
            out[j] = dot(ai, b + j * kdim, kdim);
        }
    }
}

MCS_TARGET_AVX2
void transpose_multiply(double* dst, const double* a, const double* b,
                        std::size_t m, std::size_t acols, std::size_t bcols,
                        bool accumulate) {
    gemm_rows(dst, a, 1, acols, b, 0, acols, m, bcols, accumulate);
}

MCS_TARGET_AVX2
void masked_residual_rows(double* dst, const double* l, const double* r,
                          const double* mask, const double* s, std::size_t lo,
                          std::size_t hi, std::size_t n, std::size_t rank) {
    const std::size_t k4 = rank - rank % 4;
    for (std::size_t i = lo; i < hi; ++i) {
        const double* li = l + i * rank;
        double* out = dst + i * n;
        const double* mi = mask + i * n;
        const double* si = s + i * n;
        std::size_t j = 0;
        for (; j + 4 <= n; j += 4) {
            const double* r0 = r + j * rank;
            __m256d sums =
                dot4(li, r0, r0 + rank, r0 + 2 * rank, r0 + 3 * rank, k4);
            if (k4 != rank) {
                alignas(32) double tmp[4];
                _mm256_store_pd(tmp, sums);
                for (std::size_t t = 0; t < 4; ++t) {
                    const double* rj = r0 + t * rank;
                    for (std::size_t k = k4; k < rank; ++k) {
                        tmp[t] = std::fma(li[k], rj[k], tmp[t]);
                    }
                }
                sums = _mm256_load_pd(tmp);
            }
            // dot·m − s in one vector op; a zero mask lane yields exactly
            // −s for finite dots, matching the scalar skip branch.
            const __m256d res = _mm256_sub_pd(
                _mm256_mul_pd(sums, _mm256_loadu_pd(mi + j)),
                _mm256_loadu_pd(si + j));
            _mm256_storeu_pd(out + j, res);
        }
        for (; j < n; ++j) {
            if (mi[j] != 0.0) {
                out[j] = dot(li, r + j * rank, rank) * mi[j] - si[j];
            } else {
                out[j] = -si[j];
            }
        }
    }
}

MCS_TARGET_AVX2
void hadamard(double* dst, const double* a, const double* b, std::size_t n) {
    std::size_t k = 0;
    for (; k + 4 <= n; k += 4) {
        _mm256_storeu_pd(dst + k, _mm256_mul_pd(_mm256_loadu_pd(a + k),
                                                _mm256_loadu_pd(b + k)));
    }
    for (; k < n; ++k) {
        dst[k] = a[k] * b[k];
    }
}

MCS_TARGET_AVX2
void axpy(double* y, double alpha, const double* x, std::size_t n) {
    const __m256d va = _mm256_set1_pd(alpha);
    std::size_t k = 0;
    for (; k + 4 <= n; k += 4) {
        __m256d c = _mm256_loadu_pd(y + k);
        c = _mm256_fmadd_pd(va, _mm256_loadu_pd(x + k), c);
        _mm256_storeu_pd(y + k, c);
    }
    for (; k < n; ++k) {
        y[k] = std::fma(alpha, x[k], y[k]);
    }
}

MCS_TARGET_AVX2
void subtract(double* dst, const double* a, const double* b, std::size_t n) {
    std::size_t k = 0;
    for (; k + 4 <= n; k += 4) {
        _mm256_storeu_pd(dst + k, _mm256_sub_pd(_mm256_loadu_pd(a + k),
                                                _mm256_loadu_pd(b + k)));
    }
    for (; k < n; ++k) {
        dst[k] = a[k] - b[k];
    }
}

}  // namespace avx2
#endif  // MCS_HAVE_X86_DISPATCH

// ---- NEON (AArch64) ----------------------------------------------------
#if defined(MCS_HAVE_NEON)
namespace neon {

// 4 × 2-lane accumulators (8 doubles/iteration), combined
// ((acc0+acc1)+(acc2+acc3)), lanes summed low-then-high — the same fixed
// reduction shape as the AVX2 path, narrower registers.
double dot(const double* x, const double* y, std::size_t n) {
    float64x2_t acc0 = vdupq_n_f64(0.0);
    float64x2_t acc1 = vdupq_n_f64(0.0);
    float64x2_t acc2 = vdupq_n_f64(0.0);
    float64x2_t acc3 = vdupq_n_f64(0.0);
    std::size_t k = 0;
    for (; k + 8 <= n; k += 8) {
        acc0 = vfmaq_f64(acc0, vld1q_f64(x + k), vld1q_f64(y + k));
        acc1 = vfmaq_f64(acc1, vld1q_f64(x + k + 2), vld1q_f64(y + k + 2));
        acc2 = vfmaq_f64(acc2, vld1q_f64(x + k + 4), vld1q_f64(y + k + 4));
        acc3 = vfmaq_f64(acc3, vld1q_f64(x + k + 6), vld1q_f64(y + k + 6));
    }
    for (; k + 2 <= n; k += 2) {
        acc0 = vfmaq_f64(acc0, vld1q_f64(x + k), vld1q_f64(y + k));
    }
    const float64x2_t sum =
        vaddq_f64(vaddq_f64(acc0, acc1), vaddq_f64(acc2, acc3));
    double acc = vgetq_lane_f64(sum, 0) + vgetq_lane_f64(sum, 1);
    for (; k < n; ++k) {
        acc = std::fma(x[k], y[k], acc);
    }
    return acc;
}

void multiply_rows(double* dst, const double* a, const double* b,
                   std::size_t lo, std::size_t hi, std::size_t kdim,
                   std::size_t n) {
    for (std::size_t i = lo; i < hi; ++i) {
        double* out = dst + i * n;
        for (std::size_t j = 0; j < n; ++j) {
            out[j] = 0.0;
        }
        const double* ai = a + i * kdim;
        for (std::size_t k = 0; k < kdim; ++k) {
            const double aik = ai[k];
            if (aik == 0.0) {
                continue;
            }
            const float64x2_t va = vdupq_n_f64(aik);
            const double* bk = b + k * n;
            std::size_t j = 0;
            for (; j + 8 <= n; j += 8) {
                vst1q_f64(out + j,
                          vfmaq_f64(vld1q_f64(out + j), va, vld1q_f64(bk + j)));
                vst1q_f64(out + j + 2, vfmaq_f64(vld1q_f64(out + j + 2), va,
                                                 vld1q_f64(bk + j + 2)));
                vst1q_f64(out + j + 4, vfmaq_f64(vld1q_f64(out + j + 4), va,
                                                 vld1q_f64(bk + j + 4)));
                vst1q_f64(out + j + 6, vfmaq_f64(vld1q_f64(out + j + 6), va,
                                                 vld1q_f64(bk + j + 6)));
            }
            for (; j + 2 <= n; j += 2) {
                vst1q_f64(out + j,
                          vfmaq_f64(vld1q_f64(out + j), va, vld1q_f64(bk + j)));
            }
            for (; j < n; ++j) {
                out[j] = std::fma(aik, bk[j], out[j]);
            }
        }
    }
}

void multiply_transposed_rows(double* dst, const double* a, const double* b,
                              std::size_t lo, std::size_t hi, std::size_t n,
                              std::size_t kdim) {
    for (std::size_t i = lo; i < hi; ++i) {
        const double* ai = a + i * kdim;
        double* out = dst + i * n;
        for (std::size_t j = 0; j < n; ++j) {
            out[j] = dot(ai, b + j * kdim, kdim);
        }
    }
}

void transpose_multiply(double* dst, const double* a, const double* b,
                        std::size_t m, std::size_t acols, std::size_t bcols,
                        bool accumulate) {
    for (std::size_t p = 0; p < acols * bcols && !accumulate; ++p) {
        dst[p] = 0.0;
    }
    for (std::size_t k = 0; k < m; ++k) {
        const double* ak = a + k * acols;
        const double* bk = b + k * bcols;
        for (std::size_t i = 0; i < acols; ++i) {
            const double aki = ak[i];
            if (aki == 0.0) {
                continue;
            }
            const float64x2_t va = vdupq_n_f64(aki);
            double* out = dst + i * bcols;
            std::size_t j = 0;
            for (; j + 2 <= bcols; j += 2) {
                vst1q_f64(out + j,
                          vfmaq_f64(vld1q_f64(out + j), va, vld1q_f64(bk + j)));
            }
            for (; j < bcols; ++j) {
                out[j] = std::fma(aki, bk[j], out[j]);
            }
        }
    }
}

void masked_residual_rows(double* dst, const double* l, const double* r,
                          const double* mask, const double* s, std::size_t lo,
                          std::size_t hi, std::size_t n, std::size_t rank) {
    for (std::size_t i = lo; i < hi; ++i) {
        const double* li = l + i * rank;
        double* out = dst + i * n;
        const double* mi = mask + i * n;
        const double* si = s + i * n;
        for (std::size_t j = 0; j < n; ++j) {
            if (mi[j] != 0.0) {
                out[j] = dot(li, r + j * rank, rank) * mi[j] - si[j];
            } else {
                out[j] = -si[j];
            }
        }
    }
}

void hadamard(double* dst, const double* a, const double* b, std::size_t n) {
    std::size_t k = 0;
    for (; k + 2 <= n; k += 2) {
        vst1q_f64(dst + k, vmulq_f64(vld1q_f64(a + k), vld1q_f64(b + k)));
    }
    for (; k < n; ++k) {
        dst[k] = a[k] * b[k];
    }
}

void axpy(double* y, double alpha, const double* x, std::size_t n) {
    const float64x2_t va = vdupq_n_f64(alpha);
    std::size_t k = 0;
    for (; k + 2 <= n; k += 2) {
        vst1q_f64(y + k, vfmaq_f64(vld1q_f64(y + k), va, vld1q_f64(x + k)));
    }
    for (; k < n; ++k) {
        y[k] = std::fma(alpha, x[k], y[k]);
    }
}

void subtract(double* dst, const double* a, const double* b, std::size_t n) {
    std::size_t k = 0;
    for (; k + 2 <= n; k += 2) {
        vst1q_f64(dst + k, vsubq_f64(vld1q_f64(a + k), vld1q_f64(b + k)));
    }
    for (; k < n; ++k) {
        dst[k] = a[k] - b[k];
    }
}

}  // namespace neon
#endif  // MCS_HAVE_NEON

FastKernels resolve_table() {
    FastKernels t{"scalar-blocked",
                  &blocked::multiply_rows,
                  &blocked::multiply_transposed_rows,
                  &blocked::transpose_multiply,
                  &blocked::masked_residual_rows,
                  &blocked::hadamard,
                  &blocked::axpy,
                  &blocked::subtract};
#if defined(MCS_HAVE_X86_DISPATCH)
    if (cpu_features().avx2 && cpu_features().fma) {
        t = FastKernels{"avx2+fma",
                        &avx2::multiply_rows,
                        &avx2::multiply_transposed_rows,
                        &avx2::transpose_multiply,
                        &avx2::masked_residual_rows,
                        &avx2::hadamard,
                        &avx2::axpy,
                        &avx2::subtract};
    }
#elif defined(MCS_HAVE_NEON)
    t = FastKernels{"neon",
                    &neon::multiply_rows,
                    &neon::multiply_transposed_rows,
                    &neon::transpose_multiply,
                    &neon::masked_residual_rows,
                    &neon::hadamard,
                    &neon::axpy,
                    &neon::subtract};
#endif
    return t;
}

}  // namespace

const FastKernels& fast_kernels() {
    static const FastKernels table = resolve_table();
    return table;
}

}  // namespace mcs::fastk
