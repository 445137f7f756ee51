#include "cs/objective.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/check.hpp"
#include "cs/asd.hpp"
#include "detect/detection.hpp"
#include "linalg/kernel_tier.hpp"
#include "linalg/kernels.hpp"
#include "linalg/ops.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define MCS_SWEEP_AVX2 1
// AVX2 without FMA: a fused multiply-add would round differently from the
// scalar loops.
#define MCS_TARGET_AVX2 __attribute__((target("avx2")))
#endif

namespace mcs {

namespace {

// Give `m` the shape rows x cols; allocates only when the shape changes,
// and counts that allocation in workspace_allocations as a Workspace pool
// miss would be counted.
void ensure_shape(Matrix& m, std::size_t rows, std::size_t cols,
                  PipelineCounters* counters) {
    if (m.rows() != rows || m.cols() != cols) {
        m = Matrix(rows, cols);
        if (counters != nullptr) {
            counters->workspace_allocations += 1;
        }
    }
}

// Visit the row blocks [lo, hi) of an n-row walk, in order.
template <typename Body>
void for_each_block(std::size_t n, Body&& body) {
    for (std::size_t lo = 0; lo < n; lo += kAsdRowBlock) {
        body(lo, std::min(n, lo + kAsdRowBlock));
    }
}

// ---- The sweeps ---------------------------------------------------------
//
// Plain loops over rows of P, ℬ, M and E₃ with a fixed order of
// operations. Where the CPU has AVX2 the same arithmetic runs four
// columns to a register — without FMA, and with column j in lane j mod 4
// as in the scalar loops — so both paths give the same bits, under either
// kernel tier.

// Columns [j0, t) of one row of G = M + λ₂·Δᵀ(E₃), where Δᵀ is the adjoint
// of the temporal difference (linalg/temporal.hpp):
//   Δᵀ(E)(j) = [j ≥ 1]·E(j) − [j+1 < t]·E(j+1).
// E₃'s first column is identically 0 (ΔX has a zero first column, and so
// does C), so the [j ≥ 1] factor holds without a test.
void gradient_factor_row(double* g, const double* m, const double* e,
                         std::size_t j0, std::size_t t, double lambda2) {
    for (std::size_t j = j0; j + 1 < t; ++j) {
        g[j] = m[j] + lambda2 * (e[j] - e[j + 1]);
    }
    g[t - 1] = m[t - 1] + lambda2 * e[t - 1];
}

// The data-sized sums of the exact line search: ‖P∘ℬ‖², ⟨M, P∘ℬ⟩, ‖ΔP‖²
// and ⟨E₃, ΔP⟩, gathered row by row over the line-search pass. Column j
// of every row accumulates into lane j mod 4, the lanes carry over from
// row to row and block to block, and they combine as (0 + 1) + (2 + 3)
// at the end, so the summation order is a function of the shape alone:
// the same bits at any block size, thread count and machine.
struct LineSums {
    double pp[4] = {0.0, 0.0, 0.0, 0.0};
    double mp[4] = {0.0, 0.0, 0.0, 0.0};
    double dd[4] = {0.0, 0.0, 0.0, 0.0};
    double ed[4] = {0.0, 0.0, 0.0, 0.0};

    static double combine(const double (&lane)[4]) {
        return (lane[0] + lane[1]) + (lane[2] + lane[3]);
    }
};

// Columns [j0, t) of one row's share (j0 a multiple of 4): `p`, `b`, `m`
// and `e` point at the row of P, ℬ, M and E₃ (`e` unread without f₃);
// ℬ's bytes enter as 0.0 and 1.0.
template <bool kTemporal>
void line_sums_row(LineSums& acc, const double* p, const std::uint8_t* b,
                   const double* m, const double* e, std::size_t j0,
                   std::size_t t) {
    // ΔP(i, 0) = 0: starting from P(i, 0) makes column 0's difference
    // exactly zero.
    double prev = p[j0 == 0 ? 0 : j0 - 1];
    const auto visit = [&](std::size_t q, std::size_t j) {
        const double pj = p[j];
        const double pb = pj * static_cast<double>(b[j]);
        acc.pp[q] += pb * pb;
        acc.mp[q] += m[j] * pb;
        if constexpr (kTemporal) {
            const double dp = pj - prev;
            prev = pj;
            acc.dd[q] += dp * dp;
            acc.ed[q] += e[j] * dp;
        }
    };
    std::size_t j = j0;
    for (; j + 4 <= t; j += 4) {
        visit(0, j);
        visit(1, j + 1);
        visit(2, j + 2);
        visit(3, j + 3);
    }
    if (j < t) {
        visit(0, j);
    }
    if (j + 1 < t) {
        visit(1, j + 1);
    }
    if (j + 2 < t) {
        visit(2, j + 2);
    }
}

// Columns [j0, t) of one row of the step F ← F − α·D along its product's
// row `p`: M −= α·(P∘ℬ), and with f₃ E₃ −= α·ΔP (E₃'s column 0 stays 0).
template <bool kTemporal>
void step_row(double* m, double* e, const double* p, const std::uint8_t* b,
              std::size_t j0, std::size_t t, double alpha) {
    for (std::size_t j = j0; j < t; ++j) {
        m[j] -= alpha * (p[j] * static_cast<double>(b[j]));
        if constexpr (kTemporal) {
            if (j > 0) {
                e[j] -= alpha * (p[j] - p[j - 1]);
            }
        }
    }
}

#if defined(MCS_SWEEP_AVX2)

// ℬ's bytes b[0..3] as the doubles 0.0 and 1.0.
MCS_TARGET_AVX2 inline __m256d mask4(const std::uint8_t* b) {
    std::int32_t word;
    std::memcpy(&word, b, sizeof word);
    return _mm256_cvtepi32_pd(_mm_cvtepu8_epi32(_mm_cvtsi32_si128(word)));
}

// P's columns j−1 .. j+2 beside `pv` = columns j .. j+3; at j = 0 the
// first is P(i, 0) itself, as the scalar loop's `prev` starts.
MCS_TARGET_AVX2 inline __m256d previous4(const double* p, std::size_t j,
                                         __m256d pv) {
    return j == 0 ? _mm256_permute4x64_pd(pv, _MM_SHUFFLE(2, 1, 0, 0))
                  : _mm256_loadu_pd(p + j - 1);
}

template <bool kTemporal>
MCS_TARGET_AVX2 void line_sums_avx2(LineSums& sums, const double* p,
                                    const std::uint8_t* b, const double* m,
                                    const double* e, std::size_t rows,
                                    std::size_t t) {
    __m256d pp = _mm256_loadu_pd(sums.pp);
    __m256d mp = _mm256_loadu_pd(sums.mp);
    __m256d dd = _mm256_loadu_pd(sums.dd);
    __m256d ed = _mm256_loadu_pd(sums.ed);
    for (std::size_t i = 0; i < rows; ++i) {
        const double* pr = p + i * t;
        const std::uint8_t* br = b + i * t;
        const double* mr = m + i * t;
        const double* er = kTemporal ? e + i * t : nullptr;
        std::size_t j = 0;
        for (; j + 4 <= t; j += 4) {
            const __m256d pv = _mm256_loadu_pd(pr + j);
            const __m256d pb = _mm256_mul_pd(pv, mask4(br + j));
            pp = _mm256_add_pd(pp, _mm256_mul_pd(pb, pb));
            mp = _mm256_add_pd(mp,
                               _mm256_mul_pd(_mm256_loadu_pd(mr + j), pb));
            if constexpr (kTemporal) {
                const __m256d dp = _mm256_sub_pd(pv, previous4(pr, j, pv));
                dd = _mm256_add_pd(dd, _mm256_mul_pd(dp, dp));
                ed = _mm256_add_pd(
                    ed, _mm256_mul_pd(_mm256_loadu_pd(er + j), dp));
            }
        }
        if (j < t) {
            _mm256_storeu_pd(sums.pp, pp);
            _mm256_storeu_pd(sums.mp, mp);
            _mm256_storeu_pd(sums.dd, dd);
            _mm256_storeu_pd(sums.ed, ed);
            line_sums_row<kTemporal>(sums, pr, br, mr, er, j, t);
            pp = _mm256_loadu_pd(sums.pp);
            mp = _mm256_loadu_pd(sums.mp);
            dd = _mm256_loadu_pd(sums.dd);
            ed = _mm256_loadu_pd(sums.ed);
        }
    }
    _mm256_storeu_pd(sums.pp, pp);
    _mm256_storeu_pd(sums.mp, mp);
    _mm256_storeu_pd(sums.dd, dd);
    _mm256_storeu_pd(sums.ed, ed);
}

template <bool kTemporal>
MCS_TARGET_AVX2 void step_rows_avx2(double* m, double* e, const double* p,
                                    const std::uint8_t* b, std::size_t rows,
                                    std::size_t t, double alpha) {
    const __m256d va = _mm256_set1_pd(alpha);
    for (std::size_t i = 0; i < rows; ++i) {
        double* mr = m + i * t;
        double* er = kTemporal ? e + i * t : nullptr;
        const double* pr = p + i * t;
        const std::uint8_t* br = b + i * t;
        std::size_t j = 0;
        for (; j + 4 <= t; j += 4) {
            const __m256d pv = _mm256_loadu_pd(pr + j);
            _mm256_storeu_pd(
                mr + j,
                _mm256_sub_pd(_mm256_loadu_pd(mr + j),
                              _mm256_mul_pd(va, _mm256_mul_pd(
                                                    pv, mask4(br + j)))));
            if constexpr (kTemporal) {
                const __m256d ev = _mm256_loadu_pd(er + j);
                __m256d moved = _mm256_sub_pd(
                    ev, _mm256_mul_pd(
                            va, _mm256_sub_pd(pv, previous4(pr, j, pv))));
                if (j == 0) {
                    moved = _mm256_blend_pd(moved, ev, 0b0001);
                }
                _mm256_storeu_pd(er + j, moved);
            }
        }
        step_row<kTemporal>(mr, er, pr, br, j, t, alpha);
    }
}

MCS_TARGET_AVX2 void gradient_factor_rows_avx2(double* g, const double* m,
                                               const double* e,
                                               std::size_t rows,
                                               std::size_t t,
                                               double lambda2) {
    const __m256d vl = _mm256_set1_pd(lambda2);
    for (std::size_t i = 0; i < rows; ++i) {
        double* gr = g + i * t;
        const double* mr = m + i * t;
        const double* er = e + i * t;
        std::size_t j = 0;
        for (; j + 4 < t; j += 4) {
            _mm256_storeu_pd(
                gr + j,
                _mm256_add_pd(_mm256_loadu_pd(mr + j),
                              _mm256_mul_pd(vl, _mm256_sub_pd(
                                                    _mm256_loadu_pd(er + j),
                                                    _mm256_loadu_pd(er + j +
                                                                    1)))));
        }
        gradient_factor_row(gr, mr, er, j, t, lambda2);
    }
}

#endif  // MCS_SWEEP_AVX2

bool sweep_avx2() {
#if defined(MCS_SWEEP_AVX2)
    return cpu_features().avx2;
#else
    return false;
#endif
}

// The sweeps over `rows` consecutive rows of t columns, each pointer at
// the block's first row.
template <bool kTemporal>
void add_line_sums(LineSums& sums, const double* p, const std::uint8_t* b,
                   const double* m, const double* e, std::size_t rows,
                   std::size_t t) {
    if (t == 0) {
        return;
    }
#if defined(MCS_SWEEP_AVX2)
    if (sweep_avx2()) {
        line_sums_avx2<kTemporal>(sums, p, b, m, e, rows, t);
        return;
    }
#endif
    // The lanes live in a local for the block, so that no store can alias
    // them.
    LineSums acc = sums;
    for (std::size_t i = 0; i < rows; ++i) {
        line_sums_row<kTemporal>(acc, p + i * t, b + i * t, m + i * t,
                                 kTemporal ? e + i * t : nullptr, 0, t);
    }
    sums = acc;
}

template <bool kTemporal>
void step_rows(double* m, double* e, const double* p, const std::uint8_t* b,
               std::size_t rows, std::size_t t, double alpha) {
    if (t == 0) {
        return;
    }
#if defined(MCS_SWEEP_AVX2)
    if (sweep_avx2()) {
        step_rows_avx2<kTemporal>(m, e, p, b, rows, t, alpha);
        return;
    }
#endif
    for (std::size_t i = 0; i < rows; ++i) {
        step_row<kTemporal>(m + i * t, kTemporal ? e + i * t : nullptr,
                            p + i * t, b + i * t, 0, t, alpha);
    }
}

void gradient_factor_rows(double* g, const double* m, const double* e,
                          std::size_t rows, std::size_t t, double lambda2) {
    if (t == 0) {
        return;
    }
#if defined(MCS_SWEEP_AVX2)
    if (sweep_avx2()) {
        gradient_factor_rows_avx2(g, m, e, rows, t, lambda2);
        return;
    }
#endif
    for (std::size_t i = 0; i < rows; ++i) {
        gradient_factor_row(g + i * t, m + i * t, e + i * t, 0, t, lambda2);
    }
}

}  // namespace

CsObjective::CsObjective(const Matrix& s, const Matrix& gbim,
                         const Matrix& avg_velocity, double tau_s,
                         double lambda1, double lambda2, TemporalMode mode)
    : lambda1_(lambda1), lambda2_(lambda2), mode_(mode) {
    MCS_CHECK_MSG(s.rows() == gbim.rows() && s.cols() == gbim.cols(),
                  "CsObjective: S/ℬ shape mismatch");
    MCS_CHECK_MSG(lambda1 >= 0.0 && lambda2 >= 0.0,
                  "CsObjective: negative regularisation weight");
    MCS_CHECK_MSG(tau_s > 0.0, "CsObjective: tau must be positive");
    require_binary(gbim, "CsObjective: ℬ");

    // Zero out untrusted entries so that the fit may treat S and
    // (LRᵀ)∘ℬ uniformly (missing cells contribute nothing to f₁).
    s_ = hadamard(s, gbim);
    mask_.reserve(gbim.size());
    for (const double v : gbim.data()) {
        mask_.push_back(v != 0.0 ? 1 : 0);
    }

    if (mode_ == TemporalMode::kVelocity) {
        MCS_CHECK_MSG(avg_velocity.rows() == s.rows() &&
                          avg_velocity.cols() == s.cols(),
                      "CsObjective: V̄ shape mismatch");
        target_ = scale(avg_velocity, tau_s);
        // The first slot has no preceding displacement; do not constrain it
        // (matches the zeroed first column of the 𝕋 operator).
        for (std::size_t i = 0; i < target_.rows(); ++i) {
            target_(i, 0) = 0.0;
        }
    } else {
        target_ = Matrix(s.rows(), s.cols());
    }
}

double CsObjective::value(const Matrix& l, const Matrix& r) const {
    Workspace ws;
    Residuals res;
    residuals_into(res, l, r, ws);
    return value_from(res, l, r);
}

void CsObjective::residuals_into(Residuals& res, const Matrix& l,
                                 const Matrix& r, Workspace& ws,
                                 Matrix* grad_r) const {
    const std::size_t n = rows();
    const std::size_t t = cols();
    const bool temporal = temporal_active();
    check_factors(l, r, "CsObjective::residuals_into");
    ensure_shape(res.m, n, t, ws.counters());
    if (temporal) {
        ensure_shape(res.e3, n, t, ws.counters());
    } else {
        res.e3 = Matrix();
    }
    if (grad_r != nullptr) {
        begin_gradient(Factor::kR, *grad_r, l, r, ws.counters());
    }
    // Each block's rows of X = L·Rᵀ are staged in `x`; with f₃, each row of
    // G then overwrites its row of X once M and E₃ have read it.
    Scratch x(ws, kAsdRowBlock, t);
    for_each_block(n, [&](std::size_t lo, std::size_t hi) {
        multiply_transposed_rows_into(rows_of(*x, 0, hi - lo),
                                      rows_of(l, lo, hi), r, ws.counters());
        for (std::size_t i = lo; i < hi && t > 0; ++i) {
            double* xr = x->data().data() + (i - lo) * t;
            double* mr = res.m.data().data() + i * t;
            const std::uint8_t* br = mask_.data() + i * t;
            const double* sr = s_.data().data() + i * t;
            if (!temporal) {
                // (X∘ℬ) − S as masked_residual_into forms it.
                for (std::size_t j = 0; j < t; ++j) {
                    mr[j] = br[j] != 0 ? xr[j] - sr[j] : -sr[j];
                }
                continue;
            }
            double* er = res.e3.data().data() + i * t;
            const double* cr = target_.data().data() + i * t;
            mr[0] = xr[0] * static_cast<double>(br[0]) - sr[0];
            er[0] = 0.0;
            for (std::size_t j = 1; j < t; ++j) {
                mr[j] = xr[j] * static_cast<double>(br[j]) - sr[j];
                er[j] = (xr[j] - xr[j - 1]) - cr[j];
            }
            gradient_factor_row(xr, mr, er, 0, t, lambda2_);
        }
        if (grad_r != nullptr) {
            add_gradient_rows(Factor::kR,
                              temporal ? rows_of(std::as_const(*x), 0,
                                                 hi - lo)
                                       : rows_of(std::as_const(res.m), lo,
                                                 hi),
                              lo, hi, l, r, *grad_r, ws.counters());
        }
    });
    if (grad_r != nullptr) {
        finish_gradient(Factor::kR, *grad_r, r);
    }
}

double CsObjective::value_from(const Residuals& res, const Matrix& l,
                               const Matrix& r) const {
    double f = frobenius_norm_squared(res.m) +
               lambda1_ * (frobenius_norm_squared(l) +
                           frobenius_norm_squared(r));
    if (temporal_active()) {
        f += lambda2_ * frobenius_norm_squared(res.e3);
    }
    return f;
}

void CsObjective::gradient_factor_into(Matrix& g,
                                       const Residuals& res) const {
    check_residuals(res, "CsObjective::gradient_factor_into");
    ensure_shape(g, rows(), cols(), nullptr);
    if (!temporal_active()) {
        copy_into(g, res.m);
        return;
    }
    gradient_factor_rows(g.data().data(), res.m.data().data(),
                         res.e3.data().data(), rows(), cols(), lambda2_);
}

void CsObjective::begin_gradient(Factor which, Matrix& grad, const Matrix& l,
                                 const Matrix& r,
                                 PipelineCounters* counters) const {
    check_factors(l, r, "CsObjective::begin_gradient");
    if (which == Factor::kL) {
        ensure_shape(grad, l.rows(), l.cols(), counters);
        return;
    }
    ensure_shape(grad, r.rows(), r.cols(), counters);
    grad.fill(0.0);
}

void CsObjective::add_gradient_rows(Factor which, ConstRows g, std::size_t lo,
                                    std::size_t hi, const Matrix& l,
                                    const Matrix& r, Matrix& grad,
                                    PipelineCounters* counters) const {
    if (which == Factor::kR) {
        transpose_multiply_rows_accumulate(grad, g, rows_of(l, lo, hi),
                                           counters);  // += G_blkᵀ·L_blk
        return;
    }
    // ∇_L's rows are complete here: 2·G_blk·R + 2λ₁·L_blk.
    const Rows out = rows_of(grad, lo, hi);
    multiply_rows_into(out, g, r, counters);
    for (std::size_t k = 0; k < out.rows * out.cols; ++k) {
        out.data[k] *= 2.0;
    }
    if (lambda1_ != 0.0) {
        axpy_rows(out, 2.0 * lambda1_, rows_of(l, lo, hi));
    }
}

void CsObjective::finish_gradient(Factor which, Matrix& grad,
                                  const Matrix& r) const {
    if (which == Factor::kR) {
        grad *= 2.0;
        if (lambda1_ != 0.0) {
            axpy(grad, 2.0 * lambda1_, r);
        }
    }
}

void CsObjective::gradient_into(Factor which, Matrix& grad,
                                const Residuals& res, const Matrix& l,
                                const Matrix& r, Workspace& ws) const {
    check_residuals(res, "CsObjective::gradient_into");
    const std::size_t t = cols();
    const bool temporal = temporal_active();
    begin_gradient(which, grad, l, r, ws.counters());
    Scratch g(ws, kAsdRowBlock, t);
    for_each_block(rows(), [&](std::size_t lo, std::size_t hi) {
        if (temporal) {
            gradient_factor_rows(g->data().data(),
                                 res.m.data().data() + lo * t,
                                 res.e3.data().data() + lo * t, hi - lo, t,
                                 lambda2_);
        }
        add_gradient_rows(which,
                          temporal ? rows_of(std::as_const(*g), 0, hi - lo)
                                   : rows_of(res.m, lo, hi),
                          lo, hi, l, r, grad, ws.counters());
    });
    finish_gradient(which, grad, r);
}

void CsObjective::gradient_l_into(Matrix& grad, const Residuals& res,
                                  const Matrix& l, const Matrix& r,
                                  Workspace& ws) const {
    gradient_into(Factor::kL, grad, res, l, r, ws);
}

void CsObjective::gradient_r_into(Matrix& grad, const Residuals& res,
                                  const Matrix& l, const Matrix& r,
                                  Workspace& ws) const {
    gradient_into(Factor::kR, grad, res, l, r, ws);
}

CsObjective::LineSearch CsObjective::line_search_l(const Residuals& res,
                                                   const Matrix& l,
                                                   const Matrix& r,
                                                   const Matrix& dir,
                                                   Matrix& p,
                                                   Workspace& ws) const {
    return line_search(res, dir, r, l, dir, p, ws);  // P = D·Rᵀ
}

CsObjective::LineSearch CsObjective::line_search_r(const Residuals& res,
                                                   const Matrix& l,
                                                   const Matrix& r,
                                                   const Matrix& dir,
                                                   Matrix& p,
                                                   Workspace& ws) const {
    return line_search(res, l, dir, r, dir, p, ws);  // P = L·Dᵀ
}

void CsObjective::check_factors(const Matrix& l, const Matrix& r,
                                const char* op) const {
    MCS_CHECK_MSG(l.rows() == rows() && r.rows() == cols() &&
                      l.cols() == r.cols(),
                  std::string(op) + ": factors " + l.shape_string() +
                      " and " + r.shape_string() +
                      " do not fit the data shape " + s_.shape_string());
}

void CsObjective::check_residuals(const Residuals& res,
                                  const char* op) const {
    const auto fits = [&](const Matrix& m) {
        return m.rows() == rows() && m.cols() == cols();
    };
    MCS_CHECK_MSG(fits(res.m) && (!temporal_active() || fits(res.e3)),
                  std::string(op) +
                      ": residuals do not match the data shape " +
                      s_.shape_string());
}

CsObjective::LineSearch CsObjective::line_search(const Residuals& res,
                                                 const Matrix& a,
                                                 const Matrix& b,
                                                 const Matrix& factor,
                                                 const Matrix& dir,
                                                 Matrix& p,
                                                 Workspace& ws) const {
    // g(α) = f(F − α·D) = aα² + bα + c; α* = −b/2a, decrease b²/4a.
    check_residuals(res, "CsObjective::line_search");
    const std::size_t t = cols();
    const bool temporal = temporal_active();
    MCS_CHECK_MSG(a.rows() == rows(),
                  "CsObjective::line_search: " + a.shape_string() +
                      " has not the data's " + std::to_string(rows()) +
                      " rows");
    ensure_shape(p, rows(), t, ws.counters());
    // P = a·bᵀ on the register-blocked row kernel: bᵀ (rank×t) is
    // materialised once, and each block's rows are one multiply.
    Scratch bt(ws, b.cols(), b.rows());
    transpose_into(*bt, b);
    LineSums sums;
    for_each_block(rows(), [&](std::size_t lo, std::size_t hi) {
        multiply_rows_into(rows_of(p, lo, hi), rows_of(a, lo, hi), *bt,
                           ws.counters());
        const double* pb = p.data().data() + lo * t;
        const std::uint8_t* bb = mask_.data() + lo * t;
        const double* mb = res.m.data().data() + lo * t;
        if (temporal) {
            add_line_sums<true>(sums, pb, bb, mb,
                                res.e3.data().data() + lo * t, hi - lo, t);
        } else {
            add_line_sums<false>(sums, pb, bb, mb, nullptr, hi - lo, t);
        }
    });
    double qa = LineSums::combine(sums.pp) +
                lambda1_ * frobenius_norm_squared(dir);
    double qb = -2.0 * (LineSums::combine(sums.mp) +
                        lambda1_ * frobenius_dot(factor, dir));
    if (temporal) {
        qa += lambda2_ * LineSums::combine(sums.dd);
        qb += -2.0 * lambda2_ * LineSums::combine(sums.ed);
    }
    if (qa <= 0.0) {
        return {};
    }
    return {-qb / (2.0 * qa), qb * qb / (4.0 * qa)};
}

void CsObjective::step_r(Residuals& res, const Matrix& p, double alpha,
                         const Matrix& l, const Matrix& r, Matrix* next_grad,
                         Workspace& ws) const {
    step_pass(res, p, alpha, l, r, Factor::kL, next_grad, ws);
}

void CsObjective::step_l(Residuals& res, const Matrix& p, double alpha,
                         const Matrix& l, const Matrix& r, Matrix* next_grad,
                         Workspace& ws) const {
    step_pass(res, p, alpha, l, r, Factor::kR, next_grad, ws);
}

void CsObjective::step_pass(Residuals& res, const Matrix& p, double alpha,
                            const Matrix& l, const Matrix& r, Factor next,
                            Matrix* next_grad, Workspace& ws) const {
    const std::size_t t = cols();
    const bool temporal = temporal_active();
    MCS_CHECK_MSG(p.rows() == rows() && p.cols() == t,
                  "CsObjective::step_pass: P must be " + s_.shape_string() +
                      ", got " + p.shape_string());
    check_residuals(res, "CsObjective::step_pass");
    if (next_grad != nullptr) {
        begin_gradient(next, *next_grad, l, r, ws.counters());
    }
    Scratch g(ws, kAsdRowBlock, t);
    for_each_block(rows(), [&](std::size_t lo, std::size_t hi) {
        double* mb = res.m.data().data() + lo * t;
        const double* pb = p.data().data() + lo * t;
        const std::uint8_t* bb = mask_.data() + lo * t;
        if (!temporal) {
            step_rows<false>(mb, nullptr, pb, bb, hi - lo, t, alpha);
        } else {
            double* eb = res.e3.data().data() + lo * t;
            step_rows<true>(mb, eb, pb, bb, hi - lo, t, alpha);
            if (next_grad != nullptr) {
                gradient_factor_rows(g->data().data(), mb, eb, hi - lo, t,
                                     lambda2_);
            }
        }
        if (next_grad != nullptr) {
            add_gradient_rows(next,
                              temporal
                                  ? rows_of(std::as_const(*g), 0, hi - lo)
                                  : rows_of(std::as_const(res.m), lo, hi),
                              lo, hi, l, r, *next_grad, ws.counters());
        }
    });
    if (next_grad != nullptr) {
        finish_gradient(next, *next_grad, r);
    }
}

}  // namespace mcs
