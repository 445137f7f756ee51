#include "cs/objective.hpp"

#include "common/check.hpp"
#include "detect/detection.hpp"
#include "linalg/kernels.hpp"
#include "linalg/ops.hpp"

namespace mcs {

namespace {

// Give `m` the shape rows x cols; allocates only when the shape changes.
void ensure_shape(Matrix& m, std::size_t rows, std::size_t cols) {
    if (m.rows() != rows || m.cols() != cols) {
        m = Matrix(rows, cols);
    }
}

// One row of G = M + λ₂·Δᵀ(E₃), where Δᵀ is the adjoint of the temporal
// difference (linalg/temporal.hpp):
//   Δᵀ(E)(j) = [j ≥ 1]·E(j) − [j+1 < t]·E(j+1).
// E₃'s first column is identically 0 (ΔX has a zero first column, and so
// does C), so the [j ≥ 1] factor holds without a test.
void gradient_factor_row(double* g, const double* m, const double* e,
                         std::size_t t, double lambda2) {
    for (std::size_t j = 0; j + 1 < t; ++j) {
        g[j] = m[j] + lambda2 * (e[j] - e[j + 1]);
    }
    g[t - 1] = m[t - 1] + lambda2 * e[t - 1];
}

// The data-sized sums of the exact line search, from one sweep over P, ℬ,
// M and E₃: ‖P∘ℬ‖², ⟨M, P∘ℬ⟩, ‖ΔP‖² and ⟨E₃, ΔP⟩.
struct LineSums {
    double pp = 0.0;
    double mp = 0.0;
    double dd = 0.0;
    double ed = 0.0;
};

// Column j of every row accumulates into lane j mod 4 and the lanes
// combine as (0 + 1) + (2 + 3), so the summation order is a function of
// the shape alone: the same bits at any thread count and on any machine.
template <bool kTemporal>
LineSums line_sums(const Matrix& p, const Matrix& mask, const Matrix& m,
                   const Matrix& e3) {
    const std::size_t n = p.rows();
    const std::size_t t = p.cols();
    double pp[4] = {0.0, 0.0, 0.0, 0.0};
    double mp[4] = {0.0, 0.0, 0.0, 0.0};
    double dd[4] = {0.0, 0.0, 0.0, 0.0};
    double ed[4] = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t i = 0; i < n && t > 0; ++i) {
        const double* pr = p.data().data() + i * t;
        const double* br = mask.data().data() + i * t;
        const double* mr = m.data().data() + i * t;
        const double* er = kTemporal ? e3.data().data() + i * t : nullptr;
        // ΔP(i, 0) = 0: starting from P(i, 0) makes column 0's difference
        // exactly zero.
        double prev = pr[0];
        const auto visit = [&](std::size_t q, std::size_t j) {
            const double pj = pr[j];
            const double pb = pj * br[j];
            pp[q] += pb * pb;
            mp[q] += mr[j] * pb;
            if constexpr (kTemporal) {
                const double dp = pj - prev;
                prev = pj;
                dd[q] += dp * dp;
                ed[q] += er[j] * dp;
            }
        };
        std::size_t j = 0;
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
    return {(pp[0] + pp[1]) + (pp[2] + pp[3]),
            (mp[0] + mp[1]) + (mp[2] + mp[3]),
            (dd[0] + dd[1]) + (dd[2] + dd[3]),
            (ed[0] + ed[1]) + (ed[2] + ed[3])};
}

}  // namespace

CsObjective::CsObjective(const Matrix& s, const Matrix& gbim,
                         const Matrix& avg_velocity, double tau_s,
                         double lambda1, double lambda2, TemporalMode mode)
    : gbim_(gbim), lambda1_(lambda1), lambda2_(lambda2), mode_(mode) {
    MCS_CHECK_MSG(s.rows() == gbim.rows() && s.cols() == gbim.cols(),
                  "CsObjective: S/ℬ shape mismatch");
    MCS_CHECK_MSG(lambda1 >= 0.0 && lambda2 >= 0.0,
                  "CsObjective: negative regularisation weight");
    MCS_CHECK_MSG(tau_s > 0.0, "CsObjective: tau must be positive");
    require_binary(gbim_, "CsObjective: ℬ");

    // Zero out untrusted entries so that masked_residual() may treat S and
    // (LRᵀ)∘ℬ uniformly (missing cells contribute nothing to f₁).
    s_ = hadamard(s, gbim_);

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
                                 const Matrix& r, Workspace& ws) const {
    const std::size_t n = rows();
    const std::size_t t = cols();
    ensure_shape(res.m, n, t);
    if (!temporal_active()) {
        res.e3 = Matrix();
        res.g = Matrix();
        masked_residual_into(res.m, l, r, gbim_, s_, ws.counters());
        return;
    }
    ensure_shape(res.e3, n, t);
    ensure_shape(res.g, n, t);
    // One L·Rᵀ product X feeds both residuals. It is staged in G's buffer,
    // and each row of G overwrites its row of X once M and E₃ have read it.
    multiply_transposed_into(res.g, l, r, ws.counters());
    for (std::size_t i = 0; i < n && t > 0; ++i) {
        double* gr = res.g.data().data() + i * t;
        double* mr = res.m.data().data() + i * t;
        double* er = res.e3.data().data() + i * t;
        const double* br = gbim_.data().data() + i * t;
        const double* sr = s_.data().data() + i * t;
        const double* cr = target_.data().data() + i * t;
        mr[0] = gr[0] * br[0] - sr[0];
        er[0] = 0.0;
        for (std::size_t j = 1; j < t; ++j) {
            mr[j] = gr[j] * br[j] - sr[j];
            er[j] = (gr[j] - gr[j - 1]) - cr[j];
        }
        gradient_factor_row(gr, mr, er, t, lambda2_);
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

void CsObjective::gradient_l_into(Matrix& grad, const Residuals& res,
                                  const Matrix& l, const Matrix& r,
                                  Workspace& ws) const {
    ensure_shape(grad, l.rows(), l.cols());
    multiply_into(grad, temporal_active() ? res.g : res.m, r,
                  ws.counters());  // G·R
    grad *= 2.0;
    if (lambda1_ != 0.0) {
        axpy(grad, 2.0 * lambda1_, l);
    }
}

void CsObjective::gradient_r_into(Matrix& grad, const Residuals& res,
                                  const Matrix& l, const Matrix& r,
                                  Workspace& ws) const {
    ensure_shape(grad, r.rows(), r.cols());
    transpose_multiply_into(grad, temporal_active() ? res.g : res.m, l,
                            ws.counters());  // Gᵀ·L
    grad *= 2.0;
    if (lambda1_ != 0.0) {
        axpy(grad, 2.0 * lambda1_, r);
    }
}

CsObjective::LineSearch CsObjective::line_search_l(const Residuals& res,
                                                   const Matrix& l,
                                                   const Matrix& r,
                                                   const Matrix& dir,
                                                   Matrix& p,
                                                   Workspace& ws) const {
    ensure_shape(p, rows(), cols());
    multiply_transposed_into(p, dir, r, ws.counters());  // D·Rᵀ
    return line_search(res, p, l, dir);
}

CsObjective::LineSearch CsObjective::line_search_r(const Residuals& res,
                                                   const Matrix& l,
                                                   const Matrix& r,
                                                   const Matrix& dir,
                                                   Matrix& p,
                                                   Workspace& ws) const {
    ensure_shape(p, rows(), cols());
    multiply_transposed_into(p, l, dir, ws.counters());  // L·Dᵀ
    return line_search(res, p, r, dir);
}

void CsObjective::check_residuals(const Residuals& res,
                                  const char* op) const {
    const auto fits = [&](const Matrix& m) {
        return m.rows() == rows() && m.cols() == cols();
    };
    MCS_CHECK_MSG(fits(res.m) &&
                      (!temporal_active() || (fits(res.e3) && fits(res.g))),
                  std::string(op) +
                      ": residuals do not match the data shape " +
                      s_.shape_string());
}

CsObjective::LineSearch CsObjective::line_search(const Residuals& res,
                                                 const Matrix& p,
                                                 const Matrix& factor,
                                                 const Matrix& dir) const {
    // g(α) = f(F − α·D) = aα² + bα + c; α* = −b/2a, decrease b²/4a.
    check_residuals(res, "CsObjective::line_search");
    const bool temporal = temporal_active();
    const LineSums sums = temporal
                              ? line_sums<true>(p, gbim_, res.m, res.e3)
                              : line_sums<false>(p, gbim_, res.m, res.m);
    double a = sums.pp + lambda1_ * frobenius_norm_squared(dir);
    double b = -2.0 * (sums.mp + lambda1_ * frobenius_dot(factor, dir));
    if (temporal) {
        a += lambda2_ * sums.dd;
        b += -2.0 * lambda2_ * sums.ed;
    }
    if (a <= 0.0) {
        return {};
    }
    return {-b / (2.0 * a), b * b / (4.0 * a)};
}

void CsObjective::step_residuals(Residuals& res, const Matrix& p,
                                 double alpha) const {
    const std::size_t n = rows();
    const std::size_t t = cols();
    const bool temporal = temporal_active();
    MCS_CHECK_MSG(p.rows() == n && p.cols() == t,
                  "CsObjective::step_residuals: P must be " +
                      s_.shape_string() + ", got " + p.shape_string());
    check_residuals(res, "CsObjective::step_residuals");
    for (std::size_t i = 0; i < n && t > 0; ++i) {
        double* mr = res.m.data().data() + i * t;
        const double* pr = p.data().data() + i * t;
        const double* br = gbim_.data().data() + i * t;
        if (!temporal) {
            for (std::size_t j = 0; j < t; ++j) {
                mr[j] -= alpha * (pr[j] * br[j]);
            }
            continue;
        }
        double* er = res.e3.data().data() + i * t;
        mr[0] -= alpha * (pr[0] * br[0]);
        for (std::size_t j = 1; j < t; ++j) {
            mr[j] -= alpha * (pr[j] * br[j]);
            er[j] -= alpha * (pr[j] - pr[j - 1]);
        }
        gradient_factor_row(res.g.data().data() + i * t, mr, er, t,
                            lambda2_);
    }
}

}  // namespace mcs
