// The modified-CS objective f(L, R) of Eq. (23)/(25) and its gradients.
//
//   f(L,R) = ‖(LRᵀ)∘ℬ − S‖²_F                      (f₁, fitting)
//          + λ₁(‖L‖²_F + ‖R‖²_F)                    (f₂, rank surrogate)
//          + λ₂‖(LRᵀ)𝕋 − τ·V̄‖²_F                   (f₃, temporal+velocity)
//
// Three modes cover the paper's ablations: kVelocity is the full objective;
// kTemporalOnly replaces the velocity target τ·V̄ with 0 (the "without V"
// variant — pure temporal stability, Eq. 20 + Σ|Δx|); kNone drops f₃
// entirely (the "without VT" variant, Eq. 20).
//
// f is a quadratic in L for fixed R (and vice versa), so the ASD steepest-
// descent step has a closed-form exact line search; this class exposes the
// pieces of one ASD half step (value, per-factor gradient, exact step and
// the residual update that follows it).
#pragma once

#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"

namespace mcs {

/// Which temporal term f₃ to use (paper's variant ablation).
enum class TemporalMode {
    kNone,          ///< λ₂ ignored — "I(TS,CS) without VT"
    kTemporalOnly,  ///< f₃ target is 0 — "I(TS,CS) without V"
    kVelocity,      ///< f₃ target is τ·V̄ — full I(TS,CS)
};

/// The CS objective bound to one axis's data.
class CsObjective {
public:
    /// `s` is the sensory matrix, `gbim` the 0/1 trust mask ℬ; entries of
    /// `s` where ℬ = 0 are zeroed internally (Eq. 6 stores missing as 0, and
    /// detected-faulty cells must not leak into the fit). `avg_velocity` is
    /// V̄ of Eq. (11) for this axis (only read in kVelocity mode).
    CsObjective(const Matrix& s, const Matrix& gbim,
                const Matrix& avg_velocity, double tau_s, double lambda1,
                double lambda2, TemporalMode mode);

    /// f(L, R).
    double value(const Matrix& l, const Matrix& r) const;

    // ---- The ASD half step ---------------------------------------------
    // A half step in L (R is symmetric) costs two data-sized GEMMs and two
    // sweeps over the n×t data:
    //   gradient_l_into   ∇_L f = 2·G·R + 2λ₁·L                   (GEMM)
    //   line_search_l     P = D·Rᵀ (GEMM), then one sweep over P, ℬ, M
    //                     and E₃ for the exact step along D
    //   step_residuals    one sweep: M −= α·(P∘ℬ), E₃ −= α·ΔP, and G
    //                     re-formed from them
    // so the residuals follow the factors without another L·Rᵀ product.
    // Every buffer is caller-owned or comes from the caller's Workspace:
    // `res`, `grad` and `p` are (re)shaped on first use and reused
    // verbatim afterwards, so a warm ASD loop never touches the heap. The
    // sweeps are plain loops with a fixed summation order, so they give
    // the same bits under every kernel tier, thread count and machine.

    /// The residuals at (L, R) and the data-sized factor both gradients
    /// share. E₃ and G are empty when f₃ is inactive (kNone or λ₂ = 0);
    /// G is then M itself.
    struct Residuals {
        Matrix m;   ///< M = (LRᵀ)∘ℬ − S
        Matrix e3;  ///< E₃ = Δ(LRᵀ) − C, with C = τ·V̄ or 0
        Matrix g;   ///< G = M + λ₂·Δᵀ(E₃)
    };

    /// Recompute `res` in full from (L, R): one L·Rᵀ product.
    void residuals_into(Residuals& res, const Matrix& l, const Matrix& r,
                        Workspace& ws) const;

    /// Objective value from the residuals at (L, R).
    double value_from(const Residuals& res, const Matrix& l,
                      const Matrix& r) const;

    /// ∇_L f = 2·G·R + 2λ₁·L and ∇_R f = 2·Gᵀ·L + 2λ₁·R into `grad`.
    void gradient_l_into(Matrix& grad, const Residuals& res, const Matrix& l,
                         const Matrix& r, Workspace& ws) const;
    void gradient_r_into(Matrix& grad, const Residuals& res, const Matrix& l,
                         const Matrix& r, Workspace& ws) const;

    /// Exact line search along direction `dir`: the optimal α and the
    /// objective decrease it buys (b²/4a ≥ 0, exact because f is
    /// quadratic along the line). The step's data-sized product — D·Rᵀ for
    /// L, L·Dᵀ for R — lands in `p` for step_residuals.
    struct LineSearch {
        double alpha = 0.0;
        double decrease = 0.0;
    };
    LineSearch line_search_l(const Residuals& res, const Matrix& l,
                             const Matrix& r, const Matrix& dir, Matrix& p,
                             Workspace& ws) const;
    LineSearch line_search_r(const Residuals& res, const Matrix& l,
                             const Matrix& r, const Matrix& dir, Matrix& p,
                             Workspace& ws) const;

    /// Move `res` to the factors after the step F ← F − α·D whose product
    /// the line search left in `p`: exact in real arithmetic, because
    /// L·Rᵀ moves by −α·P.
    void step_residuals(Residuals& res, const Matrix& p, double alpha) const;

    std::size_t rows() const { return s_.rows(); }
    std::size_t cols() const { return s_.cols(); }
    TemporalMode mode() const { return mode_; }
    double lambda1() const { return lambda1_; }
    double lambda2() const { return lambda2_; }
    const Matrix& masked_sensory() const { return s_; }
    const Matrix& mask() const { return gbim_; }

private:
    bool temporal_active() const {
        return mode_ != TemporalMode::kNone && lambda2_ != 0.0;
    }
    LineSearch line_search(const Residuals& res, const Matrix& p,
                           const Matrix& factor, const Matrix& dir) const;
    /// MCS_CHECK that `res` has the shapes residuals_into gives it.
    void check_residuals(const Residuals& res, const char* op) const;

    Matrix s_;      // S∘ℬ
    Matrix gbim_;   // ℬ
    Matrix target_; // C: τ·V̄ (first column zeroed) or all-zero
    double lambda1_;
    double lambda2_;
    TemporalMode mode_;
};

}  // namespace mcs
