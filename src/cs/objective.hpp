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

#include <cstdint>
#include <vector>

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
    // A half step in R (L is symmetric) walks the n×t data twice, in
    // blocks of kAsdRowBlock rows (cs/asd.hpp) small enough to stay in
    // cache while a block is worked on:
    //   line_search_r   the line-search pass: the block's rows of
    //                   P = L·Dᵀ (GEMM), then its share of the four
    //                   line-search sums while those rows are in cache
    //   step_r          the step pass: M −= α·(P∘ℬ) and E₃ −= α·ΔP on the
    //                   block's rows, the block's rows of
    //                   G = M + λ₂·Δᵀ(E₃), and at once the next half
    //                   step's gradient from them: ∇_L's rows
    //                   2·G_blk·R + 2λ₁·L_blk (step_l instead adds
    //                   G_blkᵀ·L_blk into ∇_R)
    // so the residuals follow the factors without another L·Rᵀ product,
    // and G is never stored whole. The n×t buffers are M, E₃ and P; ℬ is
    // held as bytes. Every other buffer is caller-owned or comes from the
    // caller's Workspace, (re)shaped on first use and reused verbatim
    // afterwards, so a warm ASD loop never touches the heap; a reshape
    // counts in the Workspace's workspace_allocations. The sweeps
    // are plain loops with a fixed summation order (four columns to an
    // AVX2 register where the CPU has one, never FMA), so they give the
    // same bits under every kernel tier, thread count and machine.

    /// The residuals at (L, R). E₃ is empty when f₃ is inactive (kNone or
    /// λ₂ = 0).
    struct Residuals {
        Matrix m;   ///< M = (LRᵀ)∘ℬ − S
        Matrix e3;  ///< E₃ = Δ(LRᵀ) − C, with C = τ·V̄ or 0
    };

    /// Recompute `res` in full from (L, R): one L·Rᵀ product, taken a
    /// block of rows at a time. When `grad_r` is non-null, ∇_R f at
    /// (L, R) is formed into it in the same walk.
    void residuals_into(Residuals& res, const Matrix& l, const Matrix& r,
                        Workspace& ws, Matrix* grad_r = nullptr) const;

    /// Objective value from the residuals at (L, R).
    double value_from(const Residuals& res, const Matrix& l,
                      const Matrix& r) const;

    /// G = M + λ₂·Δᵀ(E₃), the data-sized factor of both gradients (M
    /// itself when f₃ is inactive), formed whole on demand, outside any
    /// Workspace (so a reshape of `g` is not counted). The half steps
    /// form it a block at a time and never store it.
    void gradient_factor_into(Matrix& g, const Residuals& res) const;

    /// ∇_L f = 2·G·R + 2λ₁·L and ∇_R f = 2·Gᵀ·L + 2λ₁·R into `grad`,
    /// from the residuals at (L, R): the same block walk as the step
    /// passes, without a step.
    void gradient_l_into(Matrix& grad, const Residuals& res, const Matrix& l,
                         const Matrix& r, Workspace& ws) const;
    void gradient_r_into(Matrix& grad, const Residuals& res, const Matrix& l,
                         const Matrix& r, Workspace& ws) const;

    /// Exact line search along direction `dir`: the optimal α and the
    /// objective decrease it buys (b²/4a ≥ 0, exact because f is
    /// quadratic along the line). The step's data-sized product — D·Rᵀ for
    /// L, L·Dᵀ for R — lands in `p` for the step pass.
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

    /// The step pass after R ← R − α·D (step_r) or L ← L − α·D (step_l),
    /// given the product the line search left in `p` and the moved factors:
    /// moves `res` to the new point — exact in real arithmetic, because
    /// L·Rᵀ moves by −α·P — and, when `next_grad` is non-null, forms the
    /// other factor's gradient there (∇_L f after an R step, ∇_R f after
    /// an L step) into it in the same walk.
    void step_r(Residuals& res, const Matrix& p, double alpha,
                const Matrix& l, const Matrix& r, Matrix* next_grad,
                Workspace& ws) const;
    void step_l(Residuals& res, const Matrix& p, double alpha,
                const Matrix& l, const Matrix& r, Matrix* next_grad,
                Workspace& ws) const;

    std::size_t rows() const { return s_.rows(); }
    std::size_t cols() const { return s_.cols(); }
    TemporalMode mode() const { return mode_; }
    double lambda1() const { return lambda1_; }
    double lambda2() const { return lambda2_; }
    const Matrix& masked_sensory() const { return s_; }

private:
    /// Which factor's gradient a block walk forms.
    enum class Factor { kL, kR };

    bool temporal_active() const {
        return mode_ != TemporalMode::kNone && lambda2_ != 0.0;
    }
    /// The line-search pass along `dir`, with P = a·bᵀ.
    LineSearch line_search(const Residuals& res, const Matrix& a,
                           const Matrix& b, const Matrix& factor,
                           const Matrix& dir, Matrix& p,
                           Workspace& ws) const;
    /// The step pass: `res` moves along `p`; `next_grad`, when non-null,
    /// becomes the gradient of `next` at the moved point.
    void step_pass(Residuals& res, const Matrix& p, double alpha,
                   const Matrix& l, const Matrix& r, Factor next,
                   Matrix* next_grad, Workspace& ws) const;
    /// The gradient of `which` from `res` alone, walked like a step pass.
    void gradient_into(Factor which, Matrix& grad, const Residuals& res,
                       const Matrix& l, const Matrix& r,
                       Workspace& ws) const;
    /// The three stages of a gradient formed in a block walk: shape (and
    /// for ∇_R zero) it, add the rows [lo, hi) of G held in `g`, and add
    /// ∇_R's factor 2 and λ₁ term once every block is in.
    void begin_gradient(Factor which, Matrix& grad, const Matrix& l,
                        const Matrix& r, PipelineCounters* counters) const;
    void add_gradient_rows(Factor which, ConstRows g, std::size_t lo,
                           std::size_t hi, const Matrix& l, const Matrix& r,
                           Matrix& grad, PipelineCounters* counters) const;
    void finish_gradient(Factor which, Matrix& grad, const Matrix& r) const;
    /// MCS_CHECK that L is n×k and R t×k for the data's n×t.
    void check_factors(const Matrix& l, const Matrix& r,
                       const char* op) const;
    /// MCS_CHECK that `res` has the shapes residuals_into gives it.
    void check_residuals(const Residuals& res, const char* op) const;

    Matrix s_;                         // S∘ℬ
    std::vector<std::uint8_t> mask_;   // ℬ as 0/1 bytes, row-major n×t
    Matrix target_;                    // C: τ·V̄ (first column zeroed) or 0
    double lambda1_;
    double lambda2_;
    TemporalMode mode_;
};

}  // namespace mcs
