// Alternating Steepest Descent (ASD) for the modified-CS objective.
//
// Tanner & Wei's ASD [24] applied to f(L, R): alternately take an exact
// steepest-descent step in R with L fixed, then in L with R fixed. f is
// quadratic in each factor separately, so each step has a closed-form
// optimal length (CsObjective::line_search_*), and f decreases
// monotonically — the property the convergence tests assert.
#pragma once

#include <cstddef>
#include <vector>

#include "common/context.hpp"
#include "cs/objective.hpp"
#include "linalg/matrix.hpp"

namespace mcs {

/// Iterations between full recomputations of the residuals. In between,
/// every half step moves them along its own line-search product
/// (CsObjective::step_residuals); the refresh bounds the rounding drift
/// that accumulates.
constexpr std::size_t kAsdResidualRefreshPeriod = 16;

/// Iteration control for ASD.
struct AsdOptions {
    std::size_t max_iterations = 250;
    /// Terminate when (f_prev − f_next) / f_prev < relative_tolerance —
    /// the `ratio` parameter of Algorithm 2.
    double relative_tolerance = 1e-6;
    /// Use the scaled (preconditioned) variant of Tanner & Wei [24]:
    /// descend along ∇_L f·(RᵀR)⁻¹ and ∇_R f·(LᵀL)⁻¹ instead of the raw
    /// gradients. Still an exact-line-search descent method (the Gram
    /// inverses are positive definite), but typically an order of
    /// magnitude fewer iterations on ill-conditioned coordinate data.
    bool scaled = true;
    /// Ridge added to the Gram matrices before inversion (scaled mode).
    double gram_ridge = 1e-8;
};

/// Outcome of an ASD minimisation.
struct AsdResult {
    Matrix l;
    Matrix r;
    std::vector<double> objective_history;  ///< f after each iteration
    /// The residuals at (l, r) as the half steps maintained them, which
    /// equal a fresh CsObjective::residuals_into up to rounding drift.
    CsObjective::Residuals residuals;
    std::size_t iterations = 0;
    bool converged = false;
};

/// Minimise `objective` from the warm start (l0, r0). Factor shapes must be
/// n x rank and t x rank for the objective's n x t data.
///
/// All per-iteration temporaries come from an internal Workspace: the first
/// iteration allocates every scratch buffer once and later iterations only
/// recycle them, so the warm loop performs zero heap allocations — the
/// property asserted (via the workspace counters of `ctx`) by
/// linalg_kernels_test and reported by bench/perf_pipeline. When `ctx` is
/// non-null it also receives ASD iteration counts, GEMM FLOPs and the
/// "asd_minimize" phase time.
///
/// When `ctx` carries a HealthMonitor (PipelineContext::set_health), every
/// iteration is guarded: a non-finite or persistently rising objective, a
/// collapsed factor Gram, or an expired deadline trips the monitor and the
/// solve returns early (converged = false, factors possibly unusable —
/// callers must check monitor.tripped() before consuming the result). The
/// guards observe only: a healthy solve is bit-identical with or without a
/// monitor.
AsdResult asd_minimize(const CsObjective& objective, Matrix l0, Matrix r0,
                       const AsdOptions& options = {},
                       PipelineContext* ctx = nullptr);

}  // namespace mcs
