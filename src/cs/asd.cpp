#include "cs/asd.hpp"

#include "common/check.hpp"
#include "common/failure.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/kernels.hpp"
#include "linalg/ops.hpp"

namespace mcs {

namespace {

// Scaled direction D = G·W⁻¹ with W = other-factor Gram plus two ridges:
// the objective's own λ₁ (the Hessian of f along each factor row is
// 2·(Gram + λ₁I), so the λ₁ term belongs in the preconditioner — dropping
// it would precondition a different objective than the one being
// minimised) and a trace-scaled safety ridge that keeps W invertible when
// the factor is rank-deficient. With the default λ₁ = 1e-6 the λ₁ term is
// numerically invisible next to metre-scale Grams; it matters exactly when
// the caller turns regularisation up. Returns the raw Gram trace — the
// rank-collapse signal the health guard watches.
double scaled_direction_into(Matrix& dir, const Matrix& grad,
                             const Matrix& other_factor, double lambda1,
                             double ridge, Workspace& ws) {
    const std::size_t rank = other_factor.cols();
    Scratch gram(ws, rank, rank);
    gram_with_ridge_into(*gram, other_factor, lambda1, ws.counters());
    double trace = 0.0;
    for (std::size_t i = 0; i < rank; ++i) {
        trace += (*gram)(i, i);
    }
    const double effective_ridge =
        ridge * (trace > 0.0 ? trace : 1.0) + 1e-300;
    for (std::size_t i = 0; i < rank; ++i) {
        (*gram)(i, i) += effective_ridge;
    }
    // W⁻¹ from W's Cholesky factor (rank solves of rank×rank), then
    // D = G·W⁻¹ as one GEMM over the gradient's rows.
    Scratch inverse(ws, rank, rank);
    inverse->fill(0.0);
    for (std::size_t i = 0; i < rank; ++i) {
        (*inverse)(i, i) = 1.0;
    }
    cholesky_in_place(*gram);
    cholesky_solve_in_place(*gram, *inverse);
    multiply_into(dir, grad, *inverse, ws.counters());
    // gram_with_ridge_into already folded λ₁I into the diagonal; subtract
    // it back out so the caller sees the factor's own ‖F‖²_F (exactly 0
    // for a collapsed factor, regardless of λ₁).
    return trace - lambda1 * static_cast<double>(rank);
}

}  // namespace

AsdResult asd_minimize(const CsObjective& objective, Matrix l0, Matrix r0,
                       const AsdOptions& options, PipelineContext* ctx) {
    MCS_CHECK_MSG(l0.rows() == objective.rows(),
                  "asd_minimize: L rows must match data rows");
    MCS_CHECK_MSG(r0.rows() == objective.cols(),
                  "asd_minimize: R rows must match data cols");
    MCS_CHECK_MSG(l0.cols() == r0.cols(),
                  "asd_minimize: factor ranks differ");
    MCS_CHECK_MSG(options.max_iterations > 0,
                  "asd_minimize: max_iterations must be positive");
    MCS_CHECK_MSG(options.relative_tolerance >= 0.0,
                  "asd_minimize: negative tolerance");

    PipelineContext::PhaseScope phase(ctx, "asd_minimize");
    Workspace ws(counters_of(ctx));
    HealthMonitor* const hm = ctx != nullptr ? ctx->health() : nullptr;
    if (hm != nullptr) {
        hm->begin_solve();
    }

    AsdResult result;
    result.l = std::move(l0);
    result.r = std::move(r0);
    result.objective_history.reserve(options.max_iterations + 1);
    const std::size_t rank = result.l.cols();

    // Buffers that live across iterations: the residuals (returned with
    // the result), one gradient/direction pair per factor and the line
    // search's data-sized product. The Gram, its inverse and the passes'
    // block buffers are leased from `ws` inside each half step and
    // recycled after the first.
    CsObjective::Residuals& res = result.residuals;
    Scratch grad_r(ws, result.r.rows(), rank);
    Scratch dir_r(ws, result.r.rows(), rank);
    Scratch grad_l(ws, result.l.rows(), rank);
    Scratch dir_l(ws, result.l.rows(), rank);
    Scratch product(ws, objective.rows(), objective.cols());

    // The objective is quadratic along every search line, so each exact
    // line search reports its own decrease; we track f analytically and
    // only pay for one full evaluation, at the start. Each step pass also
    // forms the next half step's gradient, so ∇_R enters an iteration
    // ready: from the start's (or a refresh's) walk, or from the previous
    // L step.
    objective.residuals_into(res, result.l, result.r, ws, &*grad_r);
    double current = objective.value_from(res, result.l, result.r);
    result.objective_history.push_back(current);

    for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
        if (iter > 0 && iter % kAsdResidualRefreshPeriod == 0) {
            objective.residuals_into(res, result.l, result.r, ws, &*grad_r);
        }
        const double previous = current;
        // Raw Gram traces of the scaled half steps (1.0 = not computed):
        // an exactly-zero trace is the rank-collapse signal.
        double gram_trace_r = 1.0;
        double gram_trace_l = 1.0;
        // Algorithm 2 lines 11–13: descent in R with L fixed; the step
        // pass leaves ∇_L f at the new R in grad_l.
        {
            const Matrix& direction = [&]() -> const Matrix& {
                if (!options.scaled) {
                    return *grad_r;
                }
                gram_trace_r = scaled_direction_into(*dir_r, *grad_r,
                                                     result.l,
                                                     objective.lambda1(),
                                                     options.gram_ridge, ws);
                return *dir_r;
            }();
            const CsObjective::LineSearch step = objective.line_search_r(
                res, result.l, result.r, direction, *product, ws);
            axpy(result.r, -step.alpha, direction);
            objective.step_r(res, *product, step.alpha, result.l, result.r,
                             &*grad_l, ws);
            current -= step.decrease;
        }
        // Algorithm 2 lines 14–16: descent in L with R fixed.
        double progress = 0.0;
        {
            const Matrix& direction = [&]() -> const Matrix& {
                if (!options.scaled) {
                    return *grad_l;
                }
                gram_trace_l = scaled_direction_into(*dir_l, *grad_l,
                                                     result.r,
                                                     objective.lambda1(),
                                                     options.gram_ridge, ws);
                return *dir_l;
            }();
            const CsObjective::LineSearch step = objective.line_search_l(
                res, result.l, result.r, direction, *product, ws);
            axpy(result.l, -step.alpha, direction);
            current -= step.decrease;
            // The iteration's progress is known before its step pass, so
            // the pass forms ∇_R only for an iteration that will use it:
            // not after the last one, nor before a refresh.
            progress = previous > 0.0 ? (previous - current) / previous : 0.0;
            const bool next_uses_grad =
                !(progress < options.relative_tolerance) &&
                iter + 1 < options.max_iterations &&
                (iter + 1) % kAsdResidualRefreshPeriod != 0;
            objective.step_l(res, *product, step.alpha, result.l, result.r,
                             next_uses_grad ? &*grad_r : nullptr, ws);
        }

        result.objective_history.push_back(current);
        ++result.iterations;

        // Numeric health guards (observation only — a healthy solve takes
        // the exact same arithmetic path with or without a monitor):
        // rank collapse, non-finite / diverging objective, deadline.
        if (hm != nullptr) {
            if (options.scaled &&
                (hm->guard_rank(gram_trace_r, "asd_minimize",
                                result.iterations) ||
                 hm->guard_rank(gram_trace_l, "asd_minimize",
                                result.iterations))) {
                break;
            }
            if (hm->observe_objective(current, "asd_minimize",
                                      result.iterations)) {
                break;
            }
        }

        // Exact line search guarantees non-increase; terminate on small
        // relative progress (Algorithm 2 line 18).
        if (progress < options.relative_tolerance) {
            result.converged = true;
            break;
        }
    }
    if (ctx != nullptr) {
        ctx->counters().asd_iterations += result.iterations;
    }
    return result;
}

}  // namespace mcs
