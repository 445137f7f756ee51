#include "core/itscs.hpp"

#include <vector>

#include "common/check.hpp"
#include "common/failure.hpp"
#include "common/hash.hpp"
#include "detect/detection.hpp"
#include "linalg/kernel_tier.hpp"
#include "linalg/temporal.hpp"

namespace mcs {

namespace {

void mix_matrix(Fnv1a& h, const Matrix& m) {
    h.mix_u64(m.rows());
    h.mix_u64(m.cols());
    h.mix_bytes(m.data().data(), m.data().size() * sizeof(double));
}

// Reject NaN/±Inf in observed cells with a precise row/col message. The
// server must refuse poisoned uploads at the boundary: a single NaN that
// reaches the solver contaminates every product it touches.
void require_finite_observed(const Matrix& m, const Matrix& existence,
                             const char* name) {
    if (const auto hit = find_non_finite(m, existence)) {
        throw Error(std::string(name) + ": non-finite value at row " +
                    std::to_string(hit->first) + ", col " +
                    std::to_string(hit->second) +
                    " in an observed cell (ℰ = 1)");
    }
}

}  // namespace

void ItscsInput::validate_shapes() const {
    const std::size_t n = sx.rows();
    const std::size_t t = sx.cols();
    MCS_CHECK_MSG(n > 0 && t > 0, "ItscsInput: empty input");
    MCS_CHECK_MSG(sy.rows() == n && sy.cols() == t,
                  "ItscsInput: S_Y shape mismatch");
    MCS_CHECK_MSG(vx.rows() == n && vx.cols() == t,
                  "ItscsInput: Vx shape mismatch");
    MCS_CHECK_MSG(vy.rows() == n && vy.cols() == t,
                  "ItscsInput: Vy shape mismatch");
    MCS_CHECK_MSG(existence.rows() == n && existence.cols() == t,
                  "ItscsInput: ℰ shape mismatch");
    MCS_CHECK_MSG(tau_s > 0.0, "ItscsInput: tau must be positive");
    require_binary(existence, "ItscsInput: ℰ");
}

std::uint64_t ItscsInput::fingerprint() const {
    Fnv1a h;
    h.mix_f64(tau_s);
    mix_matrix(h, sx);
    mix_matrix(h, sy);
    mix_matrix(h, vx);
    mix_matrix(h, vy);
    mix_matrix(h, existence);
    return h.digest();
}

std::uint64_t config_fingerprint(const ItscsConfig& config) {
    Fnv1a h;
    h.mix_u64(config.detector.window);
    h.mix_f64(config.detector.xi);
    h.mix_f64(config.detector.min_tolerance_m);
    h.mix_u64(config.cs.rank);
    h.mix_f64(config.cs.lambda1);
    h.mix_f64(config.cs.lambda2);
    h.mix_u64(static_cast<std::uint64_t>(config.cs.mode));
    h.mix_u64(config.cs.asd.max_iterations);
    h.mix_f64(config.cs.asd.relative_tolerance);
    h.mix_u64(config.cs.asd.scaled ? 1 : 0);
    h.mix_f64(config.cs.asd.gram_ridge);
    h.mix_u64(config.cs.center_rows ? 1 : 0);
    h.mix_f64(config.check.lower_m);
    h.mix_f64(config.check.upper_m);
    h.mix_u64(config.max_iterations);
    h.mix_f64(config.change_tolerance);
    return h.digest();
}

void ItscsInput::validate() const {
    validate_shapes();
    require_finite_observed(sx, existence, "ItscsInput: S_X");
    require_finite_observed(sy, existence, "ItscsInput: S_Y");
    require_finite_observed(vx, existence, "ItscsInput: Vx");
    require_finite_observed(vy, existence, "ItscsInput: Vy");
}

void ItscsSingleInput::validate() const {
    const std::size_t n = s.rows();
    const std::size_t t = s.cols();
    MCS_CHECK_MSG(n > 0 && t > 0, "ItscsSingleInput: empty input");
    MCS_CHECK_MSG(rate.rows() == n && rate.cols() == t,
                  "ItscsSingleInput: rate shape mismatch");
    MCS_CHECK_MSG(existence.rows() == n && existence.cols() == t,
                  "ItscsSingleInput: ℰ shape mismatch");
    MCS_CHECK_MSG(tau_s > 0.0, "ItscsSingleInput: tau must be positive");
    require_binary(existence, "ItscsSingleInput: ℰ");
    require_finite_observed(s, existence, "ItscsSingleInput: S");
    require_finite_observed(rate, existence, "ItscsSingleInput: rate");
}

namespace {

// Per-axis working state of the generic DETECT→CORRECT→CHECK loop. The
// location problem runs two axes (x, y) whose detections are unioned; a
// scalar modality runs one.
struct AxisState {
    const Matrix* sensory = nullptr;  // S for this axis
    Matrix avg_velocity;              // V̄ (Eq. 11)
    Matrix reconstructed;             // Ŝ, refreshed every iteration
    FactorPair warm;                  // previous iteration's factors
    double last_objective = 0.0;
};

// Shared framework loop over any number of axes. Returns the final 𝒟 and
// fills each axis's reconstruction in place.
struct LoopOutcome {
    Matrix detection;
    std::size_t iterations = 0;
    bool converged = false;
    std::vector<ItscsIterationStats> history;
};

LoopOutcome run_axes(std::vector<AxisState>& axes, const Matrix& existence,
                     double tau_s, const ItscsConfig& config,
                     const ItscsObserver& observer, PipelineContext* ctx) {
    MCS_CHECK_MSG(config.max_iterations >= 1,
                  "ItscsConfig: need at least one iteration");
    MCS_CHECK_MSG(!axes.empty(), "run_axes: no axes");
    const std::size_t n = existence.rows();
    const std::size_t t = existence.cols();
    HealthMonitor* const hm = ctx != nullptr ? ctx->health() : nullptr;

    LoopOutcome out;
    // Algorithm 1's convention: 𝒟 starts all-ones; the DETECT pass only
    // clears flags, so the first iteration minimises false negatives.
    out.detection = Matrix::constant(n, t, 1.0);

    for (std::size_t iter = 1; iter <= config.max_iterations; ++iter) {
        const bool first = (iter == 1);
        if (ctx != nullptr) {
            ctx->counters().itscs_iterations += 1;
        }
        const Matrix detection_before = out.detection;

        // --- DETECT: per-axis local median passes, then union. ---
        {
            PipelineContext::PhaseScope phase(ctx, "detect");
            Matrix detect_union;
            for (auto& axis : axes) {
                Matrix d = ts_detect(*axis.sensory, axis.reconstructed,
                                     axis.avg_velocity, out.detection,
                                     existence, tau_s, config.detector,
                                     first, ctx);
                detect_union = detect_union.empty()
                                   ? std::move(d)
                                   : detection_union(detect_union, d);
            }
            out.detection = std::move(detect_union);
        }

        // --- CORRECT: modified CS over the trusted cells (warm-started
        // from the previous iteration's factors, since ℬ changes little
        // between framework iterations). ---
        {
            PipelineContext::PhaseScope phase(ctx, "correct");
            const Matrix gbim = make_gbim(existence, out.detection);
            for (auto& axis : axes) {
                // Iteration 1 cold-starts (nearest fill + truncated SVD);
                // later iterations reuse the previous iteration's factors.
                // An empty FactorPair means "no warm state", never a valid
                // start.
                CsReconstruction rec = cs_reconstruct(
                    *axis.sensory, gbim, axis.avg_velocity, tau_s, config.cs,
                    axis.warm.l.empty() ? nullptr : &axis.warm, ctx);
                axis.reconstructed = std::move(rec.estimate);
                axis.warm = std::move(rec.factors);
                axis.last_objective = rec.final_objective;
            }
        }
        if (hm != nullptr) {
            // The solver guards its own objective; this catches the case
            // where a finite objective still yields a non-finite estimate
            // (e.g. poisoned cells outside ℬ folded in by the estimate's
            // observed-cell passthrough).
            for (const auto& axis : axes) {
                if (const auto hit = find_non_finite(axis.reconstructed)) {
                    hm->fail(FailureKind::kNonFiniteValue, "correct", iter,
                             "non-finite reconstruction at row " +
                                 std::to_string(hit->first) + ", col " +
                                 std::to_string(hit->second));
                    break;
                }
            }
            if (hm->tripped()) {
                out.iterations = iter;
                break;
            }
        }

        // --- CHECK: per-axis reconciliation, then union. ---
        {
            PipelineContext::PhaseScope phase(ctx, "check");
            Matrix check_union;
            for (const auto& axis : axes) {
                Matrix d = check_axis(*axis.sensory, axis.reconstructed,
                                      out.detection, existence, config.check,
                                      ctx);
                check_union = check_union.empty()
                                  ? std::move(d)
                                  : detection_union(check_union, d);
            }
            out.detection = std::move(check_union);
        }

        const std::size_t changes =
            count_differences(detection_before, out.detection);
        out.history.push_back(
            {iter, count_flagged(out.detection), changes,
             axes.front().last_objective, axes.back().last_objective});
        out.iterations = iter;
        if (observer) {
            observer(iter, out.detection, axes.front().reconstructed,
                     axes.back().reconstructed);
        }
        // Fig. 2: stop when 𝒟 (effectively) never changes again. The
        // first iteration always "changes" 𝒟 (it starts artificially
        // all-ones), so the fixed-point test only applies from iteration 2.
        const auto allowed = static_cast<std::size_t>(
            config.change_tolerance * static_cast<double>(n * t));
        if (!first && changes <= allowed) {
            out.converged = true;
            break;
        }
        if (hm != nullptr && hm->check_deadline("itscs", iter)) {
            break;
        }
    }
    return out;
}

}  // namespace

ItscsResult run_itscs(const ItscsInput& input, const ItscsConfig& config,
                      const ItscsObserver& observer, PipelineContext* ctx) {
    PipelineContext::PhaseScope phase(ctx, "run_itscs");
    if (ctx != nullptr) {
        ctx->set_kernel_tier(active_kernel_tier());
    }
    input.validate();
    const std::size_t n = input.sx.rows();
    const std::size_t t = input.sx.cols();

    std::vector<AxisState> axes(2);
    axes[0].sensory = &input.sx;
    axes[0].avg_velocity = average_velocity(input.vx);
    axes[0].reconstructed = Matrix(n, t);
    axes[1].sensory = &input.sy;
    axes[1].avg_velocity = average_velocity(input.vy);
    axes[1].reconstructed = Matrix(n, t);

    LoopOutcome out =
        run_axes(axes, input.existence, input.tau_s, config, observer, ctx);

    ItscsResult result;
    result.detection = std::move(out.detection);
    result.reconstructed_x = std::move(axes[0].reconstructed);
    result.reconstructed_y = std::move(axes[1].reconstructed);
    result.iterations = out.iterations;
    result.converged = out.converged;
    result.history = std::move(out.history);
    return result;
}

ItscsSingleResult run_itscs_single(const ItscsSingleInput& input,
                                   const ItscsConfig& config,
                                   PipelineContext* ctx) {
    PipelineContext::PhaseScope phase(ctx, "run_itscs_single");
    input.validate();
    std::vector<AxisState> axes(1);
    axes[0].sensory = &input.s;
    axes[0].avg_velocity = average_velocity(input.rate);
    axes[0].reconstructed = Matrix(input.s.rows(), input.s.cols());

    LoopOutcome out =
        run_axes(axes, input.existence, input.tau_s, config, {}, ctx);

    ItscsSingleResult result;
    result.detection = std::move(out.detection);
    result.reconstructed = std::move(axes[0].reconstructed);
    result.iterations = out.iterations;
    result.converged = out.converged;
    result.history = std::move(out.history);
    return result;
}

ItscsResult run_cs_only(const ItscsInput& input, const CsConfig& config,
                        PipelineContext* ctx) {
    PipelineContext::PhaseScope phase(ctx, "run_cs_only");
    input.validate();
    const Matrix avg_vx = average_velocity(input.vx);
    const Matrix avg_vy = average_velocity(input.vy);
    const std::size_t n = input.sx.rows();
    const std::size_t t = input.sx.cols();

    // No detection: trust every observed cell (ℬ = ℰ).
    ItscsResult result;
    result.detection = Matrix(n, t);
    CsReconstruction rx = cs_reconstruct(input.sx, input.existence, avg_vx,
                                         input.tau_s, config, nullptr, ctx);
    CsReconstruction ry = cs_reconstruct(input.sy, input.existence, avg_vy,
                                         input.tau_s, config, nullptr, ctx);
    result.reconstructed_x = std::move(rx.estimate);
    result.reconstructed_y = std::move(ry.estimate);
    result.iterations = 1;
    result.converged = true;
    result.history.push_back(
        {1, 0, 0, rx.final_objective, ry.final_objective});
    return result;
}

}  // namespace mcs
