#include "core/itscs.hpp"

#include <cmath>
#include <vector>

#include "common/check.hpp"
#include "common/failure.hpp"
#include "common/hash.hpp"
#include "cs/objective.hpp"
#include "detect/detection.hpp"
#include "linalg/cholesky.hpp"
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
    FactorPair warm;                  // previous factors (warm start)
    bool seeded = false;              // warm came from the caller (window
                                      // shifted → refresh R before use)
    double last_objective = 0.0;
};

// ---- Exact ALS refresh of a caller-seeded warm start -------------------
//
// A caller-seeded warm start carries factors of the *previous* window's
// centered matrix. Two things invalidate it for the new window: the
// centering means drift as the window slides (vehicles move), and the
// newest slots have no previous factor rows at all (the streaming layer
// fills them with a placeholder). Instead of patching either, re-solve the
// factors with a few exact alternating-least-squares sweeps on the FULL
// Eq. (23) objective before handing them to ASD:
//
//  R-step. For fixed L the objective is quadratic in R; the temporal term
//    λ₂‖Δ(LRᵀ) − τV̄‖² couples consecutive slots, so stationarity is a
//    block-tridiagonal system with rank×rank blocks
//        [G_ℬⱼ + λ₁I + λ₂kⱼG]·rⱼ − λ₂G·rⱼ₋₁ − λ₂G·rⱼ₊₁ = bⱼ
//    where G = LᵀL, G_ℬⱼ = Σ_{i∈ℬⱼ} lᵢlᵢᵀ, kⱼ counts the temporal terms
//    touching slot j, and bⱼ = Σ_{i∈ℬⱼ} lᵢ(sᵢⱼ − μᵢ) + λ₂(dⱼ − dⱼ₊₁)
//    with dⱼ = Lᵀ·τ·v̄ⱼ. A block Thomas sweep solves it in O(t·rank³).
//
//  L-step. For fixed R the rows of L decouple (the difference operator
//    acts along slots, within a row): each lᵢ solves the rank×rank system
//        [Σ_{j∈ℬᵢ} rⱼrⱼᵀ + λ₁I + λ₂Q]·lᵢ
//            = Σ_{j∈ℬᵢ} rⱼ(sᵢⱼ − μᵢ) + λ₂ Σ_{j≥1} qⱼ·τ·v̄ᵢⱼ
//    with qⱼ = rⱼ − rⱼ₋₁ and Q = Σ_{j≥1} qⱼqⱼᵀ shared across rows.
//
// Each sweep costs about one ASD iteration but is an exact coordinate
// minimisation, so a couple of sweeps land the seed near the optimum for
// this window's ℬ and ASD only has to polish. On any numerical failure
// the carried factors are kept untouched (the seed degrades, the result
// never does).

// Exact minimiser over R given L (block-tridiagonal Thomas sweep).
// Throws on a degenerate system.
void als_solve_r(const Matrix& l, Matrix& r, const Matrix& s,
                 const Matrix& trusted, const std::vector<double>& means,
                 const Matrix& avg_velocity, double tau_s,
                 const CsConfig& cs) {
    const std::size_t n = s.rows();
    const std::size_t t = s.cols();
    const std::size_t rank = l.cols();
    const bool temporal =
        cs.mode != TemporalMode::kNone && cs.lambda2 > 0.0 && t >= 2;
    const double l2 = temporal ? cs.lambda2 : 0.0;

    // G = LᵀL: the coupling block shared by every temporal term (the
    // difference operator acts on all rows, trusted or not).
    Matrix gram_full(rank, rank);
    double gram_trace = 0.0;
    for (std::size_t c = 0; c < rank; ++c) {
        for (std::size_t d = c; d < rank; ++d) {
            double sum = 0.0;
            for (std::size_t i = 0; i < n; ++i) {
                sum += l(i, c) * l(i, d);
            }
            gram_full(c, d) = sum;
            gram_full(d, c) = sum;
        }
        gram_trace += gram_full(c, c);
    }
    const double ridge =
        cs.lambda1 + 1e-10 * (gram_trace / static_cast<double>(rank));

    // dⱼ = Lᵀ·Cⱼ, the velocity target folded through L. Column 0 carries
    // no temporal constraint; kTemporalOnly has a zero target.
    Matrix d(t, rank);
    if (temporal && cs.mode == TemporalMode::kVelocity) {
        for (std::size_t j = 1; j < t; ++j) {
            for (std::size_t c = 0; c < rank; ++c) {
                double sum = 0.0;
                for (std::size_t i = 0; i < n; ++i) {
                    sum += l(i, c) * avg_velocity(i, j);
                }
                d(j, c) = sum * tau_s;
            }
        }
    }

    // Diagonal blocks Aⱼ and right-hand sides bⱼ.
    std::vector<Matrix> diag(t, Matrix(rank, rank));
    std::vector<Matrix> rhs(t, Matrix(rank, 1));
    std::vector<std::size_t> trusted_count(t, 0);
    for (std::size_t j = 0; j < t; ++j) {
        Matrix& a = diag[j];
        Matrix& b = rhs[j];
        for (std::size_t i = 0; i < n; ++i) {
            if (trusted(i, j) == 0.0) {
                continue;
            }
            ++trusted_count[j];
            const double v = s(i, j) - means[i];
            for (std::size_t c = 0; c < rank; ++c) {
                b(c, 0) += l(i, c) * v;
                for (std::size_t e = c; e < rank; ++e) {
                    a(c, e) += l(i, c) * l(i, e);
                }
            }
        }
        for (std::size_t c = 0; c < rank; ++c) {
            for (std::size_t e = c + 1; e < rank; ++e) {
                a(e, c) = a(c, e);
            }
        }
        const double k =
            temporal ? static_cast<double>((j >= 1 ? 1 : 0) +
                                           (j + 1 < t ? 1 : 0))
                     : 0.0;
        for (std::size_t c = 0; c < rank; ++c) {
            a(c, c) += ridge;
            if (k != 0.0) {
                for (std::size_t e = 0; e < rank; ++e) {
                    a(c, e) += l2 * k * gram_full(c, e);
                }
            }
            if (temporal) {
                double target = 0.0;
                if (j >= 1) {
                    target += d(j, c);
                }
                if (j + 1 < t) {
                    target -= d(j + 1, c);
                }
                b(c, 0) += l2 * target;
            }
        }
    }

    if (temporal) {
        // Block Thomas sweep for the coupled system. Off-diagonal block
        // B = λ₂G; every Schur complement Dⱼ stays SPD.
        Matrix coupling = gram_full;
        for (double& v : coupling.data()) {
            v *= l2;
        }
        for (std::size_t j = 1; j < t; ++j) {
            // Z = Dⱼ₋₁⁻¹·B; both are symmetric, so Mⱼ = B·Dⱼ₋₁⁻¹ = Zᵀ.
            const Matrix z = solve_spd(diag[j - 1], coupling);
            Matrix& a = diag[j];
            Matrix& b = rhs[j];
            for (std::size_t c = 0; c < rank; ++c) {
                double y = 0.0;
                for (std::size_t e = 0; e < rank; ++e) {
                    y += z(e, c) * rhs[j - 1](e, 0);
                    double dot = 0.0;
                    for (std::size_t f = 0; f < rank; ++f) {
                        dot += z(f, c) * coupling(f, e);
                    }
                    a(c, e) -= dot;
                }
                b(c, 0) += y;
            }
        }
        Matrix prev = solve_spd(diag[t - 1], rhs[t - 1]);
        Matrix solved(t, rank);
        for (std::size_t c = 0; c < rank; ++c) {
            solved(t - 1, c) = prev(c, 0);
        }
        for (std::size_t j = t - 1; j-- > 0;) {
            Matrix b = rhs[j];
            for (std::size_t c = 0; c < rank; ++c) {
                double y = 0.0;
                for (std::size_t e = 0; e < rank; ++e) {
                    y += coupling(c, e) * prev(e, 0);
                }
                b(c, 0) += y;
            }
            prev = solve_spd(diag[j], b);
            for (std::size_t c = 0; c < rank; ++c) {
                solved(j, c) = prev(c, 0);
            }
        }
        r = std::move(solved);
    } else {
        // No temporal coupling: the columns decouple into independent
        // ridge-regularised normal equations. Slots with nothing trusted
        // keep their carried rows.
        for (std::size_t j = 0; j < t; ++j) {
            if (trusted_count[j] == 0) {
                continue;
            }
            const Matrix r_j = solve_spd(diag[j], rhs[j]);
            for (std::size_t c = 0; c < rank; ++c) {
                r(j, c) = r_j(c, 0);
            }
        }
    }
}

// Exact minimiser over L given R (independent per-row normal equations).
// Throws on a degenerate system.
void als_solve_l(Matrix& l, const Matrix& r, const Matrix& s,
                 const Matrix& trusted, const std::vector<double>& means,
                 const Matrix& avg_velocity, double tau_s,
                 const CsConfig& cs) {
    const std::size_t n = s.rows();
    const std::size_t t = s.cols();
    const std::size_t rank = r.cols();
    const bool temporal =
        cs.mode != TemporalMode::kNone && cs.lambda2 > 0.0 && t >= 2;
    const double l2 = temporal ? cs.lambda2 : 0.0;

    // Q = Σ_{j≥1} qⱼqⱼᵀ with qⱼ = rⱼ − rⱼ₋₁, shared across rows.
    Matrix q_gram(rank, rank);
    double q_trace = 0.0;
    if (temporal) {
        for (std::size_t j = 1; j < t; ++j) {
            for (std::size_t c = 0; c < rank; ++c) {
                const double qc = r(j, c) - r(j - 1, c);
                for (std::size_t e = c; e < rank; ++e) {
                    q_gram(c, e) += qc * (r(j, e) - r(j - 1, e));
                }
            }
        }
        for (std::size_t c = 0; c < rank; ++c) {
            q_trace += q_gram(c, c);
            for (std::size_t e = c + 1; e < rank; ++e) {
                q_gram(e, c) = q_gram(c, e);
            }
        }
    }

    Matrix a(rank, rank);
    Matrix b(rank, 1);
    for (std::size_t i = 0; i < n; ++i) {
        a.fill(0.0);
        b.fill(0.0);
        std::size_t count = 0;
        double data_trace = 0.0;
        for (std::size_t j = 0; j < t; ++j) {
            if (trusted(i, j) == 0.0) {
                continue;
            }
            ++count;
            const double v = s(i, j) - means[i];
            for (std::size_t c = 0; c < rank; ++c) {
                b(c, 0) += r(j, c) * v;
                for (std::size_t e = c; e < rank; ++e) {
                    a(c, e) += r(j, c) * r(j, e);
                }
            }
        }
        if (count == 0 && !temporal) {
            continue;  // nothing constrains this row; keep the carried one
        }
        for (std::size_t c = 0; c < rank; ++c) {
            data_trace += a(c, c);
            for (std::size_t e = c + 1; e < rank; ++e) {
                a(e, c) = a(c, e);
            }
        }
        const double ridge =
            cs.lambda1 +
            1e-10 * ((data_trace + q_trace) / static_cast<double>(rank));
        for (std::size_t c = 0; c < rank; ++c) {
            a(c, c) += ridge;
            if (temporal) {
                for (std::size_t e = 0; e < rank; ++e) {
                    a(c, e) += l2 * q_gram(c, e);
                }
            }
        }
        if (temporal && cs.mode == TemporalMode::kVelocity) {
            for (std::size_t j = 1; j < t; ++j) {
                const double c_ij = avg_velocity(i, j) * tau_s;
                for (std::size_t c = 0; c < rank; ++c) {
                    b(c, 0) += l2 * (r(j, c) - r(j - 1, c)) * c_ij;
                }
            }
        }
        const Matrix l_i = solve_spd(a, b);
        for (std::size_t c = 0; c < rank; ++c) {
            l(i, c) = l_i(c, 0);
        }
    }
}

// Hard cap on (R-step, L-step) refresh sweeps. The loop normally exits on
// the objective test long before this; the cap only bounds pathological
// windows where ALS itself zigzags.
constexpr std::size_t kWarmRefreshMaxSweeps = 60;

void refresh_warm_slot_factor(FactorPair& warm, const Matrix& s,
                              const Matrix& trusted,
                              const Matrix& avg_velocity, double tau_s,
                              const CsConfig& cs) {
    if (warm.l.empty() || warm.r.empty() || warm.l.rows() != s.rows() ||
        warm.r.rows() != s.cols()) {
        return;
    }
    std::vector<double> means(s.rows(), 0.0);
    if (cs.center_rows) {
        means = trusted_row_means(s, trusted);
    }
    FactorPair work = warm;
    try {
        // The objective the sweeps minimise, in the centered frame (the
        // constructor zeroes untrusted cells itself, so only the trusted
        // ones need shifting).
        Matrix centered = s;
        if (cs.center_rows) {
            for (std::size_t i = 0; i < s.rows(); ++i) {
                for (std::size_t j = 0; j < s.cols(); ++j) {
                    if (trusted(i, j) != 0.0) {
                        centered(i, j) = s(i, j) - means[i];
                    }
                }
            }
        }
        const CsObjective objective(centered, trusted, avg_velocity, tau_s,
                                    cs.lambda1, cs.lambda2, cs.mode);
        // Sweep until the per-sweep relative decrease drops below ASD's
        // own tolerance. An ALS sweep minimises each factor exactly, so it
        // decreases f at least as much as ASD's two line-search half steps
        // from the same point — once a sweep gains less than ASD's
        // stopping threshold, ASD is guaranteed to accept the seed within
        // one iteration instead of crawling along a flat valley. A fixed
        // sweep count has no such guarantee: on some windows it parks the
        // seed where ASD grinds for hundreds of iterations.
        double previous = objective.value(work.l, work.r);
        for (std::size_t sweep = 0; sweep < kWarmRefreshMaxSweeps;
             ++sweep) {
            als_solve_r(work.l, work.r, s, trusted, means, avg_velocity,
                        tau_s, cs);
            als_solve_l(work.l, work.r, s, trusted, means, avg_velocity,
                        tau_s, cs);
            const double current = objective.value(work.l, work.r);
            if (!std::isfinite(current)) {
                throw Error("warm refresh produced a non-finite objective");
            }
            const double progress =
                previous > 0.0 ? (previous - current) / previous : 0.0;
            previous = current;
            if (progress < cs.asd.relative_tolerance) {
                break;
            }
        }
        // Final R-step so the handed-over R is exactly optimal for the
        // final L (∇_R f = 0 at the seed).
        als_solve_r(work.l, work.r, s, trusted, means, avg_velocity, tau_s,
                    cs);
        warm = std::move(work);
    } catch (const std::exception&) {
        // Degenerate system somewhere in the sweeps: keep the carried
        // factors; ASD still converges from them, just more slowly.
    }
}

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
                // Iteration 1 normally cold-starts; a caller-seeded warm
                // state (streaming windows) makes even the first CORRECT
                // warm, re-aligned to this window's centering. Later
                // iterations always reuse the previous iteration's
                // factors. An empty FactorPair means "no warm state",
                // never a valid start.
                if (first && !axis.warm.l.empty() && axis.seeded) {
                    refresh_warm_slot_factor(axis.warm, *axis.sensory, gbim,
                                             axis.avg_velocity, tau_s,
                                             config.cs);
                }
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
                      const ItscsObserver& observer, PipelineContext* ctx,
                      const ItscsWarmStart* warm) {
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
    if (warm != nullptr) {
        axes[0].warm = warm->x;
        axes[0].seeded = true;
        axes[1].warm = warm->y;
        axes[1].seeded = true;
    }

    LoopOutcome out =
        run_axes(axes, input.existence, input.tau_s, config, observer, ctx);

    ItscsResult result;
    result.detection = std::move(out.detection);
    result.reconstructed_x = std::move(axes[0].reconstructed);
    result.reconstructed_y = std::move(axes[1].reconstructed);
    result.iterations = out.iterations;
    result.converged = out.converged;
    result.history = std::move(out.history);
    result.factors_x = std::move(axes[0].warm);
    result.factors_y = std::move(axes[1].warm);
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
