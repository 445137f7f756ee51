#include "cs/reconstruct.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"
#include "cs/init.hpp"
#include "linalg/kernel_tier.hpp"
#include "linalg/ops.hpp"

namespace mcs {

std::size_t recommended_rank(std::size_t n, std::size_t t,
                             TemporalMode mode) {
    const std::size_t smaller = std::min(n, t);
    const std::size_t heuristic =
        mode == TemporalMode::kNone
            ? std::clamp<std::size_t>(smaller / 6, 4, 16)
            : std::clamp<std::size_t>(smaller / 3, 4, 40);
    return std::min(heuristic, smaller);
}

std::vector<double> trusted_row_means(const Matrix& s, const Matrix& trusted) {
    std::vector<double> means(s.rows(), 0.0);
    for (std::size_t i = 0; i < s.rows(); ++i) {
        double sum = 0.0;
        std::size_t count = 0;
        for (std::size_t j = 0; j < s.cols(); ++j) {
            if (trusted(i, j) != 0.0) {
                sum += s(i, j);
                ++count;
            }
        }
        if (count > 0) {
            means[i] = sum / static_cast<double>(count);
        }
    }
    return means;
}

CsReconstruction cs_reconstruct(const Matrix& s, const Matrix& gbim,
                                const Matrix& avg_velocity, double tau_s,
                                const CsConfig& config,
                                const FactorPair* warm,
                                PipelineContext* ctx) {
    PipelineContext::PhaseScope phase(ctx, "cs_reconstruct");
    if (ctx != nullptr) {
        ctx->counters().cs_solves += 1;
        ctx->set_kernel_tier(active_kernel_tier());
    }
    std::size_t rank = config.rank;
    if (rank == 0) {
        rank = recommended_rank(s.rows(), s.cols(), config.mode);
    }
    MCS_CHECK_MSG(rank >= 1 && rank <= std::min(s.rows(), s.cols()),
                  "cs_reconstruct: rank out of range");
    MCS_CHECK_MSG(s.rows() == gbim.rows() && s.cols() == gbim.cols(),
                  "cs_reconstruct: S/ℬ shape mismatch");

    // Optional row centering (see CsConfig::center_rows). The temporal
    // term is invariant to a per-row constant, so only S changes.
    std::vector<double> means;
    Matrix centered = s;
    if (config.center_rows) {
        means = trusted_row_means(s, gbim);
        for (std::size_t i = 0; i < s.rows(); ++i) {
            for (std::size_t j = 0; j < s.cols(); ++j) {
                if (gbim(i, j) != 0.0) {
                    centered(i, j) = s(i, j) - means[i];
                }
            }
        }
    }

    const CsObjective objective(centered, gbim, avg_velocity, tau_s,
                                config.lambda1, config.lambda2, config.mode);
    // Start point: caller-provided factors (framework iterations ≥ 2, or
    // the previous LRSD round), or the nearest-filled SVD of Algorithm 2
    // lines 1–8. The fill uses the masked values so detected-faulty cells
    // cannot seed the factors with km-scale outliers.
    FactorPair start;
    const bool warm_usable = warm != nullptr && warm->l.rows() == s.rows() &&
                             warm->r.rows() == s.cols() &&
                             warm->l.cols() == rank &&
                             warm->r.cols() == rank;
    if (warm_usable) {
        start = *warm;
    } else {
        start = warm_start(objective.masked_sensory(), gbim, rank, ctx);
    }
    AsdResult solved = asd_minimize(objective, std::move(start.l),
                                    std::move(start.r), config.asd, ctx);

    CsReconstruction out;
    out.estimate = multiply_transposed(solved.l, solved.r);
    if (config.center_rows) {
        for (std::size_t i = 0; i < s.rows(); ++i) {
            for (std::size_t j = 0; j < s.cols(); ++j) {
                out.estimate(i, j) += means[i];
            }
        }
    }
    out.factors = {std::move(solved.l), std::move(solved.r)};
    out.asd_iterations = solved.iterations;
    out.final_objective = solved.objective_history.back();
    out.converged = solved.converged;
    return out;
}

}  // namespace mcs
