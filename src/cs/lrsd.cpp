#include "cs/lrsd.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.hpp"
#include "linalg/ops.hpp"

namespace mcs {

LrsdResult lrsd_decompose(const Matrix& s, const Matrix& existence,
                          double tau_s, const LrsdConfig& config,
                          PipelineContext* ctx) {
    // The LS-decomposition model has no temporal term; a caller that set a
    // temporal mode on the inner completion asked for something this
    // baseline cannot honour, so refuse instead of silently overwriting.
    MCS_CHECK_MSG(config.completion.mode == TemporalMode::kNone,
                  "lrsd_decompose: completion.mode must be kNone — the "
                  "LS-decomposition model of [18] has no temporal term");
    MCS_CHECK_MSG(s.rows() == existence.rows() &&
                      s.cols() == existence.cols(),
                  "lrsd_decompose: S/ℰ shape mismatch");
    require_binary(existence, "lrsd_decompose: existence");
    MCS_CHECK_MSG(config.residual_threshold_m > 0.0,
                  "lrsd_decompose: threshold must be positive");
    MCS_CHECK_MSG(config.initial_threshold_m >= config.residual_threshold_m,
                  "lrsd_decompose: initial threshold below the final one");
    MCS_CHECK_MSG(config.threshold_decay > 0.0 &&
                      config.threshold_decay <= 1.0,
                  "lrsd_decompose: decay must be in (0, 1]");
    MCS_CHECK_MSG(config.max_iterations >= 1,
                  "lrsd_decompose: need at least one round");

    const std::size_t n = s.rows();
    const std::size_t t = s.cols();
    const Matrix no_velocity(n, t);  // the kNone objective still wants one
    LrsdResult result;
    result.outliers = Matrix(n, t);
    FactorPair factors;  // carried across rounds as the warm start
    double threshold = config.initial_threshold_m;
    while (result.iterations < config.max_iterations) {
        // Fit support: observed and not currently classified as a sparse
        // error. The previous round's factors warm-start the completion
        // (the support changes little between rounds), so only round 1
        // pays the nearest-fill SVD.
        Matrix trusted(n, t);
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = 0; j < t; ++j) {
                trusted(i, j) = (existence(i, j) == 1.0 &&
                                 result.outliers(i, j) == 0.0)
                                    ? 1.0
                                    : 0.0;
            }
        }
        CsReconstruction rec =
            cs_reconstruct(s, trusted, no_velocity, tau_s, config.completion,
                           factors.l.empty() ? nullptr : &factors, ctx);
        factors = std::move(rec.factors);
        result.estimate = std::move(rec.estimate);

        // Re-classify the sparse support from the residuals over every
        // observed cell, so a cell the completion now explains can leave
        // the support.
        Matrix next_outliers(n, t);
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = 0; j < t; ++j) {
                if (existence(i, j) == 1.0 &&
                    std::abs(s(i, j) - result.estimate(i, j)) > threshold) {
                    next_outliers(i, j) = 1.0;
                }
            }
        }
        result.iterations += 1;
        const bool annealed = threshold <= config.residual_threshold_m;
        const bool stable =
            count_differences(result.outliers, next_outliers) == 0;
        result.outliers = std::move(next_outliers);
        if (annealed && stable && result.iterations > 1) {
            result.converged = true;
            break;
        }
        threshold = std::max(config.residual_threshold_m,
                             threshold * config.threshold_decay);
    }
    return result;
}

}  // namespace mcs
