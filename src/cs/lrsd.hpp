// LRSD — low-rank + sparse decomposition baseline (the paper's [18],
// "Robust network compressive sensing", Chen et al., MOBICOM 2014).
//
// The related-work comparator the paper discusses but does not evaluate:
// decompose the observed matrix into a low-rank component (the true data)
// and a sparse error component (the faults), by alternating
//   1. low-rank completion over the currently-trusted cells, and
//   2. re-classifying observed cells whose residual against the completion
//      exceeds a threshold as sparse errors,
// until the error support stabilises. As the paper notes, [18] "cannot
// automatically detect faulty data" — the residual threshold here is the
// missing piece, supplied so the baseline can compete on Problem 1 at all.
// Unlike I(TS,CS) there is no time-series detector, no velocity term, and
// no CHECK hysteresis.
#pragma once

#include "cs/reconstruct.hpp"
#include "linalg/matrix.hpp"

namespace mcs {

/// Tuning of the LRSD baseline.
struct LrsdConfig {
    /// Final residual threshold: residual above ⇒ sparse error.
    double residual_threshold_m = 1200.0;
    /// The first completion is fault-poisoned, so the threshold anneals
    /// from `initial_threshold_m` towards `residual_threshold_m` by
    /// `threshold_decay` per iteration (the usual RPCA-style shrinking
    /// schedule): early passes only evict egregious outliers, later
    /// passes refine on a cleaner fit.
    double initial_threshold_m = 6000.0;
    double threshold_decay = 0.5;
    std::size_t max_iterations = 8;
    /// Inner completion. Must keep TemporalMode::kNone (the default set
    /// here): the LS-decomposition model has no temporal term, and
    /// lrsd_decompose() rejects a user-set mode rather than silently
    /// overwriting it.
    CsConfig completion;

    LrsdConfig() { completion.mode = TemporalMode::kNone; }
};

/// Decomposition outcome for one axis.
struct LrsdResult {
    Matrix estimate;   ///< the low-rank component (reconstruction)
    Matrix outliers;   ///< 0/1 support of the sparse error component
    std::size_t iterations = 0;
    bool converged = false;  ///< outlier support reached a fixed point
};

/// Run the alternating decomposition on one axis. `s` is the sensory
/// matrix (0 where missing), `existence` the 0/1 observation mask. Throws
/// mcs::Error on shape mismatches, invalid thresholds, or a non-kNone
/// completion mode. Each round is one cs_reconstruct call, so a non-null
/// `ctx` receives one "cs_reconstruct" phase call and cs_solves tick per
/// round.
LrsdResult lrsd_decompose(const Matrix& s, const Matrix& existence,
                          double tau_s, const LrsdConfig& config = {},
                          PipelineContext* ctx = nullptr);

}  // namespace mcs
