// CS_Reconstruct() — Algorithm 2: modified compressive sensing.
//
// Completes one axis's sensory matrix from its trusted cells (ℬ) by
// minimising the Eq. (23) objective with ASD from an SVD warm start. The
// returned matrix Ŝ estimates the coordinate matrix everywhere, including
// missing and detected-faulty cells.
#pragma once

#include <vector>

#include "cs/asd.hpp"
#include "linalg/svd.hpp"
#include "cs/objective.hpp"
#include "linalg/matrix.hpp"

namespace mcs {

/// Hyper-parameters of the modified CS reconstruction.
struct CsConfig {
    std::size_t rank = 0;     ///< estimated rank r; 0 = recommended_rank()
    double lambda1 = 1e-6;    ///< rank-surrogate weight λ₁
    double lambda2 = 1.0;     ///< temporal/velocity weight λ₂
    TemporalMode mode = TemporalMode::kVelocity;
    AsdOptions asd;

    /// Subtract each row's trusted-cell mean before factorising and add it
    /// back afterwards. A vehicle's mean position dominates the spectrum
    /// (σ₁ is mostly offsets, not motion); removing it conditions the ASD
    /// iteration dramatically without changing the model — a per-row
    /// constant is invisible to the temporal term (Δ of a constant is 0)
    /// and only re-allocates one rank of the budget.
    bool center_rows = true;
};

/// Default rank bound for an n x t dataset. The paper determines r "by
/// experiment"; this heuristic matches those experiments on the synthetic
/// fleets. With the temporal/velocity regulariser active the factorisation
/// tolerates a generous rank (min(n,t)/3, clamped to [4, 40]); plain
/// low-rank CS (kNone, the "without VT" variant) overfits the observed
/// cells at high rank, so it is capped lower (min(n,t)/6, clamped to
/// [4, 16]) — the classic bias/variance trade-off of unregularised matrix
/// completion.
std::size_t recommended_rank(std::size_t n, std::size_t t,
                             TemporalMode mode = TemporalMode::kVelocity);

/// Reconstruction outcome: the estimate plus solver diagnostics. The final
/// factor pair is returned so callers iterating the framework can warm-
/// start the next solve (the trusted set ℬ changes only slightly between
/// I(TS,CS) iterations, so the previous factors are near-optimal starts).
struct CsReconstruction {
    Matrix estimate;               ///< Ŝ = L·Rᵀ (+ row means if centered)
    FactorPair factors;            ///< factors of the (centered) estimate
    std::size_t asd_iterations = 0;
    double final_objective = 0.0;
    bool converged = false;
};

/// Per-row mean of `s` over cells where `trusted` is non-zero (0 for rows
/// with nothing trusted) — the centering of CsConfig::center_rows.
std::vector<double> trusted_row_means(const Matrix& s, const Matrix& trusted);

/// Algorithm 2. `s` is the sensory matrix for this axis, `gbim` the 0/1
/// trust mask ℬ (Definition 7), `avg_velocity` the Eq. (11) matrix for the
/// same axis (ignored unless config.mode == kVelocity), `tau_s` the slot
/// duration. If `warm` is non-null and matches the expected shapes it is
/// used as the starting point instead of the SVD warm start of Algorithm 2
/// lines 1–8. Throws mcs::Error on shape mismatches or an invalid rank.
/// A non-null `ctx` receives the "cs_reconstruct" phase time, a cs_solves
/// tick, and everything the warm start and ASD solver count below it.
CsReconstruction cs_reconstruct(const Matrix& s, const Matrix& gbim,
                                const Matrix& avg_velocity, double tau_s,
                                const CsConfig& config,
                                const FactorPair* warm = nullptr,
                                PipelineContext* ctx = nullptr);

}  // namespace mcs
