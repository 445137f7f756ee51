// The I(TS,CS) framework — the paper's primary contribution (Fig. 2).
//
// DETECT-and-CORRECT loop:
//   1. DETECT  — TS_Detect() on both axes (Optimized Local Median Method),
//                starting from an all-ones 𝒟 so the first pass only has to
//                prove points *normal* (near-zero false negatives, many
//                false positives).
//   2. CORRECT — CS_Reconstruct() on both axes over the trusted cells
//                ℬ = ℰ ∧ ¬𝒟 (modified compressive sensing, Eq. 23).
//   3. CHECK   — Check() compares readings against the reconstruction,
//                clearing false positives and raising missed faults.
//   4. Repeat from 1 (with missing values filled by the reconstruction)
//                until 𝒟 stops changing.
//
// The iteration is what bypasses the false-positive/false-negative
// trade-off: DETECT buys recall with precision, CHECK buys the precision
// back using the reconstruction as a reference.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/check_phase.hpp"
#include "cs/reconstruct.hpp"
#include "detect/local_median.hpp"
#include "linalg/matrix.hpp"

namespace mcs {

/// What the server received: the framework's entire input (Problem 1 + 2).
struct ItscsInput {
    Matrix sx;         ///< Sensory Matrix S_X (0 where missing)
    Matrix sy;         ///< Sensory Matrix S_Y
    Matrix vx;         ///< uploaded instantaneous x velocity
    Matrix vy;         ///< uploaded instantaneous y velocity
    Matrix existence;  ///< ℰ
    double tau_s = 30.0;

    /// Throws mcs::Error on inconsistent shapes / non-binary ℰ, or on a
    /// NaN/±Inf coordinate or velocity in any observed cell (ℰ = 1) — the
    /// message names the offending matrix, row and column. Missing cells
    /// (ℰ = 0) may hold anything; the framework never reads them.
    void validate() const;

    /// The shape/ℰ/tau subset of validate() without the finite-value scan.
    /// FleetRunner validates shapes fleet-wide up front but defers the
    /// finite scan to each shard, so one poisoned cell faults one shard
    /// instead of the whole fleet.
    void validate_shapes() const;

    /// FNV-1a digest over the shapes, tau and raw bytes of all five
    /// matrices. Used by the checkpoint layer to refuse resuming a journal
    /// against different input data (see persist/checkpoint.hpp). Bitwise:
    /// two inputs that differ only by -0.0 vs +0.0 or NaN payload hash
    /// differently — exactly the cases where reconstructions could differ.
    std::uint64_t fingerprint() const;
};

/// Full framework configuration.
struct ItscsConfig {
    LocalMedianConfig detector;
    CsConfig cs;  ///< shared by the X and Y reconstructions
    CheckConfig check;
    std::size_t max_iterations = 8;  ///< safety bound (paper: ≤ 4 observed)

    /// Declare 𝒟 converged when an iteration changes at most this fraction
    /// of cells (0 reproduces the paper's strict "never changes again").
    /// The default tolerates one cell per ~2000 flickering between CHECK
    /// and DETECT, which otherwise costs whole extra iterations for no
    /// measurable quality change.
    double change_tolerance = 0.0005;
};

/// FNV-1a digest over every ItscsConfig field that can change the solve
/// (detector, CS, ASD, check thresholds, iteration bounds). Companion of
/// ItscsInput::fingerprint() for the checkpoint resume handshake: a journal
/// written under one config must not seed a run under another.
std::uint64_t config_fingerprint(const ItscsConfig& config);

/// Per-iteration diagnostics (drives the Fig. 8 convergence bench).
struct ItscsIterationStats {
    std::size_t iteration = 0;       ///< 1-based
    std::size_t flagged = 0;         ///< |{𝒟 = 1}| after CHECK
    std::size_t detection_changes = 0;  ///< cells changed vs previous iter
    double cs_objective_x = 0.0;
    double cs_objective_y = 0.0;
};

/// Framework output: Problem 1's 𝒟 and Problem 2's (X̂, Ŷ).
struct ItscsResult {
    Matrix detection;         ///< final 𝒟 (1 = faulty)
    Matrix reconstructed_x;   ///< X̂
    Matrix reconstructed_y;   ///< Ŷ
    std::size_t iterations = 0;
    bool converged = false;   ///< 𝒟 reached a fixed point
    std::vector<ItscsIterationStats> history;
    /// Participants the runtime defence layer confirmed in quarantine
    /// (sorted row indices). run_itscs itself never fills this — the core
    /// loop knows nothing of the defence — but FleetRunner's quarantine
    /// ladder stamps its aggregate result here so streaming callers (the
    /// serve daemon) see the decisions through the WindowEvaluator seam.
    std::vector<std::size_t> quarantined;
};

/// Observer invoked after each full DETECT→CORRECT→CHECK iteration with the
/// current detection matrix and reconstructions (used by the convergence
/// bench to score intermediate states against ground truth).
using ItscsObserver = std::function<void(
    std::size_t iteration, const Matrix& detection,
    const Matrix& reconstructed_x, const Matrix& reconstructed_y)>;

/// Run the I(TS,CS) framework to convergence (or max_iterations). A
/// non-null `ctx` accumulates phase timings ("detect"/"correct"/"check"),
/// an itscs_iterations tick per DETECT→CORRECT→CHECK round, and everything
/// the CS solver counts below it.
///
/// When `ctx` carries a HealthMonitor, the CORRECT output is scanned for
/// non-finite values and the deadline is checked at every iteration
/// boundary; a tripped monitor aborts the loop early and the returned
/// result is partial (converged = false) — callers owning the monitor must
/// inspect monitor.tripped() and discard or degrade accordingly
/// (FleetRunner's degradation ladder does exactly that).
///
/// Every call is self-contained: the first CORRECT pass starts from
/// Algorithm 2's nearest fill and truncated SVD, and later iterations
/// warm-start ASD from the previous iteration's factors.
ItscsResult run_itscs(const ItscsInput& input, const ItscsConfig& config,
                      const ItscsObserver& observer = {},
                      PipelineContext* ctx = nullptr);

// ---- Single-axis (generic sensory data) entry point --------------------
//
// The paper notes I(TS,CS) "can be easily extended to other kinds of
// sensory data in MCS" (§I). Location data happens to come as an (x, y)
// pair whose detections are unioned; a scalar modality (temperature,
// noise level, air quality, ...) is one matrix plus — optionally — a
// measured rate of change playing the role velocity plays for locations.

/// One scalar sensing modality.
struct ItscsSingleInput {
    Matrix s;          ///< sensory matrix (0 where missing)
    Matrix rate;       ///< instantaneous rate of change (units of s per
                       ///< second); pass all-zeros if unavailable and use
                       ///< TemporalMode::kTemporalOnly (or kNone)
    Matrix existence;  ///< ℰ
    double tau_s = 30.0;

    void validate() const;
};

/// Single-axis framework output.
struct ItscsSingleResult {
    Matrix detection;
    Matrix reconstructed;
    std::size_t iterations = 0;
    bool converged = false;
    std::vector<ItscsIterationStats> history;
};

/// Run the DETECT→CORRECT→CHECK loop on one scalar modality. Identical
/// logic to run_itscs with a single axis instead of the (x, y) union.
ItscsSingleResult run_itscs_single(const ItscsSingleInput& input,
                                   const ItscsConfig& config,
                                   PipelineContext* ctx = nullptr);

/// CORRECT phase only: plain modified-CS reconstruction with no detection
/// (ℬ = ℰ) — the paper's "Modified compressive sensing" baseline for
/// Fig. 6. Returns X̂, Ŷ and an all-zero detection matrix.
ItscsResult run_cs_only(const ItscsInput& input, const CsConfig& config,
                        PipelineContext* ctx = nullptr);

}  // namespace mcs
