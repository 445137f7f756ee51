// Tests for CS_Reconstruct (Algorithm 2) and the interpolation baselines.
#include "cs/reconstruct.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "corruption/existence.hpp"
#include "corruption/scenario.hpp"
#include "cs/interpolation.hpp"
#include "linalg/ops.hpp"
#include "linalg/temporal.hpp"
#include "trace/simulator.hpp"

namespace mcs {
namespace {

struct ReconstructionCase {
    TraceDataset truth;
    CorruptedDataset data;
    Matrix avg_vx;
};

ReconstructionCase make_case(double alpha, std::uint64_t seed,
                             double beta = 0.0) {
    ReconstructionCase c{make_small_dataset(seed, 24, 80), {}, {}};
    CorruptionConfig config;
    config.missing_ratio = alpha;
    config.fault_ratio = beta;
    config.seed = seed + 1;
    c.data = corrupt(c.truth, config);
    c.avg_vx = average_velocity(c.data.vx);
    return c;
}

double mae_on_missing(const Matrix& estimate, const Matrix& truth,
                      const Matrix& existence) {
    double total = 0.0;
    std::size_t count = 0;
    for (std::size_t i = 0; i < truth.rows(); ++i) {
        for (std::size_t j = 0; j < truth.cols(); ++j) {
            if (existence(i, j) == 0.0) {
                total += std::abs(estimate(i, j) - truth(i, j));
                ++count;
            }
        }
    }
    return count > 0 ? total / static_cast<double>(count) : 0.0;
}

TEST(CsReconstruct, FillsMissingValuesAccurately) {
    auto c = make_case(0.2, 1);
    CsConfig config;  // auto rank, velocity mode
    const CsReconstruction rec = cs_reconstruct(
        c.data.sx, c.data.existence, c.avg_vx, c.truth.tau_s, config);
    const double mae =
        mae_on_missing(rec.estimate, c.truth.x, c.data.existence);
    // The small dataset is intentionally hard; sub-kilometre MAE is the
    // calibrated expectation (paper-scale fleets reach ~150 m).
    EXPECT_LT(mae, 800.0);
    // Observed cells are fitted much more tightly than missing ones.
    double obs_total = 0.0;
    std::size_t obs_count = 0;
    for (std::size_t i = 0; i < c.truth.participants(); ++i) {
        for (std::size_t j = 0; j < c.truth.slots(); ++j) {
            if (c.data.existence(i, j) == 1.0) {
                obs_total += std::abs(rec.estimate(i, j) - c.truth.x(i, j));
                ++obs_count;
            }
        }
    }
    EXPECT_LT(obs_total / static_cast<double>(obs_count), mae);
}

TEST(CsReconstruct, VelocityModeBeatsPlainOnThisData) {
    auto c = make_case(0.3, 2);
    CsConfig plain;
    plain.mode = TemporalMode::kNone;
    CsConfig velocity;
    velocity.mode = TemporalMode::kVelocity;
    const double mae_plain =
        mae_on_missing(cs_reconstruct(c.data.sx, c.data.existence, c.avg_vx,
                                      c.truth.tau_s, plain)
                           .estimate,
                       c.truth.x, c.data.existence);
    const double mae_velocity =
        mae_on_missing(cs_reconstruct(c.data.sx, c.data.existence, c.avg_vx,
                                      c.truth.tau_s, velocity)
                           .estimate,
                       c.truth.x, c.data.existence);
    EXPECT_LT(mae_velocity, mae_plain);
}

TEST(CsReconstruct, WarmStartReusesFactors) {
    auto c = make_case(0.2, 3);
    CsConfig config;
    const CsReconstruction first = cs_reconstruct(
        c.data.sx, c.data.existence, c.avg_vx, c.truth.tau_s, config);
    // Re-solving from the converged factors takes (almost) no iterations.
    const CsReconstruction second =
        cs_reconstruct(c.data.sx, c.data.existence, c.avg_vx, c.truth.tau_s,
                       config, &first.factors);
    EXPECT_LE(second.asd_iterations, first.asd_iterations / 2 + 2);
    EXPECT_TRUE(approx_equal(second.estimate, first.estimate, 50.0));
}

TEST(CsReconstruct, WarmFactorsSpeedUpFrameworkStyleIteration) {
    // The framework loop re-solves CORRECT each iteration with a slightly
    // changed trust mask, feeding the previous CsReconstruction::factors
    // back in. Simulate one such step: distrust a handful of cells, then
    // solve cold vs. warm. Warm must take materially fewer ASD iterations
    // and land on the same reconstruction.
    auto c = make_case(0.2, 4, 0.1);
    CsConfig config;
    const CsReconstruction first = cs_reconstruct(
        c.data.sx, c.data.existence, c.avg_vx, c.truth.tau_s, config);

    // Next framework iteration's ℬ: a few observed cells newly distrusted.
    Matrix gbim = c.data.existence;
    std::size_t flipped = 0;
    for (std::size_t i = 0; i < gbim.rows() && flipped < 12; ++i) {
        for (std::size_t j = 0; j < gbim.cols() && flipped < 12; j += 17) {
            if (gbim(i, j) == 1.0) {
                gbim(i, j) = 0.0;
                ++flipped;
            }
        }
    }
    ASSERT_EQ(flipped, 12u);

    const CsReconstruction cold = cs_reconstruct(
        c.data.sx, gbim, c.avg_vx, c.truth.tau_s, config);
    const CsReconstruction warm =
        cs_reconstruct(c.data.sx, gbim, c.avg_vx, c.truth.tau_s, config,
                       &first.factors);

    EXPECT_LT(warm.asd_iterations, cold.asd_iterations);
    // ASD is non-convex, so warm and cold may settle in slightly different
    // spots of the same basin; what must not change is the downstream
    // metric: the missing-cell MAE against truth.
    const double cold_mae =
        mae_on_missing(cold.estimate, c.truth.x, c.data.existence);
    const double warm_mae =
        mae_on_missing(warm.estimate, c.truth.x, c.data.existence);
    EXPECT_LT(std::abs(warm_mae - cold_mae),
              std::max(25.0, 0.05 * cold_mae));
}

TEST(CsReconstruct, MismatchedWarmStartIgnored) {
    auto c = make_case(0.2, 4);
    CsConfig config;
    FactorPair wrong{Matrix(3, 2), Matrix(5, 2)};
    EXPECT_NO_THROW(cs_reconstruct(c.data.sx, c.data.existence, c.avg_vx,
                                   c.truth.tau_s, config, &wrong));
}

TEST(CsReconstruct, AutoRankMatchesRecommendation) {
    EXPECT_EQ(recommended_rank(158, 240), 40u);
    EXPECT_EQ(recommended_rank(158, 240, TemporalMode::kNone), 16u);
    EXPECT_EQ(recommended_rank(40, 120), 13u);
    EXPECT_EQ(recommended_rank(6, 100), 4u);   // heuristic floor
    EXPECT_EQ(recommended_rank(2, 100), 2u);
}

TEST(CsReconstruct, RankValidation) {
    auto c = make_case(0.1, 5);
    CsConfig config;
    config.rank = 1000;  // > min(n, t)
    EXPECT_THROW(cs_reconstruct(c.data.sx, c.data.existence, c.avg_vx,
                                c.truth.tau_s, config),
                 Error);
    // The velocity matrix is required under TemporalMode::kVelocity, and
    // S and ℬ must share a shape.
    EXPECT_THROW(cs_reconstruct(c.data.sx, c.data.existence, Matrix(),
                                c.truth.tau_s, CsConfig{}),
                 Error);
    EXPECT_THROW(cs_reconstruct(c.data.sx, Matrix(3, 80), c.avg_vx,
                                c.truth.tau_s, CsConfig{}),
                 Error);
}

TEST(CsReconstruct, CenteringChangesNothingStructurally) {
    auto c = make_case(0.2, 6);
    CsConfig centered;
    centered.center_rows = true;
    CsConfig raw;
    raw.center_rows = false;
    const double mae_centered =
        mae_on_missing(cs_reconstruct(c.data.sx, c.data.existence, c.avg_vx,
                                      c.truth.tau_s, centered)
                           .estimate,
                       c.truth.x, c.data.existence);
    const double mae_raw =
        mae_on_missing(cs_reconstruct(c.data.sx, c.data.existence, c.avg_vx,
                                      c.truth.tau_s, raw)
                           .estimate,
                       c.truth.x, c.data.existence);
    // Same model, different conditioning: results stay in the same regime.
    EXPECT_LT(std::abs(mae_centered - mae_raw),
              std::max(200.0, 0.5 * mae_raw));
}

TEST(Interpolation, LinearInterpolatesInteriorGaps) {
    const Matrix s{{10, 0, 0, 40}};
    const Matrix mask{{1, 0, 0, 1}};
    const Matrix filled = linear_interpolate(s, mask);
    EXPECT_DOUBLE_EQ(filled(0, 1), 20.0);
    EXPECT_DOUBLE_EQ(filled(0, 2), 30.0);
}

TEST(Interpolation, LinearHoldsBoundaries) {
    const Matrix s{{0, 10, 0}};
    const Matrix mask{{0, 1, 0}};
    const Matrix filled = linear_interpolate(s, mask);
    EXPECT_DOUBLE_EQ(filled(0, 0), 10.0);
    EXPECT_DOUBLE_EQ(filled(0, 2), 10.0);
}

TEST(Interpolation, LinearEmptyRowZero) {
    const Matrix s{{5, 5}};
    const Matrix mask{{0, 0}};
    const Matrix filled = linear_interpolate(s, mask);
    EXPECT_DOUBLE_EQ(filled(0, 0), 0.0);
}

TEST(Interpolation, CsBeatsInterpolationUnderBurstOutages) {
    // The paper's motivation for CS over interpolation [21]. On *uniform*
    // random drops, bridging a 1–2-slot gap linearly is nearly optimal on
    // smooth trajectories; the realistic MCS failure mode is a device
    // outage — a long contiguous gap — where interpolation has nothing to
    // anchor on and the low-rank structure wins.
    const TraceDataset truth = make_small_dataset(7, 24, 80);
    Rng rng(42);
    const Matrix existence =
        make_burst_existence_mask(24, 80, 0.4, 12.0, rng);
    const Matrix s = hadamard(truth.x, existence);
    const Matrix linear = linear_interpolate(s, existence);
    const double mae_linear =
        mae_on_missing(linear, truth.x, existence);
    CsConfig config;
    const double mae_cs = mae_on_missing(
        cs_reconstruct(s, existence, average_velocity(truth.vx),
                       truth.tau_s, config)
            .estimate,
        truth.x, existence);
    EXPECT_LT(mae_cs, mae_linear);
}

}  // namespace
}  // namespace mcs
