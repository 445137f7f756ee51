// Tests for the SolverBackend seam (DESIGN.md §14): the registry, ASD
// equivalence through solve_axis, the LRSD backend's sparse-fault support,
// warm-start factor reuse across framework-style iterations, and the
// lrsd_decompose temporal-mode guard.
#include "cs/solver_backend.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "corruption/scenario.hpp"
#include "cs/lrsd.hpp"
#include "linalg/ops.hpp"
#include "linalg/temporal.hpp"
#include "trace/simulator.hpp"

namespace mcs {
namespace {

struct BackendCase {
    TraceDataset truth;
    CorruptedDataset data;
    Matrix avg_vx;
};

BackendCase make_case(std::uint64_t seed) {
    BackendCase c{make_small_dataset(seed, 24, 80), {}, {}};
    CorruptionConfig config;
    config.missing_ratio = 0.2;
    config.fault_ratio = 0.1;
    config.seed = seed + 1;
    c.data = corrupt(c.truth, config);
    c.avg_vx = average_velocity(c.data.vx);
    return c;
}

bool bitwise_equal(const Matrix& a, const Matrix& b) {
    const auto da = a.data();
    const auto db = b.data();
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::equal(da.begin(), da.end(), db.begin());
}

TEST(SolverBackendRegistry, KindsNamesAndCapabilities) {
    const SolverBackend& asd = solver_backend(SolverKind::kAsd);
    EXPECT_EQ(asd.kind(), SolverKind::kAsd);
    EXPECT_STREQ(asd.name(), "asd");
    EXPECT_FALSE(asd.supports_sparse_faults());

    const SolverBackend& lrsd = solver_backend(SolverKind::kLrsd);
    EXPECT_EQ(lrsd.kind(), SolverKind::kLrsd);
    EXPECT_STREQ(lrsd.name(), "lrsd");
    EXPECT_TRUE(lrsd.supports_sparse_faults());

    // The registry hands out stable singletons.
    EXPECT_EQ(&asd, &solver_backend(SolverKind::kAsd));
    EXPECT_EQ(&lrsd, &solver_backend(SolverKind::kLrsd));
}

TEST(SolverBackendRegistry, ParseAndToStringRoundTrip) {
    EXPECT_EQ(parse_solver_kind("asd"), SolverKind::kAsd);
    EXPECT_EQ(parse_solver_kind("lrsd"), SolverKind::kLrsd);
    EXPECT_STREQ(to_string(SolverKind::kAsd), "asd");
    EXPECT_STREQ(to_string(SolverKind::kLrsd), "lrsd");
    EXPECT_THROW(parse_solver_kind("simplex"), Error);
}

TEST(SolverBackend, AsdThroughSeamMatchesCsReconstruct) {
    // cs_reconstruct() is a thin wrapper over solve_axis(); the two entry
    // points must agree bit for bit (the bit-identity contract of the
    // refactor rides on this).
    auto c = make_case(1);
    CsConfig config;
    const CsReconstruction direct = cs_reconstruct(
        c.data.sx, c.data.existence, c.avg_vx, c.truth.tau_s, config);

    SolverProblem problem;
    problem.s = &c.data.sx;
    problem.trusted = &c.data.existence;
    problem.avg_velocity = &c.avg_vx;
    problem.tau_s = c.truth.tau_s;
    problem.config = config;
    const CsReconstruction seam = solve_axis(problem);

    EXPECT_TRUE(bitwise_equal(seam.estimate, direct.estimate));
    EXPECT_EQ(seam.asd_iterations, direct.asd_iterations);
    EXPECT_DOUBLE_EQ(seam.final_objective, direct.final_objective);
    EXPECT_EQ(seam.solver, SolverKind::kAsd);
    EXPECT_EQ(seam.solver_rounds, 1u);
    EXPECT_TRUE(seam.sparse_faults.empty());
}

TEST(SolverBackend, AsdRequiresVelocityAndValidShapes) {
    auto c = make_case(2);
    SolverProblem problem;
    problem.s = &c.data.sx;
    problem.trusted = &c.data.existence;
    problem.tau_s = c.truth.tau_s;
    // kVelocity mode with no velocity matrix is an invalid problem.
    EXPECT_THROW(solve_axis(problem), Error);

    problem.avg_velocity = &c.avg_vx;
    problem.config.rank = 1000;  // > min(n, t)
    EXPECT_THROW(solve_axis(problem), Error);

    SolverProblem empty;
    EXPECT_THROW(solve_axis(empty), Error);
}

TEST(SolverBackend, LrsdRecoversSparseSupportThroughSolveAxis) {
    // The cs_lrsd_test fixture, driven through the seam: exactly-rank-3
    // data plus three huge spikes. The backend must return the spike
    // support in sparse_faults and tick the per-backend counters.
    Rng rng(1);
    Matrix l(20, 3);
    Matrix r(60, 3);
    for (auto& v : l.data()) {
        v = rng.uniform(-20000.0, 20000.0);
    }
    for (auto& v : r.data()) {
        v = rng.uniform(-1.0, 1.0);
    }
    const Matrix truth = multiply_transposed(l, r);
    Matrix s = truth;
    Matrix expected(20, 60);
    for (const auto& [i, j] : {std::pair<std::size_t, std::size_t>{2, 10},
                               {7, 33}, {15, 50}}) {
        s(i, j) += 25000.0;
        expected(i, j) = 1.0;
    }
    const Matrix ones = Matrix::constant(20, 60, 1.0);

    SolverProblem problem;
    problem.s = &s;
    problem.trusted = &ones;
    problem.existence = &ones;
    problem.tau_s = 30.0;
    problem.config.solver = SolverKind::kLrsd;
    problem.config.rank = 3;
    problem.config.center_rows = false;

    PipelineContext ctx;
    const CsReconstruction rec = solve_axis(problem, nullptr, &ctx);
    EXPECT_EQ(rec.solver, SolverKind::kLrsd);
    EXPECT_TRUE(rec.sparse_faults == expected);
    EXPECT_TRUE(rec.converged);
    EXPECT_GE(rec.solver_rounds, 2u);

    EXPECT_EQ(ctx.counters().solves_lrsd, 1u);
    EXPECT_EQ(ctx.counters().solves_asd, 0u);
    EXPECT_EQ(ctx.counters().lrsd_rounds, rec.solver_rounds);
    EXPECT_EQ(ctx.counters().sparse_fault_cells, 3u);
    EXPECT_EQ(ctx.solver_backend(), SolverKind::kLrsd);
}

TEST(SolverBackend, LrsdNeverFlagsUnobservedCells) {
    auto c = make_case(3);
    SolverProblem problem;
    problem.s = &c.data.sx;
    problem.trusted = &c.data.existence;
    problem.existence = &c.data.existence;
    problem.tau_s = c.truth.tau_s;
    problem.config.solver = SolverKind::kLrsd;
    const CsReconstruction rec = solve_axis(problem);
    for (std::size_t i = 0; i < c.data.participants(); ++i) {
        for (std::size_t j = 0; j < c.data.slots(); ++j) {
            if (c.data.existence(i, j) == 0.0) {
                EXPECT_DOUBLE_EQ(rec.sparse_faults(i, j), 0.0);
            }
        }
    }
}

TEST(SolverBackend, WarmFactorsSpeedUpFrameworkStyleIteration) {
    // The framework loop re-solves CORRECT each iteration with a slightly
    // changed trust mask, feeding the previous CsReconstruction::factors
    // back in. Simulate one such step: distrust a handful of cells, then
    // solve cold vs. warm. Warm must take materially fewer ASD iterations
    // and land on the same reconstruction.
    auto c = make_case(4);
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
    // metric. Compare the missing-cell MAE against truth.
    const auto mae_on_missing = [&](const Matrix& estimate) {
        double total = 0.0;
        std::size_t count = 0;
        for (std::size_t i = 0; i < estimate.rows(); ++i) {
            for (std::size_t j = 0; j < estimate.cols(); ++j) {
                if (c.data.existence(i, j) == 0.0) {
                    total += std::abs(estimate(i, j) - c.truth.x(i, j));
                    ++count;
                }
            }
        }
        return total / static_cast<double>(count);
    };
    const double cold_mae = mae_on_missing(cold.estimate);
    const double warm_mae = mae_on_missing(warm.estimate);
    EXPECT_LT(std::abs(warm_mae - cold_mae),
              std::max(25.0, 0.05 * cold_mae));
}

TEST(SolverBackend, LrsdReusesFactorsAcrossItsOwnRounds) {
    // Round 1 pays the nearest-fill SVD; later rounds warm-start from the
    // previous round's factors. The "warm_start" phase therefore runs
    // exactly once however many complete+reclassify rounds execute.
    auto c = make_case(5);
    SolverProblem problem;
    problem.s = &c.data.sx;
    problem.trusted = &c.data.existence;
    problem.existence = &c.data.existence;
    problem.tau_s = c.truth.tau_s;
    problem.config.solver = SolverKind::kLrsd;

    PipelineContext ctx;
    const CsReconstruction rec = solve_axis(problem, nullptr, &ctx);
    ASSERT_GE(rec.solver_rounds, 2u);

    std::size_t warm_start_calls = 0;
    for (const PhaseStat& phase : ctx.phase_stats()) {
        if (phase.name == "warm_start") {
            warm_start_calls = phase.calls;
        }
    }
    EXPECT_EQ(warm_start_calls, 1u);
}

TEST(SolverBackend, LrsdDecomposeRejectsTemporalCompletion) {
    // The LS-decomposition model of [18] has no temporal term; silently
    // overwriting the caller's completion.mode used to hide that. It is
    // now a reported contract violation.
    const Matrix s(8, 20);
    const Matrix existence = Matrix::constant(8, 20, 1.0);
    LrsdConfig config;
    config.completion.mode = TemporalMode::kVelocity;
    EXPECT_THROW(lrsd_decompose(s, existence, 30.0, config), Error);
    config.completion.mode = TemporalMode::kTemporalOnly;
    EXPECT_THROW(lrsd_decompose(s, existence, 30.0, config), Error);
}

TEST(SolverBackend, LrsdOptionValidation) {
    auto c = make_case(6);
    SolverProblem problem;
    problem.s = &c.data.sx;
    problem.trusted = &c.data.existence;
    problem.existence = &c.data.existence;
    problem.tau_s = c.truth.tau_s;
    problem.config.solver = SolverKind::kLrsd;

    problem.config.lrsd.residual_threshold_m = 0.0;
    EXPECT_THROW(solve_axis(problem), Error);

    problem.config.lrsd = LrsdOptions{};
    problem.config.lrsd.max_rounds = 0;
    EXPECT_THROW(solve_axis(problem), Error);

    problem.config.lrsd = LrsdOptions{};
    problem.config.lrsd.initial_threshold_m = 100.0;  // below final
    EXPECT_THROW(solve_axis(problem), Error);
}

}  // namespace
}  // namespace mcs
