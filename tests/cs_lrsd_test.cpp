// Tests for the LRSD (low-rank + sparse) baseline.
#include "cs/lrsd.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "corruption/scenario.hpp"
#include "eval/methods.hpp"
#include "linalg/ops.hpp"
#include "metrics/confusion.hpp"
#include "trace/simulator.hpp"

namespace mcs {
namespace {

TEST(Lrsd, RecoversSparseOutliersOnLowRankData) {
    // Exactly low-rank data + a few huge spikes: the decomposition must
    // pin the spikes in the sparse component and complete the rest.
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
    const Matrix existence = Matrix::constant(20, 60, 1.0);
    LrsdConfig config;
    config.completion.rank = 3;
    // Row centering adds one rank to the centered matrix; disable it so
    // the rank-3 completion of this exactly-rank-3 fixture is exact.
    config.completion.center_rows = false;
    const LrsdResult result = lrsd_decompose(s, existence, 30.0, config);
    EXPECT_TRUE(result.outliers == expected);
    EXPECT_TRUE(result.converged);
}

CorruptedDataset corrupted_fleet(std::uint64_t seed, std::size_t n,
                                 double missing, std::uint64_t corrupt_seed) {
    CorruptionConfig corruption;
    corruption.missing_ratio = missing;
    corruption.fault_ratio = 0.1;
    corruption.seed = corrupt_seed;
    return corrupt(make_small_dataset(seed, n, 80), corruption);
}

TEST(Lrsd, HandlesMissingValues) {
    for (const CorruptedDataset& data :
         {corrupted_fleet(2, 20, 0.3, CorruptionConfig{}.seed),
          corrupted_fleet(3, 24, 0.2, 4)}) {
        const LrsdResult result = lrsd_decompose(data.sx, data.existence,
                                                 data.tau_s, LrsdConfig{});
        // No outlier may be declared on a missing cell.
        for (std::size_t i = 0; i < data.existence.rows(); ++i) {
            for (std::size_t j = 0; j < data.existence.cols(); ++j) {
                if (data.existence(i, j) == 0.0) {
                    EXPECT_DOUBLE_EQ(result.outliers(i, j), 0.0);
                }
            }
        }
        EXPECT_GE(result.iterations, 2u);
    }
}

TEST(Lrsd, ReusesFactorsAcrossItsOwnRounds) {
    // Round 1 pays the nearest-fill SVD; later rounds warm-start from the
    // previous round's factors. The "warm_start" phase therefore runs
    // exactly once however many complete+reclassify rounds execute, while
    // every round is one cs_reconstruct call.
    const CorruptedDataset data = corrupted_fleet(5, 24, 0.2, 6);
    PipelineContext ctx;
    const LrsdResult result = lrsd_decompose(
        data.sx, data.existence, data.tau_s, LrsdConfig{}, &ctx);
    ASSERT_GE(result.iterations, 2u);

    std::size_t warm_start_calls = 0;
    std::size_t solve_calls = 0;
    for (const PhaseStat& phase : ctx.phase_stats()) {
        if (phase.name == "warm_start") {
            warm_start_calls = phase.calls;
        } else if (phase.name == "cs_reconstruct") {
            solve_calls = phase.calls;
        }
    }
    EXPECT_EQ(warm_start_calls, 1u);
    EXPECT_EQ(solve_calls, result.iterations);
    EXPECT_EQ(ctx.counters().cs_solves, result.iterations);
}

TEST(Lrsd, DetectsMostInjectedFaults) {
    const TraceDataset truth = make_small_dataset(3, 24, 80);
    CorruptionConfig corruption;
    corruption.missing_ratio = 0.2;
    corruption.fault_ratio = 0.2;
    const CorruptedDataset data = corrupt(truth, corruption);
    MethodSettings settings;
    const MethodResult result =
        run_method(Method::kLrsd, data, settings);
    const ConfusionCounts counts =
        evaluate_detection(result.detection, data.fault, data.existence);
    // LRSD finds nearly all faults (the annealing evicts km-scale
    // outliers reliably) but pays heavily in precision — plain low-rank
    // completion is too loose for residual thresholding to clear normal
    // cells. This is the baseline's documented weakness (EXPERIMENTS.md).
    EXPECT_GE(counts.recall(), 0.85);
    EXPECT_GE(counts.precision(), 0.25);
}

TEST(Lrsd, ItscsBeatsLrsdOnDetectionQuality) {
    const TraceDataset truth = make_small_dataset(4, 24, 80);
    CorruptionConfig corruption;
    corruption.missing_ratio = 0.3;
    corruption.fault_ratio = 0.3;
    const CorruptedDataset data = corrupt(truth, corruption);
    MethodSettings settings;
    const MethodResult lrsd = run_method(Method::kLrsd, data, settings);
    const MethodResult itscs =
        run_method(Method::kItscsFull, data, settings);
    const ConfusionCounts c_lrsd =
        evaluate_detection(lrsd.detection, data.fault, data.existence);
    const ConfusionCounts c_itscs =
        evaluate_detection(itscs.detection, data.fault, data.existence);
    EXPECT_GE(c_itscs.f1(), c_lrsd.f1());
}

TEST(Lrsd, Validation) {
    const Matrix s(4, 10);
    const Matrix existence = Matrix::constant(4, 10, 1.0);
    LrsdConfig config;
    config.residual_threshold_m = 0.0;
    EXPECT_THROW(lrsd_decompose(s, existence, 30.0, config), Error);
    config = LrsdConfig{};
    config.max_iterations = 0;
    EXPECT_THROW(lrsd_decompose(s, existence, 30.0, config), Error);
    config = LrsdConfig{};
    config.initial_threshold_m = 100.0;  // below the final threshold
    EXPECT_THROW(lrsd_decompose(s, existence, 30.0, config), Error);
    for (const double decay : {0.0, 1.5}) {  // outside (0, 1]
        config = LrsdConfig{};
        config.threshold_decay = decay;
        EXPECT_THROW(lrsd_decompose(s, existence, 30.0, config), Error);
    }
    // The LS-decomposition model of [18] has no temporal term: a temporal
    // completion mode is refused, not silently overwritten.
    for (const TemporalMode mode :
         {TemporalMode::kVelocity, TemporalMode::kTemporalOnly}) {
        config = LrsdConfig{};
        config.completion.mode = mode;
        EXPECT_THROW(lrsd_decompose(s, existence, 30.0, config), Error);
    }
    EXPECT_THROW(lrsd_decompose(s, Matrix(3, 10), 30.0, LrsdConfig{}),
                 Error);
}

TEST(Lrsd, MethodRegistryIntegration) {
    EXPECT_EQ(to_string(Method::kLrsd), "LRSD");
    EXPECT_TRUE(reconstructs(Method::kLrsd));
}

}  // namespace
}  // namespace mcs
