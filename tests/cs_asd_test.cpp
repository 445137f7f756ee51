// Tests for the ASD solver, the warm start, and the Cholesky/QR helpers
// behind the scaled variant.
#include "cs/asd.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <tuple>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "cs/init.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/kernel_tier.hpp"
#include "linalg/ops.hpp"
#include "linalg/qr.hpp"
#include "linalg/temporal.hpp"

namespace mcs {
namespace {

Matrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng,
                     double scale = 1.0) {
    Matrix m(rows, cols);
    for (auto& x : m.data()) {
        x = rng.uniform(-scale, scale);
    }
    return m;
}

TEST(Cholesky, FactorisesSpdMatrix) {
    const Matrix a{{4, 2}, {2, 3}};
    const Matrix l = cholesky(a);
    EXPECT_TRUE(approx_equal(multiply_transposed(l, l), a, 1e-12));
    EXPECT_DOUBLE_EQ(l(0, 1), 0.0);  // lower triangular
}

TEST(Cholesky, RejectsIndefiniteMatrix) {
    EXPECT_THROW(cholesky(Matrix{{1, 2}, {2, 1}}), Error);
    EXPECT_THROW(cholesky(Matrix(2, 3)), Error);
}

TEST(Cholesky, SolveSpdMatchesDirectCheck) {
    Rng rng(1);
    const Matrix g = random_matrix(5, 5, rng);
    const Matrix a = gram_with_ridge(g, 0.5);  // SPD by construction
    const Matrix b = random_matrix(5, 3, rng);
    const Matrix x = solve_spd(a, b);
    EXPECT_TRUE(approx_equal(multiply(a, x), b, 1e-9));
}

TEST(Cholesky, GramWithRidge) {
    const Matrix a{{1, 0}, {0, 2}, {1, 1}};
    const Matrix g = gram_with_ridge(a, 0.1);
    EXPECT_NEAR(g(0, 0), 2.1, 1e-12);
    EXPECT_NEAR(g(1, 1), 5.1, 1e-12);
    EXPECT_NEAR(g(0, 1), 1.0, 1e-12);
    EXPECT_THROW(gram_with_ridge(a, -0.1), Error);
}

TEST(Qr, OrthonormalisesFullRankInput) {
    Rng rng(2);
    const Matrix a = random_matrix(8, 4, rng);
    const Matrix q = orthonormalize_columns(a);
    const Matrix gram = transpose_multiply(q, q);
    EXPECT_TRUE(approx_equal(gram, Matrix::identity(4), 1e-10));
}

TEST(Qr, DropsDependentColumns) {
    Matrix a(5, 2);
    for (std::size_t i = 0; i < 5; ++i) {
        a(i, 0) = static_cast<double>(i + 1);
        a(i, 1) = 2.0 * static_cast<double>(i + 1);  // same direction
    }
    const Matrix q = orthonormalize_columns(a);
    // Second column collapses to zero.
    double norm1 = 0.0;
    for (std::size_t i = 0; i < 5; ++i) {
        norm1 += q(i, 1) * q(i, 1);
    }
    EXPECT_NEAR(norm1, 0.0, 1e-12);
}

TEST(NearestFill, FillsFromNearestTrustedSlot) {
    const Matrix s{{10, 0, 0, 40, 0}};
    const Matrix mask{{1, 0, 0, 1, 0}};
    const Matrix filled = nearest_fill(s, mask);
    EXPECT_DOUBLE_EQ(filled(0, 0), 10.0);
    EXPECT_DOUBLE_EQ(filled(0, 1), 10.0);  // closer to slot 0
    EXPECT_DOUBLE_EQ(filled(0, 2), 40.0);  // closer to slot 3
    EXPECT_DOUBLE_EQ(filled(0, 3), 40.0);
    EXPECT_DOUBLE_EQ(filled(0, 4), 40.0);  // trailing gap
}

TEST(NearestFill, TiePrefersEarlierSlot) {
    const Matrix s{{10, 0, 30}};
    const Matrix mask{{1, 0, 1}};
    const Matrix filled = nearest_fill(s, mask);
    EXPECT_DOUBLE_EQ(filled(0, 1), 10.0);
}

TEST(NearestFill, EmptyRowBecomesZero) {
    const Matrix s{{5, 6}, {7, 8}};
    const Matrix mask{{0, 0}, {1, 1}};
    const Matrix filled = nearest_fill(s, mask);
    EXPECT_DOUBLE_EQ(filled(0, 0), 0.0);
    EXPECT_DOUBLE_EQ(filled(0, 1), 0.0);
    EXPECT_DOUBLE_EQ(filled(1, 0), 7.0);
}

// Build a completion problem with known low-rank ground truth.
struct CompletionProblem {
    Matrix truth;
    Matrix s;
    Matrix mask;
    CsObjective objective;
};

CompletionProblem make_completion(std::size_t n, std::size_t t,
                                  std::size_t rank, double observe_p,
                                  std::uint64_t seed) {
    Rng rng(seed);
    const Matrix l = random_matrix(n, rank, rng, 3.0);
    const Matrix r = random_matrix(t, rank, rng, 3.0);
    Matrix truth = multiply_transposed(l, r);
    Matrix mask(n, t);
    for (auto& x : mask.data()) {
        x = rng.bernoulli(observe_p) ? 1.0 : 0.0;
    }
    Matrix s = hadamard(truth, mask);
    CsObjective objective(s, mask, Matrix(), 30.0, 1e-9, 0.0,
                          TemporalMode::kNone);
    return {std::move(truth), std::move(s), std::move(mask),
            std::move(objective)};
}

TEST(Asd, ObjectiveDecreasesMonotonically) {
    auto problem = make_completion(12, 18, 3, 0.6, 3);
    const FactorPair start = warm_start(problem.s, problem.mask, 3);
    AsdOptions options;
    options.max_iterations = 50;
    options.relative_tolerance = 0.0;  // force all iterations
    const AsdResult result =
        asd_minimize(problem.objective, start.l, start.r, options);
    for (std::size_t i = 1; i < result.objective_history.size(); ++i) {
        EXPECT_LE(result.objective_history[i],
                  result.objective_history[i - 1] + 1e-9)
            << "objective increased at iteration " << i;
    }
}

TEST(Asd, PlainVariantAlsoDescends) {
    auto problem = make_completion(10, 14, 2, 0.7, 4);
    const FactorPair start = warm_start(problem.s, problem.mask, 2);
    AsdOptions options;
    options.scaled = false;
    options.max_iterations = 80;
    options.relative_tolerance = 0.0;
    const AsdResult result =
        asd_minimize(problem.objective, start.l, start.r, options);
    for (std::size_t i = 1; i < result.objective_history.size(); ++i) {
        EXPECT_LE(result.objective_history[i],
                  result.objective_history[i - 1] + 1e-9);
    }
}

TEST(Asd, RecoversExactlyLowRankMatrix) {
    auto problem = make_completion(15, 20, 2, 0.75, 5);
    const FactorPair start = warm_start(problem.s, problem.mask, 2);
    AsdOptions options;
    options.max_iterations = 500;
    options.relative_tolerance = 1e-12;
    const AsdResult result =
        asd_minimize(problem.objective, start.l, start.r, options);
    const Matrix estimate = multiply_transposed(result.l, result.r);
    // Relative reconstruction error on ALL cells (including unobserved).
    const double rel = frobenius_norm(subtract(estimate, problem.truth)) /
                       frobenius_norm(problem.truth);
    EXPECT_LT(rel, 0.05);
}

TEST(Asd, ScaledConvergesFasterThanPlain) {
    auto problem = make_completion(15, 20, 3, 0.6, 6);
    const FactorPair start = warm_start(problem.s, problem.mask, 3);
    AsdOptions scaled;
    scaled.max_iterations = 400;
    scaled.relative_tolerance = 1e-9;
    AsdOptions plain = scaled;
    plain.scaled = false;
    const AsdResult fast =
        asd_minimize(problem.objective, start.l, start.r, scaled);
    const AsdResult slow =
        asd_minimize(problem.objective, start.l, start.r, plain);
    EXPECT_LE(fast.iterations, slow.iterations);
}

TEST(Asd, ReportsConvergence) {
    auto problem = make_completion(8, 10, 2, 0.9, 7);
    const FactorPair start = warm_start(problem.s, problem.mask, 2);
    AsdOptions options;
    options.max_iterations = 300;
    options.relative_tolerance = 1e-8;
    const AsdResult result =
        asd_minimize(problem.objective, start.l, start.r, options);
    EXPECT_TRUE(result.converged);
    EXPECT_LT(result.iterations, 300u);
    EXPECT_EQ(result.objective_history.size(), result.iterations + 1);
}

TEST(Asd, ShapeValidation) {
    auto problem = make_completion(8, 10, 2, 0.9, 8);
    EXPECT_THROW(
        asd_minimize(problem.objective, Matrix(7, 2), Matrix(10, 2), {}),
        Error);
    EXPECT_THROW(
        asd_minimize(problem.objective, Matrix(8, 2), Matrix(10, 3), {}),
        Error);
}

// Property sweep: SPD solve correctness across random sizes and ridges.
class CholeskyProperty
    : public ::testing::TestWithParam<std::tuple<std::size_t, double>> {};

TEST_P(CholeskyProperty, SolveSatisfiesSystem) {
    const auto [size, ridge] = GetParam();
    Rng rng(size * 7 + 1);
    const Matrix g = random_matrix(size + 3, size, rng);
    const Matrix a = gram_with_ridge(g, ridge);
    const Matrix b = random_matrix(size, 2, rng);
    const Matrix x = solve_spd(a, b);
    EXPECT_TRUE(approx_equal(multiply(a, x), b, 1e-8))
        << "size " << size << " ridge " << ridge;
    // Factor check: L·Lᵀ == A.
    const Matrix l = cholesky(a);
    EXPECT_TRUE(approx_equal(multiply_transposed(l, l), a, 1e-8));
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, CholeskyProperty,
    ::testing::Combine(::testing::Values<std::size_t>(1, 2, 5, 12, 24),
                       ::testing::Values(1e-6, 1.0, 100.0)));

// Property sweep: ASD monotone descent across ranks and observation rates.
class AsdDescentProperty
    : public ::testing::TestWithParam<std::tuple<std::size_t, double>> {};

TEST_P(AsdDescentProperty, MonotoneAndConvergent) {
    const auto [rank, observe_p] = GetParam();
    auto problem = make_completion(14, 22, rank, observe_p,
                                   rank * 31 + 5);
    const FactorPair start = warm_start(problem.s, problem.mask, rank);
    AsdOptions options;
    options.max_iterations = 150;
    options.relative_tolerance = 1e-9;
    const AsdResult result =
        asd_minimize(problem.objective, start.l, start.r, options);
    for (std::size_t i = 1; i < result.objective_history.size(); ++i) {
        EXPECT_LE(result.objective_history[i],
                  result.objective_history[i - 1] + 1e-9);
    }
    EXPECT_LT(result.objective_history.back(),
              result.objective_history.front() + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    RankAndDensity, AsdDescentProperty,
    ::testing::Combine(::testing::Values<std::size_t>(1, 2, 4),
                       ::testing::Values(0.4, 0.6, 0.9)));

// ---- The maintained residuals against a reference ----------------------
//
// ASD moves its residuals along each step's line-search product instead of
// recomputing them, with a full recomputation every
// kAsdResidualRefreshPeriod iterations, and walks the data in blocks of
// kAsdRowBlock rows. The tests below pin that loop to the objective's
// definition: after many iterations the maintained residuals, the next
// gradients the step passes form and the analytic objective track still
// match a fresh evaluation, and one iteration matches a textbook half
// step. Both run on shapes around the block size (one row, a partial
// block, one block, one block and a row, two blocks and a partial one)
// and around the sweeps' four lanes (t = 1, 2, 3, 4, 5 and 26), under
// both kernel tiers.

// A dense (not low-rank) problem, so the objective stays well away from 0
// and relative comparisons of f are meaningful.
struct SolveProblem {
    Matrix s;
    Matrix mask;
    Matrix velocity;
    FactorPair start;
};

// Rank 17, capped at min(n, t): wide enough for the fast kernels' 16- and
// 4-wide column tiles in the gradient products, plus a scalar tail.
constexpr std::size_t kRank = 17;

SolveProblem make_solve_problem(std::uint64_t seed, std::size_t n,
                                std::size_t t) {
    Rng rng(seed);
    SolveProblem p;
    p.s = random_matrix(n, t, rng, 100.0);
    p.mask = Matrix(n, t);
    for (auto& x : p.mask.data()) {
        x = rng.bernoulli(0.7) ? 1.0 : 0.0;
    }
    p.velocity = random_matrix(n, t, rng, 5.0);
    p.start = warm_start(hadamard(p.s, p.mask), p.mask,
                         std::min<std::size_t>({kRank, n, t}));
    return p;
}

constexpr std::size_t kBlock = kAsdRowBlock;
const auto kShapeRows = ::testing::Values<std::size_t>(
    1, kBlock - 1, kBlock, kBlock + 1, 2 * kBlock + 3);
const auto kShapeCols = ::testing::Values<std::size_t>(1, 2, 3, 4, 5, 26);

// Variant, scaled, fast tier, n, t.
using AsdCase = std::tuple<int, bool, bool, std::size_t, std::size_t>;

std::string asd_case_name(const ::testing::TestParamInfo<AsdCase>& info) {
    const auto [variant, scaled, fast, n, t] = info.param;
    return "v" + std::to_string(variant) + (scaled ? "_scaled" : "_plain") +
           (fast ? "_fast_" : "_exact_") + std::to_string(n) + "x" +
           std::to_string(t);
}

// The objective variants the loop distinguishes: the full f₃, its
// target-free form, no f₃ at all, and a switched-off λ₂.
struct Variant {
    TemporalMode mode;
    double lambda2;
};
constexpr Variant kVariants[] = {{TemporalMode::kVelocity, 0.5},
                                 {TemporalMode::kTemporalOnly, 0.5},
                                 {TemporalMode::kNone, 0.5},
                                 {TemporalMode::kVelocity, 0.0}};
constexpr double kTau = 30.0;
constexpr double kLambda1 = 0.2;

class AsdDriftProperty : public ::testing::TestWithParam<AsdCase> {};

TEST_P(AsdDriftProperty, MaintainedResidualsMatchFreshOnes) {
    const auto [variant_index, scaled, fast, n, t] = GetParam();
    const Variant variant = kVariants[variant_index];
    const KernelTierScope tier(fast ? KernelTier::kFast : KernelTier::kExact);
    const SolveProblem p = make_solve_problem(40 + variant_index, n, t);
    const CsObjective objective(p.s, p.mask, p.velocity, kTau, kLambda1,
                                variant.lambda2, variant.mode);
    AsdOptions options;
    options.scaled = scaled;
    options.max_iterations = 37;
    static_assert(37 % kAsdResidualRefreshPeriod != 0,
                  "the run must end between two refreshes");
    options.relative_tolerance = 0.0;  // force all 37
    AsdResult result = asd_minimize(objective, p.start.l, p.start.r, options);
    ASSERT_EQ(result.iterations, 37u);

    Workspace ws;
    CsObjective::Residuals fresh;
    objective.residuals_into(fresh, result.l, result.r, ws);
    const double bound = 1e-9 * frobenius_norm(objective.masked_sensory());
    EXPECT_LE(frobenius_norm(subtract(result.residuals.m, fresh.m)), bound);
    ASSERT_EQ(result.residuals.e3.empty(), fresh.e3.empty());
    if (!fresh.e3.empty()) {
        EXPECT_LE(frobenius_norm(subtract(result.residuals.e3, fresh.e3)),
                  bound);
        Matrix g;
        Matrix fresh_g;
        objective.gradient_factor_into(g, result.residuals);
        objective.gradient_factor_into(fresh_g, fresh);
        EXPECT_LE(frobenius_norm(subtract(g, fresh_g)), bound);
    }
    const double f = objective.value(result.l, result.r);
    EXPECT_NEAR(result.objective_history.back(), f, 1e-9 * f);

    // The gradients the step passes form from the maintained residuals —
    // ∇_L after one more R step, then ∇_R after one more L step — against
    // fresh ones at the same factors. G = M + λ₂·Δᵀ(E₃) is within
    // (1 + 2λ₂)·bound of its fresh value (M and E₃ each within bound),
    // and ∇ = 2·G·R or 2·Gᵀ·L carries that through.
    const double g_bound = (1.0 + 2.0 * variant.lambda2) * bound;
    Matrix grad;
    Matrix product;
    Matrix next;
    Matrix expected;
    objective.gradient_r_into(grad, result.residuals, result.l, result.r,
                              ws);
    auto step = objective.line_search_r(result.residuals, result.l,
                                        result.r, grad, product, ws);
    axpy(result.r, -step.alpha, grad);
    objective.step_r(result.residuals, product, step.alpha, result.l,
                     result.r, &next, ws);
    objective.residuals_into(fresh, result.l, result.r, ws);
    objective.gradient_l_into(expected, fresh, result.l, result.r, ws);
    EXPECT_LE(frobenius_norm(subtract(next, expected)),
              2.0 * g_bound * frobenius_norm(result.r));

    step = objective.line_search_l(result.residuals, result.l, result.r,
                                   next, product, ws);
    axpy(result.l, -step.alpha, next);
    objective.step_l(result.residuals, product, step.alpha, result.l,
                     result.r, &grad, ws);
    objective.residuals_into(fresh, result.l, result.r, ws);
    objective.gradient_r_into(expected, fresh, result.l, result.r, ws);
    EXPECT_LE(frobenius_norm(subtract(grad, expected)),
              2.0 * g_bound * frobenius_norm(result.l));
}

INSTANTIATE_TEST_SUITE_P(
    VariantsScaledTiersAndShapes, AsdDriftProperty,
    ::testing::Combine(::testing::Range(0, 4), ::testing::Bool(),
                       ::testing::Bool(), kShapeRows, kShapeCols),
    asd_case_name);

// One ASD iteration written out from the value-returning ops: full
// residuals before each half step, both gradient terms, the preconditioner
// as a dense SPD solve, and the exact step from the quadratic's
// coefficients.
class TextbookAsd {
public:
    TextbookAsd(const SolveProblem& p, const Variant& variant, bool scaled)
        : p_(p),
          temporal_(variant.mode != TemporalMode::kNone &&
                    variant.lambda2 != 0.0),
          lambda2_(variant.lambda2),
          scaled_(scaled),
          target_(p.s.rows(), p.s.cols()) {
        if (variant.mode == TemporalMode::kVelocity) {
            target_ = scale(p.velocity, kTau);
            for (std::size_t i = 0; i < target_.rows(); ++i) {
                target_(i, 0) = 0.0;
            }
        }
    }

    FactorPair iterate(FactorPair f) const {
        // Lines 11–13: descent in R. ∇_R f = 2·Mᵀ·L + 2λ₁R + 2λ₂·Δᵀ(E₃)ᵀ·L.
        {
            const Matrix x = multiply_transposed(f.l, f.r);
            const Matrix m = fit_residual(x);
            const Matrix e3 = subtract(temporal_diff(x), target_);
            Matrix grad = scale(add(transpose_multiply(m, f.l),
                                    scale(f.r, kLambda1)),
                                2.0);
            if (temporal_) {
                grad = add(grad, scale(transpose_multiply(
                                           temporal_diff_adjoint(e3), f.l),
                                       2.0 * lambda2_));
            }
            const Matrix dir = direction(grad, f.l);
            const Matrix product = multiply_transposed(f.l, dir);
            f.r = subtract(f.r, scale(dir, step(m, e3, product, f.r, dir)));
        }
        // Lines 14–16: descent in L. ∇_L f = 2·M·R + 2λ₁L + 2λ₂·Δᵀ(E₃)·R.
        {
            const Matrix x = multiply_transposed(f.l, f.r);
            const Matrix m = fit_residual(x);
            const Matrix e3 = subtract(temporal_diff(x), target_);
            Matrix grad =
                scale(add(multiply(m, f.r), scale(f.l, kLambda1)), 2.0);
            if (temporal_) {
                grad = add(grad,
                           scale(multiply(temporal_diff_adjoint(e3), f.r),
                                 2.0 * lambda2_));
            }
            const Matrix dir = direction(grad, f.r);
            const Matrix product = multiply_transposed(dir, f.r);
            f.l = subtract(f.l, scale(dir, step(m, e3, product, f.l, dir)));
        }
        return f;
    }

private:
    Matrix fit_residual(const Matrix& x) const {
        return subtract(hadamard(x, p_.mask), hadamard(p_.s, p_.mask));
    }

    // D = ∇·W⁻¹, W = FᵀF + λ₁I plus the trace-scaled safety ridge.
    Matrix direction(const Matrix& grad, const Matrix& other) const {
        if (!scaled_) {
            return grad;
        }
        Matrix w = transpose_multiply(other, other);
        double trace = 0.0;
        for (std::size_t i = 0; i < w.rows(); ++i) {
            w(i, i) += kLambda1;
            trace += w(i, i);
        }
        const double ridge = AsdOptions{}.gram_ridge * trace + 1e-300;
        for (std::size_t i = 0; i < w.rows(); ++i) {
            w(i, i) += ridge;
        }
        return transpose(solve_spd(w, transpose(grad)));
    }

    // Minimiser of α ↦ f(F − α·D), where LRᵀ moves by −α·P; no step when
    // f is flat along D (a = 0, D = 0), as in CsObjective::line_search.
    double step(const Matrix& m, const Matrix& e3, const Matrix& product,
                const Matrix& factor, const Matrix& dir) const {
        const Matrix masked = hadamard(product, p_.mask);
        double a = frobenius_norm_squared(masked) +
                   kLambda1 * frobenius_norm_squared(dir);
        double b = -2.0 * (frobenius_dot(m, masked) +
                           kLambda1 * frobenius_dot(factor, dir));
        if (temporal_) {
            const Matrix dp = temporal_diff(product);
            a += lambda2_ * frobenius_norm_squared(dp);
            b += -2.0 * lambda2_ * frobenius_dot(e3, dp);
        }
        return a > 0.0 ? -b / (2.0 * a) : 0.0;
    }

    const SolveProblem& p_;
    bool temporal_;
    double lambda2_;
    bool scaled_;
    Matrix target_;
};

class AsdReferenceProperty : public ::testing::TestWithParam<AsdCase> {};

TEST_P(AsdReferenceProperty, OneIterationMatchesTextbookHalfSteps) {
    const auto [variant_index, scaled, fast, n, t] = GetParam();
    const Variant variant = kVariants[variant_index];
    const KernelTierScope tier(fast ? KernelTier::kFast : KernelTier::kExact);
    const SolveProblem p = make_solve_problem(60 + variant_index, n, t);
    const CsObjective objective(p.s, p.mask, p.velocity, kTau, kLambda1,
                                variant.lambda2, variant.mode);
    AsdOptions options;
    options.scaled = scaled;
    options.max_iterations = 1;
    const AsdResult result =
        asd_minimize(objective, p.start.l, p.start.r, options);
    ASSERT_EQ(result.iterations, 1u);

    const FactorPair expected =
        TextbookAsd(p, variant, scaled).iterate(p.start);
    EXPECT_LE(frobenius_norm(subtract(result.l, expected.l)),
              1e-10 * frobenius_norm(expected.l));
    EXPECT_LE(frobenius_norm(subtract(result.r, expected.r)),
              1e-10 * frobenius_norm(expected.r));
    // The step moved the factors: the comparison is not vacuous. The one
    // exception is L = R = 0, where both gradients vanish in every variant
    // — warm_start's factors when no cell is observed (a 1×1 problem whose
    // cell ℬ drops).
    if (frobenius_norm(p.start.l) + frobenius_norm(p.start.r) > 0.0) {
        EXPECT_GT(frobenius_norm(subtract(result.r, p.start.r)),
                  1e-6 * frobenius_norm(p.start.r));
    } else {
        EXPECT_EQ(frobenius_norm(result.l) + frobenius_norm(result.r), 0.0);
    }
}

INSTANTIATE_TEST_SUITE_P(
    VariantsScaledTiersAndShapes, AsdReferenceProperty,
    ::testing::Combine(::testing::Range(0, 4), ::testing::Bool(),
                       ::testing::Bool(), kShapeRows, kShapeCols),
    asd_case_name);

}  // namespace
}  // namespace mcs
