// Tests for the modified-CS objective: values, analytic gradients checked
// against finite differences, exact line searches and the residual update
// that follows a step.
#include "cs/objective.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "linalg/ops.hpp"
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

struct Problem {
    Matrix s;
    Matrix gbim;
    Matrix velocity;
    Matrix l;
    Matrix r;
};

Problem make_problem(std::size_t n, std::size_t t, std::size_t rank,
                     std::uint64_t seed) {
    Rng rng(seed);
    Problem p;
    p.s = random_matrix(n, t, rng, 100.0);
    p.gbim = Matrix(n, t);
    for (auto& x : p.gbim.data()) {
        x = rng.bernoulli(0.7) ? 1.0 : 0.0;
    }
    p.velocity = random_matrix(n, t, rng, 5.0);
    p.l = random_matrix(n, rank, rng, 2.0);
    p.r = random_matrix(t, rank, rng, 2.0);
    return p;
}

// Central finite-difference gradient check for one entry.
double fd_gradient_l(const CsObjective& objective, Problem p, std::size_t i,
                     std::size_t k, double h) {
    Matrix plus = p.l;
    plus(i, k) += h;
    Matrix minus = p.l;
    minus(i, k) -= h;
    return (objective.value(plus, p.r) - objective.value(minus, p.r)) /
           (2.0 * h);
}

double fd_gradient_r(const CsObjective& objective, Problem p, std::size_t j,
                     std::size_t k, double h) {
    Matrix plus = p.r;
    plus(j, k) += h;
    Matrix minus = p.r;
    minus(j, k) -= h;
    return (objective.value(p.l, plus) - objective.value(p.l, minus)) /
           (2.0 * h);
}

CsObjective::Residuals residuals_at(const CsObjective& objective,
                                    const Matrix& l, const Matrix& r) {
    Workspace ws;
    CsObjective::Residuals res;
    objective.residuals_into(res, l, r, ws);
    return res;
}

Matrix gradient_l(const CsObjective& objective, const Matrix& l,
                  const Matrix& r) {
    Workspace ws;
    Matrix grad;
    objective.gradient_l_into(grad, residuals_at(objective, l, r), l, r, ws);
    return grad;
}

Matrix gradient_r(const CsObjective& objective, const Matrix& l,
                  const Matrix& r) {
    Workspace ws;
    Matrix grad;
    objective.gradient_r_into(grad, residuals_at(objective, l, r), l, r, ws);
    return grad;
}

CsObjective::LineSearch line_search_l(const CsObjective& objective,
                                      const Matrix& l, const Matrix& r,
                                      const Matrix& dir) {
    Workspace ws;
    Matrix p;
    return objective.line_search_l(residuals_at(objective, l, r), l, r, dir,
                                   p, ws);
}

TEST(CsObjective, ValueIsSumOfThreeTerms) {
    Problem p = make_problem(6, 10, 3, 1);
    const CsObjective with_all(p.s, p.gbim, p.velocity, 30.0, 0.5, 0.25,
                               TemporalMode::kVelocity);
    const CsObjective no_temporal(p.s, p.gbim, p.velocity, 30.0, 0.5, 0.25,
                                  TemporalMode::kNone);
    const CsObjective no_reg(p.s, p.gbim, p.velocity, 30.0, 0.0, 0.0,
                             TemporalMode::kNone);
    const double f_all = with_all.value(p.l, p.r);
    const double f_fit_reg = no_temporal.value(p.l, p.r);
    const double f_fit = no_reg.value(p.l, p.r);
    EXPECT_GT(f_all, f_fit_reg);
    EXPECT_GT(f_fit_reg, f_fit);
    // f2 contribution is exactly λ1(‖L‖² + ‖R‖²).
    EXPECT_NEAR(f_fit_reg - f_fit,
                0.5 * (frobenius_norm_squared(p.l) +
                       frobenius_norm_squared(p.r)),
                1e-8);
}

TEST(CsObjective, PerfectFitZeroObjective) {
    // S = (L·Rᵀ)∘ℬ with λ's zero -> objective is exactly 0.
    Rng rng(2);
    const Matrix l = random_matrix(5, 2, rng);
    const Matrix r = random_matrix(8, 2, rng);
    Matrix gbim(5, 8);
    for (auto& x : gbim.data()) {
        x = rng.bernoulli(0.5) ? 1.0 : 0.0;
    }
    const Matrix s = hadamard(multiply_transposed(l, r), gbim);
    const CsObjective objective(s, gbim, Matrix(), 30.0, 0.0, 0.0,
                                TemporalMode::kNone);
    EXPECT_NEAR(objective.value(l, r), 0.0, 1e-18);
}

class GradientProperty : public ::testing::TestWithParam<int> {};

TEST_P(GradientProperty, AnalyticMatchesFiniteDifferenceL) {
    const auto mode = static_cast<TemporalMode>(GetParam() % 3);
    Problem p = make_problem(5, 9, 3, 100 + GetParam());
    const CsObjective objective(p.s, p.gbim, p.velocity, 30.0, 0.3, 0.2,
                                mode);
    const Matrix grad = gradient_l(objective, p.l, p.r);
    for (const auto& [i, k] :
         {std::pair<std::size_t, std::size_t>{0, 0}, {2, 1}, {4, 2}}) {
        const double fd = fd_gradient_l(objective, p, i, k, 1e-5);
        EXPECT_NEAR(grad(i, k), fd, 1e-3 * std::max(1.0, std::abs(fd)))
            << "mode " << GetParam() % 3 << " entry (" << i << "," << k
            << ")";
    }
}

TEST_P(GradientProperty, AnalyticMatchesFiniteDifferenceR) {
    const auto mode = static_cast<TemporalMode>(GetParam() % 3);
    Problem p = make_problem(5, 9, 3, 200 + GetParam());
    const CsObjective objective(p.s, p.gbim, p.velocity, 30.0, 0.3, 0.2,
                                mode);
    const Matrix grad = gradient_r(objective, p.l, p.r);
    for (const auto& [j, k] :
         {std::pair<std::size_t, std::size_t>{0, 0}, {4, 1}, {8, 2}}) {
        const double fd = fd_gradient_r(objective, p, j, k, 1e-5);
        EXPECT_NEAR(grad(j, k), fd, 1e-3 * std::max(1.0, std::abs(fd)));
    }
}

INSTANTIATE_TEST_SUITE_P(AllModes, GradientProperty,
                         ::testing::Range(0, 9));

TEST(CsObjective, ExactStepMinimisesAlongGradient) {
    Problem p = make_problem(6, 10, 3, 3);
    const CsObjective objective(p.s, p.gbim, p.velocity, 30.0, 0.1, 0.1,
                                TemporalMode::kVelocity);
    const Matrix grad = gradient_l(objective, p.l, p.r);
    const double alpha = line_search_l(objective, p.l, p.r, grad).alpha;
    ASSERT_GT(alpha, 0.0);
    const auto value_at = [&](double a) {
        Matrix moved = p.l;
        Matrix step = grad;
        step *= a;
        moved -= step;
        return objective.value(moved, p.r);
    };
    const double at_opt = value_at(alpha);
    EXPECT_LT(at_opt, objective.value(p.l, p.r));
    // Quadratic optimality: nearby alphas are worse.
    EXPECT_LE(at_opt, value_at(alpha * 0.8));
    EXPECT_LE(at_opt, value_at(alpha * 1.2));
}

TEST(CsObjective, LineSearchDecreaseIsExact) {
    Problem p = make_problem(6, 10, 3, 4);
    const CsObjective objective(p.s, p.gbim, p.velocity, 30.0, 0.1, 0.1,
                                TemporalMode::kVelocity);
    const Matrix grad = gradient_l(objective, p.l, p.r);
    const auto step = line_search_l(objective, p.l, p.r, grad);
    Matrix moved = p.l;
    Matrix delta = grad;
    delta *= step.alpha;
    moved -= delta;
    const double actual_decrease =
        objective.value(p.l, p.r) - objective.value(moved, p.r);
    EXPECT_NEAR(actual_decrease, step.decrease,
                1e-9 * std::max(1.0, step.decrease));
}

TEST(CsObjective, ResidualsMatchDefinitions) {
    Problem p = make_problem(4, 7, 2, 5);
    const CsObjective objective(p.s, p.gbim, p.velocity, 30.0, 0.1, 0.1,
                                TemporalMode::kVelocity);
    const auto res = residuals_at(objective, p.l, p.r);
    const Matrix x = multiply_transposed(p.l, p.r);
    const Matrix expected_m =
        subtract(hadamard(x, p.gbim), hadamard(p.s, p.gbim));
    EXPECT_TRUE(approx_equal(res.m, expected_m, 1e-10));
    EXPECT_EQ(res.e3.rows(), 4u);
    EXPECT_EQ(res.e3.cols(), 7u);
    Matrix target = scale(p.velocity, 30.0);
    for (std::size_t i = 0; i < 4; ++i) {
        target(i, 0) = 0.0;
    }
    const Matrix expected_e3 = subtract(temporal_diff(x), target);
    EXPECT_TRUE(approx_equal(res.e3, expected_e3, 1e-10));
    const Matrix expected_g =
        add(expected_m, scale(temporal_diff_adjoint(expected_e3), 0.1));
    Matrix g;
    objective.gradient_factor_into(g, res);
    EXPECT_TRUE(approx_equal(g, expected_g, 1e-10));
}

TEST(CsObjective, InactiveTemporalTermLeavesOnlyM) {
    Problem p = make_problem(4, 7, 2, 9);
    for (const auto& objective :
         {CsObjective(p.s, p.gbim, p.velocity, 30.0, 0.1, 0.1,
                      TemporalMode::kNone),
          CsObjective(p.s, p.gbim, p.velocity, 30.0, 0.1, 0.0,
                      TemporalMode::kVelocity)}) {
        const auto res = residuals_at(objective, p.l, p.r);
        EXPECT_EQ(res.m.rows(), 4u);
        EXPECT_TRUE(res.e3.empty());
        // Without f₃ the gradients' data factor G is M itself.
        Matrix g;
        objective.gradient_factor_into(g, res);
        EXPECT_TRUE(g == res.m);
    }
}

// After the step F ← F − α·D the maintained residuals match a fresh
// computation at the moved factors, in every mode and for both factors,
// and so does the other factor's gradient the step pass formed there.
class StepResidualsProperty : public ::testing::TestWithParam<int> {};

TEST_P(StepResidualsProperty, MatchFreshResidualsAfterStep) {
    const auto mode = static_cast<TemporalMode>(GetParam() % 3);
    const bool step_l = GetParam() >= 3;
    Problem p = make_problem(6, 11, 3, 300 + GetParam());
    const CsObjective objective(p.s, p.gbim, p.velocity, 30.0, 0.2, 0.3,
                                mode);
    Workspace ws;
    CsObjective::Residuals res = residuals_at(objective, p.l, p.r);
    Matrix grad;
    Matrix product;
    Matrix next_grad;
    Matrix fresh_next_grad;
    CsObjective::LineSearch step;
    if (step_l) {
        objective.gradient_l_into(grad, res, p.l, p.r, ws);
        step = objective.line_search_l(res, p.l, p.r, grad, product, ws);
        axpy(p.l, -step.alpha, grad);
        objective.step_l(res, product, step.alpha, p.l, p.r, &next_grad, ws);
        objective.gradient_r_into(fresh_next_grad,
                                  residuals_at(objective, p.l, p.r), p.l,
                                  p.r, ws);
    } else {
        objective.gradient_r_into(grad, res, p.l, p.r, ws);
        step = objective.line_search_r(res, p.l, p.r, grad, product, ws);
        axpy(p.r, -step.alpha, grad);
        objective.step_r(res, product, step.alpha, p.l, p.r, &next_grad, ws);
        objective.gradient_l_into(fresh_next_grad,
                                  residuals_at(objective, p.l, p.r), p.l,
                                  p.r, ws);
    }
    ASSERT_GT(step.alpha, 0.0);
    const auto fresh = residuals_at(objective, p.l, p.r);
    const double scale_s = frobenius_norm(p.s);
    EXPECT_LE(frobenius_norm(subtract(res.m, fresh.m)), 1e-12 * scale_s);
    EXPECT_EQ(res.e3.empty(), fresh.e3.empty());
    Matrix g;
    Matrix fresh_g;
    objective.gradient_factor_into(g, res);
    objective.gradient_factor_into(fresh_g, fresh);
    EXPECT_EQ(g.rows(), fresh_g.rows());
    EXPECT_EQ(g.cols(), fresh_g.cols());
    if (!fresh.e3.empty()) {
        EXPECT_LE(frobenius_norm(subtract(res.e3, fresh.e3)),
                  1e-12 * scale_s);
        EXPECT_LE(frobenius_norm(subtract(g, fresh_g)), 1e-12 * scale_s);
    }
    // ∇_R = 2·Gᵀ·L + 2λ₁R, ∇_L = 2·G·R + 2λ₁L: G's bound carried through
    // its product with the factor just moved.
    const Matrix& other = step_l ? p.l : p.r;
    EXPECT_LE(frobenius_norm(subtract(next_grad, fresh_next_grad)),
              2.0 * 1e-12 * scale_s * frobenius_norm(other));
    EXPECT_GT(frobenius_norm(fresh_next_grad), 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllModesBothFactors, StepResidualsProperty,
                         ::testing::Range(0, 6));

TEST(CsObjective, ZeroDirectionGivesZeroStep) {
    Problem p = make_problem(4, 7, 2, 6);
    const CsObjective objective(p.s, p.gbim, p.velocity, 30.0, 0.0, 0.0,
                                TemporalMode::kNone);
    const Matrix zero(4, 2);
    EXPECT_DOUBLE_EQ(line_search_l(objective, p.l, p.r, zero).alpha, 0.0);
}

TEST(CsObjective, MasksSensoryValuesAtUntrustedCells) {
    Problem p = make_problem(4, 7, 2, 7);
    const CsObjective objective(p.s, p.gbim, p.velocity, 30.0, 0.0, 0.0,
                                TemporalMode::kNone);
    const Matrix& masked = objective.masked_sensory();
    for (std::size_t i = 0; i < 4; ++i) {
        for (std::size_t j = 0; j < 7; ++j) {
            if (p.gbim(i, j) == 0.0) {
                EXPECT_DOUBLE_EQ(masked(i, j), 0.0);
            } else {
                EXPECT_DOUBLE_EQ(masked(i, j), p.s(i, j));
            }
        }
    }
}

TEST(CsObjective, InvalidInputsRejected) {
    Problem p = make_problem(4, 7, 2, 8);
    EXPECT_THROW(CsObjective(p.s, Matrix(3, 7), p.velocity, 30.0, 0.1, 0.1,
                             TemporalMode::kNone),
                 Error);
    EXPECT_THROW(CsObjective(p.s, p.gbim, p.velocity, 30.0, -0.1, 0.1,
                             TemporalMode::kNone),
                 Error);
    EXPECT_THROW(CsObjective(p.s, p.gbim, Matrix(1, 1), 30.0, 0.1, 0.1,
                             TemporalMode::kVelocity),
                 Error);
    Matrix bad_gbim = p.gbim;
    bad_gbim(0, 0) = 0.5;
    EXPECT_THROW(CsObjective(p.s, bad_gbim, p.velocity, 30.0, 0.1, 0.1,
                             TemporalMode::kNone),
                 Error);
}

}  // namespace
}  // namespace mcs
