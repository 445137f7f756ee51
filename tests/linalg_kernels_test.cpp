// Tests for the output-parameter kernels and the Workspace arena.
//
// The `_into` kernels promise bit-for-bit identity with the value-returning
// ops of linalg/ops.hpp (same loop order, same rounding), so every
// equivalence assertion here uses exact Matrix equality, not a tolerance.
// The Workspace tests pin down the recycling contract the ASD solver's
// zero-allocation steady state depends on.
#include "linalg/kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/context.hpp"
#include "common/rng.hpp"
#include "linalg/kernel_tier.hpp"
#include "linalg/svd.hpp"
#include "cs/asd.hpp"
#include "cs/init.hpp"
#include "cs/objective.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/ops.hpp"

namespace mcs {
namespace {

Matrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
    Matrix m(rows, cols);
    for (auto& x : m.data()) {
        x = rng.uniform(-2.0, 2.0);
    }
    return m;
}

// Destination pre-filled with garbage: passes only if fully overwritten.
Matrix garbage(std::size_t rows, std::size_t cols) {
    return Matrix::constant(rows, cols, -777.25);
}

TEST(Kernels, ElementwiseMatchValueOpsExactly) {
    Rng rng(7);
    const Matrix a = random_matrix(5, 4, rng);
    const Matrix b = random_matrix(5, 4, rng);

    Matrix dst = garbage(5, 4);
    copy_into(dst, a);
    EXPECT_TRUE(dst == a);

    dst = garbage(5, 4);
    subtract_into(dst, a, b);
    EXPECT_TRUE(dst == subtract(a, b));

    dst = garbage(5, 4);
    hadamard_into(dst, a, b);
    EXPECT_TRUE(dst == hadamard(a, b));
}

TEST(Kernels, AxpyMatchesScaleAddExactly) {
    Rng rng(8);
    const Matrix y0 = random_matrix(6, 3, rng);
    const Matrix x = random_matrix(6, 3, rng);
    const double alpha = -0.3717;

    Matrix y = y0;
    axpy(y, alpha, x);
    EXPECT_TRUE(y == add(y0, scale(x, alpha)));
}

TEST(Kernels, ProductsMatchValueOpsExactly) {
    Rng rng(9);
    const Matrix a = random_matrix(5, 3, rng);
    const Matrix b = random_matrix(3, 4, rng);
    const Matrix c = random_matrix(6, 3, rng);   // for a·cᵀ (shared cols)
    const Matrix d = random_matrix(5, 4, rng);   // for aᵀ·d (shared rows)

    Matrix ab = garbage(5, 4);
    multiply_into(ab, a, b);
    EXPECT_TRUE(ab == multiply(a, b));

    Matrix act = garbage(5, 6);
    multiply_transposed_into(act, a, c);
    EXPECT_TRUE(act == multiply_transposed(a, c));

    Matrix atd = garbage(3, 4);
    transpose_multiply_into(atd, a, d);
    EXPECT_TRUE(atd == transpose_multiply(a, d));
}

TEST(Kernels, MaskedResidualMatchesValueOpExactly) {
    Rng rng(10);
    const Matrix l = random_matrix(6, 2, rng);
    const Matrix r = random_matrix(5, 2, rng);
    const Matrix s = random_matrix(6, 5, rng);
    Matrix mask(6, 5);
    for (auto& x : mask.data()) {
        x = rng.uniform(0.0, 1.0) < 0.5 ? 0.0 : 1.0;
    }

    Matrix dst = garbage(6, 5);
    masked_residual_into(dst, l, r, mask, s);
    EXPECT_TRUE(dst == masked_residual(l, r, mask, s));
}

TEST(Kernels, GramMatchesValueOpExactly) {
    Rng rng(11);
    const Matrix a = random_matrix(7, 3, rng);

    Matrix gram = garbage(3, 3);
    gram_with_ridge_into(gram, a, 0.25);
    EXPECT_TRUE(gram == gram_with_ridge(a, 0.25));
}

TEST(Kernels, GemmFlopsAreCounted) {
    PipelineCounters counters;
    const Matrix a(5, 3, 1.0);
    const Matrix b(3, 4, 1.0);
    Matrix dst(5, 4);
    multiply_into(dst, a, b, &counters);
    EXPECT_EQ(counters.gemm_flops, 2u * 5u * 4u * 3u);
}

TEST(Kernels, ShapeMismatchThrows) {
    Matrix dst(2, 2);
    const Matrix a(2, 3);
    const Matrix b(3, 2);
    EXPECT_THROW(copy_into(dst, a), Error);
    EXPECT_THROW(multiply_into(dst, a, a), Error);  // inner dims disagree
    Matrix wrong(3, 3);
    EXPECT_THROW(multiply_into(wrong, a, b), Error);  // dst shape wrong
}

TEST(Kernels, CholeskyInPlaceMatchesOutOfPlace) {
    Rng rng(12);
    const Matrix a = random_matrix(6, 4, rng);
    const Matrix spd = gram_with_ridge(a, 1.0);

    Matrix factor = spd;
    cholesky_in_place(factor);
    const Matrix reference = cholesky(spd);
    for (std::size_t i = 0; i < 4; ++i) {
        for (std::size_t j = 0; j <= i; ++j) {
            EXPECT_DOUBLE_EQ(factor(i, j), reference(i, j));
        }
    }

    const Matrix rhs = random_matrix(4, 3, rng);
    Matrix solved = rhs;
    cholesky_solve_in_place(reference, solved);
    EXPECT_TRUE(solved == solve_spd(spd, rhs));
}

TEST(Workspace, RecyclesExactShapes) {
    PipelineCounters counters;
    Workspace ws(&counters);

    Matrix first = ws.acquire(3, 4);
    ws.release(std::move(first));
    Matrix second = ws.acquire(3, 4);  // must reuse the pooled buffer
    EXPECT_EQ(ws.created(), 1u);
    EXPECT_EQ(counters.workspace_allocations, 1u);
    EXPECT_EQ(counters.workspace_checkouts, 2u);

    Matrix other = ws.acquire(4, 3);  // different shape: fresh allocation
    EXPECT_EQ(ws.created(), 2u);
    ws.release(std::move(second));
    ws.release(std::move(other));
    EXPECT_EQ(ws.pooled(), 2u);
}

TEST(Workspace, ScratchLeaseReturnsOnScopeExit) {
    Workspace ws;
    {
        Scratch s(ws, 2, 5);
        s->fill(1.0);
        EXPECT_EQ((*s).rows(), 2u);
        EXPECT_EQ(ws.pooled(), 0u);
    }
    EXPECT_EQ(ws.pooled(), 1u);
    EXPECT_EQ(ws.created(), 1u);
}

// ---- ASD steady-state regression ---------------------------------------

struct AsdSetup {
    Matrix s;
    Matrix mask;
    Matrix velocity;
    FactorPair start;
};

AsdSetup make_asd_setup() {
    Rng rng(33);
    AsdSetup setup;
    const Matrix l = random_matrix(12, 3, rng);
    const Matrix r = random_matrix(10, 3, rng);
    setup.s = multiply_transposed(l, r);
    setup.mask = Matrix(12, 10);
    for (auto& x : setup.mask.data()) {
        x = rng.uniform(0.0, 1.0) < 0.8 ? 1.0 : 0.0;
    }
    for (std::size_t i = 0; i < 12; ++i) {
        for (std::size_t j = 0; j < 10; ++j) {
            if (setup.mask(i, j) == 0.0) {
                setup.s(i, j) = 0.0;
            }
        }
    }
    setup.velocity = Matrix(12, 10);
    setup.start = warm_start(setup.s, setup.mask, 3);
    return setup;
}

TEST(AsdWorkspace, ZeroAllocationsAfterWarmup) {
    const AsdSetup setup = make_asd_setup();
    const CsObjective objective(setup.s, setup.mask, setup.velocity, 30.0,
                                1e-6, 1.0, TemporalMode::kVelocity);

    AsdOptions one_iteration;
    one_iteration.max_iterations = 1;
    AsdOptions many_iterations;
    many_iterations.max_iterations = 40;
    many_iterations.relative_tolerance = 0.0;  // force all 40

    PipelineContext warmup_ctx;
    asd_minimize(objective, setup.start.l, setup.start.r, one_iteration,
                 &warmup_ctx);
    PipelineContext steady_ctx;
    asd_minimize(objective, setup.start.l, setup.start.r, many_iterations,
                 &steady_ctx);

    EXPECT_EQ(steady_ctx.counters().asd_iterations, 40u);
    // All scratch buffers exist after iteration 1: running 39 further
    // iterations must not allocate a single additional buffer.
    EXPECT_EQ(steady_ctx.counters().workspace_allocations,
              warmup_ctx.counters().workspace_allocations);
    EXPECT_GT(steady_ctx.counters().workspace_checkouts,
              warmup_ctx.counters().workspace_checkouts);
}

TEST(AsdWorkspace, InstrumentationDoesNotChangeResults) {
    const AsdSetup setup = make_asd_setup();
    const CsObjective objective(setup.s, setup.mask, setup.velocity, 30.0,
                                1e-6, 1.0, TemporalMode::kVelocity);

    PipelineContext ctx;
    const AsdResult with_ctx = asd_minimize(objective, setup.start.l,
                                            setup.start.r, {}, &ctx);
    const AsdResult without_ctx =
        asd_minimize(objective, setup.start.l, setup.start.r, {});

    EXPECT_EQ(with_ctx.iterations, without_ctx.iterations);
    EXPECT_TRUE(with_ctx.l == without_ctx.l);
    EXPECT_TRUE(with_ctx.r == without_ctx.r);
}

// ---- Kernel tiers (DESIGN.md §13) --------------------------------------
//
// The fast tier's contract: agreement with the exact tier to <= 1e-12
// relative and bitwise determinism run-to-run. Shapes below are
// deliberately not multiples of the SIMD widths so every tail path runs.

double max_rel_dev(const Matrix& exact, const Matrix& fast) {
    const auto de = exact.data();
    const auto df = fast.data();
    double worst = 0.0;
    for (std::size_t i = 0; i < de.size(); ++i) {
        const double denom = std::max(std::abs(de[i]), 1.0);
        worst = std::max(worst, std::abs(de[i] - df[i]) / denom);
    }
    return worst;
}

struct TierFixture {
    Matrix a, b, l, r, mask, s, e1, e2;

    TierFixture() {
        Rng rng(55);
        a = random_matrix(37, 29, rng);     // odd dims: all tails exercised
        b = random_matrix(29, 18, rng);
        l = random_matrix(37, 7, rng);
        r = random_matrix(23, 7, rng);
        mask = Matrix(37, 23);
        for (auto& x : mask.data()) {
            x = rng.uniform(0.0, 1.0) < 0.3 ? 0.0 : 1.0;
        }
        s = random_matrix(37, 23, rng);
        e1 = random_matrix(37, 23, rng);
        e2 = random_matrix(37, 23, rng);
    }

    /// Every dispatched kernel once, into fresh destinations.
    struct Results {
        Matrix mul, mul_t, t_mul, masked, had, sub, ax;
    };
    Results run_all() const {
        Results out;
        out.mul = garbage(37, 18);
        multiply_into(out.mul, a, b);
        out.mul_t = garbage(37, 23);
        multiply_transposed_into(out.mul_t, l, r);
        out.t_mul = garbage(29, 7);
        transpose_multiply_into(out.t_mul, a, l);
        out.masked = garbage(37, 23);
        masked_residual_into(out.masked, l, r, mask, s);
        out.had = garbage(37, 23);
        hadamard_into(out.had, e1, e2);
        out.sub = garbage(37, 23);
        subtract_into(out.sub, e1, e2);
        out.ax = Matrix(e1);
        axpy(out.ax, -0.637, e2);
        return out;
    }
};

TEST(KernelTiers, FastAgreesWithExactWithinTolerance) {
    const TierFixture f;
    TierFixture::Results exact;
    {
        KernelTierScope tier(KernelTier::kExact);
        exact = f.run_all();
    }
    TierFixture::Results fast;
    {
        KernelTierScope tier(KernelTier::kFast);
        fast = f.run_all();
    }
    EXPECT_LE(max_rel_dev(exact.mul, fast.mul), 1e-12);
    EXPECT_LE(max_rel_dev(exact.mul_t, fast.mul_t), 1e-12);
    EXPECT_LE(max_rel_dev(exact.t_mul, fast.t_mul), 1e-12);
    EXPECT_LE(max_rel_dev(exact.masked, fast.masked), 1e-12);
    EXPECT_LE(max_rel_dev(exact.had, fast.had), 1e-12);
    EXPECT_LE(max_rel_dev(exact.sub, fast.sub), 1e-12);
    EXPECT_LE(max_rel_dev(exact.ax, fast.ax), 1e-12);
}

TEST(KernelTiers, FastTierIsDeterministicAcrossRuns) {
    const TierFixture f;
    KernelTierScope tier(KernelTier::kFast);
    const TierFixture::Results first = f.run_all();
    const TierFixture::Results second = f.run_all();
    EXPECT_TRUE(first.mul == second.mul);
    EXPECT_TRUE(first.mul_t == second.mul_t);
    EXPECT_TRUE(first.t_mul == second.t_mul);
    EXPECT_TRUE(first.masked == second.masked);
    EXPECT_TRUE(first.had == second.had);
}

TEST(KernelTiers, ScopeRestoresPreviousTier) {
    EXPECT_EQ(active_kernel_tier(), KernelTier::kExact);
    {
        KernelTierScope fast(KernelTier::kFast);
        EXPECT_EQ(active_kernel_tier(), KernelTier::kFast);
        {
            KernelTierScope exact(KernelTier::kExact);
            EXPECT_EQ(active_kernel_tier(), KernelTier::kExact);
        }
        EXPECT_EQ(active_kernel_tier(), KernelTier::kFast);
    }
    EXPECT_EQ(active_kernel_tier(), KernelTier::kExact);
}

TEST(KernelTiers, AliasedDestinationThrows) {
    Rng rng(56);
    Matrix sq = random_matrix(6, 6, rng);
    const Matrix other = random_matrix(6, 6, rng);

    EXPECT_THROW(subtract_into(sq, sq, other), Error);
    EXPECT_THROW(subtract_into(sq, other, sq), Error);
    EXPECT_THROW(hadamard_into(sq, sq, other), Error);
    EXPECT_THROW(multiply_into(sq, sq, other), Error);
    EXPECT_THROW(multiply_into(sq, other, sq), Error);
    EXPECT_THROW(multiply_transposed_into(sq, sq, other), Error);
    EXPECT_THROW(transpose_multiply_into(sq, sq, other), Error);

    Matrix masked = random_matrix(6, 6, rng);
    const Matrix lf = random_matrix(6, 2, rng);
    const Matrix rf = random_matrix(6, 2, rng);
    EXPECT_THROW(masked_residual_into(masked, lf, rf, sq, masked), Error);
    EXPECT_THROW(masked_residual_into(masked, lf, rf, masked, sq), Error);

    // The two documented exceptions stay legal: axpy updates y in place,
    // copy_into tolerates the trivial self-copy.
    EXPECT_NO_THROW(axpy(sq, 0.5, other));
    EXPECT_NO_THROW(copy_into(sq, sq));
}

TEST(KernelTiers, PerKernelFlopCountersAttributed) {
    Rng rng(57);
    const Matrix a = random_matrix(5, 3, rng);
    const Matrix b = random_matrix(3, 4, rng);
    const Matrix c = random_matrix(6, 3, rng);
    const Matrix d = random_matrix(5, 4, rng);

    PipelineCounters counters;
    Matrix ab(5, 4);
    multiply_into(ab, a, b, &counters);
    EXPECT_EQ(counters.flops_multiply, 2u * 5u * 4u * 3u);

    Matrix act(5, 6);
    multiply_transposed_into(act, a, c, &counters);
    EXPECT_EQ(counters.flops_multiply_transposed, 2u * 5u * 6u * 3u);

    Matrix atd(3, 4);
    transpose_multiply_into(atd, a, d, &counters);
    EXPECT_EQ(counters.flops_transpose_multiply, 2u * 3u * 4u * 5u);

    const Matrix mask = Matrix::constant(5, 6, 1.0);
    const Matrix s = random_matrix(5, 6, rng);
    Matrix res(5, 6);
    masked_residual_into(res, a, c, mask, s, &counters);
    EXPECT_EQ(counters.flops_masked_residual, 2u * 5u * 6u * 3u);

    // The slots sum to the total the pipeline already reported.
    EXPECT_EQ(counters.gemm_flops,
              counters.flops_multiply + counters.flops_multiply_transposed +
                  counters.flops_transpose_multiply +
                  counters.flops_masked_residual);
}

// ---- Row-range forms ---------------------------------------------------
//
// The blocked ASD passes take their products a few rows at a time. Under
// either tier a product taken in row ranges — accumulated range by range
// for transpose_multiply — has exactly the bits of the product taken
// whole, at every split, and counts the same FLOPs. The shapes cross the
// fast GEMM's tile edges: 39 rows and 19 transposed rows end in a 4-row
// strip, a 2-row strip and a 1-row strip, and 21 and 19 columns end in
// masked tails of 5 and 3 columns.
class RowRangeKernels : public ::testing::TestWithParam<bool> {};

TEST_P(RowRangeKernels, RangesGiveTheBitsOfTheWholeProduct) {
    const KernelTierScope tier(GetParam() ? KernelTier::kFast
                                          : KernelTier::kExact);
    Rng rng(61);
    const Matrix a = random_matrix(39, 19, rng);
    const Matrix b = random_matrix(19, 21, rng);
    const Matrix c = random_matrix(21, 19, rng);
    const Matrix d = random_matrix(39, 19, rng);
    const Matrix x = random_matrix(39, 19, rng);
    Matrix ab_whole(39, 21);
    multiply_into(ab_whole, a, b);
    Matrix act_whole(39, 21);
    multiply_transposed_into(act_whole, a, c);
    Matrix atd_whole(19, 19);
    transpose_multiply_into(atd_whole, a, d);
    Matrix axpy_whole = a;
    axpy(axpy_whole, 0.375, x);
    for (const std::size_t block : {1, 2, 3, 5, 16, 39}) {
        Matrix ab = garbage(39, 21);
        Matrix act = garbage(39, 21);
        Matrix atd(19, 19);
        Matrix ax = a;
        PipelineCounters counters;
        for (std::size_t lo = 0; lo < 39; lo += block) {
            const std::size_t hi = std::min<std::size_t>(39, lo + block);
            multiply_rows_into(rows_of(ab, lo, hi), rows_of(a, lo, hi), b,
                               &counters);
            multiply_transposed_rows_into(rows_of(act, lo, hi),
                                          rows_of(a, lo, hi), c, &counters);
            transpose_multiply_rows_accumulate(atd, rows_of(a, lo, hi),
                                               rows_of(d, lo, hi), &counters);
            axpy_rows(rows_of(ax, lo, hi), 0.375, rows_of(x, lo, hi));
        }
        EXPECT_TRUE(ab == ab_whole) << "block " << block;
        EXPECT_TRUE(act == act_whole) << "block " << block;
        EXPECT_TRUE(atd == atd_whole) << "block " << block;
        EXPECT_TRUE(ax == axpy_whole) << "block " << block;
        EXPECT_EQ(counters.flops_multiply, 2u * 39u * 21u * 19u);
        EXPECT_EQ(counters.flops_multiply_transposed, 2u * 39u * 21u * 19u);
        EXPECT_EQ(counters.flops_transpose_multiply, 2u * 19u * 19u * 39u);
    }
}

INSTANTIATE_TEST_SUITE_P(BothTiers, RowRangeKernels, ::testing::Bool());

TEST(RowRangeKernels, RangesShapesAndAliasingAreChecked) {
    Rng rng(62);
    Matrix m = random_matrix(6, 4, rng);
    EXPECT_THROW(rows_of(m, 4, 3), Error);
    EXPECT_THROW(rows_of(m, 2, 7), Error);
    EXPECT_EQ(rows_of(m, 2, 2).rows, 0u);

    const Matrix b = random_matrix(4, 5, rng);
    Matrix dst(6, 5);
    EXPECT_THROW(
        multiply_rows_into(rows_of(dst, 0, 3), rows_of(m, 0, 2), b), Error);
    EXPECT_THROW(multiply_rows_into(rows_of(dst, 0, 3), rows_of(m, 0, 3),
                                    random_matrix(3, 5, rng)),
                 Error);
    EXPECT_THROW(multiply_transposed_rows_into(rows_of(dst, 0, 3),
                                               rows_of(m, 0, 3), b),
                 Error);
    Matrix acc(4, 4);
    EXPECT_THROW(transpose_multiply_rows_accumulate(acc, rows_of(m, 0, 3),
                                                    rows_of(m, 0, 2)),
                 Error);
    EXPECT_THROW(transpose_multiply_rows_accumulate(acc, rows_of(m, 0, 3),
                                                    rows_of(dst, 0, 3)),
                 Error);
    EXPECT_THROW(axpy_rows(rows_of(m, 0, 2), 1.0, rows_of(dst, 0, 2)), Error);

    // Overlapping rows of one matrix alias; disjoint ones do not.
    Matrix sq = random_matrix(6, 6, rng);
    const Matrix sq_b = random_matrix(6, 6, rng);
    EXPECT_THROW(
        multiply_rows_into(rows_of(sq, 0, 3), rows_of(sq, 2, 5), sq_b),
        Error);
    EXPECT_NO_THROW(
        multiply_rows_into(rows_of(sq, 0, 3), rows_of(sq, 3, 6), sq_b));
    EXPECT_THROW(multiply_rows_into(rows_of(sq, 0, 3), rows_of(m, 0, 3), sq),
                 Error);
    Matrix square_acc = random_matrix(6, 6, rng);
    EXPECT_THROW(transpose_multiply_rows_accumulate(
                     square_acc, rows_of(square_acc, 0, 6), rows_of(sq, 0, 6)),
                 Error);

    Matrix mt = garbage(4, 6);
    transpose_into(mt, m);
    EXPECT_TRUE(mt == transpose(m));
    EXPECT_THROW(transpose_into(dst, m), Error);
}

// ---- The fast GEMM's FMA-chain contract ------------------------------
//
// On the AVX2 path each element of a GEMM — multiply_rows_into,
// multiply_into, transpose_multiply_into and
// transpose_multiply_rows_accumulate — is one FMA chain over ascending k,
// started at +0.0, or at dst's value when accumulating. That is why the
// register tiling and the row split cannot move the fast tier's bits.
// Each element is checked bit for bit against that chain in scalar
// std::fma. The row-range product writes into the first m rows of an
// (m+1)-row matrix whose last row holds sentinels, so a tile or a column
// mask that writes past the product fails too.

// s = init, then s = fma(a(q), b(q), s) for q = 0, 1, …, kdim − 1.
template <class A, class B>
double fma_chain(double init, std::size_t kdim, A a, B b) {
    double s = init;
    for (std::size_t q = 0; q < kdim; ++q) {
        s = std::fma(a(q), b(q), s);
    }
    return s;
}

TEST(FastGemm, EveryElementIsOneAscendingFmaChain) {
    if (std::string(fast_kernel_path()) != "avx2+fma") {
        GTEST_SKIP() << "path " << fast_kernel_path()
                     << ": the blocked fallback skips zero terms and "
                        "rounds each multiply and add apart";
    }
    const KernelTierScope tier(KernelTier::kFast);
    constexpr double kSentinel = -777.25;
    Rng rng(64);
    std::size_t mismatches = 0;
    // Counts every element whose bits differ from its chain; reports the
    // first few.
    const auto expect_bits = [&](double got, double want, const char* what,
                                 std::size_t m, std::size_t k, std::size_t n,
                                 std::size_t i, std::size_t j) {
        if (std::bit_cast<std::uint64_t>(got) ==
            std::bit_cast<std::uint64_t>(want)) {
            return;
        }
        if (++mismatches <= 8) {
            ADD_FAILURE() << what << " m=" << m << " k=" << k << " n=" << n
                          << " at (" << i << ", " << j << "): " << got
                          << " vs " << want;
        }
    };
    std::vector<std::size_t> widths;
    for (std::size_t n = 1; n <= 17; ++n) {
        widths.push_back(n);
    }
    widths.insert(widths.end(), {40, 48, 60, 240});
    for (const std::size_t m : {1, 2, 3, 4, 5, 7, 8, 9, 31, 32, 33}) {
        for (const std::size_t k : {0, 1, 13, 16, 40, 240}) {
            for (const std::size_t n : widths) {
                const Matrix b = random_matrix(k, n, rng);

                // a·b, whole and for m rows at offset 1 of a taller a.
                const Matrix a = random_matrix(m, k, rng);
                Matrix ab = garbage(m, n);
                multiply_into(ab, a, b);
                const Matrix tall = random_matrix(m + 1, k, rng);
                Matrix view = Matrix::constant(m + 1, n, kSentinel);
                multiply_rows_into(rows_of(view, 0, m),
                                   rows_of(tall, 1, m + 1), b);
                for (std::size_t i = 0; i < m; ++i) {
                    for (std::size_t j = 0; j < n; ++j) {
                        const auto b_col = [&](std::size_t q) {
                            return b(q, j);
                        };
                        expect_bits(
                            ab(i, j),
                            fma_chain(0.0, k,
                                      [&](std::size_t q) { return a(i, q); },
                                      b_col),
                            "multiply_into", m, k, n, i, j);
                        expect_bits(view(i, j),
                                    fma_chain(0.0, k,
                                              [&](std::size_t q) {
                                                  return tall(i + 1, q);
                                              },
                                              b_col),
                                    "multiply_rows_into", m, k, n, i, j);
                    }
                }
                for (std::size_t j = 0; j < n; ++j) {
                    expect_bits(view(m, j), kSentinel,
                                "multiply_rows_into sentinel", m, k, n, m, j);
                }

                // xᵀ·b (m x n), whole, and accumulated onto a nonzero dst
                // from the k rows at offset 1 of a taller x and b.
                const Matrix x = random_matrix(k, m, rng);
                Matrix xtb = garbage(m, n);
                transpose_multiply_into(xtb, x, b);
                const Matrix x_tall = random_matrix(k + 1, m, rng);
                const Matrix b_tall = random_matrix(k + 1, n, rng);
                const Matrix start = random_matrix(m, n, rng);
                Matrix acc = start;
                transpose_multiply_rows_accumulate(
                    acc, rows_of(x_tall, 1, k + 1), rows_of(b_tall, 1, k + 1));
                for (std::size_t i = 0; i < m; ++i) {
                    for (std::size_t j = 0; j < n; ++j) {
                        expect_bits(
                            xtb(i, j),
                            fma_chain(0.0, k,
                                      [&](std::size_t q) { return x(q, i); },
                                      [&](std::size_t q) { return b(q, j); }),
                            "transpose_multiply_into", m, k, n, i, j);
                        expect_bits(acc(i, j),
                                    fma_chain(start(i, j), k,
                                              [&](std::size_t q) {
                                                  return x_tall(q + 1, i);
                                              },
                                              [&](std::size_t q) {
                                                  return b_tall(q + 1, j);
                                              }),
                                    "transpose_multiply_rows_accumulate", m,
                                    k, n, i, j);
                    }
                }
            }
        }
    }
    EXPECT_EQ(mismatches, 0u);
}

TEST(KernelTiers, BlockedRandomizedSvdBitIdenticalUnderExactTier) {
    Rng rng(58);
    const Matrix a = random_matrix(30, 22, rng);
    const FactorPair plain = truncated_factors_randomized(a, 5, 8, 2, 777);
    const FactorPair blocked =
        truncated_factors_randomized_blocked(a, 5, 8, 2, 777);
    EXPECT_TRUE(plain.l == blocked.l);
    EXPECT_TRUE(plain.r == blocked.r);
}

TEST(KernelTiers, BlockedRandomizedSvdFastTierStaysClose) {
    Rng rng(59);
    const Matrix a = random_matrix(30, 22, rng);
    const FactorPair exact = truncated_factors_randomized_blocked(a, 5);
    KernelTierScope tier(KernelTier::kFast);
    const FactorPair fast = truncated_factors_randomized_blocked(a, 5);
    // The range finder feeds a warm start, not a final answer; kernel
    // rounding perturbs the subspace slightly, so the bound here is the
    // warm start's own tolerance, not the single-kernel 1e-12.
    EXPECT_LE(max_rel_dev(exact.l, fast.l), 1e-6);
    EXPECT_LE(max_rel_dev(exact.r, fast.r), 1e-6);
}

}  // namespace
}  // namespace mcs
