#include "linalg/kernels.hpp"

#include <utility>

#include "common/check.hpp"
#include "linalg/kernel_tier.hpp"
#include "linalg/kernels_fast.hpp"
#include "linalg/kernels_mixed.hpp"

namespace mcs {

namespace {

void check_shape(const Matrix& m, std::size_t rows, std::size_t cols,
                 const char* op) {
    MCS_CHECK_MSG(m.rows() == rows && m.cols() == cols,
                  std::string(op) + ": dst must be " + std::to_string(rows) +
                      "x" + std::to_string(cols) + ", got " +
                      m.shape_string());
}

// Matrices own their storage, so dst aliases an input exactly when they
// share a buffer. Empty matrices share the null buffer harmlessly.
void check_not_aliased(const Matrix& dst, const Matrix& in, const char* op) {
    MCS_CHECK_MSG(dst.empty() || dst.data().data() != in.data().data(),
                  std::string(op) + ": dst must not alias an input");
}

// Attribute 2·m·n·k FLOPs to the aggregate counter and the kernel's own
// split (`slot`) so --stats-json can apportion arithmetic volume.
void add_gemm_flops(PipelineCounters* counters,
                    std::uint64_t PipelineCounters::* slot, std::size_t m,
                    std::size_t n, std::size_t k) {
    if (counters != nullptr) {
        const std::uint64_t flops =
            2ull * static_cast<std::uint64_t>(m) *
            static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(k);
        counters->gemm_flops += flops;
        counters->*slot += flops;
    }
}

RowExecutor* g_row_executor = nullptr;
std::size_t g_row_block_threshold = kKernelRowBlockThreshold;

// Run `body` over [0, rows): through the installed executor when the
// destination is tall enough to amortise dispatch, serially otherwise.
// Counters are never touched inside `body` — callers bump them once on
// their own thread after the loop.
void for_rows_maybe_parallel(
    std::size_t rows,
    const std::function<void(std::size_t, std::size_t)>& body) {
    RowExecutor* executor = g_row_executor;
    if (executor == nullptr || rows < g_row_block_threshold) {
        body(0, rows);
        return;
    }
    executor->for_rows(rows, body);
}

// Tier of the calling thread, read once at kernel entry — the row-block
// bodies below capture the already-made choice, so RowExecutor pool
// threads (whose own thread-local tier is untouched) still run the tier
// the caller selected.
//
// The mixed tier routes per kernel shape (DESIGN.md §18): the three
// data-sized products (multiply, multiply_transposed, masked_residual)
// take the float32 path, while transpose_multiply — the Gram formation
// feeding ridge + Cholesky — and every element-wise op stay on the
// float64 fast path. That is the "float32 data/factors, float64
// Gram/Cholesky accumulation" split of mixed-precision ASD.
bool use_fast_tier() { return active_kernel_tier() != KernelTier::kExact; }
bool use_mixed_tier() { return active_kernel_tier() == KernelTier::kMixed; }

}  // namespace

void set_kernel_row_executor(RowExecutor* executor) {
    g_row_executor = executor;
}

RowExecutor* kernel_row_executor() { return g_row_executor; }

std::size_t kernel_row_block_threshold() { return g_row_block_threshold; }

void set_kernel_row_block_threshold(std::size_t threshold) {
    g_row_block_threshold =
        threshold == 0 ? kKernelRowBlockThreshold : threshold;
}

void copy_into(Matrix& dst, const Matrix& src) {
    check_shape(dst, src.rows(), src.cols(), "copy_into");
    const auto in = src.data();
    auto out = dst.data();
    for (std::size_t k = 0; k < in.size(); ++k) {
        out[k] = in[k];
    }
}

void subtract_into(Matrix& dst, const Matrix& a, const Matrix& b) {
    MCS_CHECK_MSG(a.rows() == b.rows() && a.cols() == b.cols(),
                  "subtract_into: shape mismatch " + a.shape_string() +
                      " vs " + b.shape_string());
    check_shape(dst, a.rows(), a.cols(), "subtract_into");
    check_not_aliased(dst, a, "subtract_into");
    check_not_aliased(dst, b, "subtract_into");
    const auto da = a.data();
    const auto db = b.data();
    auto out = dst.data();
    if (use_fast_tier()) {
        fastk::fast_kernels().subtract(out.data(), da.data(), db.data(),
                                       out.size());
        return;
    }
    for (std::size_t k = 0; k < da.size(); ++k) {
        out[k] = da[k] - db[k];
    }
}

void hadamard_into(Matrix& dst, const Matrix& a, const Matrix& b) {
    MCS_CHECK_MSG(a.rows() == b.rows() && a.cols() == b.cols(),
                  "hadamard_into: shape mismatch " + a.shape_string() +
                      " vs " + b.shape_string());
    check_shape(dst, a.rows(), a.cols(), "hadamard_into");
    check_not_aliased(dst, a, "hadamard_into");
    check_not_aliased(dst, b, "hadamard_into");
    const auto da = a.data();
    const auto db = b.data();
    auto out = dst.data();
    if (use_fast_tier()) {
        fastk::fast_kernels().hadamard(out.data(), da.data(), db.data(),
                                       out.size());
        return;
    }
    for (std::size_t k = 0; k < da.size(); ++k) {
        out[k] = da[k] * db[k];
    }
}

void axpy(Matrix& y, double alpha, const Matrix& x) {
    check_shape(y, x.rows(), x.cols(), "axpy");
    const auto dx = x.data();
    auto dy = y.data();
    if (use_fast_tier()) {
        fastk::fast_kernels().axpy(dy.data(), alpha, dx.data(), dy.size());
        return;
    }
    for (std::size_t k = 0; k < dx.size(); ++k) {
        dy[k] += alpha * dx[k];
    }
}

void multiply_into(Matrix& dst, const Matrix& a, const Matrix& b,
                   PipelineCounters* counters) {
    MCS_CHECK_MSG(a.cols() == b.rows(),
                  "multiply_into: inner dimensions differ: " +
                      a.shape_string() + " * " + b.shape_string());
    check_shape(dst, a.rows(), b.cols(), "multiply_into");
    check_not_aliased(dst, a, "multiply_into");
    check_not_aliased(dst, b, "multiply_into");
    if (use_mixed_tier()) {
        auto* mk = &mixedk::mixed_kernels();
        auto& st = mixedk::mixed_staging();
        const std::size_t m = a.rows();
        const std::size_t kdim = a.cols();
        const std::size_t n = b.cols();
        st.a.resize(m * kdim);
        st.b.resize(kdim * n);
        st.out.resize(m * n);
        mixedk::demote(a.data().data(), st.a.data(), st.a.size());
        mixedk::demote(b.data().data(), st.b.data(), st.b.size());
        float* out = st.out.data();
        const float* pa = st.a.data();
        const float* pb = st.b.data();
        for_rows_maybe_parallel(m, [=](std::size_t lo, std::size_t hi) {
            mk->multiply_rows(out, pa, pb, lo, hi, kdim, n);
        });
        mixedk::promote(st.out.data(), dst.data().data(), st.out.size());
        add_gemm_flops(counters, &PipelineCounters::flops_multiply, a.rows(),
                       b.cols(), a.cols());
        return;
    }
    if (use_fast_tier()) {
        auto* fk = &fastk::fast_kernels();
        const std::size_t kdim = a.cols();
        const std::size_t n = b.cols();
        double* out = dst.data().data();
        const double* pa = a.data().data();
        const double* pb = b.data().data();
        for_rows_maybe_parallel(
            a.rows(), [=](std::size_t lo, std::size_t hi) {
                fk->multiply_rows(out, pa, pb, lo, hi, kdim, n);
            });
        add_gemm_flops(counters, &PipelineCounters::flops_multiply, a.rows(),
                       b.cols(), a.cols());
        return;
    }
    // Same i-k-j order as ops.cpp multiply() so results match bit-for-bit;
    // each dst row is produced by exactly one block, so the row-parallel
    // path is bit-identical too.
    for_rows_maybe_parallel(a.rows(), [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
            auto out = dst.row(i);
            for (double& v : out) {
                v = 0.0;
            }
            for (std::size_t k = 0; k < a.cols(); ++k) {
                const double aik = a(i, k);
                if (aik == 0.0) {
                    continue;
                }
                for (std::size_t j = 0; j < b.cols(); ++j) {
                    out[j] += aik * b(k, j);
                }
            }
        }
    });
    add_gemm_flops(counters, &PipelineCounters::flops_multiply, a.rows(),
                   b.cols(), a.cols());
}

void multiply_transposed_into(Matrix& dst, const Matrix& a, const Matrix& b,
                              PipelineCounters* counters) {
    MCS_CHECK_MSG(a.cols() == b.cols(),
                  "multiply_transposed_into: inner dimensions differ: " +
                      a.shape_string() + " * " + b.shape_string() + "ᵀ");
    check_shape(dst, a.rows(), b.rows(), "multiply_transposed_into");
    check_not_aliased(dst, a, "multiply_transposed_into");
    check_not_aliased(dst, b, "multiply_transposed_into");
    if (use_mixed_tier()) {
        auto* mk = &mixedk::mixed_kernels();
        auto& st = mixedk::mixed_staging();
        const std::size_t m = a.rows();
        const std::size_t kdim = a.cols();
        const std::size_t n = b.rows();
        st.a.resize(m * kdim);
        st.b.resize(n * kdim);
        st.out.resize(m * n);
        mixedk::demote(a.data().data(), st.a.data(), st.a.size());
        mixedk::demote(b.data().data(), st.b.data(), st.b.size());
        float* out = st.out.data();
        const float* pa = st.a.data();
        const float* pb = st.b.data();
        for_rows_maybe_parallel(m, [=](std::size_t lo, std::size_t hi) {
            mk->multiply_transposed_rows(out, pa, pb, lo, hi, n, kdim);
        });
        mixedk::promote(st.out.data(), dst.data().data(), st.out.size());
        add_gemm_flops(counters,
                       &PipelineCounters::flops_multiply_transposed, a.rows(),
                       b.rows(), a.cols());
        return;
    }
    if (use_fast_tier()) {
        auto* fk = &fastk::fast_kernels();
        const std::size_t kdim = a.cols();
        const std::size_t n = b.rows();
        double* out = dst.data().data();
        const double* pa = a.data().data();
        const double* pb = b.data().data();
        for_rows_maybe_parallel(
            a.rows(), [=](std::size_t lo, std::size_t hi) {
                fk->multiply_transposed_rows(out, pa, pb, lo, hi, n, kdim);
            });
        add_gemm_flops(counters,
                       &PipelineCounters::flops_multiply_transposed, a.rows(),
                       b.rows(), a.cols());
        return;
    }
    for_rows_maybe_parallel(a.rows(), [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
            const auto ra = a.row(i);
            for (std::size_t j = 0; j < b.rows(); ++j) {
                const auto rb = b.row(j);
                double acc = 0.0;
                for (std::size_t k = 0; k < ra.size(); ++k) {
                    acc += ra[k] * rb[k];
                }
                dst(i, j) = acc;
            }
        }
    });
    add_gemm_flops(counters, &PipelineCounters::flops_multiply_transposed,
                   a.rows(), b.rows(), a.cols());
}

void transpose_multiply_into(Matrix& dst, const Matrix& a, const Matrix& b,
                             PipelineCounters* counters) {
    MCS_CHECK_MSG(a.rows() == b.rows(),
                  "transpose_multiply_into: inner dimensions differ: " +
                      a.shape_string() + "ᵀ * " + b.shape_string());
    check_shape(dst, a.cols(), b.cols(), "transpose_multiply_into");
    check_not_aliased(dst, a, "transpose_multiply_into");
    check_not_aliased(dst, b, "transpose_multiply_into");
    if (use_fast_tier()) {
        fastk::fast_kernels().transpose_multiply(
            dst.data().data(), a.data().data(), b.data().data(), a.rows(),
            a.cols(), b.cols());
        add_gemm_flops(counters,
                       &PipelineCounters::flops_transpose_multiply, a.cols(),
                       b.cols(), a.rows());
        return;
    }
    dst.fill(0.0);
    for (std::size_t k = 0; k < a.rows(); ++k) {
        const auto ra = a.row(k);
        const auto rb = b.row(k);
        for (std::size_t i = 0; i < ra.size(); ++i) {
            const double aki = ra[i];
            if (aki == 0.0) {
                continue;
            }
            for (std::size_t j = 0; j < rb.size(); ++j) {
                dst(i, j) += aki * rb[j];
            }
        }
    }
    add_gemm_flops(counters, &PipelineCounters::flops_transpose_multiply,
                   a.cols(), b.cols(), a.rows());
}

void masked_residual_into(Matrix& dst, const Matrix& l, const Matrix& r,
                          const Matrix& mask, const Matrix& s,
                          PipelineCounters* counters) {
    MCS_CHECK_MSG(l.cols() == r.cols(),
                  "masked_residual_into: factor ranks differ: " +
                      l.shape_string() + " vs " + r.shape_string());
    MCS_CHECK_MSG(mask.rows() == l.rows() && mask.cols() == r.rows(),
                  "masked_residual_into: mask shape mismatch");
    MCS_CHECK_MSG(mask.rows() == s.rows() && mask.cols() == s.cols(),
                  "masked_residual_into: mask/S shape mismatch");
    check_shape(dst, mask.rows(), mask.cols(), "masked_residual_into");
    check_not_aliased(dst, l, "masked_residual_into");
    check_not_aliased(dst, r, "masked_residual_into");
    check_not_aliased(dst, mask, "masked_residual_into");
    check_not_aliased(dst, s, "masked_residual_into");
    if (use_mixed_tier()) {
        auto* mk = &mixedk::mixed_kernels();
        auto& st = mixedk::mixed_staging();
        const std::size_t m = mask.rows();
        const std::size_t n = mask.cols();
        const std::size_t rank = l.cols();
        st.a.resize(m * rank);
        st.b.resize(r.rows() * rank);
        st.c.resize(m * n);
        st.d.resize(m * n);
        st.out.resize(m * n);
        mixedk::demote(l.data().data(), st.a.data(), st.a.size());
        mixedk::demote(r.data().data(), st.b.data(), st.b.size());
        mixedk::demote(mask.data().data(), st.c.data(), st.c.size());
        mixedk::demote(s.data().data(), st.d.data(), st.d.size());
        float* out = st.out.data();
        const float* pl = st.a.data();
        const float* pr = st.b.data();
        const float* pm = st.c.data();
        const float* ps = st.d.data();
        for_rows_maybe_parallel(m, [=](std::size_t lo, std::size_t hi) {
            mk->masked_residual_rows(out, pl, pr, pm, ps, lo, hi, n, rank);
        });
        mixedk::promote(st.out.data(), dst.data().data(), st.out.size());
        add_gemm_flops(counters, &PipelineCounters::flops_masked_residual,
                       mask.rows(), mask.cols(), l.cols());
        return;
    }
    if (use_fast_tier()) {
        auto* fk = &fastk::fast_kernels();
        const std::size_t n = mask.cols();
        const std::size_t rank = l.cols();
        double* out = dst.data().data();
        const double* pl = l.data().data();
        const double* pr = r.data().data();
        const double* pm = mask.data().data();
        const double* ps = s.data().data();
        for_rows_maybe_parallel(
            mask.rows(), [=](std::size_t lo, std::size_t hi) {
                fk->masked_residual_rows(out, pl, pr, pm, ps, lo, hi, n,
                                         rank);
            });
        add_gemm_flops(counters, &PipelineCounters::flops_masked_residual,
                       mask.rows(), mask.cols(), l.cols());
        return;
    }
    for_rows_maybe_parallel(mask.rows(), [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
            const auto li = l.row(i);
            for (std::size_t j = 0; j < mask.cols(); ++j) {
                if (mask(i, j) != 0.0) {
                    const auto rj = r.row(j);
                    double acc = 0.0;
                    for (std::size_t k = 0; k < li.size(); ++k) {
                        acc += li[k] * rj[k];
                    }
                    dst(i, j) = acc * mask(i, j) - s(i, j);
                } else {
                    dst(i, j) = -s(i, j);
                }
            }
        }
    });
    add_gemm_flops(counters, &PipelineCounters::flops_masked_residual,
                   mask.rows(), mask.cols(), l.cols());
}

void gram_with_ridge_into(Matrix& dst, const Matrix& a, double ridge,
                          PipelineCounters* counters) {
    MCS_CHECK_MSG(ridge >= 0.0, "gram_with_ridge_into: negative ridge");
    transpose_multiply_into(dst, a, a, counters);
    for (std::size_t i = 0; i < dst.rows(); ++i) {
        dst(i, i) += ridge;
    }
}

Matrix Workspace::acquire(std::size_t rows, std::size_t cols) {
    if (counters_ != nullptr) {
        counters_->workspace_checkouts += 1;
    }
    for (std::size_t k = pool_.size(); k > 0; --k) {
        Matrix& candidate = pool_[k - 1];
        if (candidate.rows() == rows && candidate.cols() == cols) {
            Matrix out = std::move(candidate);
            pool_.erase(pool_.begin() +
                        static_cast<std::ptrdiff_t>(k - 1));
            return out;
        }
    }
    if (counters_ != nullptr) {
        counters_->workspace_allocations += 1;
    }
    ++created_;
    return Matrix(rows, cols);
}

void Workspace::release(Matrix&& m) {
    if (m.empty()) {
        return;  // nothing worth pooling (e.g. a moved-from buffer)
    }
    pool_.push_back(std::move(m));
}

void Workspace::clear() { pool_.clear(); }

}  // namespace mcs
