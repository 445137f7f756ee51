#include "linalg/kernels.hpp"

#include <utility>

#include "common/check.hpp"
#include "linalg/kernel_tier.hpp"
#include "linalg/kernels_fast.hpp"

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

bool use_fast_tier() { return active_kernel_tier() == KernelTier::kFast; }

// The same checks on row-range views: a view's shape, and that dst shares
// no element with an input.
void check_rows(ConstRows m, std::size_t rows, std::size_t cols,
                const char* what, const char* op) {
    MCS_CHECK_MSG(m.rows == rows && m.cols == cols,
                  std::string(op) + ": " + what + " must be " +
                      std::to_string(rows) + "x" + std::to_string(cols) +
                      ", got " + std::to_string(m.rows) + "x" +
                      std::to_string(m.cols));
}

void check_disjoint(ConstRows dst, ConstRows in, const char* op) {
    const double* dst_end = dst.data + dst.rows * dst.cols;
    const double* in_end = in.data + in.rows * in.cols;
    MCS_CHECK_MSG(dst.data == dst_end || in.data == in_end ||
                      dst_end <= in.data || in_end <= dst.data,
                  std::string(op) + ": dst must not alias an input");
}

ConstRows whole(const Matrix& m) { return rows_of(m, 0, m.rows()); }

// The kernel bodies, on raw row-major blocks. Every whole-matrix kernel
// and every row-range form runs exactly one of these.

// dst(rows x n) = a(rows x kdim) · b(kdim x n).
void multiply_block(double* dst, const double* a, const double* b,
                    std::size_t rows, std::size_t kdim, std::size_t n) {
    if (use_fast_tier()) {
        fastk::fast_kernels().multiply_rows(dst, a, b, 0, rows, kdim, n);
        return;
    }
    // Same i-k-j order as ops.cpp multiply() so results match bit-for-bit.
    for (std::size_t i = 0; i < rows; ++i) {
        double* out = dst + i * n;
        const double* ai = a + i * kdim;
        for (std::size_t j = 0; j < n; ++j) {
            out[j] = 0.0;
        }
        for (std::size_t k = 0; k < kdim; ++k) {
            const double aik = ai[k];
            if (aik == 0.0) {
                continue;
            }
            const double* bk = b + k * n;
            for (std::size_t j = 0; j < n; ++j) {
                out[j] += aik * bk[j];
            }
        }
    }
}

// dst(rows x n) = a(rows x kdim) · b(n x kdim)ᵀ.
void multiply_transposed_block(double* dst, const double* a, const double* b,
                               std::size_t rows, std::size_t n,
                               std::size_t kdim) {
    if (use_fast_tier()) {
        fastk::fast_kernels().multiply_transposed_rows(dst, a, b, 0, rows, n,
                                                       kdim);
        return;
    }
    for (std::size_t i = 0; i < rows; ++i) {
        const double* ai = a + i * kdim;
        for (std::size_t j = 0; j < n; ++j) {
            const double* bj = b + j * kdim;
            double acc = 0.0;
            for (std::size_t k = 0; k < kdim; ++k) {
                acc += ai[k] * bj[k];
            }
            dst[i * n + j] = acc;
        }
    }
}

// dst(acols x bcols) (+)= a(m x acols)ᵀ · b(m x bcols).
void transpose_multiply_block(double* dst, const double* a, const double* b,
                              std::size_t m, std::size_t acols,
                              std::size_t bcols, bool accumulate) {
    if (use_fast_tier()) {
        fastk::fast_kernels().transpose_multiply(dst, a, b, m, acols, bcols,
                                                 accumulate);
        return;
    }
    for (std::size_t p = 0; p < acols * bcols && !accumulate; ++p) {
        dst[p] = 0.0;
    }
    for (std::size_t k = 0; k < m; ++k) {
        const double* ak = a + k * acols;
        const double* bk = b + k * bcols;
        for (std::size_t i = 0; i < acols; ++i) {
            const double aki = ak[i];
            if (aki == 0.0) {
                continue;
            }
            double* out = dst + i * bcols;
            for (std::size_t j = 0; j < bcols; ++j) {
                out[j] += aki * bk[j];
            }
        }
    }
}

// y[k] += alpha · x[k] for k in [0, size).
void axpy_block(double* y, double alpha, const double* x, std::size_t size) {
    if (use_fast_tier()) {
        fastk::fast_kernels().axpy(y, alpha, x, size);
        return;
    }
    for (std::size_t k = 0; k < size; ++k) {
        y[k] += alpha * x[k];
    }
}

}  // namespace

Rows rows_of(Matrix& m, std::size_t lo, std::size_t hi) {
    MCS_CHECK_MSG(lo <= hi && hi <= m.rows(),
                  "rows_of: rows [" + std::to_string(lo) + ", " +
                      std::to_string(hi) + ") outside " + m.shape_string());
    return {m.data().data() + lo * m.cols(), hi - lo, m.cols()};
}

ConstRows rows_of(const Matrix& m, std::size_t lo, std::size_t hi) {
    MCS_CHECK_MSG(lo <= hi && hi <= m.rows(),
                  "rows_of: rows [" + std::to_string(lo) + ", " +
                      std::to_string(hi) + ") outside " + m.shape_string());
    return {m.data().data() + lo * m.cols(), hi - lo, m.cols()};
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
    axpy_block(y.data().data(), alpha, x.data().data(), y.size());
}

void multiply_into(Matrix& dst, const Matrix& a, const Matrix& b,
                   PipelineCounters* counters) {
    MCS_CHECK_MSG(a.cols() == b.rows(),
                  "multiply_into: inner dimensions differ: " +
                      a.shape_string() + " * " + b.shape_string());
    check_shape(dst, a.rows(), b.cols(), "multiply_into");
    check_not_aliased(dst, a, "multiply_into");
    check_not_aliased(dst, b, "multiply_into");
    multiply_block(dst.data().data(), a.data().data(), b.data().data(),
                   a.rows(), a.cols(), b.cols());
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
    multiply_transposed_block(dst.data().data(), a.data().data(),
                              b.data().data(), a.rows(), b.rows(), a.cols());
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
    transpose_multiply_block(dst.data().data(), a.data().data(),
                             b.data().data(), a.rows(), a.cols(), b.cols(),
                             false);
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
    if (use_fast_tier()) {
        fastk::fast_kernels().masked_residual_rows(
            dst.data().data(), l.data().data(), r.data().data(),
            mask.data().data(), s.data().data(), 0, mask.rows(), mask.cols(),
            l.cols());
        add_gemm_flops(counters, &PipelineCounters::flops_masked_residual,
                       mask.rows(), mask.cols(), l.cols());
        return;
    }
    for (std::size_t i = 0; i < mask.rows(); ++i) {
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

void transpose_into(Matrix& dst, const Matrix& src) {
    check_shape(dst, src.cols(), src.rows(), "transpose_into");
    check_not_aliased(dst, src, "transpose_into");
    for (std::size_t i = 0; i < src.rows(); ++i) {
        for (std::size_t j = 0; j < src.cols(); ++j) {
            dst(j, i) = src(i, j);
        }
    }
}

void multiply_rows_into(Rows dst, ConstRows a, const Matrix& b,
                        PipelineCounters* counters) {
    MCS_CHECK_MSG(a.cols == b.rows(),
                  "multiply_rows_into: inner dimensions differ: " +
                      std::to_string(a.cols) + " vs " + b.shape_string());
    check_rows(dst, a.rows, b.cols(), "dst", "multiply_rows_into");
    check_disjoint(dst, a, "multiply_rows_into");
    check_disjoint(dst, whole(b), "multiply_rows_into");
    multiply_block(dst.data, a.data, b.data().data(), a.rows, a.cols,
                   b.cols());
    add_gemm_flops(counters, &PipelineCounters::flops_multiply, a.rows,
                   b.cols(), a.cols);
}

void multiply_transposed_rows_into(Rows dst, ConstRows a, const Matrix& b,
                                   PipelineCounters* counters) {
    MCS_CHECK_MSG(a.cols == b.cols(),
                  "multiply_transposed_rows_into: inner dimensions differ: " +
                      std::to_string(a.cols) + " vs " + b.shape_string() +
                      "ᵀ");
    check_rows(dst, a.rows, b.rows(), "dst", "multiply_transposed_rows_into");
    check_disjoint(dst, a, "multiply_transposed_rows_into");
    check_disjoint(dst, whole(b), "multiply_transposed_rows_into");
    multiply_transposed_block(dst.data, a.data, b.data().data(), a.rows,
                              b.rows(), a.cols);
    add_gemm_flops(counters, &PipelineCounters::flops_multiply_transposed,
                   a.rows, b.rows(), a.cols);
}

void transpose_multiply_rows_accumulate(Matrix& dst, ConstRows a,
                                        ConstRows b,
                                        PipelineCounters* counters) {
    check_rows(b, a.rows, b.cols, "b", "transpose_multiply_rows_accumulate");
    check_shape(dst, a.cols, b.cols, "transpose_multiply_rows_accumulate");
    check_disjoint(whole(dst), a, "transpose_multiply_rows_accumulate");
    check_disjoint(whole(dst), b, "transpose_multiply_rows_accumulate");
    transpose_multiply_block(dst.data().data(), a.data, b.data, a.rows,
                             a.cols, b.cols, true);
    add_gemm_flops(counters, &PipelineCounters::flops_transpose_multiply,
                   a.cols, b.cols, a.rows);
}

void axpy_rows(Rows y, double alpha, ConstRows x) {
    check_rows(y, x.rows, x.cols, "y", "axpy_rows");
    axpy_block(y.data, alpha, x.data, y.rows * y.cols);
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
