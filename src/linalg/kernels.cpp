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

}  // namespace

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
    if (use_fast_tier()) {
        fastk::fast_kernels().multiply_rows(
            dst.data().data(), a.data().data(), b.data().data(), 0,
            a.rows(), a.cols(), b.cols());
        add_gemm_flops(counters, &PipelineCounters::flops_multiply, a.rows(),
                       b.cols(), a.cols());
        return;
    }
    // Same i-k-j order as ops.cpp multiply() so results match bit-for-bit.
    for (std::size_t i = 0; i < a.rows(); ++i) {
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
    if (use_fast_tier()) {
        fastk::fast_kernels().multiply_transposed_rows(
            dst.data().data(), a.data().data(), b.data().data(), 0,
            a.rows(), b.rows(), a.cols());
        add_gemm_flops(counters,
                       &PipelineCounters::flops_multiply_transposed, a.rows(),
                       b.rows(), a.cols());
        return;
    }
    for (std::size_t i = 0; i < a.rows(); ++i) {
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
