// Output-parameter kernels and the Workspace scratch-buffer arena.
//
// The value-returning ops in linalg/ops.hpp allocate a fresh Matrix per
// call, which is fine for one-shot use but makes iterative solvers (the ASD
// inner loop, the I(TS,CS) framework loop) allocate every gradient, Gram
// matrix and residual on every iteration. The `_into` kernels here write
// into a caller-provided destination instead; paired with a Workspace that
// recycles scratch buffers, a steady-state loop performs zero heap
// allocations after its first (warm-up) iteration.
//
// Contracts shared by every `_into` kernel:
//   * dst must already have the result shape — kernels never resize
//     (MCS_CHECK at entry), because a silent resize is a silent allocation;
//   * dst is fully overwritten, so stale contents of a recycled buffer
//     never leak through;
//   * dst must not alias any input (axpy's y and copy_into's trivial
//     self-copy excepted) — MCS_CHECK-rejected at entry;
//   * under the default KernelTier::kExact, results are bit-for-bit
//     identical to the matching value-returning op (same loop order, same
//     rounding) — asserted by linalg_kernels_test. Under KernelTier::kFast
//     (see linalg/kernel_tier.hpp) the GEMM-shaped kernels, hadamard_into
//     and axpy dispatch to SIMD micro-kernels that agree to ≤1e-12
//     relative and are deterministic run-to-run and across thread counts.
//   * every kernel runs serially on the calling thread; FleetRunner's
//     shard workers are the only parallelism.
//
// GEMM-shaped kernels take an optional PipelineCounters* and add 2·m·n·k
// FLOPs per product, so instrumented pipelines can report arithmetic volume.
#pragma once

#include <cstddef>
#include <vector>

#include "common/context.hpp"
#include "linalg/matrix.hpp"

namespace mcs {

/// dst = src (same shape).
void copy_into(Matrix& dst, const Matrix& src);

/// dst = a − b (same shape).
void subtract_into(Matrix& dst, const Matrix& a, const Matrix& b);

/// dst = a ∘ b, element-wise product (same shape).
void hadamard_into(Matrix& dst, const Matrix& a, const Matrix& b);

/// y += alpha · x (same shape). The in-place update of the BLAS axpy.
void axpy(Matrix& y, double alpha, const Matrix& x);

/// dst = a · b (a.cols == b.rows; dst is a.rows x b.cols).
void multiply_into(Matrix& dst, const Matrix& a, const Matrix& b,
                   PipelineCounters* counters = nullptr);

/// dst = a · bᵀ without forming the transpose (a.cols == b.cols).
void multiply_transposed_into(Matrix& dst, const Matrix& a, const Matrix& b,
                              PipelineCounters* counters = nullptr);

/// dst = aᵀ · b without forming the transpose (a.rows == b.rows).
void transpose_multiply_into(Matrix& dst, const Matrix& a, const Matrix& b,
                             PipelineCounters* counters = nullptr);

/// dst = (l · rᵀ) ∘ mask − s, the masked CS fitting residual (see
/// linalg/ops.hpp masked_residual for the shape contract).
void masked_residual_into(Matrix& dst, const Matrix& l, const Matrix& r,
                          const Matrix& mask, const Matrix& s,
                          PipelineCounters* counters = nullptr);

/// dst = aᵀa + ridge·I (dst is a.cols x a.cols).
void gram_with_ridge_into(Matrix& dst, const Matrix& a, double ridge,
                          PipelineCounters* counters = nullptr);

/// dst = srcᵀ (dst is src.cols x src.rows).
void transpose_into(Matrix& dst, const Matrix& src);

// ---- Row-range forms ---------------------------------------------------
//
// The blocked ASD half step (cs/objective.hpp) walks its n×t data a few
// rows at a time, so its products come in row ranges: rows [lo, hi) of a
// product from rows [lo, hi) of its tall operands, or a product
// accumulated over consecutive row ranges. A range is named by a
// Rows / ConstRows view of some matrix's consecutive rows — of an n-row
// operand, or of a small block buffer the caller fills.
//
// The contracts are those of the whole-matrix kernels above, stated on the
// views: shapes MCS_CHECKed, no overlap between dst and an input, FLOPs
// counted under the kernel's own split (2·rows·n·k per call, so a product
// taken in ranges counts what it counts whole), and the same tier
// dispatch. Each whole-matrix kernel is one call of the same code over
// [0, rows), and the arithmetic for any one element does not depend on
// the range it was computed in, so a product taken in ranges has exactly
// the bits of the product taken whole, under either tier.

/// Consecutive rows of a row-major matrix, not owned: `rows` rows of
/// `cols` doubles starting at `data`. Made by rows_of().
struct ConstRows {
    const double* data = nullptr;
    std::size_t rows = 0;
    std::size_t cols = 0;
};
struct Rows {
    double* data = nullptr;
    std::size_t rows = 0;
    std::size_t cols = 0;
    operator ConstRows() const { return {data, rows, cols}; }
};

/// Rows [lo, hi) of `m` (MCS_CHECK: lo ≤ hi ≤ m.rows()).
Rows rows_of(Matrix& m, std::size_t lo, std::size_t hi);
ConstRows rows_of(const Matrix& m, std::size_t lo, std::size_t hi);

/// dst = a · b for a block of rows (dst.rows == a.rows, a.cols == b.rows).
void multiply_rows_into(Rows dst, ConstRows a, const Matrix& b,
                        PipelineCounters* counters = nullptr);

/// dst = a · bᵀ for a block of rows (dst.rows == a.rows, a.cols == b.cols).
void multiply_transposed_rows_into(Rows dst, ConstRows a, const Matrix& b,
                                   PipelineCounters* counters = nullptr);

/// dst += aᵀ · b over a block of rows (a.rows == b.rows; dst is
/// a.cols x b.cols). Zeroing dst and then accumulating consecutive row
/// ranges in order gives the bits of transpose_multiply_into.
void transpose_multiply_rows_accumulate(Matrix& dst, ConstRows a,
                                        ConstRows b,
                                        PipelineCounters* counters = nullptr);

/// y += alpha · x over a block of rows (same shape).
void axpy_rows(Rows y, double alpha, ConstRows x);

/// Recycling arena for scratch matrices.
///
/// acquire() returns a Matrix of the requested shape, reusing a pooled
/// buffer when one with that exact shape is free and allocating otherwise;
/// release() returns the buffer to the pool. Contents of an acquired buffer
/// are unspecified — every `_into` kernel fully overwrites its destination,
/// so this never matters in practice.
///
/// A Workspace may be bound to a PipelineCounters, in which case every
/// acquire() bumps workspace_checkouts and every pool miss bumps
/// workspace_allocations — the counter pair behind the "zero allocations
/// after warm-up" regression test and the perf_pipeline JSON report.
///
/// Ownership rule: the arena is single-owner — not thread-safe, one
/// Workspace per solver instance / per worker. Ownership may hand off
/// between threads at synchronisation points (FleetRunner's workers each
/// keep a long-lived arena and the runner clear()s them after the joining
/// barrier); what is forbidden is concurrent use. Long-lived owners should
/// clear() between independent runs: the pool retains every
/// distinct-shape buffer ever released (its high-water mark), and a
/// worker that just processed an oversized shard would otherwise pin that
/// peak memory forever.
class Workspace {
public:
    explicit Workspace(PipelineCounters* counters = nullptr)
        : counters_(counters) {}

    /// Check out a rows x cols buffer (pooled if available, else fresh).
    Matrix acquire(std::size_t rows, std::size_t cols);

    /// Return a buffer to the pool for later reuse.
    void release(Matrix&& m);

    /// Drop every pooled buffer (checked-out buffers are unaffected),
    /// releasing the arena's high-water-mark scratch back to the heap.
    /// Call between independent runs on long-lived workers; created() is
    /// a lifetime total and keeps counting across clears.
    void clear();

    PipelineCounters* counters() const { return counters_; }

    /// Buffers currently sitting in the pool.
    std::size_t pooled() const { return pool_.size(); }
    /// Fresh allocations made by this workspace over its lifetime.
    std::size_t created() const { return created_; }

private:
    std::vector<Matrix> pool_;
    PipelineCounters* counters_;
    std::size_t created_ = 0;
};

/// RAII lease of one Workspace buffer: acquires on construction, releases
/// on destruction. Dereference (*s / s->) to reach the Matrix.
class Scratch {
public:
    Scratch(Workspace& ws, std::size_t rows, std::size_t cols)
        : ws_(ws), m_(ws.acquire(rows, cols)) {}
    ~Scratch() { ws_.release(std::move(m_)); }
    Scratch(const Scratch&) = delete;
    Scratch& operator=(const Scratch&) = delete;

    Matrix& operator*() { return m_; }
    const Matrix& operator*() const { return m_; }
    Matrix* operator->() { return &m_; }
    const Matrix* operator->() const { return &m_; }

private:
    Workspace& ws_;
    Matrix m_;
};

}  // namespace mcs
