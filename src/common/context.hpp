// PipelineContext — per-run instrumentation threaded through every layer.
//
// One context accompanies one pipeline run (a CS solve, a full I(TS,CS)
// loop, a streaming window, an experiment grid cell). It carries:
//
//   * a deterministic Rng, so components that need randomness draw from one
//     seeded stream instead of hiding their own seeds,
//   * a phase-scoped timer stack (phase() opens a RAII scope; nested phases
//     accumulate inclusive time under their own name),
//   * monotonic counters for the events that dominate cost: Workspace
//     buffer allocations vs. recycled checkouts, GEMM FLOPs, Jacobi SVD
//     sweeps, ASD iterations, CS solves, framework iterations, and
//     DETECT/CHECK passes.
//
// Everything is nullable by convention: hot-path code receives a
// `PipelineContext*` that may be nullptr, and the helpers here (PhaseScope,
// counters_of) make the null case free.
//
// Ownership rule (the runtime subsystem's concurrency contract): a context
// is single-owner — at any instant at most one thread records into it.
// Concurrent pipelines each get their own context (one per shard in
// FleetRunner) and the results are combined *after* the joining barrier
// with merge(), which sums counters and folds phase timers. Ownership may
// hand off between threads at synchronisation points (a worker finishes a
// shard, the caller merges); what is forbidden is simultaneous use. Debug
// builds assert the rule: the first phase_begin() binds the context to the
// calling thread and later phase operations must come from that thread
// until merge()/reset() releases the binding.
#pragma once

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/stopwatch.hpp"

namespace mcs {

class HealthMonitor;
class Json;

/// Numerical kernel tier (DESIGN.md §13). The enum lives in common so the
/// PipelineContext can carry the selection without the common layer seeing
/// linalg; the dispatch machinery (scope, CPU detection, the fast paths
/// themselves) is in linalg/kernel_tier.hpp.
///
///   * kExact — the seed scalar loops, bit-for-bit identical to the
///     value-returning ops of linalg/ops.hpp. Default, and the reference
///     every equivalence test compares against.
///   * kFast — register-blocked, SIMD-vectorised kernels (AVX2/FMA, NEON,
///     or a blocked-scalar fallback) with a fixed, thread-count-independent
///     reduction order: deterministic run-to-run and across --threads on a
///     given machine/path, but not bit-identical to kExact (FMA contraction
///     and vector-lane reduction round differently; ≤1e-12 relative).
enum class KernelTier : std::uint8_t { kExact = 0, kFast = 1 };

/// "exact" / "fast".
const char* to_string(KernelTier tier);
/// Inverse of to_string; throws mcs::Error on anything else.
KernelTier parse_kernel_tier(const std::string& name);

/// Monotonic event counters. Plain struct so the linalg layer can bump them
/// without seeing the full context (see Workspace).
struct PipelineCounters {
    std::uint64_t workspace_allocations = 0;  ///< fresh buffers created
    std::uint64_t workspace_checkouts = 0;    ///< acquisitions (incl. reuse)
    std::uint64_t gemm_flops = 0;             ///< 2·m·n·k per product (total)
    /// Per-kernel splits of gemm_flops (the four GEMM-shaped kernels;
    /// gram_with_ridge counts under transpose_multiply, its inner product).
    std::uint64_t flops_multiply = 0;
    std::uint64_t flops_multiply_transposed = 0;
    std::uint64_t flops_transpose_multiply = 0;
    std::uint64_t flops_masked_residual = 0;
    std::uint64_t svd_sweeps = 0;             ///< one-sided Jacobi sweeps
    std::uint64_t asd_iterations = 0;         ///< ASD outer iterations
    std::uint64_t cs_solves = 0;              ///< cs_reconstruct calls
    std::uint64_t itscs_iterations = 0;       ///< framework iterations
    std::uint64_t detect_passes = 0;          ///< TS_Detect axis passes
    std::uint64_t check_passes = 0;           ///< Check() axis passes
    std::uint64_t guard_trips = 0;            ///< HealthMonitor failures
    std::uint64_t shard_retries = 0;          ///< degradation-ladder retries
    std::uint64_t shards_degraded = 0;        ///< shards below kNominal
    std::uint64_t checkpoint_commits = 0;     ///< shard frames journaled
    std::uint64_t checkpoint_shards_resumed = 0;  ///< shards restored, not run
    std::uint64_t checkpoint_corrupt_frames = 0;  ///< journal frames lost
    std::uint64_t participants_quarantined = 0;   ///< rows entering quarantine
    std::uint64_t defense_trips = 0;          ///< defence tests that fired
    std::uint64_t quarantine_reinstated = 0;  ///< rows cleared by the re-test
    std::uint64_t shards_stolen = 0;          ///< shards run off-owner deque
    std::uint64_t slab_shards_streamed = 0;   ///< shards staged from slabs
};

/// Accumulated inclusive wall time for one named phase.
struct PhaseStat {
    std::string name;
    std::uint64_t calls = 0;
    double seconds = 0.0;
};

/// Instrumentation carried through a pipeline run.
class PipelineContext {
public:
    explicit PipelineContext(std::uint64_t seed = 0x17c5u);

    Rng& rng() { return rng_; }
    PipelineCounters& counters() { return counters_; }
    const PipelineCounters& counters() const { return counters_; }

    /// Numeric health guard for the current solve attempt; null (the
    /// default) means unguarded — guarded code must treat it exactly like
    /// the nullable context itself. The monitor is borrowed, not owned:
    /// the attaching caller (FleetRunner's ladder, a test) keeps it alive
    /// for the duration of the attempt and detaches afterwards. Not
    /// carried across merge().
    void set_health(HealthMonitor* monitor) { health_ = monitor; }
    HealthMonitor* health() { return health_; }

    /// Kernel tier this context's pipeline ran under. Recorded by the
    /// pipeline entry points (run_itscs / cs_reconstruct observe the
    /// ambient linalg tier; FleetRunner stamps its RuntimeConfig choice)
    /// so --stats-json reports what actually executed. merge() keeps any
    /// non-exact record: a fleet that ran any shard on the fast tier
    /// reports that tier.
    KernelTier kernel_tier() const { return kernel_tier_; }
    void set_kernel_tier(KernelTier tier) { kernel_tier_ = tier; }

    /// Open/close a named timing phase. Phases nest; time is attributed
    /// inclusively to every open phase, keyed by name (first-seen order is
    /// preserved in phase_stats() and the JSON report).
    void phase_begin(std::string name);
    void phase_end();

    /// RAII phase scope; a null context makes it a no-op.
    class PhaseScope {
    public:
        PhaseScope(PipelineContext* ctx, const char* name) : ctx_(ctx) {
            if (ctx_ != nullptr) {
                ctx_->phase_begin(name);
            }
        }
        ~PhaseScope() {
            if (ctx_ != nullptr) {
                ctx_->phase_end();
            }
        }
        PhaseScope(const PhaseScope&) = delete;
        PhaseScope& operator=(const PhaseScope&) = delete;

    private:
        PipelineContext* ctx_;
    };

    /// Accumulated per-phase totals, in first-use order.
    const std::vector<PhaseStat>& phase_stats() const { return stats_; }

    /// Fold another (quiescent) context into this one: counters are
    /// summed and each of `other`'s phases is added to the phase of the
    /// same name here (appended in `other`'s order when unseen). Both
    /// contexts must have no open phases; `other` is left untouched and
    /// neither RNG stream moves. Merging in a fixed order (FleetRunner
    /// merges by shard index) keeps the aggregate report deterministic.
    /// Also a thread-ownership release point in debug builds.
    void merge(const PipelineContext& other);

    /// merge() for instrumentation that no longer has a live context: fold
    /// externally recorded counter and phase deltas into this one (a
    /// resumed shard's journaled totals — see persist/checkpoint.hpp).
    /// Requires no open phases here; does not bind thread ownership.
    void absorb(const PipelineCounters& counters,
                const std::vector<PhaseStat>& phases);

    /// Zero all counters and phase totals (the RNG stream is untouched).
    void reset();

    /// {"counters": {...}, "phases": [{"name", "calls", "seconds"}, ...]}.
    Json to_json() const;

private:
    struct OpenPhase {
        std::size_t stat_index;
        Stopwatch timer;
    };

    std::size_t stat_index(const std::string& name);
    void assert_owner();

    Rng rng_;
    PipelineCounters counters_;
    HealthMonitor* health_ = nullptr;
    KernelTier kernel_tier_ = KernelTier::kExact;
    std::vector<PhaseStat> stats_;
    std::vector<OpenPhase> open_;
#ifndef NDEBUG
    std::thread::id owner_;  // bound by first phase op, cleared at merge/reset
#endif
};

/// Counters of a nullable context (nullptr when ctx is null) — the common
/// plumbing idiom: `Workspace ws(counters_of(ctx));`.
inline PipelineCounters* counters_of(PipelineContext* ctx) {
    return ctx != nullptr ? &ctx->counters() : nullptr;
}

}  // namespace mcs
