#include "runtime/fleet_runner.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <utility>

#include "common/check.hpp"
#include "common/hash.hpp"
#include "common/json.hpp"
#include "common/topology.hpp"
#include "corruption/chaos.hpp"
#include "cs/interpolation.hpp"
#include "detect/detection.hpp"
#include "linalg/kernel_tier.hpp"
#include "linalg/temporal.hpp"
#include "persist/checkpoint.hpp"

namespace mcs {

namespace {

std::size_t resolve_threads(std::size_t requested) {
    if (requested != 0) {
        return requested;
    }
    // Effective CPUs (the sched_getaffinity mask), not
    // hardware_concurrency: a pinned or containerised process sizing
    // itself to the machine oversubscribes its own allowance.
    return effective_cpu_count();
}

// The runtime-knob half of the checkpoint resume handshake (the other two
// fingerprints — input bytes and ItscsConfig — live in core). Covers every
// RuntimeConfig field that can change the merged numerics or the failure
// record. Deliberately excluded: threads (never affects results),
// shard_size / shard_count / remainder (the manifest stores the
// *resolved* plan row ranges, which is the stronger check), checkpoint_dir
// and resume themselves, health.deadline_seconds (wall-clock and therefore
// machine-dependent; a deadline trip is already recorded in the journaled
// shard record), and chaos crash_after_commits (the crash seam must not
// stop a clean `--resume` from accepting the crashed run's manifest).
std::uint64_t runtime_fingerprint(const RuntimeConfig& config) {
    Fnv1a h;
    h.mix_u64(config.seed);
    h.mix_u64(config.guard ? 1 : 0);
    // kernel_tier changes the numerics and is *also* stored as an explicit
    // manifest field (clearer refusal message than a fingerprint mismatch).
    h.mix_u64(static_cast<std::uint64_t>(config.kernel_tier));
    h.mix_u64(config.health.divergence_patience);
    h.mix_f64(config.health.divergence_slack);
    if (config.chaos != nullptr && !config.chaos->config().idle()) {
        const ChaosConfig& c = config.chaos->config();
        h.mix_f64(c.nan_velocity);
        h.mix_f64(c.inf_coordinate);
        h.mix_f64(c.duplicate_rows);
        h.mix_f64(c.force_divergence);
        h.mix_f64(c.task_throw);
        h.mix_f64(c.cell_fraction);
        h.mix_u64(c.seed);
    }
    // The adversary rewrites the fleet input before sharding, so the input
    // fingerprint already covers its *effect* — but mixing the spec too
    // gives a resume refusal that names the real cause (a changed spec)
    // instead of a generic input mismatch.
    if (config.adversary != nullptr && !config.adversary->spec().idle()) {
        const AdversarySpec& a = config.adversary->spec();
        h.mix_u64(a.collude);
        h.mix_u64(a.outage);
        h.mix_u64(a.outage_span);
        h.mix_f64(a.outage_noise_m);
        h.mix_u64(a.replay);
        h.mix_u64(a.replay_shift);
        h.mix_u64(a.seed);
    }
    // The defence decides which rows' observations reach the final solve,
    // so a journal written under one spec must not seed a run under
    // another — resume recomputes analyze() + the honest solve and then
    // restores the final solve's shards, which is only sound when the
    // recomputed quarantine matches the journaled one.
    if (config.defense != nullptr && !config.defense->spec().idle()) {
        const DefenseSpec& d = config.defense->spec();
        h.mix_f64(d.collusion);
        h.mix_f64(d.radius);
        h.mix_f64(d.replay);
        h.mix_u64(d.replay_span);
        h.mix_u64(d.outage);
        h.mix_u64(d.outage_span);
        h.mix_f64(d.reinstate);
        h.mix_f64(d.max_quarantine);
    }
    return h.digest();
}

// Ladder rung 1's solver settings: heavier regularisation, half the rank,
// twice the iteration budget — trade reconstruction fidelity for the best
// odds of a finite, convergent solve on data that already failed once.
ItscsConfig conservative_config(const ItscsConfig& config, std::size_t rows,
                                std::size_t cols) {
    ItscsConfig c = config;
    c.cs.lambda1 = std::max(config.cs.lambda1 * 100.0, 1e-3);
    const std::size_t base = config.cs.rank > 0
                                 ? config.cs.rank
                                 : recommended_rank(rows, cols,
                                                    config.cs.mode);
    c.cs.rank = std::max<std::size_t>(2, base / 2);
    c.cs.asd.max_iterations = config.cs.asd.max_iterations * 2;
    return c;
}

// Clear ℰ on every observed cell where any of the four matrices is
// non-finite and zero the cell everywhere, so the retry solves a strictly
// smaller but well-posed problem. Returns the number of cells cleared.
std::size_t sanitize_non_finite(ItscsInput& in) {
    std::size_t cleared = 0;
    for (std::size_t i = 0; i < in.existence.rows(); ++i) {
        for (std::size_t j = 0; j < in.existence.cols(); ++j) {
            if (in.existence(i, j) == 0.0) {
                continue;
            }
            if (!std::isfinite(in.sx(i, j)) || !std::isfinite(in.sy(i, j)) ||
                !std::isfinite(in.vx(i, j)) || !std::isfinite(in.vy(i, j))) {
                in.existence(i, j) = 0.0;
                in.sx(i, j) = 0.0;
                in.sy(i, j) = 0.0;
                in.vx(i, j) = 0.0;
                in.vy(i, j) = 0.0;
                ++cleared;
            }
        }
    }
    return cleared;
}

// Copy the shard's member rows of `src` into the shard-sized `dst` —
// contiguous [begin, end) for row plans, the explicit member list for
// by_cell shards.
void slice_rows(Matrix& dst, const Matrix& src, const Shard& shard) {
    const std::size_t rows = shard.size();
    for (std::size_t k = 0; k < rows; ++k) {
        const auto in = src.row(shard.row_at(k));
        auto out = dst.row(k);
        std::copy(in.begin(), in.end(), out.begin());
    }
}

// Copy the shard-sized `src` back into the shard's member rows of the
// fleet-sized `dst`. Shards are disjoint row sets, so concurrent scatters
// from different workers touch disjoint memory.
void scatter_rows(Matrix& dst, const Matrix& src, const Shard& shard) {
    const std::size_t rows = shard.size();
    for (std::size_t k = 0; k < rows; ++k) {
        const auto in = src.row(k);
        auto out = dst.row(shard.row_at(k));
        std::copy(in.begin(), in.end(), out.begin());
    }
}

// Remove the listed participants' observations: their rows stay in the
// fleet (the shard plan must not move) but contribute no trusted cells to
// any solve.
void mask_rows(ItscsInput& input, const std::vector<std::size_t>& rows) {
    for (const std::size_t i : rows) {
        for (std::size_t j = 0; j < input.existence.cols(); ++j) {
            input.existence(i, j) = 0.0;
            input.sx(i, j) = 0.0;
            input.sy(i, j) = 0.0;
            input.vx(i, j) = 0.0;
            input.vy(i, j) = 0.0;
        }
    }
}

// Missing-not-faulty: clear detection flags on the dark cells of every
// classified outage block, so an availability incident is never charged
// against detection precision.
void apply_outage_labels(Matrix& detection, const Matrix& existence,
                         const DefenseReport& report) {
    for (const OutageBlock& block : report.outages) {
        const std::size_t row_end =
            std::min(detection.rows(), block.first_row + block.rows);
        const std::size_t col_end =
            std::min(detection.cols(), block.first_slot + block.slots);
        for (std::size_t i = block.first_row; i < row_end; ++i) {
            for (std::size_t j = block.first_slot; j < col_end; ++j) {
                if (existence(i, j) == 0.0) {
                    detection(i, j) = 0.0;
                }
            }
        }
    }
}

// Everything between "staged shard input ready" and "shard result ready":
// the unguarded single solve, or the guarded degradation ladder of
// DESIGN.md §11 (nominal → conservative → interpolation → detect-only).
// `si` is the shard's staged input — mutated by chaos and sanitisation —
// and `sctx` its private context.
void run_shard_ladder(const RuntimeConfig& rcfg, const ItscsConfig& config,
                      std::size_t s, ItscsInput& si, PipelineContext& sctx,
                      ShardRunReport& report, ItscsResult& result) {
    const std::size_t rows = si.sx.rows();
    const std::size_t t = si.sx.cols();

    if (!rcfg.guard) {
        result = run_itscs(si, config, {}, &sctx);
        report.iterations = result.iterations;
        report.converged = result.converged;
        return;
    }

    // Chaos strikes before the first attempt only: the ladder's lower
    // rungs recover from the poisoned state, they are not re-poisoned.
    ShardChaosPlan chaos_plan;
    if (rcfg.chaos != nullptr) {
        chaos_plan = rcfg.chaos->plan(s);
        rcfg.chaos->apply(chaos_plan, si.sx, si.sy, si.vx, si.vy,
                          si.existence);
    }

    HealthMonitor monitor(rcfg.health);

    // Strict per-shard input scan under the monitor (the fleet boundary
    // only checked shapes).
    auto scan_input = [&]() {
        const struct {
            const Matrix* m;
            const char* name;
        } mats[] = {{&si.sx, "S_X"},
                    {&si.sy, "S_Y"},
                    {&si.vx, "Vx"},
                    {&si.vy, "Vy"}};
        for (const auto& entry : mats) {
            const auto hit = find_non_finite(*entry.m, si.existence);
            if (hit.has_value()) {
                monitor.fail(FailureKind::kNonFiniteInput, "validate", 0,
                             std::string(entry.name) +
                                 " non-finite at row " +
                                 std::to_string(hit->first) + ", col " +
                                 std::to_string(hit->second));
                return false;
            }
        }
        return true;
    };

    // One guarded solver attempt. No exception leaves this lambda:
    // anything thrown becomes a kTaskException report, so the pool
    // worker never unwinds.
    auto solve = [&](const ItscsConfig& cfg, bool first_attempt) {
        monitor.arm(s);
        if (first_attempt && chaos_plan.diverge_after > 0) {
            monitor.inject_failure(FailureKind::kObjectiveDivergence,
                                   chaos_plan.diverge_after);
        }
        sctx.set_health(&monitor);
        try {
            if (first_attempt && chaos_plan.throw_task) {
                throw Error("chaos: injected task failure");
            }
            if (scan_input()) {
                result = run_itscs(si, cfg, {}, &sctx);
            }
        } catch (const std::exception& e) {
            monitor.fail(FailureKind::kTaskException, "run_itscs", 0,
                         e.what());
        } catch (...) {
            monitor.fail(FailureKind::kTaskException, "run_itscs", 0,
                         "non-standard exception");
        }
        sctx.set_health(nullptr);
        return !monitor.tripped();
    };

    auto record_failure = [&]() {
        report.failures.push_back(monitor.report());
        sctx.counters().guard_trips += 1;
    };

    // Rung 2: no solver at all — per-row linear interpolation over the
    // sanitized trusted cells, finite by construction.
    auto interpolate_fallback = [&]() {
        monitor.arm(s);
        try {
            result = ItscsResult{};
            result.detection = Matrix(rows, t);
            result.reconstructed_x = linear_interpolate(si.sx, si.existence);
            result.reconstructed_y = linear_interpolate(si.sy, si.existence);
            return true;
        } catch (const std::exception& e) {
            monitor.fail(FailureKind::kTaskException, "interpolate", 0,
                         e.what());
            return false;
        }
    };

    // Rung 3, cannot fail: pass the sanitized readings through untouched
    // and salvage one plain DETECT pass if it runs.
    auto detect_only_fallback = [&]() {
        result = ItscsResult{};
        result.reconstructed_x = si.sx;
        result.reconstructed_y = si.sy;
        try {
            const Matrix zeros(rows, t);
            Matrix dx = ts_detect(si.sx, zeros, average_velocity(si.vx),
                                  Matrix::constant(rows, t, 1.0),
                                  si.existence, si.tau_s, config.detector,
                                  true, &sctx);
            Matrix dy = ts_detect(si.sy, zeros, average_velocity(si.vy),
                                  Matrix::constant(rows, t, 1.0),
                                  si.existence, si.tau_s, config.detector,
                                  true, &sctx);
            result.detection = detection_union(dx, dy);
        } catch (const std::exception&) {
            result.detection = Matrix(rows, t);
        }
    };

    // Walk the ladder until a rung holds.
    DegradationLevel level = DegradationLevel::kNominal;
    bool ok = solve(config, true);
    if (!ok) {
        record_failure();
        sanitize_non_finite(si);
        sctx.counters().shard_retries += 1;
        level = DegradationLevel::kConservative;
        ++report.attempts;
        ok = solve(conservative_config(config, rows, t), false);
    }
    if (!ok) {
        record_failure();
        level = DegradationLevel::kInterpolation;
        ++report.attempts;
        ok = interpolate_fallback();
    }
    if (!ok) {
        record_failure();
        level = DegradationLevel::kDetectOnly;
        ++report.attempts;
        detect_only_fallback();
    }

    if (level != DegradationLevel::kNominal) {
        sctx.counters().shards_degraded += 1;
    }
    report.level = level;
    report.iterations = result.iterations;
    report.converged =
        level == DegradationLevel::kNominal && result.converged;
}

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

// Where a shard's rows come from and where its results go: the one thing
// an in-core run and a streamed run do differently. run_shards owns
// everything else, so the two stay bit-identical by construction.
class ShardIo {
public:
    virtual ~ShardIo() = default;

    virtual const std::vector<Shard>& shards() const = 0;
    virtual std::size_t slots() const = 0;

    // The manifest's shape, input and plan fields.
    virtual void describe(CheckpointManifest& manifest) const = 0;

    // Check a journaled record's result payload against this source and,
    // when it holds, take the shard's rows from it. False makes the record
    // count as a corrupt frame.
    virtual bool restore(std::size_t s, const ShardCheckpoint& record) = 0;

    // Fill the arena buffers of `si` with shard s's input. `next` is the
    // shard this worker runs after s, or kNone.
    virtual void stage(std::size_t s, std::size_t next, ItscsInput& si) = 0;

    virtual void write(std::size_t s, ItscsResult& result,
                       PipelineContext& sctx) = 0;

    // The result payload of shard s's journal record.
    virtual void journal(std::size_t s, const ItscsResult& result,
                         ShardCheckpoint& record) const = 0;

    // Shard s is committed and its staging buffers are back in the arena.
    virtual void evict(std::size_t s) = 0;
};

// In-core source/sink: slices shard rows out of the fleet matrices and
// scatters results into the fleet-sized aggregate, which only this class
// allocates. Journal records carry the shard's result matrices.
class InCoreShards final : public ShardIo {
public:
    InCoreShards(const ItscsInput& input, const ShardPlan& plan,
                 ItscsResult& aggregate)
        : input_(input), plan_(plan), aggregate_(aggregate) {
        const std::size_t n = input.sx.rows();
        const std::size_t t = input.sx.cols();
        aggregate.detection = Matrix(n, t);
        aggregate.reconstructed_x = Matrix(n, t);
        aggregate.reconstructed_y = Matrix(n, t);
    }

    const std::vector<Shard>& shards() const override {
        return plan_.shards();
    }
    std::size_t slots() const override { return input_.sx.cols(); }

    void describe(CheckpointManifest& manifest) const override {
        manifest.participants = input_.sx.rows();
        manifest.slots = slots();
        manifest.input_fingerprint = input_.fingerprint();
        manifest.planner = to_string(plan_.mode());
        manifest.plan_fingerprint = plan_.fingerprint();
    }

    bool restore(std::size_t s, const ShardCheckpoint& record) override {
        const std::size_t rows = shards()[s].size();
        const auto fits = [&](const Matrix& m) {
            return m.rows() == rows && m.cols() == slots();
        };
        if (record.outputs_in_slab || !fits(record.detection) ||
            !fits(record.reconstructed_x) || !fits(record.reconstructed_y)) {
            return false;
        }
        scatter(s, record.detection, record.reconstructed_x,
                record.reconstructed_y);
        return true;
    }

    void stage(std::size_t s, std::size_t /*next*/,
               ItscsInput& si) override {
        const Shard& shard = shards()[s];
        slice_rows(si.sx, input_.sx, shard);
        slice_rows(si.sy, input_.sy, shard);
        slice_rows(si.vx, input_.vx, shard);
        slice_rows(si.vy, input_.vy, shard);
        slice_rows(si.existence, input_.existence, shard);
        si.tau_s = input_.tau_s;
    }

    void write(std::size_t s, ItscsResult& result,
               PipelineContext& /*sctx*/) override {
        scatter(s, result.detection, result.reconstructed_x,
                result.reconstructed_y);
    }

    void journal(std::size_t /*s*/, const ItscsResult& result,
                 ShardCheckpoint& record) const override {
        record.detection = result.detection;
        record.reconstructed_x = result.reconstructed_x;
        record.reconstructed_y = result.reconstructed_y;
    }

    void evict(std::size_t /*s*/) override {}

private:
    // Shards are disjoint row sets, so concurrent scatters from different
    // workers touch disjoint memory.
    void scatter(std::size_t s, const Matrix& detection, const Matrix& x,
                 const Matrix& y) {
        const Shard& shard = shards()[s];
        scatter_rows(aggregate_.detection, detection, shard);
        scatter_rows(aggregate_.reconstructed_x, x, shard);
        scatter_rows(aggregate_.reconstructed_y, y, shard);
    }

    const ItscsInput& input_;
    const ShardPlan& plan_;
    ItscsResult& aggregate_;
};

// Slab source/sink (DESIGN.md §18): shard inputs are read from the store's
// mmap and results written to its output slabs, so no fleet-sized matrix
// is ever allocated. Journal records carry the output slab's CRC, and a
// committed shard's pages leave the resident window.
class SlabShards final : public ShardIo {
public:
    explicit SlabShards(SlabStore& store) : store_(store) {
        // The store's plan is authoritative — the runner's planner knobs
        // shaped it at ingest time.
        const std::vector<SlabShardInfo>& infos = store.shards();
        shards_.resize(infos.size());
        for (std::size_t s = 0; s < infos.size(); ++s) {
            shards_[s].index = s;
            shards_[s].begin = infos[s].begin;
            shards_[s].end = infos[s].end;
            shards_[s].rows = infos[s].rows;
        }
    }

    const std::vector<Shard>& shards() const override { return shards_; }
    std::size_t slots() const override { return store_.geometry().slots; }

    void describe(CheckpointManifest& manifest) const override {
        const SlabGeometry& geometry = store_.geometry();
        manifest.participants = geometry.participants;
        manifest.slots = geometry.slots;
        manifest.input_fingerprint = geometry.input_fingerprint;
        manifest.planner =
            to_string(static_cast<PlannerMode>(geometry.planner_mode));
        manifest.plan_fingerprint = geometry.plan_fingerprint;
        manifest.storage = to_string(geometry.tier);
        manifest.slab_max_rows = geometry.max_shard_rows;
    }

    // The record holds metadata plus the output slab's CRC, so the slab
    // itself must still hold the committed bytes. A torn or lost slab
    // (open() zero-extends) fails the CRC and the shard re-runs: the
    // corrupt-frame discipline, one layer down.
    bool restore(std::size_t s, const ShardCheckpoint& record) override {
        return record.outputs_in_slab &&
               record.output_slab_crc == store_.output_crc(s);
    }

    void stage(std::size_t s, std::size_t next, ItscsInput& si) override {
        // Overlap the next scheduled shard's page-in with this shard's
        // compute; madvise does the rest.
        if (next != kNone) {
            store_.prefetch_inputs(next);
        }
        double* mats[kSlabInputMatrices] = {
            si.sx.data().data(), si.sy.data().data(), si.vx.data().data(),
            si.vy.data().data(), si.existence.data().data()};
        store_.read_inputs(s, mats);
        si.tau_s = store_.geometry().tau_s;
    }

    void write(std::size_t s, ItscsResult& result,
               PipelineContext& sctx) override {
        const double* mats[kSlabOutputMatrices] = {
            result.detection.data().data(),
            result.reconstructed_x.data().data(),
            result.reconstructed_y.data().data()};
        store_.write_outputs(s, mats);
        sctx.counters().slab_shards_streamed += 1;
    }

    void journal(std::size_t s, const ItscsResult& /*result*/,
                 ShardCheckpoint& record) const override {
        record.outputs_in_slab = true;
        record.output_slab_crc = store_.output_crc(s);
    }

    void evict(std::size_t s) override { store_.evict(s); }

private:
    SlabStore& store_;
    std::vector<Shard> shards_;
};

// The shard loop behind run() and run_streamed(): per-shard seeds and
// contexts, the checkpoint handshake and journal restore, the ladder, the
// commit and its crash seam, the work-stealing
// dispatch, and the merge in shard order. `journaled` gates the durable
// journal: only the *final* solve of a defended run checkpoints (the
// intermediate honest solve is recomputed on resume — it is deterministic,
// and journaling it would double the store for no recovery value).
void run_shards(const RuntimeConfig& rcfg, ThreadPool* pool,
                std::size_t threads, std::vector<Workspace>& workspaces,
                ShardIo& io, const ItscsConfig& config, bool journaled,
                PipelineContext* ctx, FleetResult& out) {
    const std::vector<Shard>& shards = io.shards();
    const std::size_t count = shards.size();
    const std::size_t t = io.slots();

    // Per-shard seeds drawn by index on this thread: the decomposition's
    // seeds never depend on which worker runs which shard, nor on where
    // the shard's rows are stored.
    Rng root(rcfg.seed);
    std::vector<std::uint64_t> seeds(count);
    for (std::size_t s = 0; s < count; ++s) {
        seeds[s] = root.next_u64();
    }
    std::vector<PipelineContext> contexts;
    contexts.reserve(count);
    for (std::size_t s = 0; s < count; ++s) {
        contexts.emplace_back(seeds[s]);
        // Stamp the configured tier up front so even shards that never
        // run (restored from a checkpoint) report what the run used.
        contexts.back().set_kernel_tier(rcfg.kernel_tier);
    }

    out.shards.resize(count);
    std::vector<std::vector<ItscsIterationStats>> histories(count);

    // ---- durable checkpoint: open the store, restore what survived ----
    CheckpointSummary& cp = out.checkpoint;
    std::unique_ptr<CheckpointStore> store;
    std::vector<bool> restored(count, false);
    if (journaled && !rcfg.checkpoint_dir.empty()) {
        cp.enabled = true;
        store = std::make_unique<CheckpointStore>(rcfg.checkpoint_dir);

        CheckpointManifest manifest;
        io.describe(manifest);
        manifest.config_fingerprint = config_fingerprint(config);
        manifest.runtime_fingerprint = runtime_fingerprint(rcfg);
        manifest.kernel_tier = rcfg.kernel_tier;
        for (const Shard& shard : shards) {
            manifest.shards.emplace_back(shard.begin, shard.end);
            manifest.shard_members.push_back(shard.members_fingerprint());
        }

        if (rcfg.resume && store->has_manifest()) {
            // Handshake: a fingerprint or plan mismatch means the journal
            // belongs to a different run — resuming it would fabricate
            // results, so refuse loudly instead of quietly starting over.
            const std::string why = manifest.mismatch(store->read_manifest());
            MCS_CHECK_MSG(why.empty(),
                          "checkpoint resume refused (" + why +
                              "); delete " + rcfg.checkpoint_dir +
                              " or drop --resume to start over");

            CheckpointLoad load = store->load();
            cp.corrupt_frames = load.corrupt_frames;
            cp.torn_tail = load.torn_tail;
            cp.journal_failures = std::move(load.failures);

            for (auto& [index, record] : load.shards) {
                // The frame had a valid CRC and decoded, but its contents
                // must still agree with the recomputed plan and seeds, and
                // its payload with the source — anything else is treated
                // exactly like a corrupt frame: dropped, reported, and the
                // shard re-run.
                const bool consistent =
                    index < count &&
                    record.row_begin == shards[index].begin &&
                    record.row_end == shards[index].end &&
                    record.members_fingerprint ==
                        shards[index].members_fingerprint() &&
                    record.seed == seeds[index] && io.restore(index, record);
                if (!consistent) {
                    ++cp.corrupt_frames;
                    FailureReport bad;
                    bad.kind = FailureKind::kCheckpointCorrupt;
                    bad.phase = "journal";
                    bad.shard = index;
                    bad.detail =
                        "journaled record contradicts the recomputed plan/"
                        "seed or its result payload failed verification; "
                        "shard will re-run";
                    cp.journal_failures.push_back(std::move(bad));
                    continue;
                }

                ShardRunReport& report = out.shards[index];
                report.shard = shards[index];
                report.seed = record.seed;
                report.iterations = record.iterations;
                report.converged = record.converged;
                report.level = static_cast<DegradationLevel>(record.level);
                report.attempts = record.attempts;
                report.failures = std::move(record.failures);
                histories[index] = std::move(record.history);

                // Fold the original process's instrumentation into the
                // shard's (otherwise untouched) context so the merged
                // report still covers the work that was actually done.
                contexts[index].absorb(record.counters, record.phases);
                contexts[index].counters().checkpoint_shards_resumed += 1;

                restored[index] = true;
                ++cp.shards_loaded;
            }
        } else {
            store->begin(manifest);
        }
    }

    std::vector<std::size_t> pending;
    pending.reserve(count);
    for (std::size_t s = 0; s < count; ++s) {
        if (!restored[s]) {
            pending.push_back(s);
        }
    }
    if (cp.enabled) {
        cp.shards_run = pending.size();
    }

    auto run_shard = [&](std::size_t s, std::size_t next) {
        // The tier is thread-local ambient state, so each worker installs
        // it per shard.
        KernelTierScope tier_scope(rcfg.kernel_tier);
        const Shard& shard = shards[s];
        const std::size_t rows = shard.size();
        const std::size_t worker = ThreadPool::worker_index();
        Workspace& ws = workspaces[worker == kNone ? 0 : worker];

        // Stage the shard's input in the worker's arena: a worker running
        // several same-shaped shards allocates the staging buffers once.
        ItscsInput si;
        si.sx = ws.acquire(rows, t);
        si.sy = ws.acquire(rows, t);
        si.vx = ws.acquire(rows, t);
        si.vy = ws.acquire(rows, t);
        si.existence = ws.acquire(rows, t);
        io.stage(s, next, si);

        ShardRunReport& report = out.shards[s];
        report.shard = shard;
        report.seed = seeds[s];

        ItscsResult result;
        run_shard_ladder(rcfg, config, s, si, contexts[s], report, result);
        io.write(s, result, contexts[s]);

        if (store != nullptr) {
            // Count the commit first so the journaled counter snapshot
            // includes it — a resumed run then reports the commit the
            // original process made.
            contexts[s].counters().checkpoint_commits += 1;

            ShardCheckpoint record;
            record.shard_index = s;
            record.row_begin = shard.begin;
            record.row_end = shard.end;
            record.members_fingerprint = shard.members_fingerprint();
            record.seed = seeds[s];
            record.iterations = report.iterations;
            record.converged = report.converged;
            record.level = static_cast<std::uint32_t>(report.level);
            record.attempts = report.attempts;
            record.failures = report.failures;
            io.journal(s, result, record);
            record.history = result.history;
            record.counters = contexts[s].counters();
            record.phases = contexts[s].phase_stats();

            const std::size_t crash_after =
                rcfg.chaos != nullptr
                    ? rcfg.chaos->config().crash_after_commits
                    : 0;
            store->commit(record, [crash_after](std::size_t ordinal) {
                // Chaos crash seam: die *after* the k-th frame is flushed,
                // while still holding the journal lock — the journal holds
                // exactly k complete frames, at any thread count.
                if (crash_after > 0 && ordinal == crash_after) {
                    std::abort();
                }
            });
        }

        histories[s] = std::move(result.history);

        ws.release(std::move(si.sx));
        ws.release(std::move(si.sy));
        ws.release(std::move(si.vx));
        ws.release(std::move(si.vy));
        ws.release(std::move(si.existence));
        io.evict(s);
    };

    // Work-stealing schedule (runtime/work_steal.hpp), inline without a
    // pool: scheduling decides where a shard runs, never what it computes
    // — the merge below stays in shard order, so output is bit-identical
    // at any thread count.
    out.steals = steal_run(pool, threads, pending.size(),
                           [&](std::size_t k, std::size_t next) {
                               run_shard(pending[k], next == kNone
                                                         ? kNone
                                                         : pending[next]);
                           });

    // ---- joining barrier passed: single-threaded from here on ----

    // Merge instrumentation in shard order (deterministic report), then
    // release every arena's high-water scratch so long-lived workers do
    // not pin the peak of this run.
    if (ctx != nullptr) {
        for (const PipelineContext& shard_ctx : contexts) {
            ctx->merge(shard_ctx);
        }
        // Frame losses and steal totals belong to the run, not to any one
        // shard's context.
        ctx->counters().checkpoint_corrupt_frames += cp.corrupt_frames;
        ctx->counters().shards_stolen += out.steals.stolen_items;
    }
    for (Workspace& ws : workspaces) {
        ws.clear();
    }

    // Aggregate diagnostics: iterations is the slowest shard, converged
    // the conjunction, history the per-iteration sum over shards (shards
    // already converged contribute nothing to later iterations).
    out.aggregate.converged = true;
    for (const ShardRunReport& report : out.shards) {
        out.aggregate.iterations =
            std::max(out.aggregate.iterations, report.iterations);
        out.aggregate.converged =
            out.aggregate.converged && report.converged;
    }
    out.aggregate.history.resize(out.aggregate.iterations);
    for (std::size_t k = 0; k < out.aggregate.iterations; ++k) {
        ItscsIterationStats& merged = out.aggregate.history[k];
        merged.iteration = k + 1;
        for (const auto& history : histories) {
            if (k < history.size()) {
                merged.flagged += history[k].flagged;
                merged.detection_changes += history[k].detection_changes;
                merged.cs_objective_x += history[k].cs_objective_x;
                merged.cs_objective_y += history[k].cs_objective_y;
            }
        }
    }
}

}  // namespace

FleetRunner::FleetRunner(RuntimeConfig config)
    : config_(config), threads_(resolve_threads(config.threads)) {
    if (config_.threads == 0 && config_.shard_size == 0 &&
        config_.shard_count == 0) {
        // With no plan the decomposition is one shard per resolved worker,
        // and with threads = 0 that is the machine's CPU count, so results
        // move with the hardware. An explicit thread count fixes the plan.
        // Loud enough to notice, quiet enough not to fail anything.
        std::fprintf(stderr,
                     "itscs: warning: shard plan defaulting to one shard "
                     "per worker thread (%zu); set --shard-size or "
                     "--shard-count for machine-independent results\n",
                     threads_);
    }
    if (threads_ > 1) {
        pool_ = std::make_unique<ThreadPool>(threads_);
    }
    // One arena per worker (the inline path is "worker 0"). Workers are
    // the exclusive owners while a run is in flight; the runner reclaims
    // ownership at the barrier (see run()).
    workspaces_.resize(std::max<std::size_t>(1, threads_));
}

FleetRunner::~FleetRunner() = default;

ShardPlan FleetRunner::plan_for(std::size_t participants) const {
    MCS_CHECK_MSG(config_.planner == PlannerMode::kRows,
                  "FleetRunner::plan_for: the cell planner needs the input "
                  "positions — use the ItscsInput overload");
    if (config_.shard_size > 0) {
        return ShardPlan::by_size(participants, config_.shard_size,
                                  config_.remainder);
    }
    const std::size_t count =
        config_.shard_count > 0 ? config_.shard_count : threads_;
    return ShardPlan::by_count(participants, count, config_.remainder);
}

ShardPlan FleetRunner::plan_for(const ItscsInput& input) const {
    if (config_.planner == PlannerMode::kCell) {
        // The cell planner's target size is the resolved shard size: the
        // explicit knob when set, else the by_count-equivalent balance.
        const std::size_t n = input.sx.rows();
        std::size_t target = config_.shard_size;
        if (target == 0) {
            const std::size_t count =
                config_.shard_count > 0 ? config_.shard_count : threads_;
            target = std::max<std::size_t>(1, (n + count - 1) / count);
        }
        return ShardPlan::by_cell(input.sx, input.sy, input.existence,
                                  target);
    }
    return plan_for(input.sx.rows());
}

FleetResult FleetRunner::run(const ItscsInput& input,
                             const ItscsConfig& base_config,
                             PipelineContext* ctx) {
    // Structured adversary: transform the fleet once, on the calling
    // thread, before any shard boundary exists — collusion and replay are
    // cross-participant, so applying them per shard would change the
    // numerics with the decomposition. The downstream input fingerprint
    // is computed over the transformed matrices, keeping checkpoint
    // resume sound (the same spec re-produces the same bytes).
    if (config_.adversary != nullptr && !config_.adversary->spec().idle()) {
        ItscsInput transformed = input;
        AdversaryInjection injection = config_.adversary->apply(
            transformed.sx, transformed.sy, transformed.vx, transformed.vy,
            transformed.existence, transformed.tau_s);
        FleetResult out = run_defended(transformed, base_config, ctx);
        out.adversary = std::move(injection);
        return out;
    }
    return run_defended(input, base_config, ctx);
}

FleetResult FleetRunner::run_defended(const ItscsInput& input,
                                      const ItscsConfig& base_config,
                                      PipelineContext* ctx) {
    if (config_.defense == nullptr || config_.defense->spec().idle()) {
        // No defence, no deviation: this is the exact pre-defence path.
        return run_sharded(input, base_config, ctx,
                           /*allow_checkpoint=*/true);
    }
    const DefenseSuite& defense = *config_.defense;

    // Like the adversary, the defence sees the whole fleet on the calling
    // thread before any shard boundary exists: its tests are
    // cross-participant, and its decisions must not depend on the
    // decomposition or the thread count.
    DefenseReport report;
    {
        PipelineContext::PhaseScope scope(ctx, "defense");
        report = defense.analyze(input.sx, input.sy, input.existence);
    }

    const auto charge = [&](const DefenseReport& r) {
        if (ctx != nullptr) {
            ctx->counters().defense_trips += r.trips;
            ctx->counters().participants_quarantined += r.quarantined.size();
            ctx->counters().quarantine_reinstated += r.reinstated.size();
        }
    };

    if (report.empty_quarantine()) {
        // Nothing to quarantine: one plain sharded run, bit-identical to
        // a defence-off run apart from the outage relabel (which is a
        // no-op unless a dark block was classified).
        FleetResult out = run_sharded(input, base_config, ctx,
                                      /*allow_checkpoint=*/true);
        apply_outage_labels(out.aggregate.detection, input.existence, report);
        charge(report);
        out.defense = std::move(report);
        return out;
    }

    // Quarantine rung of the degradation ladder: re-solve with the flagged
    // rows' observations removed, re-test every flagged row against the
    // honest-only reconstruction, then run the final (checkpointable)
    // solve without the confirmed rows.
    ItscsInput honest = input;
    mask_rows(honest, report.quarantined);
    FleetResult honest_run = run_sharded(honest, base_config, ctx,
                                         /*allow_checkpoint=*/false);
    {
        PipelineContext::PhaseScope scope(ctx, "defense");
        defense.retest(input.sx, input.sy, input.existence,
                       honest_run.aggregate.reconstructed_x,
                       honest_run.aggregate.reconstructed_y, report);
    }

    FleetResult out;
    if (report.confirmed.size() == report.quarantined.size() &&
        config_.checkpoint_dir.empty()) {
        // Every flagged row was confirmed, so the final input equals the
        // honest input — reuse that solve instead of repeating it.
        out = std::move(honest_run);
    } else if (report.confirmed.empty()) {
        out = run_sharded(input, base_config, ctx,
                          /*allow_checkpoint=*/true);
    } else {
        ItscsInput final_input = input;
        mask_rows(final_input, report.confirmed);
        out = run_sharded(final_input, base_config, ctx,
                          /*allow_checkpoint=*/true);
    }

    // Confirmed frauds: every cell they uploaded is flagged faulty, and
    // their reconstruction rows pass the uploads through untouched — the
    // solve must not launder fraud into plausible-looking clean data.
    const std::size_t t = input.existence.cols();
    for (const std::size_t q : report.confirmed) {
        for (std::size_t j = 0; j < t; ++j) {
            const bool observed = input.existence(q, j) != 0.0;
            out.aggregate.detection(q, j) = observed ? 1.0 : 0.0;
            out.aggregate.reconstructed_x(q, j) = input.sx(q, j);
            out.aggregate.reconstructed_y(q, j) = input.sy(q, j);
        }
    }
    apply_outage_labels(out.aggregate.detection, input.existence, report);
    out.aggregate.quarantined = report.confirmed;
    charge(report);
    out.defense = std::move(report);
    return out;
}

FleetResult FleetRunner::run_sharded(const ItscsInput& input,
                                     const ItscsConfig& config,
                                     PipelineContext* ctx,
                                     bool allow_checkpoint) {
    // Guarded runs defer the finite-value scan to each shard's ladder so a
    // poisoned cell faults one shard, not the fleet; unguarded runs keep
    // the strict throw-at-the-boundary contract.
    if (config_.guard) {
        input.validate_shapes();
    } else {
        input.validate();
    }
    const ShardPlan plan = plan_for(input);

    FleetResult out;
    InCoreShards io(input, plan, out.aggregate);
    run_shards(config_, pool_.get(), threads_, workspaces_, io, config,
               allow_checkpoint, ctx, out);
    return out;
}

std::unique_ptr<SlabStore> FleetRunner::create_slab_store(
    const std::string& dir, const ItscsInput& input) const {
    input.validate_shapes();
    const ShardPlan plan = plan_for(input);
    const std::size_t t = input.sx.cols();

    SlabGeometry geometry;
    geometry.participants = plan.rows();
    geometry.slots = t;
    geometry.shard_count = plan.count();
    geometry.tier = config_.storage;
    geometry.tau_s = input.tau_s;
    geometry.planner_mode = static_cast<std::uint32_t>(plan.mode());
    geometry.plan_fingerprint = plan.fingerprint();
    geometry.input_fingerprint = input.fingerprint();
    std::vector<SlabShardInfo> infos;
    infos.reserve(plan.count());
    for (const Shard& shard : plan.shards()) {
        geometry.max_shard_rows =
            std::max(geometry.max_shard_rows, shard.size());
        SlabShardInfo info;
        info.begin = shard.begin;
        info.end = shard.end;
        info.rows = shard.rows;
        infos.push_back(std::move(info));
    }

    auto store =
        std::make_unique<SlabStore>(dir, geometry, std::move(infos));

    // Ingest shard by shard through one reused staging buffer — the
    // store, not this loop, is what unlocks fleets beyond RAM (the scale
    // harness ingests synthetic shards directly, never holding the
    // fleet; this overload is the convenience for inputs already loaded).
    Matrix stage[kSlabInputMatrices];
    for (const Shard& shard : plan.shards()) {
        const std::size_t rows = shard.size();
        const Matrix* sources[kSlabInputMatrices] = {
            &input.sx, &input.sy, &input.vx, &input.vy, &input.existence};
        const double* mats[kSlabInputMatrices];
        for (std::size_t m = 0; m < kSlabInputMatrices; ++m) {
            stage[m] = Matrix(rows, t);
            slice_rows(stage[m], *sources[m], shard);
            mats[m] = stage[m].data().data();
        }
        store->write_inputs(shard.index, mats);
    }
    return store;
}

std::size_t FleetRunner::resident_window_bytes(
    const SlabGeometry& geometry) const {
    // Per worker: the computing shard's input and output slabs, the
    // prefetched next input slab, and the f64 staging arena (five inputs
    // plus three results at double precision, whatever the storage tier).
    const std::size_t staged =
        geometry.max_shard_rows * geometry.slots * sizeof(double) *
        (kSlabInputMatrices + kSlabOutputMatrices);
    const std::size_t per_worker = 2 * geometry.input_stride() +
                                   geometry.output_stride() + staged;
    return std::max<std::size_t>(1, threads_) * per_worker;
}

FleetResult FleetRunner::run_streamed(SlabStore& store,
                                      const ItscsConfig& config,
                                      PipelineContext* ctx) {
    MCS_CHECK_MSG(
        config_.adversary == nullptr || config_.adversary->spec().idle(),
        "run_streamed: the structured adversary transforms the fleet in "
        "memory — ingest post-adversary data instead");
    MCS_CHECK_MSG(
        config_.defense == nullptr || config_.defense->spec().idle(),
        "run_streamed: the defence suite's consistency tests need "
        "fleet-wide matrices — run the defence in-core");
    MCS_CHECK_MSG(!store.shards().empty(), "run_streamed: empty slab store");

    if (config_.memory_budget_mb > 0) {
        const std::size_t window = resident_window_bytes(store.geometry());
        const std::size_t budget =
            config_.memory_budget_mb * std::size_t(1024) * 1024;
        MCS_CHECK_MSG(
            window <= budget,
            "run_streamed: memory budget " +
                std::to_string(config_.memory_budget_mb) +
                " MiB is below the minimum resident window (" +
                std::to_string((window + 1024 * 1024 - 1) / (1024 * 1024)) +
                " MiB for " + std::to_string(threads_) +
                " workers at this slab geometry) — raise the budget or "
                "lower --threads / the shard size");
    }

    // The aggregate matrices stay EMPTY: fleet-sized results live in the
    // store's output slabs — materialising them here would defeat the
    // bounded resident window.
    FleetResult out;
    SlabShards io(store);
    run_shards(config_, pool_.get(), threads_, workspaces_, io, config,
               /*journaled=*/true, ctx, out);
    return out;
}

WindowEvaluator FleetRunner::window_evaluator() {
    return [this](const ItscsInput& input, const ItscsConfig& config,
                  PipelineContext* ctx) -> ItscsResult {
        return run(input, config, ctx).aggregate;
    };
}

}  // namespace mcs
