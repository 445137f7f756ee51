// Microbenchmarks for the algorithmic stages: TS_Detect, CS_Reconstruct
// (per temporal mode), the CHECK pass, and the full framework. Also
// demonstrates the O(n·t) scaling of the detector claimed in §III-D.
//
// After the Google Benchmark run, main() executes one instrumented
// paper-scale pipeline (PipelineContext) and prints its counters and phase
// timings as a JSON document — including the steady-state ASD workspace
// check (0 buffer allocations per iteration after warm-up). Pass
// `--stats-only` to skip the microbenchmarks and emit only the JSON.
//
// Pass `--scale-sweep` for the out-of-core data plane's headline claims
// (DESIGN.md §18): a synthetic ≥100k-participant fleet streamed through
// the mmap slab store under a fixed memory budget several times smaller
// than the in-core footprint (peak RSS stamped and checked), streamed vs
// in-core bit-identity at a cross-checkable scale, work-stealing
// bit-identity at 1/2/7 threads, and the f32 storage tier's ≤ 1e-3 F1
// contract. Written to BENCH_scale.json (and stdout); exits nonzero when
// any claim fails; `--quick` shrinks the fleet for CI.
//
// `--repeat N` (default 1) makes every timed wall a median of N runs
// after one warm-up; the repeat count and hardware_concurrency are
// recorded in every BENCH_*.json this binary writes.
//
// Pass `--chaos-sweep` to measure the guard layer instead: (1) the health
// guard's overhead on a fault-free fleet (guards on vs. off, bit-identity
// checked, target < 2%), and (2) completion behaviour under injected
// chaos across fault probabilities — every run must end finite, with the
// per-shard degradation-ladder outcomes tallied. Written to
// BENCH_chaos.json (and stdout).
//
// Pass `--checkpoint-sweep` to measure the durable checkpoint layer
// (DESIGN.md §12): per-shard journal commit overhead on an uninterrupted
// fleet (checkpointing on vs. off at 1 and 4 workers, bit-identity
// checked, target < 3%), plus the cost and fidelity of a full resume
// (every shard restored from the journal, nothing re-run). Written to
// BENCH_checkpoint.json (and stdout).
//
// Pass `--adversary-sweep` for the structured-adversary degradation
// curves (DESIGN.md §16): detection quality (precision / recall / F1
// against the adversary-aware fault mask, adversary-cell recall,
// reconstruction MAE, and the ground-truth-free quality score) vs.
// collusion size, regional-outage extent, and fraud-replay count, plus a
// cross-layer identity block proving the corruption-path and
// RuntimeConfig-path injections agree and that an adversarial fleet run
// is bit-identical at 1/2/7 worker threads. Written to
// BENCH_adversary.json (and stdout); exits nonzero on empty or
// non-finite cells or broken identities; `--quick` shrinks the fleet for
// the CI smoke job.
//
// Pass `--defense-sweep` for the adversary defence curves (DESIGN.md
// §17): the nested-collusion sweep run defence-off and defence-on, the
// k=24 breaking-point claim, quarantine outcomes, the clean-path
// bit-identity and overhead guarantees, and the idle-suite identity at
// 1/2/7 threads. Written to BENCH_defense.json (and stdout); exits
// nonzero on invalid cells, clean-path deviations, or an unmet claim.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_stamp.hpp"
#include "common/context.hpp"
#include "common/failure.hpp"
#include "common/json.hpp"
#include "common/stopwatch.hpp"
#include "core/itscs.hpp"
#include "corruption/adversary.hpp"
#include "corruption/chaos.hpp"
#include "corruption/scenario.hpp"
#include "detect/local_median.hpp"
#include "detect/tmm.hpp"
#include "eval/methods.hpp"
#include "eval/quality.hpp"
#include "linalg/ops.hpp"
#include "linalg/temporal.hpp"
#include "metrics/confusion.hpp"
#include "metrics/reconstruction_error.hpp"
#include "runtime/fleet_runner.hpp"
#include "trace/simulator.hpp"

namespace {

struct Fixture {
    mcs::TraceDataset truth;
    mcs::CorruptedDataset data;
    mcs::Matrix avg_vx;
};

const Fixture& paper_fixture() {
    static const Fixture fixture = [] {
        Fixture f{mcs::make_paper_scale_dataset(1), {}, {}};
        mcs::CorruptionConfig config;
        config.missing_ratio = 0.2;
        config.fault_ratio = 0.2;
        config.seed = 5;
        f.data = mcs::corrupt(f.truth, config);
        f.avg_vx = mcs::average_velocity(f.data.vx);
        return f;
    }();
    return fixture;
}

void BM_TsDetectFirstPass(benchmark::State& state) {
    const Fixture& f = paper_fixture();
    const std::size_t n = f.data.participants();
    const std::size_t t = f.data.slots();
    for (auto _ : state) {
        benchmark::DoNotOptimize(mcs::ts_detect(
            f.data.sx, mcs::Matrix(), f.avg_vx,
            mcs::Matrix::constant(n, t, 1.0), f.data.existence, f.data.tau_s,
            mcs::LocalMedianConfig{}, /*first_execution=*/true));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n * t));
}
BENCHMARK(BM_TsDetectFirstPass)->Unit(benchmark::kMillisecond);

// O(n·t) scaling: items/second should be flat across sizes.
void BM_TsDetectScaling(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const mcs::TraceDataset truth = mcs::make_small_dataset(2, n, 120);
    mcs::CorruptionConfig config;
    config.missing_ratio = 0.2;
    const mcs::CorruptedDataset data = mcs::corrupt(truth, config);
    const mcs::Matrix avg = mcs::average_velocity(data.vx);
    for (auto _ : state) {
        benchmark::DoNotOptimize(mcs::ts_detect(
            data.sx, mcs::Matrix(), avg,
            mcs::Matrix::constant(n, 120, 1.0), data.existence, data.tau_s,
            mcs::LocalMedianConfig{}, true));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n * 120));
}
BENCHMARK(BM_TsDetectScaling)->Arg(10)->Arg(20)->Arg(40)
    ->Unit(benchmark::kMillisecond);

void BM_TmmDetect(benchmark::State& state) {
    const Fixture& f = paper_fixture();
    for (auto _ : state) {
        benchmark::DoNotOptimize(mcs::tmm_detect_xy(
            f.data.sx, f.data.sy, f.data.existence, mcs::TmmConfig{}));
    }
}
BENCHMARK(BM_TmmDetect)->Unit(benchmark::kMillisecond);

void BM_CsReconstruct(benchmark::State& state) {
    const Fixture& f = paper_fixture();
    mcs::CsConfig config;
    switch (state.range(0)) {
        case 0:
            config.mode = mcs::TemporalMode::kNone;
            break;
        case 1:
            config.mode = mcs::TemporalMode::kTemporalOnly;
            break;
        default:
            config.mode = mcs::TemporalMode::kVelocity;
            break;
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            mcs::cs_reconstruct(f.data.sx, f.data.existence, f.avg_vx,
                                f.data.tau_s, config));
    }
}
BENCHMARK(BM_CsReconstruct)->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMillisecond);

void BM_FullFramework(benchmark::State& state) {
    // Mid-size fleet so a full DETECT→CORRECT→CHECK run fits the budget.
    const mcs::TraceDataset truth = mcs::make_small_dataset(3, 40, 120);
    mcs::CorruptionConfig config;
    config.missing_ratio = 0.2;
    config.fault_ratio = 0.2;
    const mcs::CorruptedDataset data = mcs::corrupt(truth, config);
    const mcs::ItscsInput input = mcs::to_itscs_input(data);
    for (auto _ : state) {
        benchmark::DoNotOptimize(mcs::run_itscs(input, mcs::ItscsConfig{}));
    }
}
BENCHMARK(BM_FullFramework)->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime();

void BM_FleetSimulation(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    std::uint64_t seed = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(mcs::make_small_dataset(seed++, n, 120));
    }
}
BENCHMARK(BM_FleetSimulation)->Arg(20)->Arg(40)
    ->Unit(benchmark::kMillisecond);

// One fully instrumented paper-scale run, reported as JSON. The
// "asd_workspace" block runs the same CS solve twice (1 iteration vs. the
// full budget): the Workspace allocates every scratch buffer during the
// first iteration, so the allocation counters of the two runs must agree —
// the per-iteration steady-state allocation count is exactly their
// difference over the extra iterations.
mcs::Json instrumented_pipeline_report() {
    const Fixture& f = paper_fixture();
    const mcs::ItscsInput input = mcs::to_itscs_input(f.data);

    mcs::PipelineContext ctx;
    const mcs::Stopwatch timer;
    const mcs::ItscsResult result =
        mcs::run_itscs(input, mcs::ItscsConfig{}, {}, &ctx);
    const double wall = timer.elapsed_seconds();

    mcs::PipelineContext one_iter;
    mcs::PipelineContext full_run;
    {
        mcs::CsConfig warmup_only;
        warmup_only.asd.max_iterations = 1;
        mcs::cs_reconstruct(f.data.sx, f.data.existence, f.avg_vx,
                            f.data.tau_s, warmup_only, nullptr, &one_iter);
    }
    mcs::cs_reconstruct(f.data.sx, f.data.existence, f.avg_vx, f.data.tau_s,
                        mcs::CsConfig{}, nullptr, &full_run);
    const mcs::PipelineCounters& c1 = one_iter.counters();
    const mcs::PipelineCounters& cn = full_run.counters();
    const std::uint64_t extra_allocs =
        cn.workspace_allocations - c1.workspace_allocations;
    const std::uint64_t extra_iters = cn.asd_iterations - c1.asd_iterations;
    const double per_iteration =
        extra_iters > 0
            ? static_cast<double>(extra_allocs) /
                  static_cast<double>(extra_iters)
            : 0.0;

    mcs::Json scenario = mcs::Json::object();
    scenario["participants"] = mcs::Json(input.sx.rows());
    scenario["slots"] = mcs::Json(input.sx.cols());
    scenario["missing_ratio"] = mcs::Json(0.2);
    scenario["fault_ratio"] = mcs::Json(0.2);
    scenario["corruption_seed"] = mcs::Json(5);

    mcs::Json asd_ws = mcs::Json::object();
    asd_ws["allocations_one_iteration"] =
        mcs::Json(c1.workspace_allocations);
    asd_ws["allocations_full_solve"] = mcs::Json(cn.workspace_allocations);
    asd_ws["asd_iterations_full_solve"] = mcs::Json(cn.asd_iterations);
    asd_ws["allocations_per_iteration_after_warmup"] =
        mcs::Json(per_iteration);

    mcs::Json report = mcs::Json::object();
    report["scenario"] = std::move(scenario);
    report["itscs_iterations"] = mcs::Json(result.iterations);
    report["itscs_converged"] = mcs::Json(result.converged);
    report["wall_seconds"] = mcs::Json(wall);
    report["pipeline"] = ctx.to_json();
    report["asd_workspace"] = std::move(asd_ws);
    return report;
}

// ---- helpers shared by the sweeps ---------------------------------------

bool bitwise_equal(const mcs::Matrix& a, const mcs::Matrix& b) {
    const auto da = a.data();
    const auto db = b.data();
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::equal(da.begin(), da.end(), db.begin());
}

double median(std::vector<double> samples) {
    std::sort(samples.begin(), samples.end());
    return samples[samples.size() / 2];
}

// ---- scale sweep ---------------------------------------------------------
//
// The out-of-core data plane's headline measurement (DESIGN.md §18): a
// synthetic ≥100k-participant city runs end to end through the mmap slab
// store under a fixed --memory-budget several times smaller than the
// fleet's in-core footprint. The fleet is never materialised: every
// 2000-row block is a pure function of (base seed, shard index), so
// ingestion synthesises one block at a time into the store and the F1
// scorer regenerates the same block's ground truth while reading the
// output slabs back. Peak RSS (VmHWM) is recorded right after the big
// run, before the small-scale cross-checks, so the stamp is the big run's
// high-water mark.
//
// Three claims are verified, and the binary exits nonzero if any fails:
//   1. the ≥100k streamed run completes converged with peak RSS under the
//      memory budget;
//   2. at a cross-checkable scale, the streamed run is bit-identical to
//      the in-core run, and the work-stealing scheduler is bit-identical
//      across 1/2/7 worker threads (compared via output-slab CRCs);
//   3. the float32 storage tier, run on the fast kernel tier, moves
//      detection F1 by ≤ 1e-3 relative to the f64 exact-tier run of 2.

std::size_t peak_rss_bytes() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return static_cast<std::size_t>(std::atol(line.c_str() + 6)) *
                   1024;
        }
    }
    return 0;
}

// One deterministic block of the synthetic city. Blocks are independent
// across shard indices, so any consumer — the ingester, the scorer, a
// resumed run — regenerates exactly the bytes the others saw without any
// party ever holding more than one block.
mcs::CorruptedDataset make_scale_block(std::uint64_t base_seed,
                                       std::size_t index, std::size_t rows,
                                       std::size_t slots) {
    const mcs::TraceDataset truth =
        mcs::make_small_dataset(base_seed + 1009 * index + 7, rows, slots);
    mcs::CorruptionConfig corruption;
    corruption.missing_ratio = 0.2;
    corruption.fault_ratio = 0.2;
    corruption.seed = base_seed + 2003 * index + 13;
    return mcs::corrupt(truth, corruption);
}

std::unique_ptr<mcs::SlabStore> build_scale_store(const std::string& dir,
                                                  const mcs::ShardPlan& plan,
                                                  std::size_t slots,
                                                  std::uint64_t base_seed,
                                                  mcs::StorageTier tier) {
    mcs::SlabGeometry geometry;
    geometry.participants = plan.rows();
    geometry.slots = slots;
    geometry.shard_count = plan.count();
    geometry.tier = tier;
    geometry.tau_s = 30.0;
    geometry.planner_mode = static_cast<std::uint32_t>(plan.mode());
    geometry.plan_fingerprint = plan.fingerprint();
    std::vector<mcs::SlabShardInfo> infos;
    infos.reserve(plan.count());
    for (const mcs::Shard& shard : plan.shards()) {
        geometry.max_shard_rows =
            std::max(geometry.max_shard_rows, shard.size());
        mcs::SlabShardInfo info;
        info.begin = shard.begin;
        info.end = shard.end;
        infos.push_back(info);
    }
    auto store =
        std::make_unique<mcs::SlabStore>(dir, geometry, std::move(infos));
    for (const mcs::Shard& shard : plan.shards()) {
        const mcs::CorruptedDataset block =
            make_scale_block(base_seed, shard.index, shard.size(), slots);
        const double* mats[mcs::kSlabInputMatrices] = {
            block.sx.data().data(), block.sy.data().data(),
            block.vx.data().data(), block.vy.data().data(),
            block.existence.data().data()};
        store->write_inputs(shard.index, mats);
        store->evict(shard.index);  // keep ingestion's resident set bounded
    }
    return store;
}

// Score the store's output slabs against the regenerated ground truth,
// one shard resident at a time. Confusion counts are additive, so the
// fleet-wide F1 never needs fleet-wide matrices.
mcs::ConfusionCounts scale_confusion(const mcs::SlabStore& store,
                                     std::uint64_t base_seed) {
    const mcs::SlabGeometry& geometry = store.geometry();
    mcs::ConfusionCounts total;
    for (std::size_t s = 0; s < store.shards().size(); ++s) {
        const std::size_t rows = store.shards()[s].size();
        const mcs::CorruptedDataset block =
            make_scale_block(base_seed, s, rows, geometry.slots);
        mcs::Matrix det(rows, geometry.slots);
        mcs::Matrix rx(rows, geometry.slots);
        mcs::Matrix ry(rows, geometry.slots);
        double* mats[mcs::kSlabOutputMatrices] = {
            det.data().data(), rx.data().data(), ry.data().data()};
        store.read_outputs(s, mats);
        const mcs::ConfusionCounts c =
            mcs::evaluate_detection(det, block.fault, block.existence);
        total.true_positive += c.true_positive;
        total.false_positive += c.false_positive;
        total.true_negative += c.true_negative;
        total.false_negative += c.false_negative;
        store.evict(s);
    }
    return total;
}

mcs::Json scale_sweep_report(std::size_t repeat, bool quick, bool* ok_out) {
    const std::size_t participants = quick ? 8000 : 100000;
    const std::size_t slots = quick ? 32 : 48;
    const std::size_t shard_rows = quick ? 1000 : 2000;
    const std::size_t budget_mb = quick ? 48 : 64;
    const std::uint64_t base_seed = 77;
    const std::string root =
        (std::filesystem::temp_directory_path() / "mcs_scale_sweep")
            .string();
    std::filesystem::remove_all(root);
    std::filesystem::create_directories(root);

    bool ok = true;
    mcs::Json report = mcs::Json::object();
    report["rss_baseline_bytes"] = peak_rss_bytes();

    // -- claim 1: the big streamed run, first, so VmHWM is *its* peak ----
    {
        mcs::RuntimeConfig rcfg;
        rcfg.threads = mcs::effective_cpu_count();
        rcfg.shard_size = shard_rows;
        rcfg.remainder = mcs::ShardRemainder::kTail;
        rcfg.memory_budget_mb = budget_mb;
        mcs::FleetRunner runner(rcfg);
        const mcs::ShardPlan plan = runner.plan_for(participants);

        std::cerr << "scale sweep: ingesting " << participants << "x"
                  << slots << " fleet into " << plan.count()
                  << " slabs...\n";
        auto store = build_scale_store(root + "/big", plan, slots,
                                       base_seed, mcs::StorageTier::kF64);
        const std::size_t rss_after_ingest = peak_rss_bytes();

        std::cerr << "scale sweep: streaming under " << budget_mb
                  << " MiB budget...\n";
        mcs::PipelineContext ctx;
        const mcs::Stopwatch timer;
        const mcs::FleetResult fleet =
            runner.run_streamed(*store, mcs::ItscsConfig{}, &ctx);
        const double wall = timer.elapsed_seconds();
        const std::size_t peak_rss = peak_rss_bytes();
        const mcs::ConfusionCounts counts =
            scale_confusion(*store, base_seed);

        const std::size_t in_core_bytes =
            participants * slots * sizeof(double) *
            (mcs::kSlabInputMatrices + mcs::kSlabOutputMatrices);
        const std::size_t budget_bytes =
            budget_mb * std::size_t(1024) * 1024;
        const bool under_budget = peak_rss <= budget_bytes;
        ok = ok && under_budget && fleet.aggregate.converged;

        mcs::Json big = mcs::Json::object();
        big["participants"] = participants;
        big["slots"] = slots;
        big["shards"] = plan.count();
        big["shard_rows"] = shard_rows;
        big["threads"] = rcfg.threads;
        big["wall_seconds"] = wall;
        big["converged"] = fleet.aggregate.converged;
        big["f1"] = counts.f1();
        big["memory_budget_mb"] = budget_mb;
        big["in_core_bytes"] = in_core_bytes;
        big["slab_file_bytes"] = store->geometry().file_size();
        big["resident_window_bytes"] =
            runner.resident_window_bytes(store->geometry());
        big["rss_after_ingest_bytes"] = rss_after_ingest;
        big["peak_rss_bytes"] = peak_rss;
        big["in_core_over_budget"] =
            static_cast<double>(in_core_bytes) /
            static_cast<double>(budget_bytes);
        big["peak_rss_under_budget"] = under_budget;
        big["shards_stolen"] = fleet.steals.stolen_items;
        big["shards_streamed"] =
            ctx.counters().slab_shards_streamed;
        report["out_of_core"] = big;
        store.reset();
        std::filesystem::remove_all(root + "/big");
    }

    // -- claims 2 + 3: cross-checkable scale ------------------------------
    const std::size_t n_small = quick ? 2000 : 4000;
    const std::size_t small_rows = 500;
    mcs::RuntimeConfig seq_cfg;
    seq_cfg.threads = 1;
    seq_cfg.shard_size = small_rows;
    seq_cfg.remainder = mcs::ShardRemainder::kTail;
    mcs::FleetRunner seq_runner(seq_cfg);
    const mcs::ShardPlan small_plan = seq_runner.plan_for(n_small);

    // Assemble the same blocks into one in-core fleet for the reference.
    mcs::ItscsInput in;
    in.sx = mcs::Matrix(n_small, slots);
    in.sy = mcs::Matrix(n_small, slots);
    in.vx = mcs::Matrix(n_small, slots);
    in.vy = mcs::Matrix(n_small, slots);
    in.existence = mcs::Matrix(n_small, slots);
    in.tau_s = 30.0;
    for (const mcs::Shard& shard : small_plan.shards()) {
        const mcs::CorruptedDataset block =
            make_scale_block(base_seed, shard.index, shard.size(), slots);
        const mcs::Matrix* sources[mcs::kSlabInputMatrices] = {
            &block.sx, &block.sy, &block.vx, &block.vy, &block.existence};
        mcs::Matrix* targets[mcs::kSlabInputMatrices] = {
            &in.sx, &in.sy, &in.vx, &in.vy, &in.existence};
        for (std::size_t m = 0; m < mcs::kSlabInputMatrices; ++m) {
            for (std::size_t k = 0; k < shard.size(); ++k) {
                for (std::size_t j = 0; j < slots; ++j) {
                    (*targets[m])(shard.begin + k, j) =
                        (*sources[m])(k, j);
                }
            }
        }
    }
    std::cerr << "scale sweep: in-core reference (" << n_small << "x"
              << slots << ")...\n";
    const mcs::FleetResult in_core =
        seq_runner.run(in, mcs::ItscsConfig{});

    bool streamed_equals_in_core = true;
    bool threads_identical = true;
    std::vector<std::uint32_t> reference_crcs;
    mcs::Json identity_rows = mcs::Json::array();
    double f1_f64 = 0.0;
    for (const std::size_t threads : {1u, 2u, 7u}) {
        std::cerr << "scale sweep: streamed identity at " << threads
                  << " threads...\n";
        mcs::RuntimeConfig rcfg;
        rcfg.threads = threads;
        rcfg.shard_size = small_rows;
        rcfg.remainder = mcs::ShardRemainder::kTail;
        mcs::FleetRunner runner(rcfg);
        auto store =
            build_scale_store(root + "/small", small_plan, slots,
                              base_seed, mcs::StorageTier::kF64);
        const mcs::FleetResult fleet =
            runner.run_streamed(*store, mcs::ItscsConfig{});

        std::vector<std::uint32_t> crcs;
        bool equal = true;
        for (std::size_t s = 0; s < store->shards().size(); ++s) {
            crcs.push_back(store->output_crc(s));
            const std::size_t rows = store->shards()[s].size();
            mcs::Matrix det(rows, slots);
            mcs::Matrix rx(rows, slots);
            mcs::Matrix ry(rows, slots);
            double* mats[mcs::kSlabOutputMatrices] = {
                det.data().data(), rx.data().data(), ry.data().data()};
            store->read_outputs(s, mats);
            const std::size_t begin = small_plan.shards()[s].begin;
            for (std::size_t k = 0; equal && k < rows; ++k) {
                for (std::size_t j = 0; j < slots; ++j) {
                    if (in_core.aggregate.detection(begin + k, j) !=
                            det(k, j) ||
                        in_core.aggregate.reconstructed_x(begin + k, j) !=
                            rx(k, j) ||
                        in_core.aggregate.reconstructed_y(begin + k, j) !=
                            ry(k, j)) {
                        equal = false;
                        break;
                    }
                }
            }
        }
        if (threads == 1) {
            reference_crcs = crcs;
            f1_f64 = scale_confusion(*store, base_seed).f1();
        }
        const bool same_as_one_thread = crcs == reference_crcs;
        streamed_equals_in_core = streamed_equals_in_core && equal;
        threads_identical = threads_identical && same_as_one_thread;

        mcs::Json row = mcs::Json::object();
        row["threads"] = threads;
        row["bitwise_equal_to_in_core"] = equal;
        row["output_crcs_equal_to_one_thread"] = same_as_one_thread;
        row["shards_stolen"] = fleet.steals.stolen_items;
        identity_rows.push_back(row);
    }
    ok = ok && streamed_equals_in_core && threads_identical;

    // -- claim 3: f32 storage moves F1 by ≤ 1e-3 --------------------------
    std::cerr << "scale sweep: f32 storage...\n";
    double f1_f32 = 0.0;
    mcs::Json f32 = mcs::Json::object();
    {
        mcs::RuntimeConfig rcfg;
        rcfg.threads = 2;
        rcfg.shard_size = small_rows;
        rcfg.remainder = mcs::ShardRemainder::kTail;
        rcfg.storage = mcs::StorageTier::kF32;
        rcfg.kernel_tier = mcs::KernelTier::kFast;
        mcs::FleetRunner runner(rcfg);
        auto store =
            build_scale_store(root + "/f32", small_plan, slots, base_seed,
                              mcs::StorageTier::kF32);
        const mcs::FleetResult fleet =
            runner.run_streamed(*store, mcs::ItscsConfig{});
        f1_f32 = scale_confusion(*store, base_seed).f1();
        f32["slab_file_bytes"] = store->geometry().file_size();
        f32["converged"] = fleet.aggregate.converged;
    }
    const double f1_delta = std::abs(f1_f32 - f1_f64);
    ok = ok && f1_delta <= 1e-3;
    f32["f1_f64"] = f1_f64;
    f32["f1_f32"] = f1_f32;
    f32["f1_delta"] = f1_delta;
    f32["f1_delta_within_1e3"] = f1_delta <= 1e-3;

    mcs::Json identity = mcs::Json::object();
    identity["fleet"] = mcs::Json::object();
    identity["fleet"]["participants"] = n_small;
    identity["fleet"]["slots"] = slots;
    identity["fleet"]["shard_rows"] = small_rows;
    identity["streamed_bitwise_equal_to_in_core"] =
        streamed_equals_in_core;
    identity["bitwise_identical_across_1_2_7_threads"] = threads_identical;
    identity["runs"] = identity_rows;
    report["identity"] = identity;
    report["f32_storage"] = f32;
    mcs::stamp_environment(report, repeat,
                           /*threads_used=*/mcs::effective_cpu_count(),
                           quick);
    report["all_claims_hold"] = ok;

    std::filesystem::remove_all(root);
    if (ok_out != nullptr) {
        *ok_out = ok;
    }
    return report;
}

// ---- chaos sweep ---------------------------------------------------------
//
// Two questions about the guard layer, answered on a 160 x 120 fleet of
// four shards: how much the health guards cost when nothing goes wrong
// (best-of-3 walls, guards on vs. off, outputs compared bit for bit), and
// whether the degradation ladder always lands on a finite result as the
// injected fault probability rises. Smaller than the paper-scale fleet
// because degraded shards pay conservative retries (2x the ASD budget).
bool all_finite(const mcs::Matrix& m) {
    const auto data = m.data();
    return std::all_of(data.begin(), data.end(),
                       [](double v) { return std::isfinite(v); });
}

mcs::Json chaos_sweep_report(std::size_t repeat) {
    constexpr std::size_t kShardSize = 40;
    constexpr std::size_t kShards = 4;
    constexpr std::size_t kSlots = 120;
    const std::size_t participants = kShardSize * kShards;

    std::cerr << "chaos sweep: simulating " << participants << "x" << kSlots
              << " fleet...\n";
    const mcs::TraceDataset truth =
        mcs::make_small_dataset(11, participants, kSlots);
    mcs::CorruptionConfig corruption;
    corruption.missing_ratio = 0.2;
    corruption.fault_ratio = 0.2;
    corruption.seed = 5;
    const mcs::CorruptedDataset data = mcs::corrupt(truth, corruption);
    const mcs::ItscsInput input = mcs::to_itscs_input(data);

    const auto timed_run = [&](bool guard, const mcs::ChaosInjector* chaos,
                               mcs::PipelineContext* ctx) {
        mcs::RuntimeConfig config;
        config.threads = 4;
        config.shard_size = kShardSize;
        config.remainder = mcs::ShardRemainder::kTail;
        config.guard = guard;
        config.chaos = chaos;
        mcs::FleetRunner runner(config);
        runner.run(input, mcs::ItscsConfig{});  // warm-up
        double best_ms = 0.0;
        mcs::FleetResult fleet;
        for (std::size_t rep = 0; rep < repeat; ++rep) {
            const mcs::Stopwatch timer;
            fleet = runner.run(input, mcs::ItscsConfig{},
                               rep == 0 ? ctx : nullptr);
            const double wall_ms = timer.elapsed_seconds() * 1000.0;
            best_ms = rep == 0 ? wall_ms : std::min(best_ms, wall_ms);
        }
        return std::make_pair(best_ms, std::move(fleet));
    };

    std::cerr << "chaos sweep: clean path, guards off\n";
    auto [plain_ms, plain] = timed_run(false, nullptr, nullptr);
    std::cerr << "chaos sweep: clean path, guards on\n";
    auto [guarded_ms, guarded] = timed_run(true, nullptr, nullptr);
    const double overhead_percent =
        plain_ms > 0.0 ? (guarded_ms - plain_ms) / plain_ms * 100.0 : 0.0;
    const bool clean_bitwise_equal =
        bitwise_equal(plain.aggregate.detection,
                      guarded.aggregate.detection) &&
        bitwise_equal(plain.aggregate.reconstructed_x,
                      guarded.aggregate.reconstructed_x) &&
        bitwise_equal(plain.aggregate.reconstructed_y,
                      guarded.aggregate.reconstructed_y);

    mcs::Json overhead = mcs::Json::object();
    overhead["plain_ms"] = plain_ms;
    overhead["guarded_ms"] = guarded_ms;
    overhead["overhead_percent"] = overhead_percent;
    overhead["target_percent"] = 2.0;
    overhead["within_target"] = overhead_percent < 2.0;
    overhead["bitwise_equal"] = clean_bitwise_equal;

    mcs::Json sweep = mcs::Json::array();
    bool all_runs_finite = true;
    for (const double p : {0.25, 0.5, 1.0}) {
        std::cerr << "chaos sweep: fault probability " << p << "\n";
        mcs::ChaosConfig chaos_config;
        chaos_config.nan_velocity = p;
        chaos_config.inf_coordinate = p;
        chaos_config.force_divergence = p;
        chaos_config.task_throw = p;
        chaos_config.seed = 0x5eed;
        const mcs::ChaosInjector injector(chaos_config);

        mcs::PipelineContext ctx;
        auto [wall_ms, fleet] = timed_run(true, &injector, &ctx);

        std::size_t by_level[4] = {0, 0, 0, 0};
        for (const mcs::ShardRunReport& s : fleet.shards) {
            by_level[static_cast<std::size_t>(s.level)] += 1;
        }
        const bool finite = all_finite(fleet.aggregate.detection) &&
                            all_finite(fleet.aggregate.reconstructed_x) &&
                            all_finite(fleet.aggregate.reconstructed_y);
        all_runs_finite = all_runs_finite && finite;

        mcs::Json outcomes = mcs::Json::object();
        outcomes["nominal"] = by_level[0];
        outcomes["conservative"] = by_level[1];
        outcomes["interpolation"] = by_level[2];
        outcomes["detect_only"] = by_level[3];

        mcs::Json row = mcs::Json::object();
        row["fault_probability"] = p;
        row["wall_ms"] = wall_ms;
        row["shards"] = fleet.shards.size();
        row["completed_shards"] = fleet.shards.size();  // never fewer: the
        // ladder's last rung cannot fail, so completion rate is structural.
        row["outcomes"] = outcomes;
        row["guard_trips"] = ctx.counters().guard_trips;
        row["shard_retries"] = ctx.counters().shard_retries;
        row["shards_degraded"] = ctx.counters().shards_degraded;
        row["all_finite"] = finite;
        sweep.push_back(row);
    }

    mcs::Json report = mcs::Json::object();
    report["fleet"] = mcs::Json::object();
    report["fleet"]["participants"] = participants;
    report["fleet"]["slots"] = kSlots;
    report["fleet"]["shard_size"] = kShardSize;
    report["fleet"]["shards"] = kShards;
    mcs::stamp_environment(report, repeat, /*threads_used=*/4);
    report["repeat_best_of"] = repeat;
    report["guard_overhead"] = std::move(overhead);
    report["fault_sweep"] = std::move(sweep);
    report["all_runs_finite"] = all_runs_finite;
    return report;
}

// ---- checkpoint sweep ----------------------------------------------------
//
// Commit overhead of the durable journal on a 320 x 120 fleet of eight
// shards: each shard result is encoded, CRC-framed, appended and flushed
// while the other workers keep computing, so the cost should vanish into
// the compute time. Best-of-3 walls, checkpointing on vs. off, outputs
// compared bit for bit, target < 3%. The resume block then replays the
// journal of a completed run: all shards must restore (none re-run) and
// the restored aggregate must equal the plain run byte for byte.
mcs::Json checkpoint_sweep_report(std::size_t repeat) {
    constexpr std::size_t kShardSize = 40;
    constexpr std::size_t kShards = 8;
    constexpr std::size_t kSlots = 120;
    const std::size_t participants = kShardSize * kShards;

    std::cerr << "checkpoint sweep: simulating " << participants << "x"
              << kSlots << " fleet...\n";
    const mcs::TraceDataset truth =
        mcs::make_small_dataset(11, participants, kSlots);
    mcs::CorruptionConfig corruption;
    corruption.missing_ratio = 0.2;
    corruption.fault_ratio = 0.2;
    corruption.seed = 5;
    const mcs::CorruptedDataset data = mcs::corrupt(truth, corruption);
    const mcs::ItscsInput input = mcs::to_itscs_input(data);

    const std::filesystem::path dir = "BENCH_checkpoint.ckpt";
    std::filesystem::remove_all(dir);

    // Best-of-N wall for one configuration. Non-resume runs reset the
    // journal on begin(), so every checkpointed repetition pays the full
    // commit cost for every shard.
    const auto timed_run = [&](std::size_t threads, bool checkpoint,
                               bool resume) {
        mcs::RuntimeConfig config;
        config.threads = threads;
        config.shard_size = kShardSize;
        config.remainder = mcs::ShardRemainder::kTail;
        if (checkpoint) {
            config.checkpoint_dir = dir.string();
            config.resume = resume;
        }
        mcs::FleetRunner runner(config);
        runner.run(input, mcs::ItscsConfig{});  // warm-up
        double best_ms = 0.0;
        mcs::FleetResult fleet;
        for (std::size_t rep = 0; rep < repeat; ++rep) {
            const mcs::Stopwatch timer;
            fleet = runner.run(input, mcs::ItscsConfig{});
            const double wall_ms = timer.elapsed_seconds() * 1000.0;
            best_ms = rep == 0 ? wall_ms : std::min(best_ms, wall_ms);
        }
        return std::make_pair(best_ms, std::move(fleet));
    };

    mcs::Json rows = mcs::Json::array();
    bool all_within_target = true;
    bool all_bitwise = true;
    mcs::Matrix plain_x, plain_y, plain_detection;
    for (const std::size_t threads : {1u, 4u}) {
        std::cerr << "checkpoint sweep: threads=" << threads
                  << ", checkpoint off\n";
        auto [plain_ms, plain] = timed_run(threads, false, false);
        std::cerr << "checkpoint sweep: threads=" << threads
                  << ", checkpoint on\n";
        auto [ck_ms, ck] = timed_run(threads, true, false);
        const double overhead_percent =
            plain_ms > 0.0 ? (ck_ms - plain_ms) / plain_ms * 100.0 : 0.0;
        const bool equal =
            bitwise_equal(plain.aggregate.detection,
                          ck.aggregate.detection) &&
            bitwise_equal(plain.aggregate.reconstructed_x,
                          ck.aggregate.reconstructed_x) &&
            bitwise_equal(plain.aggregate.reconstructed_y,
                          ck.aggregate.reconstructed_y);
        all_within_target = all_within_target && overhead_percent < 3.0;
        all_bitwise = all_bitwise && equal;
        plain_detection = plain.aggregate.detection;
        plain_x = plain.aggregate.reconstructed_x;
        plain_y = plain.aggregate.reconstructed_y;

        mcs::Json row = mcs::Json::object();
        row["threads"] = threads;
        row["plain_ms"] = plain_ms;
        row["checkpointed_ms"] = ck_ms;
        row["overhead_percent"] = overhead_percent;
        row["target_percent"] = 3.0;
        row["within_target"] = overhead_percent < 3.0;
        row["bitwise_equal"] = equal;
        rows.push_back(row);
    }
    const std::uintmax_t journal_bytes =
        std::filesystem::file_size(dir / "journal.bin");

    // Resume fidelity: the journal left by the final checkpointed run
    // holds all eight shards, so a --resume run restores everything and
    // computes nothing.
    std::cerr << "checkpoint sweep: resume from complete journal\n";
    mcs::RuntimeConfig resume_config;
    resume_config.threads = 4;
    resume_config.shard_size = kShardSize;
    resume_config.remainder = mcs::ShardRemainder::kTail;
    resume_config.checkpoint_dir = dir.string();
    resume_config.resume = true;
    mcs::FleetRunner resume_runner(resume_config);
    const mcs::Stopwatch resume_timer;
    const mcs::FleetResult resumed =
        resume_runner.run(input, mcs::ItscsConfig{});
    const double resume_ms = resume_timer.elapsed_seconds() * 1000.0;
    const bool resume_equal =
        bitwise_equal(resumed.aggregate.detection, plain_detection) &&
        bitwise_equal(resumed.aggregate.reconstructed_x, plain_x) &&
        bitwise_equal(resumed.aggregate.reconstructed_y, plain_y);
    all_bitwise = all_bitwise && resume_equal;

    mcs::Json resume = mcs::Json::object();
    resume["wall_ms"] = resume_ms;
    resume["shards_loaded"] = resumed.checkpoint.shards_loaded;
    resume["shards_run"] = resumed.checkpoint.shards_run;
    resume["corrupt_frames"] = resumed.checkpoint.corrupt_frames;
    resume["bitwise_equal_to_plain"] = resume_equal;

    std::filesystem::remove_all(dir);

    mcs::Json report = mcs::Json::object();
    report["fleet"] = mcs::Json::object();
    report["fleet"]["participants"] = participants;
    report["fleet"]["slots"] = kSlots;
    report["fleet"]["shard_size"] = kShardSize;
    report["fleet"]["shards"] = kShards;
    mcs::stamp_environment(report, repeat, /*threads_used=*/4);
    report["repeat_best_of"] = repeat;
    report["journal_bytes"] = static_cast<std::uint64_t>(journal_bytes);
    report["journal_bytes_per_shard"] =
        static_cast<std::uint64_t>(journal_bytes / kShards);
    report["commit_overhead"] = rows;
    report["resume"] = std::move(resume);
    report["all_within_target"] = all_within_target;
    report["all_bitwise_equal"] = all_bitwise;
    return report;
}

// ---- adversary sweep -----------------------------------------------------
//
// The paper-breaking-point experiment (DESIGN.md §16): how detection
// quality degrades as a structured adversary grows. Three families on a
// 160 x 120 fleet of four shards over a light i.i.d. background
// (α = 0.2, β = 0.05 — low enough that the adversary, not the background,
// dominates the fault mass):
//
//   collusion k ∈ {4 … 48}: k participants replaced by a smooth simulated
//     sub-fleet. Per-colluder seeds make the fake sets nested, so the F1
//     curve over k measures the adversary growing, not RNG reshuffling —
//     the report calls out the k where F1 first drops below 0.5.
//   regional outage r ∈ {20 … 80} rows x span/4 slots: a contiguous
//     spatio-temporal block goes dark (exercises the degradation ladder).
//   fraud replay c ∈ {4 … 16}: c participants re-upload another's
//     time-shifted trajectory.
//
// Every cell records precision/recall/F1 against the adversary-aware
// fault mask, recall restricted to adversarial cells, reconstruction MAE,
// the ground-truth-free quality score (the eval axis for regimes with no
// clean reference), ladder outcomes and median wall. An identity block
// then proves the corruption-path and
// RuntimeConfig-path injections produce identical fleet results and that
// the runtime path is bit-identical at 1/2/7 workers.
double adversary_recall(const mcs::Matrix& detection,
                        const mcs::Matrix& mask) {
    std::size_t hit = 0;
    std::size_t total = 0;
    for (std::size_t i = 0; i < mask.rows(); ++i) {
        for (std::size_t j = 0; j < mask.cols(); ++j) {
            if (mask(i, j) == 0.0) {
                continue;
            }
            ++total;
            if (detection(i, j) != 0.0) {
                ++hit;
            }
        }
    }
    return total == 0 ? 1.0
                      : static_cast<double>(hit) /
                            static_cast<double>(total);
}

mcs::Json adversary_sweep_report(std::size_t repeat, bool quick,
                                 bool* all_valid_out) {
    const std::size_t shard_size = 40;
    const std::size_t shards = quick ? 2 : 4;
    const std::size_t slots = quick ? 60 : 120;
    const std::size_t participants = shard_size * shards;

    std::cerr << "adversary sweep: simulating " << participants << "x"
              << slots << " fleet" << (quick ? " (quick)" : "") << "...\n";
    const mcs::TraceDataset truth =
        mcs::make_small_dataset(11, participants, slots);
    mcs::CorruptionConfig base;
    base.missing_ratio = 0.2;
    base.fault_ratio = 0.05;
    base.seed = 5;

    struct Cell {
        const char* family;
        std::size_t level;   // k colluders / outage rows / replay count
        std::string spec;
    };
    std::vector<Cell> cells;
    cells.push_back({"baseline", 0, ""});
    const std::vector<std::size_t> collusion_sizes =
        quick ? std::vector<std::size_t>{8, 16}
              : std::vector<std::size_t>{4, 8, 16, 24, 32, 48};
    for (const std::size_t k : collusion_sizes) {
        cells.push_back({"collusion", k,
                         "collude=" + std::to_string(k) + ",seed=9"});
    }
    const std::vector<std::size_t> outage_rows =
        quick ? std::vector<std::size_t>{20}
              : std::vector<std::size_t>{20, 40, 80};
    for (const std::size_t r : outage_rows) {
        cells.push_back({"outage", r,
                         "outage=" + std::to_string(r) + ",seed=9"});
    }
    const std::vector<std::size_t> replay_counts =
        quick ? std::vector<std::size_t>{4}
              : std::vector<std::size_t>{4, 8, 16};
    for (const std::size_t c : replay_counts) {
        cells.push_back({"replay", c,
                         "replay=" + std::to_string(c) +
                             ",replayshift=5,seed=9"});
    }

    mcs::Json rows = mcs::Json::array();
    bool all_valid = true;
    // F1 per collusion size, for the breaking-point call-out.
    std::vector<std::pair<std::size_t, double>> collusion_f1;
    double baseline_f1 = 0.0;

    for (const Cell& cell : cells) {
        mcs::CorruptionConfig corruption = base;
        if (!cell.spec.empty()) {
            corruption.adversary = mcs::AdversarySpec::parse(cell.spec);
        }
        const mcs::CorruptedDataset data = mcs::corrupt(truth, corruption);
        const mcs::ItscsInput input = mcs::to_itscs_input(data);
        std::cerr << "adversary sweep: "
                  << (cell.spec.empty() ? "baseline" : cell.spec) << "\n";
        mcs::RuntimeConfig config;
        config.threads = 4;
        config.shard_size = shard_size;
        config.remainder = mcs::ShardRemainder::kTail;
        const mcs::ItscsConfig framework{};
        mcs::FleetRunner runner(config);
        runner.run(input, framework);  // warm-up
        mcs::FleetResult fleet;
        std::vector<double> samples;
        samples.reserve(repeat);
        for (std::size_t rep = 0; rep < repeat; ++rep) {
            const mcs::Stopwatch timer;
            fleet = runner.run(input, framework);
            samples.push_back(timer.elapsed_seconds() * 1000.0);
        }
        const double wall_ms = median(std::move(samples));

        const mcs::ConfusionCounts confusion = mcs::evaluate_detection(
            fleet.aggregate.detection, data.fault, data.existence);
        const double adv_recall = adversary_recall(
            fleet.aggregate.detection, data.adversary.mask);
        const double mae = mcs::reconstruction_mae(
            truth.x, truth.y, fleet.aggregate.reconstructed_x,
            fleet.aggregate.reconstructed_y, data.existence,
            fleet.aggregate.detection);
        const mcs::QualityScore quality = mcs::evaluate_quality(
            data.sx, data.sy, data.existence,
            fleet.aggregate.detection, fleet.aggregate.reconstructed_x,
            fleet.aggregate.reconstructed_y, data.tau_s);

        std::size_t by_level[4] = {0, 0, 0, 0};
        for (const mcs::ShardRunReport& s : fleet.shards) {
            by_level[static_cast<std::size_t>(s.level)] += 1;
        }

        const bool finite =
            !fleet.aggregate.detection.empty() &&
            all_finite(fleet.aggregate.detection) &&
            all_finite(fleet.aggregate.reconstructed_x) &&
            all_finite(fleet.aggregate.reconstructed_y) &&
            std::isfinite(confusion.f1()) && std::isfinite(mae) &&
            std::isfinite(quality.composite) && std::isfinite(wall_ms);
        all_valid = all_valid && finite;

        if (std::string_view(cell.family) == "collusion") {
            collusion_f1.emplace_back(cell.level, confusion.f1());
        } else if (std::string_view(cell.family) == "baseline") {
            baseline_f1 = confusion.f1();
        }

        mcs::Json outcomes = mcs::Json::object();
        outcomes["nominal"] = by_level[0];
        outcomes["conservative"] = by_level[1];
        outcomes["interpolation"] = by_level[2];
        outcomes["detect_only"] = by_level[3];

        mcs::Json row = mcs::Json::object();
        row["family"] = std::string(cell.family);
        row["level"] = cell.level;
        row["spec"] = cell.spec;
        row["adversarial_cells"] =
            mcs::count_equal(data.adversary.mask, 1.0);
        row["precision"] = confusion.precision();
        row["recall"] = confusion.recall();
        row["f1"] = confusion.f1();
        row["false_positive_rate"] = confusion.false_positive_rate();
        row["adversary_recall"] = adv_recall;
        row["reconstruction_mae_m"] = mae;
        row["quality_composite"] = quality.composite;
        row["quality_residual_consistency"] =
            quality.residual_consistency;
        row["quality_velocity_plausibility"] =
            quality.velocity_plausibility;
        row["quality_detection_load"] = quality.detection_load;
        row["outcomes"] = outcomes;
        row["wall_ms"] = wall_ms;
        row["valid"] = finite;
        rows.push_back(row);
    }

    // Breaking point: smallest collusion size whose F1 fell below 0.5.
    const auto breaking_point =
        [](const std::vector<std::pair<std::size_t, double>>& curve) {
            for (const auto& [k, f1] : curve) {
                if (f1 < 0.5) {
                    return mcs::Json(k);
                }
            }
            return mcs::Json(nullptr);
        };
    // Monotone degradation along the nested-colluder curve (small numeric
    // jitter tolerated; the trend is the claim).
    const auto monotone =
        [](const std::vector<std::pair<std::size_t, double>>& curve) {
            for (std::size_t i = 1; i < curve.size(); ++i) {
                if (curve[i].second > curve[i - 1].second + 0.02) {
                    return false;
                }
            }
            return true;
        };

    // ---- cross-layer / thread identity ------------------------------
    // The same spec injected through CorruptionConfig (bench path above)
    // and through RuntimeConfig (the `itscs clean --adversary` path) must
    // yield the same fleet result, and the runtime path must stay
    // bit-identical across worker counts.
    std::cerr << "adversary sweep: identity checks\n";
    const std::string identity_spec =
        "collude=8,outage=20,replay=4,seed=9";
    mcs::CorruptionConfig with_adv = base;
    with_adv.adversary = mcs::AdversarySpec::parse(identity_spec);
    const mcs::CorruptedDataset adv_data = mcs::corrupt(truth, with_adv);
    const mcs::CorruptedDataset plain_data = mcs::corrupt(truth, base);
    const mcs::ItscsInput adv_input = mcs::to_itscs_input(adv_data);
    const mcs::ItscsInput plain_input = mcs::to_itscs_input(plain_data);
    const mcs::AdversaryInjector injector(
        mcs::AdversarySpec::parse(identity_spec));

    const auto run_with = [&](const mcs::ItscsInput& in, std::size_t threads,
                              const mcs::AdversaryInjector* adversary) {
        mcs::RuntimeConfig config;
        config.threads = threads;
        config.shard_size = shard_size;
        config.remainder = mcs::ShardRemainder::kTail;
        config.adversary = adversary;
        mcs::FleetRunner runner(config);
        return runner.run(in, mcs::ItscsConfig{});
    };
    const mcs::FleetResult corruption_path = run_with(adv_input, 1, nullptr);
    const mcs::FleetResult runtime_1 = run_with(plain_input, 1, &injector);
    const mcs::FleetResult runtime_2 = run_with(plain_input, 2, &injector);
    const mcs::FleetResult runtime_7 = run_with(plain_input, 7, &injector);
    const auto same = [](const mcs::FleetResult& a,
                         const mcs::FleetResult& b) {
        return bitwise_equal(a.aggregate.detection, b.aggregate.detection) &&
               bitwise_equal(a.aggregate.reconstructed_x,
                             b.aggregate.reconstructed_x) &&
               bitwise_equal(a.aggregate.reconstructed_y,
                             b.aggregate.reconstructed_y);
    };
    const bool paths_agree = same(corruption_path, runtime_1);
    const bool threads_agree =
        same(runtime_1, runtime_2) && same(runtime_1, runtime_7);
    const bool mask_agrees =
        bitwise_equal(runtime_1.adversary.mask, adv_data.adversary.mask);
    all_valid = all_valid && paths_agree && threads_agree && mask_agrees;

    mcs::Json identity = mcs::Json::object();
    identity["spec"] = identity_spec;
    identity["corruption_vs_runtime_path"] = paths_agree;
    identity["bit_identical_at_1_2_7_threads"] = threads_agree;
    identity["mask_identical_across_paths"] = mask_agrees;

    mcs::Json report = mcs::Json::object();
    report["fleet"] = mcs::Json::object();
    report["fleet"]["participants"] = participants;
    report["fleet"]["slots"] = slots;
    report["fleet"]["shard_size"] = shard_size;
    report["fleet"]["shards"] = shards;
    report["background"] = mcs::Json::object();
    report["background"]["missing_ratio"] = base.missing_ratio;
    report["background"]["fault_ratio"] = base.fault_ratio;
    mcs::stamp_environment(report, repeat, /*threads_used=*/4, quick);
    report["sweep"] = std::move(rows);
    mcs::Json breaking = mcs::Json::object();
    breaking["baseline_f1_asd"] = baseline_f1;
    breaking["f1_below_half_collusion_asd"] = breaking_point(collusion_f1);
    breaking["monotone_degradation_asd"] = monotone(collusion_f1);
    report["collusion_breaking_point"] = std::move(breaking);
    report["identity"] = std::move(identity);
    report["all_valid"] = all_valid;
    if (all_valid_out != nullptr) {
        *all_valid_out = all_valid;
    }
    return report;
}

// ---- defence sweep -----------------------------------------------------
// The §16 adversary sweep established the blind spot: per-cell residual
// detection collapses against colluding sub-fleets (F1 below 0.5 by
// k=24). This sweep runs the same nested collusion curve twice — defence
// off and defence on (the armed DefenseSpec default) — and records where
// each curve breaks, plus adversary-cell recall, quarantine outcomes, the
// provenance-aware quality score, and the two clean-path guarantees the
// defence ships with: an armed suite on an honest fleet is bit-identical
// to no defence at all, and its overhead is one analyze() pass.
//
// The fleet stays 160x120 even under --quick (fewer k points instead):
// location corroboration needs operating density, and the suite
// deliberately abstains on sub-critical fleets like the 80x60 quick
// fleet of the adversary sweep — a quick cell there would measure the
// abstention guard, not the defence.
//
// Written to BENCH_defense.json (and stdout); exits nonzero on a
// non-finite cell, a defence-induced deviation on the clean fleet, an
// idle-suite deviation at any thread count, clean overhead >= 2%, or an
// unmet breaking-point claim (defence-off must fail at k=24, defence-on
// must hold F1 >= 0.5 with adversary-cell recall >= 0.5 there).
mcs::Json defense_sweep_report(std::size_t repeat, bool quick,
                               bool* all_valid_out) {
    const std::size_t shard_size = 40;
    const std::size_t shards = 4;
    const std::size_t slots = 120;
    const std::size_t participants = shard_size * shards;

    std::cerr << "defense sweep: simulating " << participants << "x"
              << slots << " fleet" << (quick ? " (quick)" : "") << "...\n";
    const mcs::TraceDataset truth =
        mcs::make_small_dataset(11, participants, slots);
    mcs::CorruptionConfig base;
    base.missing_ratio = 0.2;
    base.fault_ratio = 0.05;
    base.seed = 5;

    const mcs::DefenseSuite armed{mcs::DefenseSpec{}};

    struct Cell {
        const char* family;
        std::size_t level;
        std::string spec;
    };
    std::vector<Cell> cells;
    cells.push_back({"baseline", 0, ""});
    const std::vector<std::size_t> collusion_sizes =
        quick ? std::vector<std::size_t>{24}
              : std::vector<std::size_t>{8, 16, 24, 32};
    for (const std::size_t k : collusion_sizes) {
        cells.push_back({"collusion", k,
                         "collude=" + std::to_string(k) + ",seed=9"});
    }
    if (!quick) {
        cells.push_back({"replay", 8, "replay=8,replayshift=5,seed=9"});
    }

    mcs::Json rows = mcs::Json::array();
    bool all_valid = true;
    std::vector<std::pair<std::size_t, double>> collusion_f1_off;
    std::vector<std::pair<std::size_t, double>> collusion_f1_on;
    std::vector<std::pair<std::size_t, double>> collusion_recall_on;
    double clean_f1[2] = {0.0, 0.0};  // [off, on]
    double clean_wall_ms[2] = {0.0, 0.0};
    bool armed_clean_identical = true;

    for (const Cell& cell : cells) {
        mcs::CorruptionConfig corruption = base;
        if (!cell.spec.empty()) {
            corruption.adversary = mcs::AdversarySpec::parse(cell.spec);
        }
        const mcs::CorruptedDataset data = mcs::corrupt(truth, corruption);
        const mcs::ItscsInput input = mcs::to_itscs_input(data);
        mcs::FleetResult clean_runs[2];
        for (const bool defended : {false, true}) {
            std::cerr << "defense sweep: "
                      << (cell.spec.empty() ? "baseline" : cell.spec)
                      << " defense=" << (defended ? "on" : "off") << "\n";
            mcs::RuntimeConfig config;
            config.threads = 4;
            config.shard_size = shard_size;
            config.remainder = mcs::ShardRemainder::kTail;
            if (defended) {
                config.defense = &armed;
            }
            mcs::FleetRunner runner(config);
            runner.run(input, mcs::ItscsConfig{});  // warm-up
            mcs::FleetResult fleet;
            std::vector<double> samples;
            samples.reserve(repeat);
            for (std::size_t rep = 0; rep < repeat; ++rep) {
                const mcs::Stopwatch timer;
                fleet = runner.run(input, mcs::ItscsConfig{});
                samples.push_back(timer.elapsed_seconds() * 1000.0);
            }
            const double wall_ms = median(std::move(samples));

            const mcs::ConfusionCounts confusion = mcs::evaluate_detection(
                fleet.aggregate.detection, data.fault, data.existence);
            const double adv_recall = adversary_recall(
                fleet.aggregate.detection, data.adversary.mask);
            const double mae = mcs::reconstruction_mae(
                truth.x, truth.y, fleet.aggregate.reconstructed_x,
                fleet.aggregate.reconstructed_y, data.existence,
                fleet.aggregate.detection);
            // Provenance-aware quality (DESIGN.md §17): the collusion
            // term sees the colluders the three self-consistency terms
            // are blind to, defence or no defence.
            mcs::QualityConfig quality_config;
            quality_config.collusion_ratio = armed.spec().collusion;
            const mcs::QualityScore quality = mcs::evaluate_quality(
                data.sx, data.sy, data.existence,
                fleet.aggregate.detection, fleet.aggregate.reconstructed_x,
                fleet.aggregate.reconstructed_y, data.tau_s,
                quality_config);

            const bool finite =
                !fleet.aggregate.detection.empty() &&
                all_finite(fleet.aggregate.detection) &&
                all_finite(fleet.aggregate.reconstructed_x) &&
                all_finite(fleet.aggregate.reconstructed_y) &&
                std::isfinite(confusion.f1()) && std::isfinite(mae) &&
                std::isfinite(quality.composite) && std::isfinite(wall_ms);
            all_valid = all_valid && finite;

            const std::size_t index = defended ? 1 : 0;
            if (std::string_view(cell.family) == "collusion") {
                (defended ? collusion_f1_on : collusion_f1_off)
                    .emplace_back(cell.level, confusion.f1());
                if (defended) {
                    collusion_recall_on.emplace_back(cell.level,
                                                     adv_recall);
                }
            } else if (std::string_view(cell.family) == "baseline") {
                clean_f1[index] = confusion.f1();
                clean_wall_ms[index] = wall_ms;
            }

            mcs::Json row = mcs::Json::object();
            row["family"] = std::string(cell.family);
            row["level"] = cell.level;
            row["spec"] = cell.spec;
            row["defense"] = std::string(defended ? "on" : "off");
            row["adversarial_cells"] =
                mcs::count_equal(data.adversary.mask, 1.0);
            row["precision"] = confusion.precision();
            row["recall"] = confusion.recall();
            row["f1"] = confusion.f1();
            row["false_positive_rate"] = confusion.false_positive_rate();
            row["adversary_recall"] = adv_recall;
            row["reconstruction_mae_m"] = mae;
            row["quality_composite"] = quality.composite;
            row["quality_provenance_integrity"] =
                quality.provenance_integrity;
            row["participants_quarantined"] =
                fleet.defense.quarantined.size();
            row["quarantine_confirmed"] = fleet.defense.confirmed.size();
            row["quarantine_reinstated"] =
                fleet.defense.reinstated.size();
            row["defense_trips"] = fleet.defense.trips;
            row["wall_ms"] = wall_ms;
            row["valid"] = finite;
            rows.push_back(row);

            if (std::string_view(cell.family) == "baseline") {
                clean_runs[index] = std::move(fleet);
            }
        }
        if (std::string_view(cell.family) == "baseline") {
            // Clean-path guarantee #1: an armed suite that quarantines
            // nobody must leave the output bit-identical.
            armed_clean_identical =
                clean_runs[1].defense.quarantined.empty() &&
                bitwise_equal(clean_runs[0].aggregate.detection,
                              clean_runs[1].aggregate.detection) &&
                bitwise_equal(clean_runs[0].aggregate.reconstructed_x,
                              clean_runs[1].aggregate.reconstructed_x) &&
                bitwise_equal(clean_runs[0].aggregate.reconstructed_y,
                              clean_runs[1].aggregate.reconstructed_y);
        }
    }
    all_valid = all_valid && armed_clean_identical;

    // Clean-path guarantee #2: the armed suite's whole cost on an honest
    // fleet is one analyze() pass (empty quarantine leaves the single
    // solve untouched), so the overhead is that pass against the clean
    // solve wall. The difference of two full-run medians would gate the
    // CI on scheduler noise, not on the defence.
    const mcs::CorruptedDataset clean_data = mcs::corrupt(truth, base);
    const mcs::ItscsInput clean_input = mcs::to_itscs_input(clean_data);
    std::vector<double> analyze_samples;
    for (std::size_t rep = 0; rep < std::max<std::size_t>(repeat, 3); ++rep) {
        const mcs::Stopwatch timer;
        const mcs::DefenseReport probe = armed.analyze(
            clean_input.sx, clean_input.sy, clean_input.existence);
        analyze_samples.push_back(timer.elapsed_seconds() * 1000.0);
        all_valid = all_valid && probe.quarantined.empty();
    }
    const double analyze_ms = median(std::move(analyze_samples));
    const double overhead_pct =
        clean_wall_ms[0] > 0.0 ? 100.0 * analyze_ms / clean_wall_ms[0]
                               : 0.0;
    const bool overhead_ok =
        std::isfinite(overhead_pct) && overhead_pct < 2.0;
    all_valid = all_valid && overhead_ok;

    // Idle-suite identity: `--defense collusion=0,replay=0,outage=0` must
    // be indistinguishable from no --defense at all, at any thread count.
    std::cerr << "defense sweep: idle identity checks\n";
    const mcs::DefenseSuite idle(
        mcs::DefenseSpec::parse("collusion=0,replay=0,outage=0"));
    const auto run_with = [&](std::size_t threads,
                              const mcs::DefenseSuite* defense) {
        mcs::RuntimeConfig config;
        config.threads = threads;
        config.shard_size = shard_size;
        config.remainder = mcs::ShardRemainder::kTail;
        config.defense = defense;
        mcs::FleetRunner runner(config);
        return runner.run(clean_input, mcs::ItscsConfig{});
    };
    const mcs::FleetResult plain = run_with(1, nullptr);
    const auto same = [](const mcs::FleetResult& a,
                         const mcs::FleetResult& b) {
        return bitwise_equal(a.aggregate.detection, b.aggregate.detection) &&
               bitwise_equal(a.aggregate.reconstructed_x,
                             b.aggregate.reconstructed_x) &&
               bitwise_equal(a.aggregate.reconstructed_y,
                             b.aggregate.reconstructed_y);
    };
    bool idle_identical = true;
    for (const std::size_t threads : {1u, 2u, 7u}) {
        idle_identical = idle_identical && same(plain, run_with(threads, &idle));
    }
    all_valid = all_valid && idle_identical;

    // Breaking-point claim at k=24 (present in quick and full sweeps):
    // the undefended detector has collapsed there, the defended one holds.
    const auto at_level =
        [](const std::vector<std::pair<std::size_t, double>>& curve,
           std::size_t level) {
            for (const auto& [k, value] : curve) {
                if (k == level) {
                    return value;
                }
            }
            return -1.0;
        };
    const double off_f1_24 = at_level(collusion_f1_off, 24);
    const double on_f1_24 = at_level(collusion_f1_on, 24);
    const double on_recall_24 = at_level(collusion_recall_on, 24);
    const bool claim_ok =
        off_f1_24 >= 0.0 && off_f1_24 < 0.5 && on_f1_24 >= 0.5 &&
        on_recall_24 >= 0.5;
    all_valid = all_valid && claim_ok;

    const auto breaking_point =
        [](const std::vector<std::pair<std::size_t, double>>& curve) {
            for (const auto& [k, f1] : curve) {
                if (f1 < 0.5) {
                    return mcs::Json(k);
                }
            }
            return mcs::Json(nullptr);
        };

    mcs::Json report = mcs::Json::object();
    report["fleet"] = mcs::Json::object();
    report["fleet"]["participants"] = participants;
    report["fleet"]["slots"] = slots;
    report["fleet"]["shard_size"] = shard_size;
    report["fleet"]["shards"] = shards;
    report["background"] = mcs::Json::object();
    report["background"]["missing_ratio"] = base.missing_ratio;
    report["background"]["fault_ratio"] = base.fault_ratio;
    mcs::stamp_environment(report, repeat, /*threads_used=*/4, quick);
    report["sweep"] = std::move(rows);
    mcs::Json breaking = mcs::Json::object();
    breaking["clean_f1_defense_off"] = clean_f1[0];
    breaking["clean_f1_defense_on"] = clean_f1[1];
    breaking["f1_below_half_defense_off"] =
        breaking_point(collusion_f1_off);
    breaking["f1_below_half_defense_on"] = breaking_point(collusion_f1_on);
    breaking["defense_off_f1_at_k24"] = off_f1_24;
    breaking["defense_on_f1_at_k24"] = on_f1_24;
    breaking["defense_on_adversary_recall_at_k24"] = on_recall_24;
    breaking["claim_holds"] = claim_ok;
    report["collusion_breaking_point"] = std::move(breaking);
    mcs::Json clean_path = mcs::Json::object();
    clean_path["armed_clean_bit_identical"] = armed_clean_identical;
    clean_path["idle_bit_identical_at_1_2_7_threads"] = idle_identical;
    clean_path["clean_wall_ms_defense_off"] = clean_wall_ms[0];
    clean_path["clean_wall_ms_defense_on"] = clean_wall_ms[1];
    clean_path["analyze_ms"] = analyze_ms;
    clean_path["overhead_pct"] = overhead_pct;
    clean_path["overhead_below_2pct"] = overhead_ok;
    report["clean_path"] = std::move(clean_path);
    report["all_valid"] = all_valid;
    if (all_valid_out != nullptr) {
        *all_valid_out = all_valid;
    }
    return report;
}

}  // namespace

int main(int argc, char** argv) {
    bool stats_only = false;
    bool scale_sweep = false;
    bool chaos_sweep = false;
    bool checkpoint_sweep = false;
    bool adversary_sweep = false;
    bool defense_sweep = false;
    bool quick = false;
    std::size_t repeat = 0;  // 0 = per-sweep default
    std::vector<char*> args;
    args.reserve(static_cast<std::size_t>(argc));
    for (int i = 0; i < argc; ++i) {
        if (std::string_view(argv[i]) == "--stats-only") {
            stats_only = true;
            continue;
        }
        if (std::string_view(argv[i]) == "--repeat" && i + 1 < argc) {
            repeat = static_cast<std::size_t>(
                std::max(1L, std::atol(argv[++i])));
            continue;
        }
        if (std::string_view(argv[i]) == "--scale-sweep") {
            scale_sweep = true;
            continue;
        }
        if (std::string_view(argv[i]) == "--chaos-sweep") {
            chaos_sweep = true;
            continue;
        }
        if (std::string_view(argv[i]) == "--checkpoint-sweep") {
            checkpoint_sweep = true;
            continue;
        }
        if (std::string_view(argv[i]) == "--adversary-sweep") {
            adversary_sweep = true;
            continue;
        }
        if (std::string_view(argv[i]) == "--defense-sweep") {
            defense_sweep = true;
            continue;
        }
        if (std::string_view(argv[i]) == "--quick") {
            quick = true;
            continue;
        }
        args.push_back(argv[i]);
    }
    if (scale_sweep) {
        bool all_claims = false;
        const mcs::Json report =
            scale_sweep_report(repeat == 0 ? 1 : repeat, quick,
                               &all_claims);
        std::ofstream out("BENCH_scale.json");
        out << report.dump(2) << "\n";
        std::cout << report.dump(2) << "\n";
        if (!all_claims) {
            std::cerr << "scale sweep: FAILED — over budget, an identity "
                         "break, or an f32 F1 drift beyond 1e-3\n";
            return 1;
        }
        return 0;
    }
    if (chaos_sweep) {
        const mcs::Json report =
            chaos_sweep_report(repeat == 0 ? 3 : repeat);
        std::ofstream out("BENCH_chaos.json");
        out << report.dump(2) << "\n";
        std::cout << report.dump(2) << "\n";
        return 0;
    }
    if (checkpoint_sweep) {
        const mcs::Json report =
            checkpoint_sweep_report(repeat == 0 ? 3 : repeat);
        std::ofstream out("BENCH_checkpoint.json");
        out << report.dump(2) << "\n";
        std::cout << report.dump(2) << "\n";
        return 0;
    }
    if (adversary_sweep) {
        bool all_valid = false;
        const mcs::Json report = adversary_sweep_report(
            repeat == 0 ? 3 : repeat, quick, &all_valid);
        std::ofstream out("BENCH_adversary.json");
        out << report.dump(2) << "\n";
        std::cout << report.dump(2) << "\n";
        if (!all_valid) {
            std::cerr << "adversary sweep: FAILED — empty, non-finite, or "
                         "non-reproducible results in at least one cell\n";
            return 1;
        }
        return 0;
    }
    if (defense_sweep) {
        bool all_valid = false;
        const mcs::Json report = defense_sweep_report(
            repeat == 0 ? 3 : repeat, quick, &all_valid);
        std::ofstream out("BENCH_defense.json");
        out << report.dump(2) << "\n";
        std::cout << report.dump(2) << "\n";
        if (!all_valid) {
            std::cerr << "defense sweep: FAILED — a non-finite cell, a "
                         "clean-path deviation or overhead regression, or "
                         "an unmet k=24 breaking-point claim\n";
            return 1;
        }
        return 0;
    }
    if (!stats_only) {
        int filtered_argc = static_cast<int>(args.size());
        benchmark::Initialize(&filtered_argc, args.data());
        if (benchmark::ReportUnrecognizedArguments(filtered_argc,
                                                   args.data())) {
            return 1;
        }
        benchmark::RunSpecifiedBenchmarks();
        benchmark::Shutdown();
    }
    std::cout << instrumented_pipeline_report().dump(2) << "\n";
    return 0;
}
