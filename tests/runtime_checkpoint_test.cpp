// Checkpoint/resume semantics of the fleet runner (DESIGN.md §12).
//
// The contract under test: a run that checkpoints, dies, and resumes
// produces output bit-identical to an uninterrupted run — at any thread
// count — and any damage to the journal (truncation, bit rot, a record
// from a different run) costs a re-run of the affected shards, never
// correctness. Where a test takes a Source, it holds for in-core runs and
// for runs streamed through a slab store alike. In-process we simulate death by *withholding* journal
// frames (truncating the file between runs) rather than aborting; the
// real process-abort path (`--chaos=crash=k`) is exercised end-to-end by
// tools/test_crash_resume.sh.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/context.hpp"
#include "common/json.hpp"
#include "corruption/scenario.hpp"
#include "eval/methods.hpp"
#include "persist/checkpoint.hpp"
#include "persist/frame_io.hpp"
#include "persist/slab_store.hpp"
#include "runtime/fleet_runner.hpp"
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

RuntimeConfig runtime_config(std::size_t threads,
                             const std::string& checkpoint_dir = "",
                             bool resume = false) {
    RuntimeConfig config;
    config.threads = threads;
    config.shard_size = kShardSize;
    config.checkpoint_dir = checkpoint_dir;
    config.resume = resume;
    return config;
}

class CheckpointDir {
public:
    CheckpointDir() {
        dir_ = std::filesystem::temp_directory_path() /
               ("mcs_ckpt_test_" +
                std::to_string(reinterpret_cast<std::uintptr_t>(this)));
    }
    ~CheckpointDir() {
        std::error_code ec;
        std::filesystem::remove_all(dir_, ec);
    }
    std::string path() const { return dir_.string(); }
    std::string journal() const { return (dir_ / "journal.bin").string(); }
    std::string manifest() const {
        return (dir_ / "manifest.json").string();
    }

private:
    std::filesystem::path dir_;
};

// Leave only the first `keep` frames of the journal — the on-disk state
// of a process that died right after its keep-th commit.
void drop_frames_after(const std::string& journal_path, std::size_t keep) {
    FrameScan scan = scan_frames(journal_path);
    ASSERT_GE(scan.frames.size(), keep);
    scan.frames.resize(keep);
    rewrite_frames(journal_path, scan.frames);
}

// Where a run's shard rows live: the fleet matrices, or a slab store.
enum class Source { kInCore, kSlab };

// Run the fleet from `source`. A slab run (which needs a checkpoint
// directory) lays its store out in the directory's "slabs" subdirectory,
// or reopens it when resuming, and gathers the output slabs into the
// aggregate so both sources compare alike.
FleetResult run_from(Source source, const RuntimeConfig& config,
                     const ItscsInput& input,
                     PipelineContext* ctx = nullptr) {
    FleetRunner runner(config);
    if (source == Source::kInCore) {
        return runner.run(input, ItscsConfig{}, ctx);
    }
    const std::string slabs = config.checkpoint_dir + "/slabs";
    std::unique_ptr<SlabStore> store =
        config.resume ? std::make_unique<SlabStore>(slabs)
                      : runner.create_slab_store(slabs, input);
    FleetResult fleet = runner.run_streamed(*store, ItscsConfig{}, ctx);
    ItscsResult& out = fleet.aggregate;
    out.detection = Matrix(kParticipants, kSlots);
    out.reconstructed_x = Matrix(kParticipants, kSlots);
    out.reconstructed_y = Matrix(kParticipants, kSlots);
    for (std::size_t s = 0; s < store->shards().size(); ++s) {
        const std::size_t rows = store->shards()[s].size();
        const std::size_t begin = store->shards()[s].begin;
        Matrix det(rows, kSlots);
        Matrix rx(rows, kSlots);
        Matrix ry(rows, kSlots);
        double* mats[kSlabOutputMatrices] = {
            det.data().data(), rx.data().data(), ry.data().data()};
        store->read_outputs(s, mats);
        for (std::size_t k = 0; k < rows; ++k) {
            for (std::size_t j = 0; j < kSlots; ++j) {
                out.detection(begin + k, j) = det(k, j);
                out.reconstructed_x(begin + k, j) = rx(k, j);
                out.reconstructed_y(begin + k, j) = ry(k, j);
            }
        }
    }
    return fleet;
}

void flip_byte(const std::string& path, std::size_t offset) {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(static_cast<std::streamoff>(offset));
    char b = 0;
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x04);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(&b, 1);
}

TEST(RuntimeCheckpointTest, CheckpointedRunMatchesPlainRunBitwise) {
    const ItscsInput input = fleet_input();
    FleetRunner plain(runtime_config(2));
    const FleetResult reference = plain.run(input, ItscsConfig{});

    CheckpointDir dir;
    FleetRunner checkpointed(runtime_config(2, dir.path()));
    const FleetResult fleet = checkpointed.run(input, ItscsConfig{});

    EXPECT_TRUE(bitwise_equal(fleet.aggregate.detection,
                              reference.aggregate.detection));
    EXPECT_TRUE(bitwise_equal(fleet.aggregate.reconstructed_x,
                              reference.aggregate.reconstructed_x));
    EXPECT_TRUE(bitwise_equal(fleet.aggregate.reconstructed_y,
                              reference.aggregate.reconstructed_y));
    EXPECT_TRUE(fleet.checkpoint.enabled);
    EXPECT_EQ(fleet.checkpoint.shards_run, fleet.shards.size());
    EXPECT_EQ(fleet.checkpoint.shards_loaded, 0u);

    // Every shard left one CRC-valid frame in the journal.
    const FrameScan scan = scan_frames(dir.journal());
    EXPECT_EQ(scan.frames.size(), fleet.shards.size());
    EXPECT_EQ(scan.corrupt_frames, 0u);
    EXPECT_TRUE(std::filesystem::exists(dir.manifest()));
}

TEST(RuntimeCheckpointTest, ResumeAfterPartialJournalIsBitIdentical) {
    const ItscsInput input = fleet_input();
    FleetRunner plain(runtime_config(1));
    const FleetResult reference = plain.run(input, ItscsConfig{});

    // The interrupted run ran at 2 threads; the resume sweeps 1, 2 and 7
    // threads — the restored+recomputed stitching must be thread-blind.
    for (const std::size_t resume_threads : {1u, 2u, 7u}) {
        CheckpointDir dir;
        {
            FleetRunner first(runtime_config(2, dir.path()));
            first.run(input, ItscsConfig{});
        }
        drop_frames_after(dir.journal(), 3);

        PipelineContext ctx;
        FleetRunner second(
            runtime_config(resume_threads, dir.path(), /*resume=*/true));
        const FleetResult fleet = second.run(input, ItscsConfig{}, &ctx);

        EXPECT_EQ(fleet.checkpoint.shards_loaded, 3u)
            << "threads=" << resume_threads;
        EXPECT_EQ(fleet.checkpoint.shards_run, fleet.shards.size() - 3)
            << "threads=" << resume_threads;
        EXPECT_TRUE(bitwise_equal(fleet.aggregate.detection,
                                  reference.aggregate.detection));
        EXPECT_TRUE(bitwise_equal(fleet.aggregate.reconstructed_x,
                                  reference.aggregate.reconstructed_x));
        EXPECT_TRUE(bitwise_equal(fleet.aggregate.reconstructed_y,
                                  reference.aggregate.reconstructed_y));
        // Restored shards carry their journaled diagnostics (seed and row
        // range re-validated against the recomputed plan at load time).
        for (const ShardRunReport& report : fleet.shards) {
            EXPECT_EQ(report.shard.size(), kShardSize);
            EXPECT_NE(report.seed, 0u);
        }
        EXPECT_EQ(ctx.counters().checkpoint_shards_resumed, 3u);
        EXPECT_GT(ctx.counters().checkpoint_commits, 0u);
    }
}

TEST(RuntimeCheckpointTest, ResumeWithFullJournalRunsNothing) {
    const ItscsInput input = fleet_input();
    CheckpointDir dir;
    FleetResult first_result;
    {
        FleetRunner first(runtime_config(2, dir.path()));
        first_result = first.run(input, ItscsConfig{});
    }
    FleetRunner second(runtime_config(2, dir.path(), /*resume=*/true));
    const FleetResult fleet = second.run(input, ItscsConfig{});
    EXPECT_EQ(fleet.checkpoint.shards_loaded, fleet.shards.size());
    EXPECT_EQ(fleet.checkpoint.shards_run, 0u);
    EXPECT_TRUE(bitwise_equal(fleet.aggregate.reconstructed_x,
                              first_result.aggregate.reconstructed_x));
    EXPECT_EQ(fleet.aggregate.iterations,
              first_result.aggregate.iterations);
    EXPECT_EQ(fleet.aggregate.converged,
              first_result.aggregate.converged);
    // History restored from journaled records, not recomputed.
    ASSERT_EQ(fleet.aggregate.history.size(),
              first_result.aggregate.history.size());
    for (std::size_t k = 0; k < fleet.aggregate.history.size(); ++k) {
        EXPECT_EQ(fleet.aggregate.history[k].flagged,
                  first_result.aggregate.history[k].flagged);
    }
}

TEST(RuntimeCheckpointTest, BitFlippedFrameIsReportedAndReRun) {
    const ItscsInput input = fleet_input();
    FleetRunner plain(runtime_config(1));
    const FleetResult reference = plain.run(input, ItscsConfig{});

    for (const Source source : {Source::kInCore, Source::kSlab}) {
        SCOPED_TRACE(source == Source::kInCore ? "in-core" : "slab");
        CheckpointDir dir;
        run_from(source, runtime_config(2, dir.path()), input);
        // Flip one byte in the middle of the third frame's *payload*
        // (headers delimit frames; damaging one would tear the tail
        // instead): exactly one frame dies, every other frame stays
        // loadable.
        const FrameScan before = scan_frames(dir.journal());
        ASSERT_GE(before.frames.size(), 3u);
        std::size_t offset = 0;
        for (std::size_t k = 0; k < 2; ++k) {
            offset += 16 + before.frames[k].size();
        }
        offset += 16 + before.frames[2].size() / 2;
        flip_byte(dir.journal(), offset);

        PipelineContext ctx;
        const FleetResult fleet =
            run_from(source, runtime_config(2, dir.path(), /*resume=*/true),
                     input, &ctx);

        EXPECT_EQ(fleet.checkpoint.corrupt_frames, 1u);
        EXPECT_EQ(fleet.checkpoint.shards_run, 1u);
        EXPECT_EQ(fleet.checkpoint.shards_loaded, fleet.shards.size() - 1);
        ASSERT_FALSE(fleet.checkpoint.journal_failures.empty());
        EXPECT_EQ(fleet.checkpoint.journal_failures[0].kind,
                  FailureKind::kCheckpointCorrupt);
        EXPECT_EQ(ctx.counters().checkpoint_corrupt_frames, 1u);

        EXPECT_TRUE(bitwise_equal(fleet.aggregate.detection,
                                  reference.aggregate.detection));
        EXPECT_TRUE(bitwise_equal(fleet.aggregate.reconstructed_x,
                                  reference.aggregate.reconstructed_x));
        EXPECT_TRUE(bitwise_equal(fleet.aggregate.reconstructed_y,
                                  reference.aggregate.reconstructed_y));
    }
}

TEST(RuntimeCheckpointTest, TornTailIsRecoveredFrom) {
    const ItscsInput input = fleet_input();
    FleetRunner plain(runtime_config(1));
    const FleetResult reference = plain.run(input, ItscsConfig{});

    CheckpointDir dir;
    {
        FleetRunner first(runtime_config(2, dir.path()));
        first.run(input, ItscsConfig{});
    }
    // Tear the tail mid-frame, like a crash during the final append.
    const std::size_t size = static_cast<std::size_t>(
        std::filesystem::file_size(dir.journal()));
    std::filesystem::resize_file(dir.journal(), size - 11);

    FleetRunner second(runtime_config(2, dir.path(), /*resume=*/true));
    const FleetResult fleet = second.run(input, ItscsConfig{});
    EXPECT_TRUE(fleet.checkpoint.torn_tail);
    EXPECT_EQ(fleet.checkpoint.shards_run, 1u);
    EXPECT_TRUE(bitwise_equal(fleet.aggregate.reconstructed_x,
                              reference.aggregate.reconstructed_x));
}

TEST(RuntimeCheckpointTest, MismatchedInputRefusesToResume) {
    const ItscsInput input = fleet_input();
    CheckpointDir dir;
    {
        FleetRunner first(runtime_config(2, dir.path()));
        first.run(input, ItscsConfig{});
    }
    // Same shapes, different readings: the input fingerprint must differ.
    ItscsInput other = input;
    other.sx(0, 0) += 1.0;
    FleetRunner second(runtime_config(2, dir.path(), /*resume=*/true));
    EXPECT_THROW(second.run(other, ItscsConfig{}), Error);
}

TEST(RuntimeCheckpointTest, MismatchedSeedRefusesToResume) {
    const ItscsInput input = fleet_input();
    for (const Source source : {Source::kInCore, Source::kSlab}) {
        SCOPED_TRACE(source == Source::kInCore ? "in-core" : "slab");
        CheckpointDir dir;
        run_from(source, runtime_config(2, dir.path()), input);
        RuntimeConfig changed =
            runtime_config(2, dir.path(), /*resume=*/true);
        changed.seed = 0xBADull;
        EXPECT_THROW(run_from(source, changed, input), Error);
    }
}

TEST(RuntimeCheckpointTest, MismatchedPlanRefusesToResume) {
    const ItscsInput input = fleet_input();
    CheckpointDir dir;
    {
        FleetRunner first(runtime_config(2, dir.path()));
        first.run(input, ItscsConfig{});
    }
    RuntimeConfig changed = runtime_config(2, dir.path(), /*resume=*/true);
    changed.shard_size = kShardSize * 2;  // different decomposition
    FleetRunner second(changed);
    EXPECT_THROW(second.run(input, ItscsConfig{}), Error);
}

TEST(RuntimeCheckpointTest, MismatchedKernelTierRefusesToResume) {
    const ItscsInput input = fleet_input();
    CheckpointDir dir;
    {
        FleetRunner first(runtime_config(2, dir.path()));  // exact tier
        first.run(input, ItscsConfig{});
    }
    // The tier is part of the numerics: silently resuming an exact-tier
    // journal under the fast tier would stitch two roundings into one
    // result. The refusal names the tier, not just a hash.
    RuntimeConfig changed = runtime_config(2, dir.path(), /*resume=*/true);
    changed.kernel_tier = KernelTier::kFast;
    FleetRunner second(changed);
    try {
        second.run(input, ItscsConfig{});
        FAIL() << "expected the tier mismatch to throw";
    } catch (const Error& error) {
        EXPECT_NE(std::string(error.what()).find("kernel tier"),
                  std::string::npos)
            << error.what();
    }
}

TEST(RuntimeCheckpointTest, MismatchedVersionRefusesToResume) {
    // A store written in the previous checkpoint layout is refused by the
    // manifest handshake, before any journal record is decoded.
    const ItscsInput input = fleet_input();
    CheckpointDir dir;
    {
        FleetRunner first(runtime_config(2, dir.path()));
        first.run(input, ItscsConfig{});
    }
    Json manifest = read_json_file(dir.manifest());
    manifest["version"] = static_cast<double>(kCheckpointVersion - 1);
    write_json_file(dir.manifest(), manifest);

    FleetRunner second(runtime_config(2, dir.path(), /*resume=*/true));
    try {
        second.run(input, ItscsConfig{});
        FAIL() << "expected the version mismatch to throw";
    } catch (const Error& error) {
        EXPECT_NE(std::string(error.what()).find("version differs"),
                  std::string::npos)
            << error.what();
    }
}

TEST(RuntimeCheckpointTest, MismatchedDefenseSpecRefusesToResume) {
    // The defence spec shapes the final solve's input (quarantined rows
    // are masked out), so it is folded into the runtime fingerprint:
    // resuming a journal written under a different spec must refuse
    // rather than stitch two quarantine policies into one result.
    const ItscsInput input = fleet_input();
    const DefenseSuite armed{DefenseSpec{}};
    CheckpointDir dir;
    {
        RuntimeConfig config = runtime_config(2, dir.path());
        config.defense = &armed;
        FleetRunner first(config);
        first.run(input, ItscsConfig{});
    }
    const DefenseSuite stricter(DefenseSpec::parse("collusion=2,replay=0.9"));
    RuntimeConfig changed = runtime_config(2, dir.path(), /*resume=*/true);
    changed.defense = &stricter;
    FleetRunner second(changed);
    try {
        second.run(input, ItscsConfig{});
        FAIL() << "expected the defence spec mismatch to throw";
    } catch (const Error& error) {
        EXPECT_NE(std::string(error.what()).find("runtime_fingerprint"),
                  std::string::npos)
            << error.what();
    }

    // The same spec resumes cleanly: the refusal keys on the spec, not on
    // the mere presence of a defence suite.
    RuntimeConfig same = runtime_config(2, dir.path(), /*resume=*/true);
    same.defense = &armed;
    FleetRunner third(same);
    const FleetResult resumed = third.run(input, ItscsConfig{});
    EXPECT_EQ(resumed.checkpoint.shards_loaded, resumed.shards.size());
}

TEST(RuntimeCheckpointTest, FastTierResumeIsBitIdentical) {
    const ItscsInput input = fleet_input();

    RuntimeConfig plain_config = runtime_config(2);
    plain_config.kernel_tier = KernelTier::kFast;
    FleetRunner plain(plain_config);
    const FleetResult reference = plain.run(input, ItscsConfig{});

    CheckpointDir dir;
    RuntimeConfig ck_config = runtime_config(2, dir.path());
    ck_config.kernel_tier = KernelTier::kFast;
    {
        FleetRunner first(ck_config);
        first.run(input, ItscsConfig{});
    }
    drop_frames_after(dir.journal(), 3);

    ck_config.resume = true;
    FleetRunner resumed_runner(ck_config);
    const FleetResult resumed = resumed_runner.run(input, ItscsConfig{});
    EXPECT_EQ(resumed.checkpoint.shards_loaded, 3u);
    EXPECT_EQ(resumed.checkpoint.shards_run, resumed.shards.size() - 3u);
    EXPECT_TRUE(bitwise_equal(resumed.aggregate.detection,
                              reference.aggregate.detection));
    EXPECT_TRUE(bitwise_equal(resumed.aggregate.reconstructed_x,
                              reference.aggregate.reconstructed_x));
    EXPECT_TRUE(bitwise_equal(resumed.aggregate.reconstructed_y,
                              reference.aggregate.reconstructed_y));
}

TEST(RuntimeCheckpointTest, FreshRunWithoutResumeResetsTheJournal) {
    const ItscsInput input = fleet_input();
    CheckpointDir dir;
    {
        FleetRunner first(runtime_config(2, dir.path()));
        first.run(input, ItscsConfig{});
    }
    // Re-running *without* --resume starts over: the journal is reset and
    // every shard runs again.
    FleetRunner second(runtime_config(2, dir.path()));
    const FleetResult fleet = second.run(input, ItscsConfig{});
    EXPECT_EQ(fleet.checkpoint.shards_loaded, 0u);
    EXPECT_EQ(fleet.checkpoint.shards_run, fleet.shards.size());
}

TEST(RuntimeCheckpointTest, ResumeWithNoPriorStateIsAFreshRun) {
    const ItscsInput input = fleet_input();
    CheckpointDir dir;
    FleetRunner runner(runtime_config(2, dir.path(), /*resume=*/true));
    const FleetResult fleet = runner.run(input, ItscsConfig{});
    EXPECT_EQ(fleet.checkpoint.shards_loaded, 0u);
    EXPECT_EQ(fleet.checkpoint.shards_run, fleet.shards.size());
    // And the journal it left is immediately resumable.
    FleetRunner again(runtime_config(2, dir.path(), /*resume=*/true));
    const FleetResult resumed = again.run(input, ItscsConfig{});
    EXPECT_EQ(resumed.checkpoint.shards_loaded, resumed.shards.size());
}

}  // namespace
}  // namespace mcs
