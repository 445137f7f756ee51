// Durable checkpoint/resume for sharded fleet runs (DESIGN.md §12).
//
// A checkpointed run leaves two artifacts in its checkpoint directory:
//
//   manifest.json   what this run *is*: matrix shapes, the shard plan, and
//                   fingerprints of the input data, the ItscsConfig, and
//                   the runtime knobs that shape the numerics. Written
//                   once, crash-safely (tmp → flush → fsync → rename).
//   journal.bin     what has *happened*: one CRC-framed binary record per
//                   completed shard (frame_io.hpp), appended and flushed
//                   as each shard commits — at whatever degradation-ladder
//                   level it completed.
//
// Resume is a three-way handshake: the manifest proves the journal belongs
// to this exact run (any fingerprint mismatch is an error — silently
// resuming different input would fabricate results); the frame CRCs prove
// each record survived the crash; and the per-record shard/seed fields are
// re-checked against the recomputed plan. Records that fail any check are
// counted as corrupt and their shards simply re-run — corruption costs
// work, never correctness. Because shard seeds derive from the plan, not
// from execution order, a resumed run is bit-identical to an uninterrupted
// one.
//
// Layering: persist sits on core (it stores core's result types) and knows
// nothing of the runtime subsystem; FleetRunner converts its ShardRunReport
// to/from the ShardCheckpoint record defined here.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/context.hpp"
#include "common/failure.hpp"
#include "core/itscs.hpp"
#include "linalg/matrix.hpp"
#include "persist/frame_io.hpp"

namespace mcs {

class Json;

/// Bump when the record or manifest layout changes; a mismatched version
/// refuses to resume rather than guessing at old layouts.
/// v2: per-kernel FLOP counters in PipelineCounters; kernel_tier in the
/// manifest.
/// v3: per-backend solver counters in PipelineCounters; solver_backend in
/// the manifest.
/// v4 (DESIGN.md §18): mixed-tier / work-steal / slab counters in
/// PipelineCounters; per-record shard member fingerprints (by_cell shards
/// are not identified by begin/end alone); metadata-only records for
/// out-of-core runs (outputs_in_slab + output_slab_crc — the result bytes
/// live in the slab store, the journal holds their CRC); planner,
/// plan_fingerprint and slab storage/geometry in the manifest, so a
/// resume refuses a changed planner, storage tier or slab layout.
/// v5: the per-backend solver counters and the mixed-tier gate counters
/// left PipelineCounters (six fewer u64s per record), and solver_backend
/// left the manifest, with the LRSD backend and the mixed kernel tier.
inline constexpr std::uint32_t kCheckpointVersion = 5;

/// One journal record: everything FleetRunner needs to stitch a completed
/// shard into the fleet result without re-running it.
struct ShardCheckpoint {
    std::uint64_t shard_index = 0;
    std::uint64_t row_begin = 0;
    std::uint64_t row_end = 0;
    /// Shard::members_fingerprint() of the rows this record covers —
    /// begin/end alone cannot identify a non-contiguous by_cell shard.
    std::uint64_t members_fingerprint = 0;
    std::uint64_t seed = 0;  ///< the shard context's derived seed

    std::uint64_t iterations = 0;
    bool converged = false;
    std::uint32_t level = 0;  ///< DegradationLevel as its integer value
    std::uint64_t attempts = 1;
    std::vector<FailureReport> failures;

    /// True for out-of-core runs: the result matrices below are empty and
    /// the shard's rows live in its slab-store output slab, whose used
    /// bytes must CRC to output_slab_crc for the record to count on
    /// resume (a torn slab fails the check and the shard re-runs).
    bool outputs_in_slab = false;
    std::uint32_t output_slab_crc = 0;

    /// Shard-sized (size() × slots) result rows; empty when
    /// outputs_in_slab.
    Matrix detection;
    Matrix reconstructed_x;
    Matrix reconstructed_y;
    std::vector<ItscsIterationStats> history;

    /// The shard context's instrumentation delta, so a resumed run's
    /// merged report still covers the work the original process did.
    PipelineCounters counters;
    std::vector<PhaseStat> phases;
};

/// Serialise a record to a journal frame payload.
std::vector<std::uint8_t> encode_shard_checkpoint(const ShardCheckpoint& r);

/// Parse a frame payload; throws mcs::Error on truncation, a version
/// mismatch, or nonsense field values (callers treat that as a corrupt
/// frame, not a fatal error).
ShardCheckpoint decode_shard_checkpoint(
    std::span<const std::uint8_t> payload);

/// The identity of a run, for writing and verifying manifests.
struct CheckpointManifest {
    std::size_t participants = 0;
    std::size_t slots = 0;
    std::uint64_t input_fingerprint = 0;
    std::uint64_t config_fingerprint = 0;
    std::uint64_t runtime_fingerprint = 0;
    /// The kernel tier the run executed under. Also folded into
    /// runtime_fingerprint; stored explicitly so a tier mix-up refuses
    /// with a message naming the tier rather than a bare hash mismatch.
    KernelTier kernel_tier = KernelTier::kExact;
    /// Planner mode behind the plan ("rows" / "cell") and the plan's
    /// member-level fingerprint (ShardPlan::fingerprint()) — begin/end
    /// ranges alone cannot identify a by_cell decomposition.
    std::string planner = "rows";
    std::uint64_t plan_fingerprint = 0;
    /// Slab storage backing the run: "none" for in-core runs (results in
    /// the journal), "f64"/"f32" for out-of-core runs (results in the
    /// slab store, CRCs in the journal). A resume never mixes storage
    /// tiers or slab geometries — the stored bytes would not line up.
    std::string storage = "none";
    std::size_t slab_max_rows = 0;  ///< stride driver; 0 when in-core
    /// The shard plan as (begin, end) row ranges, in shard order.
    std::vector<std::pair<std::size_t, std::size_t>> shards;
    /// Shard::members_fingerprint() per shard, same order (may be empty
    /// for legacy callers; then only ranges are compared).
    std::vector<std::uint64_t> shard_members;

    Json to_json() const;

    /// Empty string when `stored` describes the same run as this manifest;
    /// otherwise one line naming the first mismatch (shape, fingerprint,
    /// plan, or version).
    std::string mismatch(const Json& stored) const;
};

/// What a journal scan recovered.
struct CheckpointLoad {
    /// Decoded, CRC-verified records by shard index (last write wins).
    std::map<std::size_t, ShardCheckpoint> shards;
    /// Frames lost to CRC failures or undecodable payloads.
    std::size_t corrupt_frames = 0;
    /// The journal ended mid-frame (normal after a crash during append).
    bool torn_tail = false;
    /// One structured report per corrupt frame / torn tail.
    std::vector<FailureReport> failures;
};

/// Owns one checkpoint directory: the manifest and the journal. commit()
/// is thread-safe (shard workers commit concurrently); everything else is
/// single-threaded setup/teardown.
class CheckpointStore {
public:
    /// Creates `dir` (and parents) if missing.
    explicit CheckpointStore(std::string dir);

    const std::string& dir() const { return dir_; }
    std::string manifest_path() const;
    std::string journal_path() const;

    bool has_manifest() const;

    /// Start a fresh run: write the manifest atomically and truncate the
    /// journal. Any previous journal content is gone — resume decisions
    /// happen before begin().
    void begin(const CheckpointManifest& manifest);

    /// Read and parse the stored manifest; throws mcs::Error when missing
    /// or unparseable.
    Json read_manifest() const;

    /// Scan, verify, and compact the journal, then reopen it for append:
    /// valid records survive (deduplicated by shard, re-framed), corrupt
    /// frames and torn bytes are dropped and reported. The caller still
    /// owns plan-level validation (ranges, seeds).
    CheckpointLoad load();

    /// Append one record and flush it. Returns the 1-based commit ordinal
    /// within this process. `after_commit` (if set) runs under the journal
    /// lock after the flush — the deterministic seam the chaos `crash=<k>`
    /// abort hooks, guaranteeing the journal holds exactly k complete
    /// frames when the process dies.
    std::size_t commit(
        const ShardCheckpoint& record,
        const std::function<void(std::size_t)>& after_commit = {});

private:
    std::string dir_;
    std::mutex mutex_;
    std::unique_ptr<FrameWriter> journal_;
    std::size_t commits_ = 0;
};

}  // namespace mcs
