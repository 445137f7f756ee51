// Out-of-core mmap slab store for sharded fleet runs (DESIGN.md §18).
//
// A million-participant fleet does not fit in RAM as five dense
// participants × slots matrices, but every solve in this repo is
// shard-local — so the data plane only ever needs the shards in flight.
// The slab store puts the fleet on disk in a layout the runner can stream:
//
//   slabs.meta   one CRC-framed record (frame_io.hpp) describing the
//                geometry — shapes, shard member lists, storage tier,
//                strides — written once at create() and verified at open().
//   slabs.bin    the data, mmap()ed: an input region of shard_count
//                fixed-stride slabs (five matrices per shard: S_X, S_Y,
//                Vx, Vy, ℰ) followed by an output region of shard_count
//                fixed-stride slabs (three matrices: detection, R_X, R_Y).
//
// Fixed strides — page-aligned, sized for the plan's largest shard — make
// every shard's bytes addressable from the geometry alone: slab k lives at
// region_base + k·stride, no per-shard index required. Within its slab a
// shard packs matrices back-to-back at its *actual* row count, so the used
// prefix is dense and CRC-able; the alignment tail is dead bytes the OS
// never needs to read.
//
// Residency is advice-driven: the map reserves address space, not memory.
// prefetch_inputs(k) (madvise WILLNEED) warms the next scheduled shard
// while the current one computes; evict(k) (msync MS_ASYNC + MADV_DONTNEED)
// drops a committed shard's pages so the resident set stays a bounded
// window of in-flight shards, whatever the fleet size.
//
// Crash safety rides the existing journal machinery: the checkpoint record
// of an out-of-core shard carries output_crc(k) instead of the matrices,
// and open() ftruncate()s slabs.bin to the geometry's size — a slab torn
// by a crash reads back zero-extended, fails its journaled CRC, and the
// shard simply re-runs. Corruption costs work, never correctness.
//
// The float32 tier (StorageTier::kF32) halves slab bytes: elements are
// demoted once on write and promoted once on read. Demote-then-promote is
// deterministic (IEEE-754 round-to-nearest), so the f32 round trip is part
// of the numerics contract, not a source of run-to-run noise.
//
// Layering: persist knows no runtime types — SlabShardInfo mirrors the
// shard member list as plain data, and FleetRunner converts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace mcs {

/// Element representation inside slabs.bin. Solves always run on doubles
/// under either kernel tier; the storage tier decides what the *disk*
/// holds.
enum class StorageTier : std::uint32_t {
    kF64 = 0,  ///< 8-byte elements, bit-exact round trip
    kF32 = 1,  ///< 4-byte elements, one deterministic rounding per write
};

/// "f64" / "f32".
const char* to_string(StorageTier tier);
/// Inverse of to_string; throws mcs::Error on anything else.
StorageTier parse_storage_tier(const std::string& name);
/// Bytes per stored element (8 or 4).
std::size_t element_size(StorageTier tier);

/// Matrices per shard in the input region (S_X, S_Y, Vx, Vy, ℰ) and the
/// output region (detection, reconstructed X, reconstructed Y).
inline constexpr std::size_t kSlabInputMatrices = 5;
inline constexpr std::size_t kSlabOutputMatrices = 3;

/// One shard's membership, as plain data (persist knows no ShardPlan):
/// a contiguous row range when `rows` is empty, else the explicit
/// ascending member list with begin/end holding min and max+1.
struct SlabShardInfo {
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
    std::vector<std::uint32_t> rows;

    std::size_t size() const {
        return rows.empty() ? static_cast<std::size_t>(end - begin)
                            : rows.size();
    }
};

/// Everything needed to address slabs.bin: persisted verbatim in
/// slabs.meta and refused on mismatch at open().
struct SlabGeometry {
    std::size_t participants = 0;
    std::size_t slots = 0;
    std::size_t shard_count = 0;
    /// Rows of the plan's largest shard — the stride driver.
    std::size_t max_shard_rows = 0;
    StorageTier tier = StorageTier::kF64;
    /// Slot duration of the ingested fleet, seconds (ItscsInput::tau_s —
    /// the one scalar the solves need beyond the matrices).
    double tau_s = 0.0;
    /// PlannerMode of the plan behind the layout, as its integer value
    /// (persist knows no runtime enums; FleetRunner casts).
    std::uint32_t planner_mode = 0;
    /// ShardPlan::fingerprint() of the plan the slabs were laid out for;
    /// the cheap first line of the resume handshake.
    std::uint64_t plan_fingerprint = 0;
    /// Fingerprint of the ingested fleet input (the ingester computes it
    /// over the pre-demotion doubles); 0 = unknown. Carried into the
    /// checkpoint manifest so a resume refuses re-ingested data.
    std::uint64_t input_fingerprint = 0;

    /// Page-aligned bytes reserved per shard in each region.
    std::size_t input_stride() const;
    std::size_t output_stride() const;
    /// Total slabs.bin size: shard_count strides of each region.
    std::size_t file_size() const;
    /// Bytes a shard of `rows` rows actually uses in each region (the
    /// CRC-covered prefix of its slab).
    std::size_t input_bytes(std::size_t rows) const;
    std::size_t output_bytes(std::size_t rows) const;
};

/// Owns one slab directory (slabs.meta + mmap()ed slabs.bin). Calls on
/// *different* shards are thread-safe — shards own disjoint byte ranges —
/// but a single shard has one writer at a time (FleetRunner's per-shard
/// execution already guarantees this).
class SlabStore {
public:
    /// Lay out a fresh store: write slabs.meta, size and map slabs.bin
    /// (zero-filled — sparse until written). Any existing store in `dir`
    /// is replaced. Throws mcs::Error on geometry/shard-list mismatch or
    /// any filesystem failure.
    SlabStore(const std::string& dir, const SlabGeometry& geometry,
              std::vector<SlabShardInfo> shards);

    /// Open an existing store: decode and verify slabs.meta, then
    /// ftruncate slabs.bin to the geometry's size (a crash-torn file is
    /// zero-extended so every read is in-bounds; torn shards fail their
    /// journaled CRC and re-run) and map it. Throws mcs::Error when the
    /// meta record is missing or corrupt.
    explicit SlabStore(const std::string& dir);

    ~SlabStore();
    SlabStore(const SlabStore&) = delete;
    SlabStore& operator=(const SlabStore&) = delete;

    const std::string& dir() const { return dir_; }
    const SlabGeometry& geometry() const { return geometry_; }
    const std::vector<SlabShardInfo>& shards() const { return shards_; }

    /// Stage shard `s`'s five input matrices (each size()×slots row-major
    /// doubles, in kSlabInputMatrices order) into its input slab,
    /// demoting per the storage tier.
    void write_inputs(std::size_t s,
                      const double* const mats[kSlabInputMatrices]);
    /// Inverse of write_inputs (promoting per the tier).
    void read_inputs(std::size_t s,
                     double* const mats[kSlabInputMatrices]) const;

    /// Stage shard `s`'s three result matrices into its output slab.
    void write_outputs(std::size_t s,
                       const double* const mats[kSlabOutputMatrices]);
    void read_outputs(std::size_t s,
                      double* const mats[kSlabOutputMatrices]) const;

    /// CRC-32 over the used bytes of shard `s`'s output slab — journaled
    /// at commit, re-checked on resume. An untouched (all-zero) or torn
    /// slab virtually never matches a journaled CRC.
    std::uint32_t output_crc(std::size_t s) const;

    /// madvise(WILLNEED) shard `s`'s input slab — the steal scheduler's
    /// next_hint lands here so the next shard faults in while the current
    /// one computes. Advice only; never fails a run.
    void prefetch_inputs(std::size_t s) const;

    /// Flush shard `s`'s slabs (msync MS_ASYNC) and drop their pages
    /// (MADV_DONTNEED): called after commit so the resident window stays
    /// the in-flight shards. Advice only; never fails a run.
    void evict(std::size_t s) const;

    /// Synchronous msync of the whole map (test hook / clean shutdown).
    void sync() const;

private:
    void map_file(bool truncate_to_size);
    std::uint8_t* input_slab(std::size_t s) const;
    std::uint8_t* output_slab(std::size_t s) const;

    std::string dir_;
    SlabGeometry geometry_;
    std::vector<SlabShardInfo> shards_;
    int fd_ = -1;
    std::uint8_t* map_ = nullptr;
    std::size_t map_size_ = 0;
};

}  // namespace mcs
