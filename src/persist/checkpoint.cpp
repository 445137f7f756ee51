#include "persist/checkpoint.hpp"

#include <filesystem>
#include <utility>

#include "common/check.hpp"
#include "common/json.hpp"

namespace mcs {

namespace {

constexpr std::size_t kNoShard = static_cast<std::size_t>(-1);

std::string hex64(std::uint64_t v) {
    static const char* digits = "0123456789abcdef";
    std::string out = "0x";
    for (int k = 15; k >= 0; --k) {
        out.push_back(digits[(v >> (4 * k)) & 0xfu]);
    }
    return out;
}

void put_matrix(ByteWriter& w, const Matrix& m) {
    w.put_u64(m.rows());
    w.put_u64(m.cols());
    for (const double v : m.data()) {
        w.put_f64(v);
    }
}

Matrix get_matrix(ByteReader& r) {
    const std::uint64_t rows = r.get_u64();
    const std::uint64_t cols = r.get_u64();
    // Every element costs 8 encoded bytes; a size claim beyond the buffer
    // is a lie — reject before allocating.
    MCS_CHECK_MSG(rows <= r.remaining() / 8 &&
                      (rows == 0 || cols <= r.remaining() / (8 * rows)),
                  "checkpoint record: matrix size exceeds payload");
    std::vector<double> data;
    data.reserve(rows * cols);
    for (std::uint64_t k = 0; k < rows * cols; ++k) {
        data.push_back(r.get_f64());
    }
    return Matrix(rows, cols, std::move(data));
}

void put_counters(ByteWriter& w, const PipelineCounters& c) {
    w.put_u64(c.workspace_allocations);
    w.put_u64(c.workspace_checkouts);
    w.put_u64(c.gemm_flops);
    w.put_u64(c.flops_multiply);
    w.put_u64(c.flops_multiply_transposed);
    w.put_u64(c.flops_transpose_multiply);
    w.put_u64(c.flops_masked_residual);
    w.put_u64(c.svd_sweeps);
    w.put_u64(c.asd_iterations);
    w.put_u64(c.cs_solves);
    w.put_u64(c.itscs_iterations);
    w.put_u64(c.detect_passes);
    w.put_u64(c.check_passes);
    w.put_u64(c.guard_trips);
    w.put_u64(c.shard_retries);
    w.put_u64(c.shards_degraded);
    w.put_u64(c.checkpoint_commits);
    w.put_u64(c.checkpoint_shards_resumed);
    w.put_u64(c.checkpoint_corrupt_frames);
    w.put_u64(c.shards_stolen);
    w.put_u64(c.slab_shards_streamed);
}

PipelineCounters get_counters(ByteReader& r) {
    PipelineCounters c;
    c.workspace_allocations = r.get_u64();
    c.workspace_checkouts = r.get_u64();
    c.gemm_flops = r.get_u64();
    c.flops_multiply = r.get_u64();
    c.flops_multiply_transposed = r.get_u64();
    c.flops_transpose_multiply = r.get_u64();
    c.flops_masked_residual = r.get_u64();
    c.svd_sweeps = r.get_u64();
    c.asd_iterations = r.get_u64();
    c.cs_solves = r.get_u64();
    c.itscs_iterations = r.get_u64();
    c.detect_passes = r.get_u64();
    c.check_passes = r.get_u64();
    c.guard_trips = r.get_u64();
    c.shard_retries = r.get_u64();
    c.shards_degraded = r.get_u64();
    c.checkpoint_commits = r.get_u64();
    c.checkpoint_shards_resumed = r.get_u64();
    c.checkpoint_corrupt_frames = r.get_u64();
    c.shards_stolen = r.get_u64();
    c.slab_shards_streamed = r.get_u64();
    return c;
}

// A count of variable-sized entries can never exceed the bytes left to
// decode them from (each entry costs at least `min_bytes`).
std::uint32_t get_count(ByteReader& r, std::size_t min_bytes,
                        const char* what) {
    const std::uint32_t count = r.get_u32();
    MCS_CHECK_MSG(count <= r.remaining() / min_bytes,
                  std::string("checkpoint record: implausible ") + what +
                      " count " + std::to_string(count));
    return count;
}

FailureReport journal_failure(std::string detail) {
    FailureReport report;
    report.kind = FailureKind::kCheckpointCorrupt;
    report.phase = "journal";
    report.detail = std::move(detail);
    return report;
}

}  // namespace

std::vector<std::uint8_t> encode_shard_checkpoint(const ShardCheckpoint& r) {
    ByteWriter w;
    w.put_u32(kCheckpointVersion);
    w.put_u64(r.shard_index);
    w.put_u64(r.row_begin);
    w.put_u64(r.row_end);
    w.put_u64(r.members_fingerprint);
    w.put_u64(r.seed);
    w.put_u64(r.iterations);
    w.put_u8(r.converged ? 1 : 0);
    w.put_u32(r.level);
    w.put_u64(r.attempts);
    w.put_u32(static_cast<std::uint32_t>(r.failures.size()));
    for (const FailureReport& f : r.failures) {
        w.put_u32(static_cast<std::uint32_t>(f.kind));
        w.put_string(f.phase);
        w.put_u64(f.shard);
        w.put_u64(f.iteration);
        w.put_string(f.detail);
    }
    w.put_u8(r.outputs_in_slab ? 1 : 0);
    w.put_u32(r.output_slab_crc);
    put_matrix(w, r.detection);
    put_matrix(w, r.reconstructed_x);
    put_matrix(w, r.reconstructed_y);
    w.put_u32(static_cast<std::uint32_t>(r.history.size()));
    for (const ItscsIterationStats& h : r.history) {
        w.put_u64(h.iteration);
        w.put_u64(h.flagged);
        w.put_u64(h.detection_changes);
        w.put_f64(h.cs_objective_x);
        w.put_f64(h.cs_objective_y);
    }
    put_counters(w, r.counters);
    w.put_u32(static_cast<std::uint32_t>(r.phases.size()));
    for (const PhaseStat& p : r.phases) {
        w.put_string(p.name);
        w.put_u64(p.calls);
        w.put_f64(p.seconds);
    }
    return w.bytes();
}

ShardCheckpoint decode_shard_checkpoint(
    std::span<const std::uint8_t> payload) {
    ByteReader r(payload);
    const std::uint32_t version = r.get_u32();
    MCS_CHECK_MSG(version == kCheckpointVersion,
                  "checkpoint record: version " + std::to_string(version) +
                      " (expected " + std::to_string(kCheckpointVersion) +
                      ")");
    ShardCheckpoint rec;
    rec.shard_index = r.get_u64();
    rec.row_begin = r.get_u64();
    rec.row_end = r.get_u64();
    rec.members_fingerprint = r.get_u64();
    rec.seed = r.get_u64();
    rec.iterations = r.get_u64();
    rec.converged = r.get_u8() != 0;
    rec.level = r.get_u32();
    MCS_CHECK_MSG(
        rec.level <= static_cast<std::uint32_t>(DegradationLevel::kDetectOnly),
        "checkpoint record: unknown degradation level " +
            std::to_string(rec.level));
    rec.attempts = r.get_u64();
    const std::uint32_t failures = get_count(r, 4 + 4 + 8 + 8 + 4, "failure");
    rec.failures.reserve(failures);
    for (std::uint32_t k = 0; k < failures; ++k) {
        FailureReport f;
        const std::uint32_t kind = r.get_u32();
        MCS_CHECK_MSG(
            kind <= static_cast<std::uint32_t>(FailureKind::kCheckpointCorrupt),
            "checkpoint record: unknown failure kind " + std::to_string(kind));
        f.kind = static_cast<FailureKind>(kind);
        f.phase = r.get_string();
        f.shard = r.get_u64();
        f.iteration = r.get_u64();
        f.detail = r.get_string();
        rec.failures.push_back(std::move(f));
    }
    rec.outputs_in_slab = r.get_u8() != 0;
    rec.output_slab_crc = r.get_u32();
    rec.detection = get_matrix(r);
    rec.reconstructed_x = get_matrix(r);
    rec.reconstructed_y = get_matrix(r);
    const std::uint32_t history = get_count(r, 8 * 5, "history");
    rec.history.reserve(history);
    for (std::uint32_t k = 0; k < history; ++k) {
        ItscsIterationStats h;
        h.iteration = r.get_u64();
        h.flagged = r.get_u64();
        h.detection_changes = r.get_u64();
        h.cs_objective_x = r.get_f64();
        h.cs_objective_y = r.get_f64();
        rec.history.push_back(h);
    }
    rec.counters = get_counters(r);
    const std::uint32_t phases = get_count(r, 4 + 8 + 8, "phase");
    rec.phases.reserve(phases);
    for (std::uint32_t k = 0; k < phases; ++k) {
        PhaseStat p;
        p.name = r.get_string();
        p.calls = r.get_u64();
        p.seconds = r.get_f64();
        rec.phases.push_back(std::move(p));
    }
    MCS_CHECK_MSG(r.at_end(),
                  "checkpoint record: " + std::to_string(r.remaining()) +
                      " trailing bytes");
    return rec;
}

Json CheckpointManifest::to_json() const {
    Json out = Json::object();
    out["version"] = static_cast<double>(kCheckpointVersion);
    out["participants"] = participants;
    out["slots"] = slots;
    // Fingerprints are hex strings: JSON numbers are doubles and cannot
    // hold 64 bits exactly.
    out["input_fingerprint"] = hex64(input_fingerprint);
    out["config_fingerprint"] = hex64(config_fingerprint);
    out["runtime_fingerprint"] = hex64(runtime_fingerprint);
    out["kernel_tier"] = std::string(to_string(kernel_tier));
    out["planner"] = planner;
    out["plan_fingerprint"] = hex64(plan_fingerprint);
    out["storage"] = storage;
    out["slab_max_rows"] = static_cast<double>(slab_max_rows);
    Json plan = Json::array();
    for (std::size_t k = 0; k < shards.size(); ++k) {
        Json row = Json::object();
        row["begin"] = shards[k].first;
        row["end"] = shards[k].second;
        if (k < shard_members.size()) {
            row["members"] = hex64(shard_members[k]);
        }
        plan.push_back(row);
    }
    out["shards"] = plan;
    return out;
}

std::string CheckpointManifest::mismatch(const Json& stored) const {
    if (!stored.is_object()) {
        return "manifest is not a JSON object";
    }
    const Json expected = to_json();
    for (const char* key : {"version", "participants", "slots"}) {
        if (!stored.contains(key) ||
            stored.at(key).as_number() != expected.at(key).as_number()) {
            return std::string(key) + " differs";
        }
    }
    // Check the tier before the fingerprints: a tier mix-up would also trip
    // runtime_fingerprint, but "kernel tier differs (stored fast, this run
    // exact)" tells the operator exactly what to change.
    if (!stored.contains("kernel_tier") ||
        stored.at("kernel_tier").as_string() !=
            expected.at("kernel_tier").as_string()) {
        return "kernel tier differs (stored " +
               (stored.contains("kernel_tier")
                    ? stored.at("kernel_tier").as_string()
                    : "<missing>") +
               ", this run " + expected.at("kernel_tier").as_string() + ")";
    }
    // Planner / storage refusals likewise name the human-settable knob
    // before the fingerprints get their turn.
    for (const char* key : {"planner", "storage"}) {
        if (!stored.contains(key) ||
            stored.at(key).as_string() != expected.at(key).as_string()) {
            return std::string(key) + " differs (stored " +
                   (stored.contains(key) ? stored.at(key).as_string()
                                         : "<missing>") +
                   ", this run " + expected.at(key).as_string() + ")";
        }
    }
    if (!stored.contains("slab_max_rows") ||
        stored.at("slab_max_rows").as_number() !=
            expected.at("slab_max_rows").as_number()) {
        return "slab geometry differs";
    }
    for (const char* key : {"input_fingerprint", "config_fingerprint",
                            "runtime_fingerprint", "plan_fingerprint"}) {
        if (!stored.contains(key) ||
            stored.at(key).as_string() != expected.at(key).as_string()) {
            return std::string(key) + " differs (stored " +
                   (stored.contains(key) ? stored.at(key).as_string()
                                         : "<missing>") +
                   ", this run " + expected.at(key).as_string() + ")";
        }
    }
    if (!stored.contains("shards") ||
        !(stored.at("shards") == expected.at("shards"))) {
        return "shard plan differs";
    }
    return "";
}

CheckpointStore::CheckpointStore(std::string dir) : dir_(std::move(dir)) {
    MCS_CHECK_MSG(!dir_.empty(), "CheckpointStore: empty directory");
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    MCS_CHECK_MSG(!ec, "CheckpointStore: cannot create " + dir_ + ": " +
                           ec.message());
}

std::string CheckpointStore::manifest_path() const {
    return dir_ + "/manifest.json";
}

std::string CheckpointStore::journal_path() const {
    return dir_ + "/journal.bin";
}

bool CheckpointStore::has_manifest() const {
    std::error_code ec;
    return std::filesystem::exists(manifest_path(), ec);
}

void CheckpointStore::begin(const CheckpointManifest& manifest) {
    journal_.reset();
    atomic_write_file(manifest_path(), manifest.to_json().dump(2) + "\n");
    journal_ = std::make_unique<FrameWriter>(journal_path(),
                                             /*truncate=*/true);
}

Json CheckpointStore::read_manifest() const {
    return read_json_file(manifest_path());
}

CheckpointLoad CheckpointStore::load() {
    journal_.reset();
    const FrameScan scan = scan_frames(journal_path());

    CheckpointLoad out;
    out.corrupt_frames = scan.corrupt_frames;
    out.torn_tail = scan.torn_tail;
    for (const std::string& error : scan.errors) {
        out.failures.push_back(journal_failure(error));
    }
    for (const auto& payload : scan.frames) {
        try {
            ShardCheckpoint rec = decode_shard_checkpoint(payload);
            const auto index = static_cast<std::size_t>(rec.shard_index);
            out.shards.insert_or_assign(index, std::move(rec));
        } catch (const Error& e) {
            out.corrupt_frames += 1;
            out.failures.push_back(journal_failure(e.what()));
        }
    }

    // Compact: the journal on disk becomes exactly the surviving records,
    // so the append cursor lands after a well-formed frame even when the
    // crash tore the tail.
    std::vector<std::vector<std::uint8_t>> keep;
    keep.reserve(out.shards.size());
    for (const auto& [index, rec] : out.shards) {
        keep.push_back(encode_shard_checkpoint(rec));
    }
    rewrite_frames(journal_path(), keep);
    journal_ = std::make_unique<FrameWriter>(journal_path(),
                                             /*truncate=*/false);
    return out;
}

std::size_t CheckpointStore::commit(
    const ShardCheckpoint& record,
    const std::function<void(std::size_t)>& after_commit) {
    const std::vector<std::uint8_t> payload =
        encode_shard_checkpoint(record);
    const std::lock_guard<std::mutex> lock(mutex_);
    MCS_CHECK_MSG(journal_ != nullptr,
                  "CheckpointStore: commit before begin()/load()");
    journal_->append(payload);
    const std::size_t ordinal = ++commits_;
    if (after_commit) {
        after_commit(ordinal);
    }
    return ordinal;
}

}  // namespace mcs
