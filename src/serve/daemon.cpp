#include "serve/daemon.hpp"

#include <chrono>
#include <cmath>
#include <utility>

#include "common/check.hpp"
#include "corruption/chaos.hpp"
#include "persist/frame_io.hpp"
#include "serve/upload_codec.hpp"

namespace mcs {

namespace {

ServeConfig validated(ServeConfig config) {
    MCS_CHECK_MSG(config.participants > 0, "ServeConfig: no participants");
    MCS_CHECK_MSG(config.tau_s > 0.0, "ServeConfig: tau must be positive");
    MCS_CHECK_MSG(config.runtime.checkpoint_dir.empty(),
                  "ServeConfig: checkpoint_dir is a batch-run feature; the "
                  "daemon's durable state is its ingest journal");
    MCS_CHECK_MSG(!config.resume || !config.journal_path.empty(),
                  "ServeConfig: resume requires a journal_path");
    MCS_CHECK_MSG(config.runtime.memory_budget_mb == 0 &&
                      config.runtime.storage == StorageTier::kF64,
                  "ServeConfig: the out-of-core slab store is a batch-run "
                  "feature; a serving window fits in memory by construction "
                  "(size it with `window`/`stride` instead)");
    return config;
}

std::size_t resolve_slot_loss(const ServeConfig& config) {
    if (config.slot_loss_every != 0) {
        return config.slot_loss_every;
    }
    if (config.runtime.chaos != nullptr) {
        return config.runtime.chaos->config().slot_loss_every;
    }
    return 0;
}

StreamingDetector::Config build_detector(const ServeConfig& config,
                                         FleetRunner& runner) {
    StreamingDetector::Config dc;
    dc.window = config.window;
    dc.stride = config.stride;
    dc.framework = config.framework;
    dc.evaluator = runner.window_evaluator();
    return dc;
}

StreamHeader stream_header_of(const ServeConfig& config) {
    StreamHeader header;
    header.participants = config.participants;
    header.tau_s = config.tau_s;
    header.window = config.window;
    header.stride = config.stride;
    return header;
}

// Boundary validation, mirroring ItscsInput::validate: the daemon refuses
// a malformed upload with a report instead of letting MCS_CHECK unwind the
// consumer thread or a NaN poison the window. Empty string = acceptable.
std::string validate_upload(const SlotUpload& upload, std::size_t n) {
    if (upload.x.size() != n || upload.y.size() != n ||
        upload.vx.size() != n || upload.vy.size() != n ||
        upload.observed.size() != n) {
        return "vector sizes (" + std::to_string(upload.x.size()) + ", " +
               std::to_string(upload.y.size()) + ", " +
               std::to_string(upload.vx.size()) + ", " +
               std::to_string(upload.vy.size()) + ", " +
               std::to_string(upload.observed.size()) +
               ") do not match the fleet size " + std::to_string(n);
    }
    const struct {
        const std::vector<double>* series;
        const char* name;
    } series[] = {{&upload.x, "x"},
                  {&upload.y, "y"},
                  {&upload.vx, "vx"},
                  {&upload.vy, "vy"}};
    for (const auto& entry : series) {
        for (std::size_t i = 0; i < n; ++i) {
            if (upload.observed[i] != 0 &&
                !std::isfinite((*entry.series)[i])) {
                return std::string(entry.name) +
                       " non-finite at participant " + std::to_string(i) +
                       " in an observed reading";
            }
        }
    }
    return "";
}

double ms_since(std::chrono::steady_clock::time_point begin) {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - begin)
        .count();
}

}  // namespace

IngestDaemon::IngestDaemon(ServeConfig config)
    : config_(validated(std::move(config))),
      slot_loss_every_(resolve_slot_loss(config_)),
      runner_(config_.runtime),
      detector_(config_.participants, config_.tau_s,
                build_detector(config_, runner_)),
      queue_(config_.queue_capacity),
      quarantine_(config_.participants, 0) {
    detector_.attach_context(&ctx_);
}

IngestDaemon::~IngestDaemon() {
    try {
        finish();
    } catch (...) {
        // A tail-flush evaluation failure must not terminate; the caller
        // who cares calls finish() directly and sees the exception there.
    }
}

void IngestDaemon::start() {
    MCS_CHECK_MSG(!running_ && !consumer_.joinable(),
                  "IngestDaemon: already started");
    if (!config_.journal_path.empty()) {
        if (config_.resume) {
            replay_journal();
        } else {
            writer_ = std::make_unique<FrameWriter>(config_.journal_path,
                                                    /*truncate=*/true);
            writer_->append(encode_stream_header(stream_header_of(config_)));
        }
    }
    running_ = true;
    consumer_ = std::thread([this] {
        while (auto upload = queue_.pop()) {
            process(std::move(*upload));
        }
    });
}

bool IngestDaemon::submit(SlotUpload upload) {
    return queue_.push(std::move(upload));
}

void IngestDaemon::finish() {
    if (!running_) {
        return;
    }
    queue_.close();
    if (consumer_.joinable()) {
        consumer_.join();
    }
    running_ = false;
    if (config_.flush_tail) {
        detector_.flush();
        pump_reports();
    }
    writer_.reset();
}

std::vector<WindowReport> IngestDaemon::drain() {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<WindowReport> out = std::move(pending_);
    pending_.clear();
    return out;
}

std::vector<FailureReport> IngestDaemon::drain_failures() {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<FailureReport> out = std::move(failures_);
    failures_.clear();
    return out;
}

ServeStats IngestDaemon::stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

std::vector<std::size_t> IngestDaemon::quarantined() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < quarantine_.size(); ++i) {
        if (quarantine_[i] != 0) {
            out.push_back(i);
        }
    }
    return out;
}

// Journal recovery: scan, report and drop what a crash left behind, refuse
// a journal recorded for a different stream, then re-ingest every
// surviving slot so the detector's window and report sequence continue
// exactly where the dead process stopped.
void IngestDaemon::replay_journal() {
    FrameScan scan = scan_frames(config_.journal_path);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stats_.journal_corrupt_frames = scan.corrupt_frames;
        stats_.journal_torn_tail = scan.torn_tail;
        for (const std::string& error : scan.errors) {
            FailureReport report;
            report.kind = FailureKind::kCheckpointCorrupt;
            report.phase = "ingest_journal";
            report.detail = error;
            failures_.push_back(std::move(report));
        }
    }
    if (scan.frames.empty()) {
        // No journal (or nothing survived): same as a fresh start.
        writer_ = std::make_unique<FrameWriter>(config_.journal_path,
                                                /*truncate=*/true);
        writer_->append(encode_stream_header(stream_header_of(config_)));
        return;
    }
    MCS_CHECK_MSG(is_stream_header(scan.frames.front()),
                  "ingest journal: first frame is not a stream header; "
                  "delete " + config_.journal_path + " to start over");
    const StreamHeader stored = decode_stream_header(scan.frames.front());
    const std::string why = stream_header_of(config_).mismatch(stored);
    MCS_CHECK_MSG(why.empty(),
                  "ingest journal resume refused (" + why + "); delete " +
                      config_.journal_path + " or drop resume");

    std::vector<std::vector<std::uint8_t>> kept;
    kept.reserve(scan.frames.size());
    kept.push_back(std::move(scan.frames.front()));
    for (std::size_t k = 1; k < scan.frames.size(); ++k) {
        bool ok = false;
        try {
            SlotUpload upload = decode_slot_upload(scan.frames[k]);
            ok = upload.observed.size() == config_.participants;
            if (ok) {
                // Replay bypasses validation, slotloss and journaling:
                // the journal holds what the original process *accepted*.
                detector_.push_slot(upload);
            }
        } catch (const std::exception&) {
            ok = false;
        }
        std::lock_guard<std::mutex> lock(mutex_);
        if (ok) {
            ++stats_.slots_replayed;
            kept.push_back(std::move(scan.frames[k]));
        } else {
            ++stats_.journal_corrupt_frames;
            FailureReport report;
            report.kind = FailureKind::kCheckpointCorrupt;
            report.phase = "ingest_journal";
            report.iteration = k;
            report.detail = "undecodable slot frame dropped";
            failures_.push_back(std::move(report));
        }
    }
    pump_reports();

    if (scan.corrupt_frames > 0 || scan.torn_tail ||
        kept.size() != scan.frames.size()) {
        // Compact before appending so the journal never accumulates dead
        // bytes across restarts (same discipline as the checkpoint store).
        rewrite_frames(config_.journal_path, kept);
    }
    writer_ = std::make_unique<FrameWriter>(config_.journal_path,
                                            /*truncate=*/false);
}

SlotUpload IngestDaemon::blank_slot() const {
    SlotUpload blank;
    blank.x.assign(config_.participants, 0.0);
    blank.y.assign(config_.participants, 0.0);
    blank.vx.assign(config_.participants, 0.0);
    blank.vy.assign(config_.participants, 0.0);
    blank.observed.assign(config_.participants, 0);
    return blank;
}

// Consumer-thread ingest of one live upload: slotloss chaos, boundary
// validation, timed journal append, timed detector push.
void IngestDaemon::process(SlotUpload upload) {
    std::size_t ordinal = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ordinal = ++ordinal_;
    }
    if (slot_loss_every_ > 0 && ordinal % slot_loss_every_ == 0) {
        // The k-th upload is lost in transit; the daemon still advances
        // the slot clock with an all-missing column (and journals *that*,
        // so a replay reproduces the degraded window, not the lost data).
        upload = blank_slot();
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.slots_dropped;
    }
    const std::string why = validate_upload(upload, config_.participants);
    if (!why.empty()) {
        FailureReport report;
        report.kind = FailureKind::kRejectedUpload;
        report.phase = "ingest";
        report.iteration = ordinal;
        report.detail = why;
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.uploads_rejected;
        failures_.push_back(std::move(report));
        return;
    }
    // Client-side quarantine enforcement: a confirmed participant may keep
    // uploading, but its readings are refused at the boundary — the slot
    // ingests with those cells dark and each refusal is reported. Runs
    // *before* the journal append, so the journal records the enforced
    // stream and a resume replay reproduces every window bit-identically
    // without re-enforcing.
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (std::size_t i = 0; i < quarantine_.size(); ++i) {
            if (quarantine_[i] == 0 || upload.observed[i] == 0) {
                continue;
            }
            upload.observed[i] = 0;
            upload.x[i] = 0.0;
            upload.y[i] = 0.0;
            upload.vx[i] = 0.0;
            upload.vy[i] = 0.0;
            ++stats_.readings_quarantined;
            FailureReport report;
            report.kind = FailureKind::kRejectedUpload;
            report.phase = "quarantine";
            report.iteration = ordinal;
            report.shard = i;
            report.detail = "participant " + std::to_string(i) +
                            " is quarantined; reading refused";
            failures_.push_back(std::move(report));
        }
    }
    double append_ms = 0.0;
    if (writer_ != nullptr) {
        const auto begin = std::chrono::steady_clock::now();
        writer_->append(encode_slot_upload(upload));
        append_ms = ms_since(begin);
    }
    const std::size_t pending = detector_.reports_pending();
    const auto begin = std::chrono::steady_clock::now();
    detector_.push_slot(upload);
    const double push_ms = ms_since(begin);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.uploads_accepted;
        stats_.slot_latency_ms.record(push_ms);
        if (detector_.reports_pending() > pending) {
            stats_.window_eval_ms.record(push_ms);
        }
        if (writer_ != nullptr) {
            stats_.journal_append_ms.record(append_ms);
        }
    }
    pump_reports();
}

void IngestDaemon::pump_reports() {
    while (auto report = detector_.poll()) {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.windows_evaluated;
        // Union this window's confirmed quarantine into the sticky
        // enforcement set; later slots from these participants are
        // refused at the ingest boundary.
        for (const std::size_t q : report->quarantined) {
            if (q < quarantine_.size() && quarantine_[q] == 0) {
                quarantine_[q] = 1;
                ++stats_.participants_quarantined;
            }
        }
        pending_.push_back(std::move(*report));
    }
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.shards_stolen = ctx_.counters().shards_stolen;
}

}  // namespace mcs
