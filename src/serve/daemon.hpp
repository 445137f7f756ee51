// IngestDaemon — the long-running service layer over the batch engine
// (DESIGN.md §15).
//
// Producers submit() per-slot SlotUploads into a bounded MPMC queue
// (backpressure, not drops); a single consumer thread validates each
// upload at the boundary (satellite of ItscsInput::validate — a malformed
// or non-finite upload becomes a kRejectedUpload FailureReport instead of
// corrupting the window), appends it to a CRC-framed ingest journal
// (persist/frame_io), and feeds it to a StreamingDetector whose windows
// evaluate shard-parallel through an owned FleetRunner. Every window is
// one cold run of Algorithm 1 over its own slots: no state carries from
// one window to the next.
//
// Crash recovery: the journal *is* the durable state. On start() with
// resume, the journal is scanned (corrupt frames skipped and reported,
// torn tail truncated, the file compacted), its header is handshaken
// against this daemon's configuration, and every surviving slot is
// re-pushed — without re-journaling — through the same detector. Because
// each window's evaluation is a deterministic function of its own slots,
// a daemon killed mid-window regenerates the exact window state and its
// subsequent WindowReports are bit-identical to an uninterrupted run's.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/context.hpp"
#include "common/failure.hpp"
#include "common/histogram.hpp"
#include "core/streaming.hpp"
#include "runtime/fleet_runner.hpp"
#include "serve/ingest_queue.hpp"

namespace mcs {

class FrameWriter;

/// Configuration of one ingestion daemon.
struct ServeConfig {
    std::size_t participants = 0;  ///< fleet size (required, > 0)
    double tau_s = 30.0;           ///< slot duration
    std::size_t window = 60;       ///< slots per evaluation window
    std::size_t stride = 20;       ///< slots between evaluations
    ItscsConfig framework;
    /// Shard/thread/tier knobs for the per-window fleet runs. The
    /// chaos injector doubles as the slotloss source; checkpoint_dir must
    /// stay empty (the ingest journal is the daemon's durable state).
    RuntimeConfig runtime;
    /// Ingest journal path; empty disables journaling (and resume).
    std::string journal_path;
    /// Scan + replay the journal in start() instead of truncating it.
    bool resume = false;
    /// Inert: the daemon ignores it and evaluates every window cold. Kept
    /// only so that existing callers that still assign it compile; it
    /// goes in a later change.
    bool warm_start = false;
    /// Bound on queued uploads; producers block when it is reached.
    std::size_t queue_capacity = 256;
    /// Drop every k-th accepted upload (an all-unobserved slot is ingested
    /// and journaled in its place, keeping the window slot-aligned).
    /// 0 = resolve from runtime.chaos's `slotloss=<k>`; explicit wins.
    std::size_t slot_loss_every = 0;
    /// Evaluate the partial tail window in finish().
    bool flush_tail = true;
};

/// Observable state of one daemon run. Latencies are live slots only
/// (replayed slots are bookkeeping, not service time). Each latency record
/// is a fixed-size LatencyHistogram, so a long-running daemon's stats stay
/// bounded.
struct ServeStats {
    std::size_t uploads_accepted = 0;  ///< validated, journaled, ingested
    std::size_t uploads_rejected = 0;  ///< refused with a FailureReport
    std::size_t slots_dropped = 0;     ///< slotloss chaos replacements
    std::size_t slots_replayed = 0;    ///< re-ingested from the journal
    std::size_t windows_evaluated = 0;
    /// Inert: always 0, since no window is warm-started. Kept only for
    /// existing readers; it goes in a later change.
    std::size_t windows_warm = 0;
    /// Participants the defence confirmed in quarantine (sticky for the
    /// daemon's lifetime — an enforced participant uploads nothing, so it
    /// can never demonstrate innocence to a later window).
    std::size_t participants_quarantined = 0;
    /// Observed readings refused at the boundary because their
    /// participant was quarantined (each becomes a kRejectedUpload
    /// FailureReport with phase "quarantine").
    std::size_t readings_quarantined = 0;
    /// Shards executed by a thief worker across all window evaluations —
    /// the work-stealing scheduler's load-balance signal (results are
    /// bit-identical either way; this is purely diagnostic).
    std::size_t shards_stolen = 0;
    std::size_t journal_corrupt_frames = 0;
    bool journal_torn_tail = false;
    /// Wall times of the live push_slots (ms); stride-boundary slots
    /// carry their window's evaluation, so the p99 is the evaluation
    /// latency.
    LatencyHistogram slot_latency_ms;
    /// Wall times (ms) of the live push_slots that queued a report: the
    /// window evaluations alone. Windows evaluated by a journal replay or
    /// the tail flush are not timed.
    LatencyHistogram window_eval_ms;
    /// Wall times (ms) of the live uploads' journal appends (none without
    /// a journal).
    LatencyHistogram journal_append_ms;
};

/// The ingestion daemon. Lifecycle: construct → start() → submit()× →
/// finish() → drain()/stats()/context(). submit() may be called from any
/// number of producer threads between start() and finish().
class IngestDaemon {
public:
    explicit IngestDaemon(ServeConfig config);
    ~IngestDaemon();

    IngestDaemon(const IngestDaemon&) = delete;
    IngestDaemon& operator=(const IngestDaemon&) = delete;

    /// Open (or replay) the journal and spawn the consumer thread.
    /// Throws on a resume handshake mismatch — a journal recorded for a
    /// different stream shape must not seed this daemon.
    void start();

    /// Enqueue one upload; blocks while the queue is full. Returns false
    /// once finish() has closed the stream.
    bool submit(SlotUpload upload);

    /// Close the queue, drain it, join the consumer and (optionally)
    /// flush the partial tail window. Idempotent.
    void finish();

    /// Pop every pending WindowReport, oldest first. Callable while
    /// running (reports appear as stride boundaries pass) or after
    /// finish().
    std::vector<WindowReport> drain();

    /// Pop every pending FailureReport (rejected uploads, journal
    /// corruption), oldest first.
    std::vector<FailureReport> drain_failures();

    /// Snapshot of the run's statistics.
    ServeStats stats() const;

    /// Participants currently under client-side quarantine enforcement
    /// (sorted). Filled by window evaluations when the runner carries a
    /// non-idle DefenseSuite; empty otherwise.
    std::vector<std::size_t> quarantined() const;

    /// Merged instrumentation of every window evaluation. Single-owner:
    /// read it only after finish().
    PipelineContext& context() { return ctx_; }

    const ServeConfig& config() const { return config_; }
    std::size_t threads() const { return runner_.threads(); }

private:
    void replay_journal();
    void process(SlotUpload upload);
    void pump_reports();
    SlotUpload blank_slot() const;

    ServeConfig config_;
    std::size_t slot_loss_every_ = 0;  // resolved from config/chaos
    FleetRunner runner_;
    PipelineContext ctx_;
    StreamingDetector detector_;
    IngestQueue queue_;
    std::unique_ptr<FrameWriter> writer_;
    std::thread consumer_;
    bool running_ = false;

    mutable std::mutex mutex_;  // guards everything below
    ServeStats stats_;
    std::vector<WindowReport> pending_;
    std::vector<FailureReport> failures_;
    std::size_t ordinal_ = 0;  // accepted-upload counter (slotloss phase)
    /// Sticky per-participant quarantine flags (union of every window's
    /// confirmed quarantine). Enforced at the ingest boundary *before*
    /// journaling, so the journal records the enforced stream and a
    /// resume replay reproduces decisions without re-enforcing.
    std::vector<std::uint8_t> quarantine_;
};

}  // namespace mcs
