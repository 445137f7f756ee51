// Streaming deployment of I(TS,CS): a sliding-window wrapper that turns
// the batch DETECT-and-CORRECT framework into an online monitor.
//
// The MCS server ingests one slot of uploads at a time; once `window`
// slots have accumulated, the framework runs over the most recent window
// and every `stride` further slots thereafter. Each run produces a
// WindowReport with the detection matrix and reconstruction for that
// window — the deployment pattern of the online_monitor example, packaged
// as a reusable component with bounded memory (only `window` slots are
// retained).
//
// Consecutive windows overlap by `window - stride` slots, but each
// evaluation is one cold, self-contained run of Algorithm 1 over the
// window's own slots (DESIGN.md §15): nothing carries from one window to
// the next, so a report is a pure function of the slots it covers.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "core/itscs.hpp"

namespace mcs {

/// How a StreamingDetector turns one assembled window into a result.
/// Defaults to run_itscs (sequential). The runtime subsystem's
/// FleetRunner::window_evaluator() plugs in here to evaluate the window's
/// participant shards concurrently at each stride boundary; any evaluator
/// must be a pure function of (input, config) so streaming stays
/// deterministic — `ctx` only accumulates instrumentation.
using WindowEvaluator = std::function<ItscsResult(
    const ItscsInput&, const ItscsConfig&, PipelineContext*)>;

/// One slot of uploads across the fleet. Vectors are indexed by
/// participant; `observed[i] == 0` marks a missing reading (the
/// corresponding x/y/vx/vy values are ignored).
struct SlotUpload {
    std::vector<double> x;
    std::vector<double> y;
    std::vector<double> vx;
    std::vector<double> vy;
    std::vector<std::uint8_t> observed;
};

/// Result of one window evaluation.
struct WindowReport {
    std::size_t first_slot = 0;  ///< global index of the window's 1st slot
    Matrix detection;            ///< 0/1 flags, participants x window
    Matrix reconstructed_x;
    Matrix reconstructed_y;
    std::size_t iterations = 0;
    bool converged = false;
    /// Participants the evaluator's defence layer confirmed in quarantine
    /// for this window (sorted; empty when no defence is wired in).
    std::vector<std::size_t> quarantined;
};

/// Sliding-window online wrapper around run_itscs().
class StreamingDetector {
public:
    struct Config {
        std::size_t window = 60;  ///< slots per evaluation
        std::size_t stride = 20;  ///< slots between evaluations
        ItscsConfig framework;
        /// Window evaluation hook; null = run_itscs. The target (e.g. a
        /// FleetRunner) must outlive the detector.
        WindowEvaluator evaluator;
    };

    /// `participants` fixes the fleet size; `tau_s` the slot duration.
    StreamingDetector(std::size_t participants, double tau_s,
                      Config config);
    /// Same, with default Config (separate overload: C++ forbids using a
    /// nested class's member initializers as a default argument here).
    StreamingDetector(std::size_t participants, double tau_s);

    /// Ingest the next slot (throws on vector-size mismatch). If this slot
    /// completes an evaluation boundary the window is processed and a
    /// report is queued.
    void push_slot(const SlotUpload& upload);

    /// Evaluate the partial tail window: any slots received since the last
    /// stride boundary, provided at least the detector's own median window
    /// is buffered. Used at daemon shutdown so trailing slots that never
    /// reached a boundary still get a report. Returns the number of
    /// reports queued (0 or 1).
    std::size_t flush();

    /// Pop the oldest pending report, if any.
    std::optional<WindowReport> poll();

    /// Attach (or detach, with nullptr) an instrumentation context. Every
    /// subsequent window evaluation accumulates its phase timings and
    /// counters there. The context must outlive the detector or be
    /// detached first; the detector never owns it.
    void attach_context(PipelineContext* ctx) { ctx_ = ctx; }

    std::size_t slots_received() const { return slots_received_; }
    std::size_t reports_pending() const { return reports_.size(); }
    std::size_t participants() const { return participants_; }

private:
    void evaluate_window();

    std::size_t participants_;
    double tau_s_;
    Config config_;

    // Ring of the most recent `window` slots (deque of columns).
    struct SlotColumn {
        std::vector<double> x, y, vx, vy;
        std::vector<std::uint8_t> observed;
    };
    std::deque<SlotColumn> buffer_;
    std::size_t slots_received_ = 0;
    std::size_t last_eval_slot_ = 0;  // slots_received_ at last evaluation
    std::deque<WindowReport> reports_;
    PipelineContext* ctx_ = nullptr;  // not owned
};

}  // namespace mcs
