#include "core/streaming.hpp"

#include <utility>

#include "common/check.hpp"

namespace mcs {

StreamingDetector::StreamingDetector(std::size_t participants, double tau_s)
    : StreamingDetector(participants, tau_s, Config{}) {}

StreamingDetector::StreamingDetector(std::size_t participants, double tau_s,
                                     Config config)
    : participants_(participants), tau_s_(tau_s), config_(config) {
    MCS_CHECK_MSG(participants > 0, "StreamingDetector: no participants");
    MCS_CHECK_MSG(tau_s > 0.0, "StreamingDetector: tau must be positive");
    MCS_CHECK_MSG(config.window >= config.framework.detector.window,
                  "StreamingDetector: window smaller than the detector's");
    MCS_CHECK_MSG(config.stride >= 1 && config.stride <= config.window,
                  "StreamingDetector: stride must be in [1, window]");
}

void StreamingDetector::push_slot(const SlotUpload& upload) {
    MCS_CHECK_MSG(upload.x.size() == participants_ &&
                      upload.y.size() == participants_ &&
                      upload.vx.size() == participants_ &&
                      upload.vy.size() == participants_ &&
                      upload.observed.size() == participants_,
                  "StreamingDetector: upload size mismatch");
    SlotColumn column;
    column.x = upload.x;
    column.y = upload.y;
    column.vx = upload.vx;
    column.vy = upload.vy;
    column.observed = upload.observed;
    // Zero out unobserved readings so the buffer mirrors Eq. (6) storage.
    for (std::size_t i = 0; i < participants_; ++i) {
        if (column.observed[i] == 0) {
            column.x[i] = 0.0;
            column.y[i] = 0.0;
            column.vx[i] = 0.0;
            column.vy[i] = 0.0;
        }
    }
    buffer_.push_back(std::move(column));
    if (buffer_.size() > config_.window) {
        buffer_.pop_front();
    }
    ++slots_received_;

    // Evaluate at the first full window and every `stride` slots after.
    if (slots_received_ >= config_.window &&
        (slots_received_ - config_.window) % config_.stride == 0) {
        evaluate_window();
    }
}

std::size_t StreamingDetector::flush() {
    if (slots_received_ == last_eval_slot_) {
        return 0;  // every buffered slot is already covered by a report
    }
    if (buffer_.size() < config_.framework.detector.window) {
        return 0;  // too short for even the detector's median window
    }
    evaluate_window();
    return 1;
}

void StreamingDetector::evaluate_window() {
    const std::size_t w = buffer_.size();
    ItscsInput input;
    input.sx = Matrix(participants_, w);
    input.sy = Matrix(participants_, w);
    input.vx = Matrix(participants_, w);
    input.vy = Matrix(participants_, w);
    input.existence = Matrix(participants_, w);
    input.tau_s = tau_s_;
    for (std::size_t j = 0; j < w; ++j) {
        const SlotColumn& column = buffer_[j];
        for (std::size_t i = 0; i < participants_; ++i) {
            input.sx(i, j) = column.x[i];
            input.sy(i, j) = column.y[i];
            input.vx(i, j) = column.vx[i];
            input.vy(i, j) = column.vy[i];
            input.existence(i, j) = column.observed[i] ? 1.0 : 0.0;
        }
    }

    ItscsResult result =
        config_.evaluator != nullptr
            ? config_.evaluator(input, config_.framework, ctx_)
            : run_itscs(input, config_.framework, {}, ctx_);

    WindowReport report;
    report.first_slot = slots_received_ - w;
    report.detection = std::move(result.detection);
    report.reconstructed_x = std::move(result.reconstructed_x);
    report.reconstructed_y = std::move(result.reconstructed_y);
    report.iterations = result.iterations;
    report.converged = result.converged;
    report.quarantined = std::move(result.quarantined);
    last_eval_slot_ = slots_received_;
    reports_.push_back(std::move(report));
}

std::optional<WindowReport> StreamingDetector::poll() {
    if (reports_.empty()) {
        return std::nullopt;
    }
    WindowReport report = std::move(reports_.front());
    reports_.pop_front();
    return report;
}

}  // namespace mcs
