// Tests for the streaming (sliding-window) detector.
#include "core/streaming.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "corruption/scenario.hpp"
#include "metrics/confusion.hpp"
#include "runtime/fleet_runner.hpp"
#include "trace/simulator.hpp"

namespace mcs {
namespace {

// Feed a corrupted dataset slot by slot into the detector.
SlotUpload slot_of(const CorruptedDataset& data, std::size_t j) {
    const std::size_t n = data.participants();
    SlotUpload upload;
    upload.x.resize(n);
    upload.y.resize(n);
    upload.vx.resize(n);
    upload.vy.resize(n);
    upload.observed.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        upload.x[i] = data.sx(i, j);
        upload.y[i] = data.sy(i, j);
        upload.vx[i] = data.vx(i, j);
        upload.vy[i] = data.vy(i, j);
        upload.observed[i] = data.existence(i, j) != 0.0 ? 1 : 0;
    }
    return upload;
}

TEST(Streaming, ReportsArriveAtWindowBoundaries) {
    const TraceDataset truth = make_small_dataset(1, 12, 100);
    CorruptionConfig corruption;
    corruption.missing_ratio = 0.1;
    corruption.fault_ratio = 0.1;
    const CorruptedDataset data = corrupt(truth, corruption);

    StreamingDetector::Config config;
    config.window = 40;
    config.stride = 20;
    StreamingDetector detector(12, truth.tau_s, config);

    std::size_t reports = 0;
    for (std::size_t j = 0; j < truth.slots(); ++j) {
        detector.push_slot(slot_of(data, j));
        while (auto report = detector.poll()) {
            ++reports;
            EXPECT_EQ(report->detection.rows(), 12u);
            EXPECT_EQ(report->detection.cols(), 40u);
            // Windows start at 0, 20, 40, ...
            EXPECT_EQ(report->first_slot % 20, 0u);
        }
    }
    // 100 slots, window 40, stride 20 -> windows at slots 40, 60, 80, 100.
    EXPECT_EQ(reports, 4u);
    EXPECT_EQ(detector.slots_received(), 100u);
    EXPECT_EQ(detector.reports_pending(), 0u);
}

TEST(Streaming, DetectionQualityPerWindow) {
    const TraceDataset truth = make_small_dataset(2, 20, 120);
    CorruptionConfig corruption;
    corruption.missing_ratio = 0.2;
    corruption.fault_ratio = 0.15;
    const CorruptedDataset data = corrupt(truth, corruption);

    StreamingDetector::Config config;
    config.window = 60;
    config.stride = 30;
    StreamingDetector detector(20, truth.tau_s, config);

    std::size_t windows = 0;
    for (std::size_t j = 0; j < truth.slots(); ++j) {
        detector.push_slot(slot_of(data, j));
        while (auto report = detector.poll()) {
            ++windows;
            // Score against ground truth for exactly this window.
            ConfusionCounts counts;
            for (std::size_t i = 0; i < 20; ++i) {
                for (std::size_t k = 0; k < config.window; ++k) {
                    const std::size_t column = report->first_slot + k;
                    if (data.existence(i, column) == 0.0) {
                        continue;
                    }
                    const bool flagged = report->detection(i, k) != 0.0;
                    const bool faulty = data.fault(i, column) != 0.0;
                    if (flagged && faulty) {
                        ++counts.true_positive;
                    } else if (flagged) {
                        ++counts.false_positive;
                    } else if (faulty) {
                        ++counts.false_negative;
                    } else {
                        ++counts.true_negative;
                    }
                }
            }
            EXPECT_GE(counts.recall(), 0.9)
                << "window at slot " << report->first_slot;
            EXPECT_GE(counts.precision(), 0.8)
                << "window at slot " << report->first_slot;
        }
    }
    EXPECT_EQ(windows, 3u);  // slots 60, 90, 120
}

TEST(Streaming, BoundedMemory) {
    // Pushing far more slots than the window must not grow state: probe
    // indirectly by checking reports keep coming with stable shapes.
    StreamingDetector::Config config;
    config.window = 16;
    config.stride = 16;
    StreamingDetector detector(4, 30.0, config);
    SlotUpload upload;
    upload.x.assign(4, 100.0);
    upload.y.assign(4, 100.0);
    upload.vx.assign(4, 0.0);
    upload.vy.assign(4, 0.0);
    upload.observed.assign(4, 1);
    for (int j = 0; j < 160; ++j) {
        detector.push_slot(upload);
    }
    std::size_t reports = 0;
    while (auto report = detector.poll()) {
        ++reports;
        EXPECT_EQ(report->detection.cols(), 16u);
    }
    EXPECT_EQ(reports, 10u);
}

TEST(Streaming, Validation) {
    EXPECT_THROW(StreamingDetector(0, 30.0), Error);
    EXPECT_THROW(StreamingDetector(4, 0.0), Error);
    StreamingDetector::Config bad;
    bad.window = 3;  // smaller than the detector's median window
    EXPECT_THROW(StreamingDetector(4, 30.0, bad), Error);
    bad = StreamingDetector::Config{};
    bad.stride = bad.window + 1;
    EXPECT_THROW(StreamingDetector(4, 30.0, bad), Error);

    StreamingDetector detector(4, 30.0);
    SlotUpload wrong;
    wrong.x.assign(3, 0.0);  // wrong participant count
    wrong.y.assign(4, 0.0);
    wrong.vx.assign(4, 0.0);
    wrong.vy.assign(4, 0.0);
    wrong.observed.assign(4, 1);
    EXPECT_THROW(detector.push_slot(wrong), Error);
}

TEST(Streaming, PollOnEmptyReturnsNullopt) {
    StreamingDetector detector(4, 30.0);
    EXPECT_FALSE(detector.poll().has_value());
}

TEST(Streaming, FlushEvaluatesPartialTail) {
    const TraceDataset truth = make_small_dataset(3, 10, 50);
    CorruptionConfig corruption;
    corruption.missing_ratio = 0.1;
    corruption.fault_ratio = 0.1;
    const CorruptedDataset data = corrupt(truth, corruption);

    StreamingDetector::Config config;
    config.window = 24;
    config.stride = 12;
    StreamingDetector detector(10, truth.tau_s, config);
    for (std::size_t j = 0; j < truth.slots(); ++j) {
        detector.push_slot(slot_of(data, j));
    }
    // 50 slots: boundaries at 24, 36, 48; slots 48–49 are uncovered.
    EXPECT_EQ(detector.reports_pending(), 3u);
    EXPECT_EQ(detector.flush(), 1u);
    EXPECT_EQ(detector.flush(), 0u);  // second flush has nothing new

    std::size_t reports = 0;
    std::optional<WindowReport> last;
    while (auto report = detector.poll()) {
        ++reports;
        last = std::move(report);
    }
    ASSERT_EQ(reports, 4u);
    // The tail evaluation re-reads the full buffer: slots 26..49.
    EXPECT_EQ(last->first_slot, 26u);
    EXPECT_EQ(last->detection.cols(), 24u);

    // A detector whose every slot is already covered has nothing to flush.
    StreamingDetector aligned(10, truth.tau_s, config);
    for (std::size_t j = 0; j < 48; ++j) {
        aligned.push_slot(slot_of(data, j));
    }
    EXPECT_EQ(aligned.flush(), 0u);

    // A stream shorter than the detector's median window cannot evaluate.
    StreamingDetector tiny(10, truth.tau_s, config);
    for (std::size_t j = 0; j < 3; ++j) {
        tiny.push_slot(slot_of(data, j));
    }
    EXPECT_EQ(tiny.flush(), 0u);
}

bool same_bits(const Matrix& a, const Matrix& b) {
    if (a.rows() != b.rows() || a.cols() != b.cols()) {
        return false;
    }
    for (std::size_t k = 0; k < a.data().size(); ++k) {
        if (std::bit_cast<std::uint64_t>(a.data()[k]) !=
            std::bit_cast<std::uint64_t>(b.data()[k])) {
            return false;
        }
    }
    return true;
}

// Every window is one cold run of Algorithm 1 over its own slots: each
// report of a stream evaluated through FleetRunner's window evaluator is
// bit-identical to the report of a fresh detector fed only that window's
// slots, at 1 and 2 worker threads, the flushed tail window included.
TEST(Streaming, EachWindowDependsOnlyOnItsOwnSlots) {
    const std::size_t n = 16;
    const std::size_t slots = 95;  // windows close at 40, 55, 70, 85; the
                                   // flush evaluates slots 55..94
    const TraceDataset truth = make_small_dataset(7, n, slots);
    CorruptionConfig corruption;
    corruption.missing_ratio = 0.15;
    corruption.fault_ratio = 0.15;
    const CorruptedDataset data = corrupt(truth, corruption);

    RuntimeConfig reference_runtime;
    reference_runtime.shard_size = 8;
    FleetRunner reference(reference_runtime);

    for (const std::size_t threads : {1u, 2u}) {
        RuntimeConfig runtime = reference_runtime;
        runtime.threads = threads;
        FleetRunner runner(runtime);
        StreamingDetector::Config config;
        config.window = 40;
        config.stride = 15;
        config.evaluator = runner.window_evaluator();
        StreamingDetector stream(n, truth.tau_s, config);
        std::vector<WindowReport> reports;
        for (std::size_t j = 0; j < slots; ++j) {
            stream.push_slot(slot_of(data, j));
            while (auto report = stream.poll()) {
                reports.push_back(std::move(*report));
            }
        }
        ASSERT_EQ(stream.flush(), 1u);
        reports.push_back(*stream.poll());
        ASSERT_EQ(reports.size(), 5u);
        EXPECT_EQ(reports.back().first_slot, 55u);

        for (const WindowReport& report : reports) {
            StreamingDetector::Config alone_config = config;
            alone_config.evaluator = reference.window_evaluator();
            StreamingDetector alone(n, truth.tau_s, alone_config);
            for (std::size_t k = 0; k < config.window; ++k) {
                alone.push_slot(slot_of(data, report.first_slot + k));
            }
            const std::optional<WindowReport> want = alone.poll();
            ASSERT_TRUE(want.has_value());
            EXPECT_EQ(want->first_slot, 0u);
            EXPECT_TRUE(same_bits(report.detection, want->detection))
                << "threads " << threads << ", window at slot "
                << report.first_slot;
            EXPECT_TRUE(
                same_bits(report.reconstructed_x, want->reconstructed_x))
                << "threads " << threads << ", window at slot "
                << report.first_slot;
            EXPECT_TRUE(
                same_bits(report.reconstructed_y, want->reconstructed_y))
                << "threads " << threads << ", window at slot "
                << report.first_slot;
            EXPECT_EQ(report.iterations, want->iterations);
            EXPECT_EQ(report.converged, want->converged);
            EXPECT_EQ(report.quarantined, want->quarantined);
        }
    }
}

}  // namespace
}  // namespace mcs
