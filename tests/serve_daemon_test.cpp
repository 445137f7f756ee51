// Tests for the streaming ingestion daemon (src/serve, DESIGN.md §15):
// wire codec round-trips, boundary validation, slotloss chaos, queue
// semantics, and the crash/replay contract — a daemon resumed from its
// ingest journal regenerates the uninterrupted run's reports bit-for-bit.
#include "serve/daemon.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/histogram.hpp"
#include "common/rng.hpp"
#include "corruption/adversary.hpp"
#include "corruption/chaos.hpp"
#include "corruption/scenario.hpp"
#include "serve/ingest_queue.hpp"
#include "serve/upload_codec.hpp"
#include "trace/simulator.hpp"

namespace mcs {
namespace {

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

SlotUpload valid_upload(std::size_t n) {
    SlotUpload upload;
    upload.x.assign(n, 100.0);
    upload.y.assign(n, 200.0);
    upload.vx.assign(n, 1.0);
    upload.vy.assign(n, -1.0);
    upload.observed.assign(n, 1);
    return upload;
}

CorruptedDataset make_stream(std::uint64_t seed, std::size_t participants,
                             std::size_t slots) {
    const TraceDataset truth = make_small_dataset(seed, participants, slots);
    CorruptionConfig corruption;
    corruption.missing_ratio = 0.15;
    corruption.fault_ratio = 0.15;
    return corrupt(truth, corruption);
}

ServeConfig small_config(std::size_t participants) {
    ServeConfig config;
    config.participants = participants;
    config.window = 24;
    config.stride = 12;
    config.runtime.threads = 1;
    config.runtime.shard_count = 1;
    return config;
}

class JournalDir {
public:
    JournalDir() {
        dir_ = std::filesystem::temp_directory_path() /
               ("mcs_serve_test_" +
                std::to_string(reinterpret_cast<std::uintptr_t>(this)));
        std::filesystem::create_directories(dir_);
    }
    ~JournalDir() {
        std::error_code ec;
        std::filesystem::remove_all(dir_, ec);
    }
    std::string journal() const { return (dir_ / "ingest.bin").string(); }

private:
    std::filesystem::path dir_;
};

// ---- Wire codec --------------------------------------------------------

TEST(UploadCodec, HeaderRoundTripsAndNamesMismatches) {
    StreamHeader header;
    header.participants = 12;
    header.tau_s = 30.0;
    header.window = 40;
    header.stride = 20;

    const auto payload = encode_stream_header(header);
    EXPECT_TRUE(is_stream_header(payload));
    EXPECT_FALSE(is_slot_upload(payload));
    const StreamHeader back = decode_stream_header(payload);
    EXPECT_TRUE(header.mismatch(back).empty());

    StreamHeader other = header;
    other.participants = 13;
    const std::string why = header.mismatch(other);
    EXPECT_NE(why.find("participants"), std::string::npos) << why;
}

TEST(UploadCodec, SlotRoundTripsBitExactly) {
    SlotUpload upload = valid_upload(3);
    upload.x[1] = -0.0;                 // sign bit must survive
    upload.x[2] = 1.0 + 1e-15;          // low mantissa bits must survive
    upload.vy[0] = 12345.6789e-7;
    upload.observed[2] = 0;
    upload.y[2] = std::numeric_limits<double>::quiet_NaN();  // unobserved

    const auto payload = encode_slot_upload(upload);
    EXPECT_TRUE(is_slot_upload(payload));
    EXPECT_FALSE(is_stream_header(payload));
    const SlotUpload back = decode_slot_upload(payload);
    ASSERT_EQ(back.x.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(back.x[i]),
                  std::bit_cast<std::uint64_t>(upload.x[i]));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(back.y[i]),
                  std::bit_cast<std::uint64_t>(upload.y[i]));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(back.vx[i]),
                  std::bit_cast<std::uint64_t>(upload.vx[i]));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(back.vy[i]),
                  std::bit_cast<std::uint64_t>(upload.vy[i]));
        EXPECT_EQ(back.observed[i], upload.observed[i]);
    }
    EXPECT_THROW(decode_stream_header(payload), Error);
    EXPECT_THROW(decode_slot_upload(encode_stream_header(StreamHeader{})),
                 Error);
}

// ---- Ingest queue ------------------------------------------------------

TEST(IngestQueue, DeliversInOrderUnderBackpressure) {
    IngestQueue queue(2);  // smaller than the number of pushes: producers
                           // must block and resume without losing order
    constexpr std::size_t kUploads = 16;
    std::thread producer([&] {
        for (std::size_t j = 0; j < kUploads; ++j) {
            SlotUpload upload = valid_upload(1);
            upload.x[0] = static_cast<double>(j);
            EXPECT_TRUE(queue.push(std::move(upload)));
        }
        queue.close();
    });
    std::size_t received = 0;
    while (auto upload = queue.pop()) {
        EXPECT_EQ(upload->x[0], static_cast<double>(received));
        ++received;
    }
    producer.join();
    EXPECT_EQ(received, kUploads);
    EXPECT_FALSE(queue.pop().has_value());      // stays drained
    EXPECT_FALSE(queue.push(valid_upload(1)));  // closed refuses pushes
}

// ---- Boundary validation (satellite of ItscsInput::validate) -----------

// A default daemon runs one shard inline, a plan that cannot move with
// the machine, so it has nothing to warn about.
TEST(IngestDaemon, DefaultDaemonPrintsNothing) {
    ServeConfig config;
    config.participants = 4;
    testing::internal::CaptureStderr();
    {
        IngestDaemon daemon(config);
        daemon.finish();
    }
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
}

TEST(IngestDaemon, RejectsMalformedUploadsWithReports) {
    ServeConfig config = small_config(4);
    IngestDaemon daemon(config);
    daemon.start();

    SlotUpload wrong_size = valid_upload(4);
    wrong_size.vx.resize(3);
    daemon.submit(wrong_size);

    SlotUpload poisoned = valid_upload(4);
    poisoned.y[2] = std::numeric_limits<double>::quiet_NaN();
    daemon.submit(poisoned);

    // A non-finite value in an *unobserved* reading is acceptable — the
    // framework never reads that cell.
    SlotUpload unobserved = valid_upload(4);
    unobserved.observed[1] = 0;
    unobserved.x[1] = std::numeric_limits<double>::infinity();
    daemon.submit(unobserved);

    daemon.finish();
    const ServeStats stats = daemon.stats();
    EXPECT_EQ(stats.uploads_rejected, 2u);
    EXPECT_EQ(stats.uploads_accepted, 1u);
    // Only accepted slots are timed.
    EXPECT_EQ(stats.slot_latency_ms.count(), 1u);

    const auto failures = daemon.drain_failures();
    ASSERT_EQ(failures.size(), 2u);
    EXPECT_EQ(failures[0].kind, FailureKind::kRejectedUpload);
    EXPECT_EQ(failures[0].phase, "ingest");
    EXPECT_NE(failures[0].detail.find("do not match the fleet size"),
              std::string::npos)
        << failures[0].detail;
    EXPECT_EQ(failures[1].kind, FailureKind::kRejectedUpload);
    EXPECT_NE(failures[1].detail.find("non-finite at participant 2"),
              std::string::npos)
        << failures[1].detail;
}

// ---- Slotloss chaos ----------------------------------------------------

TEST(IngestDaemon, SlotLossReplacesEveryKthUpload) {
    ServeConfig config = small_config(4);
    config.slot_loss_every = 3;
    IngestDaemon daemon(config);
    daemon.start();
    for (std::size_t j = 0; j < 9; ++j) {
        daemon.submit(valid_upload(4));
    }
    daemon.finish();
    const ServeStats stats = daemon.stats();
    // Uploads 3, 6, 9 are lost in transit; their blank replacements are
    // still accepted so the slot clock keeps advancing.
    EXPECT_EQ(stats.slots_dropped, 3u);
    EXPECT_EQ(stats.uploads_accepted, 9u);
    EXPECT_EQ(stats.uploads_rejected, 0u);
}

TEST(IngestDaemon, SlotLossResolvesFromChaosGrammar) {
    const ChaosConfig chaos = ChaosConfig::parse("slotloss=4");
    EXPECT_EQ(chaos.slot_loss_every, 4u);
    const ChaosInjector injector(chaos);

    ServeConfig config = small_config(4);
    config.runtime.chaos = &injector;
    IngestDaemon daemon(config);
    daemon.start();
    for (std::size_t j = 0; j < 8; ++j) {
        daemon.submit(valid_upload(4));
    }
    daemon.finish();
    EXPECT_EQ(daemon.stats().slots_dropped, 2u);

    // An explicit slot_loss_every wins over the chaos spec.
    ServeConfig explicit_config = small_config(4);
    explicit_config.runtime.chaos = &injector;
    explicit_config.slot_loss_every = 2;
    IngestDaemon explicit_daemon(explicit_config);
    explicit_daemon.start();
    for (std::size_t j = 0; j < 8; ++j) {
        explicit_daemon.submit(valid_upload(4));
    }
    explicit_daemon.finish();
    EXPECT_EQ(explicit_daemon.stats().slots_dropped, 4u);
}

// ---- Streaming evaluation through the fleet runner ---------------------

TEST(IngestDaemon, EvaluatesWindowsAndFlushesPartialTail) {
    const CorruptedDataset data = make_stream(11, 10, 60);
    ServeConfig config = small_config(10);
    config.tau_s = data.tau_s;
    IngestDaemon daemon(config);
    daemon.start();
    for (std::size_t j = 0; j < 60; ++j) {
        daemon.submit(slot_of(data, j));
    }
    daemon.finish();

    // Window 24, stride 12 over 60 slots: boundaries at 24, 36, 48, 60 —
    // everything is covered, so finish() has no tail to flush.
    const auto reports = daemon.drain();
    ASSERT_EQ(reports.size(), 4u);
    EXPECT_EQ(daemon.stats().windows_evaluated, 4u);
    for (std::size_t k = 0; k < reports.size(); ++k) {
        EXPECT_EQ(reports[k].first_slot, k * 12);
        EXPECT_EQ(reports[k].detection.rows(), 10u);
        EXPECT_EQ(reports[k].detection.cols(), 24u);
    }
    // Every evaluation ran on a live push; no journal, nothing appended.
    EXPECT_EQ(daemon.stats().window_eval_ms.count(), 4u);
    EXPECT_EQ(daemon.stats().journal_append_ms.count(), 0u);

    // 6 extra slots leave an uncovered tail; finish() evaluates the last
    // (full-width) buffer once more.
    IngestDaemon tail_daemon(config);
    tail_daemon.start();
    for (std::size_t j = 0; j < 54; ++j) {
        tail_daemon.submit(slot_of(data, j));
    }
    tail_daemon.finish();
    const auto tail_reports = tail_daemon.drain();
    ASSERT_EQ(tail_reports.size(), 4u);  // 24, 36, 48 + flushed tail
    EXPECT_EQ(tail_reports.back().first_slot, 30u);
    EXPECT_EQ(tail_reports.back().detection.cols(), 24u);
    // The flushed tail is not a live push, so it is not timed.
    EXPECT_EQ(tail_daemon.stats().windows_evaluated, 4u);
    EXPECT_EQ(tail_daemon.stats().window_eval_ms.count(), 3u);
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

// The daemon serves every window cold: each report, at 1 and 2 worker
// threads, is bit-identical to the report of a fresh detector fed only
// that window's slots through a fresh runner.
TEST(IngestDaemon, EachWindowDependsOnlyOnItsOwnSlots) {
    const CorruptedDataset data = make_stream(31, 10, 60);
    for (const std::size_t threads : {1u, 2u}) {
        ServeConfig config = small_config(10);
        config.tau_s = data.tau_s;
        config.runtime.threads = threads;
        config.runtime.shard_count = 0;
        config.runtime.shard_size = 5;
        IngestDaemon daemon(config);
        daemon.start();
        for (std::size_t j = 0; j < 60; ++j) {
            daemon.submit(slot_of(data, j));
        }
        daemon.finish();
        const std::vector<WindowReport> reports = daemon.drain();
        ASSERT_EQ(reports.size(), 4u);

        for (const WindowReport& report : reports) {
            RuntimeConfig runtime = config.runtime;
            runtime.threads = 1;
            FleetRunner runner(runtime);
            StreamingDetector::Config detector;
            detector.window = config.window;
            detector.stride = config.stride;
            detector.framework = config.framework;
            detector.evaluator = runner.window_evaluator();
            StreamingDetector alone(10, data.tau_s, detector);
            for (std::size_t k = 0; k < config.window; ++k) {
                alone.push_slot(slot_of(data, report.first_slot + k));
            }
            const std::optional<WindowReport> want = alone.poll();
            ASSERT_TRUE(want.has_value());
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
        }
    }
}

// ---- Journal replay / crash recovery -----------------------------------

// Kill a daemon mid-window, resume a fresh one from its journal, feed the
// rest of the stream: the resumed daemon's full report sequence must be
// bit-identical to an uninterrupted run's.
TEST(IngestDaemon, JournalReplayReproducesUninterruptedRun) {
    const std::size_t kSlots = 60;
    const std::size_t kCrashAt = 31;  // mid-window: 24 evaluated, 7 buffered
    const CorruptedDataset data = make_stream(23, 10, kSlots);

    ServeConfig config = small_config(10);
    config.tau_s = data.tau_s;
    config.flush_tail = false;

    // Reference: one uninterrupted daemon over the whole stream.
    std::vector<WindowReport> want;
    {
        IngestDaemon daemon(config);
        daemon.start();
        for (std::size_t j = 0; j < kSlots; ++j) {
            daemon.submit(slot_of(data, j));
        }
        daemon.finish();
        want = daemon.drain();
    }
    ASSERT_EQ(want.size(), 4u);

    JournalDir dir;
    ServeConfig journaled = config;
    journaled.journal_path = dir.journal();
    {
        IngestDaemon daemon(journaled);
        daemon.start();
        for (std::size_t j = 0; j < kCrashAt; ++j) {
            daemon.submit(slot_of(data, j));
        }
        daemon.finish();  // simulated kill: journal survives, process ends
    }

    ServeConfig resumed = journaled;
    resumed.resume = true;
    IngestDaemon daemon(resumed);
    daemon.start();
    EXPECT_EQ(daemon.stats().slots_replayed, kCrashAt);
    for (std::size_t j = kCrashAt; j < kSlots; ++j) {
        daemon.submit(slot_of(data, j));
    }
    daemon.finish();

    const auto got = daemon.drain();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t k = 0; k < want.size(); ++k) {
        EXPECT_EQ(got[k].first_slot, want[k].first_slot);
        EXPECT_EQ(got[k].iterations, want[k].iterations);
        EXPECT_EQ(got[k].converged, want[k].converged);
        ASSERT_EQ(got[k].detection.rows(), want[k].detection.rows());
        ASSERT_EQ(got[k].detection.cols(), want[k].detection.cols());
        const auto got_cells = got[k].detection.data();
        const auto want_cells = want[k].detection.data();
        for (std::size_t c = 0; c < got_cells.size(); ++c) {
            ASSERT_EQ(got_cells[c], want_cells[c])
                << "window " << k << " cell " << c;
        }
        const auto got_x = got[k].reconstructed_x.data();
        const auto want_x = want[k].reconstructed_x.data();
        for (std::size_t c = 0; c < got_x.size(); ++c) {
            ASSERT_EQ(std::bit_cast<std::uint64_t>(got_x[c]),
                      std::bit_cast<std::uint64_t>(want_x[c]))
                << "window " << k << " cell " << c;
        }
    }
}

TEST(IngestDaemon, AdversarialStreamReplaysBitIdenticallyAfterResume) {
    // The adversary acts client-side: colluded and replayed rows arrive
    // through the normal ingest path as valid-looking uploads, so the
    // daemon journals them like any other reading — and a crash/resume
    // must reproduce the hostile run's reports bit for bit.
    const std::size_t kSlots = 60;
    const std::size_t kCrashAt = 29;
    CorruptedDataset data = make_stream(31, 10, kSlots);
    const AdversaryInjector adversary(
        AdversarySpec::parse("collude=2,replay=1,seed=17"));
    adversary.apply(data.sx, data.sy, data.vx, data.vy, data.existence,
                    data.tau_s, &data.fault);

    ServeConfig config = small_config(10);
    config.tau_s = data.tau_s;
    config.flush_tail = false;

    std::vector<WindowReport> want;
    {
        IngestDaemon daemon(config);
        daemon.start();
        for (std::size_t j = 0; j < kSlots; ++j) {
            daemon.submit(slot_of(data, j));
        }
        daemon.finish();
        want = daemon.drain();
    }
    ASSERT_FALSE(want.empty());

    JournalDir dir;
    ServeConfig journaled = config;
    journaled.journal_path = dir.journal();
    {
        IngestDaemon daemon(journaled);
        daemon.start();
        for (std::size_t j = 0; j < kCrashAt; ++j) {
            daemon.submit(slot_of(data, j));
        }
        daemon.finish();  // simulated kill mid-window
    }

    ServeConfig resumed = journaled;
    resumed.resume = true;
    IngestDaemon daemon(resumed);
    daemon.start();
    EXPECT_EQ(daemon.stats().slots_replayed, kCrashAt);
    for (std::size_t j = kCrashAt; j < kSlots; ++j) {
        daemon.submit(slot_of(data, j));
    }
    daemon.finish();

    const auto got = daemon.drain();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t k = 0; k < want.size(); ++k) {
        EXPECT_EQ(got[k].first_slot, want[k].first_slot);
        const auto got_cells = got[k].detection.data();
        const auto want_cells = want[k].detection.data();
        ASSERT_EQ(got_cells.size(), want_cells.size());
        for (std::size_t c = 0; c < got_cells.size(); ++c) {
            ASSERT_EQ(got_cells[c], want_cells[c])
                << "window " << k << " cell " << c;
        }
        const auto got_x = got[k].reconstructed_x.data();
        const auto want_x = want[k].reconstructed_x.data();
        for (std::size_t c = 0; c < got_x.size(); ++c) {
            ASSERT_EQ(std::bit_cast<std::uint64_t>(got_x[c]),
                      std::bit_cast<std::uint64_t>(want_x[c]))
                << "window " << k << " cell " << c;
        }
    }
}

TEST(IngestDaemon, QuarantineEnforcementSurvivesResumeBitIdentically) {
    // A fraudster mirrors another participant's live uploads slot for
    // slot — an exact duplicate the defence's replay scan catches in the
    // first evaluated window. From then on the daemon refuses the
    // fraudster's readings at the ingest boundary, and because
    // enforcement runs *before* the journal append, a killed daemon
    // resumes to the same sticky quarantine and bit-identical windows.
    const std::size_t kSlots = 60;
    const std::size_t kCrashAt = 29;  // first window (24) evaluated
    const std::size_t kVictim = 3;
    const std::size_t kFraud = 7;
    CorruptedDataset data = make_stream(31, 10, kSlots);
    for (std::size_t j = 0; j < kSlots; ++j) {
        data.sx(kFraud, j) = data.sx(kVictim, j);
        data.sy(kFraud, j) = data.sy(kVictim, j);
        data.vx(kFraud, j) = data.vx(kVictim, j);
        data.vy(kFraud, j) = data.vy(kVictim, j);
        data.existence(kFraud, j) = data.existence(kVictim, j);
    }

    const DefenseSuite defense{DefenseSpec{}};
    ServeConfig config = small_config(10);
    config.tau_s = data.tau_s;
    config.flush_tail = false;
    config.runtime.defense = &defense;

    std::vector<WindowReport> want;
    std::vector<std::size_t> want_quarantined;
    ServeStats want_stats;
    {
        IngestDaemon daemon(config);
        daemon.start();
        for (std::size_t j = 0; j < kSlots; ++j) {
            daemon.submit(slot_of(data, j));
        }
        daemon.finish();
        want = daemon.drain();
        want_quarantined = daemon.quarantined();
        want_stats = daemon.stats();
        const auto failures = daemon.drain_failures();
        const bool enforced = std::any_of(
            failures.begin(), failures.end(), [](const FailureReport& f) {
                return f.kind == FailureKind::kRejectedUpload &&
                       f.phase == "quarantine";
            });
        EXPECT_TRUE(enforced);
    }
    ASSERT_EQ(want_quarantined, std::vector<std::size_t>{kFraud});
    EXPECT_EQ(want_stats.participants_quarantined, 1u);
    EXPECT_GT(want_stats.readings_quarantined, 0u);

    JournalDir dir;
    ServeConfig journaled = config;
    journaled.journal_path = dir.journal();
    {
        IngestDaemon daemon(journaled);
        daemon.start();
        for (std::size_t j = 0; j < kCrashAt; ++j) {
            daemon.submit(slot_of(data, j));
        }
        daemon.finish();  // simulated kill mid-window
    }

    ServeConfig resumed = journaled;
    resumed.resume = true;
    IngestDaemon daemon(resumed);
    daemon.start();
    // The replayed journal holds the *enforced* stream: the sticky
    // quarantine is rebuilt from the re-evaluated windows, not
    // re-enforced per reading.
    EXPECT_EQ(daemon.stats().slots_replayed, kCrashAt);
    EXPECT_EQ(daemon.quarantined(), want_quarantined);
    for (std::size_t j = kCrashAt; j < kSlots; ++j) {
        daemon.submit(slot_of(data, j));
    }
    daemon.finish();

    EXPECT_EQ(daemon.quarantined(), want_quarantined);
    const ServeStats stats = daemon.stats();
    EXPECT_EQ(stats.participants_quarantined,
              want_stats.participants_quarantined);
    // Slots enforced before the crash live in the journal as dark cells,
    // so the resumed run only re-enforces the live tail.
    EXPECT_GT(stats.readings_quarantined, 0u);
    EXPECT_LE(stats.readings_quarantined, want_stats.readings_quarantined);

    const auto got = daemon.drain();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t k = 0; k < want.size(); ++k) {
        EXPECT_EQ(got[k].first_slot, want[k].first_slot);
        EXPECT_EQ(got[k].quarantined, want[k].quarantined);
        const auto got_cells = got[k].detection.data();
        const auto want_cells = want[k].detection.data();
        ASSERT_EQ(got_cells.size(), want_cells.size());
        for (std::size_t c = 0; c < got_cells.size(); ++c) {
            ASSERT_EQ(got_cells[c], want_cells[c])
                << "window " << k << " cell " << c;
        }
        const auto got_x = got[k].reconstructed_x.data();
        const auto want_x = want[k].reconstructed_x.data();
        for (std::size_t c = 0; c < got_x.size(); ++c) {
            ASSERT_EQ(std::bit_cast<std::uint64_t>(got_x[c]),
                      std::bit_cast<std::uint64_t>(want_x[c]))
                << "window " << k << " cell " << c;
        }
    }
}

// The window-evaluation and journal-append histograms time live work
// only: the windows and slots a resumed daemon replays are not timed.
TEST(IngestDaemon, LatencyHistogramsCountLiveWindowsAndAppends) {
    const std::size_t kSlots = 60;
    const std::size_t kCrashAt = 31;  // window 1 closed at slot 24
    const CorruptedDataset data = make_stream(29, 10, kSlots);
    const JournalDir dir;
    ServeConfig config = small_config(10);
    config.tau_s = data.tau_s;
    config.journal_path = dir.journal();
    config.flush_tail = false;
    {
        IngestDaemon first(config);
        first.start();
        for (std::size_t j = 0; j < kCrashAt; ++j) {
            first.submit(slot_of(data, j));
        }
        first.finish();
        const ServeStats stats = first.stats();
        EXPECT_EQ(stats.windows_evaluated, 1u);
        EXPECT_EQ(stats.window_eval_ms.count(), 1u);
        EXPECT_EQ(stats.uploads_accepted, kCrashAt);
        EXPECT_EQ(stats.journal_append_ms.count(), kCrashAt);
        EXPECT_EQ(stats.slot_latency_ms.count(), kCrashAt);
    }

    config.resume = true;
    IngestDaemon resumed(config);
    resumed.start();
    const ServeStats replayed = resumed.stats();
    EXPECT_EQ(replayed.slots_replayed, kCrashAt);
    EXPECT_EQ(replayed.windows_evaluated, 1u);
    EXPECT_EQ(replayed.window_eval_ms.count(), 0u);
    EXPECT_EQ(replayed.journal_append_ms.count(), 0u);
    for (std::size_t j = kCrashAt; j < kSlots; ++j) {
        resumed.submit(slot_of(data, j));
    }
    resumed.finish();
    const ServeStats stats = resumed.stats();
    // Windows closing at 36, 48 and 60 were evaluated live.
    EXPECT_EQ(stats.windows_evaluated, 4u);
    EXPECT_EQ(stats.window_eval_ms.count(), 3u);
    EXPECT_EQ(stats.uploads_accepted, kSlots - kCrashAt);
    EXPECT_EQ(stats.journal_append_ms.count(), kSlots - kCrashAt);
    EXPECT_GT(stats.window_eval_ms.max(), 0.0);
}

TEST(IngestDaemon, ResumeRefusesMismatchedStream) {
    JournalDir dir;
    ServeConfig config = small_config(6);
    config.journal_path = dir.journal();
    {
        IngestDaemon daemon(config);
        daemon.start();
        daemon.submit(valid_upload(6));
        daemon.finish();
    }
    ServeConfig wrong = small_config(7);
    wrong.journal_path = dir.journal();
    wrong.resume = true;
    IngestDaemon daemon(wrong);
    EXPECT_THROW(daemon.start(), Error);
}

TEST(IngestDaemon, ResumeSurvivesCorruptFrames) {
    JournalDir dir;
    ServeConfig config = small_config(4);
    config.journal_path = dir.journal();
    {
        IngestDaemon daemon(config);
        daemon.start();
        for (std::size_t j = 0; j < 6; ++j) {
            SlotUpload upload = valid_upload(4);
            upload.x[0] = static_cast<double>(j);
            daemon.submit(upload);
        }
        daemon.finish();
    }

    // Flip a byte in the middle of the file: one frame's CRC breaks, the
    // scan drops it, and the replay continues past it.
    {
        std::fstream file(dir.journal(),
                          std::ios::in | std::ios::out | std::ios::binary);
        ASSERT_TRUE(file.is_open());
        file.seekg(0, std::ios::end);
        const auto size = static_cast<std::size_t>(file.tellg());
        file.seekg(static_cast<std::streamoff>(size / 2));
        char byte = 0;
        file.read(&byte, 1);
        byte = static_cast<char>(byte ^ 0x5a);  // guaranteed different
        file.seekp(static_cast<std::streamoff>(size / 2));
        file.write(&byte, 1);
    }

    ServeConfig resumed = config;
    resumed.resume = true;
    IngestDaemon daemon(resumed);
    daemon.start();
    const ServeStats stats = daemon.stats();
    EXPECT_GE(stats.journal_corrupt_frames, 1u);
    EXPECT_LT(stats.slots_replayed, 6u);
    const auto failures = daemon.drain_failures();
    ASSERT_FALSE(failures.empty());
    EXPECT_EQ(failures[0].kind, FailureKind::kCheckpointCorrupt);
    EXPECT_EQ(failures[0].phase, "ingest_journal");
    daemon.finish();

    // The compacted journal resumes cleanly a second time.
    IngestDaemon again(resumed);
    again.start();
    EXPECT_EQ(again.stats().journal_corrupt_frames, 0u);
    again.finish();
}

TEST(IngestDaemon, ConfigValidation) {
    ServeConfig config;  // participants == 0
    EXPECT_THROW(IngestDaemon{config}, Error);

    config = small_config(4);
    config.runtime.checkpoint_dir = "/tmp/somewhere";
    EXPECT_THROW(IngestDaemon{config}, Error);

    config = small_config(4);
    config.resume = true;  // resume without a journal
    EXPECT_THROW(IngestDaemon{config}, Error);
}

// ---- The latency record ------------------------------------------------

// ServeStats keeps slot latencies in a fixed-size histogram, not a
// per-slot vector: its p50 and p99 land within one bucket's relative width
// of the exact order statistics of a known sample.
TEST(LatencyHistogram, QuantilesWithinOneBucketOfExactOrderStatistics) {
    constexpr std::size_t kSamples = 100000;
    Rng rng(17);
    LatencyHistogram histogram;
    std::vector<double> sample(kSamples);
    for (double& ms : sample) {
        // Log-uniform over 0.05 ms .. 5 s, the span of a slot's latency.
        ms = std::exp(rng.uniform(std::log(0.05), std::log(5000.0)));
        histogram.record(ms);
    }
    std::sort(sample.begin(), sample.end());
    EXPECT_EQ(histogram.count(), kSamples);
    EXPECT_EQ(histogram.max(), sample.back());
    for (const double p : {0.50, 0.99}) {
        const double exact =
            sample[static_cast<std::size_t>(std::llround(p * (kSamples - 1)))];
        EXPECT_LE(std::abs(histogram.quantile(p) - exact),
                  LatencyHistogram::bucket_width() * exact)
            << "p = " << p;
    }
    EXPECT_EQ(LatencyHistogram().quantile(0.5), 0.0);
    EXPECT_EQ(LatencyHistogram().count(), 0u);
}

}  // namespace
}  // namespace mcs
