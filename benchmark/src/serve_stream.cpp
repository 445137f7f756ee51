// serve_stream: live ingestion through the IngestDaemon.
//
// Set-up is a restart: an untimed daemon first journals a fixed prefix of
// the stream; each timed restart then constructs a daemon on a copy of
// that journal and calls start() with resume, which replays the prefix.
// Half the restarts run before the live stream and half after it, so that
// their median spans the run. The last restart before the stream serves
// it: an open-loop generator submits slot j at t0 + j / rate — scheduled
// from due times, never from completions — and polls drain() for window
// reports. A window's latency runs from the due time of its closing slot
// to the moment the generator sees its report. The p50 is over all live
// windows; the p90 is the median of the p90s of five consecutive
// stretches of the stream.
#include <cmath>
#include <filesystem>
#include <iostream>
#include <memory>
#include <thread>

#include "core/variants.hpp"
#include "corruption/scenario.hpp"
#include "serve/daemon.hpp"
#include "trace/simulator.hpp"
#include "workloads.hpp"

namespace bench {
namespace {

// 80 participants in two shards of 40, the ServeConfig default window of
// 60 slots and stride of 20, alpha = beta = 0.15 faults as in
// perf_streaming, and a 200-slot journal prefix (8 windows to replay).
constexpr std::size_t kParticipants = 80;
constexpr std::size_t kShardSize = 40;
constexpr std::size_t kWindow = 60;
constexpr std::size_t kStride = 20;
constexpr std::size_t kPrefixSlots = 200;
constexpr double kAlpha = 0.15;
constexpr double kBeta = 0.15;
// Restarts timed on each side of the live stream. One takes about 0.7 s.
constexpr std::size_t kRestartsPerSide = 3;
// The report p90 is taken within each fifth of the live windows (about
// 6 s of stream each) and the run reports the median of the five. A host
// stall of a few seconds then moves one fifth, not the run's figure.
constexpr std::size_t kLatencyStretches = 5;

struct Files {
    std::string feed;     // per slot: x, y, vx, vy, observed (n doubles each)
    std::string truth;    // whole stream: x, y, fault, existence
    std::string prefix;   // the journal the untimed daemon wrote
    std::string journal;  // the restarted daemon's journal
    std::string reports;  // live window reports, spilled as they arrive
};

struct Pass {
    EndToEnd e2e;
    std::size_t live_slots = 0;
    std::size_t windows_due = 0;
    std::size_t windows_seen = 0;
    std::vector<std::size_t> replayed;  // windows each restart replayed
    std::size_t submitted = 0;
    std::size_t accepted = 0;
    std::size_t rejected = 0;
    std::size_t evaluated = 0;  // live windows the daemon evaluated
    std::size_t warm = 0;       // ... of them warm-started
    std::size_t stolen = 0;
    bool finite = true;
    std::vector<double> lag_ms;
    std::vector<std::size_t> report_slots;  // first slot of each spilled report
    Instrumentation live;                    // daemon context, live part
    double journal_mb = 0.0;
};

mcs::ServeConfig config_of(std::size_t workers, const std::string& journal,
                           bool resume) {
    mcs::ServeConfig config;
    config.participants = kParticipants;
    config.tau_s = 30.0;
    config.window = kWindow;
    config.stride = kStride;
    config.framework = mcs::make_config(mcs::ItscsVariant::kFull);
    config.runtime.threads = workers;
    config.runtime.shard_size = kShardSize;
    config.runtime.kernel_tier = mcs::KernelTier::kFast;
    config.journal_path = journal;
    config.resume = resume;
    config.warm_start = true;
    config.flush_tail = false;  // only whole windows are due
    return config;
}

mcs::SlotUpload read_slot(std::ifstream& feed, std::size_t n,
                          std::size_t slot) {
    std::vector<double> buffer(5 * n);
    feed.seekg(static_cast<std::streamoff>(slot * 5 * n * sizeof(double)));
    feed.read(reinterpret_cast<char*>(buffer.data()),
              static_cast<std::streamsize>(buffer.size() * sizeof(double)));
    if (!feed) {
        throw std::runtime_error("generator: feed read failed");
    }
    mcs::SlotUpload upload;
    upload.x.assign(buffer.begin(), buffer.begin() + n);
    upload.y.assign(buffer.begin() + n, buffer.begin() + 2 * n);
    upload.vx.assign(buffer.begin() + 2 * n, buffer.begin() + 3 * n);
    upload.vy.assign(buffer.begin() + 3 * n, buffer.begin() + 4 * n);
    upload.observed.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        upload.observed[i] = buffer[4 * n + i] != 0.0 ? 1 : 0;
    }
    return upload;
}

// Simulate and corrupt the whole stream, write the feed and the truth,
// and let an untimed daemon journal the prefix.
void generate(std::size_t workers, std::size_t slots, std::uint64_t seed,
              const Files& files) {
    const std::size_t n = kParticipants;
    {
        const mcs::TraceDataset truth =
            mcs::make_small_dataset(seed, n, slots);
        mcs::CorruptionConfig corruption;
        corruption.missing_ratio = kAlpha;
        corruption.fault_ratio = kBeta;
        corruption.seed = seed + 1;
        const mcs::CorruptedDataset d = mcs::corrupt(truth, corruption);
        std::ofstream feed(files.feed, std::ios::binary);
        mcs::Matrix column(5, n);
        for (std::size_t j = 0; j < slots; ++j) {
            for (std::size_t i = 0; i < n; ++i) {
                column(0, i) = d.sx(i, j);
                column(1, i) = d.sy(i, j);
                column(2, i) = d.vx(i, j);
                column(3, i) = d.vy(i, j);
                column(4, i) = d.existence(i, j);
            }
            write_matrices(feed, {&column});
        }
        std::ofstream out(files.truth, std::ios::binary);
        write_matrices(out, {&truth.x, &truth.y, &d.fault, &d.existence});
    }
    mcs::IngestDaemon writer(config_of(workers, files.prefix, false));
    writer.start();
    std::ifstream feed(files.feed, std::ios::binary);
    for (std::size_t j = 0; j < kPrefixSlots; ++j) {
        writer.submit(read_slot(feed, n, j));
    }
    writer.finish();
}

Pass run_pass(std::size_t workers, double rate, const Files& files,
              double budget_s, SpanRecorder& spans) {
    const std::size_t n = kParticipants;
    Pass pass;
    pass.live_slots = static_cast<std::size_t>(std::llround(rate * budget_s));
    std::ifstream feed(files.feed, std::ios::binary);

    reset_peak_rss();
    std::unique_ptr<mcs::IngestDaemon> daemon;
    std::vector<double> setup_s;
    const auto restart = [&] {
        daemon.reset();
        std::filesystem::copy_file(
            files.prefix, files.journal,
            std::filesystem::copy_options::overwrite_existing);
        const SpanRecorder::Scope scope(spans, "restart",
                                        static_cast<long>(setup_s.size()));
        const Clock::time_point t0 = Clock::now();
        {
            const SpanRecorder::Scope call(spans, "IngestDaemon");
            daemon = std::make_unique<mcs::IngestDaemon>(
                config_of(workers, files.journal, true));
        }
        {
            const SpanRecorder::Scope call(spans, "start");
            daemon->start();
        }
        setup_s.push_back(seconds_since(t0));
        pass.replayed.push_back(daemon->drain().size());
    };
    for (std::size_t k = 0; k < kRestartsPerSide; ++k) {
        restart();
    }
    // The consumer thread touches the context only to process a submitted
    // slot, so reading it before the first submit is race-free.
    const Instrumentation replay = Instrumentation::of(daemon->context());
    const mcs::ServeStats before = daemon->stats();

    // Window k covers slots [k*stride, k*stride + window); it is due when
    // its closing slot is. Live windows close at or after the prefix.
    const std::size_t first_slot = kPrefixSlots;
    const std::size_t last_slot = kPrefixSlots + pass.live_slots - 1;
    std::vector<std::size_t> due_windows;
    for (std::size_t k = 0; k * kStride + kWindow - 1 <= last_slot; ++k) {
        if (k * kStride + kWindow - 1 >= first_slot) {
            due_windows.push_back(k);
        }
    }
    pass.windows_due = due_windows.size();
    const Clock::time_point t0 =
        Clock::now() + std::chrono::milliseconds(10);
    const auto due_of_slot = [&](std::size_t slot) {
        return t0 + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(
                            static_cast<double>(slot - first_slot) /
                            rate));
    };
    const auto window_of_slot = [&](std::size_t slot) {
        return slot + 1 < kWindow
                   ? 0L
                   : static_cast<long>(
                         (slot + 1 - kWindow + kStride - 1) / kStride);
    };
    std::map<std::size_t, Clock::time_point> seen;  // window -> report seen
    // Reports go to a file as they arrive, so that the benchmark's copies
    // do not count in the program's peak RSS.
    std::ofstream spill(files.reports, std::ios::binary | std::ios::trunc);
    const auto poll = [&] {
        std::vector<mcs::WindowReport> reports = daemon->drain();
        if (reports.empty()) {
            return;
        }
        const Clock::time_point now = Clock::now();
        for (mcs::WindowReport& report : reports) {
            const std::size_t k = report.first_slot / kStride;
            const std::size_t closing = report.first_slot + kWindow - 1;
            if (closing < first_slot) {
                continue;
            }
            seen[k] = now;
            spans.add("window", due_of_slot(closing), now,
                      static_cast<long>(k));
            const mcs::Matrix* mats[] = {&report.detection,
                                         &report.reconstructed_x,
                                         &report.reconstructed_y};
            bool ok = true;
            for (const mcs::Matrix* m : mats) {
                ok = ok && m->rows() == n && m->cols() == kWindow &&
                     all_finite(*m);
            }
            pass.finite = pass.finite && ok;
            if (ok) {
                write_matrices(spill, {mats[0], mats[1], mats[2]});
                pass.report_slots.push_back(report.first_slot);
            }
        }
    };

    {
        const SpanRecorder::Scope stream(spans, "stream");
        for (std::size_t slot = first_slot; slot <= last_slot; ++slot) {
            mcs::SlotUpload upload = read_slot(feed, n, slot);
            const Clock::time_point due = due_of_slot(slot);
            for (Clock::time_point now = Clock::now(); now < due;
                 now = Clock::now()) {
                poll();
                std::this_thread::sleep_for(std::min<Clock::duration>(
                    due - now, std::chrono::milliseconds(1)));
            }
            pass.lag_ms.push_back(seconds_since(due) * 1000.0);
            const SpanRecorder::Scope call(spans, "submit",
                                           window_of_slot(slot));
            daemon->submit(std::move(upload));
            ++pass.submitted;
            poll();
        }
        // The last window is due with the last slot; allow it the time a
        // whole stream would take before counting it as never reported.
        const Clock::time_point give_up =
            Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(
                                   std::max(10.0, budget_s)));
        while (seen.size() < due_windows.size() && Clock::now() < give_up) {
            poll();
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
    }
    const Clock::time_point end = Clock::now();
    {
        const SpanRecorder::Scope call(spans, "finish");
        daemon->finish();
    }
    poll();  // nothing new is due; drains any report finish() released
    spill.close();
    const mcs::ServeStats after = daemon->stats();
    pass.live = Instrumentation::of(daemon->context()).minus(replay);
    pass.accepted = after.uploads_accepted - before.uploads_accepted;
    pass.rejected = after.uploads_rejected - before.uploads_rejected;
    pass.evaluated = after.windows_evaluated - before.windows_evaluated;
    pass.warm = after.windows_warm - before.windows_warm;
    pass.stolen = after.shards_stolen - before.shards_stolen;
    pass.windows_seen = 0;
    std::vector<double> latency_ms;
    Clock::time_point last_seen = t0;
    for (const std::size_t k : due_windows) {
        const Clock::time_point due = due_of_slot(k * kStride + kWindow - 1);
        const auto it = seen.find(k);
        // A window never reported counts at no less than the whole wait.
        const Clock::time_point at = it != seen.end() ? it->second : end;
        if (it != seen.end()) {
            ++pass.windows_seen;
            last_seen = std::max(last_seen, it->second);
        }
        latency_ms.push_back(seconds_between(due, at) * 1000.0);
    }
    if (pass.windows_seen < pass.windows_due) {
        last_seen = end;
    }
    daemon.reset();
    pass.journal_mb =
        static_cast<double>(std::filesystem::file_size(files.journal)) /
        kMiB;
    for (std::size_t k = 0; k < kRestartsPerSide; ++k) {
        restart();
    }
    daemon.reset();
    pass.e2e.peak_rss_mb = peak_rss_mib();

    pass.e2e.setup_s = median(setup_s);
    pass.e2e.latency_p50_ms = percentile(latency_ms, 0.5);
    std::vector<double> stretch_p90;
    for (std::size_t s = 0; s < kLatencyStretches; ++s) {
        const auto at = [&](std::size_t i) {
            return latency_ms.begin() +
                   static_cast<std::ptrdiff_t>(i * latency_ms.size() /
                                               kLatencyStretches);
        };
        stretch_p90.push_back(
            percentile(std::vector<double>(at(s), at(s + 1)), 0.9));
    }
    pass.e2e.latency_p90_ms = median(stretch_p90);
    pass.e2e.cells_per_s = static_cast<double>(n * pass.live_slots) /
                           seconds_between(t0, last_seen);
    pass.e2e.success_ratio =
        static_cast<double>(pass.windows_seen + pass.accepted) /
        static_cast<double>(pass.windows_due + pass.submitted);
    return pass;
}

void score(const Files& files, double f1_floor, std::size_t slots,
           Pass& pass, Outcome& outcome) {
    const std::size_t n = kParticipants;
    mcs::Matrix tx(n, slots);
    mcs::Matrix ty(n, slots);
    mcs::Matrix fault(n, slots);
    mcs::Matrix existence(n, slots);
    {
        std::ifstream in(files.truth, std::ios::binary);
        read_matrices(in, {&tx, &ty, &fault, &existence});
    }
    Score s;
    std::ifstream spill(files.reports, std::ios::binary);
    mcs::Matrix det(n, kWindow);
    mcs::Matrix rx(n, kWindow);
    mcs::Matrix ry(n, kWindow);
    for (const std::size_t first : pass.report_slots) {
        read_matrices(spill, {&det, &rx, &ry});
        if (first + kWindow > slots) {
            pass.finite = false;
            continue;
        }
        const auto cut = [&](const mcs::Matrix& m) {
            return m.block(0, first, n, kWindow);
        };
        s.add(det, rx, ry, cut(tx), cut(ty), cut(fault), cut(existence));
    }
    pass.e2e.f1 = s.f1();
    pass.e2e.mae_m = s.mae_m();
    const std::size_t prefix_windows = (kPrefixSlots - kWindow) / kStride + 1;
    outcome.check(pass.finite, "empty, misshapen or non-finite window report");
    outcome.check(pass.windows_seen == pass.windows_due,
                  std::to_string(pass.windows_due - pass.windows_seen) +
                      " due window(s) never reported");
    outcome.check(pass.accepted == pass.submitted,
                  "the daemon refused uploads");
    for (const std::size_t replayed : pass.replayed) {
        outcome.check(replayed == prefix_windows,
                      "restart replayed " + std::to_string(replayed) +
                          " windows, expected " +
                          std::to_string(prefix_windows));
    }
    outcome.check_f1(pass.e2e.f1, f1_floor);
    outcome.attempted += pass.windows_due + pass.submitted;
    outcome.failed += (pass.windows_due - pass.windows_seen) +
                      (pass.submitted - pass.accepted);
}

void print_stream(const char* label, const Pass& pass) {
    std::cout << label << " live windows: " << pass.windows_seen << " of "
              << pass.windows_due << " due; slots " << pass.submitted
              << "; generator lag max "
              << percentile(pass.lag_ms, 1.0) << " ms, p90 "
              << percentile(pass.lag_ms, 0.9) << " ms\n";
}

}  // namespace

int run_serve_stream(Args& args, const RunOptions& options) {
    // The offered rate is a constant of the workload, never calibrated at
    // run time, so that a faster program does not get a harder workload.
    const double rate = args.number("rate");
    args.finish();
    if (rate <= 0.0) {
        throw std::runtime_error("serve_stream: --rate must be positive");
    }

    const Files files{options.workdir + "/feed.bin",
                      options.workdir + "/truth.bin",
                      options.workdir + "/prefix.journal",
                      options.workdir + "/live.journal",
                      options.workdir + "/reports.bin"};
    const std::size_t slots =
        kPrefixSlots +
        static_cast<std::size_t>(std::llround(rate * options.seconds));
    const Clock::time_point generated = Clock::now();
    generate(options.workers, slots, options.seed, files);
    std::cout << "generator: " << seconds_since(generated) << " s\n";
    std::cout << "serve_stream: " << kParticipants << " participants in "
              << "shards of " << kShardSize << " on " << options.workers
              << " workers, window " << kWindow << "/" << kStride
              << ", open loop at " << rate << " slots/s after a "
              << kPrefixSlots << "-slot journal prefix\n";

    Outcome outcome;
    SpanRecorder untraced_spans(false);
    const double budget =
        options.trace ? options.seconds / 2.0 : options.seconds;
    Pass a = run_pass(options.workers, rate, files, budget, untraced_spans);
    score(files, options.f1_floor, slots, a, outcome);
    print_stream("untraced", a);
    print_end_to_end("untraced", a.e2e);
    if (!options.trace) {
        return report(outcome, a.e2e, nullptr);
    }

    SpanRecorder spans(true);
    Pass b = run_pass(options.workers, rate, files, budget, spans);
    score(files, options.f1_floor, slots, b, outcome);
    print_stream("traced", b);
    print_end_to_end("traced", b.e2e);
    spans.write(options.span_file);

    Layers layers;
    const double windows = static_cast<double>(b.evaluated);
    layers.set("persist.journal_mb", b.journal_mb);
    layers.set("serve.replayed_windows",
               static_cast<double>(b.replayed.front()));
    layers.set("serve.eval_cpu_ms_per_window",
               b.live.phase("run_itscs") * 1000.0 / windows);
    layers.set("serve.warm_window_ratio",
               static_cast<double>(b.warm) / windows);
    layers.set("serve.generator_lag_ms_max", percentile(b.lag_ms, 1.0));
    layers.set("serve.generator_lag_ms_p90", percentile(b.lag_ms, 0.9));
    layers.set("serve.windows", static_cast<double>(b.windows_seen));
    layers.set("serve.uploads_rejected", static_cast<double>(b.rejected));
    layers.set("runtime.busy_s", b.live.phase("run_itscs"));
    layers.set("runtime.shards_stolen", static_cast<double>(b.stolen));
    layers.set("runtime.shards_degraded",
               static_cast<double>(b.live.counters.shards_degraded));
    layers.set_pipeline(b.live, 1.0, kShardSize, kWindow);
    layers.set_overhead(a.e2e, b.e2e);
    return report(outcome, b.e2e, &layers);
}

}  // namespace bench
