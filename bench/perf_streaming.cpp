// Trace-replay load generator for the online ingestion daemon
// (DESIGN.md §15).
//
// Simulates a corrupted fleet, then replays it slot by slot through a
// real IngestDaemon — bounded queue, consumer thread, journal disabled —
// twice: once with cross-window warm starts (the daemon's default) and
// once cold. For each mode it records the slot-submit latency
// distribution (p50/p99; stride-boundary slots carry their window's
// evaluation, so the p99 *is* the evaluation latency), the sustained
// upload throughput, and the ASD iteration counters; the warm-vs-cold
// comparison is scored by aggregate F1 against the simulator's ground
// truth faults.
//
// Writes BENCH_streaming.json (and stdout). Exits nonzero when the run
// is invalid — no windows evaluated, non-finite cells, warm not cheaper
// than cold in ASD iterations, or an F1 gap above 0.01 — so CI can gate
// on it. `--quick` shrinks the fleet for the perf-smoke job; `--repeat N`
// (default 3) makes every timed wall a median of N replays after one
// warm-up.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_stamp.hpp"
#include "common/context.hpp"
#include "common/json.hpp"
#include "common/stopwatch.hpp"
#include "corruption/scenario.hpp"
#include "metrics/confusion.hpp"
#include "serve/daemon.hpp"
#include "trace/simulator.hpp"

namespace {

struct Scenario {
    std::size_t participants = 0;
    std::size_t slots = 0;
    std::size_t window = 0;
    std::size_t stride = 0;
    double missing_ratio = 0.15;
    double fault_ratio = 0.15;
    std::uint64_t seed = 17;
};

Scenario make_scenario(bool quick) {
    Scenario s;
    if (quick) {
        s.participants = 16;
        s.slots = 100;
        s.window = 40;
        s.stride = 15;
    } else {
        s.participants = 64;
        s.slots = 240;
        s.window = 60;
        s.stride = 20;
    }
    return s;
}

mcs::SlotUpload slot_of(const mcs::CorruptedDataset& data, std::size_t j) {
    const std::size_t n = data.participants();
    mcs::SlotUpload upload;
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

double median(std::vector<double> samples) {
    std::sort(samples.begin(), samples.end());
    return samples[samples.size() / 2];
}

// One full daemon replay of the corrupted trace.
struct Replay {
    std::vector<mcs::WindowReport> reports;
    mcs::ServeStats stats;
    std::uint64_t asd_iterations = 0;
    double wall_seconds = 0.0;
    double p50_ms = 0.0;
    double p99_ms = 0.0;
    double updates_per_sec = 0.0;
};

Replay replay_trace(const mcs::CorruptedDataset& data, double tau_s,
                    const Scenario& scenario, bool warm) {
    mcs::ServeConfig config;
    config.participants = scenario.participants;
    config.tau_s = tau_s;
    config.window = scenario.window;
    config.stride = scenario.stride;
    config.warm_start = warm;
    mcs::IngestDaemon daemon(std::move(config));
    daemon.start();
    const mcs::Stopwatch timer;
    for (std::size_t j = 0; j < scenario.slots; ++j) {
        daemon.submit(slot_of(data, j));
    }
    daemon.finish();

    Replay out;
    out.wall_seconds = timer.elapsed_seconds();
    out.reports = daemon.drain();
    out.stats = daemon.stats();
    out.asd_iterations = daemon.context().counters().asd_iterations;
    out.p50_ms = out.stats.slot_latency_ms.quantile(0.50);
    out.p99_ms = out.stats.slot_latency_ms.quantile(0.99);
    out.updates_per_sec =
        out.wall_seconds > 0.0
            ? static_cast<double>(out.stats.uploads_accepted) /
                  out.wall_seconds
            : 0.0;
    return out;
}

// Aggregate F1 of every report's detections against the simulator's
// ground-truth fault mask, scored over observed cells only (overlapping
// windows score their shared slots once per report, identically for warm
// and cold, so the comparison is apples to apples).
double aggregate_f1(const std::vector<mcs::WindowReport>& reports,
                    const mcs::CorruptedDataset& data) {
    mcs::ConfusionCounts counts;
    for (const mcs::WindowReport& report : reports) {
        for (std::size_t i = 0; i < report.detection.rows(); ++i) {
            for (std::size_t k = 0; k < report.detection.cols(); ++k) {
                const std::size_t column = report.first_slot + k;
                if (data.existence(i, column) == 0.0) {
                    continue;
                }
                const bool flagged = report.detection(i, k) != 0.0;
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
    }
    return counts.f1();
}

bool reports_finite(const std::vector<mcs::WindowReport>& reports) {
    for (const mcs::WindowReport& report : reports) {
        for (const mcs::Matrix* m :
             {&report.detection, &report.reconstructed_x,
              &report.reconstructed_y}) {
            if (m->rows() == 0 || m->cols() == 0) {
                return false;
            }
            for (const double v : m->data()) {
                if (!std::isfinite(v)) {
                    return false;
                }
            }
        }
    }
    return !reports.empty();
}

mcs::Json mode_row(const std::vector<Replay>& timed, const Replay& first) {
    std::vector<double> walls;
    std::vector<double> p50s;
    std::vector<double> p99s;
    std::vector<double> rates;
    for (const Replay& r : timed) {
        walls.push_back(r.wall_seconds * 1000.0);
        p50s.push_back(r.p50_ms);
        p99s.push_back(r.p99_ms);
        rates.push_back(r.updates_per_sec);
    }
    mcs::Json row = mcs::Json::object();
    row["windows"] = first.stats.windows_evaluated;
    row["windows_warm"] = first.stats.windows_warm;
    row["uploads_accepted"] = first.stats.uploads_accepted;
    row["asd_iterations"] = first.asd_iterations;
    row["wall_ms"] = median(walls);
    row["slot_latency_p50_ms"] = median(p50s);
    row["slot_latency_p99_ms"] = median(p99s);
    row["updates_per_sec"] = median(rates);
    return row;
}

}  // namespace

int main(int argc, char** argv) {
    bool quick = false;
    std::size_t repeat = 3;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg(argv[i]);
        if (arg == "--quick") {
            quick = true;
        } else if (arg == "--repeat" && i + 1 < argc) {
            repeat = static_cast<std::size_t>(
                std::max(1L, std::atol(argv[++i])));
        } else {
            std::cerr << "usage: perf_streaming [--quick] [--repeat N]\n";
            return 2;
        }
    }

    const Scenario scenario = make_scenario(quick);
    std::cerr << "streaming replay: simulating " << scenario.participants
              << "x" << scenario.slots << " fleet...\n";
    const mcs::TraceDataset truth = mcs::make_small_dataset(
        scenario.seed, scenario.participants, scenario.slots);
    mcs::CorruptionConfig corruption;
    corruption.missing_ratio = scenario.missing_ratio;
    corruption.fault_ratio = scenario.fault_ratio;
    const mcs::CorruptedDataset data = mcs::corrupt(truth, corruption);

    // Replays are deterministic, so counters/reports/F1 come from the
    // first (warm-up) run and only walls/latencies are re-measured
    // `repeat` times.
    mcs::Json modes = mcs::Json::object();
    Replay first_by_mode[2];
    for (const bool warm_mode : {false, true}) {
        const char* const label = warm_mode ? "warm" : "cold";
        std::cerr << "streaming replay: mode=" << label << " (warm-up)\n";
        first_by_mode[warm_mode ? 1 : 0] =
            replay_trace(data, truth.tau_s, scenario, warm_mode);
        std::vector<Replay> timed;
        for (std::size_t rep = 0; rep < repeat; ++rep) {
            std::cerr << "streaming replay: mode=" << label << " (timed "
                      << (rep + 1) << "/" << repeat << ")\n";
            timed.push_back(
                replay_trace(data, truth.tau_s, scenario, warm_mode));
        }
        modes[label] = mode_row(timed, first_by_mode[warm_mode ? 1 : 0]);
    }
    const Replay& cold = first_by_mode[0];
    const Replay& warm = first_by_mode[1];

    const double f1_cold = aggregate_f1(cold.reports, data);
    const double f1_warm = aggregate_f1(warm.reports, data);
    // The daemon's per-window fleet runs use the default RuntimeConfig:
    // one worker per hardware thread.
    const std::size_t threads =
        std::max(1u, std::thread::hardware_concurrency());

    mcs::Json report = mcs::Json::object();
    mcs::stamp_environment(report, repeat, threads, quick);
    report["warmup_runs"] = std::size_t{1};
    mcs::Json fleet = mcs::Json::object();
    fleet["participants"] = scenario.participants;
    fleet["slots"] = scenario.slots;
    fleet["window"] = scenario.window;
    fleet["stride"] = scenario.stride;
    fleet["missing_ratio"] = scenario.missing_ratio;
    fleet["fault_ratio"] = scenario.fault_ratio;
    report["fleet"] = std::move(fleet);
    report["modes"] = std::move(modes);
    mcs::Json versus = mcs::Json::object();
    versus["f1_cold"] = f1_cold;
    versus["f1_warm"] = f1_warm;
    versus["f1_gap"] = std::abs(f1_warm - f1_cold);
    versus["asd_iteration_ratio"] =
        cold.asd_iterations > 0
            ? static_cast<double>(warm.asd_iterations) /
                  static_cast<double>(cold.asd_iterations)
            : 1.0;
    report["warm_vs_cold"] = std::move(versus);

    // Validity gate — CI fails the perf-smoke job on any of these.
    std::vector<std::string> problems;
    if (cold.stats.windows_evaluated == 0 ||
        warm.stats.windows_evaluated == 0) {
        problems.push_back("no windows evaluated");
    }
    if (!reports_finite(cold.reports) || !reports_finite(warm.reports)) {
        problems.push_back("empty or non-finite report cells");
    }
    if (cold.stats.slot_latency_ms.count() == 0 ||
        warm.stats.slot_latency_ms.count() == 0) {
        problems.push_back("no slot latencies recorded");
    }
    if (!std::isfinite(f1_cold) || !std::isfinite(f1_warm)) {
        problems.push_back("non-finite F1");
    }
    if (warm.asd_iterations >= cold.asd_iterations) {
        problems.push_back("warm start not cheaper than cold (" +
                           std::to_string(warm.asd_iterations) + " vs " +
                           std::to_string(cold.asd_iterations) +
                           " ASD iterations)");
    }
    if (std::abs(f1_warm - f1_cold) > 0.01) {
        problems.push_back("warm/cold F1 gap above 0.01");
    }
    report["valid"] = problems.empty();

    std::ofstream out("BENCH_streaming.json");
    out << report.dump(2) << "\n";
    std::cout << report.dump(2) << "\n";
    if (!problems.empty()) {
        std::cerr << "streaming replay: FAILED —";
        for (const std::string& p : problems) {
            std::cerr << " " << p << ";";
        }
        std::cerr << "\n";
        return 1;
    }
    return 0;
}
