// fleet_incore: batch clean through the CLI's library path.
//
// The generator simulates and corrupts a fleet and writes it in the trace
// CSV format. The program then reads the file (read_trace_csv_file),
// cleans it in fixed-size shards on a fixed worker pool (FleetRunner::run,
// fast kernel tier) and writes the cleaned trace (write_trace_csv_file).
// Set-up is the read plus building the runner; the timed phase is the
// clean plus the write. The two alternate while the time budget allows.
#include <cmath>
#include <iostream>
#include <memory>
#include <optional>

#include "core/variants.hpp"
#include "corruption/scenario.hpp"
#include "runtime/fleet_runner.hpp"
#include "trace/simulator.hpp"
#include "trace/trace_io.hpp"
#include "workloads.hpp"

namespace bench {
namespace {

// The ROADMAP's 1264x240 fleet in shards of 158 rows, the paper's matrix
// height, with alpha = beta = 0.2 faults.
constexpr std::size_t kParticipants = 1264;
constexpr std::size_t kSlots = 240;
constexpr std::size_t kShardSize = 158;
constexpr double kAlpha = 0.2;
constexpr double kBeta = 0.2;
// Set-ups timed before each clean. A run fits two to five cleans, so
// that is 8 to 20 reads, spread over the run, so that their median does
// not hang on one slow stretch of the host.
constexpr std::size_t kSetupsPerClean = 4;

struct Files {
    std::string feed;     // corrupted fleet, trace CSV
    std::string truth;    // ground truth: x, y, fault, existence
    std::string cleaned;  // the program's output
};

struct Pass {
    EndToEnd e2e;
    FleetPass cleans;
    bool finite = true;
    mcs::FleetResult last;
};

// One independently seeded fleet of kShardSize rows per shard, stacked.
// With a single fleet-wide seed the seed alone moved the clean time by up
// to 25%; eight independent blocks average that out.
void generate(std::uint64_t seed, const Files& files) {
    mcs::TraceDataset upload{mcs::Matrix(kParticipants, kSlots),
                             mcs::Matrix(kParticipants, kSlots),
                             mcs::Matrix(kParticipants, kSlots),
                             mcs::Matrix(kParticipants, kSlots), 30.0};
    mcs::Matrix existence(kParticipants, kSlots);
    mcs::Matrix tx(kParticipants, kSlots);
    mcs::Matrix ty(kParticipants, kSlots);
    mcs::Matrix fault(kParticipants, kSlots);
    for (std::size_t b = 0; b * kShardSize < kParticipants; ++b) {
        const mcs::TraceDataset t = mcs::make_small_dataset(
            seed * 1000003 + 1009 * b + 7, kShardSize, kSlots);
        mcs::CorruptionConfig corruption;
        corruption.missing_ratio = kAlpha;
        corruption.fault_ratio = kBeta;
        corruption.seed = seed * 1000003 + 2003 * b + 13;
        const mcs::CorruptedDataset d = mcs::corrupt(t, corruption);
        const std::size_t row0 = b * kShardSize;
        put_rows(upload.x, d.sx, row0);
        put_rows(upload.y, d.sy, row0);
        put_rows(upload.vx, d.vx, row0);
        put_rows(upload.vy, d.vy, row0);
        put_rows(existence, d.existence, row0);
        put_rows(tx, t.x, row0);
        put_rows(ty, t.y, row0);
        put_rows(fault, d.fault, row0);
    }
    mcs::write_trace_csv_file(files.feed, upload, existence);
    std::ofstream out(files.truth, std::ios::binary);
    write_matrices(out, {&tx, &ty, &fault, &existence});
}

Pass run_pass(const Files& files, std::size_t workers, double budget_s,
              SpanRecorder& spans, mcs::PipelineContext* ctx) {
    mcs::RuntimeConfig runtime;
    runtime.threads = workers;
    runtime.shard_size = kShardSize;
    runtime.kernel_tier = mcs::KernelTier::kFast;
    const mcs::ItscsConfig config =
        mcs::make_config(mcs::ItscsVariant::kFull);

    Pass pass;
    reset_peak_rss();
    std::optional<mcs::ItscsInput> input;
    std::unique_ptr<mcs::FleetRunner> runner;
    std::vector<double> setup_s;
    while (another_rep(pass.cleans.cleans(), pass.cleans.seconds(),
                       budget_s)) {
        const long rep = static_cast<long>(pass.cleans.cleans());
        pass.last = mcs::FleetResult{};  // one result alive, as in the CLI
        for (std::size_t k = 0; k < kSetupsPerClean; ++k) {
            runner.reset();  // release the previous set-up before the next
            input.reset();
            const SpanRecorder::Scope scope(
                spans, "setup", static_cast<long>(setup_s.size()));
            const Clock::time_point t0 = Clock::now();
            {
                const SpanRecorder::Scope call(spans, "read_trace_csv_file");
                mcs::ImportedTrace imported = mcs::read_trace_csv_file(
                    files.feed, kParticipants, kSlots, 30.0);
                input = mcs::ItscsInput{std::move(imported.dataset.x),
                                        std::move(imported.dataset.y),
                                        std::move(imported.dataset.vx),
                                        std::move(imported.dataset.vy),
                                        std::move(imported.existence),
                                        imported.dataset.tau_s};
            }
            {
                const SpanRecorder::Scope call(spans, "FleetRunner");
                runner = std::make_unique<mcs::FleetRunner>(runtime);
            }
            setup_s.push_back(seconds_since(t0));
        }

        const SpanRecorder::Scope scope(spans, "clean", rep);
        const Clock::time_point t0 = Clock::now();
        mcs::FleetResult result;
        {
            const SpanRecorder::Scope call(spans, "FleetRunner::run", rep);
            result = runner->run(*input, config, ctx);
        }
        {
            // As the CLI's clean: reconstructed positions, uploaded
            // velocities, every cell present.
            const SpanRecorder::Scope call(spans, "write_trace_csv_file",
                                           rep);
            const mcs::TraceDataset cleaned{
                result.aggregate.reconstructed_x,
                result.aggregate.reconstructed_y, input->vx, input->vy,
                input->tau_s};
            mcs::write_trace_csv_file(
                files.cleaned, cleaned,
                mcs::Matrix::constant(kParticipants, kSlots, 1.0));
        }
        const double seconds = seconds_since(t0);
        const mcs::ItscsResult& a = result.aggregate;
        pass.finite = pass.finite && all_finite(a.detection) &&
                      all_finite(a.reconstructed_x) &&
                      all_finite(a.reconstructed_y) &&
                      a.detection.rows() == kParticipants &&
                      a.detection.cols() == kSlots;
        pass.cleans.add(seconds, result,
                        digest({&a.detection, &a.reconstructed_x,
                                &a.reconstructed_y}));
        pass.last = std::move(result);
    }
    const double peak = peak_rss_mib();
    pass.e2e = pass.cleans.end_to_end(kParticipants * kSlots, setup_s);
    pass.e2e.peak_rss_mb = peak;
    return pass;
}

// Score the last clean against the ground truth and fold the checks into
// `outcome`. The truth is reloaded only now, after the peak-RSS reading.
void score(const Files& files, double f1_floor, Pass& pass,
           Outcome& outcome) {
    mcs::Matrix tx(kParticipants, kSlots);
    mcs::Matrix ty(kParticipants, kSlots);
    mcs::Matrix fault(kParticipants, kSlots);
    mcs::Matrix existence(kParticipants, kSlots);
    {
        std::ifstream in(files.truth, std::ios::binary);
        read_matrices(in, {&tx, &ty, &fault, &existence});
    }
    const mcs::ItscsResult& a = pass.last.aggregate;
    outcome.check(pass.finite, "empty or non-finite cleaned output");
    pass.cleans.check(outcome);
    if (pass.finite) {
        Score s;
        s.add(a.detection, a.reconstructed_x, a.reconstructed_y, tx, ty,
              fault, existence);
        pass.e2e.f1 = s.f1();
        pass.e2e.mae_m = s.mae_m();
    }
    outcome.check_f1(pass.e2e.f1, f1_floor);
}

// The cleaned trace on disk must hold the cleaned positions (the CSV
// keeps millimetres).
void check_written(const Files& files, const Pass& pass,
                   Outcome& outcome) {
    const mcs::ImportedTrace back =
        mcs::read_trace_csv_file(files.cleaned, kParticipants, kSlots, 30.0);
    const mcs::ItscsResult& a = pass.last.aggregate;
    bool same = back.dataset.x.rows() == kParticipants &&
                a.reconstructed_x.rows() == kParticipants;
    for (std::size_t k = 0; same && k < back.dataset.x.size(); ++k) {
        same = std::abs(back.dataset.x.data()[k] -
                        a.reconstructed_x.data()[k]) <= 1e-3 &&
               std::abs(back.dataset.y.data()[k] -
                        a.reconstructed_y.data()[k]) <= 1e-3;
    }
    outcome.check(same, "written cleaned trace differs from the result");
}

}  // namespace

int run_fleet_incore(Args& args, const RunOptions& options) {
    args.finish();
    const Files files{options.workdir + "/fleet.csv",
                      options.workdir + "/truth.bin",
                      options.workdir + "/cleaned.csv"};
    const Clock::time_point generated = Clock::now();
    generate(options.seed, files);
    std::cout << "generator: " << seconds_since(generated) << " s\n";
    std::cout << "fleet_incore: " << kParticipants << "x" << kSlots
              << " in shards of " << kShardSize << " on " << options.workers
              << " workers\n";

    Outcome outcome;
    SpanRecorder untraced_spans(false);
    const double budget =
        options.trace ? options.seconds / 2.0 : options.seconds;
    Pass a = run_pass(files, options.workers, budget, untraced_spans,
                      nullptr);
    score(files, options.f1_floor, a, outcome);
    check_written(files, a, outcome);
    std::cout << "cleans timed: " << a.cleans.cleans() << "\n";
    print_end_to_end("untraced", a.e2e);
    if (!options.trace) {
        return report(outcome, a.e2e, nullptr);
    }
    // Free the untraced result, so that it does not count in the traced
    // pass's peak RSS.
    a.last = mcs::FleetResult{};

    SpanRecorder spans(true);
    mcs::PipelineContext ctx;
    Pass b = run_pass(files, options.workers, budget, spans, &ctx);
    score(files, options.f1_floor, b, outcome);
    print_end_to_end("traced", b.e2e);
    spans.write(options.span_file);

    const double cleans = static_cast<double>(b.cleans.cleans());
    const Instrumentation inst = Instrumentation::of(ctx);
    Layers layers;
    layers.set("trace.read_s",
               spans.total_seconds("read_trace_csv_file") /
                   static_cast<double>(spans.count("read_trace_csv_file")));
    layers.set("trace.write_s",
               spans.total_seconds("write_trace_csv_file") / cleans);
    b.cleans.set_runtime(layers,
                         spans.total_seconds("FleetRunner::run") / cleans,
                         inst.phase("run_itscs") / cleans, options.workers);
    layers.set_pipeline(inst, cleans, kShardSize, kSlots);
    layers.set_overhead(a.e2e, b.e2e);
    return report(outcome, b.e2e, &layers);
}

}  // namespace bench
