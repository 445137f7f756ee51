// fleet_streamed: out-of-core clean through the mmap slab store.
//
// The generator writes the fleet as fixed-size blocks (one per shard) to
// a feed file. Set-up creates a SlabStore and ingests every block with
// write_inputs + evict; only those calls are timed, not the feed reads.
// The timed phase is FleetRunner::run_streamed under a memory budget.
// Set-ups and cleans alternate while the time budget allows. Outputs are
// read back with read_outputs and scored shard by shard, as the scale
// sweep does.
#include <iostream>
#include <memory>

#include "common/hash.hpp"
#include "corruption/scenario.hpp"
#include "runtime/fleet_runner.hpp"
#include "trace/simulator.hpp"
#include "workloads.hpp"

namespace bench {
namespace {

// 12000x48 in six shards of 2000 rows under a 64 MiB budget, with
// alpha = beta = 0.2 faults. The ROADMAP's 100k x 48 would take well over
// a minute per clean; six shards on three workers give two even rounds.
constexpr std::size_t kParticipants = 12000;
constexpr std::size_t kSlots = 48;
constexpr std::size_t kShardSize = 2000;
constexpr std::size_t kMemoryBudgetMb = 64;
constexpr double kAlpha = 0.2;
constexpr double kBeta = 0.2;
// Ingests timed before each clean: one takes about 15 ms, so a single
// one is too short to time steadily, and spreading them over the run
// keeps their median off any one slow stretch of the host.
constexpr std::size_t kSetupsPerClean = 8;

struct Files {
    std::string feed;   // per block: S_X, S_Y, Vx, Vy, existence
    std::string truth;  // per block: x, y, fault, existence
    std::string slabs;  // the store's directory
};

struct Pass {
    EndToEnd e2e;
    FleetPass cleans;
    std::vector<double> setup_s;
};

mcs::RuntimeConfig runtime_of(std::size_t workers) {
    mcs::RuntimeConfig runtime;
    runtime.threads = workers;
    runtime.shard_size = kShardSize;
    runtime.remainder = mcs::ShardRemainder::kTail;
    runtime.kernel_tier = mcs::KernelTier::kFast;
    runtime.memory_budget_mb = kMemoryBudgetMb;
    return runtime;
}

// One block at a time, so the generator never holds the fleet.
void generate(const mcs::ShardPlan& plan, std::uint64_t seed,
              const Files& files) {
    std::ofstream feed(files.feed, std::ios::binary);
    std::ofstream truth(files.truth, std::ios::binary);
    for (const mcs::Shard& shard : plan.shards()) {
        const mcs::TraceDataset t = mcs::make_small_dataset(
            seed * 1000003 + 1009 * shard.index + 7, shard.size(), kSlots);
        mcs::CorruptionConfig corruption;
        corruption.missing_ratio = kAlpha;
        corruption.fault_ratio = kBeta;
        corruption.seed = seed * 1000003 + 2003 * shard.index + 13;
        const mcs::CorruptedDataset d = mcs::corrupt(t, corruption);
        write_matrices(feed, {&d.sx, &d.sy, &d.vx, &d.vy, &d.existence});
        write_matrices(truth, {&t.x, &t.y, &d.fault, &d.existence});
    }
}

mcs::SlabGeometry geometry_of(const mcs::ShardPlan& plan,
                              std::vector<mcs::SlabShardInfo>& infos) {
    mcs::SlabGeometry geometry;
    geometry.participants = plan.rows();
    geometry.slots = kSlots;
    geometry.shard_count = plan.count();
    geometry.tier = mcs::StorageTier::kF64;
    geometry.tau_s = 30.0;
    geometry.planner_mode = static_cast<std::uint32_t>(plan.mode());
    geometry.plan_fingerprint = plan.fingerprint();
    infos.clear();
    for (const mcs::Shard& shard : plan.shards()) {
        geometry.max_shard_rows =
            std::max(geometry.max_shard_rows, shard.size());
        mcs::SlabShardInfo info;
        info.begin = shard.begin;
        info.end = shard.end;
        infos.push_back(info);
    }
    return geometry;
}

// One set-up: a new store, every block ingested. Returns the seconds of
// the program's calls; the feed reads into `staging` are not timed.
double ingest(const Files& files, const mcs::ShardPlan& plan,
              const mcs::SlabGeometry& geometry,
              const std::vector<mcs::SlabShardInfo>& infos,
              std::unique_ptr<mcs::SlabStore>& store, SpanRecorder& spans,
              long setup) {
    std::vector<mcs::Matrix> staging(
        mcs::kSlabInputMatrices, mcs::Matrix(geometry.max_shard_rows, kSlots));
    const SpanRecorder::Scope scope(spans, "setup", setup);
    std::ifstream feed(files.feed, std::ios::binary);
    store.reset();
    double seconds = 0.0;
    Clock::time_point t0 = Clock::now();
    {
        const SpanRecorder::Scope call(spans, "SlabStore");
        store = std::make_unique<mcs::SlabStore>(files.slabs, geometry, infos);
    }
    seconds += seconds_since(t0);
    for (const mcs::Shard& shard : plan.shards()) {
        const double* mats[mcs::kSlabInputMatrices] = {};
        for (std::size_t m = 0; m < mcs::kSlabInputMatrices; ++m) {
            if (staging[m].rows() != shard.size()) {
                staging[m] = mcs::Matrix(shard.size(), kSlots);
            }
            mats[m] = staging[m].data().data();
        }
        read_matrices(feed, {&staging[0], &staging[1], &staging[2],
                             &staging[3], &staging[4]});
        t0 = Clock::now();
        {
            const SpanRecorder::Scope call(spans, "write_inputs", setup);
            store->write_inputs(shard.index, mats);
        }
        {
            const SpanRecorder::Scope call(spans, "evict", setup);
            store->evict(shard.index);
        }
        seconds += seconds_since(t0);
    }
    return seconds;
}

Pass run_pass(const Files& files, mcs::FleetRunner& runner,
              std::unique_ptr<mcs::SlabStore>& store, double budget_s,
              SpanRecorder& spans, mcs::PipelineContext* ctx) {
    const mcs::ShardPlan plan = runner.plan_for(kParticipants);
    std::vector<mcs::SlabShardInfo> infos;
    const mcs::SlabGeometry geometry = geometry_of(plan, infos);
    const mcs::ItscsConfig config;

    Pass pass;
    store.reset();
    reset_peak_rss();
    while (another_rep(pass.cleans.cleans(), pass.cleans.seconds(),
                       budget_s)) {
        for (std::size_t k = 0; k < kSetupsPerClean; ++k) {
            pass.setup_s.push_back(
                ingest(files, plan, geometry, infos, store, spans,
                       static_cast<long>(pass.setup_s.size())));
        }

        const long rep = static_cast<long>(pass.cleans.cleans());
        const SpanRecorder::Scope scope(spans, "clean", rep);
        const Clock::time_point t0 = Clock::now();
        mcs::FleetResult result;
        {
            const SpanRecorder::Scope call(spans, "FleetRunner::run_streamed",
                                           rep);
            result = runner.run_streamed(*store, config, ctx);
        }
        const double seconds = seconds_since(t0);
        mcs::Fnv1a crcs;
        for (std::size_t s = 0; s < plan.count(); ++s) {
            const std::uint32_t crc = store->output_crc(s);
            crcs.mix_bytes(&crc, sizeof(crc));
            store->evict(s);
        }
        pass.cleans.add(seconds, result, crcs.digest());
    }
    const double peak = peak_rss_mib();
    pass.e2e = pass.cleans.end_to_end(kParticipants * kSlots, pass.setup_s);
    pass.e2e.peak_rss_mb = peak;
    return pass;
}

void score(const Files& files, double f1_floor, mcs::SlabStore& store,
           Pass& pass, SpanRecorder& spans, Outcome& outcome) {
    std::ifstream truth(files.truth, std::ios::binary);
    Score s;
    bool finite = true;
    for (std::size_t k = 0; k < store.shards().size(); ++k) {
        const std::size_t rows = store.shards()[k].size();
        mcs::Matrix det(rows, kSlots);
        mcs::Matrix rx(rows, kSlots);
        mcs::Matrix ry(rows, kSlots);
        double* mats[mcs::kSlabOutputMatrices] = {
            det.data().data(), rx.data().data(), ry.data().data()};
        {
            const SpanRecorder::Scope call(spans, "read_outputs",
                                           static_cast<long>(k));
            store.read_outputs(k, mats);
        }
        store.evict(k);
        mcs::Matrix tx(rows, kSlots);
        mcs::Matrix ty(rows, kSlots);
        mcs::Matrix fault(rows, kSlots);
        mcs::Matrix existence(rows, kSlots);
        read_matrices(truth, {&tx, &ty, &fault, &existence});
        finite = finite && all_finite(det) && all_finite(rx) &&
                 all_finite(ry);
        s.add(det, rx, ry, tx, ty, fault, existence);
    }
    pass.e2e.f1 = s.f1();
    pass.e2e.mae_m = s.mae_m();
    outcome.check(finite, "empty or non-finite output slab");
    pass.cleans.check(outcome);
    outcome.check_f1(pass.e2e.f1, f1_floor);
}

}  // namespace

int run_fleet_streamed(Args& args, const RunOptions& options) {
    args.finish();
    const Files files{options.workdir + "/feed.bin",
                      options.workdir + "/truth.bin",
                      options.workdir + "/slabs"};
    mcs::FleetRunner runner(runtime_of(options.workers));
    const mcs::ShardPlan plan = runner.plan_for(kParticipants);
    const Clock::time_point generated = Clock::now();
    generate(plan, options.seed, files);
    std::cout << "generator: " << seconds_since(generated) << " s\n";
    std::cout << "fleet_streamed: " << kParticipants << "x" << kSlots
              << " in " << plan.count() << " shards on " << options.workers
              << " workers, budget " << kMemoryBudgetMb << " MiB\n";

    Outcome outcome;
    std::unique_ptr<mcs::SlabStore> store;
    SpanRecorder untraced_spans(false);
    const double budget =
        options.trace ? options.seconds / 2.0 : options.seconds;
    Pass a = run_pass(files, runner, store, budget, untraced_spans, nullptr);
    score(files, options.f1_floor, *store, a, untraced_spans, outcome);
    std::cout << "cleans timed: " << a.cleans.cleans() << "\n";
    print_end_to_end("untraced", a.e2e);
    if (!options.trace) {
        return report(outcome, a.e2e, nullptr);
    }

    SpanRecorder spans(true);
    mcs::PipelineContext ctx;
    Pass b = run_pass(files, runner, store, budget, spans, &ctx);
    score(files, options.f1_floor, *store, b, spans, outcome);
    print_end_to_end("traced", b.e2e);
    spans.write(options.span_file);

    const double cleans = static_cast<double>(b.cleans.cleans());
    const double setups = static_cast<double>(b.setup_s.size());
    const Instrumentation inst = Instrumentation::of(ctx);
    const mcs::SlabGeometry& geometry = store->geometry();
    Layers layers;
    const double ingest_s = (spans.total_seconds("SlabStore") +
                             spans.total_seconds("write_inputs") +
                             spans.total_seconds("evict")) /
                            setups;
    double input_bytes = 0.0;
    for (const mcs::SlabShardInfo& shard : store->shards()) {
        input_bytes += static_cast<double>(geometry.input_bytes(shard.size()));
    }
    layers.set("persist.ingest_s", ingest_s);
    layers.set("persist.ingest_mb_per_s", input_bytes / kMiB / ingest_s);
    layers.set("persist.read_outputs_s", spans.total_seconds("read_outputs"));
    layers.set("persist.slab_file_mb",
               static_cast<double>(geometry.file_size()) / kMiB);
    layers.set("persist.resident_window_mb",
               static_cast<double>(runner.resident_window_bytes(geometry)) /
                   kMiB);
    b.cleans.set_runtime(
        layers, spans.total_seconds("FleetRunner::run_streamed") / cleans,
        inst.phase("run_itscs") / cleans, options.workers);
    layers.set_pipeline(inst, cleans, kShardSize, kSlots);
    layers.set_overhead(a.e2e, b.e2e);
    return report(outcome, b.e2e, &layers);
}

}  // namespace bench
