#include "harness.hpp"

#include <malloc.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "cs/reconstruct.hpp"
#include "linalg/kernel_tier.hpp"
#include "linalg/kernels.hpp"
#include "metrics/reconstruction_error.hpp"

namespace bench {

double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

double seconds_since(Clock::time_point t0) {
    return seconds_between(t0, Clock::now());
}

bool another_rep(std::size_t reps, double elapsed_s, double budget_s) {
    if (reps == 0) {
        return true;
    }
    const double mean = elapsed_s / static_cast<double>(reps);
    return elapsed_s + mean <= budget_s;
}

// ---- flags ------------------------------------------------------------

Args::Args(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
            throw std::runtime_error("expected --key value, got '" + key +
                                     "'");
        }
        values_[key.substr(2)] = argv[++i];
    }
}

std::string Args::text(const std::string& key) {
    const auto it = values_.find(key);
    if (it == values_.end()) {
        throw std::runtime_error("missing flag --" + key);
    }
    used_[key] = true;
    return it->second;
}

double Args::number(const std::string& key) {
    const std::string value = text(key);
    std::size_t used = 0;
    const double parsed = std::stod(value, &used);
    if (used != value.size() || !std::isfinite(parsed)) {
        throw std::runtime_error("flag --" + key + ": not a number: " +
                                 value);
    }
    return parsed;
}

std::size_t Args::count(const std::string& key) {
    const double value = number(key);
    if (value < 0.0 || value != std::floor(value)) {
        throw std::runtime_error("flag --" + key +
                                 ": not a whole number >= 0");
    }
    return static_cast<std::size_t>(value);
}

void Args::finish() const {
    for (const auto& [key, value] : values_) {
        if (used_.find(key) == used_.end()) {
            throw std::runtime_error("unknown flag --" + key);
        }
    }
}

// ---- spans ------------------------------------------------------------

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), epoch_(Clock::now()) {}

long SpanRecorder::begin(const std::string& name, long request) {
    if (!enabled_) {
        return -1;
    }
    Span span;
    span.name = name;
    span.start_s = seconds_since(epoch_);
    span.parent = open_.empty() ? -1 : open_.back();
    span.request = request;
    spans_.push_back(std::move(span));
    open_.push_back(static_cast<long>(spans_.size() - 1));
    return open_.back();
}

void SpanRecorder::end(long id) {
    if (!enabled_ || id < 0) {
        return;
    }
    spans_[static_cast<std::size_t>(id)].end_s = seconds_since(epoch_);
    if (!open_.empty() && open_.back() == id) {
        open_.pop_back();
    }
}

void SpanRecorder::add(const std::string& name, Clock::time_point start,
                       Clock::time_point end, long request) {
    if (!enabled_) {
        return;
    }
    Span span;
    span.name = name;
    span.start_s = seconds_between(epoch_, start);
    span.end_s = seconds_between(epoch_, end);
    span.parent = open_.empty() ? -1 : open_.back();
    span.request = request;
    spans_.push_back(std::move(span));
}

double SpanRecorder::total_seconds(const std::string& name) const {
    double total = 0.0;
    for (const Span& span : spans_) {
        if (span.name == name) {
            total += span.end_s - span.start_s;
        }
    }
    return total;
}

std::size_t SpanRecorder::count(const std::string& name) const {
    return static_cast<std::size_t>(
        std::count_if(spans_.begin(), spans_.end(),
                      [&](const Span& s) { return s.name == name; }));
}

void SpanRecorder::write(const std::string& path) const {
    if (!enabled_) {
        return;
    }
    std::ofstream out(path);
    out << "{\"traceEvents\": [\n";
    out << std::setprecision(15);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        out << "  {\"name\": \"" << s.name
            << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
            << s.start_s * 1e6 << ", \"dur\": "
            << (s.end_s - s.start_s) * 1e6 << ", \"args\": {\"id\": " << i
            << ", \"parent\": " << s.parent << ", \"request\": "
            << s.request << "}}" << (i + 1 < spans_.size() ? "," : "")
            << "\n";
    }
    out << "]}\n";
    if (!out) {
        throw std::runtime_error("cannot write span file " + path);
    }
}

// ---- memory -----------------------------------------------------------

void reset_peak_rss() {
    malloc_trim(0);
    std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
    if (f == nullptr) {
        throw std::runtime_error(std::string("cannot open clear_refs: ") +
                                 std::strerror(errno));
    }
    const bool ok = std::fputs("5", f) >= 0;
    if (std::fclose(f) != 0 || !ok) {
        throw std::runtime_error("writing 5 to clear_refs failed");
    }
}

double peak_rss_mib() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
        }
    }
    throw std::runtime_error("VmHWM missing from /proc/self/status");
}

// ---- statistics -------------------------------------------------------

double percentile(std::vector<double> samples, double p) {
    if (samples.empty()) {
        throw std::runtime_error("percentile of no samples");
    }
    std::sort(samples.begin(), samples.end());
    const double index = p * static_cast<double>(samples.size() - 1);
    const auto lo = static_cast<std::size_t>(index);
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    const double frac = index - static_cast<double>(lo);
    return samples[lo] * (1.0 - frac) + samples[hi] * frac;
}

double median(std::vector<double> samples) {
    return percentile(std::move(samples), 0.5);
}

// ---- files ------------------------------------------------------------

void write_matrices(std::ofstream& out,
                    std::initializer_list<const mcs::Matrix*> matrices) {
    for (const mcs::Matrix* m : matrices) {
        out.write(reinterpret_cast<const char*>(m->data().data()),
                  static_cast<std::streamsize>(m->size() * sizeof(double)));
    }
    if (!out) {
        throw std::runtime_error("generator: write failed");
    }
}

void read_matrices(std::ifstream& in,
                   std::initializer_list<mcs::Matrix*> matrices) {
    for (mcs::Matrix* m : matrices) {
        in.read(reinterpret_cast<char*>(m->data().data()),
                static_cast<std::streamsize>(m->size() * sizeof(double)));
    }
    if (!in) {
        throw std::runtime_error("generator: read failed");
    }
}

void put_rows(mcs::Matrix& into, const mcs::Matrix& block,
              std::size_t row0) {
    if (block.cols() != into.cols() || row0 + block.rows() > into.rows()) {
        throw std::logic_error("put_rows: block does not fit");
    }
    std::copy(block.data().begin(), block.data().end(),
              into.data().begin() +
                  static_cast<std::ptrdiff_t>(row0 * into.cols()));
}

// ---- scoring ----------------------------------------------------------

void Score::add(const mcs::Matrix& detection, const mcs::Matrix& rx,
                const mcs::Matrix& ry, const mcs::Matrix& truth_x,
                const mcs::Matrix& truth_y, const mcs::Matrix& fault,
                const mcs::Matrix& existence) {
    const mcs::ConfusionCounts c =
        mcs::evaluate_detection(detection, fault, existence);
    counts_.true_positive += c.true_positive;
    counts_.false_positive += c.false_positive;
    counts_.true_negative += c.true_negative;
    counts_.false_negative += c.false_negative;
    // Eq. 29 averages over the reconstructed cells (missing or flagged);
    // pooling blocks weights each block's mean by its cell count.
    std::size_t cells = 0;
    for (std::size_t k = 0; k < existence.size(); ++k) {
        if (existence.data()[k] == 0.0 || detection.data()[k] != 0.0) {
            ++cells;
        }
    }
    if (cells > 0) {
        mae_weighted_ += mcs::reconstruction_mae(truth_x, truth_y, rx, ry,
                                                 existence, detection) *
                         static_cast<double>(cells);
        mae_cells_ += cells;
    }
}

double Score::mae_m() const {
    return mae_cells_ > 0
               ? mae_weighted_ / static_cast<double>(mae_cells_)
               : 0.0;
}

bool all_finite(const mcs::Matrix& m) {
    if (m.size() == 0) {
        return false;
    }
    for (const double v : m.data()) {
        if (!std::isfinite(v)) {
            return false;
        }
    }
    return true;
}

std::uint64_t digest(std::initializer_list<const mcs::Matrix*> matrices) {
    mcs::Fnv1a h;
    for (const mcs::Matrix* m : matrices) {
        h.mix_bytes(m->data().data(), m->size() * sizeof(double));
    }
    return h.digest();
}

// ---- instrumentation --------------------------------------------------

Instrumentation Instrumentation::of(const mcs::PipelineContext& ctx) {
    Instrumentation out;
    for (const mcs::PhaseStat& stat : ctx.phase_stats()) {
        out.phase_seconds[stat.name] = stat.seconds;
    }
    out.counters = ctx.counters();
    return out;
}

Instrumentation Instrumentation::minus(const Instrumentation& before) const {
    Instrumentation out = *this;
    for (auto& [name, seconds] : out.phase_seconds) {
        const auto it = before.phase_seconds.find(name);
        if (it != before.phase_seconds.end()) {
            seconds -= it->second;
        }
    }
    mcs::PipelineCounters& c = out.counters;
    const mcs::PipelineCounters& b = before.counters;
    c.workspace_allocations -= b.workspace_allocations;
    c.gemm_flops -= b.gemm_flops;
    c.flops_multiply -= b.flops_multiply;
    c.flops_multiply_transposed -= b.flops_multiply_transposed;
    c.flops_transpose_multiply -= b.flops_transpose_multiply;
    c.flops_masked_residual -= b.flops_masked_residual;
    c.asd_iterations -= b.asd_iterations;
    c.cs_solves -= b.cs_solves;
    c.itscs_iterations -= b.itscs_iterations;
    c.detect_passes -= b.detect_passes;
    c.shards_degraded -= b.shards_degraded;
    c.shards_stolen -= b.shards_stolen;
    return out;
}

double Instrumentation::phase(const std::string& name) const {
    const auto it = phase_seconds.find(name);
    if (it == phase_seconds.end()) {
        throw std::runtime_error("instrumentation: phase '" + name +
                                 "' was not recorded by the program");
    }
    return it->second;
}

std::uint64_t required(std::uint64_t value, const char* name) {
    if (value == 0) {
        throw std::runtime_error(std::string("instrumentation: counter '") +
                                 name + "' is zero");
    }
    return value;
}

// ---- per-layer metrics ------------------------------------------------

namespace {

const char* const kKernels[] = {"multiply", "multiply_transposed",
                                "transpose_multiply", "masked_residual"};

mcs::Matrix random_matrix(std::size_t rows, std::size_t cols,
                          std::uint64_t seed) {
    mcs::Matrix m(rows, cols);
    mcs::Rng rng(seed);
    for (double& v : m.data()) {
        v = rng.normal();
    }
    return m;
}

// Seconds per call: median of 7 samples of ~10 ms after one warm-up.
double seconds_per_call(const std::function<void()>& fn) {
    const Clock::time_point t0 = Clock::now();
    fn();
    const double once = std::max(seconds_since(t0), 1e-7);
    const std::size_t inner =
        std::min<std::size_t>(static_cast<std::size_t>(0.01 / once) + 1,
                              100000);
    std::vector<double> samples;
    for (int rep = 0; rep <= 7; ++rep) {
        const Clock::time_point start = Clock::now();
        for (std::size_t i = 0; i < inner; ++i) {
            fn();
        }
        if (rep > 0) {
            samples.push_back(seconds_since(start) /
                              static_cast<double>(inner));
        }
    }
    return median(std::move(samples));
}

// GFLOP/s of the four GEMM-shaped `_into` kernels on the fast tier at an
// n x t shard with the recommended factor rank: the ceiling against which
// the ASD loop's own FLOP rate is read.
std::map<std::string, double> kernel_gflops(std::size_t n, std::size_t t) {
    const std::size_t r = mcs::recommended_rank(n, t);
    const mcs::Matrix m = random_matrix(n, t, 11);
    const mcs::Matrix rf = random_matrix(t, r, 13);
    const mcs::Matrix lf = random_matrix(n, r, 17);
    mcs::Matrix mask(n, t);
    mcs::Rng rng(23);
    for (double& v : mask.data()) {
        v = rng.uniform() < 0.8 ? 1.0 : 0.0;
    }
    mcs::Matrix n_by_r(n, r);
    mcs::Matrix n_by_t(n, t);
    mcs::Matrix t_by_r(t, r);
    const double flops = 2.0 * static_cast<double>(n * t * r);
    const mcs::KernelTierScope tier(mcs::KernelTier::kFast);
    const std::function<void()> calls[] = {
        [&] { mcs::multiply_into(n_by_r, m, rf); },
        [&] { mcs::multiply_transposed_into(n_by_t, lf, rf); },
        [&] { mcs::transpose_multiply_into(t_by_r, m, lf); },
        [&] { mcs::masked_residual_into(n_by_t, lf, rf, mask, m); },
    };
    std::map<std::string, double> out;
    for (std::size_t k = 0; k < 4; ++k) {
        out[kKernels[k]] = flops / seconds_per_call(calls[k]) / 1e9;
    }
    return out;
}

}  // namespace

Layers::Layers() {
    const std::pair<const char*, const char*> names[] = {
        {"trace.read_s", "s"},
        {"trace.write_s", "s"},
        {"runtime.run_s", "s"},
        {"runtime.busy_s", "s"},
        {"runtime.idle_frac", "ratio"},
        {"runtime.shards_stolen", "count"},
        {"runtime.shards_degraded", "count"},
        {"persist.ingest_s", "s"},
        {"persist.ingest_mb_per_s", "MiB/s"},
        {"persist.read_outputs_s", "s"},
        {"persist.slab_file_mb", "MiB"},
        {"persist.resident_window_mb", "MiB"},
        {"persist.journal_mb", "MiB"},
        {"serve.replayed_windows", "count"},
        {"serve.eval_cpu_ms_per_window", "ms"},
        {"serve.warm_window_ratio", "ratio"},
        {"serve.generator_lag_ms_max", "ms"},
        {"serve.generator_lag_ms_p90", "ms"},
        {"serve.windows", "count"},
        {"serve.uploads_rejected", "count"},
        {"core.iterations", "count"},
        {"core.detect_s", "s"},
        {"core.correct_s", "s"},
        {"core.check_s", "s"},
        {"core.warm_refine_s", "s"},
        {"detect.ts_detect_s", "s"},
        {"detect.passes", "count"},
        {"cs.init_s", "s"},
        {"cs.asd_s", "s"},
        {"cs.asd_iterations", "count"},
        {"cs.asd_ms_per_iter", "ms"},
        {"cs.solves", "count"},
        {"linalg.gemm_gflop", "GFLOP"},
        {"linalg.gflop.multiply", "GFLOP"},
        {"linalg.gflop.multiply_transposed", "GFLOP"},
        {"linalg.gflop.transpose_multiply", "GFLOP"},
        {"linalg.gflop.masked_residual", "GFLOP"},
        {"linalg.kernel_gflops.multiply", "GFLOP/s"},
        {"linalg.kernel_gflops.multiply_transposed", "GFLOP/s"},
        {"linalg.kernel_gflops.transpose_multiply", "GFLOP/s"},
        {"linalg.kernel_gflops.masked_residual", "GFLOP/s"},
        {"linalg.asd_gflops", "GFLOP/s"},
        {"linalg.asd_gemm_share", "ratio"},
        {"linalg.workspace_allocs", "count"},
        {"overhead.cells_per_s", "ratio"},
        {"overhead.setup_s", "ratio"},
        {"overhead.peak_rss_mb", "ratio"},
        {"overhead.report_latency_p50_ms", "ratio"},
        {"overhead.report_latency_p90_ms", "ratio"},
        {"overhead.f1", "ratio"},
        {"overhead.mae_m", "ratio"},
        {"overhead.success_ratio", "ratio"},
    };
    for (const auto& [name, unit] : names) {
        rows_.push_back({name, unit, 0.0});
    }
}

void Layers::set(const std::string& name, double value) {
    for (Row& row : rows_) {
        if (row.name == name) {
            if (!std::isfinite(value)) {
                throw std::runtime_error("layer metric " + name +
                                         " is not finite");
            }
            row.value = value;
            return;
        }
    }
    throw std::logic_error("unknown layer metric " + name);
}

void Layers::set_pipeline(const Instrumentation& inst, double per,
                          std::size_t shard_rows, std::size_t slots) {
    const mcs::PipelineCounters& c = inst.counters;
    const double correct = inst.phase("correct");
    const double asd_s = inst.phase("asd_minimize") / per;
    const double asd_iterations =
        static_cast<double>(required(c.asd_iterations, "asd_iterations"));
    set("core.iterations",
        static_cast<double>(required(c.itscs_iterations, "itscs_iterations")) /
            per);
    set("core.detect_s", inst.phase("detect") / per);
    set("core.correct_s", correct / per);
    set("core.check_s", inst.phase("check") / per);
    set("core.warm_refine_s",
        (correct - inst.phase("cs_reconstruct")) / per);
    set("detect.ts_detect_s", inst.phase("ts_detect") / per);
    set("detect.passes",
        static_cast<double>(required(c.detect_passes, "detect_passes")) /
            per);
    set("cs.init_s", inst.phase("warm_start") / per);
    set("cs.asd_s", asd_s);
    set("cs.asd_iterations", asd_iterations / per);
    set("cs.asd_ms_per_iter", asd_s * per * 1000.0 / asd_iterations);
    set("cs.solves",
        static_cast<double>(required(c.cs_solves, "cs_solves")) / per);
    set("linalg.workspace_allocs",
        static_cast<double>(c.workspace_allocations) / per);

    // A kernel the solve does not call has a zero split (the temporal
    // objective never calls masked_residual); only the total must move.
    const std::uint64_t flops[] = {c.flops_multiply,
                                   c.flops_multiply_transposed,
                                   c.flops_transpose_multiply,
                                   c.flops_masked_residual};
    const double gemm_gflop =
        static_cast<double>(required(c.gemm_flops, "gemm_flops")) / 1e9 /
        per;
    set("linalg.gemm_gflop", gemm_gflop);
    const std::map<std::string, double> ceiling =
        kernel_gflops(shard_rows, slots);
    double explained_s = 0.0;
    for (std::size_t k = 0; k < 4; ++k) {
        const double gflop = static_cast<double>(flops[k]) / 1e9 / per;
        set(std::string("linalg.gflop.") + kKernels[k], gflop);
        set(std::string("linalg.kernel_gflops.") + kKernels[k],
            ceiling.at(kKernels[k]));
        explained_s += gflop / ceiling.at(kKernels[k]);
    }
    set("linalg.asd_gflops", gemm_gflop / asd_s);
    set("linalg.asd_gemm_share", explained_s / asd_s);
}

void Layers::set_overhead(const EndToEnd& untraced, const EndToEnd& traced) {
    // Share by which tracing makes each metric worse (negative = better).
    const auto worse_lower = [](double base, double with) {
        return base != 0.0 ? (with - base) / base : 0.0;
    };
    const auto worse_higher = [](double base, double with) {
        return base != 0.0 ? (base - with) / base : 0.0;
    };
    set("overhead.cells_per_s",
        worse_higher(untraced.cells_per_s, traced.cells_per_s));
    set("overhead.setup_s", worse_lower(untraced.setup_s, traced.setup_s));
    set("overhead.peak_rss_mb",
        worse_lower(untraced.peak_rss_mb, traced.peak_rss_mb));
    set("overhead.report_latency_p50_ms",
        worse_lower(untraced.latency_p50_ms, traced.latency_p50_ms));
    set("overhead.report_latency_p90_ms",
        worse_lower(untraced.latency_p90_ms, traced.latency_p90_ms));
    set("overhead.f1", worse_higher(untraced.f1, traced.f1));
    set("overhead.mae_m", worse_lower(untraced.mae_m, traced.mae_m));
    set("overhead.success_ratio",
        worse_higher(untraced.success_ratio, traced.success_ratio));
}

// ---- result -----------------------------------------------------------

void Outcome::check(bool ok, const std::string& what) {
    if (!ok) {
        problems.push_back(what);
    }
}

void Outcome::check_f1(double f1, double floor) {
    check(f1 >= floor, "F1 " + std::to_string(f1) + " below the floor " +
                           std::to_string(floor));
}

void FleetPass::add(double seconds, const mcs::FleetResult& result,
                    std::uint64_t output_digest) {
    if (clean_s_.empty()) {
        first_digest_ = output_digest;
    }
    identical_ = identical_ && output_digest == first_digest_;
    clean_s_.push_back(seconds);
    for (const mcs::ShardRunReport& shard : result.shards) {
        ++shards_;
        if (shard.level == mcs::DegradationLevel::kNominal) {
            ++nominal_;
        }
    }
    stolen_ += result.steals.stolen_items;
}

double FleetPass::seconds() const {
    double total = 0.0;
    for (const double s : clean_s_) {
        total += s;
    }
    return total;
}

EndToEnd FleetPass::end_to_end(std::size_t cells,
                               const std::vector<double>& setup_s) const {
    EndToEnd e;
    e.setup_s = median(setup_s);
    // From the median clean, so that one clean in a slow stretch of the
    // host does not move the run's figure.
    e.cells_per_s = static_cast<double>(cells) / median(clean_s_);
    std::vector<double> ms = clean_s_;
    for (double& s : ms) {
        s *= 1000.0;
    }
    e.latency_p50_ms = percentile(ms, 0.5);
    e.latency_p90_ms = percentile(ms, 0.9);
    e.success_ratio =
        static_cast<double>(nominal_) / static_cast<double>(shards_);
    return e;
}

void FleetPass::check(Outcome& outcome) const {
    outcome.check(identical_, "repeated cleans are not bit-identical");
    outcome.check(nominal_ == shards_,
                  "a shard finished below the nominal rung");
    outcome.attempted += shards_;
    outcome.failed += shards_ - nominal_;
}

void FleetPass::set_runtime(Layers& layers, double run_s, double busy_s,
                            std::size_t workers) const {
    const double n = static_cast<double>(cleans());
    layers.set("runtime.run_s", run_s);
    layers.set("runtime.busy_s", busy_s);
    layers.set("runtime.idle_frac",
               1.0 - busy_s / (run_s * static_cast<double>(workers)));
    layers.set("runtime.shards_stolen", static_cast<double>(stolen_) / n);
    layers.set("runtime.shards_degraded",
               static_cast<double>(shards_ - nominal_) / n);
}

namespace {

struct Printed {
    const char* name;
    const char* unit;
    double value;
};

std::vector<Printed> end_to_end_rows(const EndToEnd& e) {
    return {{"cells_per_s", "1/s", e.cells_per_s},
            {"setup_s", "s", e.setup_s},
            {"peak_rss_mb", "MiB", e.peak_rss_mb},
            {"report_latency_p50_ms", "ms", e.latency_p50_ms},
            {"report_latency_p90_ms", "ms", e.latency_p90_ms},
            {"f1", "ratio", e.f1},
            {"mae_m", "m", e.mae_m},
            {"success_ratio", "ratio", e.success_ratio}};
}

}  // namespace

void print_end_to_end(const char* label, const EndToEnd& e2e) {
    for (const Printed& row : end_to_end_rows(e2e)) {
        std::cout << label << " " << row.name << " = "
                  << std::setprecision(10) << row.value << " " << row.unit
                  << "\n";
    }
}

int report(const Outcome& outcome, const EndToEnd& e2e,
           const Layers* layers) {
    for (const std::string& problem : outcome.problems) {
        std::cout << "FAILED CHECK: " << problem << "\n";
    }
    // A failed output check fails the run even when every operation
    // completed, so it counts at least one failure.
    const std::size_t failed =
        outcome.problems.empty() ? outcome.failed
                                 : std::max<std::size_t>(outcome.failed, 1);
    std::ostringstream line;
    line << std::setprecision(17);
    line << "RESULT {\"correct\": "
         << (outcome.correct() ? "true" : "false")
         << ", \"attempted\": " << outcome.attempted
         << ", \"failed\": " << failed << ", \"metrics\": {";
    bool first = true;
    const auto emit = [&](const std::string& name, const std::string& unit,
                          double value) {
        if (!std::isfinite(value)) {
            throw std::runtime_error("metric " + name + " is not finite");
        }
        line << (first ? "" : ", ") << "\"" << name
             << "\": {\"value\": " << value << ", \"unit\": \"" << unit
             << "\"}";
        first = false;
    };
    if (layers == nullptr) {
        for (const Printed& row : end_to_end_rows(e2e)) {
            emit(row.name, row.unit, row.value);
        }
    } else {
        for (const Layers::Row& row : layers->rows()) {
            std::cout << "layer " << row.name << " = "
                      << std::setprecision(10) << row.value << " "
                      << row.unit << "\n";
            emit(row.name, row.unit, row.value);
        }
    }
    line << "}}";
    std::cout << line.str() << std::endl;
    return outcome.correct() ? 0 : 1;
}

}  // namespace bench
