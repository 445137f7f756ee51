// Shared machinery of the end-to-end benchmark: flag parsing,
// spans, peak-RSS control, percentiles, scoring against the generator's
// ground truth, per-layer metrics read from the program's PipelineContext,
// kernel timings, and the result line.
//
// Everything here sits outside the program: the workloads call only the
// library's public API, and the timers below wrap those calls.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

#include "common/context.hpp"
#include "linalg/matrix.hpp"
#include "metrics/confusion.hpp"
#include "runtime/fleet_runner.hpp"

namespace bench {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b);
double seconds_since(Clock::time_point t0);

/// Whether to time another repetition: always a first one, then more
/// while the next, at the mean pace so far, still ends inside the budget.
bool another_rep(std::size_t reps, double elapsed_s, double budget_s);

/// `--key value` flags. Every flag a workload reads must be present, and
/// a flag nobody read is an error (finish()), so a misspelt flag fails
/// the run instead of being ignored.
class Args {
public:
    Args(int argc, char** argv);
    std::string text(const std::string& key);
    double number(const std::string& key);
    std::size_t count(const std::string& key);
    void finish() const;

private:
    std::map<std::string, std::string> values_;
    std::map<std::string, bool> used_;
};

/// Flags shared by every workload, as BENCHMARK.json's command gets them.
struct RunOptions {
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string workdir;    ///< scratch files of this run
    std::string span_file;  ///< where the traced run writes its spans
    std::size_t workers = 0;  ///< shard workers, fitted to the CPU count
    double f1_floor = 0.0;    ///< detection F1 below this fails the run
};

/// Spans recorded from the benchmark's own files around each public call
/// it makes into the program. Kept in memory; written once at exit as
/// Chrome trace-event JSON. A disabled recorder records nothing.
class SpanRecorder {
public:
    struct Span {
        std::string name;
        double start_s = 0.0;  ///< relative to the recorder's epoch
        double end_s = 0.0;
        long parent = -1;      ///< index of the enclosing span, -1 at top
        long request = -1;     ///< rep index (fleets) or window (serve)
    };

    explicit SpanRecorder(bool enabled);

    long begin(const std::string& name, long request = -1);
    void end(long id);
    /// A span whose interval was measured elsewhere (window latency).
    void add(const std::string& name, Clock::time_point start,
             Clock::time_point end, long request);

    /// Sum and count of the durations of every span called `name`.
    double total_seconds(const std::string& name) const;
    std::size_t count(const std::string& name) const;

    void write(const std::string& path) const;

    class Scope {
    public:
        Scope(SpanRecorder& recorder, const std::string& name,
              long request = -1)
            : recorder_(recorder), id_(recorder.begin(name, request)) {}
        ~Scope() { recorder_.end(id_); }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

    private:
        SpanRecorder& recorder_;
        long id_;
    };

private:
    bool enabled_;
    Clock::time_point epoch_;
    std::vector<Span> spans_;
    std::vector<long> open_;
};

/// Return freed heap to the OS, then restart the kernel's high-water mark
/// (VmHWM) at the current RSS by writing 5 to /proc/self/clear_refs.
/// Throws when the kernel refuses, so a run never reports a stale peak.
void reset_peak_rss();
/// VmHWM in MiB.
double peak_rss_mib();

constexpr double kMiB = 1024.0 * 1024.0;

/// Linear-interpolated percentile, p in [0, 1]; the input must be
/// non-empty.
double percentile(std::vector<double> samples, double p);
double median(std::vector<double> samples);

/// Raw row-major doubles of several matrices, for the generator's files.
void write_matrices(std::ofstream& out,
                    std::initializer_list<const mcs::Matrix*> matrices);
void read_matrices(std::ifstream& in,
                   std::initializer_list<mcs::Matrix*> matrices);
/// Copy `block` into the rows of `into` that start at `row0`.
void put_rows(mcs::Matrix& into, const mcs::Matrix& block, std::size_t row0);

/// Detection F1 over observed cells and the paper's Eq. 29 MAE, pooled
/// over any number of blocks (shards, windows) of one fleet.
class Score {
public:
    /// Score one block. `truth_*`, `fault` and `existence` are the
    /// generator's matrices for exactly the block's cells.
    void add(const mcs::Matrix& detection, const mcs::Matrix& rx,
             const mcs::Matrix& ry, const mcs::Matrix& truth_x,
             const mcs::Matrix& truth_y, const mcs::Matrix& fault,
             const mcs::Matrix& existence);

    double f1() const { return counts_.f1(); }
    double mae_m() const;

private:
    mcs::ConfusionCounts counts_;
    double mae_weighted_ = 0.0;
    std::size_t mae_cells_ = 0;
};

/// True when the matrix is non-empty and every element is finite.
bool all_finite(const mcs::Matrix& m);

/// FNV-1a over the bytes of several matrices; used to check that
/// repeated cleans are bit-identical.
std::uint64_t digest(std::initializer_list<const mcs::Matrix*> matrices);

/// Phase seconds and counters of a PipelineContext, with subtraction so a
/// daemon's live stream can be separated from its journal replay. minus()
/// subtracts every phase but only the counters the layer metrics read.
struct Instrumentation {
    std::map<std::string, double> phase_seconds;
    mcs::PipelineCounters counters;

    static Instrumentation of(const mcs::PipelineContext& ctx);
    Instrumentation minus(const Instrumentation& before) const;

    /// Seconds of a phase the program must have recorded. Throws when
    /// the phase is absent, so a renamed or removed timer shows up as a
    /// benchmark failure instead of a silent zero.
    double phase(const std::string& name) const;
};

/// A counter the program must have incremented: throws when zero.
std::uint64_t required(std::uint64_t value, const char* name);

/// The end-to-end metrics every workload reports.
struct EndToEnd {
    double cells_per_s = 0.0;
    double setup_s = 0.0;
    double peak_rss_mb = 0.0;
    double latency_p50_ms = 0.0;
    double latency_p90_ms = 0.0;
    double f1 = 0.0;
    double mae_m = 0.0;
    double success_ratio = 0.0;
};

/// Names and units of the per-layer metrics, in BENCHMARK.json order.
/// Every traced run prints every one of them; a workload that does not
/// run a layer (or cannot see it) leaves it at 0.
class Layers {
public:
    Layers();
    void set(const std::string& name, double value);

    /// Fill the core/detect/cs/linalg rows from `inst`, divided by
    /// `per` (cleans per pass for the fleets, 1 for serve), plus the
    /// kernel ceilings timed at the workload's shard shape.
    void set_pipeline(const Instrumentation& inst, double per,
                      std::size_t shard_rows, std::size_t slots);

    /// Relative change traced vs untraced of each end-to-end metric.
    void set_overhead(const EndToEnd& untraced, const EndToEnd& traced);

    struct Row {
        std::string name;
        std::string unit;
        double value = 0.0;
    };
    const std::vector<Row>& rows() const { return rows_; }

private:
    std::vector<Row> rows_;
};

/// The outcome of one invocation: counts, checks and the metrics printed
/// as the final `RESULT {...}` line, which run.py checks and re-prints.
struct Outcome {
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<std::string> problems;  ///< failed output checks

    void check(bool ok, const std::string& what);
    void check_f1(double f1, double floor);
    bool correct() const { return problems.empty() && failed == 0; }
};

/// The timed cleans of one pass of a fleet workload.
class FleetPass {
public:
    /// Record one clean: its wall seconds, its shard reports, and the
    /// digest of its output, which must match the first clean's.
    void add(double seconds, const mcs::FleetResult& result,
             std::uint64_t output_digest);

    std::size_t cleans() const { return clean_s_.size(); }
    double seconds() const;

    /// cells_per_s (of the median clean), setup_s, the per-clean latency
    /// percentiles and success_ratio. `cells` is participants x slots.
    EndToEnd end_to_end(std::size_t cells,
                        const std::vector<double>& setup_s) const;
    /// Shard rungs and clean-to-clean identity, as output checks.
    void check(Outcome& outcome) const;
    /// The runtime.* rows of a traced pass, per clean.
    void set_runtime(Layers& layers, double run_s, double busy_s,
                     std::size_t workers) const;

private:
    std::vector<double> clean_s_;
    std::size_t shards_ = 0;   // shard solves attempted
    std::size_t nominal_ = 0;  // ... that finished at the nominal rung
    std::size_t stolen_ = 0;   // ... that a thief worker ran
    std::uint64_t first_digest_ = 0;
    bool identical_ = true;
};

/// Print `name value unit` lines for a human, then the RESULT line.
/// Returns the process exit code: 0, or 1 when an output check failed.
int report(const Outcome& outcome, const EndToEnd& e2e,
           const Layers* layers);

void print_end_to_end(const char* label, const EndToEnd& e2e);

}  // namespace bench
