// Tests for the mcs::runtime subsystem: ThreadPool (torture: exceptions,
// nesting, shutdown), ShardPlan partitioning, PipelineContext::merge,
// Workspace::clear, and — the core contract — FleetRunner determinism: shard-parallel output is bit-identical to
// sequential per-shard execution at any thread count.
//
// This binary is also the TSan workload (see the `tsan` CMake preset):
// every concurrency primitive of the runtime layer is exercised here.
#include "runtime/fleet_runner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "corruption/adversary.hpp"
#include "corruption/scenario.hpp"
#include "linalg/kernel_tier.hpp"
#include "eval/methods.hpp"
#include "runtime/shard_plan.hpp"
#include "runtime/thread_pool.hpp"
#include "trace/simulator.hpp"

namespace mcs {
namespace {

bool bitwise_equal(const Matrix& a, const Matrix& b) {
    const auto da = a.data();
    const auto db = b.data();
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::equal(da.begin(), da.end(), db.begin());
}

// ---- ShardPlan ---------------------------------------------------------

void expect_cover(const ShardPlan& plan) {
    std::size_t expected_begin = 0;
    for (const Shard& shard : plan.shards()) {
        EXPECT_EQ(shard.begin, expected_begin);
        EXPECT_LT(shard.begin, shard.end);
        expected_begin = shard.end;
    }
    EXPECT_EQ(expected_begin, plan.rows());
}

TEST(ShardPlan, BySizeSpreadBalancesWithinOneRow) {
    const ShardPlan plan = ShardPlan::by_size(100, 30);
    EXPECT_EQ(plan.count(), 4u);  // ceil(100/30)
    expect_cover(plan);
    std::size_t lo = 100, hi = 0;
    for (const Shard& shard : plan.shards()) {
        lo = std::min(lo, shard.size());
        hi = std::max(hi, shard.size());
    }
    EXPECT_LE(hi - lo, 1u);
}

TEST(ShardPlan, BySizeTailKeepsNominalSize) {
    const ShardPlan plan =
        ShardPlan::by_size(100, 30, ShardRemainder::kTail);
    EXPECT_EQ(plan.count(), 4u);
    expect_cover(plan);
    EXPECT_EQ(plan.shards()[0].size(), 30u);
    EXPECT_EQ(plan.shards()[2].size(), 30u);
    EXPECT_EQ(plan.shards()[3].size(), 10u);  // the short tail
}

TEST(ShardPlan, ByCountClampsToRows) {
    const ShardPlan plan = ShardPlan::by_count(3, 8);
    EXPECT_EQ(plan.count(), 3u);  // no empty shards
    expect_cover(plan);
}

TEST(ShardPlan, ExactDivisionIsPolicyIndependent) {
    const ShardPlan spread = ShardPlan::by_size(120, 30);
    const ShardPlan tail =
        ShardPlan::by_size(120, 30, ShardRemainder::kTail);
    ASSERT_EQ(spread.count(), tail.count());
    for (std::size_t k = 0; k < spread.count(); ++k) {
        EXPECT_EQ(spread.shards()[k].begin, tail.shards()[k].begin);
        EXPECT_EQ(spread.shards()[k].end, tail.shards()[k].end);
    }
}

TEST(ShardPlan, RejectsDegenerateInputs) {
    EXPECT_THROW(ShardPlan::by_size(0, 4), Error);
    EXPECT_THROW(ShardPlan::by_size(10, 0), Error);
    EXPECT_THROW(ShardPlan::by_count(10, 0), Error);
    EXPECT_THROW(ShardPlan::whole(0), Error);
}

// ---- ThreadPool --------------------------------------------------------

TEST(ThreadPool, ShutdownRunsAllQueuedWork) {
    std::atomic<int> executed{0};
    {
        ThreadPool pool(ThreadPool::Options{2, 256});
        for (int k = 0; k < 100; ++k) {
            pool.submit([&executed] {
                executed.fetch_add(1, std::memory_order_relaxed);
            });
        }
        // Destructor: graceful shutdown with (most of) the queue pending.
    }
    EXPECT_EQ(executed.load(), 100);
}

TEST(ThreadPool, SubmittedTaskExceptionSurfacesViaTakeError) {
    ThreadPool pool(2);
    pool.submit([] { throw Error("task failed"); });
    EXPECT_THROW(pool.wait_idle(), Error);
    EXPECT_EQ(pool.take_error(), nullptr);  // consumed by wait_idle
}

TEST(ThreadPool, TakeErrorsCollectsEveryLabeledFailure) {
    ThreadPool pool(2);
    for (int k = 0; k < 3; ++k) {
        pool.submit([k] { throw Error("task " + std::to_string(k)); },
                    "shard " + std::to_string(k));
    }
    pool.submit([] {});  // a healthy task must not register
    try {
        pool.wait_idle();
    } catch (const Error&) {
        // wait_idle re-throws the first failure but also cleared the set;
        // take_errors() after a drain is empty.
    }
    EXPECT_TRUE(pool.take_errors().empty());

    for (int k = 0; k < 3; ++k) {
        pool.submit([k] { throw Error("task " + std::to_string(k)); },
                    "shard " + std::to_string(k));
    }
    // Drain without wait_idle's rethrow: spin until the pool went idle.
    std::vector<ThreadPool::TaskError> errors;
    for (;;) {
        auto batch = pool.take_errors();
        errors.insert(errors.end(), batch.begin(), batch.end());
        if (errors.size() == 3) {
            break;
        }
        std::this_thread::yield();
    }
    std::vector<std::string> labels;
    for (const ThreadPool::TaskError& error : errors) {
        ASSERT_NE(error.error, nullptr);
        labels.push_back(error.label);
        EXPECT_THROW(std::rethrow_exception(error.error), Error);
    }
    std::sort(labels.begin(), labels.end());
    EXPECT_EQ(labels,
              (std::vector<std::string>{"shard 0", "shard 1", "shard 2"}));
    EXPECT_EQ(pool.take_error(), nullptr);
}

TEST(ThreadPool, TakeErrorReturnsFirstAndClearsAll) {
    ThreadPool pool(1);  // one worker: completion order == submission order
    pool.submit([] { throw Error("first"); }, "a");
    pool.submit([] { throw Error("second"); }, "b");
    try {
        pool.wait_idle();
        FAIL() << "wait_idle should have re-thrown";
    } catch (const Error& e) {
        EXPECT_STREQ(e.what(), "first");
    }
    EXPECT_EQ(pool.take_error(), nullptr);
    EXPECT_TRUE(pool.take_errors().empty());
}

TEST(ThreadPool, BoundedQueueBlocksProducerWithoutDeadlock) {
    // Capacity 2 with slow-ish tasks: submit() must block (not throw, not
    // drop) and everything still runs.
    ThreadPool pool(ThreadPool::Options{2, 2});
    std::atomic<int> executed{0};
    for (int k = 0; k < 50; ++k) {
        pool.submit([&executed] {
            executed.fetch_add(1, std::memory_order_relaxed);
        });
    }
    pool.wait_idle();
    EXPECT_EQ(executed.load(), 50);
}

TEST(ThreadPool, WorkerIndexIsStableAndBounded) {
    ThreadPool pool(3);
    EXPECT_EQ(ThreadPool::worker_index(), static_cast<std::size_t>(-1));
    std::vector<std::atomic<int>> index_seen(3);
    std::mutex mutex;
    std::map<std::thread::id, std::size_t> index_of_thread;
    bool stable = true;
    for (int k = 0; k < 64; ++k) {
        pool.submit([&] {
            const std::size_t index = ThreadPool::worker_index();
            ASSERT_LT(index, 3u);
            index_seen[index].fetch_add(1, std::memory_order_relaxed);
            std::lock_guard<std::mutex> lock(mutex);
            const auto [it, fresh] =
                index_of_thread.emplace(std::this_thread::get_id(), index);
            stable = stable && (fresh || it->second == index);
        });
    }
    pool.wait_idle();
    int total = 0;
    for (auto& count : index_seen) {
        total += count.load();
    }
    EXPECT_EQ(total, 64);
    EXPECT_TRUE(stable);
    EXPECT_EQ(ThreadPool::worker_index(), static_cast<std::size_t>(-1));
}

// ---- PipelineContext::merge -------------------------------------------

TEST(ContextMerge, SumsCountersAndFoldsPhases) {
    PipelineContext a(1);
    PipelineContext b(2);
    a.counters().gemm_flops = 100;
    a.counters().asd_iterations = 3;
    b.counters().gemm_flops = 50;
    b.counters().cs_solves = 7;
    a.phase_begin("detect");
    a.phase_end();
    b.phase_begin("detect");
    b.phase_end();
    b.phase_begin("correct");
    b.phase_end();

    a.merge(b);
    EXPECT_EQ(a.counters().gemm_flops, 150u);
    EXPECT_EQ(a.counters().asd_iterations, 3u);
    EXPECT_EQ(a.counters().cs_solves, 7u);
    ASSERT_EQ(a.phase_stats().size(), 2u);
    EXPECT_EQ(a.phase_stats()[0].name, "detect");
    EXPECT_EQ(a.phase_stats()[0].calls, 2u);
    EXPECT_EQ(a.phase_stats()[1].name, "correct");
    EXPECT_EQ(a.phase_stats()[1].calls, 1u);
}

TEST(ContextMerge, RejectsOpenPhasesAndSelfMerge) {
    PipelineContext a;
    PipelineContext b;
    EXPECT_THROW(a.merge(a), Error);
    a.phase_begin("open");
    EXPECT_THROW(a.merge(b), Error);
    a.phase_end();
    b.phase_begin("open");
    EXPECT_THROW(a.merge(b), Error);
    b.phase_end();
    a.merge(b);  // both closed: fine
}

// ---- Workspace::clear --------------------------------------------------

TEST(WorkspaceClear, ReleasesPooledScratchKeepsLifetimeTotals) {
    Workspace ws;
    ws.release(ws.acquire(8, 8));
    ws.release(ws.acquire(16, 4));
    EXPECT_EQ(ws.pooled(), 2u);
    EXPECT_EQ(ws.created(), 2u);
    ws.clear();
    EXPECT_EQ(ws.pooled(), 0u);
    EXPECT_EQ(ws.created(), 2u);  // lifetime total keeps counting
    ws.release(ws.acquire(8, 8));  // re-acquire allocates afresh
    EXPECT_EQ(ws.created(), 3u);
}

// ---- FleetRunner -------------------------------------------------------

ItscsInput fleet_input(std::size_t participants, std::size_t slots) {
    const TraceDataset truth = make_small_dataset(9, participants, slots);
    CorruptionConfig corruption;
    corruption.missing_ratio = 0.2;
    corruption.fault_ratio = 0.2;
    corruption.seed = 13;
    return to_itscs_input(corrupt(truth, corruption));
}

TEST(FleetRunner, MatchesSequentialPerShardRunBitForBit) {
    const ItscsInput input = fleet_input(36, 60);
    const ItscsConfig framework;

    RuntimeConfig config;
    config.threads = 2;
    config.shard_size = 12;
    FleetRunner runner(config);
    const FleetResult fleet = runner.run(input, framework);

    // Reference: run_itscs over each shard, sequentially, by hand.
    const ShardPlan plan = runner.plan_for(36);
    ASSERT_EQ(plan.count(), 3u);
    for (const Shard& shard : plan.shards()) {
        ItscsInput si;
        si.sx = input.sx.block(shard.begin, 0, shard.size(), 60);
        si.sy = input.sy.block(shard.begin, 0, shard.size(), 60);
        si.vx = input.vx.block(shard.begin, 0, shard.size(), 60);
        si.vy = input.vy.block(shard.begin, 0, shard.size(), 60);
        si.existence =
            input.existence.block(shard.begin, 0, shard.size(), 60);
        si.tau_s = input.tau_s;
        const ItscsResult expected = run_itscs(si, framework);
        EXPECT_TRUE(bitwise_equal(
            expected.detection,
            fleet.aggregate.detection.block(shard.begin, 0, shard.size(),
                                            60)));
        EXPECT_TRUE(bitwise_equal(
            expected.reconstructed_x,
            fleet.aggregate.reconstructed_x.block(shard.begin, 0,
                                                  shard.size(), 60)));
        EXPECT_TRUE(bitwise_equal(
            expected.reconstructed_y,
            fleet.aggregate.reconstructed_y.block(shard.begin, 0,
                                                  shard.size(), 60)));
        EXPECT_EQ(fleet.shards[shard.index].iterations,
                  expected.iterations);
        EXPECT_EQ(fleet.shards[shard.index].converged, expected.converged);
    }
}

TEST(FleetRunner, ThreadCountNeverChangesResults) {
    const ItscsInput input = fleet_input(35, 50);
    const ItscsConfig framework;

    std::unique_ptr<FleetResult> reference;
    for (const std::size_t threads : {1u, 2u, 7u}) {
        RuntimeConfig config;
        config.threads = threads;
        config.shard_size = 10;  // shards of 9/9/9/8 (kSpread)
        FleetRunner runner(config);
        PipelineContext ctx(99);
        FleetResult fleet = runner.run(input, framework, &ctx);
        ASSERT_EQ(fleet.shards.size(), 4u);
        // Merged instrumentation is deterministic too.
        EXPECT_GT(ctx.counters().itscs_iterations, 0u);
        EXPECT_GT(ctx.counters().cs_solves, 0u);
        if (reference == nullptr) {
            reference = std::make_unique<FleetResult>(std::move(fleet));
            continue;
        }
        EXPECT_TRUE(bitwise_equal(fleet.aggregate.detection,
                                  reference->aggregate.detection))
            << "threads=" << threads;
        EXPECT_TRUE(bitwise_equal(fleet.aggregate.reconstructed_x,
                                  reference->aggregate.reconstructed_x))
            << "threads=" << threads;
        EXPECT_TRUE(bitwise_equal(fleet.aggregate.reconstructed_y,
                                  reference->aggregate.reconstructed_y))
            << "threads=" << threads;
        EXPECT_EQ(fleet.aggregate.iterations,
                  reference->aggregate.iterations);
        ASSERT_EQ(fleet.shards.size(), reference->shards.size());
        for (std::size_t s = 0; s < fleet.shards.size(); ++s) {
            EXPECT_EQ(fleet.shards[s].seed, reference->shards[s].seed);
            EXPECT_EQ(fleet.shards[s].iterations,
                      reference->shards[s].iterations);
        }
    }
}

TEST(FleetRunner, FastTierDeterministicAcrossThreadCounts) {
    // The fast tier is not bit-identical to exact, but it promises the
    // same schedule-independence: a fixed RuntimeConfig (minus threads)
    // gives one bit pattern at any worker count.
    const ItscsInput input = fleet_input(35, 50);
    const ItscsConfig framework;

    std::unique_ptr<FleetResult> reference;
    for (const std::size_t threads : {1u, 2u}) {
        RuntimeConfig config;
        config.threads = threads;
        config.shard_size = 10;
        config.kernel_tier = KernelTier::kFast;
        FleetRunner runner(config);
        PipelineContext ctx(99);
        FleetResult fleet = runner.run(input, framework, &ctx);
        // The merged context records the tier the shards ran under.
        EXPECT_EQ(ctx.kernel_tier(), KernelTier::kFast);
        if (reference == nullptr) {
            reference = std::make_unique<FleetResult>(std::move(fleet));
            continue;
        }
        EXPECT_TRUE(bitwise_equal(fleet.aggregate.detection,
                                  reference->aggregate.detection))
            << "threads=" << threads;
        EXPECT_TRUE(bitwise_equal(fleet.aggregate.reconstructed_x,
                                  reference->aggregate.reconstructed_x))
            << "threads=" << threads;
        EXPECT_TRUE(bitwise_equal(fleet.aggregate.reconstructed_y,
                                  reference->aggregate.reconstructed_y))
            << "threads=" << threads;
    }

    // And the tier never leaks: after the fast runs, this thread's
    // ambient tier is still the exact default.
    EXPECT_EQ(active_kernel_tier(), KernelTier::kExact);
}

TEST(FleetRunner, RunnerIsReusableAndClearsArenas) {
    const ItscsInput input = fleet_input(24, 40);
    RuntimeConfig config;
    config.threads = 2;
    config.shard_count = 3;
    FleetRunner runner(config);
    const FleetResult first = runner.run(input, ItscsConfig{});
    const FleetResult second = runner.run(input, ItscsConfig{});
    EXPECT_TRUE(bitwise_equal(first.aggregate.detection,
                              second.aggregate.detection));
    EXPECT_TRUE(bitwise_equal(first.aggregate.reconstructed_x,
                              second.aggregate.reconstructed_x));
}

TEST(FleetRunner, MergedHistorySumsShards) {
    const ItscsInput input = fleet_input(24, 40);
    RuntimeConfig config;
    config.threads = 1;
    config.shard_count = 2;
    FleetRunner runner(config);
    const FleetResult fleet = runner.run(input, ItscsConfig{});
    ASSERT_EQ(fleet.aggregate.history.size(), fleet.aggregate.iterations);
    std::size_t max_iterations = 0;
    bool all_converged = true;
    for (const ShardRunReport& shard : fleet.shards) {
        max_iterations = std::max(max_iterations, shard.iterations);
        all_converged = all_converged && shard.converged;
    }
    EXPECT_EQ(fleet.aggregate.iterations, max_iterations);
    EXPECT_EQ(fleet.aggregate.converged, all_converged);
}

// ---- Parallel streaming ------------------------------------------------

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

TEST(ParallelStreaming, ShardedWindowsMatchInlineShardedWindows) {
    const TraceDataset truth = make_small_dataset(5, 18, 80);
    CorruptionConfig corruption;
    corruption.missing_ratio = 0.15;
    corruption.fault_ratio = 0.15;
    const CorruptedDataset data = corrupt(truth, corruption);

    auto run_stream = [&](std::size_t threads) {
        RuntimeConfig runtime;
        runtime.threads = threads;
        runtime.shard_count = 3;  // decomposition fixed across thread counts
        FleetRunner runner(runtime);
        StreamingDetector::Config config;
        config.window = 40;
        config.stride = 20;
        config.evaluator = runner.window_evaluator();
        StreamingDetector detector(18, truth.tau_s, config);
        std::vector<WindowReport> reports;
        for (std::size_t j = 0; j < truth.slots(); ++j) {
            detector.push_slot(slot_of(data, j));
            while (auto report = detector.poll()) {
                reports.push_back(std::move(*report));
            }
        }
        return reports;
    };

    const std::vector<WindowReport> parallel = run_stream(3);
    const std::vector<WindowReport> inline_run = run_stream(1);
    ASSERT_EQ(parallel.size(), inline_run.size());
    ASSERT_EQ(parallel.size(), 3u);  // slots 40, 60, 80
    for (std::size_t w = 0; w < parallel.size(); ++w) {
        EXPECT_EQ(parallel[w].first_slot, inline_run[w].first_slot);
        EXPECT_TRUE(bitwise_equal(parallel[w].detection,
                                  inline_run[w].detection));
        EXPECT_TRUE(bitwise_equal(parallel[w].reconstructed_x,
                                  inline_run[w].reconstructed_x));
        EXPECT_TRUE(bitwise_equal(parallel[w].reconstructed_y,
                                  inline_run[w].reconstructed_y));
        EXPECT_EQ(parallel[w].iterations, inline_run[w].iterations);
    }
}

// ---- Degenerate shards through the guarded fleet path ------------------

bool all_finite(const Matrix& m) {
    return std::all_of(m.data().begin(), m.data().end(),
                       [](double v) { return std::isfinite(v); });
}

// One degenerate fleet: a shape and a damage applied to the corrupted
// input. Every case must end finite, with each shard nominal or carrying
// its FailureReport, and bit-identical at 1 and 3 threads.
struct DegenerateCase {
    const char* name;
    std::size_t participants;
    std::size_t slots;
    void (*damage)(ItscsInput&);
    std::size_t rank = 0;  // explicit cs.rank; 0 = recommended
    /// The one shard allowed to degrade (-1: no isolation claim).
    int isolated_shard = -1;
};

void clear_cell(ItscsInput& in, std::size_t i, std::size_t j) {
    in.existence(i, j) = 0.0;
    in.sx(i, j) = 0.0;
    in.sy(i, j) = 0.0;
    in.vx(i, j) = 0.0;
    in.vy(i, j) = 0.0;
}

void no_damage(ItscsInput&) {}

const DegenerateCase kDegenerateCases[] = {
    // Participants 10..19 never report: a whole shard with ℰ ≡ 0.
    {"all_missing_shard", 30, 40,
     [](ItscsInput& in) {
         for (std::size_t i = 10; i < 20; ++i) {
             for (std::size_t j = 0; j < in.existence.cols(); ++j) {
                 clear_cell(in, i, j);
             }
         }
     },
     0, 1},
    // Shards [0, 10), [10, 20) and the lone row [20, 21).
    {"single_participant_shard", 21, 40, no_damage},
    {"rank_above_shard_rows", 30, 40, no_damage, 15},
    {"all_missing_row", 30, 40,
     [](ItscsInput& in) {
         for (std::size_t j = 0; j < in.existence.cols(); ++j) {
             clear_cell(in, 4, j);
         }
     }},
    {"all_missing_column", 30, 40,
     [](ItscsInput& in) {
         for (std::size_t i = 0; i < in.existence.rows(); ++i) {
             clear_cell(in, i, 7);
         }
     }},
    {"one_slot", 30, 1, no_damage},
    {"two_slots", 30, 2, no_damage},
    // Parked vehicles 1e7 m from the origin: huge, motionless rows.
    {"stationary_at_1e7_m", 30, 40,
     [](ItscsInput& in) {
         for (std::size_t i = 0; i < in.existence.rows(); ++i) {
             for (std::size_t j = 0; j < in.existence.cols(); ++j) {
                 in.sx(i, j) = 1e7 + 10.0 * static_cast<double>(i);
                 in.sy(i, j) = 1e7 - 10.0 * static_cast<double>(i);
                 in.vx(i, j) = 0.0;
                 in.vy(i, j) = 0.0;
             }
         }
     }},
};

class DegenerateFleet : public ::testing::TestWithParam<DegenerateCase> {};

TEST_P(DegenerateFleet, EndsFiniteAndIdenticalAtOneAndThreeThreads) {
    const DegenerateCase& c = GetParam();
    ItscsInput input = fleet_input(c.participants, c.slots);
    c.damage(input);
    ItscsConfig framework;
    framework.cs.rank = c.rank;

    std::unique_ptr<FleetResult> reference;
    for (const std::size_t threads : {1u, 3u}) {
        RuntimeConfig config;
        config.threads = threads;
        config.shard_size = 10;
        config.remainder = ShardRemainder::kTail;
        config.guard = true;  // the degradation ladder is under test
        FleetRunner runner(config);
        FleetResult fleet = runner.run(input, framework);

        EXPECT_TRUE(all_finite(fleet.aggregate.detection));
        EXPECT_TRUE(all_finite(fleet.aggregate.reconstructed_x));
        EXPECT_TRUE(all_finite(fleet.aggregate.reconstructed_y));
        for (std::size_t s = 0; s < fleet.shards.size(); ++s) {
            const ShardRunReport& report = fleet.shards[s];
            if (report.level != DegradationLevel::kNominal) {
                ASSERT_FALSE(report.failures.empty()) << "shard " << s;
                EXPECT_EQ(report.failures.front().shard, s);
                EXPECT_EQ(report.attempts, report.failures.size() + 1);
            }
        }
        if (reference == nullptr) {
            reference = std::make_unique<FleetResult>(std::move(fleet));
            continue;
        }
        EXPECT_TRUE(bitwise_equal(fleet.aggregate.detection,
                                  reference->aggregate.detection));
        EXPECT_TRUE(bitwise_equal(fleet.aggregate.reconstructed_x,
                                  reference->aggregate.reconstructed_x));
        EXPECT_TRUE(bitwise_equal(fleet.aggregate.reconstructed_y,
                                  reference->aggregate.reconstructed_y));
        for (std::size_t s = 0; s < fleet.shards.size(); ++s) {
            EXPECT_EQ(fleet.shards[s].level, reference->shards[s].level);
        }
    }
    ASSERT_EQ(reference->shards.size(), (c.participants + 9) / 10);
    if (c.isolated_shard >= 0) {
        // Whatever the damaged shard did, its neighbours stay nominal.
        for (std::size_t s = 0; s < reference->shards.size(); ++s) {
            if (s != static_cast<std::size_t>(c.isolated_shard)) {
                EXPECT_EQ(reference->shards[s].level,
                          DegradationLevel::kNominal);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    FleetRunner, DegenerateFleet, ::testing::ValuesIn(kDegenerateCases),
    [](const ::testing::TestParamInfo<DegenerateCase>& info) {
        return std::string(info.param.name);
    });

// ---- Structured adversary through the runtime seam ---------------------

TEST(FleetRunner, AdversaryRunIsBitIdenticalAcrossThreadCounts) {
    const ItscsInput input = fleet_input(30, 40);
    const AdversaryInjector adversary(
        AdversarySpec::parse("collude=4,outage=6,replay=2,seed=21"));

    std::unique_ptr<FleetResult> reference;
    for (const std::size_t threads : {1u, 2u, 7u}) {
        RuntimeConfig config;
        config.threads = threads;
        config.shard_size = 10;
        config.adversary = &adversary;
        FleetRunner runner(config);
        FleetResult fleet = runner.run(input, ItscsConfig{});
        EXPECT_EQ(fleet.adversary.colluders.size(), 4u);
        EXPECT_EQ(fleet.adversary.replays.size(), 2u);
        if (reference == nullptr) {
            reference = std::make_unique<FleetResult>(std::move(fleet));
            continue;
        }
        EXPECT_TRUE(bitwise_equal(fleet.aggregate.detection,
                                  reference->aggregate.detection))
            << "threads=" << threads;
        EXPECT_TRUE(bitwise_equal(fleet.aggregate.reconstructed_x,
                                  reference->aggregate.reconstructed_x))
            << "threads=" << threads;
        EXPECT_TRUE(bitwise_equal(fleet.aggregate.reconstructed_y,
                                  reference->aggregate.reconstructed_y))
            << "threads=" << threads;
        EXPECT_TRUE(bitwise_equal(fleet.adversary.mask,
                                  reference->adversary.mask))
            << "threads=" << threads;
    }
}

TEST(FleetRunner, AdversaryMustNotDependOnShardBoundaries) {
    // Cross-participant faults are applied fleet-wide before sharding:
    // re-sharding the same hostile fleet must not move the injection.
    const ItscsInput input = fleet_input(30, 40);
    const AdversaryInjector adversary(
        AdversarySpec::parse("collude=4,replay=2,seed=21"));
    std::unique_ptr<FleetResult> reference;
    for (const std::size_t shard_size : {6u, 15u, 30u}) {
        RuntimeConfig config;
        config.threads = 2;
        config.shard_size = shard_size;
        config.adversary = &adversary;
        FleetRunner runner(config);
        FleetResult fleet = runner.run(input, ItscsConfig{});
        if (reference == nullptr) {
            reference = std::make_unique<FleetResult>(std::move(fleet));
            continue;
        }
        EXPECT_EQ(fleet.adversary.colluders,
                  reference->adversary.colluders);
        EXPECT_TRUE(bitwise_equal(fleet.adversary.mask,
                                  reference->adversary.mask));
    }
}

TEST(FleetRunner, IdleAdversaryLeavesTheCleanPathBitIdentical) {
    const ItscsInput input = fleet_input(30, 40);
    RuntimeConfig plain;
    plain.threads = 2;
    plain.shard_size = 10;
    FleetRunner plain_runner(plain);
    const FleetResult want = plain_runner.run(input, ItscsConfig{});

    const AdversaryInjector idle(AdversarySpec::parse("seed=77"));
    RuntimeConfig config = plain;
    config.adversary = &idle;
    FleetRunner runner(config);
    const FleetResult got = runner.run(input, ItscsConfig{});
    EXPECT_TRUE(bitwise_equal(got.aggregate.detection,
                              want.aggregate.detection));
    EXPECT_TRUE(bitwise_equal(got.aggregate.reconstructed_x,
                              want.aggregate.reconstructed_x));
    EXPECT_TRUE(bitwise_equal(got.aggregate.reconstructed_y,
                              want.aggregate.reconstructed_y));
}

// ---- Defence suite through the runtime seam ----------------------------

TEST(FleetRunner, DefendedRunIsBitIdenticalAcrossThreadCounts) {
    const ItscsInput input = fleet_input(30, 40);
    const AdversaryInjector adversary(
        AdversarySpec::parse("replay=2,collude=4,seed=21"));
    const DefenseSuite defense{DefenseSpec{}};

    std::unique_ptr<FleetResult> reference;
    std::vector<std::uint64_t> reference_counters;
    for (const std::size_t threads : {1u, 2u, 7u}) {
        RuntimeConfig config;
        config.threads = threads;
        config.shard_size = 10;
        config.adversary = &adversary;
        config.defense = &defense;
        FleetRunner runner(config);
        PipelineContext ctx;
        FleetResult fleet = runner.run(input, ItscsConfig{}, &ctx);

        // A replayed row is its victim circularly shifted — a bit-exact
        // duplicate the pairwise scan must catch at any thread count, and
        // one the re-test confirms outright.
        EXPECT_FALSE(fleet.defense.quarantined.empty());
        EXPECT_FALSE(fleet.defense.confirmed.empty());
        EXPECT_GT(ctx.counters().defense_trips, 0u);
        EXPECT_EQ(ctx.counters().participants_quarantined,
                  fleet.defense.quarantined.size());
        EXPECT_EQ(ctx.counters().quarantine_reinstated,
                  fleet.defense.reinstated.size());
        const std::vector<std::uint64_t> counters = {
            ctx.counters().defense_trips,
            ctx.counters().participants_quarantined,
            ctx.counters().quarantine_reinstated};

        if (reference == nullptr) {
            reference = std::make_unique<FleetResult>(std::move(fleet));
            reference_counters = counters;
            continue;
        }
        EXPECT_TRUE(bitwise_equal(fleet.aggregate.detection,
                                  reference->aggregate.detection))
            << "threads=" << threads;
        EXPECT_TRUE(bitwise_equal(fleet.aggregate.reconstructed_x,
                                  reference->aggregate.reconstructed_x))
            << "threads=" << threads;
        EXPECT_TRUE(bitwise_equal(fleet.aggregate.reconstructed_y,
                                  reference->aggregate.reconstructed_y))
            << "threads=" << threads;
        EXPECT_EQ(fleet.defense.quarantined,
                  reference->defense.quarantined);
        EXPECT_EQ(fleet.defense.confirmed, reference->defense.confirmed);
        EXPECT_EQ(fleet.defense.reinstated,
                  reference->defense.reinstated);
        EXPECT_EQ(fleet.aggregate.quarantined,
                  reference->aggregate.quarantined);
        EXPECT_EQ(counters, reference_counters) << "threads=" << threads;
    }
}

TEST(FleetRunner, DefenseMustNotDependOnShardBoundaries) {
    // The defence runs fleet-wide before sharding: re-sharding the same
    // hostile fleet must not move a single quarantine decision.
    const ItscsInput input = fleet_input(30, 40);
    const AdversaryInjector adversary(
        AdversarySpec::parse("replay=2,collude=4,seed=21"));
    const DefenseSuite defense{DefenseSpec{}};
    std::unique_ptr<FleetResult> reference;
    for (const std::size_t shard_size : {6u, 15u, 30u}) {
        RuntimeConfig config;
        config.threads = 2;
        config.shard_size = shard_size;
        config.adversary = &adversary;
        config.defense = &defense;
        FleetRunner runner(config);
        FleetResult fleet = runner.run(input, ItscsConfig{});
        if (reference == nullptr) {
            reference = std::make_unique<FleetResult>(std::move(fleet));
            continue;
        }
        // Decisions only: the per-shard solve numerics legitimately vary
        // with the decomposition (each shard solves independently), but
        // the quarantine must not.
        EXPECT_EQ(fleet.defense.quarantined,
                  reference->defense.quarantined);
        EXPECT_EQ(fleet.defense.confirmed, reference->defense.confirmed);
        EXPECT_EQ(fleet.aggregate.quarantined,
                  reference->aggregate.quarantined);
    }
}

TEST(FleetRunner, IdleDefenseLeavesTheCleanPathBitIdentical) {
    const ItscsInput input = fleet_input(30, 40);
    RuntimeConfig plain;
    plain.threads = 2;
    plain.shard_size = 10;
    FleetRunner plain_runner(plain);
    const FleetResult want = plain_runner.run(input, ItscsConfig{});

    const DefenseSuite idle(
        DefenseSpec::parse("collusion=0,replay=0,outage=0"));
    RuntimeConfig config = plain;
    config.defense = &idle;
    FleetRunner runner(config);
    const FleetResult got = runner.run(input, ItscsConfig{});
    EXPECT_TRUE(got.defense.quarantined.empty());
    EXPECT_TRUE(bitwise_equal(got.aggregate.detection,
                              want.aggregate.detection));
    EXPECT_TRUE(bitwise_equal(got.aggregate.reconstructed_x,
                              want.aggregate.reconstructed_x));
    EXPECT_TRUE(bitwise_equal(got.aggregate.reconstructed_y,
                              want.aggregate.reconstructed_y));
}

TEST(FleetRunner, ArmedDefenseOnACleanFleetQuarantinesNobody) {
    // Default (armed) defence on an honest fleet: no quarantine, and the
    // output stays bit-identical to a no-defence run — clean-path safety
    // of the whole ladder.
    const ItscsInput input = fleet_input(30, 40);
    RuntimeConfig plain;
    plain.threads = 2;
    plain.shard_size = 10;
    FleetRunner plain_runner(plain);
    const FleetResult want = plain_runner.run(input, ItscsConfig{});

    const DefenseSuite defense{DefenseSpec{}};
    RuntimeConfig config = plain;
    config.defense = &defense;
    FleetRunner runner(config);
    PipelineContext ctx;
    const FleetResult got = runner.run(input, ItscsConfig{}, &ctx);
    EXPECT_TRUE(got.defense.quarantined.empty());
    EXPECT_TRUE(got.defense.flags.empty());
    EXPECT_EQ(ctx.counters().participants_quarantined, 0u);
    EXPECT_TRUE(bitwise_equal(got.aggregate.detection,
                              want.aggregate.detection));
    EXPECT_TRUE(bitwise_equal(got.aggregate.reconstructed_x,
                              want.aggregate.reconstructed_x));
    EXPECT_TRUE(bitwise_equal(got.aggregate.reconstructed_y,
                              want.aggregate.reconstructed_y));
}

}  // namespace
}  // namespace mcs
