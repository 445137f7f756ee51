// ThreadPool — the execution engine of the mcs::runtime subsystem.
//
// A fixed set of worker threads drains a bounded MPMC task queue. The pool
// is deliberately simple (mutex + two condition variables, no lock-free
// tricks): every workload in this repo is coarse-grained — one task is a
// whole per-shard I(TS,CS) run — so queue overhead is noise next to task
// cost, and a boring queue is easy to prove correct under TSan.
//
// Contracts:
//   * submit() blocks while the queue is at capacity (bounded — a runaway
//     producer cannot OOM the server) and throws once shutdown began.
//   * Task exceptions never kill a worker: every one is captured with its
//     task label (submission order) and drained via take_errors(); the
//     first also re-throws from take_error() / wait_idle(). Nothing is
//     silently dropped — a fleet where three shards fail reports three
//     failures, not one.
//   * The destructor is graceful: it finishes everything already queued,
//     then joins. Work submitted before destruction is never dropped.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace mcs {

class ThreadPool {
public:
    /// One captured task exception plus the label it was submitted under.
    struct TaskError {
        std::string label;         ///< submit() label; "" when unlabeled
        std::exception_ptr error;  ///< never nullptr
    };

    struct Options {
        std::size_t threads = 0;  ///< worker count; 0 = effective CPUs
                                  ///< (sched_getaffinity, common/topology.hpp)
        std::size_t queue_capacity = 1024;  ///< bound on queued (not running)
    };

    explicit ThreadPool(std::size_t threads)
        : ThreadPool(Options{threads, 1024}) {}
    explicit ThreadPool(Options options);

    /// Drains the queue, waits for running tasks, joins every worker.
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    std::size_t size() const { return workers_.size(); }

    /// Enqueue one task, optionally labeled for error attribution (e.g.
    /// "shard 3"). Blocks while the queue is full; throws mcs::Error after
    /// shutdown started.
    void submit(std::function<void()> task, std::string label = {});

    /// Block until no task is queued or running, then re-throw the first
    /// task exception captured since the last take_error[s]() (all captured
    /// errors are cleared — use take_errors() first to keep them).
    void wait_idle();

    /// First exception thrown by a submitted task since the last drain
    /// (nullptr if none). Clears ALL captured errors — a compatibility
    /// wrapper over take_errors() for callers that only act on one.
    std::exception_ptr take_error();

    /// Every task exception captured since the last drain, in completion
    /// order, each with its submit() label. Clears the captured set.
    std::vector<TaskError> take_errors();

    /// Index of the current worker within its pool (0-based); SIZE_MAX on
    /// threads that are not pool workers. Stable for the worker's lifetime
    /// — the key for per-worker arenas (see FleetRunner).
    static std::size_t worker_index();

private:
    struct QueuedTask {
        std::function<void()> fn;
        std::string label;
    };

    void worker_loop(std::size_t index);

    Options options_;
    mutable std::mutex mutex_;
    std::condition_variable not_empty_;   // workers wait for tasks
    std::condition_variable not_full_;    // producers wait for capacity
    std::condition_variable idle_;        // wait_idle / destructor
    std::deque<QueuedTask> queue_;
    std::size_t active_ = 0;              // tasks currently executing
    bool stopping_ = false;
    std::vector<TaskError> errors_;       // every captured task exception
    std::vector<std::thread> workers_;
};

}  // namespace mcs
