// Work-stealing shard scheduler (DESIGN.md §18).
//
// A static split of the shard loop — shard k to chunk k/chunk_size — leaves
// a worker that drew a run of cheap shards (detect-only ladder exits,
// small by_cell shards) idle while another grinds through the expensive
// ones. steal_run() uses the classic per-worker-deque scheme instead:
// items are dealt to per-worker deques in deterministic contiguous
// balanced blocks (locality: consecutive shards are spatial neighbours
// under by_cell),
// each worker pops its own deque from the front, and a worker whose deque
// runs dry locks a victim's deque and steals the back half in one block.
//
// Determinism: scheduling decides only WHEN and WHERE an item runs, never
// what it computes — each item's work function sees the item index alone,
// writes to item-private outputs, and the caller merges results in item
// order after the barrier (FleetRunner merges by shard index). So fleet
// output is bit-identical at any thread count and any steal interleaving;
// only the diagnostic steal counters and phase timings vary run-to-run.
//
// The implementation stays in the repo's "boring and TSan-provable" lane:
// one small mutex per deque, no lock-free tricks — items here are whole
// per-shard I(TS,CS) solves (milliseconds to seconds), so deque overhead
// is noise.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

namespace mcs {

class ThreadPool;

/// Diagnostic totals from one steal_run (scheduling-dependent — never
/// part of a bit-identity contract).
struct StealStats {
    std::uint64_t steals = 0;        ///< successful steal operations
    std::uint64_t stolen_items = 0;  ///< items that changed deques
};

/// Run fn(item, next_hint) for every item in [0, items) across
/// min(workers, items) deques scheduled over `pool`. `next_hint` is the
/// next item currently at the front of the executing worker's own deque
/// (SIZE_MAX when the deque is empty) — the out-of-core streamer uses it
/// to madvise-prefetch the next scheduled shard while this one computes.
///
/// Runs inline (in deal order, next_hint = following item) when pool is
/// null or the effective worker count is 1. Blocks until every item
/// completed; the first exception thrown by fn is re-thrown here after
/// the barrier (the remaining items still run).
StealStats steal_run(
    ThreadPool* pool, std::size_t workers, std::size_t items,
    const std::function<void(std::size_t item, std::size_t next_hint)>& fn);

}  // namespace mcs
