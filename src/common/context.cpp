#include "common/context.hpp"

#include "common/check.hpp"
#include "common/json.hpp"

namespace mcs {

const char* to_string(KernelTier tier) {
    return tier == KernelTier::kFast ? "fast" : "exact";
}

KernelTier parse_kernel_tier(const std::string& name) {
    if (name == "exact") {
        return KernelTier::kExact;
    }
    if (name == "fast") {
        return KernelTier::kFast;
    }
    throw Error("unknown kernel tier '" + name +
                "' (expected exact | fast)");
}

PipelineContext::PipelineContext(std::uint64_t seed) : rng_(seed) {}

std::size_t PipelineContext::stat_index(const std::string& name) {
    for (std::size_t k = 0; k < stats_.size(); ++k) {
        if (stats_[k].name == name) {
            return k;
        }
    }
    stats_.push_back({name, 0, 0.0});
    return stats_.size() - 1;
}

void PipelineContext::assert_owner() {
#ifndef NDEBUG
    // One-context-per-thread: bind on first use, then insist. Cleared at
    // merge()/reset(), the sanctioned ownership hand-off points.
    if (owner_ == std::thread::id{}) {
        owner_ = std::this_thread::get_id();
    }
    MCS_CHECK_MSG(owner_ == std::this_thread::get_id(),
                  "PipelineContext: used from two threads concurrently "
                  "(one context per thread; combine with merge())");
#endif
}

void PipelineContext::phase_begin(std::string name) {
    assert_owner();
    const std::size_t index = stat_index(name);
    stats_[index].calls += 1;
    open_.push_back({index, Stopwatch{}});
}

void PipelineContext::phase_end() {
    assert_owner();
    MCS_CHECK_MSG(!open_.empty(),
                  "PipelineContext: phase_end without matching phase_begin");
    const OpenPhase& top = open_.back();
    stats_[top.stat_index].seconds += top.timer.elapsed_seconds();
    open_.pop_back();
}

void PipelineContext::merge(const PipelineContext& other) {
    MCS_CHECK_MSG(&other != this, "PipelineContext: merge with itself");
    MCS_CHECK_MSG(other.open_.empty(),
                  "PipelineContext: merge with phases still open");
    absorb(other.counters_, other.stats_);
    if (other.kernel_tier_ != KernelTier::kExact) {
        kernel_tier_ = other.kernel_tier_;
    }
#ifndef NDEBUG
    owner_ = std::thread::id{};  // ownership hand-off point
#endif
}

void PipelineContext::absorb(const PipelineCounters& counters,
                             const std::vector<PhaseStat>& phases) {
    MCS_CHECK_MSG(open_.empty(),
                  "PipelineContext: absorb with phases still open");
    counters_.workspace_allocations += counters.workspace_allocations;
    counters_.workspace_checkouts += counters.workspace_checkouts;
    counters_.gemm_flops += counters.gemm_flops;
    counters_.flops_multiply += counters.flops_multiply;
    counters_.flops_multiply_transposed += counters.flops_multiply_transposed;
    counters_.flops_transpose_multiply += counters.flops_transpose_multiply;
    counters_.flops_masked_residual += counters.flops_masked_residual;
    counters_.svd_sweeps += counters.svd_sweeps;
    counters_.asd_iterations += counters.asd_iterations;
    counters_.cs_solves += counters.cs_solves;
    counters_.itscs_iterations += counters.itscs_iterations;
    counters_.detect_passes += counters.detect_passes;
    counters_.check_passes += counters.check_passes;
    counters_.guard_trips += counters.guard_trips;
    counters_.shard_retries += counters.shard_retries;
    counters_.shards_degraded += counters.shards_degraded;
    counters_.checkpoint_commits += counters.checkpoint_commits;
    counters_.checkpoint_shards_resumed +=
        counters.checkpoint_shards_resumed;
    counters_.checkpoint_corrupt_frames +=
        counters.checkpoint_corrupt_frames;
    counters_.participants_quarantined += counters.participants_quarantined;
    counters_.defense_trips += counters.defense_trips;
    counters_.quarantine_reinstated += counters.quarantine_reinstated;
    counters_.shards_stolen += counters.shards_stolen;
    counters_.slab_shards_streamed += counters.slab_shards_streamed;
    for (const PhaseStat& stat : phases) {
        PhaseStat& mine = stats_[stat_index(stat.name)];
        mine.calls += stat.calls;
        mine.seconds += stat.seconds;
    }
}

void PipelineContext::reset() {
    MCS_CHECK_MSG(open_.empty(),
                  "PipelineContext: reset with phases still open");
    counters_ = PipelineCounters{};
    stats_.clear();
#ifndef NDEBUG
    owner_ = std::thread::id{};
#endif
}

Json PipelineContext::to_json() const {
    Json counters = Json::object();
    counters["workspace_allocations"] = counters_.workspace_allocations;
    counters["workspace_checkouts"] = counters_.workspace_checkouts;
    counters["gemm_flops"] = static_cast<double>(counters_.gemm_flops);
    counters["flops_multiply"] =
        static_cast<double>(counters_.flops_multiply);
    counters["flops_multiply_transposed"] =
        static_cast<double>(counters_.flops_multiply_transposed);
    counters["flops_transpose_multiply"] =
        static_cast<double>(counters_.flops_transpose_multiply);
    counters["flops_masked_residual"] =
        static_cast<double>(counters_.flops_masked_residual);
    counters["svd_sweeps"] = counters_.svd_sweeps;
    counters["asd_iterations"] = counters_.asd_iterations;
    counters["cs_solves"] = counters_.cs_solves;
    counters["itscs_iterations"] = counters_.itscs_iterations;
    counters["detect_passes"] = counters_.detect_passes;
    counters["check_passes"] = counters_.check_passes;
    counters["guard_trips"] = counters_.guard_trips;
    counters["shard_retries"] = counters_.shard_retries;
    counters["shards_degraded"] = counters_.shards_degraded;
    counters["checkpoint_commits"] = counters_.checkpoint_commits;
    counters["checkpoint_shards_resumed"] =
        counters_.checkpoint_shards_resumed;
    counters["checkpoint_corrupt_frames"] =
        counters_.checkpoint_corrupt_frames;
    counters["participants_quarantined"] =
        counters_.participants_quarantined;
    counters["defense_trips"] = counters_.defense_trips;
    counters["quarantine_reinstated"] = counters_.quarantine_reinstated;
    counters["shards_stolen"] = counters_.shards_stolen;
    counters["slab_shards_streamed"] = counters_.slab_shards_streamed;

    Json phases = Json::array();
    for (const PhaseStat& stat : stats_) {
        Json row = Json::object();
        row["name"] = stat.name;
        row["calls"] = stat.calls;
        row["seconds"] = stat.seconds;
        phases.push_back(row);
    }

    Json out = Json::object();
    out["kernel_tier"] = std::string(to_string(kernel_tier_));
    out["counters"] = counters;
    out["phases"] = phases;
    return out;
}

}  // namespace mcs
