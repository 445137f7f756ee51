#include "runtime/work_steal.hpp"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "common/check.hpp"
#include "runtime/thread_pool.hpp"

namespace mcs {

namespace {

constexpr std::size_t kNoItem = static_cast<std::size_t>(-1);

struct WorkerDeque {
    std::mutex mutex;
    std::deque<std::size_t> items;
};

}  // namespace

StealStats steal_run(
    ThreadPool* pool, std::size_t workers, std::size_t items,
    const std::function<void(std::size_t, std::size_t)>& fn) {
    MCS_CHECK_MSG(fn != nullptr, "steal_run: null work function");
    StealStats stats;
    if (items == 0) {
        return stats;
    }
    const std::size_t n = std::max<std::size_t>(
        1, std::min(workers == 0 ? 1 : workers, items));
    if (pool == nullptr || n == 1) {
        for (std::size_t k = 0; k < items; ++k) {
            fn(k, k + 1 < items ? k + 1 : kNoItem);
        }
        return stats;
    }

    // Deal items to deques in contiguous balanced blocks: deque w holds an
    // ascending run of neighbouring items.
    std::vector<std::unique_ptr<WorkerDeque>> deques;
    deques.reserve(n);
    const std::size_t base = items / n;
    const std::size_t extra = items % n;
    std::size_t at = 0;
    for (std::size_t w = 0; w < n; ++w) {
        auto dq = std::make_unique<WorkerDeque>();
        const std::size_t len = base + (w < extra ? 1 : 0);
        for (std::size_t k = 0; k < len; ++k) {
            dq->items.push_back(at + k);
        }
        at += len;
        deques.push_back(std::move(dq));
    }

    struct RunState {
        std::mutex mutex;
        std::condition_variable done;
        std::size_t pending = 0;
        std::exception_ptr error;
        StealStats stats;
    } state;
    state.pending = n;

    auto worker = [&deques, &state, &fn, n](std::size_t w) {
        StealStats local;
        WorkerDeque& own = *deques[w];
        for (;;) {
            std::size_t item = kNoItem;
            std::size_t next = kNoItem;
            {
                std::unique_lock<std::mutex> lock(own.mutex);
                if (!own.items.empty()) {
                    item = own.items.front();
                    own.items.pop_front();
                    if (!own.items.empty()) {
                        next = own.items.front();
                    }
                }
            }
            if (item == kNoItem) {
                // Own deque dry: scan victims in deterministic order and
                // take the back half of the first non-empty one in a
                // single block (steal-half amortises the lock traffic and
                // keeps the stolen run contiguous for locality).
                bool stole = false;
                for (std::size_t off = 1; off < n && !stole; ++off) {
                    WorkerDeque& victim = *deques[(w + off) % n];
                    std::vector<std::size_t> taken;
                    {
                        std::unique_lock<std::mutex> lock(victim.mutex);
                        const std::size_t have = victim.items.size();
                        if (have == 0) {
                            continue;
                        }
                        const std::size_t grab = (have + 1) / 2;
                        taken.assign(victim.items.end() -
                                         static_cast<std::ptrdiff_t>(grab),
                                     victim.items.end());
                        victim.items.erase(
                            victim.items.end() -
                                static_cast<std::ptrdiff_t>(grab),
                            victim.items.end());
                    }
                    {
                        std::unique_lock<std::mutex> lock(own.mutex);
                        own.items.insert(own.items.end(), taken.begin(),
                                         taken.end());
                    }
                    local.steals += 1;
                    local.stolen_items += taken.size();
                    stole = true;
                }
                if (!stole) {
                    break;  // every deque dry — done
                }
                continue;
            }
            try {
                fn(item, next);
            } catch (...) {
                std::unique_lock<std::mutex> lock(state.mutex);
                if (state.error == nullptr) {
                    state.error = std::current_exception();
                }
            }
        }
        std::unique_lock<std::mutex> lock(state.mutex);
        state.stats.steals += local.steals;
        state.stats.stolen_items += local.stolen_items;
        if (--state.pending == 0) {
            state.done.notify_all();
        }
    };

    for (std::size_t w = 0; w < n; ++w) {
        pool->submit([&worker, w] { worker(w); }, "steal worker");
    }
    {
        std::unique_lock<std::mutex> lock(state.mutex);
        state.done.wait(lock, [&state] { return state.pending == 0; });
        stats = state.stats;
        if (state.error != nullptr) {
            std::rethrow_exception(state.error);
        }
    }
    return stats;
}

}  // namespace mcs
