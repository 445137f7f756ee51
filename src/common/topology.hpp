// CPU topology detection — the honest answer to "how many workers?".
//
// std::thread::hardware_concurrency() reports the machine, not the
// process: under cgroup cpusets, taskset, or a container pinned to a
// subset of cores it either over-reports (all cores) or gives 0. Thread
// scaling decisions and bench stamps must instead use the *effective*
// CPU count — the number of CPUs this process is actually allowed to run
// on. On Linux that is the cardinality of the sched_getaffinity(2) mask;
// elsewhere (or when the syscall fails) we fall back to
// hardware_concurrency, clamped to at least 1.
//
// Everything that sizes a worker fleet routes through here: ThreadPool's
// threads==0 default, FleetRunner::resolve_threads, and bench_stamp.hpp's
// environment stamp (which records both values so a reader can tell a
// pinned container from a genuinely small machine).
#pragma once

#include <cstddef>

namespace mcs {

/// CPUs this process may actually run on (>= 1). Linux: population count
/// of the sched_getaffinity mask; other platforms or syscall failure:
/// std::thread::hardware_concurrency() (itself clamped to >= 1).
std::size_t effective_cpu_count();

/// std::thread::hardware_concurrency() clamped to >= 1 — the machine-wide
/// count, stamped alongside effective_cpu_count() in bench reports so the
/// pair distinguishes "small box" from "pinned process".
std::size_t hardware_cpu_count();

}  // namespace mcs
