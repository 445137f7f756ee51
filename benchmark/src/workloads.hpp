// The three workloads. Each fixes its sizes as constants in its own file,
// reads any workload-specific flag from `args`, runs its timed phase for
// about `options.seconds`, and returns the process exit code after
// printing its RESULT line.
#pragma once

#include "harness.hpp"

namespace bench {

int run_fleet_incore(Args& args, const RunOptions& options);
int run_fleet_streamed(Args& args, const RunOptions& options);
int run_serve_stream(Args& args, const RunOptions& options);

}  // namespace bench
