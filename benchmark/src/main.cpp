// mcs_bench — the end-to-end benchmark's workload binary.
//
//   mcs_bench --workload NAME --seed N --seconds S --trace 0|1
//             --workdir DIR --span-file FILE --workers W --f1-floor F
//             [--rate R, serve_stream only]
//
// run.py builds this binary, fits the worker count to the machine's CPUs
// and passes the F1 floor and serve's offered rate from workloads.json;
// every other workload size is a constant in the workload's own source
// file. The last stdout line is `RESULT {...}`. Exit codes: 0
// ok, 1 an output check failed (the RESULT line says which run failed),
// 2 the run could not be completed (no RESULT line).
#include <exception>
#include <filesystem>
#include <iostream>

#include "workloads.hpp"

int main(int argc, char** argv) {
    try {
        bench::Args args(argc, argv);
        const std::string workload = args.text("workload");
        bench::RunOptions options;
        options.seed = args.count("seed");
        options.seconds = args.number("seconds");
        options.trace = args.count("trace") != 0;
        options.workdir = args.text("workdir");
        options.span_file = args.text("span-file");
        options.workers = args.count("workers");
        options.f1_floor = args.number("f1-floor");
        if (options.seconds <= 0.0 || options.workers == 0) {
            throw std::runtime_error(
                "--seconds and --workers must be positive");
        }
        std::filesystem::create_directories(options.workdir);
        if (workload == "fleet_incore") {
            return bench::run_fleet_incore(args, options);
        }
        if (workload == "fleet_streamed") {
            return bench::run_fleet_streamed(args, options);
        }
        if (workload == "serve_stream") {
            return bench::run_serve_stream(args, options);
        }
        throw std::runtime_error("unknown workload " + workload);
    } catch (const std::exception& e) {
        std::cerr << "mcs_bench: " << e.what() << "\n";
        return 2;
    }
}
