#!/usr/bin/env python3
"""End-to-end benchmark of the I(TS,CS) reproduction.

One run of one workload (the form BENCHMARK.json's command uses):

    python3 benchmark/run.py --workload fleet_incore --seed 1 --seconds 34 --trace 0

builds the workload binary from the sources of this checkout into
.bench_build/, runs it, checks that every metric BENCHMARK.json names is
present, and prints one JSON object as the last line of stdout. --trace 0
gives the end-to-end metrics, --trace 1 the per-layer ones. The exit code
is 0, or 1 when an output check failed (the result then says
"correct": false), or 2 when no result could be produced.

Steadiness evidence (see README.md):

    python3 benchmark/run.py --workload serve_stream --repeat 10 [--sets 2]

runs the workload N times per set with seeds default_seed, default_seed+1,
... and prints, for every end-to-end metric, the median, the quartiles,
IQR / median and the gap between the first-half and second-half medians;
with two sets, also the drift of the second median against the bound.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORK = ROOT / ".bench_work"
BINARY = BUILD / "mcs_bench"

# Shard workers of each workload on a machine with 4 or more CPUs, and
# the threads it runs besides them: the main thread, and for serve_stream
# also the daemon's consumer. Workers are lowered so that no workload
# runs more threads than there are CPUs, and leaves one to spare.
WORKERS = {"fleet_incore": 3, "fleet_streamed": 3, "serve_stream": 2}
EXTRA_THREADS = {"fleet_incore": 1, "fleet_streamed": 1, "serve_stream": 2}


def fail(message):
    print("benchmark: " + message, file=sys.stderr)
    sys.exit(2)


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def cached_source_dir():
    try:
        for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                return line.split("=", 1)[1]
    except OSError:
        return None
    return None


# The child process group running now, so that a signal to run.py
# stops it too.
running = None


def stop_running(signum, frame):
    if running is not None:
        os.killpg(running.pid, signal.SIGKILL)
        running.wait()
    sys.exit(2)


def run_group(command, deadline, **kwargs):
    """Run a command in its own process group. At the deadline the whole
    group (a build's compilers too) is killed and reaped; returns None."""
    global running
    with subprocess.Popen(command, start_new_session=True, **kwargs) as proc:
        running = proc
        try:
            out, _ = proc.communicate(
                timeout=max(1.0, deadline - time.time()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return None
        finally:
            running = None
        return proc.returncode, out


def build(deadline):
    for needed in ("CMakeLists.txt", "src/CMakeLists.txt"):
        if not (ROOT / needed).is_file():
            fail("the program's sources are missing (%s)" % needed)
    jobs = str(len(os.sched_getaffinity(0)))
    if cached_source_dir() != str(HERE):
        shutil.rmtree(BUILD, ignore_errors=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "mcs_bench",
                  "-j", jobs])
    before = BINARY.stat().st_mtime_ns if BINARY.exists() else None
    for step in steps:
        done = run_group(step, deadline, stdout=sys.stderr, stderr=sys.stderr)
        if done is None:
            fail("build timed out")
        if done[0] != 0:
            fail("build failed: " + " ".join(step))
    if BINARY.stat().st_mtime_ns != before:
        # Flush the build's output now, so that its write-back does not
        # compete with the first measured run.
        os.sync()


def workload_args(name, spec, seed, seconds, trace, work, spans):
    cpus = len(os.sched_getaffinity(0))
    workers = min(WORKERS[name], max(1, cpus - EXTRA_THREADS[name]))
    if workers < WORKERS[name]:
        print("note: %d CPUs; %s workers lowered from %d to %d"
              % (cpus, name, WORKERS[name], workers))
    args = [str(BINARY), "--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--workdir", str(work), "--span-file", str(spans),
            "--workers", str(workers), "--f1-floor", str(spec["f1_floor"])]
    if "rate" in spec:
        args += ["--rate", str(spec["rate"])]
    return args


def run_once(name, spec, seed, seconds, trace, deadline, echo=True):
    """Run the binary once; returns (exit code, result dict or None)."""
    work = WORK / ("%s-%d-%d" % (name, seed, os.getpid()))
    spans = WORK / ("spans-%s-%d.json" % (name, seed))
    shutil.rmtree(work, ignore_errors=True)
    args = workload_args(name, spec, seed, seconds, trace, work, spans)
    try:
        done = run_group(args, deadline, stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if done is None:
        print("benchmark: %s did not finish in time" % name,
              file=sys.stderr)
        return 2, None
    code, out = done
    result = None
    for line in out.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        elif echo:
            print(line)
    if code not in (0, 1) or result is None:
        return 2, None
    return code, result


def check_metrics(result, declared):
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        fail("metrics printed %s differ from BENCHMARK.json %s"
             % (sorted(got.items()), sorted(want.items())))


def spread(values):
    """Median, quartiles, IQR / median and first/second-half gap."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    half = len(values) // 2
    first = statistics.median(values[:half])
    second = statistics.median(values[half:])
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / med if med else 0.0,
            "half_gap": abs(second - first) / med if med else 0.0}


def steadiness(args, bench, spec):
    metrics = bench["end_to_end"]
    seeds = [spec["default_seed"] + i for i in range(args.repeat)]
    sets = []
    for s in range(args.sets):
        values = {m["name"]: [] for m in metrics}
        for seed in seeds:
            deadline = time.time() + 175
            code, result = run_once(args.workload, spec, seed, args.seconds,
                                    0, deadline, echo=False)
            if code != 0:
                fail("set %d seed %d failed (exit %d)" % (s + 1, seed, code))
            check_metrics(result, metrics)
            row = []
            for m in metrics:
                value = result["metrics"][m["name"]]["value"]
                values[m["name"]].append(value)
                row.append("%s=%.6g" % (m["name"], value))
            print("set %d seed %d: %s" % (s + 1, seed, " ".join(row)),
                  flush=True)
        sets.append(values)
    summary = {"workload": args.workload, "seconds": args.seconds,
               "seeds": seeds, "sets": []}
    for s, values in enumerate(sets):
        print("set %d of %s, %d runs:" % (s + 1, args.workload, len(seeds)))
        stats = {}
        for m in metrics:
            st = spread(values[m["name"]])
            stats[m["name"]] = st
            print("  %-22s median %-12.6g q1 %-12.6g q3 %-12.6g "
                  "IQR/median %6.2f%% (bound %.0f%%)  half gap %6.2f%%"
                  % (m["name"], st["median"], st["q1"], st["q3"],
                     100 * st["iqr_over_median"], 100 * m["bound"],
                     100 * st["half_gap"]))
        summary["sets"].append({"values": values, "stats": stats})
    if len(sets) > 1:
        print("drift of each later set's median against set 1 "
              "(positive = worse):")
        for m in metrics:
            base = summary["sets"][0]["stats"][m["name"]]["median"]
            for s in range(1, len(sets)):
                later = summary["sets"][s]["stats"][m["name"]]["median"]
                worse = (later - base) / base if base else 0.0
                if m["better"] == "higher":
                    worse = -worse
                print("  %-22s set %d: %+6.2f%% (bound %.0f%%)%s"
                      % (m["name"], s + 1, 100 * worse, 100 * m["bound"],
                         "  OVER" if worse > m["bound"] else ""))
    print(json.dumps(summary))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="steadiness mode: runs per set")
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args()

    start = time.time()
    signal.signal(signal.SIGTERM, stop_running)
    signal.signal(signal.SIGINT, stop_running)
    bench = load_json(ROOT / "BENCHMARK.json")
    workloads = load_json(HERE / "workloads.json")
    if args.workload not in workloads:
        fail("unknown workload %s (known: %s)"
             % (args.workload, ", ".join(sorted(workloads))))
    spec = workloads[args.workload]
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    # The first run in a checkout compiles; later runs find it up to date.
    build(start + 850)
    WORK.mkdir(exist_ok=True)

    if args.repeat > 0:
        if args.repeat < 2:
            fail("--repeat needs at least 2 runs for quartiles")
        steadiness(args, bench, spec)
        return 0
    seed = spec["default_seed"] if args.seed is None else args.seed
    code, result = run_once(args.workload, spec, seed, args.seconds,
                            args.trace, time.time() + 170)
    if result is None:
        fail("%s produced no result" % args.workload)
    check_metrics(result, bench["per_layer"] if args.trace
                  else bench["end_to_end"])
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
