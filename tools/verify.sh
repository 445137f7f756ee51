#!/usr/bin/env bash
# Repo verification driver.
#
#   tools/verify.sh          tier-1: configure + build + full ctest suite
#   tools/verify.sh tsan     concurrency job: rebuild the runtime-facing
#                            tests with -fsanitize=thread (MCS_SANITIZE,
#                            see the `tsan` CMake preset) and run
#                            runtime_test + runtime_chaos_test +
#                            core_streaming_test under TSan
#   tools/verify.sh asan     memory job: build every target with
#                            -fsanitize=address,undefined (the `asan`
#                            CMake preset) and run the whole ctest suite,
#                            halting on the first ASan or UBSan report
#                            and checking for leaks
#   tools/verify.sh perf     perf smoke: Release-build bench/perf_kernels,
#                            run it in --quick mode against the committed
#                            BENCH_kernels.json baseline, and fail when
#                            any kernel's fast/exact speedup ratio drops
#                            more than 20% below the baseline ratio
#   tools/verify.sh adv      adversary smoke: Release-build perf_pipeline
#                            and run the structured-adversary degradation
#                            sweep (--adversary-sweep --quick); the binary
#                            exits non-zero on empty or non-finite cells,
#                            or when the corruption-path and runtime-path
#                            injections disagree, or when the hostile run
#                            is not bit-identical across 1/2/7 workers
#   tools/verify.sh stream   streaming smoke: Release-build the ingestion
#                            daemon's trace-replay load generator
#                            (bench/perf_streaming) and run one --quick
#                            replay; the binary itself exits non-zero when
#                            the replay is invalid — no windows, empty or
#                            non-finite report cells, no recorded slot
#                            latencies, or a non-finite F1
#   tools/verify.sh defense  defence smoke: Release-build perf_pipeline and
#                            run the defence sweep (--defense-sweep
#                            --quick); the binary exits non-zero on a
#                            non-finite cell, a clean-path deviation (armed
#                            suite on a clean fleet must be bit-identical
#                            to no defence), an analyze() overhead above 2%
#                            of the clean solve, or an unmet k=24
#                            collusion breaking-point claim
#   tools/verify.sh scale    out-of-core smoke: Release-build perf_pipeline
#                            and run the scale sweep (--scale-sweep
#                            --quick) — streamed run under the memory
#                            budget, streamed-vs-in-core and 1/2/7-thread
#                            bit-identity, f32 storage F1 drift ≤ 1e-3 — then
#                            rebuild the work-stealing scheduler tests
#                            (runtime_scale_test) under TSan and run them
#   tools/verify.sh bench    end-to-end benchmark smoke: run
#                            benchmark/run.py (which builds its own binary
#                            from this checkout) for each of the three
#                            workloads at seed 1 for 2 seconds (at 1.5 s
#                            serve_stream produces no result), then one
#                            traced fleet_streamed run; each must exit 0,
#                            i.e. pass the benchmark's own output checks
#                            (F1 floor, bit-identical repeated cleans and,
#                            traced, every per-layer metric present and
#                            finite)
#   tools/verify.sh all      everything, tier-1 first
#
# Run from the repository root. Exits non-zero on the first failure.
set -euo pipefail

cd "$(dirname "$0")/.."

tier1() {
    echo "== tier-1: build =="
    cmake --preset default
    cmake --build --preset default -j "$(nproc)"
    echo "== tier-1: ctest =="
    ctest --preset default
}

tsan() {
    echo "== tsan: build (MCS_SANITIZE=thread) =="
    cmake --preset tsan
    # Only the targets the tsan test preset runs; a full instrumented
    # build costs minutes and adds no coverage.
    cmake --build --preset tsan -j "$(nproc)" \
        --target runtime_test runtime_chaos_test core_streaming_test
    echo "== tsan: runtime_test + runtime_chaos_test + core_streaming_test =="
    ctest --preset tsan
}

asan() {
    echo "== asan: build (MCS_SANITIZE=address,undefined) =="
    cmake --preset asan
    cmake --build --preset asan -j "$(nproc)"
    echo "== asan: whole ctest suite under ASan + UBSan =="
    ctest --preset asan
}

perf() {
    echo "== perf: build (Release) =="
    cmake --preset release
    cmake --build --preset release -j "$(nproc)" --target perf_kernels
    echo "== perf: kernel smoke vs committed baseline =="
    ./build-release/bench/perf_kernels --quick \
        --output BENCH_kernels_smoke.json \
        --baseline BENCH_kernels.json
    rm -f BENCH_kernels_smoke.json
}

adv() {
    echo "== adv: build (Release) =="
    cmake --preset release
    cmake --build --preset release -j "$(nproc)" --target perf_pipeline
    echo "== adv: structured-adversary degradation smoke =="
    # Writes BENCH_adversary.json in cwd; run from a scratch dir so the
    # committed full-sweep baseline isn't clobbered by quick numbers.
    local scratch
    scratch="$(mktemp -d)"
    (cd "$scratch" &&
        "$OLDPWD/build-release/bench/perf_pipeline" --adversary-sweep \
            --quick --repeat 1 > /dev/null)
    rm -rf "$scratch"
}

stream() {
    echo "== stream: build (Release) =="
    cmake --preset release
    cmake --build --preset release -j "$(nproc)" --target perf_streaming
    echo "== stream: daemon trace-replay smoke (one cold replay) =="
    # Writes BENCH_streaming.json in cwd; run from a scratch dir so the
    # committed full-replay baseline isn't clobbered by quick numbers.
    local scratch
    scratch="$(mktemp -d)"
    (cd "$scratch" &&
        "$OLDPWD/build-release/bench/perf_streaming" --quick --repeat 1 \
            > /dev/null)
    rm -rf "$scratch"
}

defense() {
    echo "== defense: build (Release) =="
    cmake --preset release
    cmake --build --preset release -j "$(nproc)" --target perf_pipeline
    echo "== defense: adversary defence quarantine smoke =="
    # Writes BENCH_defense.json in cwd; run from a scratch dir so the
    # committed full-sweep baseline isn't clobbered by quick numbers.
    local scratch
    scratch="$(mktemp -d)"
    (cd "$scratch" &&
        "$OLDPWD/build-release/bench/perf_pipeline" --defense-sweep \
            --quick --repeat 1 > /dev/null)
    rm -rf "$scratch"
}

scale() {
    echo "== scale: build (Release) =="
    cmake --preset release
    cmake --build --preset release -j "$(nproc)" --target perf_pipeline
    echo "== scale: out-of-core data-plane smoke =="
    # Writes BENCH_scale.json in cwd; run from a scratch dir so the
    # committed full-sweep baseline isn't clobbered by quick numbers.
    local scratch
    scratch="$(mktemp -d)"
    (cd "$scratch" &&
        "$OLDPWD/build-release/bench/perf_pipeline" --scale-sweep --quick \
            > /dev/null)
    rm -rf "$scratch"
    echo "== scale: work-stealing scheduler under TSan =="
    cmake --preset tsan
    cmake --build --preset tsan -j "$(nproc)" --target runtime_scale_test
    (cd build-tsan/tests && ./runtime_scale_test)
}

bench() {
    local workload
    for workload in fleet_incore fleet_streamed serve_stream; do
        echo "== bench: $workload (seed 1, 2 s) =="
        python3 benchmark/run.py --workload "$workload" --seed 1 \
            --seconds 2 --trace 0
    done
    echo "== bench: fleet_streamed traced (seed 1, 2 s) =="
    python3 benchmark/run.py --workload fleet_streamed --seed 1 \
        --seconds 2 --trace 1
}

case "${1:-tier1}" in
    tier1) tier1 ;;
    tsan) tsan ;;
    asan) asan ;;
    perf) perf ;;
    adv) adv ;;
    stream) stream ;;
    defense) defense ;;
    scale) scale ;;
    bench) bench ;;
    all) tier1; tsan; asan; perf; adv; stream; defense; scale; bench ;;
    *) echo "usage: tools/verify.sh [tier1|tsan|asan|perf|adv|stream|defense|scale|bench|all]" >&2; exit 2 ;;
esac

echo "verify: OK (${1:-tier1})"
