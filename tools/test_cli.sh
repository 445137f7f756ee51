#!/usr/bin/env bash
# End-to-end smoke test of the itscs CLI: simulate -> corrupt -> clean,
# through real files, checking outputs exist and the report parses.
set -euo pipefail

ITSCS="$1"
WORKDIR="$(mktemp -d)"
trap 'rm -rf "$WORKDIR"' EXIT

echo "== simulate =="
"$ITSCS" simulate --participants 20 --slots 60 --seed 3 --extent-km 20 \
    --out "$WORKDIR/truth.csv"
test -s "$WORKDIR/truth.csv"
# header + 20*60 records
LINES=$(wc -l < "$WORKDIR/truth.csv")
test "$LINES" -eq 1201

echo "== corrupt =="
"$ITSCS" corrupt --in "$WORKDIR/truth.csv" --participants 20 --slots 60 \
    --alpha 0.2 --beta 0.2 --seed 7 \
    --out "$WORKDIR/corrupted.csv" --truth-faults "$WORKDIR/faults.csv"
test -s "$WORKDIR/corrupted.csv"
test -s "$WORKDIR/faults.csv"
# 20% missing -> about 960 data rows (+1 header)
CORRUPTED=$(wc -l < "$WORKDIR/corrupted.csv")
test "$CORRUPTED" -eq 961

echo "== clean =="
"$ITSCS" clean --in "$WORKDIR/corrupted.csv" --participants 20 --slots 60 \
    --variant full --out "$WORKDIR/cleaned.csv" \
    --flags "$WORKDIR/flags.csv" --report "$WORKDIR/report.json"
test -s "$WORKDIR/cleaned.csv"
test -s "$WORKDIR/flags.csv"
test -s "$WORKDIR/report.json"
# cleaned trace is complete again
CLEANED=$(wc -l < "$WORKDIR/cleaned.csv")
test "$CLEANED" -eq 1201
grep -q '"converged": true' "$WORKDIR/report.json"

echo "== CRLF and quoted-header feeds clean to the same bytes =="
sed 's/$/\r/' "$WORKDIR/corrupted.csv" > "$WORKDIR/corrupted_crlf.csv"
sed '1s/^participant,/"participant",/' "$WORKDIR/corrupted.csv" \
    > "$WORKDIR/corrupted_quoted.csv"
test "$(grep -c $'\r$' "$WORKDIR/corrupted_crlf.csv")" -eq "$CORRUPTED"
test "$(head -c 14 "$WORKDIR/corrupted_quoted.csv")" = '"participant",'
for grammar in crlf quoted; do
    "$ITSCS" clean --in "$WORKDIR/corrupted_$grammar.csv" --participants 20 \
        --slots 60 --variant full --out "$WORKDIR/cleaned_$grammar.csv" \
        --flags "$WORKDIR/flags_$grammar.csv"
    cmp "$WORKDIR/cleaned.csv" "$WORKDIR/cleaned_$grammar.csv"
    cmp "$WORKDIR/flags.csv" "$WORKDIR/flags_$grammar.csv"
done

echo "== clean with estimated velocity =="
"$ITSCS" clean --in "$WORKDIR/corrupted.csv" --participants 20 --slots 60 \
    --estimate-velocity --out "$WORKDIR/cleaned2.csv"
test -s "$WORKDIR/cleaned2.csv"

echo "== demo =="
"$ITSCS" demo --alpha 0.1 --beta 0.1 --json | grep -q '"precision"'

echo "== stats-json =="
# Instrumented clean: the counters block must reach stdout and the report.
"$ITSCS" clean --in "$WORKDIR/corrupted.csv" --participants 20 --slots 60 \
    --out "$WORKDIR/cleaned3.csv" --report "$WORKDIR/report3.json" \
    --stats-json > "$WORKDIR/clean_stats.out"
grep -q '"workspace_allocations"' "$WORKDIR/clean_stats.out"
grep -q '"asd_iterations"' "$WORKDIR/clean_stats.out"
grep -q '"workspace_allocations"' "$WORKDIR/report3.json"
# Status lines go to stderr: the whole of stdout is one JSON document.
python3 -c 'import json, sys; json.load(open(sys.argv[1]))' \
    "$WORKDIR/clean_stats.out"
"$ITSCS" serve --in "$WORKDIR/corrupted.csv" --participants 20 --slots 60 \
    --window 30 --stride 15 --journal "$WORKDIR/serve.journal" \
    --report "$WORKDIR/serve_report.json" --stats-json \
    > "$WORKDIR/serve_stats.out"
python3 - "$WORKDIR/serve_stats.out" "$WORKDIR/serve_report.json" <<'EOF'
import json, sys
stats, report = (json.load(open(path)) for path in sys.argv[1:])
assert stats["counters"]["asd_iterations"] > 0, stats["counters"]
# Every window is served cold: no warm-start key is left in either
# document ("warm_start" may still name the SVD-init phase, as a value).
def keys(node):
    if isinstance(node, dict):
        for key, value in node.items():
            yield key
            yield from keys(value)
    elif isinstance(node, list):
        for value in node:
            yield from keys(value)
for name, doc in (("stats", stats), ("report", report)):
    warm = [k for k in keys(doc) if k.startswith("warm") or k == "windows_warm"]
    assert not warm, (name, warm)
for latency in ("slot_latency", "window_eval", "journal_append"):
    for stat in ("p50", "p99", "max"):
        assert report[f"{latency}_{stat}_ms"] >= 0, (latency, stat)
assert report["window_eval_max_ms"] > 0 and report["journal_append_max_ms"] > 0
EOF
for removed in no-warm-start warm-verify-every warm-verify-tolerance; do
    set +e
    "$ITSCS" serve --in "$WORKDIR/corrupted.csv" --participants 20 \
        --slots 60 --window 30 --stride 15 --"$removed" \
        2> "$WORKDIR/removed.err"
    STATUS=$?
    set -e
    test "$STATUS" -eq 2 ||
        { echo "expected serve --$removed exit 2, got $STATUS"; exit 1; }
    grep -q -- "unknown flag --$removed" "$WORKDIR/removed.err"
done
# Instrumented demo: --json merges the counters as a "stats" member.
"$ITSCS" demo --alpha 0.1 --beta 0.1 --json --stats-json \
    > "$WORKDIR/demo_stats.out"
grep -q '"stats"' "$WORKDIR/demo_stats.out"
grep -q '"cs_solves"' "$WORKDIR/demo_stats.out"

echo "== sharded clean is bit-identical across thread counts =="
"$ITSCS" clean --in "$WORKDIR/corrupted.csv" --participants 20 --slots 60 \
    --threads 1 --shard-size 8 --out "$WORKDIR/cleaned_t1.csv" \
    --report "$WORKDIR/report_t1.json"
"$ITSCS" clean --in "$WORKDIR/corrupted.csv" --participants 20 --slots 60 \
    --threads 2 --shard-size 8 --out "$WORKDIR/cleaned_t2.csv" \
    --report "$WORKDIR/report_t2.json"
"$ITSCS" clean --in "$WORKDIR/corrupted.csv" --participants 20 --slots 60 \
    --threads 4 --shard-size 8 --out "$WORKDIR/cleaned_t4.csv"
cmp "$WORKDIR/cleaned_t1.csv" "$WORKDIR/cleaned_t2.csv"
cmp "$WORKDIR/cleaned_t1.csv" "$WORKDIR/cleaned_t4.csv"
grep -q '"runtime"' "$WORKDIR/report_t2.json"
grep -q '"shards"' "$WORKDIR/report_t2.json"
grep -q '"level": "nominal"' "$WORKDIR/report_t2.json"

echo "== chaos run degrades but completes, failure report round-trips =="
"$ITSCS" clean --in "$WORKDIR/corrupted.csv" --participants 20 --slots 60 \
    --threads 2 --shard-size 8 --chaos=nan=1,seed=5 \
    --out "$WORKDIR/cleaned_chaos.csv" \
    --failure-report "$WORKDIR/failure_report.json"
test -s "$WORKDIR/cleaned_chaos.csv"
test -s "$WORKDIR/failure_report.json"
# Every shard degraded off nominal and each carries a structured failure.
grep -q '"non_finite_input"' "$WORKDIR/failure_report.json"
grep -q '"nominal": 0' "$WORKDIR/failure_report.json"
grep -q '"outcomes"' "$WORKDIR/failure_report.json"
# Per-shard outcomes must sum to the shard count (3 shards of size 8/8/4
# under kSpread become 7/7/6 — count is 3 regardless).
python3 - "$WORKDIR/failure_report.json" <<'EOF'
import json, sys
fr = json.load(open(sys.argv[1]))
total = sum(fr["outcomes"].values())
assert total == fr["shards"] == len(fr["per_shard"]), fr["outcomes"]
for shard in fr["per_shard"]:
    if shard["level"] != "nominal":
        assert shard["failures"], shard
        for failure in shard["failures"]:
            assert failure["kind"] != "none" and failure["phase"], failure
print("failure report OK: outcomes sum to", total)
EOF

echo "== zero-fault chaos spec is bit-identical to no chaos =="
"$ITSCS" clean --in "$WORKDIR/corrupted.csv" --participants 20 --slots 60 \
    --threads 2 --shard-size 8 --chaos=seed=5 \
    --out "$WORKDIR/cleaned_nochaos.csv" \
    --failure-report "$WORKDIR/failure_report_clean.json"
cmp "$WORKDIR/cleaned_t1.csv" "$WORKDIR/cleaned_nochaos.csv"
grep -q '"nominal": 3' "$WORKDIR/failure_report_clean.json"

echo "== bad chaos spec is a usage-style failure =="
if "$ITSCS" clean --in "$WORKDIR/corrupted.csv" --participants 20 \
    --slots 60 --chaos=bogus=1 --out "$WORKDIR/never.csv" 2>/dev/null; then
    echo "expected chaos spec failure"; exit 1
fi

echo "== help enumerates every flag =="
"$ITSCS" help > "$WORKDIR/help.out"
grep -q -- '--tier=T' "$WORKDIR/help.out"
grep -q -- '--chaos=SPEC' "$WORKDIR/help.out"
grep -q -- '--checkpoint-dir=D' "$WORKDIR/help.out"
"$ITSCS" --help > /dev/null

echo "== unknown flag suggests the nearest valid name =="
if "$ITSCS" clean --treads 2 --in "$WORKDIR/corrupted.csv" \
    --participants 20 --slots 60 --out "$WORKDIR/never.csv" \
    2> "$WORKDIR/unknown.err"; then
    echo "expected unknown-flag failure"; exit 1
fi
grep -q 'unknown flag --treads (did you mean --threads?)' "$WORKDIR/unknown.err"

echo "== usage errors =="
if "$ITSCS" frobnicate 2>/dev/null; then
    echo "expected usage failure"; exit 1
fi
# A bare `itscs` lists the commands and points at the generated flag list.
set +e
"$ITSCS" 2> "$WORKDIR/usage.err"
STATUS=$?
set -e
test "$STATUS" -eq 1 || { echo "expected bare itscs exit 1, got $STATUS"; exit 1; }
grep -q 'itscs help' "$WORKDIR/usage.err"
if "$ITSCS" clean --in /nonexistent.csv --participants 2 --slots 2 \
    --out /tmp/x.csv 2>/dev/null; then
    echo "expected runtime failure"; exit 1
fi
set +e
"$ITSCS" clean --in "$WORKDIR/corrupted.csv" --participants 20 --slots 60 \
    --tier mixed --out "$WORKDIR/never.csv" 2> "$WORKDIR/tier.err"
STATUS=$?
set -e
test "$STATUS" -eq 2 || { echo "expected --tier mixed exit 2, got $STATUS"; exit 1; }
grep -q "unknown kernel tier 'mixed'" "$WORKDIR/tier.err"
for removed in solver kernel-threads row-block-threshold; do
    if "$ITSCS" clean --in "$WORKDIR/corrupted.csv" --participants 20 \
        --slots 60 --"$removed" 1 --out "$WORKDIR/never.csv" \
        2> "$WORKDIR/removed.err"; then
        echo "expected --$removed to be refused"; exit 1
    fi
    grep -q -- "unknown flag --$removed" "$WORKDIR/removed.err"
done

echo "== default clean is a one-shard FleetRunner plan =="
"$ITSCS" clean --in "$WORKDIR/corrupted.csv" --participants 20 --slots 60 \
    --threads 1 --shard-count 1 --out "$WORKDIR/cleaned_one.csv" \
    --report "$WORKDIR/report_one.json"
cmp "$WORKDIR/cleaned.csv" "$WORKDIR/cleaned_one.csv"
python3 - "$WORKDIR/report.json" "$WORKDIR/report_one.json" <<'EOF2'
import json, sys
default, one = (json.load(open(path)) for path in sys.argv[1:])
assert default == one, sorted(k for k in one if default.get(k) != one[k])
assert default["plan"]["shards"] == 1 and default["runtime"]["threads"] == 1
EOF2

echo "== streamed clean (--slab-dir) matches the in-core clean =="
"$ITSCS" clean --in "$WORKDIR/corrupted.csv" --participants 20 --slots 60 \
    --threads 2 --shard-size 8 --slab-dir "$WORKDIR/slabs" \
    --out "$WORKDIR/cleaned_slab.csv" --flags "$WORKDIR/flags_slab.csv" \
    --report "$WORKDIR/report_slab.json"
"$ITSCS" clean --in "$WORKDIR/corrupted.csv" --participants 20 --slots 60 \
    --threads 2 --shard-size 8 \
    --out "$WORKDIR/cleaned_incore.csv" --flags "$WORKDIR/flags_incore.csv"
cmp "$WORKDIR/cleaned_incore.csv" "$WORKDIR/cleaned_slab.csv"
cmp "$WORKDIR/flags_incore.csv" "$WORKDIR/flags_slab.csv"
grep -q '"mode": "streamed"' "$WORKDIR/report_slab.json"

echo "== a non-finite observed reading degrades its shard, not the run =="
# Poison participant 0's first x reading.
awk -F, 'BEGIN { OFS = "," } NR == 2 { $3 = "nan" } { print }' \
    "$WORKDIR/corrupted.csv" > "$WORKDIR/nan.csv"
"$ITSCS" clean --in "$WORKDIR/nan.csv" --participants 20 --slots 60 \
    --out "$WORKDIR/cleaned_nan.csv" --report "$WORKDIR/report_nan.json"
grep -q '"level": "conservative"' "$WORKDIR/report_nan.json"
set +e
"$ITSCS" clean --in "$WORKDIR/nan.csv" --participants 20 --slots 60 \
    --strict --out "$WORKDIR/cleaned_nan.csv" 2> /dev/null
STATUS=$?
set -e
test "$STATUS" -eq 3 || { echo "expected strict exit 3, got $STATUS"; exit 1; }

echo "== flags that need another flag are refused alone =="
refused_without() {
    local needs="$1"
    shift
    if "$ITSCS" clean --in "$WORKDIR/corrupted.csv" --participants 20 \
        --slots 60 --out "$WORKDIR/never.csv" "$@" \
        2> "$WORKDIR/dependent.err"; then
        echo "expected $1 without --$needs to fail"; exit 1
    fi
    grep -q -- "$1 requires --$needs" "$WORKDIR/dependent.err"
}
refused_without slab-dir --storage f32
refused_without slab-dir --memory-budget 64
refused_without checkpoint-dir --resume

echo "CLI pipeline OK"
