#!/usr/bin/env bash
# Crash/resume end-to-end test (DESIGN.md §12): kill a checkpointed clean
# run with a real process abort (--chaos=crash=k), resume it, and require
# the resumed output to be byte-identical (cmp) to an uninterrupted run —
# across thread counts, and after deliberately flipping a bit in the
# journal. Exercises the real crash seam that the in-process
# runtime_checkpoint_test can only simulate by truncating files.
set -euo pipefail

ITSCS="$1"
WORKDIR="$(mktemp -d)"
trap 'rm -rf "$WORKDIR"' EXIT

N=32
T=48
COMMON=(--in "$WORKDIR/corrupted.csv" --participants "$N" --slots "$T" \
        --shard-size 4)

echo "== prepare input =="
"$ITSCS" simulate --participants "$N" --slots "$T" --seed 11 \
    --out "$WORKDIR/truth.csv" > /dev/null
"$ITSCS" corrupt --in "$WORKDIR/truth.csv" --participants "$N" \
    --slots "$T" --alpha 0.2 --beta 0.2 --seed 4 \
    --out "$WORKDIR/corrupted.csv" > /dev/null

echo "== reference run (uninterrupted) =="
"$ITSCS" clean "${COMMON[@]}" --threads 2 \
    --out "$WORKDIR/ref.csv" --flags "$WORKDIR/ref_flags.csv" > /dev/null

for THREADS in 1 2 7; do
    echo "== crash after 3 commits, resume at $THREADS thread(s) =="
    CK="$WORKDIR/ck_$THREADS"
    rm -rf "$CK"
    # The crash run must die by SIGABRT (exit 134), not finish.
    set +e
    "$ITSCS" clean "${COMMON[@]}" --threads "$THREADS" \
        --checkpoint-dir "$CK" --chaos=crash=3 \
        --out "$WORKDIR/crashed.csv" > /dev/null 2> /dev/null
    STATUS=$?
    set -e
    test "$STATUS" -eq 134 || {
        echo "expected SIGABRT exit 134, got $STATUS" >&2
        exit 1
    }
    test -s "$CK/manifest.json"
    test -s "$CK/journal.bin"

    "$ITSCS" clean "${COMMON[@]}" --threads "$THREADS" \
        --checkpoint-dir "$CK" --resume --strict \
        --out "$WORKDIR/resumed.csv" --flags "$WORKDIR/resumed_flags.csv" \
        --report "$WORKDIR/resumed_report.json" > /dev/null \
        2> "$WORKDIR/resume.err"
    grep -q "3 shard(s) restored" "$WORKDIR/resume.err"
    cmp "$WORKDIR/ref.csv" "$WORKDIR/resumed.csv"
    cmp "$WORKDIR/ref_flags.csv" "$WORKDIR/resumed_flags.csv"
    grep -q '"shards_loaded": 3' "$WORKDIR/resumed_report.json"
done

echo "== corrupt frame: detected, reported, recovered =="
CK="$WORKDIR/ck_flip"
rm -rf "$CK"
"$ITSCS" clean "${COMMON[@]}" --threads 2 --checkpoint-dir "$CK" \
    --out "$WORKDIR/full.csv" > /dev/null
# Flip a byte at a fixed offset inside the FIRST frame's payload (headers
# are 16 bytes, frames kilobytes, so offset 200 is payload whatever commit
# order wrote the frame). A fixed payload offset keeps the outcome
# deterministic: exactly one frame fails its CRC and is skipped. Flipping
# a *header* byte instead would corrupt a length field and turn the rest
# of the journal into a torn tail — recovered identically, but reported
# as truncation, not a corrupt frame, which is not what this block
# asserts. XOR with 0xFF so the write always changes the byte.
flip_payload_byte() {
    local file="$1" off=200 byte
    byte=$(dd if="$file" bs=1 skip="$off" count=1 status=none \
        | od -An -tu1 | tr -d ' ')
    printf "$(printf '\\%03o' $((byte ^ 255)))" \
        | dd of="$file" bs=1 seek="$off" count=1 conv=notrunc status=none
}
flip_payload_byte "$CK/journal.bin"

# Non-strict resume: recovers, reports the corruption, output identical.
"$ITSCS" clean "${COMMON[@]}" --threads 2 --checkpoint-dir "$CK" --resume \
    --out "$WORKDIR/flip.csv" --report "$WORKDIR/flip_report.json" \
    > /dev/null 2> "$WORKDIR/flip.err"
grep -Eq "[1-9][0-9]* corrupt frame" "$WORKDIR/flip.err"
grep -q 'checkpoint_corrupt' "$WORKDIR/flip_report.json"
cmp "$WORKDIR/ref.csv" "$WORKDIR/flip.csv"

echo "== strict mode exits 3 on corruption =="
rm -rf "$CK"
"$ITSCS" clean "${COMMON[@]}" --threads 2 --checkpoint-dir "$CK" \
    --out "$WORKDIR/full.csv" > /dev/null
flip_payload_byte "$CK/journal.bin"
set +e
"$ITSCS" clean "${COMMON[@]}" --threads 2 --checkpoint-dir "$CK" --resume \
    --strict --out "$WORKDIR/strict.csv" > /dev/null 2> /dev/null
STATUS=$?
set -e
test "$STATUS" -eq 3 || {
    echo "expected strict exit 3, got $STATUS" >&2
    exit 1
}
cmp "$WORKDIR/ref.csv" "$WORKDIR/strict.csv"  # output still correct

echo "== resume against different input is refused =="
"$ITSCS" corrupt --in "$WORKDIR/truth.csv" --participants "$N" \
    --slots "$T" --alpha 0.2 --beta 0.2 --seed 5 \
    --out "$WORKDIR/other.csv" > /dev/null
rm -rf "$CK"
"$ITSCS" clean "${COMMON[@]}" --threads 2 --checkpoint-dir "$CK" \
    --out "$WORKDIR/full.csv" > /dev/null
set +e
"$ITSCS" clean --in "$WORKDIR/other.csv" --participants "$N" --slots "$T" \
    --shard-size 4 --threads 2 --checkpoint-dir "$CK" --resume \
    --out "$WORKDIR/refused.csv" > /dev/null 2> "$WORKDIR/refused.err"
STATUS=$?
set -e
test "$STATUS" -eq 2 || {
    echo "expected refusal exit 2, got $STATUS" >&2
    exit 1
}
grep -q "resume refused" "$WORKDIR/refused.err"

echo "== slab store resume against a different input or plan is refused =="
# The streamed journal takes its fingerprints from the slab store, so the
# store itself must belong to this run before --resume may reopen it.
SLABS="$WORKDIR/slabs"
rm -rf "$CK"
"$ITSCS" clean "${COMMON[@]}" --threads 2 --slab-dir "$SLABS" \
    --checkpoint-dir "$CK" --out "$WORKDIR/slab.csv" > /dev/null 2>&1
cmp "$WORKDIR/ref.csv" "$WORKDIR/slab.csv"
refused_slab_resume() {
    local field="$1"
    shift
    set +e
    "$ITSCS" clean "$@" --participants "$N" --slots "$T" --threads 2 \
        --slab-dir "$SLABS" --checkpoint-dir "$CK" --resume \
        --out "$WORKDIR/refused.csv" > /dev/null 2> "$WORKDIR/refused.err"
    local status=$?
    set -e
    test "$status" -eq 2 || {
        echo "expected refusal exit 2, got $status" >&2
        exit 1
    }
    grep -q "checkpoint resume refused ($field differs" "$WORKDIR/refused.err"
}
refused_slab_resume input_fingerprint --in "$WORKDIR/other.csv" \
    --shard-size 4
refused_slab_resume plan_fingerprint --in "$WORKDIR/corrupted.csv" \
    --shard-size 8
# The refusals left the store alone: the matching resume restores it all.
"$ITSCS" clean "${COMMON[@]}" --threads 2 --slab-dir "$SLABS" \
    --checkpoint-dir "$CK" --resume --out "$WORKDIR/slab_resumed.csv" \
    > /dev/null 2> "$WORKDIR/slab_resume.err"
grep -q "8 shard(s) restored, 0 run" "$WORKDIR/slab_resume.err"
cmp "$WORKDIR/ref.csv" "$WORKDIR/slab_resumed.csv"

echo "crash/resume: all checks passed"
