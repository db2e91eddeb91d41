#!/bin/sh
# Nightly long-campaign fuzzing: the same differential conformance sweep
# as the verify.sh smoke run, scaled from 50 cases to 100k and seeded by
# the calendar date so every night explores fresh cases while any failure
# is reproducible from the date alone.
#
# Usage: scripts/nightly-fuzz.sh [--seed S] [--cases K]
#   SEED / CASES environment variables work too; flags win.
#
# On divergence the campaign exits nonzero and prints shrunk repro JSON;
# this script pins each repro under tests/corpus/pending/ so the failure
# survives the night. Triage flow (see docs/testing.md): fix the bug,
# move the pinned file from pending/ into tests/corpus/ with a short
# note, and it replays forever as part of tier-1 verification.
set -eu

cd "$(dirname "$0")/.."

seed="${SEED:-$(date +%Y%m%d)}"
cases="${CASES:-100000}"
while [ $# -gt 0 ]; do
    case "$1" in
        --seed) seed="$2"; shift 2 ;;
        --cases) cases="$2"; shift 2 ;;
        *) echo "usage: scripts/nightly-fuzz.sh [--seed S] [--cases K]" >&2; exit 2 ;;
    esac
done

cargo build -p wcp-cli --release --offline -q

log="$(mktemp)"
trap 'rm -f "$log"' EXIT

echo "== nightly fuzz: seed $seed, $cases cases =="
status=0
# No pipe to tee: POSIX sh would report tee's status, not the campaign's.
# --audit-bounds folds the paper-bound auditor into the battery: each
# case's merged telemetry timeline must stay inside the §3.4 limits.
# Every net case runs batched writes and the one bit-packed wire
# encoding, its clocks delta-compressed, under its drawn fault schedule.
# Each case also draws a multi-predicate session count (1–8): the
# session-layer engine is cross-checked offline on every case, and net
# cases additionally run the socket-backed multi service. Each case
# further draws a pump_parallel bit; drawn cases re-run the session leg
# through the sharded parallel pump (4 workers) and require the report
# bit-identical to the serial pump's. A parallel_detect bit is drawn the
# same way; drawn cases re-run the work-optimal detector at 1 and 4
# worker threads and require verdict, metrics and event stream
# bit-identical (the detector itself is in the battery on every case).
./target/release/wcp fuzz --seed "$seed" --cases "$cases" --shrink --audit-bounds \
    > "$log" 2>&1 || status=$?
cat "$log"

if [ "$status" -ne 0 ]; then
    mkdir -p tests/corpus/pending
    n=0
    # Repro lines are compact corpus envelopes, one per line.
    grep '"schema":"wcp-fuzz-case-v1"' "$log" | while IFS= read -r repro; do
        n=$((n + 1))
        out="tests/corpus/pending/nightly-$seed-$n.json"
        printf '%s\n' "$repro" > "$out"
        echo "pinned repro: $out" >&2
    done
    echo "nightly fuzz: FAILED (seed $seed) — repros in tests/corpus/pending/" >&2
fi
exit "$status"
