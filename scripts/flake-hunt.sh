#!/bin/sh
# Flake hunt: runs the whole workspace test suite N times (default 10) at
# each of --test-threads 1, 2 and 8, then prints every test that failed
# with its failure count. Exits nonzero if any run failed.
#
# Usage: scripts/flake-hunt.sh [N]
#
# Tier-1 (scripts/verify.sh) runs the suite once; this looks for tests
# whose outcome depends on thread scheduling or timing. Expect about
# 3 × N × 30 s on a 2-CPU host.
set -eu

cd "$(dirname "$0")/.."

runs="${1:-10}"
logs=$(mktemp -d)
trap 'rm -rf "$logs"' EXIT

cargo test --workspace --offline -q --no-run

failed_runs=0
for threads in 1 2 8; do
    i=1
    while [ "$i" -le "$runs" ]; do
        out="$logs/threads$threads-run$i.txt"
        if cargo test --workspace --offline -q --no-fail-fast -- \
            --test-threads "$threads" >"$out" 2>&1; then
            echo "threads=$threads run $i/$runs: ok"
        else
            failed_runs=$((failed_runs + 1))
            echo "threads=$threads run $i/$runs: FAILED"
            if ! grep -q '^---- .* stdout ----$' "$out"; then
                echo "  no test reported a failure; last lines of the output:"
                tail -n 20 "$out" | sed 's/^/  | /'
            fi
        fi
        i=$((i + 1))
    done
done

total=$((3 * runs))
if [ "$failed_runs" -eq 0 ]; then
    echo "flake-hunt: $total/$total runs passed"
    exit 0
fi
echo "flake-hunt: $failed_runs/$total runs failed; failures per test:"
cat "$logs"/*.txt |
    sed -n 's/^---- \(.*\) stdout ----$/\1/p' |
    sort | uniq -c | sort -rn
exit 1
