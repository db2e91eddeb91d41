#!/bin/sh
# Perf trajectory capture: runs the standard workloads through every
# detector family in release mode and appends a labelled entry to
# BENCH_wcp.json (same label replaces, so re-runs are reproducible).
#
# Usage: scripts/bench.sh [LABEL] [OUT.json]
#   LABEL     entry label (default: current)
#   OUT.json  trajectory file (default: BENCH_wcp.json)
#
# Each entry also records the wire-stack saturation numbers (frames/sec,
# allocs/frame, frames/write for batched vs per-frame loopback and TCP)
# and the wire-v2 compression (bytes/event and delta hit rate of the
# delta-compressed v2 against the v1 bytes the same frames would cost,
# computed from the paper-unit `wire_size()`, at n ∈ {8, 32, 128}); e.g.
# `scripts/bench.sh net-batch` captures the batched-transport entry and
# `scripts/bench.sh wire-v2` the compression entry that
# docs/performance.md quotes.
#
# Entries also carry the `multi_saturation` section: 10k concurrent
# predicate sessions over one shared 16×40 stream through the session
# layer (the `pump_scaling` curve — serial and the parallel
# pump at 2/4/8 workers, fastest of 2 rounds each, every width pinned
# bit-identical — plus detections/sec, shared-store bytes/predicate vs
# the naive per-session store, and a 64-session socket leg's wire
# bytes/predicate). `scripts/bench.sh multi-pump` labels an entry for
# that section; docs/multi-tenant.md quotes it.
#
# The `parallel_scaling` section measures the work-optimal parallel
# detector against the sequential token walk at n ∈ {8, 32, 128} ×
# threads ∈ {1, 2, 4, 8} (every width asserted bit-identical to the
# 1-thread run before its timing is recorded, work totals alongside).
# `scripts/bench.sh parallel` labels an entry for that section;
# docs/performance.md quotes its crossover table.
#
# The `ingest` section times what every offline detection pays before its
# detector runs — JSON parse, `validate`, `annotate` and the snapshot-queue
# build — at n ∈ {8, 32, 128} × 24 events; `scripts/bench.sh ingest`
# labels an entry for it, and docs/performance.md ("Trace ingest") quotes
# it. The `scoped-clocks-parent` and `scoped-clocks` entries are that
# section before and after annotation stopped writing clocks (the queue
# build now carries the scope's clock propagation); docs/performance.md
# ("Vector clocks only where a detector reads them") quotes them. The
# `arrivals-parent` and `arrivals` entries are the `multi_saturation`
# section before and after session deliveries stopped running the
# elimination loop unless they fill its last empty queue;
# docs/performance.md ("Deliveries wait on an empty queue") quotes them.
# Run the parent commit's harness with `bench BENCH_wcp.json --label
# LABEL` to add a `-parent` entry.
#
# This is informational tooling, NOT part of tier-1 verification
# (scripts/verify.sh); timings are machine-dependent and must never
# gate a build.
set -eu

cd "$(dirname "$0")/.."

label="${1:-current}"
out="${2:-BENCH_wcp.json}"

cargo run -p wcp-bench --bin harness --release --offline -q -- \
    bench "$out" --label "$label"
