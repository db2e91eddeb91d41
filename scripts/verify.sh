#!/bin/sh
# Tier-1 verification: hermetic (offline) build, full workspace test run,
# formatting check and clippy lint gate. This is the command CI and every
# PR must keep green; see ROADMAP.md.
set -eu

cd "$(dirname "$0")/.."

echo "== no tracked build artifacts =="
if git ls-files -- 'target/*' | grep -q .; then
    echo "error: build artifacts under target/ are tracked by git:" >&2
    git ls-files -- 'target/*' | head >&2
    echo "run: git rm -r --cached target/" >&2
    exit 1
fi

echo "== cargo build --release --offline =="
cargo build --workspace --release --offline

echo "== cargo test --workspace --offline =="
cargo test --workspace --offline -q

echo "== perfbench self-tests (toy size) =="
# perfbench/ builds against the workspace crates by path, so a public-API
# change that breaks its adapter (perfbench/src/system.rs) fails here, not
# first when the benchmark runs. --locked leaves perfbench/Cargo.lock as is.
cargo test --release --offline --locked --manifest-path perfbench/Cargo.toml

echo "== fuzz smoke campaign (fixed seed, bounded) =="
# Differential conformance sweep: every detector family cross-checked on
# 50 seeded cases; exits nonzero (failing this script) on any divergence.
# A case that draws the socket leg runs the simulator leg's list of online
# families over loopback peers and again over in-process TCP peers: the
# four detector families (token, multi-token, checker, direct with and
# without the §4.5 chain), each hosting the layout the simulator hosts.
# Every net case runs batched writes and the one bit-packed wire
# encoding, its clocks delta-compressed.
./target/release/wcp fuzz --seed 1 --cases 50 --shrink

echo "== fuzz multi-tenant smoke slice =="
# Session-layer conformance: the offline multi-predicate cross-check runs
# on every case above already, and so does the mid-stream registration
# check: an engine takes every stream one snapshot at a time with a pump
# after each, and half the predicates register only once half of every
# stream is in (a pump after each), so scope classes are built from the
# store origin or replayed mid-stream, and each session must match its
# standalone run. --multi additionally forces the socket-backed session
# service leg on each case, pinning every session's verdict and metrics
# to the standalone detectors under the case's fault schedule, and
# --pump-parallel forces the parallel-pump cross-check (4 workers,
# bit-identical report) on every case instead of the random per-case
# draw. --parallel-detect likewise
# forces the work-optimal detector's multi-thread leg (1 vs 4 workers,
# verdict + metrics + event stream bit-identical) on every case — the
# "parallel" battery detector itself already runs on every case above,
# cross-checked against the Theorem 3.2 oracle.
./target/release/wcp fuzz --seed 3 --cases 25 --shrink --multi --pump-parallel --parallel-detect

echo "== fuzz bound-audit smoke slice =="
# Paper-bound auditing over the telemetry plane: every case's per-monitor
# streams go through the telemetry delta codec (each must decode to the
# events it encoded), and the merged timeline is checked against the §3.4
# message/bit/latency bounds. Smaller slice (the audit adds a recorded
# run per case); any codec mismatch or bound violation is a divergence
# and fails this script.
./target/release/wcp fuzz --seed 2 --cases 25 --no-net --audit-bounds

echo "== EXPERIMENTS.md matches harness all =="
# The captured tables of EXPERIMENTS.md are the verbatim output of
# `harness all`, which is deterministic (simulated time and paper units
# only). A change that moves a number must regenerate them and say why.
./target/release/harness all 2>/dev/null > target/harness-all.md
if ! sed '1,/^## Captured tables$/d' EXPERIMENTS.md | tail -n +2 |
    diff -u - target/harness-all.md; then
    echo "error: EXPERIMENTS.md's captured tables differ from 'harness all'" >&2
    echo "regenerate them: ./target/release/harness all" >&2
    exit 1
fi

echo "== fuzz corpus replay + schema drift guard =="
# Every pinned repro in tests/corpus/ must still parse and replay clean;
# a corpus file that no longer parses fails here, loudly.
if [ -z "$(ls tests/corpus/*.json 2>/dev/null)" ]; then
    echo "error: tests/corpus/ is empty — the regression corpus must stay non-empty" >&2
    exit 1
fi
cargo test --offline -q --test fuzz_corpus

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy -D warnings =="
# Lint gate over every target (tests, examples, benches included).
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== rustdoc -D warnings =="
# Doc gate: a broken, ambiguous or redundant intra-doc link, or public
# docs linking a private item, fails here (about 5 s from cold).
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "verify: OK"
