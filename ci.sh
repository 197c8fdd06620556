#!/bin/bash
# Offline CI: tier-1 (build + full test suite), lint gate, the parallel
# determinism suite, and the fault-injected resilience suite. The build
# environment has no network, so everything runs with --offline against
# the committed Cargo.lock.
set -euo pipefail
cd "$(dirname "$0")"

echo "== tier-1: build =="
cargo build --release --offline --workspace

echo "== lint: rustfmt =="
# The tree is rustfmt-clean, so a change never has to reformat code it
# does not touch. A `lint:` marker that trails a line rustfmt would split
# or that ends in `{` goes on its own line above the code it blesses.
cargo fmt --all -- --check

echo "== lint: clippy -D warnings =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== lint: rls-lint baseline gate =="
# Project-specific invariants clippy cannot see: determinism, panic-safety,
# atomic-ordering audit, persistence hygiene. Fails only on findings not in
# the committed baseline; regenerate with --update-baseline after review.
cargo run -q -p rls-lint --offline -- --baseline lint-baseline.json

echo "== lint: concurrency gates =="
# The flow-aware families gate with NO baseline: lock-order cycles,
# blocking-under-lock, atomic-pairing mismatches, and fsync-less renames
# must be at absolute zero on the committed tree (DESIGN.md §13).
cargo run -q -p rls-lint --offline -- --only concurrency
cargo run -q -p rls-lint --offline -- --only persistence

echo "== tier-1: tests =="
cargo test -q --offline --workspace

echo "== determinism: threads=4 ≡ threads=1 (20 runs) =="
# Repeated because the suite shares one process-global obs collector
# across concurrently running tests: a stream that is not sealed at
# `finish` only fails some of the time.
for _ in $(seq 20); do
    cargo test -q --offline --test determinism
done

echo "== resilience: fault-injected recovery paths =="
# Also re-runs determinism with the hooks compiled in but disarmed:
# the fault-inject feature must be a no-op until a plan is armed.
# serve_chaos is the serve-layer harness: crash/restart recovery, journal
# crash windows, watchdog requeues, deadlines, and the stream-fault soak.
cargo test -q --offline --features fault-inject --test resilience --test determinism \
    --test serve_chaos

echo "== dispatch: schedule soak =="
# The dynamic complement of the flow-aware lint (DESIGN.md §13): each
# seed drives the shared pool through ≥100 provably distinct adversarial
# interleavings of submit/claim/drain/settle, every one byte-identical
# to the sequential oracle. A failing seed replays verbatim.
for seed in 11 1997 861551; do
    RLS_SCHED_SEED=$seed cargo test -q --offline --features fault-inject --test sched
done

echo "== fsim: thread matrix =="
# A full table run must be byte-identical at every thread count: the
# sequential engine and the pooled runner's test-block jobs run the same
# tile walk (one kernel word, every tile's height from the live count
# by one fill rule) and merge detections in the same order. s208's
# fault list spans several kernel chunks; the ablations binary adds the
# FreeRunning schedules, whose tiles are 1 tall. The kernel-shape axis
# (every lane word x tile height 1/2/4/8) lives in the soa oracle below.
THREAD_DIR=$(mktemp -d)
for t in 1 2 4; do
    RLS_THREADS=$t \
        cargo run -q --release --offline -p rls-bench --bin table6 -- s27 s208 \
        > "$THREAD_DIR/t$t.out" 2> /dev/null
    RLS_THREADS=$t \
        cargo run -q --release --offline -p rls-bench --bin ablations \
        > "$THREAD_DIR/ablations-t$t.out" 2> /dev/null
done
for t in 2 4; do
    cmp "$THREAD_DIR/t1.out" "$THREAD_DIR/t$t.out"
    cmp "$THREAD_DIR/ablations-t1.out" "$THREAD_DIR/ablations-t$t.out"
done
# Every thread count runs the one executor, so the normalized campaign
# records (trials, checkpoints, summary) must match byte for byte once
# line 1, the header that records `threads`, is dropped.
cargo build -q --release --offline -p rls-serve --example rls_client
for t in 1 2 4; do
    ./target/release/examples/rls_client direct --campaign-dir "$THREAD_DIR/direct-t$t" \
        --circuit s208 --la 2 --lb 3 --n 2 --max-iterations 2 --threads "$t" \
        2> /dev/null | tail -n +2 > "$THREAD_DIR/direct-t$t.out"
done
for t in 2 4; do
    cmp "$THREAD_DIR/direct-t1.out" "$THREAD_DIR/direct-t$t.out"
done
rm -rf "$THREAD_DIR"

echo "== fsim: soa oracle =="
# The SoA kernel's verification wall: the differential matrix against
# the serial one-fault-at-a-time reference (every s27 fault x every
# test, order-exact, at every lane word x tile height, under full,
# partial and multichain scan; s953 and s298 sampled; the engine and the
# pooled runner under the fill rule and dropping on s27, and on s208 and
# s298 through TS0 and derived sets, at budgets 1/2/4) plus
# the seeded mutation self-tests — each deliberate kernel corruption
# must turn the differential red, so the oracle is known to have teeth.
cargo test -q --offline --test soa_oracle
cargo test -q --offline --features kernel-mutate --test soa_oracle

echo "== fsim: fill-rule bench gate =="
# The production fill rule (KernelWord, tile heights from the live
# count) must hold up against the committed s953 measurement's own
# history: on each workload (TS0 against the full list, a derived set
# against the post-TS0 tail) its row must be present and within 1.25x
# of the fastest fixed-height row. Regenerate after kernel changes with
# `cargo run --release -p rls-bench --bin bench_fsim_lanes`.
cargo run -q --release --offline -p rls-bench --bin rls-report -- --lanes BENCH_fsim_lanes.json --gate

echo "== obs: smoke =="
# A real table run with tracing on: the metrics JSONL must appear, parse,
# and end with the summary line; the stderr sink must not disturb stdout.
OBS_DIR=$(mktemp -d)
RLS_OBS=1 RLS_OBS_SINK=jsonl RLS_THREADS=2 RLS_CAMPAIGN_DIR="$OBS_DIR" \
    cargo run -q --release --offline -p rls-bench --bin table6 -- s27 > "$OBS_DIR/table6.out"
OBS_STREAM=$(ls "$OBS_DIR"/obs-*.jsonl)
grep -q '"type":"obs"' "$OBS_STREAM"
grep -q '"name":"procedure2.run"' "$OBS_STREAM"
grep -q '"name":"dispatch.set"' "$OBS_STREAM"
tail -n 1 "$OBS_STREAM" | grep -q '"type":"obs_summary"'
grep -q 's27' "$OBS_DIR/table6.out"
rm -rf "$OBS_DIR"

echo "== obs: profile smoke =="
# Continuous profiling end to end: record a real s953 table run with the
# flight recorder armed, render the collapsed stacks plus the
# self-contained flamegraph SVG and the Chrome trace, and gate the
# per-phase self-time shares against the committed
# BENCH_phase_profile.json (regenerate after an intentional phase shift
# with `rls-report --phase-profile`). The recorder must also never
# change results: a table run with RLS_RECORD=1 is byte-identical to
# one without.
PROF_DIR=$(mktemp -d)
RLS_OBS=1 RLS_OBS_SINK=jsonl RLS_RECORD=1 RLS_THREADS=2 RLS_CAMPAIGN_DIR="$PROF_DIR" \
    cargo run -q --release --offline -p rls-bench --bin table6 -- s953 \
    > "$PROF_DIR/recorded.out" 2> /dev/null
PROF_STREAM=$(ls "$PROF_DIR"/obs-*.jsonl)
RLS_REPORT=./target/release/rls-report
"$RLS_REPORT" --flamegraph "$PROF_STREAM" --svg "$PROF_DIR/flame.svg" \
    > "$PROF_DIR/collapsed.txt" 2> /dev/null
grep -q 'bench.table;bench.circuit' "$PROF_DIR/collapsed.txt"
head -n 1 "$PROF_DIR/flame.svg" | grep -q '^<svg xmlns'
! grep -q '<script' "$PROF_DIR/flame.svg"
"$RLS_REPORT" --trace "$PROF_STREAM" | grep -q '"traceEvents"'
"$RLS_REPORT" --gate "$PROF_STREAM" BENCH_phase_profile.json
RLS_RECORD=1 RLS_THREADS=2 \
    cargo run -q --release --offline -p rls-bench --bin table6 -- s27 \
    > "$PROF_DIR/rec-on.out" 2> /dev/null
RLS_THREADS=2 cargo run -q --release --offline -p rls-bench --bin table6 -- s27 \
    > "$PROF_DIR/rec-off.out" 2> /dev/null
cmp "$PROF_DIR/rec-on.out" "$PROF_DIR/rec-off.out"
rm -rf "$PROF_DIR"

echo "== serve: smoke =="
# The campaign server end to end through the real binary: two concurrent
# campaigns multiplexed over one shared pool must each be byte-identical
# to a direct run of the same configuration, and a shutdown request must
# drain to a clean exit that removes the socket.
cargo build -q --release --offline -p rls-serve --example rls_client
SERVE_DIR=$(mktemp -d)
./target/release/rls-serve --socket "$SERVE_DIR/rls.sock" --threads 3 \
    --max-inflight 4 --campaign-dir "$SERVE_DIR/served" 2> "$SERVE_DIR/server.log" &
SERVE_PID=$!
for _ in $(seq 50); do [ -S "$SERVE_DIR/rls.sock" ] && break; sleep 0.1; done
RLS_CLIENT=./target/release/examples/rls_client
"$RLS_CLIENT" run --socket "$SERVE_DIR/rls.sock" --circuit s27 \
    --la 4 --lb 8 --n 8 --threads 2 --normalize > "$SERVE_DIR/served-s27.txt" 2>/dev/null &
C1=$!
"$RLS_CLIENT" run --socket "$SERVE_DIR/rls.sock" --circuit s208 \
    --la 2 --lb 3 --n 2 --threads 2 --max-iterations 2 --normalize \
    > "$SERVE_DIR/served-s208.txt" 2>/dev/null &
C2=$!
wait "$C1" "$C2"
"$RLS_CLIENT" direct --campaign-dir "$SERVE_DIR/direct-s27" --circuit s27 \
    --la 4 --lb 8 --n 8 --threads 2 > "$SERVE_DIR/direct-s27.txt" 2>/dev/null
"$RLS_CLIENT" direct --campaign-dir "$SERVE_DIR/direct-s208" --circuit s208 \
    --la 2 --lb 3 --n 2 --threads 2 --max-iterations 2 \
    > "$SERVE_DIR/direct-s208.txt" 2>/dev/null
cmp "$SERVE_DIR/served-s27.txt" "$SERVE_DIR/direct-s27.txt"
cmp "$SERVE_DIR/served-s208.txt" "$SERVE_DIR/direct-s208.txt"
"$RLS_CLIENT" shutdown --socket "$SERVE_DIR/rls.sock" > /dev/null
wait "$SERVE_PID"
[ ! -e "$SERVE_DIR/rls.sock" ]
rm -rf "$SERVE_DIR"

echo "== serve: chaos smoke =="
# Crash-only service through the real binaries: kill -9 a fault-slowed
# server mid-campaign, restart it over the same directory, and the
# journaled orphan must be recovered unprompted — an attach by the
# original run id collects bytes identical to an uninterrupted direct run.
cargo build -q --release --offline --features fault-inject -p rls-serve
CHAOS_DIR=$(mktemp -d)
RLS_CHAOS="job_delay=1:40" ./target/release/rls-serve --socket "$CHAOS_DIR/rls.sock" \
    --threads 2 --max-inflight 4 --campaign-dir "$CHAOS_DIR/served" \
    2> "$CHAOS_DIR/server1.log" &
SERVE_PID=$!
for _ in $(seq 50); do [ -S "$CHAOS_DIR/rls.sock" ] && break; sleep 0.1; done
"$RLS_CLIENT" run --socket "$CHAOS_DIR/rls.sock" --circuit s208 --la 2 --lb 3 --n 2 \
    --threads 2 --retries 0 > /dev/null 2>&1 &
C1=$!
for _ in $(seq 100); do
    grep -qs '"type":"checkpoint"' "$CHAOS_DIR/served/"campaign-*.jsonl && break
    sleep 0.1
done
grep -qs '"type":"checkpoint"' "$CHAOS_DIR/served/"campaign-*.jsonl
kill -9 "$SERVE_PID"
wait "$SERVE_PID" 2> /dev/null || true
wait "$C1" 2> /dev/null || true
RUN_ID=$(sed -n 's/.*"run_id":"\([^"]*\)".*/\1/p' "$CHAOS_DIR/served/serve-journal.jsonl" | head -n 1)
./target/release/rls-serve --socket "$CHAOS_DIR/rls.sock" --threads 2 \
    --max-inflight 4 --campaign-dir "$CHAOS_DIR/served" 2> "$CHAOS_DIR/server2.log" &
SERVE_PID=$!
for _ in $(seq 50); do [ -S "$CHAOS_DIR/rls.sock" ] && break; sleep 0.1; done
"$RLS_CLIENT" attach --socket "$CHAOS_DIR/rls.sock" --run-id "$RUN_ID" --normalize \
    > "$CHAOS_DIR/recovered.txt" 2> /dev/null
"$RLS_CLIENT" direct --campaign-dir "$CHAOS_DIR/direct" --circuit s208 --la 2 --lb 3 --n 2 \
    --threads 2 > "$CHAOS_DIR/direct.txt" 2> /dev/null
cmp "$CHAOS_DIR/recovered.txt" "$CHAOS_DIR/direct.txt"
"$RLS_CLIENT" shutdown --socket "$CHAOS_DIR/rls.sock" > /dev/null
wait "$SERVE_PID"
rm -rf "$CHAOS_DIR"

echo "CI OK"
