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
# must be at absolute zero on the committed tree (DESIGN.md §11).
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
cargo test -q --offline --features fault-inject --test resilience --test determinism

echo "== dispatch: schedule soak =="
# The dynamic complement of the flow-aware lint (DESIGN.md §11): each
# seed drives the worker pool through ≥100 provably distinct adversarial
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
# (fixed tile heights 1/2/3/4/8 x fault-chunk lengths on the one kernel
# word) lives in the soa oracle below.
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
# The campaign records themselves are compared across 1/2/4 threads by
# tests/determinism.rs (campaign_records_are_identical_across_threads).
rm -rf "$THREAD_DIR"

echo "== results: committed extension and Table 5 output =="
# partial_scan and multichain run Procedure 2 on a partial-scan chain and
# on multiple short chains; their committed tables pin that one flow byte
# for byte, beside table5's closed-form ranking. table1 pins the serial
# scan path (GoodSim through the chain map) and at_speed the transition
# simulator, which shifts its 64-lane words through the same map. A
# table5 argument that is not an N_SV value, or a table6 argument that
# names no circuit, must print the usage line and exit 2, not panic; an
# RLS_MAX_TRIES that is not a positive integer must exit 2 with an [exec]
# message.
RESULTS_DIR=$(mktemp -d)
for bin in partial_scan multichain table5 table1 at_speed; do
    cargo run -q --release --offline -p rls-bench --bin "$bin" \
        > "$RESULTS_DIR/$bin.txt" 2> /dev/null
    cmp "$RESULTS_DIR/$bin.txt" "results/$bin.txt"
done
status=0
./target/release/table5 s27 > /dev/null 2> "$RESULTS_DIR/table5-usage.err" || status=$?
[ "$status" -eq 2 ]
grep -q 'usage: table5' "$RESULTS_DIR/table5-usage.err"
if grep -q 'panicked' "$RESULTS_DIR/table5-usage.err"; then exit 1; fi
# Likewise an unknown circuit name, checked before any circuit runs.
status=0
./target/release/table6 nosuch > /dev/null 2> "$RESULTS_DIR/table6-usage.err" || status=$?
[ "$status" -eq 2 ]
grep -q 'usage: table6' "$RESULTS_DIR/table6-usage.err"
if grep -q 'panicked' "$RESULTS_DIR/table6-usage.err"; then exit 1; fi
for tries in abc 0; do
    status=0
    RLS_MAX_TRIES=$tries ./target/release/table6 s27 > /dev/null \
        2> "$RESULTS_DIR/table6-tries.err" || status=$?
    [ "$status" -eq 2 ]
    grep -q '^\[exec\] invalid RLS_MAX_TRIES' "$RESULTS_DIR/table6-tries.err"
    if grep -q 'panicked' "$RESULTS_DIR/table6-tries.err"; then exit 1; fi
done
rm -rf "$RESULTS_DIR"

echo "== fsim: soa oracle =="
# The SoA kernel's verification wall: the differential matrix against
# the serial one-fault-at-a-time reference (every s27 fault x every
# test, order-exact, on the one kernel word at every fixed tile height
# 1/2/3/4/8 x whole-tile and 7-fault chunks, under full,
# partial and multichain scan; s953 and s298 sampled; the engine and the
# pooled runner under the fill rule and dropping on s27, and on s208 and
# s298 through TS0 and derived sets, at 1/2/4 threads) plus
# the seeded mutation self-tests — each deliberate kernel corruption
# must turn the differential red, so the oracle is known to have teeth.
cargo test -q --offline --test soa_oracle
cargo test -q --offline --features kernel-mutate --test soa_oracle

echo "== fsim: fill-rule bench gate =="
# The production fill rule (tile heights from the live count) must hold
# up against the committed s953 measurement of the one kernel word at
# fixed heights 1/2/4/8: on each workload (TS0 against the full list, a
# derived set against the post-TS0 tail) its row must be present and
# within 1.25x of the fastest fixed-height row. Regenerate after kernel changes with
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
# Every durable file was published whole: no hidden temp file is left,
# and the run's campaign record reads back through rls-report.
[ -z "$(find "$OBS_DIR" -name '.*.tmp')" ]
CAMPAIGN_FILES=("$OBS_DIR"/campaign-s27-2t-*.jsonl)
CAMPAIGN_FILE=${CAMPAIGN_FILES[0]}
[ -f "$CAMPAIGN_FILE" ]
cargo run -q --release --offline -p rls-bench --bin rls-report -- \
    "$CAMPAIGN_FILE" "$CAMPAIGN_FILE" > /dev/null
rm -rf "$OBS_DIR"

echo "== obs: profile smoke =="
# Continuous profiling end to end: record a real s953 table run with the
# flight recorder armed, render the collapsed stacks plus the
# self-contained flamegraph SVG and the Chrome trace, and gate the
# per-phase self-time shares against the committed
# BENCH_phase_profile.json (regenerate after an intentional phase shift
# with `rls-report --phase-profile`). The recorder must also never
# change results: a table run with RLS_RECORD=1 is byte-identical to
# one without. The run's s953 row (and its detectable target) must be
# the committed one in results/table6.txt: this pins the PODEM target
# pass, classified on every core, on a circuit with redundant and
# aborted faults. The committed table drops the TS0 cycles and ls columns.
# The pass's summed search effort is pinned exactly too: the decision and
# backtrack counts depend only on the circuit, the faults and the limit,
# not on the width, so a change to the engine that moves them has changed
# the search, not only its speed.
PROF_DIR=$(mktemp -d)
RLS_OBS=1 RLS_OBS_SINK=jsonl RLS_RECORD=1 RLS_THREADS=2 RLS_CAMPAIGN_DIR="$PROF_DIR" \
    cargo run -q --release --offline -p rls-bench --bin table6 -- s953 \
    > "$PROF_DIR/recorded.out" 2> "$PROF_DIR/recorded.err"
awk '$1 == "s953" { print $1, $2, $3, $5, $6, $7, $9 }' "$PROF_DIR/recorded.out" \
    > "$PROF_DIR/s953.row"
awk '$1 == "s953" { print $1, $2, $3, $4, $5, $7, $8 }' results/table6.txt \
    > "$PROF_DIR/s953.committed"
[ -s "$PROF_DIR/s953.row" ]
cmp "$PROF_DIR/s953.row" "$PROF_DIR/s953.committed"
S953_TARGET=$(awk '$1 == "s953" { print $6 }' results/table6.txt)
grep -q "^\[s953\] faults: $S953_TARGET detectable," "$PROF_DIR/recorded.err"
PROF_STREAM=$(ls "$PROF_DIR"/obs-*.jsonl)
grep -qx '{"type":"metric","kind":"counter","name":"atpg.decisions","value":828498}' "$PROF_STREAM"
grep -qx '{"type":"metric","kind":"counter","name":"atpg.backtracks","value":789942}' "$PROF_STREAM"
RLS_REPORT=./target/release/rls-report
"$RLS_REPORT" --flamegraph "$PROF_STREAM" --svg "$PROF_DIR/flame.svg" \
    > "$PROF_DIR/collapsed.txt" 2> /dev/null
grep -q 'bench.table;bench.circuit' "$PROF_DIR/collapsed.txt"
head -n 1 "$PROF_DIR/flame.svg" | grep -q '^<svg xmlns'
if grep -q '<script' "$PROF_DIR/flame.svg"; then exit 1; fi
"$RLS_REPORT" --trace "$PROF_STREAM" | grep -q '"traceEvents"'
"$RLS_REPORT" --gate "$PROF_STREAM" BENCH_phase_profile.json
RLS_RECORD=1 RLS_THREADS=2 \
    cargo run -q --release --offline -p rls-bench --bin table6 -- s27 \
    > "$PROF_DIR/rec-on.out" 2> /dev/null
RLS_THREADS=2 cargo run -q --release --offline -p rls-bench --bin table6 -- s27 \
    > "$PROF_DIR/rec-off.out" 2> /dev/null
cmp "$PROF_DIR/rec-on.out" "$PROF_DIR/rec-off.out"
rm -rf "$PROF_DIR"

echo "== docs: rustdoc -D warnings =="
# Every intra-doc link resolves and no public doc links a private item,
# so a deletion that leaves a link dangling fails here.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

echo "CI OK"
