//! The SoA kernel's verification wall: a differential oracle that
//! compares the levelized SoA tile kernel byte-for-byte against the
//! legacy gate-walking kernel across the full (lane width × tile height
//! × thread count) matrix, plus seeded mutation self-tests proving the
//! oracle turns red when the kernel is deliberately broken.
//!
//! s27 is checked exhaustively — every fault of the universe against
//! every test, order-exact — on a mixed test set (flat TS0 tests plus
//! shift-schedule groups, so tiling has both packable runs and
//! stragglers). s953 is sampled (every third fault, order-exact). The
//! engine- and dispatch-level tests add fault dropping and the thread
//! axis on top of the raw kernel comparison.
//!
//! The mutation self-tests compile only under `--features kernel-mutate`:
//! each armed corruption must flip the differential red on the very
//! inputs that stay green for the unmutated kernel — a differential
//! harness that cannot catch a wrong opcode proves nothing.

use random_limited_scan::core::{generate_ts0, RlsConfig};
use random_limited_scan::dispatch::{
    CompiledCircuit, SharedPool, SharedSetRunner, SharedSimContext,
};
use rls_fsim::{
    simulate_batch, simulate_tile_at, tile_compatible, Fault, FaultId, FaultSimulator,
    FaultUniverse, GoodSim, LaneWidth, ScanTest, ShiftOp, SimKernel, SimOptions, TestTrace,
    PATTERN_LANES_ALL,
};
use rls_netlist::{Circuit, LevelizedCircuit};

/// Every stuck-at fault of the circuit, in enumeration order.
fn universe_pairs(c: &Circuit) -> Vec<(FaultId, Fault)> {
    FaultUniverse::enumerate(c)
        .faults()
        .iter()
        .enumerate()
        .map(|(i, &f)| (FaultId(i as u32), f))
        .collect()
}

/// A mixed s27 test set: the flat TS0 tests (one shared shape, so tiles
/// pack to full height) plus two shift-schedule groups and a straggler
/// whose schedule matches nothing else.
fn mixed_s27_tests(c: &Circuit) -> Vec<ScanTest> {
    let cfg = RlsConfig::new(4, 8, 8);
    let mut tests = generate_ts0(c, &cfg);
    let base: Vec<Vec<bool>> = tests[0].vectors.clone();
    let shifted = |scan_in: &[bool], shifts: Vec<ShiftOp>| {
        ScanTest::new(scan_in.to_vec(), base.clone())
            .with_shifts(shifts)
            .expect("interior units are valid")
    };
    // Group A: three tests sharing one schedule (tiles of height <= 3).
    for scan_in in [[true, false, true], [false, true, true], [true, true, false]] {
        tests.push(shifted(
            &scan_in,
            vec![ShiftOp { at: 2, amount: 2, fill: vec![true, false] }],
        ));
    }
    // Group B: two tests on a different schedule (same `at`, different
    // amount — shape-incompatible with group A).
    for scan_in in [[false, false, true], [true, false, false]] {
        tests.push(shifted(
            &scan_in,
            vec![ShiftOp { at: 2, amount: 1, fill: vec![true] }],
        ));
    }
    // Straggler: a schedule nothing else shares, always a 1-tall tile.
    tests.push(shifted(
        &[false, true, false],
        vec![ShiftOp { at: 1, amount: 3, fill: vec![false, true, true] }],
    ));
    tests
}

/// Greedy shape-compatible grouping, mirroring the dispatch tiler: runs
/// of consecutive compatible tests, capped at `height`.
fn tile_runs(tests: &[ScanTest], height: usize) -> Vec<(usize, usize)> {
    let cap = height.max(1);
    let mut runs = Vec::new();
    let mut i = 0;
    while i < tests.len() {
        let mut j = i + 1;
        while j < tests.len() && j - i < cap && tile_compatible(&tests[i], &tests[j]) {
            j += 1;
        }
        runs.push((i, j));
        i = j;
    }
    runs
}

/// Per-test detections from the SoA tile kernel at one (width, height)
/// configuration, chunking faults so every tile fits the word.
fn soa_per_test(
    lc: &LevelizedCircuit,
    good: &GoodSim<'_>,
    tests: &[ScanTest],
    traces: &[TestTrace],
    pairs: &[(FaultId, Fault)],
    width: LaneWidth,
    height: usize,
) -> Vec<Vec<FaultId>> {
    let mut per_test: Vec<Vec<FaultId>> = vec![Vec::new(); tests.len()];
    for (lo, hi) in tile_runs(tests, height) {
        let tile_tests: Vec<&ScanTest> = tests[lo..hi].iter().collect();
        let tile_traces: Vec<&TestTrace> = traces[lo..hi].iter().collect();
        let h = hi - lo;
        for chunk in pairs.chunks(width.lanes() / h) {
            let per_pattern = simulate_tile_at(
                width,
                lc,
                good,
                &tile_tests,
                &tile_traces,
                chunk,
                SimOptions::default(),
            );
            for (p, det) in per_pattern.into_iter().enumerate() {
                per_test[lo + p].extend(det);
            }
        }
    }
    per_test
}

/// The serial legacy reference: one fault at a time through the
/// gate-walking kernel, detections in candidate order.
fn serial_reference(
    good: &GoodSim<'_>,
    test: &ScanTest,
    trace: &TestTrace,
    pairs: &[(FaultId, Fault)],
) -> Vec<FaultId> {
    pairs
        .iter()
        .flat_map(|&(id, f)| simulate_batch(good, test, trace, &[(id, f)]))
        .collect()
}

#[test]
fn s27_exhaustive_differential_matrix() {
    // Every fault x every test, order-exact, at every lane width and
    // every tile height — the full kernel-level differential.
    let c = random_limited_scan::benchmarks::s27();
    let tests = mixed_s27_tests(&c);
    let pairs = universe_pairs(&c);
    let good = GoodSim::new(&c);
    let lc = LevelizedCircuit::build(&c, good.levelization());
    let traces: Vec<TestTrace> = tests.iter().map(|t| good.simulate_test(t)).collect();
    let reference: Vec<Vec<FaultId>> = tests
        .iter()
        .zip(&traces)
        .map(|(t, tr)| serial_reference(&good, t, tr, &pairs))
        .collect();
    assert!(
        reference.iter().any(|r| !r.is_empty()),
        "the exhaustive matrix must exercise real detections"
    );
    for width in LaneWidth::ALL {
        for &height in &PATTERN_LANES_ALL {
            let soa = soa_per_test(&lc, &good, &tests, &traces, &pairs, width, height);
            assert_eq!(
                soa, reference,
                "width {width} x height {height}: SoA diverged from the serial legacy kernel"
            );
        }
    }
}

#[test]
fn s953_sampled_differential_is_order_exact() {
    // A real-profile circuit, sampled: every third fault against three
    // TS0 tests. Three tests make the tile heights ragged (3 % 2, 3 % 4)
    // on top of the ragged fault chunks.
    let c = random_limited_scan::benchmarks::by_name("s953").expect("s953 exists");
    let cfg = RlsConfig::new(8, 16, 8);
    let tests: Vec<ScanTest> = generate_ts0(&c, &cfg).into_iter().take(3).collect();
    let pairs: Vec<(FaultId, Fault)> = universe_pairs(&c).into_iter().step_by(3).collect();
    assert!(
        pairs.len() > LaneWidth::W512.lanes() / 2,
        "the sample must span several tiles even at the widest kernel"
    );
    let good = GoodSim::new(&c);
    let lc = LevelizedCircuit::build(&c, good.levelization());
    let traces: Vec<TestTrace> = tests.iter().map(|t| good.simulate_test(t)).collect();
    let reference: Vec<Vec<FaultId>> = tests
        .iter()
        .zip(&traces)
        .map(|(t, tr)| serial_reference(&good, t, tr, &pairs))
        .collect();
    assert!(reference.iter().any(|r| !r.is_empty()));
    for width in LaneWidth::ALL {
        for &height in &PATTERN_LANES_ALL {
            let soa = soa_per_test(&lc, &good, &tests, &traces, &pairs, width, height);
            assert_eq!(
                soa, reference,
                "s953 width {width} x height {height}: SoA diverged"
            );
        }
    }
}

#[test]
fn engine_matrix_matches_the_legacy_kernel_under_dropping() {
    // The engine layers fault dropping and collapsing on the kernel; the
    // detection *sequence* (not just the set) must be invariant across
    // the whole configuration matrix.
    let c = random_limited_scan::benchmarks::s27();
    let tests = mixed_s27_tests(&c);
    let mut baseline = FaultSimulator::new(&c);
    baseline.set_kernel(SimKernel::Legacy);
    baseline.set_lane_width(LaneWidth::W64);
    baseline.run_tests(&tests);
    assert!(baseline.detected_count() > 0);
    for width in LaneWidth::ALL {
        for &height in &PATTERN_LANES_ALL {
            let mut sim = FaultSimulator::new(&c);
            sim.set_kernel(SimKernel::Soa);
            sim.set_lane_width(width);
            sim.set_pattern_lanes(height);
            sim.run_tests(&tests);
            assert_eq!(
                sim.detected(),
                baseline.detected(),
                "width {width} x height {height}: detection sequence diverged from legacy/64"
            );
        }
    }
}

#[test]
fn dispatch_thread_matrix_matches_the_engine() {
    // The pooled runner tiles tests across the shared pool's workers; its
    // surviving live list must equal the sequential engine's at every
    // (width, height, threads) point.
    let c = random_limited_scan::benchmarks::s27();
    let tests = mixed_s27_tests(&c);
    let mut engine = FaultSimulator::new(&c);
    engine.set_kernel(SimKernel::Legacy);
    engine.run_tests(&tests);
    let live = engine.live().to_vec();
    let detected = engine.detected_count();
    let compiled = CompiledCircuit::compile(c.clone()).expect("s27 is acyclic");
    let compiled = std::sync::Arc::new(compiled);
    for width in [LaneWidth::W64, LaneWidth::W512] {
        for height in [1, 4] {
            for threads in [1, 4] {
                let ctx = SharedSimContext::new(compiled.clone(), SimOptions::default())
                    .with_lane_width(width)
                    .with_pattern_lanes(height);
                let pool = SharedPool::new(threads);
                let mut runner = SharedSetRunner::new(ctx.into(), pool.register(threads));
                let count = runner.try_run_set(&tests).expect("no job fails").len();
                let pooled_live = runner.live().to_vec();
                assert_eq!(
                    (count, &pooled_live),
                    (detected, &live),
                    "width {width} x height {height} x {threads} thread(s)"
                );
            }
        }
    }
}

/// Mutation self-tests: the oracle must catch a deliberately broken
/// kernel. Each test arms one seeded corruption, re-runs the exact
/// differential that passes above, and demands red; disarming must
/// restore green on the same thread.
#[cfg(feature = "kernel-mutate")]
mod mutation {
    use super::*;
    use rls_fsim::soa::mutate::{arm, KernelMutation};

    /// Everything the differential needs, precomputed once per test.
    struct Diff {
        c: Circuit,
        tests: Vec<ScanTest>,
        pairs: Vec<(FaultId, Fault)>,
    }

    impl Diff {
        fn s27() -> Diff {
            let c = random_limited_scan::benchmarks::s27();
            let tests = mixed_s27_tests(&c);
            let pairs = universe_pairs(&c);
            Diff { c, tests, pairs }
        }

        /// Runs the s27 differential at 64 lanes x height 2 and reports
        /// whether the SoA kernel still matches the serial legacy
        /// reference. The reference is computed while *disarmed* so only
        /// the kernel under test is mutated.
        fn is_green(&self) -> bool {
            let good = GoodSim::new(&self.c);
            let lc = LevelizedCircuit::build(&self.c, good.levelization());
            let traces: Vec<TestTrace> =
                self.tests.iter().map(|t| good.simulate_test(t)).collect();
            let armed = rls_fsim::soa::mutate::armed();
            arm(None);
            let reference: Vec<Vec<FaultId>> = self
                .tests
                .iter()
                .zip(&traces)
                .map(|(t, tr)| serial_reference(&good, t, tr, &self.pairs))
                .collect();
            arm(armed);
            let soa = soa_per_test(
                &lc,
                &good,
                &self.tests,
                &traces,
                &self.pairs,
                LaneWidth::W64,
                2,
            );
            soa == reference
        }
    }

    #[test]
    fn unmutated_tree_stays_green() {
        arm(None);
        assert!(Diff::s27().is_green(), "the differential must pass unmutated");
    }

    #[test]
    fn wrong_opcode_turns_the_oracle_red() {
        let diff = Diff::s27();
        let gates = diff.c.num_gates();
        let red = (0..gates).any(|g| {
            arm(Some(KernelMutation::WrongOpcode(g)));
            let green = diff.is_green();
            arm(None);
            !green
        });
        assert!(red, "no opcode swap over {gates} gates turned the oracle red");
        assert!(diff.is_green(), "disarming must restore green");
    }

    #[test]
    fn swapped_fanin_window_turns_the_oracle_red() {
        let diff = Diff::s27();
        let gates = diff.c.num_gates();
        let red = (0..gates).any(|g| {
            arm(Some(KernelMutation::SwappedFaninWindow(g)));
            let green = diff.is_green();
            arm(None);
            !green
        });
        assert!(red, "no fanin-window shift over {gates} gates turned the oracle red");
        assert!(diff.is_green(), "disarming must restore green");
    }

    #[test]
    fn level_barrier_skew_turns_the_oracle_red() {
        let diff = Diff::s27();
        arm(Some(KernelMutation::LevelBarrierSkew));
        let green = diff.is_green();
        arm(None);
        assert!(!green, "a skewed patch barrier must not survive the differential");
        assert!(diff.is_green(), "disarming must restore green");
    }

    #[test]
    fn detect_mask_short_drops_the_last_lane() {
        // The short mask silently drops the *last* (pattern, fault) lane,
        // so the differential only reddens when that lane would have
        // detected. Arrange exactly that: a single-test tile whose final
        // candidate is a known-detected fault.
        let diff = Diff::s27();
        let good = GoodSim::new(&diff.c);
        let lc = LevelizedCircuit::build(&diff.c, good.levelization());
        let test = &diff.tests[0];
        let trace = good.simulate_test(test);
        arm(None);
        let detected = serial_reference(&good, test, &trace, &diff.pairs);
        let last = *detected.last().expect("s27 TS0 detects faults");
        let mut chunk: Vec<(FaultId, Fault)> = diff
            .pairs
            .iter()
            .filter(|&&(id, _)| id != last)
            .take(LaneWidth::W64.lanes() - 1)
            .copied()
            .collect();
        chunk.push(
            *diff
                .pairs
                .iter()
                .find(|&&(id, _)| id == last)
                .expect("the detected fault is in the universe"),
        );
        let run = |armed| {
            arm(armed);
            let out = simulate_tile_at(
                LaneWidth::W64,
                &lc,
                &good,
                &[test],
                &[&trace],
                &chunk,
                SimOptions::default(),
            );
            arm(None);
            out
        };
        let clean = run(None);
        assert!(
            clean[0].contains(&last),
            "the staged last lane must detect when unmutated"
        );
        let short = run(Some(KernelMutation::DetectMaskShort));
        assert!(
            !short[0].contains(&last),
            "the short mask must drop the last lane's detection"
        );
        assert_ne!(short, clean, "the oracle sees the dropped lane");
    }
}
