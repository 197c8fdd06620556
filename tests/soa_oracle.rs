//! The SoA kernel's verification wall: a differential oracle that
//! compares the levelized SoA tile kernel byte-for-byte against the
//! legacy gate-walking kernel and against the serial good-versus-faulty
//! trace comparison, across the full (lane width × tile height ×
//! observation mix × thread count) matrix, plus seeded mutation
//! self-tests proving the oracle turns red when the kernel is
//! deliberately broken.
//!
//! s27 is checked exhaustively — every fault of the universe against
//! every test, order-exact — on a mixed test set (flat TS0 tests plus
//! shift-schedule groups, so tiling has both packable runs and
//! stragglers). The serial trace comparison shares no code with either
//! kernel's reference-lane or good-trace handling, so it checks the SoA
//! kernel's in-word fault-free machine independently. s953 is sampled
//! (every third fault, order-exact). The engine- and dispatch-level tests
//! add fault dropping and the thread axis on top of the raw kernel
//! comparison.
//!
//! The mutation self-tests compile only under `--features kernel-mutate`:
//! each armed corruption must flip the differential red on the very
//! inputs that stay green for the unmutated kernel — a differential
//! harness that cannot catch a wrong opcode proves nothing.

use random_limited_scan::core::{generate_ts0, RlsConfig};
use random_limited_scan::dispatch::{
    CompiledCircuit, SharedPool, SharedSetRunner, SharedSimContext,
};
use rls_fsim::good::traces_differ;
use rls_fsim::{
    simulate_batch, simulate_tile_at, tile_compatible, tile_fault_capacity, Fault, FaultId,
    FaultSimulator, FaultUniverse, GoodSim, LaneWidth, ScanTest, ShiftOp, SimKernel, SimOptions,
    TestTrace, PATTERN_LANES_ALL,
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
/// configuration, chunking faults so every tile (one reference lane plus
/// the fault lanes per pattern) fits the word.
fn soa_per_test(
    c: &Circuit,
    tests: &[ScanTest],
    pairs: &[(FaultId, Fault)],
    width: LaneWidth,
    height: usize,
    opts: SimOptions,
) -> Vec<Vec<FaultId>> {
    let lc = LevelizedCircuit::build(c, &c.levelize().expect("benchmarks are acyclic"));
    let mut per_test: Vec<Vec<FaultId>> = vec![Vec::new(); tests.len()];
    for (lo, hi) in tile_runs(tests, height) {
        let tile_tests: Vec<&ScanTest> = tests[lo..hi].iter().collect();
        for chunk in pairs.chunks(tile_fault_capacity(width, hi - lo)) {
            let per_pattern = simulate_tile_at(width, c, &lc, &tile_tests, chunk, opts);
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
    pairs: &[(FaultId, Fault)],
) -> Vec<FaultId> {
    let trace = good.simulate_test(test);
    pairs
        .iter()
        .flat_map(|&(id, f)| simulate_batch(good, test, &trace, &[(id, f)]))
        .collect()
}

/// Whether a faulty trace differs from the good one at an observation
/// point `opts` enables; with every point on this is [`traces_differ`].
fn observed_differ(good: &TestTrace, faulty: &TestTrace, opts: SimOptions) -> bool {
    (opts.observe_outputs && good.outputs != faulty.outputs)
        || (opts.observe_limited_scan_out && good.scan_outs != faulty.scan_outs)
        || (opts.observe_final_scan_out && good.final_state() != faulty.final_state())
}

/// Every observation mix, all-on (the paper's model) first.
fn observation_mixes() -> Vec<SimOptions> {
    (0..8u32)
        .rev()
        .map(|mask| SimOptions {
            observe_outputs: mask & 1 != 0,
            observe_limited_scan_out: mask & 2 != 0,
            observe_final_scan_out: mask & 4 != 0,
        })
        .collect()
}

/// The serial trace-comparison reference: for each test, the faults
/// (in candidate order) whose one-fault faulty trace differs from the
/// good trace at a point `opts` observes.
fn trace_reference(
    c: &Circuit,
    tests: &[ScanTest],
    pairs: &[(FaultId, Fault)],
    opts: SimOptions,
) -> Vec<Vec<FaultId>> {
    let good = GoodSim::new(c);
    tests
        .iter()
        .map(|t| {
            let trace = good.simulate_test(t);
            pairs
                .iter()
                .filter(|&&(_, f)| {
                    let faulty = good.simulate_faulty(t, f);
                    let differ = observed_differ(&trace, &faulty, opts);
                    if opts == SimOptions::default() {
                        assert_eq!(differ, traces_differ(&trace, &faulty));
                    }
                    differ
                })
                .map(|&(id, _)| id)
                .collect()
        })
        .collect()
}

#[test]
fn s27_reference_lanes_match_serial_trace_comparison() {
    // The reference lane's oracle: per-(test, fault) detection equals the
    // serial good-versus-faulty trace comparison for every universe
    // fault x every test, at every lane width x tile height x
    // observation mix.
    let c = random_limited_scan::benchmarks::s27();
    let tests = mixed_s27_tests(&c);
    let pairs = universe_pairs(&c);
    for opts in observation_mixes() {
        let reference = trace_reference(&c, &tests, &pairs, opts);
        let observes = opts.observe_outputs
            || opts.observe_limited_scan_out
            || opts.observe_final_scan_out;
        assert_eq!(
            reference.iter().any(|r| !r.is_empty()),
            observes,
            "{opts:?}: detections exist exactly when something is observed"
        );
        for width in LaneWidth::ALL {
            for &height in &PATTERN_LANES_ALL {
                let soa = soa_per_test(&c, &tests, &pairs, width, height, opts);
                assert_eq!(
                    soa, reference,
                    "width {width} x height {height} x {opts:?}: SoA diverged from \
                     the serial trace comparison"
                );
            }
        }
    }
}

#[test]
fn s27_exhaustive_differential_matrix() {
    // Every fault x every test, order-exact, at every lane width and
    // every tile height — the full kernel-level differential.
    let c = random_limited_scan::benchmarks::s27();
    let tests = mixed_s27_tests(&c);
    let pairs = universe_pairs(&c);
    let good = GoodSim::new(&c);
    let reference: Vec<Vec<FaultId>> = tests
        .iter()
        .map(|t| serial_reference(&good, t, &pairs))
        .collect();
    assert!(
        reference.iter().any(|r| !r.is_empty()),
        "the exhaustive matrix must exercise real detections"
    );
    for width in LaneWidth::ALL {
        for &height in &PATTERN_LANES_ALL {
            let soa = soa_per_test(&c, &tests, &pairs, width, height, SimOptions::default());
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
    let reference: Vec<Vec<FaultId>> = tests
        .iter()
        .map(|t| serial_reference(&good, t, &pairs))
        .collect();
    assert!(reference.iter().any(|r| !r.is_empty()));
    for width in LaneWidth::ALL {
        for &height in &PATTERN_LANES_ALL {
            let soa = soa_per_test(&c, &tests, &pairs, width, height, SimOptions::default());
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
        /// whether the SoA kernel still matches the serial trace
        /// comparison. The reference is computed while *disarmed* so only
        /// the kernel under test is mutated.
        fn is_green(&self) -> bool {
            let armed = rls_fsim::soa::mutate::armed();
            arm(None);
            let opts = SimOptions::default();
            let reference = trace_reference(&self.c, &self.tests, &self.pairs, opts);
            arm(armed);
            let soa = soa_per_test(&self.c, &self.tests, &self.pairs, LaneWidth::W64, 2, opts);
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
    fn reference_lane_skew_turns_the_oracle_red() {
        // Broadcasting the reference bit from a fault lane compares every
        // fault against a faulty machine instead of the fault-free one.
        let diff = Diff::s27();
        arm(Some(KernelMutation::ReferenceLaneSkew));
        let green = diff.is_green();
        arm(None);
        assert!(!green, "a skewed reference lane must not survive the differential");
        assert!(diff.is_green(), "disarming must restore green");
    }

    #[test]
    fn detect_mask_short_drops_the_last_lane() {
        // The short mask silently drops the *last* (pattern, fault) lane,
        // so the differential only reddens when that lane would have
        // detected. Arrange exactly that: a single-test tile, full to the
        // last lane, whose final candidate is a known-detected fault.
        let diff = Diff::s27();
        let good = GoodSim::new(&diff.c);
        let lc = LevelizedCircuit::build(&diff.c, good.levelization());
        let test = &diff.tests[0];
        arm(None);
        let detected = serial_reference(&good, test, &diff.pairs);
        let last = *detected.last().expect("s27 TS0 detects faults");
        let mut chunk: Vec<(FaultId, Fault)> = diff
            .pairs
            .iter()
            .filter(|&&(id, _)| id != last)
            .take(tile_fault_capacity(LaneWidth::W64, 1) - 1)
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
                &diff.c,
                &lc,
                &[test],
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
