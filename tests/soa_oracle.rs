//! The SoA kernel's verification wall: a differential oracle that
//! compares the levelized SoA tile kernel order-exactly against the
//! serial one-fault-at-a-time trace comparison (`GoodSim::simulate_faulty`
//! compared by `traces_differ`), across the full (lane width × tile
//! height × observation mix × scan style × thread count) matrix, plus
//! seeded mutation self-tests proving the oracle turns red when the
//! kernel is deliberately broken.
//!
//! s27 is checked exhaustively — every fault of the universe against
//! every test, order-exact — on a mixed test set (flat TS0 tests plus
//! shift-schedule groups, so tiling has both packable runs and
//! stragglers), under full scan, a 2-of-3 partial chain and two chains.
//! The serial reference reads the same `ChainMap` as the kernel but
//! shares no word code with it, so it checks the kernel's in-word
//! fault-free machine and its chain shifts independently. s953 is sampled
//! (every third fault, order-exact), and so is s298 under 25%/50% partial
//! scan and ≤4/≤10-long multiple chains. The engine- and dispatch-level
//! tests add fault dropping and the thread axis against a serial
//! drop-as-you-go reference.
//!
//! The mutation self-tests compile only under `--features kernel-mutate`:
//! each armed corruption must flip the differential red on the very
//! inputs that stay green for the unmutated kernel — a differential
//! harness that cannot catch a wrong opcode proves nothing.

use random_limited_scan::core::extension::{derive_mc_test_set, generate_ts0_partial};
use random_limited_scan::core::{derive_test_set, generate_ts0, RlsConfig};
use random_limited_scan::dispatch::{
    CompiledCircuit, SharedPool, SharedSetRunner, SharedSimContext,
};
use rls_fsim::good::traces_differ;
use rls_fsim::{
    simulate_tile_at, tile_compatible, tile_fault_capacity, ChainMap, Fault, FaultId,
    FaultSimulator, FaultUniverse, GoodSim, LaneWidth, ScanTest, ShiftOp, SimOptions, TestTrace,
    PATTERN_LANES_ALL,
};
use rls_netlist::{Circuit, LevelizedCircuit};
use rls_scan::{MultiChain, PartialScan};

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

/// The full-scan tests re-shaped for the scan chains of `chains`: the
/// scan-in keeps the bits of the loaded positions, each shift is clamped
/// to the longest chain and carries one fill bit per chain per cycle
/// (the original cycle's bit, inverted on odd chains). Shape groups are
/// preserved, so tiling still sees packable runs and stragglers.
fn tests_for(chains: &ChainMap, tests: &[ScanTest]) -> Vec<ScanTest> {
    let n = chains.chains().len();
    tests
        .iter()
        .map(|t| ScanTest {
            scan_in: chains.load().iter().map(|&p| t.scan_in[p]).collect(),
            vectors: t.vectors.clone(),
            shifts: t
                .shifts
                .iter()
                .map(|op| {
                    let amount = op.amount.min(chains.max_chain_len());
                    let fill = (0..amount * n)
                        .map(|i| op.fill[i / n] ^ (i % n % 2 == 1))
                        .collect();
                    ShiftOp { at: op.at, amount, fill }
                })
                .collect(),
        })
        .collect()
}

/// The s27 scan styles of the exhaustive matrix: full scan, a 2-of-3
/// partial chain (flip-flop 1 unscanned) and two chains.
fn s27_scan_styles() -> Vec<ChainMap> {
    vec![
        ChainMap::full(3),
        ChainMap::from(&PartialScan::new(3, vec![2, 0])),
        ChainMap::from(&MultiChain::new(3, 2)),
    ]
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
/// configuration on the scan chains of `chains`, chunking faults so every
/// tile (one reference lane plus the fault lanes per pattern) fits the
/// word.
fn soa_per_test(
    c: &Circuit,
    chains: &ChainMap,
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
            let per_pattern = simulate_tile_at(width, c, &lc, chains, &tile_tests, chunk, opts);
            for (p, det) in per_pattern.into_iter().enumerate() {
                per_test[lo + p].extend(det);
            }
        }
    }
    per_test
}

/// Whether a faulty trace differs from the good one at an observation
/// point `opts` enables; with every point on this is [`traces_differ`].
fn observed_differ(good: &TestTrace, faulty: &TestTrace, opts: SimOptions) -> bool {
    (opts.observe_outputs && good.outputs != faulty.outputs)
        || (opts.observe_limited_scan_out && good.scan_outs != faulty.scan_outs)
        || (opts.observe_final_scan_out && good.final_scan_out != faulty.final_scan_out)
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
/// (in candidate order) whose one-fault faulty trace on the scan chains
/// of `chains` differs from the good trace at a point `opts` observes.
fn trace_reference(
    c: &Circuit,
    chains: &ChainMap,
    tests: &[ScanTest],
    pairs: &[(FaultId, Fault)],
    opts: SimOptions,
) -> Vec<Vec<FaultId>> {
    let good = GoodSim::new(c).with_chains(chains.clone());
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

/// Asserts the kernel equals the serial reference for every width ×
/// tile height, and that the reference detects something.
fn assert_matrix_matches(
    label: &str,
    c: &Circuit,
    chains: &ChainMap,
    tests: &[ScanTest],
    pairs: &[(FaultId, Fault)],
) {
    let opts = SimOptions::default();
    let reference = trace_reference(c, chains, tests, pairs, opts);
    assert!(
        reference.iter().any(|r| !r.is_empty()),
        "{label}: the matrix must exercise real detections"
    );
    for width in LaneWidth::ALL {
        for &height in &PATTERN_LANES_ALL {
            let soa = soa_per_test(c, chains, tests, pairs, width, height, opts);
            assert_eq!(
                soa, reference,
                "{label} width {width} x height {height}: SoA diverged from the serial reference"
            );
        }
    }
}

/// The serial drop-as-you-go reference: tests in order, live faults in
/// candidate order, each detection dropped before the next test. Returns
/// the detection sequence and the surviving live list.
fn serial_dropping(
    c: &Circuit,
    chains: &ChainMap,
    tests: &[ScanTest],
) -> (Vec<FaultId>, Vec<FaultId>) {
    let engine = FaultSimulator::new(c);
    let good = GoodSim::new(c).with_chains(chains.clone());
    let mut live = engine.live().to_vec();
    let mut detected = Vec::new();
    for t in tests {
        let trace = good.simulate_test(t);
        let newly: Vec<FaultId> = live
            .iter()
            .copied()
            .filter(|&id| {
                let faulty = good.simulate_faulty(t, engine.universe().fault(id));
                traces_differ(&trace, &faulty)
            })
            .collect();
        live.retain(|id| !newly.contains(id));
        detected.extend(newly);
    }
    (detected, live)
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
    let full = ChainMap::full(3);
    for opts in observation_mixes() {
        let reference = trace_reference(&c, &full, &tests, &pairs, opts);
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
                let soa = soa_per_test(&c, &full, &tests, &pairs, width, height, opts);
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
    // every tile height, under each scan style — the full kernel-level
    // differential, chain shifts included.
    let c = random_limited_scan::benchmarks::s27();
    let pairs = universe_pairs(&c);
    for chains in s27_scan_styles() {
        let tests = tests_for(&chains, &mixed_s27_tests(&c));
        assert_matrix_matches(&format!("s27 {chains:?}"), &c, &chains, &tests, &pairs);
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
    assert_matrix_matches("s953", &c, &ChainMap::full(c.num_dffs()), &tests, &pairs);
}

#[test]
fn s298_sampled_partial_and_multichain_differential_is_order_exact() {
    // The scan variants of the paper's closing remark and of refs [5]/[6]
    // on a real profile: 25%/50% partial chains and chains of length
    // <= 4 / <= 10, every third fault, two base tests plus four derived
    // limited-scan tests (shifts with one fill bit per chain per cycle).
    let c = random_limited_scan::benchmarks::by_name("s298").expect("s298 exists");
    let n_sv = c.num_dffs();
    let pairs: Vec<(FaultId, Fault)> = universe_pairs(&c).into_iter().step_by(3).collect();
    let cfg = RlsConfig::new(4, 8, 4);
    for percent in [25usize, 50] {
        let ps = PartialScan::new(n_sv, (0..(n_sv * percent).div_ceil(100)).collect());
        let ts0 = generate_ts0_partial(&c, &ps, &cfg);
        let d2 = ps.chain_len() as u32 + 1;
        let mut tests: Vec<ScanTest> = ts0[..2].to_vec();
        tests.extend(derive_test_set(&ts0, &cfg, 1, 1, d2).into_iter().take(4));
        assert!(tests.iter().any(|t| !t.shifts.is_empty()));
        let label = format!("s298 {percent}%");
        assert_matrix_matches(&label, &c, &ChainMap::from(&ps), &tests, &pairs);
    }
    for max_len in [4usize, 10] {
        let mc = MultiChain::with_max_length(n_sv, max_len);
        let ts0 = generate_ts0(&c, &cfg);
        let mut tests: Vec<ScanTest> = ts0[..2].to_vec();
        let d2 = mc.max_chain_len() as u32 + 1;
        tests.extend(derive_mc_test_set(&ts0, &cfg, &mc, 1, 1, d2).into_iter().take(4));
        assert!(tests.iter().any(|t| !t.shifts.is_empty()));
        let label = format!("s298 <={max_len}");
        assert_matrix_matches(&label, &c, &ChainMap::from(&mc), &tests, &pairs);
    }
}

#[test]
fn engine_matrix_matches_the_serial_reference_under_dropping() {
    // The engine layers fault dropping and collapsing on the kernel; the
    // detection *sequence* (not just the set) must be the serial
    // drop-as-you-go one across the whole configuration matrix, on every
    // scan style.
    let c = random_limited_scan::benchmarks::s27();
    for chains in s27_scan_styles() {
        let tests = tests_for(&chains, &mixed_s27_tests(&c));
        let (expect, _) = serial_dropping(&c, &chains, &tests);
        assert!(!expect.is_empty());
        for width in LaneWidth::ALL {
            for &height in &PATTERN_LANES_ALL {
                let mut sim = FaultSimulator::new(&c);
                sim.set_chains(chains.clone());
                sim.set_lane_width(width);
                sim.set_pattern_lanes(height);
                sim.run_tests(&tests);
                assert_eq!(
                    sim.detected(),
                    &expect[..],
                    "{chains:?} width {width} x height {height}: detection sequence diverged \
                     from the serial reference"
                );
            }
        }
    }
}

#[test]
fn dispatch_thread_matrix_matches_the_engine() {
    // The pooled runner tiles tests across the shared pool's workers; its
    // surviving live list must equal the serial drop-as-you-go
    // reference's (which the engine matrix above pins the sequential
    // engine to) at every (width, height, threads) point.
    let c = random_limited_scan::benchmarks::s27();
    let tests = mixed_s27_tests(&c);
    let (detected, live) = serial_dropping(&c, &ChainMap::full(3), &tests);
    let detected = detected.len();
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
        chains: ChainMap,
        tests: Vec<ScanTest>,
        pairs: Vec<(FaultId, Fault)>,
    }

    impl Diff {
        /// The s27 differential on the scan chains of `chains`.
        fn s27_on(chains: ChainMap) -> Diff {
            let c = random_limited_scan::benchmarks::s27();
            let tests = tests_for(&chains, &mixed_s27_tests(&c));
            let pairs = universe_pairs(&c);
            Diff { c, chains, tests, pairs }
        }

        /// The full-scan s27 differential.
        fn s27() -> Diff {
            Diff::s27_on(ChainMap::full(3))
        }

        /// Runs the differential at 64 lanes x height 2 and reports
        /// whether the SoA kernel still matches the serial trace
        /// comparison. The reference is computed while *disarmed* so only
        /// the kernel under test is mutated.
        fn is_green(&self) -> bool {
            let armed = rls_fsim::soa::mutate::armed();
            arm(None);
            let opts = SimOptions::default();
            let reference = trace_reference(&self.c, &self.chains, &self.tests, &self.pairs, opts);
            arm(armed);
            let soa = soa_per_test(
                &self.c,
                &self.chains,
                &self.tests,
                &self.pairs,
                LaneWidth::W64,
                2,
                opts,
            );
            soa == reference
        }
    }

    #[test]
    fn unmutated_tree_stays_green() {
        arm(None);
        for chains in s27_scan_styles() {
            let label = format!("{chains:?}");
            assert!(
                Diff::s27_on(chains).is_green(),
                "the differential must pass unmutated on {label}"
            );
        }
    }

    #[test]
    fn scan_out_skew_turns_the_chain_differential_red() {
        // Reading each chain's scan-out one position short of its tail
        // must not survive the partial or the multichain differential.
        for chains in s27_scan_styles().into_iter().skip(1) {
            let label = format!("{chains:?}");
            let diff = Diff::s27_on(chains);
            arm(Some(KernelMutation::ScanOutSkew));
            let green = diff.is_green();
            arm(None);
            assert!(!green, "a skewed scan-out must survive no {label} differential");
            assert!(diff.is_green(), "disarming must restore green on {label}");
        }
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
        let opts = SimOptions::default();
        let detected = trace_reference(&diff.c, &diff.chains, &diff.tests[..1], &diff.pairs, opts)
            .remove(0);
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
                &diff.chains,
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
