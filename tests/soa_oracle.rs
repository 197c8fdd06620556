//! The SoA kernel's verification wall: a differential oracle that
//! compares the levelized SoA tile kernel order-exactly against the
//! serial one-fault-at-a-time trace comparison (`GoodSim::simulate_faulty`
//! compared by `traces_differ`), across the full (tile height ×
//! fault-chunk length × observation mix × scan style) matrix, plus
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
//! scan and ≤4/≤10-long multiple chains. A synthetic 70-input circuit is
//! checked exhaustively too: its packed vector rows span two words.
//!
//! The kernel-level matrix calls `simulate_tile_lanes` directly at every
//! fixed tile height 1/2/3/4/8 × whole-tile and 7-fault chunks: it is
//! where the kernel-shape axis lives, since production picks each tile's
//! height from the live count (`fill_height`). A tall-tile matrix adds
//! the heights a thin fault list takes (8, 9, 63, 64, 65, 128 and the
//! tallest, 256) × whole-tile and 2-fault chunks (3-lane pattern ranges
//! straddle limbs) on 3-, 10- and 70-input circuits, through `TS0`, a
//! derived set whose tests share one schedule, the same set with a
//! schedule (and fills) per test, and a `FreeRunning` set. The engine- and
//! dispatch-level tests add fault dropping, that fill rule and the
//! thread axis against a serial drop-as-you-go reference: on s27, and on
//! s208 and s298 through `TS0` and then derived `TS(I, D1)` sets against
//! the post-`TS0` live list. The full lists take short tiles split into
//! several fault chunks (the cross-chunk merge and drop order); the
//! post-`TS0` tails of tens of faults take tiles as tall as a whole
//! compatible run; a `FreeRunning` set, whose schedules differ test to
//! test, takes 1-tall tiles.
//!
//! The mutation self-tests compile only under `--features kernel-mutate`:
//! each armed corruption must flip the differential red on the very
//! inputs that stay green for the unmutated kernel — a differential
//! harness that cannot catch a wrong opcode proves nothing.

use random_limited_scan::benchmarks::SynthConfig;
use random_limited_scan::core::extension::{derive_mc_test_set, generate_ts0_partial};
use random_limited_scan::core::{derive_test_set, generate_ts0, RlsConfig, SeedMode};
use random_limited_scan::dispatch::{SharedPool, SharedSetRunner};
use rls_fsim::good::traces_differ;
use rls_fsim::{
    compatible_run, fill_height, max_tile_height, simulate_tile_lanes, tile_fault_capacity,
    ChainMap, CompiledCircuit, Fault, FaultId, FaultSimulator, FaultUniverse, GoodSim, ScanTest,
    ShiftOp, SimOptions, TestTrace,
};
use rls_netlist::{Circuit, LevelizedCircuit};
use rls_scan::{MultiChain, PartialScan};

/// The kernel matrix's fixed tile heights; height 3's 170-lane pattern
/// ranges start mid-limb, the others' on `u64` limb boundaries.
const HEIGHTS: [usize; 5] = [1, 2, 3, 4, 8];

/// The matrix's fault-chunk lengths: the tile's capacity (`None`), and a
/// short chunk that gives even s27 several chunks per tile.
const CHUNKS: [Option<usize>; 2] = [None, Some(7)];

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
    let base = tests[0].vectors.clone();
    let shifted = |scan_in: &[bool], shifts: Vec<ShiftOp>| {
        ScanTest::new(scan_in.to_vec(), base.clone())
            .with_shifts(shifts)
            .expect("interior units are valid")
    };
    // Group A: three tests sharing one schedule (tiles of height <= 3).
    for scan_in in [
        [true, false, true],
        [false, true, true],
        [true, true, false],
    ] {
        tests.push(shifted(
            &scan_in,
            vec![ShiftOp {
                at: 2,
                amount: 2,
                fill: vec![true, false],
            }],
        ));
    }
    // Group B: two tests on a different schedule (same `at`, different
    // amount — shape-incompatible with group A).
    for scan_in in [[false, false, true], [true, false, false]] {
        tests.push(shifted(
            &scan_in,
            vec![ShiftOp {
                at: 2,
                amount: 1,
                fill: vec![true],
            }],
        ));
    }
    // Straggler: a schedule nothing else shares, always a 1-tall tile.
    tests.push(shifted(
        &[false, true, false],
        vec![ShiftOp {
            at: 1,
            amount: 3,
            fill: vec![false, true, true],
        }],
    ));
    tests
}

/// A synthetic circuit with 70 primary inputs: every packed vector row
/// spans two words, the second one padded, so primary inputs 64..70 are
/// mixed from each row's second word.
fn wide_circuit() -> Circuit {
    SynthConfig {
        name: "wide70".to_string(),
        inputs: 70,
        outputs: 6,
        dffs: 5,
        gates: 90,
        seed: 7,
        resistant_gates: 1,
        resistant_width: 4,
    }
    .build()
}

/// The tall-tile matrix's fixed heights: around the 8-pattern groups the
/// kernel mixes stimulus in, around one 64-lane limb per pattern, and up
/// to the tallest tile.
const TALL_HEIGHTS: [usize; 7] = [8, 9, 63, 64, 65, 128, 256];

/// The tall-tile matrix's fault-chunk lengths: the tile's capacity, and
/// 2 faults (3-lane pattern ranges, which straddle limb boundaries).
const TALL_CHUNKS: [Option<usize>; 2] = [None, Some(2)];

/// `TS0` of `c` plus one derived `TS(1, 2)` set: flat tests and limited
/// scans on the same vectors.
fn ts0_and_derived(c: &Circuit) -> Vec<ScanTest> {
    let cfg = RlsConfig::new(3, 6, 4);
    let mut tests = generate_ts0(c, &cfg);
    tests.extend(derive_test_set(&tests, &cfg, 1, 2, cfg.d2(c.num_dffs())));
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
                    ShiftOp {
                        at: op.at,
                        amount,
                        fill,
                    }
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

/// Per-test detections from the SoA tile kernel at tile `height` on the
/// scan chains of `chains`, chunking faults at `chunk` (or, for `None`,
/// at the tile's capacity: one reference lane plus the fault lanes per
/// pattern fill the word).
fn soa_per_test(
    c: &Circuit,
    chains: &ChainMap,
    tests: &[ScanTest],
    pairs: &[(FaultId, Fault)],
    height: usize,
    chunk: Option<usize>,
    opts: SimOptions,
) -> Vec<Vec<FaultId>> {
    let lc = LevelizedCircuit::build(c, &c.levelize().expect("benchmarks are acyclic"));
    let mut per_test: Vec<Vec<FaultId>> = vec![Vec::new(); tests.len()];
    let mut lo = 0;
    while lo < tests.len() {
        let hi = lo + compatible_run(tests, lo).min(height);
        let tile_tests: Vec<&ScanTest> = tests[lo..hi].iter().collect();
        let cap = tile_fault_capacity(hi - lo);
        for chunk in pairs.chunks(chunk.map_or(cap, |n| n.min(cap))) {
            let per_pattern = simulate_tile_lanes(c, &lc, chains, &tile_tests, chunk, opts);
            for (p, det) in per_pattern.into_iter().enumerate() {
                per_test[lo + p].extend(det);
            }
        }
        lo = hi;
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

/// Asserts the kernel equals the serial reference at every tile height ×
/// chunk length, and that the reference detects something.
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
    for height in HEIGHTS {
        for chunk in CHUNKS {
            let soa = soa_per_test(c, chains, tests, pairs, height, chunk, opts);
            assert_eq!(
                soa, reference,
                "{label} height {height} x chunk {chunk:?}: SoA diverged from the serial reference"
            );
        }
    }
}

/// Test sets whose compatible runs reach the tallest tile: a 512-test
/// `TS0` (two runs of 256), a paper-literal derived set (one shared
/// schedule per run), the same derived tests each holding its own copy
/// of the schedule with its own fills, and the head of a `FreeRunning`
/// derived set (1-tall runs).
fn tall_sets(c: &Circuit) -> Vec<(&'static str, Vec<ScanTest>)> {
    let mut cfg = RlsConfig::new(3, 5, 256);
    let d2 = cfg.d2(c.num_dffs());
    let ts0 = generate_ts0(c, &cfg);
    let shared = derive_test_set(&ts0, &cfg, 1, 1, d2);
    let own: Vec<ScanTest> = shared
        .iter()
        .enumerate()
        .map(|(k, t)| {
            let shifts: Vec<ShiftOp> = t
                .shifts
                .iter()
                .enumerate()
                .map(|(j, op)| ShiftOp {
                    fill: (0..op.fill.len())
                        .map(|i| (k * 7 + j * 3 + i) % 5 < 2)
                        .collect(),
                    ..op.clone()
                })
                .collect();
            t.clone()
                .with_shifts(shifts)
                .expect("the schedule is unchanged")
        })
        .collect();
    cfg.seed_mode = SeedMode::FreeRunning;
    let free: Vec<ScanTest> = derive_test_set(&ts0, &cfg, 2, 1, d2)
        .into_iter()
        .take(24)
        .collect();
    vec![
        ("TS0", ts0),
        ("shared schedule", shared),
        ("own schedules", own),
        ("FreeRunning", free),
    ]
}

/// Asserts the kernel equals the serial reference on `tests` at every
/// tall height × chunk length.
fn assert_tall_matrix_matches(
    label: &str,
    c: &Circuit,
    tests: &[ScanTest],
    pairs: &[(FaultId, Fault)],
) {
    let opts = SimOptions::default();
    let chains = ChainMap::full(c.num_dffs());
    let reference = trace_reference(c, &chains, tests, pairs, opts);
    assert!(
        reference.iter().any(|r| !r.is_empty()),
        "{label}: the matrix must exercise real detections"
    );
    for height in TALL_HEIGHTS {
        for chunk in TALL_CHUNKS {
            let soa = soa_per_test(c, &chains, tests, pairs, height, chunk, opts);
            assert_eq!(
                soa, reference,
                "{label} height {height} x chunk {chunk:?}: SoA diverged from the serial reference"
            );
        }
    }
}

/// A thin fault list of `c`: every `step`-th universe fault, at most
/// `count` of them.
fn thin_pairs(c: &Circuit, step: usize, count: usize) -> Vec<(FaultId, Fault)> {
    universe_pairs(c)
        .into_iter()
        .step_by(step)
        .take(count)
        .collect()
}

/// A tall-tile circuit and its thin fault sample.
struct TallCase {
    name: &'static str,
    c: Circuit,
    pairs: Vec<(FaultId, Fault)>,
}

/// The tall-tile circuits: s298 (3 inputs, one row byte), s208 (10
/// inputs, two row bytes) and the 70-input synthetic circuit (rows of
/// two words), each with a thin fault sample.
fn tall_cases() -> Vec<TallCase> {
    let mut cases: Vec<TallCase> = ["s298", "s208"]
        .into_iter()
        .map(|name| {
            let c = random_limited_scan::benchmarks::by_name(name).expect("registered circuit");
            let pairs = thin_pairs(&c, 37, 8);
            TallCase { name, c, pairs }
        })
        .collect();
    let c = wide_circuit();
    let pairs = thin_pairs(&c, 23, 8);
    cases.push(TallCase {
        name: "wide70",
        c,
        pairs,
    });
    cases
}

#[test]
fn tall_tile_differential_is_order_exact() {
    // The heights a thin tail takes, on rows of one byte, two bytes and
    // two words, with fills mixed as shared splats and per pattern.
    for TallCase { name, c, pairs } in tall_cases() {
        assert!(c.num_inputs() == 3 || c.num_inputs() == 10 || c.num_inputs() == 70);
        let sets = tall_sets(&c);
        assert_eq!(compatible_run(&sets[0].1, 0), max_tile_height());
        let (shared, own) = (&sets[1].1, &sets[2].1);
        assert!(shared[1..256]
            .iter()
            .all(|t| std::sync::Arc::ptr_eq(&t.shifts, &shared[0].shifts)));
        assert!(shared[..256].iter().all(|t| !t.shifts.is_empty()));
        assert!(!std::sync::Arc::ptr_eq(&own[0].shifts, &own[1].shifts));
        assert_eq!(compatible_run(own, 0), max_tile_height());
        for (set, tests) in &sets {
            assert_tall_matrix_matches(&format!("{name} {set}"), &c, tests, &pairs);
        }
    }
}

/// The serial drop-as-you-go reference over a sequence of sets: tests in
/// order, live faults in candidate order, each detection dropped before
/// the next test. Returns, per set, the detection sequence and the live
/// list left after it.
fn serial_dropping(
    c: &Circuit,
    chains: &ChainMap,
    sets: &[Vec<ScanTest>],
) -> Vec<(Vec<FaultId>, Vec<FaultId>)> {
    let engine = FaultSimulator::new(c);
    let good = GoodSim::new(c).with_chains(chains.clone());
    let mut live = engine.live().to_vec();
    let mut per_set = Vec::new();
    for set in sets {
        let mut detected = Vec::new();
        for t in set {
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
        per_set.push((detected, live.clone()));
    }
    per_set
}

#[test]
fn s27_reference_lanes_match_serial_trace_comparison() {
    // The reference lane's oracle: per-(test, fault) detection equals the
    // serial good-versus-faulty trace comparison for every universe
    // fault x every test, at every tile height x chunk length x
    // observation mix.
    let c = random_limited_scan::benchmarks::s27();
    let tests = mixed_s27_tests(&c);
    let pairs = universe_pairs(&c);
    let full = ChainMap::full(3);
    for opts in observation_mixes() {
        let reference = trace_reference(&c, &full, &tests, &pairs, opts);
        let observes =
            opts.observe_outputs || opts.observe_limited_scan_out || opts.observe_final_scan_out;
        assert_eq!(
            reference.iter().any(|r| !r.is_empty()),
            observes,
            "{opts:?}: detections exist exactly when something is observed"
        );
        for height in HEIGHTS {
            for chunk in CHUNKS {
                let soa = soa_per_test(&c, &full, &tests, &pairs, height, chunk, opts);
                assert_eq!(
                    soa, reference,
                    "height {height} x chunk {chunk:?} x {opts:?}: SoA diverged from \
                     the serial trace comparison"
                );
            }
        }
    }
}

#[test]
fn s27_exhaustive_differential_matrix() {
    // Every fault x every test, order-exact, at every tile height and
    // chunk length, under each scan style — the full kernel-level
    // differential, chain shifts included.
    let c = random_limited_scan::benchmarks::s27();
    let pairs = universe_pairs(&c);
    for chains in s27_scan_styles() {
        let tests = tests_for(&chains, &mixed_s27_tests(&c));
        assert_matrix_matches(&format!("s27 {chains:?}"), &c, &chains, &tests, &pairs);
    }
}

#[test]
fn wide_vector_rows_differential_is_order_exact() {
    // More than 64 primary inputs: each tile mixes its input words from
    // two packed words per vector row, the second one padded.
    let c = wide_circuit();
    assert_eq!(c.num_inputs(), 70);
    let tests = ts0_and_derived(&c);
    assert!(tests.iter().any(|t| !t.shifts.is_empty()));
    let chains = ChainMap::full(c.num_dffs());
    assert_matrix_matches("wide70", &c, &chains, &tests, &universe_pairs(&c));
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
        pairs.len() > tile_fault_capacity(1),
        "the sample must span several chunks even in a 1-tall tile"
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
        tests.extend(
            derive_mc_test_set(&ts0, &cfg, &mc, 1, 1, d2)
                .into_iter()
                .take(4),
        );
        assert!(tests.iter().any(|t| !t.shifts.is_empty()));
        let label = format!("s298 <={max_len}");
        assert_matrix_matches(&label, &c, &ChainMap::from(&mc), &tests, &pairs);
    }
}

/// `TS0` of `c` followed by derived sets as Procedure 2 simulates them:
/// three paper-literal (`PerTest`) `TS(I, D1)` sets, whose same-length
/// tests share one schedule, and one `FreeRunning` set, whose schedules
/// differ test to test.
fn campaign_sets(c: &Circuit) -> Vec<Vec<ScanTest>> {
    let mut cfg = RlsConfig::new(4, 8, 16);
    let d2 = cfg.d2(c.num_dffs());
    let ts0 = generate_ts0(c, &cfg);
    let mut sets = vec![ts0.clone()];
    for (i, d1) in [(1, 1), (1, 3), (2, 2)] {
        sets.push(derive_test_set(&ts0, &cfg, i, d1, d2));
    }
    cfg.seed_mode = SeedMode::FreeRunning;
    sets.push(derive_test_set(&ts0, &cfg, 3, 1, d2));
    sets
}

/// The engine and dispatch matrices' circuits and set sequences: s27's
/// mixed set under each scan style, and `TS0` plus derived sets on s208
/// and s298 under full scan.
fn dropping_cases() -> Vec<(String, Circuit, ChainMap, Vec<Vec<ScanTest>>)> {
    let s27 = random_limited_scan::benchmarks::s27();
    let mut cases: Vec<_> = s27_scan_styles()
        .into_iter()
        .map(|chains| {
            let tests = tests_for(&chains, &mixed_s27_tests(&s27));
            (format!("s27 {chains:?}"), s27.clone(), chains, vec![tests])
        })
        .collect();
    for name in ["s208", "s298"] {
        let c = random_limited_scan::benchmarks::by_name(name).expect("registered circuit");
        let full = ChainMap::full(c.num_dffs());
        let sets = campaign_sets(&c);
        cases.push((name.to_string(), c, full, sets));
    }
    cases
}

/// The tile heights the fill rule picks for `set` when each tile starts
/// from `live` faults — the heights of the set's first tiles, before any
/// fault drops.
fn planned_heights(live: usize, set: &[ScanTest]) -> Vec<usize> {
    let mut heights = Vec::new();
    let mut next = 0;
    while next < set.len() {
        let h = fill_height(live, compatible_run(set, next));
        heights.push(h);
        next += h;
    }
    heights
}

#[test]
fn campaign_sets_drive_the_fill_rule_across_heights() {
    // The engine matrix below must see tiles split into several fault
    // chunks (the full lists), tall tiles that fit a thin tail into one
    // chunk (the post-TS0 tails) and the FreeRunning set's 1-tall runs.
    let campaigns = dropping_cases().into_iter().filter(|case| case.3.len() > 1);
    for (label, c, chains, sets) in campaigns {
        let serial = serial_dropping(&c, &chains, &sets);
        let full = FaultSimulator::new(&c).live_count();
        let first = planned_heights(full, &sets[0])[0];
        assert!(
            full > tile_fault_capacity(first),
            "{label}: TS0's first {first}-tall tile splits {full} faults into several chunks"
        );
        let tail = serial[0].1.len();
        assert!(tail > 0, "{label}: TS0 leaves faults for the derived sets");
        let run = compatible_run(&sets[1], 0);
        assert!(
            run > 1,
            "{label}: PerTest tests of one length share a schedule"
        );
        let tall = planned_heights(tail, &sets[1])[0];
        assert!(
            tall >= 8 && tall <= run.min(max_tile_height()),
            "{label}: a {tail}-fault tail packs a tall tile of its {run}-test run, got {tall}"
        );
        let free = sets.last().unwrap();
        let runs: Vec<usize> = (0..free.len()).map(|i| compatible_run(free, i)).collect();
        assert!(
            runs.iter().all(|&r| r == 1),
            "{label}: FreeRunning runs {runs:?}"
        );
    }
}

#[test]
fn engine_matrix_matches_the_serial_reference_under_dropping() {
    // The engine layers fault dropping, collapsing and the fill rule on
    // the kernel; the detection *sequence* (not just the set) of every
    // set must be the serial drop-as-you-go one on every case.
    for (label, c, chains, sets) in dropping_cases() {
        let serial = serial_dropping(&c, &chains, &sets);
        assert!(!serial[0].0.is_empty());
        let mut sim = FaultSimulator::new(&c);
        sim.set_chains(chains);
        for (k, (set, (expect, live))) in sets.iter().zip(&serial).enumerate() {
            let before = sim.detected_count();
            sim.run_tests(set);
            assert_eq!(
                &sim.detected()[before..],
                &expect[..],
                "{label} set {k}: detection sequence diverged from the serial reference"
            );
            assert_eq!(sim.live(), &live[..], "{label} set {k}");
        }
    }
}

#[test]
fn dispatch_thread_matrix_matches_the_engine() {
    // The pooled runner simulates whole sets, one job each, against the
    // live list of the window they belong to. Run every case's sets as
    // one window — the first on the caller's simulator, the rest on the
    // pool — and apply each pool set's detections in order: after every
    // set the count and surviving live list must equal the serial
    // drop-as-you-go reference's (which the engine matrix above pins the
    // sequential engine to) at every pool width.
    for (label, c, chains, sets) in dropping_cases() {
        let serial = serial_dropping(&c, &chains, &sets);
        let compiled = CompiledCircuit::compile(c).expect("benchmarks are acyclic");
        let compiled = std::sync::Arc::new(compiled);
        for workers in [1, 2, 3] {
            let runner = SharedSetRunner::new(
                compiled.clone(),
                chains.clone(),
                SimOptions::default(),
                SharedPool::new(workers),
            );
            let mut sim = FaultSimulator::on(compiled.clone());
            sim.set_chains(chains.clone());
            let (first, rest) = sets.split_first().expect("every case has sets");
            let submitted = runner.submit(sim.live(), rest.to_vec());
            let mut counts = vec![sim.run_tests(first)];
            let mut lives = vec![sim.live().to_vec()];
            for result in runner.collect_sets(submitted) {
                counts.push(sim.apply_detections(&result.expect("no job fails")));
                lives.push(sim.live().to_vec());
            }
            for (k, (detected, live)) in serial.iter().enumerate() {
                assert_eq!(
                    (counts[k], &lives[k][..]),
                    (detected.len(), &live[..]),
                    "{label} set {k} x {workers} workers"
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
    use rls_fsim::KernelWord;

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
            Diff {
                c,
                chains,
                tests,
                pairs,
            }
        }

        /// The full-scan s27 differential.
        fn s27() -> Diff {
            Diff::s27_on(ChainMap::full(3))
        }

        /// The full-scan differential on the 70-input circuit.
        fn wide() -> Diff {
            let c = wide_circuit();
            Diff {
                chains: ChainMap::full(c.num_dffs()),
                tests: ts0_and_derived(&c),
                pairs: universe_pairs(&c),
                c,
            }
        }

        /// Runs the differential at every tile height x chunk length and
        /// reports whether the SoA kernel still matches the serial trace
        /// comparison at all of them. The reference is computed while
        /// *disarmed* so only the kernel under test is mutated.
        fn is_green(&self) -> bool {
            let armed = rls_fsim::soa::mutate::armed();
            arm(None);
            let opts = SimOptions::default();
            let reference = trace_reference(&self.c, &self.chains, &self.tests, &self.pairs, opts);
            arm(armed);
            let (c, chains, tests, pairs) = (&self.c, &self.chains, &self.tests, &self.pairs);
            let mut green = true;
            for height in HEIGHTS {
                for chunk in CHUNKS {
                    green &=
                        soa_per_test(c, chains, tests, pairs, height, chunk, opts) == reference;
                }
            }
            green
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
            assert!(
                !green,
                "a skewed scan-out must survive no {label} differential"
            );
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
        assert!(
            red,
            "no opcode swap over {gates} gates turned the oracle red"
        );
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
        assert!(
            red,
            "no fanin-window shift over {gates} gates turned the oracle red"
        );
        assert!(diff.is_green(), "disarming must restore green");
    }

    #[test]
    fn level_barrier_skew_turns_the_oracle_red() {
        let diff = Diff::s27();
        arm(Some(KernelMutation::LevelBarrierSkew));
        let green = diff.is_green();
        arm(None);
        assert!(
            !green,
            "a skewed patch barrier must not survive the differential"
        );
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
        assert!(
            !green,
            "a skewed reference lane must not survive the differential"
        );
        assert!(diff.is_green(), "disarming must restore green");
    }

    #[test]
    fn last_input_off_by_one_turns_the_oracle_red() {
        // The last primary input reading its row one bit too far (the
        // padding) must survive neither s27's one-word rows nor rows that
        // span two words.
        for (label, diff) in [("s27", Diff::s27()), ("wide70", Diff::wide())] {
            arm(Some(KernelMutation::LastInputOffByOne));
            let green = diff.is_green();
            arm(None);
            assert!(
                !green,
                "an off-by-one last input must not survive the {label} differential"
            );
            assert!(diff.is_green(), "disarming must restore green on {label}");
        }
    }

    #[test]
    fn transpose_drops_last_pattern_turns_the_oracle_red() {
        // A transpose that loses the last pattern of each 8-pattern group
        // must survive neither s27's 8-tall tiles nor the tall matrix on
        // one-byte, two-byte and two-word rows.
        let diff = Diff::s27();
        arm(Some(KernelMutation::TransposeDropsLastPattern));
        let green = diff.is_green();
        arm(None);
        assert!(
            !green,
            "a lossy transpose must not survive the s27 differential"
        );
        assert!(diff.is_green(), "disarming must restore green");
        let opts = SimOptions::default();
        for TallCase { name, c, pairs } in tall_cases() {
            let tests = tall_sets(&c).swap_remove(0).1;
            let chains = ChainMap::full(c.num_dffs());
            let reference = trace_reference(&c, &chains, &tests, &pairs, opts);
            arm(Some(KernelMutation::TransposeDropsLastPattern));
            let red = TALL_HEIGHTS.iter().any(|&height| {
                soa_per_test(&c, &chains, &tests, &pairs, height, None, opts) != reference
            });
            arm(None);
            assert!(
                red,
                "a lossy transpose must not survive the {name} tall matrix"
            );
        }
    }

    #[test]
    fn detect_mask_short_drops_the_last_lane() {
        // The short mask silently drops the *last* (pattern, fault) lane,
        // so the differential only reddens when that lane would have
        // detected. Arrange exactly that: a tile full to the last lane of
        // the kernel word (16 copies of one test, 31 faults each) whose
        // final candidate is a known-detected fault.
        const HEIGHT: usize = 16;
        let diff = Diff::s27();
        let good = GoodSim::new(&diff.c);
        let lc = LevelizedCircuit::build(&diff.c, good.levelization());
        let test = &diff.tests[0];
        arm(None);
        let opts = SimOptions::default();
        let detected =
            trace_reference(&diff.c, &diff.chains, &diff.tests[..1], &diff.pairs, opts).remove(0);
        let last = *detected.last().expect("s27 TS0 detects faults");
        let mut chunk: Vec<(FaultId, Fault)> = diff
            .pairs
            .iter()
            .filter(|&&(id, _)| id != last)
            .take(tile_fault_capacity(HEIGHT) - 1)
            .copied()
            .collect();
        chunk.push(
            *diff
                .pairs
                .iter()
                .find(|&&(id, _)| id == last)
                .expect("the detected fault is in the universe"),
        );
        assert_eq!(HEIGHT * (chunk.len() + 1), KernelWord::LANES);
        let tile = vec![test; HEIGHT];
        let run = |armed| {
            arm(armed);
            let out = simulate_tile_lanes(&diff.c, &lc, &diff.chains, &tile, &chunk, opts);
            arm(None);
            out
        };
        let clean = run(None);
        assert!(
            clean[HEIGHT - 1].contains(&last),
            "the staged last lane must detect when unmutated"
        );
        let short = run(Some(KernelMutation::DetectMaskShort));
        assert!(
            !short[HEIGHT - 1].contains(&last),
            "the short mask must drop the last lane's detection"
        );
        assert_ne!(short, clean, "the oracle sees the dropped lane");
    }
}
