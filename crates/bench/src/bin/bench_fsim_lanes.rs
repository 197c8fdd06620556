//! `bench_fsim_lanes` — measures the fault-simulation kernel across the
//! (lane word × tile height) matrix and records the comparison as JSONL.
//!
//! ```text
//! bench_fsim_lanes [out.json]    (default: BENCH_fsim_lanes.json)
//! ```
//!
//! Runs the s953 TS0 test set drop-as-you-go, in test order, at each
//! word (64/128/256/512 lanes) × each tile height (1/2/4/8 tests): the
//! tests are grouped by `plan_tiles` and each tile runs
//! `simulate_tile_lanes::<W>` against the live list in chunks of
//! `lanes / height - 1` faults (one lane per pattern is its fault-free
//! reference machine), exactly as `FaultSimulator::run_tests` does at
//! the compiled `KernelWord` × `TILE_HEIGHT`.
//!
//! Each configuration runs several repeats and keeps the fastest pass
//! (the usual noise rejection for wall-clock numbers). Every
//! configuration must detect exactly the faults, in exactly the order,
//! of the first (64 lanes × 1) row, and the compiled row must equal
//! `FaultSimulator::run_tests`, or the run aborts — a benchmark of a
//! wrong kernel is worthless.
//!
//! The output is one JSONL record per configuration behind a `fsim_lanes`
//! header:
//!
//! ```text
//! {"type":"fsim_lanes","circuit":"s953","tests":32,...,"default_lanes":512,"default_pattern_lanes":4}
//! {"type":"lane_width","lanes":512,"words":8,"pattern_lanes":4,"test_nanos":...,"batches":...,"speedup_vs_64":...}
//! ```
//!
//! `rls-report --lanes <file>` renders the matrix; `rls-report --lanes
//! <file> --gate` additionally checks the compiled shape against the
//! file's own history: its row must be present and within 1.25× of the
//! fastest row.

use std::collections::HashSet;
use std::time::Instant;

use rls_core::{generate_ts0, RlsConfig};
use rls_dispatch::jsonl::JsonObject;
use rls_fsim::{
    plan_tiles, simulate_tile_lanes, tile_fault_capacity, ChainMap, Fault, FaultId, FaultSimulator,
    KernelWord, LaneWord, ScanTest, SimOptions, TILE_HEIGHT,
};
use rls_netlist::{Circuit, LevelizedCircuit};

/// Repeats per configuration; the fastest pass survives.
const REPEATS: usize = 3;

/// The swept tile heights.
const HEIGHTS: [usize; 4] = [1, 2, 4, 8];

/// One measured (word, tile height) configuration.
struct Sample {
    lanes: usize,
    height: usize,
    /// Fastest-of-repeats wall time of one pass over the test set.
    test_nanos: u64,
    /// Kernel invocations in one pass (identical across repeats).
    batches: u64,
    /// Detections in drop order — the cross-configuration oracle.
    detected: Vec<FaultId>,
}

/// What every pass shares: the circuit, its lowering and full-scan
/// chains, and the collapsed target list as `(id, fault)` pairs.
struct Setup<'c> {
    circuit: &'c Circuit,
    lc: LevelizedCircuit,
    chains: ChainMap,
    targets: Vec<(FaultId, Fault)>,
}

/// One drop-as-you-go pass at word `W` and tile `height`: the wall time,
/// the kernel calls, and the detections in drop order.
fn one_pass<W: LaneWord>(
    s: &Setup<'_>,
    tests: &[ScanTest],
    height: usize,
) -> (u64, u64, Vec<FaultId>) {
    let start = Instant::now();
    let mut live = s.targets.clone();
    let mut detected = Vec::new();
    let mut batches = 0;
    for (lo, hi) in plan_tiles(tests, height) {
        if live.is_empty() {
            break;
        }
        let tile: Vec<&ScanTest> = tests[lo..hi].iter().collect();
        let mut per_pattern: Vec<Vec<FaultId>> = vec![Vec::new(); tile.len()];
        for chunk in live.chunks(tile_fault_capacity::<W>(tile.len())) {
            batches += 1;
            let opts = SimOptions::default();
            let dets = simulate_tile_lanes::<W>(s.circuit, &s.lc, &s.chains, &tile, chunk, opts);
            for (p, d) in dets.into_iter().enumerate() {
                per_pattern[p].extend(d);
            }
        }
        // Merge in test order, as sequential dropping would.
        let mut seen: HashSet<FaultId> = HashSet::new();
        detected.extend(
            per_pattern
                .into_iter()
                .flatten()
                .filter(|&id| seen.insert(id)),
        );
        live.retain(|(id, _)| !seen.contains(id));
    }
    (start.elapsed().as_nanos() as u64, batches, detected)
}

fn measure<W: LaneWord>(s: &Setup<'_>, tests: &[ScanTest], height: usize) -> Sample {
    let mut best_nanos = u64::MAX;
    let mut batches = 0;
    let mut detected = Vec::new();
    for repeat in 0..REPEATS {
        let (nanos, b, d) = one_pass::<W>(s, tests, height);
        best_nanos = best_nanos.min(nanos);
        if repeat == 0 {
            batches = b;
            detected = d;
        } else {
            assert_eq!(
                detected,
                d,
                "x{height} at {} lanes: repeats must agree",
                W::LANES
            );
        }
    }
    Sample {
        lanes: W::LANES,
        height,
        test_nanos: best_nanos,
        batches,
        detected,
    }
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_fsim_lanes.json".into());
    let c = rls_benchmarks::by_name("s953").expect("s953 is registered");
    let cfg = RlsConfig::new(8, 16, 16);
    let tests = generate_ts0(&c, &cfg);
    let mut engine = FaultSimulator::new(&c);
    let setup = Setup {
        circuit: &c,
        lc: LevelizedCircuit::build(&c, engine.good().levelization()),
        chains: ChainMap::full(c.num_dffs()),
        targets: engine
            .live()
            .iter()
            .map(|&id| (id, engine.universe().fault(id)))
            .collect(),
    };
    let mut samples: Vec<Sample> = Vec::new();
    rls_scan::for_each_lane_word!(W => {
        for height in HEIGHTS {
            samples.push(measure::<W>(&setup, &tests, height));
        }
    });
    // The oracle before the numbers: every configuration found the same
    // faults in the same order as the first (64 lanes x 1) row, and the
    // compiled shape is what the production engine runs.
    for s in &samples[1..] {
        assert_eq!(
            s.detected, samples[0].detected,
            "x{} at {} lanes disagrees with the 64-lane x1 row",
            s.height, s.lanes
        );
    }
    engine.run_tests(&tests);
    assert_eq!(
        engine.detected(),
        &samples[0].detected[..],
        "the engine disagrees"
    );
    let base = samples[0].test_nanos.max(1);
    let mut lines = vec![JsonObject::new()
        .str("type", "fsim_lanes")
        .str("circuit", c.name())
        .num("tests", tests.len() as u64)
        .num("detected", samples[0].detected.len() as u64)
        .num("repeats", REPEATS as u64)
        .num("default_lanes", KernelWord::LANES as u64)
        .num("default_pattern_lanes", TILE_HEIGHT as u64)
        .render()];
    for s in &samples {
        let speedup = base as f64 / s.test_nanos.max(1) as f64;
        lines.push(
            JsonObject::new()
                .str("type", "lane_width")
                .num("lanes", s.lanes as u64)
                .num("words", (s.lanes / 64) as u64)
                .num("pattern_lanes", s.height as u64)
                .num("test_nanos", s.test_nanos)
                .num("batches", s.batches)
                .float("speedup_vs_64", speedup)
                .render(),
        );
        println!(
            "x{} {:>4} lanes: {:>12} ns  ({} batches, {speedup:.2}x vs 64 lanes x1)",
            s.height, s.lanes, s.test_nanos, s.batches,
        );
    }
    std::fs::write(&out_path, lines.join("\n") + "\n").expect("write bench record");
    println!("wrote {out_path}");
}
