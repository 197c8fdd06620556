//! `bench_fsim_lanes` — measures the fault-simulation kernel across the
//! (lane word × tile height) matrix and against the production fill
//! rule, and records the comparison as JSONL.
//!
//! ```text
//! bench_fsim_lanes [out.json]    (default: BENCH_fsim_lanes.json)
//! ```
//!
//! Two workloads on s953, each run drop-as-you-go in test order:
//!
//! - `ts0`: the TS0 test set against the full collapsed fault list, at
//!   each word (64/128/256/512 lanes) × each fixed tile height (1/2/4/8
//!   tests), plus one row for the fill rule at `KernelWord`;
//! - `campaign`: the first derived `TS(I, D1)` set (`I = 1`, `D1 = 1`)
//!   against the live list TS0 leaves — the shape Procedure 2's
//!   iterations simulate — at `KernelWord` × each fixed height, plus the
//!   fill rule.
//!
//! A fixed-height row tiles each run of shape-compatible tests
//! (`compatible_run`) at most that tall; the fill row picks every tile's
//! height from the live count with `fill_height`, exactly as
//! `FaultSimulator::run_tests` does. Each tile runs
//! `simulate_tile_lanes::<W>` against the live list in chunks of
//! `lanes / height - 1` faults (one lane per pattern is its fault-free
//! reference machine).
//!
//! Each configuration runs several repeats and keeps the fastest pass
//! (the usual noise rejection for wall-clock numbers). Every row of a
//! workload must detect exactly the faults, in exactly the order, that
//! `FaultSimulator::run_tests` detects, or the run aborts — a benchmark
//! of a wrong kernel is worthless.
//!
//! The output is one JSONL record per configuration behind a `fsim_lanes`
//! header (`pattern_lanes` is 0 on the fill rows, whose height varies
//! per tile):
//!
//! ```text
//! {"type":"fsim_lanes","circuit":"s953","tests":32,...,"default_lanes":512}
//! {"type":"lane_width","workload":"ts0","tiling":"fixed","lanes":512,"words":8,"pattern_lanes":4,"test_nanos":...,"batches":...,"speedup_vs_64":...}
//! ```
//!
//! `rls-report --lanes <file>` renders the rows; `rls-report --lanes
//! <file> --gate` additionally checks each workload's fill row against
//! the file's own history: it must be present and within 1.25× of that
//! workload's fastest row.

use std::collections::HashSet;
use std::time::Instant;

use rls_core::{derive_test_set, generate_ts0, RlsConfig};
use rls_dispatch::jsonl::JsonObject;
use rls_fsim::{
    compatible_run, fill_height, simulate_tile_lanes, tile_fault_capacity, ChainMap, Fault,
    FaultId, FaultSimulator, KernelWord, LaneWord, ScanTest, SimOptions,
};
use rls_netlist::{Circuit, LevelizedCircuit};

/// Repeats per configuration; the fastest pass survives.
const REPEATS: usize = 3;

/// The swept fixed tile heights.
const HEIGHTS: [usize; 4] = [1, 2, 4, 8];

/// How a pass picks each tile's height.
#[derive(Clone, Copy)]
enum Tiling {
    /// At most this many tests of a compatible run.
    Fixed(usize),
    /// The production fill rule, from the live count.
    Fill,
}

impl Tiling {
    fn height(self, live: usize, run: usize) -> usize {
        match self {
            Tiling::Fixed(h) => run.min(h),
            Tiling::Fill => fill_height(live, run),
        }
    }
}

/// One measured configuration.
struct Sample {
    workload: &'static str,
    lanes: usize,
    tiling: Tiling,
    /// Fastest-of-repeats wall time of one pass over the test set.
    test_nanos: u64,
    /// Kernel invocations in one pass (identical across repeats).
    batches: u64,
    /// Detections in drop order — the cross-configuration oracle.
    detected: Vec<FaultId>,
}

/// What every pass shares: the circuit, its lowering and full-scan
/// chains.
struct Setup<'c> {
    circuit: &'c Circuit,
    lc: LevelizedCircuit,
    chains: ChainMap,
}

/// One drop-as-you-go pass at word `W` from the live list `targets`: the
/// wall time, the kernel calls, and the detections in drop order.
fn one_pass<W: LaneWord>(
    s: &Setup<'_>,
    tests: &[ScanTest],
    targets: &[(FaultId, Fault)],
    tiling: Tiling,
) -> (u64, u64, Vec<FaultId>) {
    let start = Instant::now();
    let mut live = targets.to_vec();
    let mut detected = Vec::new();
    let mut batches = 0;
    let mut lo = 0;
    while lo < tests.len() && !live.is_empty() {
        let hi = lo + tiling.height(live.len(), compatible_run(tests, lo));
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
        lo = hi;
    }
    (start.elapsed().as_nanos() as u64, batches, detected)
}

fn measure<W: LaneWord>(
    s: &Setup<'_>,
    workload: &'static str,
    tests: &[ScanTest],
    targets: &[(FaultId, Fault)],
    tiling: Tiling,
) -> Sample {
    let mut best_nanos = u64::MAX;
    let mut batches = 0;
    let mut detected = Vec::new();
    for repeat in 0..REPEATS {
        let (nanos, b, d) = one_pass::<W>(s, tests, targets, tiling);
        best_nanos = best_nanos.min(nanos);
        if repeat == 0 {
            batches = b;
            detected = d;
        } else {
            assert_eq!(
                detected,
                d,
                "{workload} at {} lanes: repeats must agree",
                W::LANES
            );
        }
    }
    Sample {
        workload,
        lanes: W::LANES,
        tiling,
        test_nanos: best_nanos,
        batches,
        detected,
    }
}

/// Asserts every row of `workload` found exactly the engine's detections,
/// in the engine's order.
fn check_rows(samples: &[Sample], workload: &str, engine: &[FaultId]) {
    for s in samples.iter().filter(|s| s.workload == workload) {
        assert_eq!(
            s.detected, engine,
            "{workload}: a row at {} lanes disagrees with the engine",
            s.lanes
        );
    }
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_fsim_lanes.json".into());
    let c = rls_benchmarks::by_name("s953").expect("s953 is registered");
    let cfg = RlsConfig::new(8, 16, 16);
    let ts0 = generate_ts0(&c, &cfg);
    let derived = derive_test_set(&ts0, &cfg, 1, 1, cfg.d2(c.num_dffs()));
    let mut engine = FaultSimulator::new(&c);
    let pairs = |engine: &FaultSimulator<'_>| -> Vec<(FaultId, Fault)> {
        engine
            .live()
            .iter()
            .map(|&id| (id, engine.universe().fault(id)))
            .collect()
    };
    let setup = Setup {
        circuit: &c,
        lc: LevelizedCircuit::build(&c, engine.good().levelization()),
        chains: ChainMap::full(c.num_dffs()),
    };
    let full = pairs(&engine);
    engine.run_tests(&ts0);
    let ts0_detected = engine.detected().to_vec();
    let tail = pairs(&engine);
    engine.run_tests(&derived);
    let campaign_detected = engine.detected()[ts0_detected.len()..].to_vec();
    let mut samples: Vec<Sample> = Vec::new();
    rls_scan::for_each_lane_word!(W => {
        for height in HEIGHTS {
            samples.push(measure::<W>(&setup, "ts0", &ts0, &full, Tiling::Fixed(height)));
        }
    });
    samples.push(measure::<KernelWord>(
        &setup,
        "ts0",
        &ts0,
        &full,
        Tiling::Fill,
    ));
    for height in HEIGHTS {
        let fixed = Tiling::Fixed(height);
        samples.push(measure::<KernelWord>(
            &setup, "campaign", &derived, &tail, fixed,
        ));
    }
    samples.push(measure::<KernelWord>(
        &setup,
        "campaign",
        &derived,
        &tail,
        Tiling::Fill,
    ));
    // The oracle before the numbers: every configuration found the same
    // faults in the same order as the production engine.
    check_rows(&samples, "ts0", &ts0_detected);
    check_rows(&samples, "campaign", &campaign_detected);
    let base = samples[0].test_nanos.max(1);
    let mut lines = vec![JsonObject::new()
        .str("type", "fsim_lanes")
        .str("circuit", c.name())
        .num("tests", ts0.len() as u64)
        .num("detected", ts0_detected.len() as u64)
        .num("campaign_tests", derived.len() as u64)
        .num("campaign_live", tail.len() as u64)
        .num("campaign_detected", campaign_detected.len() as u64)
        .num("repeats", REPEATS as u64)
        .num("default_lanes", KernelWord::LANES as u64)
        .render()];
    for s in &samples {
        let speedup = base as f64 / s.test_nanos.max(1) as f64;
        let (tiling, height) = match s.tiling {
            Tiling::Fixed(h) => ("fixed", h),
            Tiling::Fill => ("fill", 0),
        };
        lines.push(
            JsonObject::new()
                .str("type", "lane_width")
                .str("workload", s.workload)
                .str("tiling", tiling)
                .num("lanes", s.lanes as u64)
                .num("words", (s.lanes / 64) as u64)
                .num("pattern_lanes", height as u64)
                .num("test_nanos", s.test_nanos)
                .num("batches", s.batches)
                .float("speedup_vs_64", speedup)
                .render(),
        );
        let shape = match s.tiling {
            Tiling::Fixed(h) => format!("x{h}"),
            Tiling::Fill => "fill".to_string(),
        };
        println!(
            "{:<8} {shape:>4} {:>4} lanes: {:>12} ns  ({} batches, {speedup:.2}x vs ts0 64 lanes x1)",
            s.workload, s.lanes, s.test_nanos, s.batches,
        );
    }
    std::fs::write(&out_path, lines.join("\n") + "\n").expect("write bench record");
    println!("wrote {out_path}");
}
