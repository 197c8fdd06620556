//! `bench_fsim_lanes` — measures the fault-simulation kernel across the
//! (lane width × pattern lanes) matrix and records the comparison as
//! JSONL.
//!
//! ```text
//! bench_fsim_lanes [out.json]    (default: BENCH_fsim_lanes.json)
//! ```
//!
//! Runs the sequential engine over the s953 TS0 test set at each word
//! width (64/128/256/512 lanes) × each tile height (1/2/4/8 pattern
//! lanes), where a height-`P` tile simulates `P` shape-compatible tests
//! against `lanes / P - 1` faults in one pass (one lane per pattern is
//! its fault-free reference machine).
//!
//! Timing comes from the `fsim.test_nanos` histogram captured through an
//! in-memory obs sink; it covers each test's whole engine job. Each
//! configuration runs several repeats and keeps the fastest total (the
//! usual noise-rejection for wall-clock numbers); every configuration must
//! detect the identical fault set as the first (64 lanes × 1) row or the
//! run aborts — a benchmark of a wrong kernel is worthless.
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
//! <file> --gate` additionally checks the compiled default against the
//! file's own history: its row must be present and within 1.25× of the
//! fastest row.

use std::sync::Arc;

use rls_core::{generate_ts0, RlsConfig};
use rls_dispatch::jsonl::JsonObject;
use rls_fsim::{
    FaultId, FaultSimulator, LaneWidth, ScanTest, PATTERN_LANES_ALL, PATTERN_LANES_DEFAULT,
};
use rls_netlist::Circuit;
use rls_obs::{MemorySink, Sink};

/// Repeats per configuration; the fastest total survives.
const REPEATS: usize = 3;

/// One measured (width, tile height) configuration.
struct Sample {
    width: LaneWidth,
    pattern_lanes: usize,
    /// Fastest-of-repeats total `fsim.test_nanos` over the test set.
    test_nanos: u64,
    /// Kernel invocations in one pass (identical across repeats).
    batches: u64,
    /// Detected faults after the pass — the cross-configuration oracle.
    detected: Vec<FaultId>,
}

/// One full engine pass, returning the summed `fsim.test_nanos`
/// histogram, the batch count, and the detected set.
fn one_pass(
    c: &Circuit,
    tests: &[ScanTest],
    width: LaneWidth,
    pattern_lanes: usize,
) -> (u64, u64, Vec<FaultId>) {
    let sink = Arc::new(MemorySink::new());
    assert!(
        rls_obs::install(sink.clone() as Arc<dyn Sink>),
        "another obs collector is installed; run the bench standalone"
    );
    let mut sim = FaultSimulator::new(c);
    sim.set_lane_width(width);
    sim.set_pattern_lanes(pattern_lanes);
    sim.run_tests(tests);
    rls_obs::finish().expect("installed above");
    let mut nanos = 0;
    let mut batches = 0;
    for e in sink.take() {
        if let rls_obs::record::Event::Metric(m) = e {
            match m.name {
                "fsim.test_nanos" => nanos += m.value,
                "fsim.batches" => batches += m.value,
                _ => {}
            }
        }
    }
    let mut detected = sim.detected().to_vec();
    detected.sort_unstable();
    (nanos, batches, detected)
}

fn measure(c: &Circuit, tests: &[ScanTest], width: LaneWidth, pattern_lanes: usize) -> Sample {
    let mut best_nanos = u64::MAX;
    let mut batches = 0;
    let mut detected = Vec::new();
    for repeat in 0..REPEATS {
        let (nanos, b, d) = one_pass(c, tests, width, pattern_lanes);
        best_nanos = best_nanos.min(nanos);
        if repeat == 0 {
            batches = b;
            detected = d;
        } else {
            assert_eq!(
                detected, d,
                "x{pattern_lanes} at {width}: repeats must agree"
            );
        }
    }
    Sample {
        width,
        pattern_lanes,
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
    let mut samples: Vec<Sample> = Vec::new();
    for width in LaneWidth::ALL {
        for p in PATTERN_LANES_ALL {
            samples.push(measure(&c, &tests, width, p));
        }
    }
    // The oracle before the numbers: every configuration found the same
    // faults as the first (64 lanes x 1) row.
    for s in &samples[1..] {
        assert_eq!(
            s.detected, samples[0].detected,
            "x{} at {} disagrees with the 64-lane x1 row",
            s.pattern_lanes, s.width
        );
    }
    let base = samples[0].test_nanos.max(1);
    let mut lines = vec![JsonObject::new()
        .str("type", "fsim_lanes")
        .str("circuit", c.name())
        .num("tests", tests.len() as u64)
        .num("detected", samples[0].detected.len() as u64)
        .num("repeats", REPEATS as u64)
        .num("default_lanes", LaneWidth::DEFAULT.lanes() as u64)
        .num("default_pattern_lanes", PATTERN_LANES_DEFAULT as u64)
        .render()];
    for s in &samples {
        let speedup = base as f64 / s.test_nanos.max(1) as f64;
        lines.push(
            JsonObject::new()
                .str("type", "lane_width")
                .num("lanes", s.width.lanes() as u64)
                .num("words", s.width.words() as u64)
                .num("pattern_lanes", s.pattern_lanes as u64)
                .num("test_nanos", s.test_nanos)
                .num("batches", s.batches)
                .float("speedup_vs_64", speedup)
                .render(),
        );
        println!(
            "x{} {:>4} lanes: {:>12} ns  ({} batches, {speedup:.2}x vs 64 lanes x1)",
            s.pattern_lanes,
            s.width.lanes(),
            s.test_nanos,
            s.batches,
        );
    }
    std::fs::write(&out_path, lines.join("\n") + "\n").expect("write bench record");
    println!("wrote {out_path}");
}
