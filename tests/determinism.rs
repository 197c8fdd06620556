//! Parallel-execution determinism: Procedure 2 driven through the
//! `rls-dispatch` worker pool must be bit-identical to the sequential
//! oracle (`threads = 1`), because the per-set detection union is
//! invariant under scheduling and the reduction merges detections in
//! live-list (fault-id) order at a set barrier.
//!
//! These tests are the contract behind the `RLS_THREADS` knob: any table
//! row may be produced with any thread count — and behind `RLS_LANE_WIDTH`:
//! the wide-word kernel (64/128/256/512 lanes) is bit-identical to the
//! classic 64-lane one at every width, under any thread count.

use random_limited_scan::core::{generate_ts0, ExecProfile, Procedure2, Procedure2Outcome, RlsConfig};
use rls_fsim::LaneWidth;

fn run_with_threads(circuit: &rls_netlist::Circuit, cfg: RlsConfig, threads: usize) -> Procedure2Outcome {
    Procedure2::new(circuit, cfg.with_threads(threads)).run()
}

#[test]
fn s27_parallel_is_bit_identical_to_sequential() {
    let c = random_limited_scan::benchmarks::s27();
    let cfg = RlsConfig::new(4, 8, 8);
    let sequential = run_with_threads(&c, cfg.clone(), 1);
    let parallel = run_with_threads(&c, cfg, 4);
    assert_eq!(sequential, parallel);
}

#[test]
fn synthetic_circuit_parallel_is_bit_identical_to_sequential() {
    // s208 is a profile-matched synthetic stand-in — larger state and
    // fault list than s27, so the parallel path actually shards work.
    let c = random_limited_scan::benchmarks::by_name("s208").expect("s208 exists");
    let mut cfg = RlsConfig::new(8, 16, 16);
    cfg.max_iterations = 6; // bound the greedy loop; equality is the point
    let sequential = run_with_threads(&c, cfg.clone(), 1);
    let parallel = run_with_threads(&c, cfg, 4);
    assert_eq!(sequential, parallel);
}

#[test]
fn campaign_jsonl_records_worker_counters() {
    let c = random_limited_scan::benchmarks::s27();
    let dir = std::env::temp_dir().join(format!("rls-det-campaign-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = RlsConfig::new(4, 8, 8).with_threads(4).with_campaign_dir(&dir);
    let outcome = Procedure2::new(&c, cfg).run();
    assert!(outcome.final_coverage().detected > 0);
    let files = campaign_files(&dir);
    assert_eq!(files.len(), 1, "exactly one campaign record per run");
    let text = std::fs::read_to_string(&files[0]).unwrap();
    assert!(text.contains("\"type\":\"campaign\""));
    assert!(text.contains("\"type\":\"workers\""));
    assert!(text.contains("\"type\":\"summary\""));
    assert!(text.contains("\"threads\":4"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Campaign records for s27/4-thread runs under `dir`.
fn campaign_files(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
    std::fs::read_dir(dir)
        .map(|dir| {
            dir.filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| {
                    p.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.starts_with("campaign-s27-4t-") && n.ends_with(".jsonl"))
                })
                .collect()
        })
        .unwrap_or_default()
}

#[test]
fn every_lane_width_matches_the_64_lane_oracle() {
    // The wide-word kernel oracle at the campaign level: the full
    // Procedure 2 outcome (test set, shifts, coverage trajectory) is
    // invariant over kernel width and thread count. The baseline is the
    // classic configuration — 64 lanes, sequential.
    for (name, c, cfg) in [
        ("s27", random_limited_scan::benchmarks::s27(), RlsConfig::new(4, 8, 8)),
        (
            "s208",
            random_limited_scan::benchmarks::by_name("s208").expect("s208 exists"),
            {
                let mut cfg = RlsConfig::new(8, 16, 16);
                cfg.max_iterations = 4; // bound the greedy loop; equality is the point
                cfg
            },
        ),
    ] {
        let baseline = Procedure2::new(&c, cfg.clone().with_lane_width(LaneWidth::W64).with_threads(1)).run();
        for width in LaneWidth::ALL {
            for threads in [1, 4] {
                let outcome = Procedure2::new(
                    &c,
                    cfg.clone().with_lane_width(width).with_threads(threads),
                )
                .run();
                assert_eq!(
                    outcome, baseline,
                    "{name}: width {width} x {threads} thread(s) must match the 64-lane sequential oracle"
                );
            }
        }
    }
}

#[test]
fn rls_lane_width_env_knob_selects_an_equivalent_kernel() {
    // The `RLS_LANE_WIDTH` environment knob routes through
    // `ExecProfile::from_env` into the campaign configuration; every
    // accepted spelling (lanes or u64 words) yields a bit-identical run.
    let c = random_limited_scan::benchmarks::s27();
    let cfg = RlsConfig::new(4, 8, 8);
    let baseline = Procedure2::new(&c, cfg.clone().with_threads(1)).run();
    let saved = std::env::var("RLS_LANE_WIDTH").ok();
    for (value, want) in [
        ("64", LaneWidth::W64),
        ("2", LaneWidth::W128),
        ("256", LaneWidth::W256),
        ("8", LaneWidth::W512),
    ] {
        std::env::set_var("RLS_LANE_WIDTH", value);
        let profile = ExecProfile::from_env().expect("a valid width spelling");
        assert_eq!(profile.lane_width, Some(want), "spelling `{value}`");
        let configured = profile.configure(cfg.clone());
        assert_eq!(configured.lane_width, want);
        let outcome = Procedure2::new(&c, configured.with_threads(1)).run();
        assert_eq!(outcome, baseline, "RLS_LANE_WIDTH={value}");
    }
    std::env::set_var("RLS_LANE_WIDTH", "three");
    assert!(
        ExecProfile::from_env().is_err(),
        "an unusable width must be an error, not a silent fallback"
    );
    match saved {
        Some(v) => std::env::set_var("RLS_LANE_WIDTH", v),
        None => std::env::remove_var("RLS_LANE_WIDTH"),
    }
}

#[test]
fn sampled_s953_faults_agree_at_every_width() {
    // Kernel-level oracle on a real-profile circuit: a systematic sample
    // of the s953 fault universe, simulated against TS0 tests, detects
    // the identical faults in the identical order at every width.
    use rls_fsim::{simulate_batch, simulate_chunk_at, Fault, FaultId, FaultUniverse, GoodSim, SimOptions};
    let c = random_limited_scan::benchmarks::by_name("s953").expect("s953 exists");
    let cfg = RlsConfig::new(8, 16, 8);
    let tests = generate_ts0(&c, &cfg);
    let sim = GoodSim::new(&c);
    let u = FaultUniverse::enumerate(&c);
    let sampled: Vec<(FaultId, Fault)> = u
        .faults()
        .iter()
        .enumerate()
        .step_by(3)
        .map(|(i, &f)| (FaultId(i as u32), f))
        .collect();
    assert!(
        sampled.len() > LaneWidth::W512.lanes(),
        "the sample must span several batches even at the widest kernel"
    );
    let mut any_detected = false;
    for test in tests.iter().take(2) {
        let trace = sim.simulate_test(test);
        // One-at-a-time serial reference: detections in candidate order.
        let serial: Vec<FaultId> = sampled
            .iter()
            .flat_map(|&(id, f)| simulate_batch(&sim, test, &trace, &[(id, f)]))
            .collect();
        any_detected |= !serial.is_empty();
        for width in LaneWidth::ALL {
            let mut batched: Vec<FaultId> = Vec::new();
            for chunk in sampled.chunks(width.lanes()) {
                batched.extend(simulate_chunk_at(
                    width,
                    &sim,
                    test,
                    &trace,
                    chunk,
                    SimOptions::default(),
                ));
            }
            assert_eq!(batched, serial, "width {width}: detections and order");
        }
    }
    assert!(any_detected, "the sample must exercise real detections");
}

#[test]
fn obs_enabled_parallel_is_bit_identical_to_sequential() {
    use random_limited_scan::obs;
    let dir = std::env::temp_dir().join(format!("rls-obs-det-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = obs::install_standard(obs::SinkMode::Jsonl, &dir, 0xdead)
        .unwrap()
        .expect("jsonl mode returns the metrics path");
    let c = random_limited_scan::benchmarks::s27();
    let cfg = RlsConfig::new(4, 8, 8);
    let sequential = run_with_threads(&c, cfg.clone(), 1);
    let parallel = run_with_threads(&c, cfg.clone(), 4);
    assert_eq!(sequential, parallel, "tracing must not perturb the outcome");
    // Every kernel width stays bit-identical with the collector live.
    for width in LaneWidth::ALL {
        let wide = Procedure2::new(&c, cfg.clone().with_lane_width(width).with_threads(4)).run();
        assert_eq!(wide, sequential, "width {width} under tracing");
    }
    obs::finish().expect("a collector was installed");
    // The metrics stream parses, covers both runs, and ends in a summary.
    let log = obs::MetricsLog::read(&path).unwrap();
    let runs = log
        .lines()
        .iter()
        .filter(|l| l.contains(r#""name":"procedure2.run""#))
        .count();
    assert!(runs >= 2, "both procedure2 runs traced, got {runs}");
    assert!(
        log.lines().iter().any(|l| l.contains(r#""name":"dispatch.set""#)),
        "the parallel run traced its sets"
    );
    assert!(log.lines().last().unwrap().contains(r#""type":"obs_summary""#));
    let _ = std::fs::remove_dir_all(&dir);
}
