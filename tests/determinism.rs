//! Parallel-execution determinism: Procedure 2 driven through the
//! `rls-dispatch` worker pool must be bit-identical to the sequential
//! oracle (`threads = 1`), because a set's detections against a given
//! live list are invariant under scheduling, and each window's trials
//! are applied in `D1` order, every one to the live list the trials
//! before it left.
//!
//! These tests are the contract behind the `RLS_THREADS` knob: any table
//! row may be produced with any thread count. (The kernel's word × tile
//! height axis is covered below the campaign level, by
//! `tests/soa_oracle.rs`.)

use random_limited_scan::core::{Procedure2, Procedure2Outcome, RlsConfig};

fn run_with_threads(
    circuit: &rls_netlist::Circuit,
    cfg: RlsConfig,
    threads: usize,
) -> Procedure2Outcome {
    Procedure2::new(circuit, cfg.with_threads(threads)).run()
}

#[test]
fn s27_parallel_is_bit_identical_to_sequential() {
    // Short tests leave TS0 incomplete, so trials run on the pool.
    let c = random_limited_scan::benchmarks::s27();
    let cfg = RlsConfig::new(2, 3, 2);
    let sequential = run_with_threads(&c, cfg.clone(), 1);
    let parallel = run_with_threads(&c, cfg, 4);
    assert_eq!(sequential, parallel);
}

#[test]
fn synthetic_circuit_parallel_is_bit_identical_to_sequential() {
    // s208 is a profile-matched synthetic stand-in — larger state and
    // fault list than s27, so the pool runs real trials.
    let c = random_limited_scan::benchmarks::by_name("s208").expect("s208 exists");
    let mut cfg = RlsConfig::new(8, 16, 16);
    cfg.max_iterations = 6; // bound the greedy loop; equality is the point
    let sequential = run_with_threads(&c, cfg.clone(), 1);
    let parallel = run_with_threads(&c, cfg, 4);
    assert_eq!(sequential, parallel);
}

#[test]
fn campaign_jsonl_records_only_what_decides_the_run() {
    // The header names the circuit and the file name its fingerprint;
    // neither the thread count nor a wall time nor a worker counter
    // appears anywhere in the file.
    let c = random_limited_scan::benchmarks::s27();
    let dir = std::env::temp_dir().join(format!("rls-det-campaign-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = RlsConfig::new(4, 8, 8)
        .with_threads(4)
        .with_campaign_dir(&dir);
    let procedure = Procedure2::new(&c, cfg);
    let outcome = procedure.run();
    assert!(outcome.final_coverage().detected > 0);
    let stem = format!("campaign-s27-{:016x}-r", procedure.fingerprint());
    let files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(files.len(), 1, "exactly one campaign record per run");
    let name = files[0].file_name().unwrap().to_str().unwrap();
    assert!(
        name.starts_with(&stem) && name.ends_with(".jsonl"),
        "{name}"
    );
    let text = std::fs::read_to_string(&files[0]).unwrap();
    assert!(text.starts_with("{\"type\":\"campaign\",\"circuit\":\"s27\"}\n"));
    assert!(text.contains("\"type\":\"summary\""));
    for absent in ["threads", "wall", "nanos", "workers"] {
        assert!(!text.contains(absent), "`{absent}` in:\n{text}");
    }
    let _ = std::fs::remove_dir_all(&dir);
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
    // Short tests leave s27's TS0 incomplete, so the campaign runs
    // trials and the parallel run hands them to its pool.
    let c = random_limited_scan::benchmarks::s27();
    let cfg = RlsConfig::new(2, 3, 2);
    let sequential = run_with_threads(&c, cfg.clone(), 1);
    let parallel = run_with_threads(&c, cfg.clone(), 4);
    assert_eq!(sequential, parallel, "tracing must not perturb the outcome");
    obs::finish().expect("a collector was installed");
    // The metrics stream parses, covers both runs, and ends in a summary.
    let records = obs::jsonl::read(&path).unwrap();
    let named = |name: &str| {
        records
            .iter()
            .filter(|r| r.str_field("name") == Some(name))
            .count()
    };
    let runs = named("procedure2.run");
    assert!(runs >= 2, "both procedure2 runs traced, got {runs}");
    assert!(
        named("dispatch.set") > 0,
        "the parallel run traced its sets"
    );
    assert_eq!(
        records.last().and_then(|r| r.str_field("type")),
        Some("obs_summary")
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn scan_variant_runs_are_bit_identical_across_threads() {
    // Partial and multichain scan run the same Procedure 2 on a chain
    // map, so the pooled runner must reproduce the sequential outcome
    // under either architecture too.
    use random_limited_scan::core::extension::{run_multichain, run_partial};
    use rls_scan::{MultiChain, PartialScan};
    let c = random_limited_scan::benchmarks::by_name("s298").expect("s298 exists");
    let n_sv = c.num_dffs();
    let half = PartialScan::new(n_sv, (0..n_sv.div_ceil(2)).collect());
    let short = MultiChain::with_max_length(n_sv, 4);
    let mut cfg = RlsConfig::new(8, 16, 16);
    cfg.max_iterations = 4;
    let partial = run_partial(&c, &half, &cfg.clone().with_threads(1));
    let multi = run_multichain(&c, &short, &cfg.clone().with_threads(1));
    assert!(!partial.pairs.is_empty() && !multi.pairs.is_empty());
    for threads in [2, 4] {
        let at = cfg.clone().with_threads(threads);
        assert_eq!(run_partial(&c, &half, &at), partial, "partial x {threads}");
        assert_eq!(
            run_multichain(&c, &short, &at),
            multi,
            "multichain x {threads}"
        );
    }
}

#[test]
fn campaign_records_are_identical_across_threads() {
    // Every thread count runs the one executor and records only what
    // the code, circuit, configuration and seed decide, so the campaign
    // files (TS0, trials, checkpoints, summary) match byte for byte.
    let c = random_limited_scan::benchmarks::by_name("s208").expect("s208 exists");
    let mut cfg = RlsConfig::new(2, 3, 2);
    cfg.max_iterations = 2;
    let files: Vec<Vec<u8>> = [1, 2, 4]
        .into_iter()
        .map(|threads| {
            let dir = std::env::temp_dir()
                .join(format!("rls-det-records-{threads}t-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let at = cfg.clone().with_threads(threads).with_campaign_dir(&dir);
            Procedure2::new(&c, at).run();
            let files: Vec<_> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().path())
                .collect();
            assert_eq!(files.len(), 1, "one campaign record per run");
            let bytes = std::fs::read(&files[0]).unwrap();
            let _ = std::fs::remove_dir_all(&dir);
            bytes
        })
        .collect();
    let text = String::from_utf8_lossy(&files[0]);
    assert!(
        text.contains("\"type\":\"checkpoint\""),
        "the s208 run keeps pairs and checkpoints them"
    );
    assert!(files[0] == files[1], "2 threads");
    assert!(files[0] == files[2], "4 threads");
}

#[test]
fn a_trial_that_empties_the_live_list_ends_its_window() {
    // Target the faults TS0 detects plus one fault that trial `p` of the
    // first iteration detects and no earlier trial does: that trial
    // empties the live list. At 2–4 threads it is a window's first trial
    // (simulated on the caller) or one of its pool trials, often with
    // trials left in its window; those must leave no record and the
    // outcome must not move.
    use random_limited_scan::core::{derive_test_set, generate_ts0, CoverageTarget};
    use rls_fsim::FaultSimulator;
    let c = random_limited_scan::benchmarks::by_name("s208").expect("s208 exists");
    let cfg = RlsConfig::new(4, 8, 8);
    let ts0 = generate_ts0(&c, &cfg);
    let mut sim = FaultSimulator::new(&c);
    sim.run_tests(&ts0);
    let mut seen = std::collections::HashSet::new();
    let mut cases = Vec::new();
    for (p, d1) in (1..=cfg.d1_max).enumerate() {
        let mut trial = FaultSimulator::new(&c);
        trial.set_targets(sim.live());
        trial.run_tests(&derive_test_set(&ts0, &cfg, 1, d1, cfg.d2(c.num_dffs())));
        let new: Vec<_> = trial
            .detected()
            .iter()
            .filter(|f| seen.insert(**f))
            .collect();
        if let Some(&&fault) = new.first() {
            let targets = sim.detected().iter().copied().chain([fault]).collect();
            cases.push((p, cfg.clone().with_target(CoverageTarget::Faults(targets))));
        }
    }
    // Each run's outcome and its campaign file.
    let run = |cfg: &RlsConfig, threads: usize| {
        let dir = std::env::temp_dir().join(format!("rls-det-empties-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let at = cfg.clone().with_threads(threads).with_campaign_dir(&dir);
        let outcome = Procedure2::new(&c, at).run();
        let file = std::fs::read_dir(&dir)
            .unwrap()
            .next()
            .unwrap()
            .unwrap()
            .path();
        let text = std::fs::read_to_string(file).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        (outcome, text)
    };
    let (mut mid_window, mut pool_mid_window) = ([false; 5], [false; 5]);
    for (p, cfg) in &cases {
        let (expect, text) = run(cfg, 1);
        assert!(expect.complete, "position {p}");
        let trials: Vec<&str> = text
            .lines()
            .filter(|l| l.contains("\"type\":\"trial\""))
            .collect();
        assert_eq!(
            trials.len(),
            p + 1,
            "position {p}: the last trial empties the list"
        );
        for threads in 2..=4 {
            assert_eq!(
                run(cfg, threads),
                (expect.clone(), text.clone()),
                "{p} x {threads}"
            );
            if p % threads != threads - 1 {
                mid_window[threads] = true;
                pool_mid_window[threads] |= p % threads != 0;
            }
        }
    }
    assert!(
        mid_window[2..].iter().all(|&m| m),
        "every thread count sees the list empty before its window ends: {cases:?}"
    );
    // A window of two has one pool trial, always its last.
    assert!(
        pool_mid_window[3..].iter().all(|&m| m),
        "a pool trial empties the list before its window ends"
    );
}
