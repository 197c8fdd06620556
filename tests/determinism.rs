//! Parallel-execution determinism: Procedure 2 driven through the
//! `rls-dispatch` worker pool must be bit-identical to the sequential
//! oracle (`threads = 1`), because the per-set detection union is
//! invariant under scheduling and the reduction merges detections in
//! live-list (fault-id) order at a set barrier.
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
    let cfg = RlsConfig::new(4, 8, 8)
        .with_threads(4)
        .with_campaign_dir(&dir);
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
