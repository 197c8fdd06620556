//! Resilience contract of the campaign execution subsystem, verified by
//! fault injection (`--features fault-inject`):
//!
//! * worker panics mid-campaign are supervised away — the outcome stays
//!   bit-identical to the sequential oracle;
//! * a persistently failing pool trial exhausts the retry budget, runs on
//!   the caller at its turn and degrades the campaign to the sequential
//!   executor, again without changing the outcome;
//! * killing a campaign at *any* checkpoint boundary (simulating
//!   `kill -9`, including a torn final line) and resuming from the
//!   surviving JSONL prefix converges to the identical final test set;
//! * injected campaign-file IO errors never abort a run — persistence
//!   degrades, results do not.
//!
//! Injection state is process-global, so every test serializes on one
//! lock and disarms before releasing it.

#![cfg(feature = "fault-inject")]

use std::path::PathBuf;
use std::sync::{Mutex, PoisonError};

use random_limited_scan::core::{load_checkpoint, Procedure2, Procedure2Outcome, RlsConfig};
use random_limited_scan::dispatch::inject::{self, InjectionPlan};
use rls_netlist::Circuit;

static LOCK: Mutex<()> = Mutex::new(());

/// Serializes a test against the global injection state and quiets the
/// panic hook (supervised worker panics are expected noise here).
/// Restores both on drop, so a failing test does not poison the rest.
struct Armed {
    _guard: std::sync::MutexGuard<'static, ()>,
}

impl Armed {
    fn new(plan: InjectionPlan) -> Self {
        let guard = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        // Pool workers are unnamed threads; keep their (expected) panics
        // quiet but let test-thread panics through — libtest names its
        // threads after the test.
        std::panic::set_hook(Box::new(|info| {
            if std::thread::current().name().is_some() {
                eprintln!("{info}");
            }
        }));
        inject::arm(plan);
        Armed { _guard: guard }
    }

    /// Lock held, nothing armed — for tests that must keep concurrent
    /// tests from injecting into *their* runs.
    fn quiescent() -> Self {
        Self::new(InjectionPlan::default())
    }
}

impl Drop for Armed {
    fn drop(&mut self) {
        inject::disarm();
        // The hook cannot be modified from a panicking thread; on a test
        // failure the next Armed::new replaces it anyway.
        if !std::thread::panicking() {
            let _ = std::panic::take_hook();
        }
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rls-resilience-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn s27_cfg() -> (Circuit, RlsConfig) {
    // Tiny test lengths leave TS0 incomplete, so Procedure 2 accepts
    // several pairs — each one a checkpoint boundary worth killing at.
    (
        random_limited_scan::benchmarks::s27(),
        RlsConfig::new(2, 3, 2),
    )
}

fn s208_cfg() -> (Circuit, RlsConfig) {
    let c = random_limited_scan::benchmarks::by_name("s208").expect("s208 exists");
    let mut cfg = RlsConfig::new(8, 16, 16);
    cfg.max_iterations = 4; // bound the greedy loop; equality is the point
    (c, cfg)
}

/// The sequential, injection-free oracle for a configuration.
fn oracle(c: &Circuit, cfg: &RlsConfig) -> Procedure2Outcome {
    Procedure2::new(c, cfg.clone().with_threads(1)).run()
}

#[test]
fn worker_panics_do_not_change_the_outcome() {
    for (name, (c, cfg)) in [("s27", s27_cfg()), ("s208", s208_cfg())] {
        let expected = {
            let _quiet = Armed::quiescent();
            oracle(&c, &cfg)
        };
        let armed = Armed::new(InjectionPlan {
            panic_every: Some(5),
            ..InjectionPlan::default()
        });
        let outcome = Procedure2::new(&c, cfg.with_threads(4)).run();
        let fired = inject::fired();
        drop(armed);
        assert!(fired > 0, "{name}: the plan must actually fire");
        assert_eq!(
            outcome, expected,
            "{name}: supervised recovery must be invisible"
        );
    }
}

#[test]
fn poisoned_trial_degrades_to_sequential_with_identical_outcome() {
    let (c, cfg) = s27_cfg();
    let expected = {
        let _quiet = Armed::quiescent();
        oracle(&c, &cfg)
    };
    // Tag 0 is the first pool trial of every window (the window's second
    // trial): it fails all retries, exhausting the budget and forcing the
    // degrade path.
    let armed = Armed::new(InjectionPlan {
        poison_tag: Some(0),
        ..InjectionPlan::default()
    });
    let outcome = Procedure2::new(&c, cfg.with_threads(4)).run();
    let fired = inject::fired();
    drop(armed);
    assert!(fired > 0, "the poisoned tag must be hit");
    assert_eq!(
        outcome, expected,
        "degraded execution must match the oracle"
    );
}

#[test]
fn resume_from_every_checkpoint_boundary_converges() {
    for (name, threads, (c, cfg)) in [("s27", 1, s27_cfg()), ("s208", 4, s208_cfg())] {
        let _quiet = Armed::quiescent();
        let dir = scratch_dir(&format!("resume-{name}"));
        let cfg = cfg.with_threads(threads).with_campaign_dir(&dir);
        let expected = Procedure2::new(&c, cfg.clone()).run();

        let record = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok().map(|e| e.path()))
            .find(|p| p.extension().is_some_and(|x| x == "jsonl"))
            .expect("the run persists one campaign record");
        let text = std::fs::read_to_string(&record).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let boundaries: Vec<usize> = lines
            .iter()
            .enumerate()
            .filter(|(_, l)| l.contains("\"type\":\"checkpoint\""))
            .map(|(i, _)| i)
            .collect();
        assert!(
            boundaries.len() >= 2,
            "{name}: need the post-TS0 checkpoint plus at least one pair"
        );

        // At 4 threads an iteration's trials run in windows of four from
        // its first `D1` position (or from the resumed position), so a
        // checkpoint whose next trial is not a window's first makes the
        // resumed run window the rest of the iteration differently.
        let mut mid_window = 0;
        for (k, &end) in boundaries.iter().enumerate() {
            // The kill can land anywhere after the checkpoint: exactly at
            // it, or mid-write of the next record (torn tail).
            for (variant, tail) in [("clean", ""), ("torn", "\n{\"type\":\"trial\",\"i\":9")] {
                let copy = dir.join(format!("killed-at-{k}-{variant}.jsonl"));
                std::fs::write(&copy, format!("{}{tail}", lines[..=end].join("\n"))).unwrap();
                let state = load_checkpoint(&copy)
                    .unwrap_or_else(|e| panic!("{name} boundary {k} ({variant}): {e}"));
                if variant == "clean"
                    && state.in_iteration
                    && state.d1_pos % threads != 0
                    && state.d1_pos < cfg.d1_max as usize
                {
                    mid_window += 1;
                }
                let resumed = Procedure2::new(&c, cfg.clone())
                    .resume(state)
                    .unwrap_or_else(|e| panic!("{name} boundary {k} ({variant}): {e}"));
                assert_eq!(
                    resumed, expected,
                    "{name}: resume from boundary {k} ({variant}) must converge"
                );
            }
        }
        assert!(
            threads == 1 || mid_window > 0,
            "{name}: no checkpoint falls in the middle of a window"
        );
    }
}

#[test]
fn campaign_io_errors_degrade_persistence_but_never_the_run() {
    let (c, cfg) = s27_cfg();
    let expected = {
        let _quiet = Armed::quiescent();
        oracle(&c, &cfg)
    };
    let dir = scratch_dir("io-errors");
    // `every` must stay at or below the campaign's IO-operation count
    // (create + a handful of appends before the sink is disabled).
    for every in [1, 2, 4] {
        let armed = Armed::new(InjectionPlan {
            io_error_every: Some(every),
            ..InjectionPlan::default()
        });
        let outcome = Procedure2::new(&c, cfg.clone().with_campaign_dir(&dir)).run();
        let fired = inject::fired();
        drop(armed);
        assert!(fired > 0, "io plan every={every} must fire");
        assert_eq!(
            outcome, expected,
            "io failures (every={every}) must not leak into results"
        );
    }
}

#[test]
fn degraded_campaign_records_exact_caller_lane_accounting() {
    // The workers record of a degraded campaign carries a `caller`
    // object with the lane accounting of the sets the campaign's own
    // *sequential* simulator ran: TS0, every window's first trial, and
    // everything after the degrade. Pin its exactness: capacity is
    // batches x the kernel word, and every pattern of a batch spends one
    // lane on its fault-free reference machine (however tall the fill
    // rule packs s27's ~32 target faults), so `lanes_used` must sit
    // strictly below capacity — a regression to "used == capacity"
    // (counting allocated instead of occupied lanes) trips this.
    let (c, cfg) = s27_cfg();
    let dir = scratch_dir("caller-lanes");
    let armed = Armed::new(InjectionPlan {
        poison_tag: Some(0),
        ..InjectionPlan::default()
    });
    let outcome = Procedure2::new(&c, cfg.with_threads(4).with_campaign_dir(&dir)).run();
    let fired = inject::fired();
    drop(armed);
    assert!(fired > 0, "the poisoned tag must be hit");
    assert!(outcome.total_detected > 0, "the degraded run still detects");
    let file = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .next()
        .expect("one campaign file");
    let text = std::fs::read_to_string(file).unwrap();
    assert!(
        text.contains("\"type\":\"degrade\""),
        "the poisoned pool trial degrades the campaign"
    );
    let workers = text
        .lines()
        .find(|l| l.contains("\"type\":\"workers\""))
        .expect("degraded parallel campaign still writes a workers record");
    let v = rls_obs::jsonl::parse(workers).unwrap();
    let caller = v
        .get("caller")
        .expect("degraded run records the caller's lane stats");
    let batches = caller.u64_field("batches").unwrap();
    let used = caller.u64_field("lanes_used").unwrap();
    let capacity = caller.u64_field("lanes_capacity").unwrap();
    assert!(batches > 0, "{workers}");
    let lanes = rls_fsim::KernelWord::LANES as u64;
    assert_eq!(
        capacity,
        batches * lanes,
        "capacity is exactly batches x the kernel word"
    );
    assert!(used > 0, "{workers}");
    assert!(
        used < capacity,
        "reference lanes keep every batch below 512 fault lanes; used == \
         capacity means the accounting regressed to allocated lanes: {workers}"
    );
}
