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
    // `(circuit, threads that write the file, threads that resume it)`.
    for (name, threads, resume_threads, (c, cfg)) in [
        ("s27", 1, 1, s27_cfg()),
        ("s208", 4, 4, s208_cfg()),
        ("s208", 4, 2, s208_cfg()),
    ] {
        let _quiet = Armed::quiescent();
        let dir = scratch_dir(&format!("resume-{name}-{threads}-{resume_threads}"));
        let cfg = cfg.with_campaign_dir(&dir);
        let expected = Procedure2::new(&c, cfg.clone().with_threads(threads)).run();

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

        // An iteration's trials run in windows of `resume_threads` from
        // its first `D1` position (or from the resumed position), so a
        // checkpoint whose next trial is not a window's first makes the
        // resumed run window the rest of the iteration differently.
        let mut mid_window = 0;
        let resume_cfg = cfg.clone().with_threads(resume_threads);
        for (k, &end) in boundaries.iter().enumerate() {
            // The kill can land anywhere after the checkpoint: exactly at
            // it, before its newline, mid-write of the next append's first
            // line (torn), or after some whole lines of that append
            // (partial: its trial lines, then a torn prefix of its last).
            let kept = lines[..=end].join("\n");
            let next = boundaries.get(k + 1).copied().unwrap_or(lines.len() - 1);
            let whole: String = lines[end + 1..next]
                .iter()
                .map(|l| format!("{l}\n"))
                .collect();
            let partial = format!("{kept}\n{whole}{}", &lines[next][..lines[next].len() / 2]);
            for (variant, killed) in [
                ("clean", format!("{kept}\n")),
                ("unterminated", kept.clone()),
                ("torn", format!("{kept}\n{{\"type\":\"trial\",\"i\":9")),
                ("partial", partial),
            ] {
                let at = format!(
                    "{name} boundary {k} ({variant}, {threads} -> {resume_threads} threads)"
                );
                let copy = dir.join(format!("killed-at-{k}-{variant}.jsonl"));
                std::fs::write(&copy, killed).unwrap();
                let state = load_checkpoint(&copy).unwrap_or_else(|e| panic!("{at}: {e}"));
                if variant == "clean"
                    && state.in_iteration
                    && !state.d1_pos.is_multiple_of(resume_threads)
                    && state.d1_pos < cfg.d1_max as usize
                {
                    mid_window += 1;
                }
                let resumed = Procedure2::new(&c, resume_cfg.clone())
                    .resume(state)
                    .unwrap_or_else(|e| panic!("{at}: {e}"));
                assert_eq!(resumed, expected, "{at}: resume must converge");
                // The resumed file is the uninterrupted one with the seam
                // after the checkpoint it resumed from.
                let cut: usize = lines[..=end].iter().map(|l| l.len() + 1).sum();
                let seam = format!("{{\"type\":\"resume\",\"circuit\":\"{name}\"}}\n");
                assert_eq!(
                    std::fs::read_to_string(&copy).unwrap(),
                    format!("{}{seam}{}", &text[..cut], &text[cut..]),
                    "{at}: the resumed file minus its seam"
                );
            }
        }
        assert!(
            resume_threads == 1 || mid_window > 0,
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
    // A degraded campaign's own *sequential* simulator runs TS0, every
    // window's first trial, and everything after the degrade; it alone
    // emits `fsim.batches` and `fsim.faults_simulated` (its lanes used),
    // while `fsim.lanes_*` sum its kernel work and the pool's. Pin their
    // exactness: capacity is batches x the kernel word, and every
    // pattern of a batch spends one lane on its fault-free reference
    // machine (however tall the fill rule packs s27's ~32 target
    // faults), so the caller's lanes used must sit strictly below its
    // capacity — a regression to "used == capacity" (counting allocated
    // instead of occupied lanes) trips this.
    use random_limited_scan::obs::{self, record::Event};
    use std::collections::BTreeMap;
    use std::sync::Arc;
    let (c, cfg) = s27_cfg();
    let dir = scratch_dir("caller-lanes");
    let armed = Armed::new(InjectionPlan {
        poison_tag: Some(0),
        ..InjectionPlan::default()
    });
    let sink = Arc::new(obs::MemorySink::new());
    assert!(
        obs::install(sink.clone() as Arc<dyn obs::Sink>),
        "no other collector may be installed"
    );
    let outcome = Procedure2::new(&c, cfg.with_threads(4).with_campaign_dir(&dir)).run();
    obs::finish().expect("the collector installed above");
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
    let mut totals: BTreeMap<&str, u64> = BTreeMap::new();
    for e in sink.take() {
        if let Event::Metric(m) = e {
            *totals.entry(m.name).or_default() += m.value;
        }
    }
    let total = |name: &str| totals.get(name).copied().unwrap_or(0);
    let lanes = rls_fsim::KernelWord::LANES as u64;
    let batches = total("fsim.batches");
    let used = total("fsim.faults_simulated");
    assert!(batches > 0, "{totals:?}");
    assert_eq!(
        total("fsim.lanes_capacity"),
        (batches + total("dispatch.batches")) * lanes,
        "capacity is exactly batches x the kernel word: {totals:?}"
    );
    assert!(used > 0, "{totals:?}");
    assert!(
        used < batches * lanes,
        "reference lanes keep every batch below 512 fault lanes; used == \
         capacity means the accounting regressed to allocated lanes: {totals:?}"
    );
}
