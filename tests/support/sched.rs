//! Schedule-exploration harness for the worker pool.
//!
//! The static side of PR 8's concurrency work is the flow-aware linter;
//! this is the dynamic side: drive [`rls_dispatch::SharedPool`] through
//! *seeded adversarial interleavings* of submit / claim / drain / settle
//! and assert the campaign outcome stays byte-identical to the
//! sequential oracle under every one of them.
//!
//! Mechanics: `dispatch::inject` exposes `on_sched_point`, called at the
//! pool's lock-free scheduling points. When a plan with `sched_seed` is
//! armed, each point draws a pure `sched_verdict(seed, n)` and runs on,
//! yields, spins, or micro-sleeps accordingly — so one seed replays one
//! perturbation schedule and different seeds explore different
//! interleavings. [`soak`] derives ≥`runs` sub-seeds from one CI seed,
//! proves their perturbation schedules pairwise distinct (by
//! fingerprinting the verdict stream — no timing luck involved), and
//! rotates three scenarios over them:
//!
//! 1. a plain campaign wave (`SharedSetRunner` over the s27 sets);
//! 2. a campaign with seeded worker panics riding the requeue protocol;
//! 3. a shutdown drain with jobs still queued.
//!
//! Every scenario asserts the oracle contract; the harness then reports
//! the explored count through the `sched.permutations` counter.
//!
//! Included from test binaries via `#[path = "support/sched.rs"]`;
//! Cargo does not compile `tests/` subdirectories as test crates.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use rls_dispatch::inject::{self, sched_verdict, InjectionPlan};
use rls_dispatch::{SharedPool, SharedSetRunner};
use rls_fsim::{ChainMap, CompiledCircuit, FaultId, FaultSimulator, ScanTest, SimOptions};
use rls_netlist::Circuit;

/// How many leading verdicts identify a seed's perturbation schedule.
/// Far shorter than any scenario's point count, so two seeds with equal
/// fingerprints would genuinely replay each other's prefix.
const FINGERPRINT_LEN: usize = 32;

static LOCK: Mutex<()> = Mutex::new(());

/// Serializes a scenario against the process-global injection state and
/// quiets the panic hook (scenario 2 panics workers on purpose); restores
/// both on drop, exactly like `tests/resilience.rs`.
pub struct Armed {
    _guard: MutexGuard<'static, ()>,
}

impl Armed {
    pub fn new(plan: InjectionPlan) -> Self {
        let guard = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        std::panic::set_hook(Box::new(|info| {
            if std::thread::current().name().is_some() {
                eprintln!("{info}");
            }
        }));
        inject::arm(plan);
        Armed { _guard: guard }
    }
}

impl Drop for Armed {
    fn drop(&mut self) {
        inject::disarm();
        let _ = std::panic::take_hook();
    }
}

/// Derives the `i`-th sub-seed of a CI seed: one extra verdict draw, so
/// sub-seed streams are as decorrelated as the verdict streams they key.
pub fn sub_seed(ci_seed: u64, i: u64) -> u64 {
    sched_verdict(ci_seed, i.wrapping_add(1))
}

/// The first [`FINGERPRINT_LEN`] scheduling verdicts a seed would draw —
/// the replayable identity of its interleaving.
pub fn fingerprint(seed: u64) -> Vec<u64> {
    (1..=FINGERPRINT_LEN as u64)
        .map(|n| sched_verdict(seed, n))
        .collect()
}

/// The three-set s27 workload shared by every campaign scenario (the
/// same shape the pool's unit tests pin).
fn s27_sets() -> Vec<Vec<ScanTest>> {
    let plain = ScanTest::from_strings("001", &["0111", "1001", "0111", "1001", "0100"]).unwrap();
    let shifted = plain
        .clone()
        .with_shifts(vec![rls_fsim::ShiftOp {
            at: 3,
            amount: 1,
            fill: vec![false],
        }])
        .unwrap();
    let short = ScanTest::from_strings("110", &["1011", "0001"]).unwrap();
    vec![vec![plain.clone(), short], vec![shifted], vec![plain]]
}

/// The sequential oracle over the same sets, rendered to bytes.
fn oracle_bytes(c: &Circuit, sets: &[Vec<ScanTest>]) -> Vec<u8> {
    let mut sim = FaultSimulator::new(c);
    let mut counts = Vec::new();
    for set in sets {
        let mut n = 0;
        for t in set {
            if sim.live_count() == 0 {
                break;
            }
            n += sim.run_test(t).len();
        }
        counts.push(n);
    }
    campaign_bytes(&counts, sim.live())
}

/// Canonical byte rendering of a campaign outcome: per-set detection
/// counts plus the surviving live list. Byte equality here is the same
/// claim `tests/determinism.rs` makes by comparing campaign records.
pub fn campaign_bytes(counts: &[usize], live: &[FaultId]) -> Vec<u8> {
    format!("{counts:?}|{live:?}").into_bytes()
}

/// Runs `sets` through `runner` against a fresh simulator's live list,
/// applying each set's detections the way a campaign does.
fn run_campaign(runner: &SharedSetRunner, sets: &[Vec<ScanTest>]) -> Vec<u8> {
    let mut sim = FaultSimulator::on(compiled_s27());
    let counts: Vec<usize> = sets
        .iter()
        .map(|set| {
            let newly = runner.try_run_set(sim.live(), set).expect("waves settle");
            sim.apply_detections(&newly);
            newly.len()
        })
        .collect();
    campaign_bytes(&counts, sim.live())
}

fn compiled_s27() -> Arc<CompiledCircuit> {
    Arc::new(CompiledCircuit::compile(rls_benchmarks::s27()).unwrap())
}

fn s27_runner(threads: usize) -> SharedSetRunner {
    SharedSetRunner::new(
        compiled_s27(),
        ChainMap::full(3),
        SimOptions::default(),
        SharedPool::new(threads),
    )
}

/// Scenario 1: one campaign, one pool, seeded schedule noise.
fn plain_wave(seed: u64) {
    let _armed = Armed::new(InjectionPlan {
        sched_seed: Some(seed),
        ..InjectionPlan::default()
    });
    let sets = s27_sets();
    let want = oracle_bytes(&rls_benchmarks::s27(), &sets);
    let runner = s27_runner(2);
    assert_eq!(
        run_campaign(&runner, &sets),
        want,
        "plain wave, seed {seed:#x}"
    );
    drop(runner);
    assert!(
        inject::sched_points() > 0,
        "the seed must actually have steered points"
    );
}

/// Scenario 2: schedule noise *plus* seeded worker panics — the requeue
/// waves must re-run exactly the failed tags and still converge on the
/// oracle bytes. The three s27 sets are four test-block jobs in all, so
/// every second job panics.
fn requeue_under_noise(seed: u64) {
    let _armed = Armed::new(InjectionPlan {
        sched_seed: Some(seed),
        panic_every: Some(2),
        ..InjectionPlan::default()
    });
    let sets = s27_sets();
    let want = oracle_bytes(&rls_benchmarks::s27(), &sets);
    let runner = s27_runner(2);
    assert_eq!(
        run_campaign(&runner, &sets),
        want,
        "requeue, seed {seed:#x}"
    );
    assert!(
        inject::fired() > 0,
        "panic_every=2 must have supervised some panics"
    );
}

/// Scenario 3: shutdown with jobs still queued — the drain guarantee
/// (every queued job runs before workers exit) must hold under any
/// claim-order perturbation.
fn shutdown_drain(seed: u64) {
    let _armed = Armed::new(InjectionPlan {
        sched_seed: Some(seed),
        ..InjectionPlan::default()
    });
    let mut pool = SharedPool::new(2);
    let ran = Arc::new(AtomicUsize::new(0));
    for t in 0..48 {
        let r = Arc::clone(&ran);
        pool.submit_tagged(t, move |_| {
            r.fetch_add(1, Ordering::SeqCst);
        });
    }
    pool.shutdown();
    assert_eq!(ran.load(Ordering::SeqCst), 48, "drain, seed {seed:#x}");
    assert!(
        pool.take_failures().is_empty(),
        "drained jobs are not failures"
    );
}

/// Scenario 1's outcome bytes, optionally with the flight recorder
/// armed. Equal bytes for `record` on and off — under the same
/// adversarial schedule — is the proof that recording never perturbs a
/// campaign: the recorder only ever appends to per-thread rings.
pub fn wave_bytes(seed: u64, record: bool) -> Vec<u8> {
    let _armed = Armed::new(InjectionPlan {
        sched_seed: Some(seed),
        ..InjectionPlan::default()
    });
    if record {
        assert!(rls_obs::recorder::start(512), "the recorder must arm");
    }
    let sets = s27_sets();
    let runner = s27_runner(4);
    let got = run_campaign(&runner, &sets);
    if record {
        let snap = rls_obs::recorder::drain();
        assert!(!snap.events.is_empty(), "an armed recorder captures events");
        rls_obs::recorder::stop();
    }
    got
}

/// Explores at least `runs` distinct interleavings derived from one CI
/// seed, rotating the three scenarios, and returns how many ran. Panics
/// if any two sub-seeds would replay the same perturbation schedule, so
/// "distinct interleavings" is a checked claim, not a hope.
pub fn soak(ci_seed: u64, runs: usize) -> usize {
    let seeds: Vec<u64> = (0..runs as u64).map(|i| sub_seed(ci_seed, i)).collect();
    let mut prints: Vec<Vec<u64>> = seeds.iter().map(|&s| fingerprint(s)).collect();
    prints.sort();
    prints.dedup();
    assert_eq!(
        prints.len(),
        seeds.len(),
        "CI seed {ci_seed:#x} derived colliding perturbation schedules"
    );
    for (i, &seed) in seeds.iter().enumerate() {
        match i % 3 {
            0 => plain_wave(seed),
            1 => requeue_under_noise(seed),
            _ => shutdown_drain(seed),
        }
    }
    rls_obs::counter!("sched.permutations", seeds.len() as u64);
    seeds.len()
}
