//! The worker pool: persistent owned threads running one campaign.
//!
//! A `Procedure2::run` with `threads > 1` starts one [`SharedPool`] and
//! drives it through a [`SharedSetRunner`]; a run with one thread has no
//! pool at all.
//!
//! - [`SharedPool`] owns `threads` worker threads and one FIFO queue.
//!   Jobs are `'static` closures (no borrowed environment, hence no
//!   `unsafe`); a set's context travels in an `Arc`. The campaign submits
//!   through `submit_tagged` and meets its jobs at `wait_idle` /
//!   `take_failures`; `snapshot` reads the per-worker counters.
//! - Workers are supervised: a panicking job is caught, classified, and
//!   recorded under its tag in the pool's failure ledger (with a
//!   `dispatch.panic` mark and a `worker-panic` flight-recorder dump);
//!   the worker carries on. Retries are the caller's policy
//!   ([`SharedSetRunner`] runs the wave protocol of [`crate::executor`]).
//! - Shutdown is graceful: queued jobs drain before workers exit, and
//!   jobs submitted *after* shutdown are recorded as failures (class
//!   [`crate::FailureClass::Other`]) instead of vanishing, so a caller's
//!   wave protocol observes the outage and can degrade to the sequential
//!   oracle.
//! - Observability is per campaign: when the pool retires it emits its
//!   per-worker busy/idle gauges and job counts plus the campaign's
//!   batch, drop, respawn, and lane-occupancy totals, once, from its
//!   final snapshot — the hot loop carries no obs calls.
//!
//! # Determinism
//!
//! [`SharedSetRunner`] keeps no fault list: it computes one set's
//! detections against the live list its caller passes in, and the caller
//! (a `rls_fsim::FaultSimulator`) applies them. Every pool job runs the
//! same tile walk as the sequential engine, [`rls_fsim::simulate_block`],
//! over its block of tests. Within a set, detection of a fault by a test
//! depends only on `(test, fault)`: lanes of a batch are independent at
//! every tile height, and the set's detection bitset is monotone. The
//! detected *set* at a barrier is therefore the union a sequential run
//! computes, however jobs interleave and however tall each job's tiles
//! are, and the runner returns it in live-list order (ascending fault id
//! for the default target). The outcome is bit-identical to the
//! sequential oracle at every thread count; `tests/determinism.rs`
//! byte-compares the campaign records of 1, 2 and 4 threads to pin this.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use rls_fsim::{simulate_block, ChainMap, CompiledCircuit, FaultId, ScanTest, SimOptions};

use crate::bitset::AtomicBitset;
use crate::executor::{test_blocks, SetFailure, RETRY_ROUNDS};
use crate::inject;
use crate::pool::{classify, payload_message, JobFailure, PoolSnapshot, WorkerCounters};

/// A job runnable on the pool. Jobs own their state (`'static`) — set
/// context travels in `Arc`s.
pub type SharedJob = Box<dyn FnOnce(&WorkerCounters) + Send + 'static>;

/// The queue and its accounting, under the hub's one scheduling lock.
struct Sched {
    queue: VecDeque<(u64, SharedJob)>,
    /// Jobs submitted and not yet finished (queued + running).
    pending: usize,
    /// False once shutdown begins: the queue drains, new submissions fail.
    open: bool,
}

struct Hub {
    sched: Mutex<Sched>,
    /// Signalled when a job is queued, and at shutdown.
    work_cv: Condvar,
    /// Signalled when the pending count reaches zero.
    idle_cv: Condvar,
    /// Per-worker counters, indexed by worker id.
    counters: Vec<WorkerCounters>,
    /// The failure ledger: jobs that panicked or met a closed pool, in
    /// the order they failed. Never locked while `sched` is held.
    failures: Mutex<Vec<JobFailure>>,
}

impl Hub {
    fn lock(&self) -> MutexGuard<'_, Sched> {
        self.sched.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn record_failure(&self, failure: JobFailure) {
        self.failures
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(failure);
    }
}

/// The supervised worker loop: claim, run under `catch_unwind`, settle.
fn worker_loop(hub: Arc<Hub>, w: usize) {
    let counters = &hub.counters[w]; // lint: panic-ok(the hub is built with one counter per worker; w < threads by construction)
    loop {
        // Schedule-exploration points sit *outside* the sched lock: the
        // soak harness perturbs who reaches the lock next, never what
        // happens under it.
        inject::on_sched_point("worker.scan");
        let claimed = {
            let mut sched = hub.lock();
            loop {
                if let Some(job) = sched.queue.pop_front() {
                    break Some(job);
                }
                if !sched.open {
                    break None;
                }
                sched = hub
                    .work_cv
                    .wait(sched)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let Some((tag, job)) = claimed else {
            return; // closed and drained
        };
        inject::on_sched_point("worker.claimed");
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            inject::on_job_start(tag);
            job(counters);
        }));
        match outcome {
            Ok(()) => counters.add_job(),
            Err(payload) => {
                let message = payload_message(payload.as_ref());
                let class = classify(&message);
                // A caught job panic is exactly what the flight recorder
                // exists for: mark it and dump the window while the
                // failing context is still in the rings.
                rls_obs::mark!("dispatch.panic", tag);
                let _ = rls_obs::recorder::dump("worker-panic");
                hub.record_failure(JobFailure {
                    worker: w,
                    tag,
                    message,
                    class,
                });
                counters.add_respawn();
            }
        }
        let mut sched = hub.lock();
        sched.pending -= 1;
        if sched.pending == 0 {
            hub.idle_cv.notify_all();
        }
    }
}

/// One campaign's pool of owned worker threads.
///
/// Dropping the pool shuts it down (see [`SharedPool::shutdown`]) and
/// emits the campaign's pool metrics.
pub struct SharedPool {
    hub: Arc<Hub>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
    /// Times the pool's life (the busy/idle base).
    lifetime: rls_obs::Stopwatch,
}

impl std::fmt::Debug for SharedPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedPool")
            .field("threads", &self.threads)
            .finish_non_exhaustive()
    }
}

impl SharedPool {
    /// Spawns `threads` persistent workers (clamped to at least one).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let hub = Arc::new(Hub {
            sched: Mutex::new(Sched {
                queue: VecDeque::new(),
                pending: 0,
                open: true,
            }),
            work_cv: Condvar::new(),
            idle_cv: Condvar::new(),
            counters: (0..threads).map(|_| WorkerCounters::default()).collect(),
            failures: Mutex::new(Vec::new()),
        });
        let workers = (0..threads)
            .map(|w| {
                let hub = Arc::clone(&hub);
                std::thread::spawn(move || worker_loop(hub, w))
            })
            .collect();
        SharedPool {
            hub,
            workers,
            threads,
            lifetime: rls_obs::Stopwatch::start(),
        }
    }

    /// Number of worker threads; [`test_blocks`] sizes a set's jobs by it.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Enqueues a job under a caller-chosen tag. If the job panics, the
    /// tag identifies it in [`SharedPool::take_failures`], so the caller
    /// can rebuild and retry exactly the failed work. On a closed pool
    /// the job is not run; a failure is recorded under the tag so the
    /// caller's wave protocol observes the outage.
    pub fn submit_tagged(&self, tag: u64, job: impl FnOnce(&WorkerCounters) + Send + 'static) {
        inject::on_sched_point("campaign.submit");
        let mut sched = self.hub.lock();
        if !sched.open {
            drop(sched);
            let message = "shared pool is shut down";
            self.hub.record_failure(JobFailure {
                worker: usize::MAX,
                tag,
                message: message.to_string(),
                class: classify(message),
            });
            return;
        }
        sched.queue.push_back((tag, Box::new(job)));
        sched.pending += 1;
        drop(sched);
        self.hub.work_cv.notify_one();
    }

    /// Blocks until every submitted job has finished — the set's
    /// reduction barrier.
    pub fn wait_idle(&self) {
        inject::on_sched_point("campaign.wait_idle");
        let mut sched = self.hub.lock();
        while sched.pending > 0 {
            sched = self
                .hub
                .idle_cv
                .wait(sched)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Drains the failures recorded since the last call. Call at a
    /// [`SharedPool::wait_idle`] barrier; an empty result means every
    /// job since the last drain completed.
    pub fn take_failures(&self) -> Vec<JobFailure> {
        inject::on_sched_point("campaign.take_failures");
        std::mem::take(
            &mut self
                .hub
                .failures
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        )
    }

    /// A progress snapshot: the pending count and the per-worker
    /// counters.
    pub fn snapshot(&self) -> PoolSnapshot {
        PoolSnapshot {
            threads: self.threads,
            pending: self.hub.lock().pending,
            workers: self
                .hub
                .counters
                .iter()
                .enumerate()
                .map(|(w, c)| c.snapshot(w))
                .collect(),
            fallback: None,
        }
    }

    /// Closes the pool and joins every worker after the queued jobs
    /// drain. Later submissions are recorded as failures. Calling it
    /// again is a no-op.
    pub fn shutdown(&mut self) {
        self.hub.lock().open = false;
        self.hub.work_cv.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }

    /// Emits the campaign's pool metrics once, from its final counters.
    /// "Busy" is simulation wall time; the rest of the pool's life
    /// counts as idle (queue waits, set barriers, sleeps).
    fn emit_metrics(&self) {
        if !rls_obs::enabled() {
            return;
        }
        let wall = self.lifetime.elapsed_nanos();
        let snap = self.snapshot();
        for w in &snap.workers {
            rls_obs::gauge!("pool.worker.busy_nanos", w.sim_nanos, worker = w.worker);
            rls_obs::gauge!(
                "pool.worker.idle_nanos",
                wall.saturating_sub(w.sim_nanos),
                worker = w.worker
            );
            rls_obs::counter!("pool.worker.jobs", w.jobs, worker = w.worker);
        }
        rls_obs::counter!("dispatch.batches", snap.total_batches());
        rls_obs::counter!("dispatch.respawns", snap.total_respawns());
        rls_obs::counter!("dispatch.faults_dropped", snap.total_dropped());
        rls_obs::counter!("fsim.lanes_used", snap.total_lanes_used());
        rls_obs::counter!("fsim.lanes_capacity", snap.total_lanes_capacity());
    }
}

impl Drop for SharedPool {
    fn drop(&mut self) {
        self.shutdown();
        self.emit_metrics();
    }
}

/// Computes one test set's detections on a [`SharedPool`] against a live
/// fault list the caller owns.
///
/// The runner keeps no fault list and no detection state between sets:
/// [`SharedSetRunner::try_run_set`] builds the set's tests, its
/// set-start live list and its detection bitset afresh, and the caller
/// applies the detections it returns. See the module docs for why they
/// are bit-identical to `rls_fsim::FaultSimulator::run_tests`.
pub struct SharedSetRunner {
    compiled: Arc<CompiledCircuit>,
    /// The scan chains the campaign applies its tests through.
    chains: Arc<ChainMap>,
    options: SimOptions,
    pool: SharedPool,
}

/// What one set's jobs share, built per set.
struct SetWork {
    compiled: Arc<CompiledCircuit>,
    chains: Arc<ChainMap>,
    options: SimOptions,
    /// The set's tests: a copy of reference counts, since each test's
    /// stimulus and schedule are shared slices.
    tests: Vec<ScanTest>,
    /// The caller's live list at the start of the set.
    live: Vec<FaultId>,
    /// The faults any job of this set has detected.
    detected: AtomicBitset,
}

impl SharedSetRunner {
    /// A runner simulating on `compiled` through the scan chains of
    /// `chains` with `options`, submitting its jobs to `pool`.
    pub fn new(
        compiled: Arc<CompiledCircuit>,
        chains: ChainMap,
        options: SimOptions,
        pool: SharedPool,
    ) -> Self {
        SharedSetRunner {
            compiled,
            chains: Arc::new(chains),
            options,
            pool,
        }
    }

    /// The campaign's pool.
    pub fn pool(&self) -> &SharedPool {
        &self.pool
    }

    /// Gives the pool back, e.g. to keep a degraded campaign's worker
    /// counters without running more sets on it.
    pub fn into_pool(self) -> SharedPool {
        self.pool
    }

    /// Submits one wave of test-block jobs for the given tags (block
    /// indices). Each job walks its block with
    /// [`rls_fsim::simulate_block`], treating every fault another job of
    /// the set already published in the bitset as dropped.
    fn submit_block_wave(&self, tags: &[u64], set: &Arc<SetWork>, blocks: &[(usize, usize)]) {
        for &tag in tags {
            let (lo, hi) = blocks[tag as usize]; // lint: panic-ok(tags are minted over 0..blocks.len())
            let set = Arc::clone(set);
            self.pool.submit_tagged(tag, move |counters| {
                let start = Instant::now(); // lint: det-ok(wall time feeds observability counters only, never the reduced result)
                let mut dropped = 0;
                let stats = simulate_block(
                    &set.compiled,
                    &set.chains,
                    set.options,
                    &set.tests[lo..hi], // lint: panic-ok(blocks partition 0..tests.len())
                    &set.live,
                    |id| !set.detected.get(id),
                    |id| {
                        if set.detected.set(id) {
                            dropped += 1;
                        }
                    },
                );
                counters.add_kernel(stats, start.elapsed());
                counters.add_dropped(dropped);
            });
        }
    }

    /// Runs waves of `submit(tags)` until none fail, retrying only the
    /// failed tags, up to [`RETRY_ROUNDS`] retry waves.
    fn run_waves(&self, mut tags: Vec<u64>, submit: impl Fn(&[u64])) -> Result<(), SetFailure> {
        const PHASE: &str = "batch";
        let mut attempts = 0;
        loop {
            attempts += 1;
            submit(&tags);
            rls_obs::gauge!(
                "dispatch.queue_depth",
                self.pool.snapshot().pending as u64,
                phase = PHASE
            );
            self.pool.wait_idle();
            let failures = self.pool.take_failures();
            if failures.is_empty() {
                return Ok(());
            }
            if attempts > RETRY_ROUNDS {
                return Err(SetFailure {
                    phase: PHASE,
                    attempts,
                    failures,
                });
            }
            rls_obs::counter!("dispatch.retry_waves", 1, phase = PHASE);
            tags = failures.iter().map(|f| f.tag).collect();
        }
    }

    /// Runs one test set against `live` and returns the faults it
    /// detects, in `live` order — the deterministic reduction that makes
    /// a parallel campaign bit-identical to the sequential oracle.
    /// Panicked jobs are retried for a bounded number of waves; on
    /// exhaustion this returns [`SetFailure`], and the caller can replay
    /// the whole set on its sequential simulator.
    pub fn try_run_set(
        &self,
        live: &[FaultId],
        tests: &[ScanTest],
    ) -> Result<Vec<FaultId>, SetFailure> {
        if live.is_empty() || tests.is_empty() {
            return Ok(Vec::new());
        }
        let _span = rls_obs::span!("dispatch.set", tests = tests.len(), live = live.len());
        // Drop failures left over from before this set (a degraded caller
        // may have abandoned a failing set without draining).
        let _ = self.pool.take_failures();
        // One wave of contiguous test-block jobs, sized by the pool's
        // threads, each simulating against the set-start live list.
        let blocks = test_blocks(tests.len(), self.pool.threads());
        let set = Arc::new(SetWork {
            compiled: Arc::clone(&self.compiled),
            chains: Arc::clone(&self.chains),
            options: self.options,
            tests: tests.to_vec(),
            live: live.to_vec(),
            detected: AtomicBitset::new(self.compiled.universe().len()),
        });
        let block_tags: Vec<u64> = (0..blocks.len() as u64).collect();
        self.run_waves(block_tags, |tags| {
            self.submit_block_wave(tags, &set, &blocks)
        })?;
        Ok(live
            .iter()
            .copied()
            .filter(|&id| set.detected.get(id))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rls_fsim::{FaultSimulator, KernelWord};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn s27_sets() -> Vec<Vec<ScanTest>> {
        let plain =
            ScanTest::from_strings("001", &["0111", "1001", "0111", "1001", "0100"]).unwrap();
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

    /// The sequential oracle: FaultSimulator over the same sets.
    fn sequential(sets: &[Vec<ScanTest>]) -> (Vec<usize>, Vec<FaultId>) {
        let mut sim = FaultSimulator::on(compiled_s27());
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
        (counts, sim.live().to_vec())
    }

    fn compiled_s27() -> Arc<CompiledCircuit> {
        Arc::new(CompiledCircuit::compile(rls_benchmarks::s27()).unwrap())
    }

    /// Runs `sets` through `runner` against `sim`'s live list, applying
    /// each set's detections, the way a campaign does; returns the
    /// per-set counts.
    fn run_sets(
        runner: &SharedSetRunner,
        sim: &mut FaultSimulator,
        sets: &[Vec<ScanTest>],
    ) -> Vec<usize> {
        sets.iter()
            .map(|set| {
                let newly = runner.try_run_set(sim.live(), set).unwrap();
                sim.apply_detections(&newly);
                newly.len()
            })
            .collect()
    }

    #[test]
    fn shared_runner_matches_sequential_oracle() {
        let sets = s27_sets();
        let (seq_counts, seq_live) = sequential(&sets);
        let compiled = compiled_s27();
        for threads in [1, 2, 4] {
            let runner = SharedSetRunner::new(
                Arc::clone(&compiled),
                ChainMap::full(3),
                SimOptions::default(),
                SharedPool::new(threads),
            );
            let mut sim = FaultSimulator::on(Arc::clone(&compiled));
            let counts = run_sets(&runner, &mut sim, &sets);
            assert_eq!(counts, seq_counts, "threads = {threads}");
            assert_eq!(sim.live(), &seq_live[..], "threads = {threads}");
        }
    }

    #[test]
    fn pattern_tiles_match_the_oracle_on_the_shared_pool() {
        // The tiled SoA path must stay bit-identical on the shared pool
        // too, with every kernel call accounted at the full word.
        let shifts = vec![rls_fsim::ShiftOp {
            at: 2,
            amount: 1,
            fill: vec![false],
        }];
        let tileable: Vec<ScanTest> = [
            ("001", ["0111", "1001", "0111", "1001"]),
            ("110", ["1011", "0001", "1110", "0101"]),
            ("010", ["0000", "1111", "0011", "1100"]),
            ("101", ["1010", "0101", "1010", "0101"]),
        ]
        .iter()
        .map(|(si, vs)| {
            ScanTest::from_strings(si, vs)
                .unwrap()
                .with_shifts(shifts.clone())
                .unwrap()
        })
        .collect();
        let sets = vec![tileable, s27_sets()[0].clone()];
        let (seq_counts, seq_live) = sequential(&sets);
        let compiled = compiled_s27();
        let mut sim = FaultSimulator::on(Arc::clone(&compiled));
        let chains = ChainMap::full(compiled.circuit().num_dffs());
        let runner =
            SharedSetRunner::new(compiled, chains, SimOptions::default(), SharedPool::new(2));
        let counts = run_sets(&runner, &mut sim, &sets);
        assert_eq!(counts, seq_counts);
        assert_eq!(sim.live(), &seq_live[..]);
        let snap = runner.pool().snapshot();
        assert_eq!(
            snap.total_lanes_capacity(),
            snap.total_batches() * KernelWord::LANES as u64
        );
    }

    #[test]
    fn newly_detected_is_in_live_list_order() {
        let runner = s27_runner(4);
        let live = compiled_s27().collapsed().representatives().to_vec();
        let newly = runner.try_run_set(&live, &s27_sets()[0]).unwrap();
        let mut sorted = newly.clone();
        sorted.sort_unstable();
        assert_eq!(newly, sorted, "default live list is ascending by id");
        assert!(!newly.is_empty());
    }

    #[test]
    fn restricted_live_lists_match_the_fault_simulator() {
        let compiled = compiled_s27();
        let targets: Vec<FaultId> = compiled.collapsed().representatives()[..7].to_vec();
        let set = &s27_sets()[0];
        let mut sim = FaultSimulator::on(Arc::clone(&compiled));
        sim.set_targets(&targets);
        let seq: usize = set.iter().map(|t| sim.run_test(t).len()).sum();
        let chains = ChainMap::full(compiled.circuit().num_dffs());
        let runner =
            SharedSetRunner::new(compiled, chains, SimOptions::default(), SharedPool::new(2));
        let newly = runner.try_run_set(&targets, set).unwrap();
        assert_eq!(newly.len(), seq);
        let left: Vec<FaultId> = targets
            .iter()
            .copied()
            .filter(|id| !newly.contains(id))
            .collect();
        assert_eq!(left, sim.live());
        // The workers' drop counters account for exactly these faults.
        assert_eq!(runner.pool().snapshot().total_dropped() as usize, seq);
    }

    #[test]
    fn a_readmitted_fault_is_simulated_again() {
        // Detection state is per set: a fault an earlier set detected and
        // a later live list re-admits (as a checkpoint restrict can) is
        // simulated and reported again, as the FaultSimulator does.
        let compiled = compiled_s27();
        let all = compiled.collapsed().representatives().to_vec();
        let set = &s27_sets()[0];
        let runner = SharedSetRunner::new(
            Arc::clone(&compiled),
            ChainMap::full(compiled.circuit().num_dffs()),
            SimOptions::default(),
            SharedPool::new(2),
        );
        let first = runner.try_run_set(&all, set).unwrap();
        let again = *first.first().expect("the set detects something");
        let undetected = all.iter().copied().filter(|id| !first.contains(id));
        let readmitted: Vec<FaultId> = std::iter::once(again).chain(undetected).collect();
        let mut sim = FaultSimulator::on(compiled);
        sim.set_targets(&readmitted);
        sim.run_tests(set);
        let newly = runner.try_run_set(&readmitted, set).unwrap();
        assert!(newly.contains(&again), "the re-admitted fault is reported");
        let mut expect = sim.detected().to_vec();
        expect.sort_unstable();
        assert_eq!(
            newly, expect,
            "the same faults as the engine, in live order"
        );
    }

    /// Suppresses panic-hook spew for tests that panic on purpose;
    /// restores the previous hook on drop.
    fn quiet_panics() -> impl Drop {
        struct Restore;
        impl Drop for Restore {
            fn drop(&mut self) {
                let _ = std::panic::take_hook();
            }
        }
        std::panic::set_hook(Box::new(|_| {}));
        Restore
    }

    fn s27_runner(threads: usize) -> SharedSetRunner {
        SharedSetRunner::new(
            compiled_s27(),
            ChainMap::full(3),
            SimOptions::default(),
            SharedPool::new(threads),
        )
    }

    #[test]
    fn run_waves_retries_only_failed_tags() {
        let _quiet = quiet_panics();
        let runner = s27_runner(2);
        let flaky_runs = Arc::new(AtomicUsize::new(0));
        let total_jobs = Arc::new(AtomicUsize::new(0));
        let r = runner.run_waves(vec![1, 2, 3], |tags| {
            for &tag in tags {
                let flaky_runs = Arc::clone(&flaky_runs);
                let total_jobs = Arc::clone(&total_jobs);
                runner.pool().submit_tagged(tag, move |_| {
                    total_jobs.fetch_add(1, Ordering::Relaxed);
                    if tag == 2 && flaky_runs.fetch_add(1, Ordering::Relaxed) == 0 {
                        panic!("flaky once");
                    }
                });
            }
        });
        assert!(r.is_ok());
        // Wave 1 runs tags {1,2,3}; tag 2 panics and is the only job of
        // wave 2.
        assert_eq!(total_jobs.load(Ordering::Relaxed), 4);
        assert_eq!(flaky_runs.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn run_waves_gives_up_after_bounded_retries() {
        let _quiet = quiet_panics();
        let runner = s27_runner(2);
        let err = runner
            .run_waves(vec![7], |tags| {
                for &tag in tags {
                    runner.pool().submit_tagged(tag, |_| panic!("always down"));
                }
            })
            .unwrap_err();
        assert_eq!(err.phase, "batch");
        assert_eq!(err.attempts, RETRY_ROUNDS + 1);
        assert_eq!(err.failures.len(), 1);
        assert_eq!(err.failures[0].tag, 7);
        let msg = err.to_string();
        assert!(msg.contains("always down"), "{msg}");
        assert_eq!(
            runner.pool().snapshot().total_respawns(),
            (RETRY_ROUNDS + 1) as u64
        );
    }

    #[test]
    fn failures_are_recorded_and_the_pool_survives() {
        let _quiet = quiet_panics();
        let pool = SharedPool::new(2);
        pool.submit_tagged(7, |_| panic!("down on purpose"));
        pool.submit_tagged(1, |_| {});
        pool.wait_idle();
        let failures = pool.take_failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].tag, 7);
        assert!(failures[0].message.contains("down on purpose"));
        // The pool still runs work after a supervised panic.
        let ran = Arc::new(AtomicUsize::new(0));
        let r = Arc::clone(&ran);
        pool.submit_tagged(8, move |_| {
            r.fetch_add(1, Ordering::SeqCst);
        });
        pool.wait_idle();
        assert_eq!(ran.load(Ordering::SeqCst), 1);
        assert!(pool.take_failures().is_empty());
    }

    #[test]
    fn shutdown_drains_queued_jobs() {
        let mut pool = SharedPool::new(1);
        let ran = Arc::new(AtomicUsize::new(0));
        for t in 0..32 {
            let r = Arc::clone(&ran);
            pool.submit_tagged(t, move |_| {
                r.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.shutdown();
        assert_eq!(
            ran.load(Ordering::SeqCst),
            32,
            "queued jobs drain before exit"
        );
    }

    #[test]
    fn submit_after_shutdown_records_a_failure() {
        let mut pool = SharedPool::new(1);
        pool.shutdown();
        pool.submit_tagged(42, |_| {});
        pool.wait_idle(); // trivially idle: nothing was enqueued
        let failures = pool.take_failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].tag, 42);
        assert!(failures[0].message.contains("shut down"));
    }
}
