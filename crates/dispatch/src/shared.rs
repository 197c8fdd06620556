//! The worker pool: persistent owned threads running one campaign, and
//! the runner that simulates whole test sets on them.
//!
//! A `Procedure2::run` with `threads > 1` starts one [`SharedPool`] of
//! `threads − 1` workers and drives it through a [`SharedSetRunner`]; the
//! caller's own thread is the last worker. A run with one thread has no
//! pool at all.
//!
//! - [`SharedPool`] owns its worker threads and one FIFO queue. Jobs are
//!   `'static` closures (no borrowed environment, hence no `unsafe`); a
//!   submission's context travels in an `Arc`. The campaign submits
//!   through `submit_tagged` and meets its jobs at `wait_idle` /
//!   `take_failures`; `snapshot` reads the per-worker counters.
//! - Workers are supervised: a panicking job is caught and recorded
//!   under its tag in the pool's failure ledger (with a
//!   `dispatch.panic` mark and a `worker-panic` flight-recorder dump);
//!   the worker carries on. Retries are the caller's policy
//!   ([`SharedSetRunner`] runs the wave protocol below).
//! - Shutdown is graceful: queued jobs drain before workers exit, and
//!   jobs submitted *after* shutdown are recorded as failures instead of
//!   vanishing, so a caller's wave protocol observes the outage and can
//!   degrade to the sequential oracle.
//! - Observability is per campaign: when the pool retires it emits its
//!   per-worker busy/idle gauges and job counts plus the campaign's
//!   batch, drop, respawn, and lane-occupancy totals, once, from its
//!   final snapshot — the hot loop carries no obs calls.
//!
//! # Waves
//!
//! [`SharedSetRunner::submit`] hands each set to the pool as one job,
//! tagged by the set's index, and [`SharedSetRunner::collect_sets`] meets the
//! jobs in *waves*: wait for the barrier, drain [`JobFailure`]s, and
//! resubmit exactly the failed tags. A job writes only its own set's
//! result, so a retry re-runs one whole set from scratch. A tag still
//! failing after [`RETRY_ROUNDS`] retry waves makes that set's result a
//! [`SetFailure`]; nothing of the set has been applied anywhere, so the
//! caller can run it on its sequential simulator (see
//! `rls_core::procedure2`'s degrade path).
//!
//! # Determinism
//!
//! The runner keeps no fault list. Each job runs the sequential engine's
//! own tile walk, [`rls_fsim::simulate_block`], over its whole set
//! against the live list the caller passed in, so its detections are
//! exactly what `rls_fsim::FaultSimulator::run_tests` detects from that
//! list, whichever worker ran it and whenever. The caller applies them
//! in trial order, ignoring faults an earlier trial already dropped, so
//! the campaign is bit-identical to the sequential oracle at every
//! thread count (`tests/determinism.rs`).

use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use rls_fsim::{simulate_block, ChainMap, CompiledCircuit, FaultId, ScanTest, SimOptions};

use crate::inject;
use crate::pool::{payload_message, JobFailure, PoolSnapshot, WorkerCounters};

/// Retry waves allowed per submission before a failing set is given up.
pub const RETRY_ROUNDS: usize = 3;

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
                // A caught job panic is exactly what the flight recorder
                // exists for: mark it and dump the window while the
                // failing context is still in the rings.
                rls_obs::mark!("dispatch.panic", tag);
                let _ = rls_obs::recorder::dump("worker-panic");
                hub.record_failure(JobFailure {
                    worker: w,
                    tag,
                    message,
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

    /// Number of worker threads.
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
            self.hub.record_failure(JobFailure {
                worker: usize::MAX,
                tag,
                message: "shared pool is shut down".to_string(),
            });
            return;
        }
        sched.queue.push_back((tag, Box::new(job)));
        sched.pending += 1;
        drop(sched);
        self.hub.work_cv.notify_one();
    }

    /// Blocks until every submitted job has finished — a submission's
    /// barrier.
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
            caller: None,
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

/// A test set whose pool job kept panicking through every retry wave.
///
/// Nothing of the set has been applied to the caller's fault list when
/// this is returned, so the caller can run the set elsewhere
/// (sequentially).
#[derive(Debug)]
pub struct SetFailure {
    /// Waves attempted (initial submission plus retries).
    pub attempts: usize,
    /// The set's failures in the final wave.
    pub failures: Vec<JobFailure>,
}

impl fmt::Display for SetFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let first = self.failures.first().map_or("", |j| j.message.as_str());
        write!(
            f,
            "set job still failing after {} attempts: {first}",
            self.attempts
        )
    }
}

impl std::error::Error for SetFailure {}

/// Simulates whole test sets on a [`SharedPool`], one job per set,
/// against a live fault list the caller owns and applies the detections
/// to (see the module docs).
pub struct SharedSetRunner {
    compiled: Arc<CompiledCircuit>,
    /// The scan chains the campaign applies its tests through.
    chains: Arc<ChainMap>,
    options: SimOptions,
    pool: SharedPool,
}

/// What one submission's jobs share.
struct Batch {
    compiled: Arc<CompiledCircuit>,
    chains: Arc<ChainMap>,
    options: SimOptions,
    /// The caller's live list when the sets were submitted.
    live: Vec<FaultId>,
    /// The submitted sets: copies of reference counts, since each test's
    /// stimulus and schedule are shared slices.
    sets: Vec<Vec<ScanTest>>,
    /// Each set's detections, written once by the job that ran it.
    detected: Vec<OnceLock<Vec<FaultId>>>,
}

/// Sets handed to the pool by [`SharedSetRunner::submit`], to be met at
/// [`SharedSetRunner::collect_sets`].
#[must_use = "submitted sets are met at `collect_sets`"]
pub struct Submitted(Arc<Batch>);

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

    /// Submits one job per tag (set index); each walks its whole set with
    /// [`rls_fsim::simulate_block`] against the batch's live list.
    fn submit_jobs(&self, batch: &Arc<Batch>, tags: &[u64]) {
        for &tag in tags {
            let batch = Arc::clone(batch);
            self.pool.submit_tagged(tag, move |counters| {
                let start = Instant::now(); // lint: det-ok(wall time feeds observability counters only, never the result)
                let k = tag as usize;
                let mut detected = Vec::new();
                let stats = simulate_block(
                    &batch.compiled,
                    &batch.chains,
                    batch.options,
                    &batch.sets[k], // lint: panic-ok(tags are minted over 0..sets.len())
                    &batch.live,
                    |id| detected.push(id),
                );
                counters.add_kernel(stats, start.elapsed());
                counters.add_dropped(detected.len() as u64);
                let _ = batch.detected[k].set(detected); // lint: panic-ok(one slot per set, indexed like `sets`)
            });
        }
        rls_obs::gauge!("dispatch.queue_depth", self.pool.snapshot().pending as u64);
    }

    /// Hands each of `sets` to the pool as one job simulating it against
    /// `live`, and returns at once: the caller may simulate something
    /// else (a campaign runs its window's first trial) before it meets
    /// the jobs at [`SharedSetRunner::collect_sets`].
    pub fn submit(&self, live: &[FaultId], sets: Vec<Vec<ScanTest>>) -> Submitted {
        let _span = rls_obs::span!("dispatch.submit", sets = sets.len(), live = live.len());
        // Settle whatever an earlier, uncollected submission left on the
        // pool, so its failures cannot be taken for this one's.
        self.pool.wait_idle();
        let _ = self.pool.take_failures();
        let batch = Arc::new(Batch {
            compiled: Arc::clone(&self.compiled),
            chains: Arc::clone(&self.chains),
            options: self.options,
            live: live.to_vec(),
            detected: sets.iter().map(|_| OnceLock::new()).collect(),
            sets,
        });
        let tags: Vec<u64> = (0..batch.sets.len() as u64).collect();
        self.submit_jobs(&batch, &tags);
        Submitted(batch)
    }

    /// Meets the jobs on the pool in waves: waits for the barrier and
    /// passes the failed tags to `resubmit`, up to [`RETRY_ROUNDS`] retry
    /// waves. Returns the waves attempted and the last wave's failures.
    fn run_waves(&self, resubmit: impl Fn(&[u64])) -> (usize, Vec<JobFailure>) {
        let mut attempts = 1;
        loop {
            self.pool.wait_idle();
            let failures = self.pool.take_failures();
            if failures.is_empty() || attempts > RETRY_ROUNDS {
                return (attempts, failures);
            }
            attempts += 1;
            rls_obs::counter!("dispatch.retry_waves", 1);
            let tags: Vec<u64> = failures.iter().map(|f| f.tag).collect();
            resubmit(&tags);
        }
    }

    /// Waits for submitted sets, resubmitting failed jobs for up to
    /// [`RETRY_ROUNDS`] waves, and returns each set's detections in the
    /// order the engine's walk reports them, or a [`SetFailure`] for a
    /// set whose job kept failing.
    pub fn collect_sets(&self, submitted: Submitted) -> Vec<Result<Vec<FaultId>, SetFailure>> {
        let batch = submitted.0;
        let _span = rls_obs::span!(
            "dispatch.set",
            sets = batch.sets.len(),
            live = batch.live.len()
        );
        let (attempts, failures) = self.run_waves(|tags| self.submit_jobs(&batch, tags));
        batch
            .detected
            .iter()
            .enumerate()
            .map(|(k, slot)| {
                let mine: Vec<JobFailure> = failures
                    .iter()
                    .filter(|f| f.tag == k as u64)
                    .cloned()
                    .collect();
                match slot.get() {
                    Some(detected) if mine.is_empty() => Ok(detected.clone()),
                    _ => Err(SetFailure {
                        attempts,
                        failures: mine,
                    }),
                }
            })
            .collect()
    }

    /// Runs one test set against `live` and returns the faults it
    /// detects, in the engine's detection order.
    pub fn try_run_set(
        &self,
        live: &[FaultId],
        tests: &[ScanTest],
    ) -> Result<Vec<FaultId>, SetFailure> {
        let submitted = self.submit(live, vec![tests.to_vec()]);
        let mut results = self.collect_sets(submitted);
        // lint: panic-ok(collect returns one result per submitted set, and one set was submitted)
        results.pop().expect("one result per submitted set")
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
        assert_eq!(
            newly,
            sim.detected(),
            "the same faults as the engine, in its order"
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
        let submit = |tags: &[u64]| {
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
        };
        submit(&[1, 2, 3]);
        let (attempts, failures) = runner.run_waves(submit);
        assert_eq!((attempts, failures.len()), (2, 0));
        // Wave 1 runs tags {1,2,3}; tag 2 panics and is the only job of
        // wave 2.
        assert_eq!(total_jobs.load(Ordering::Relaxed), 4);
        assert_eq!(flaky_runs.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn run_waves_gives_up_after_bounded_retries() {
        let _quiet = quiet_panics();
        let runner = s27_runner(2);
        let submit = |tags: &[u64]| {
            for &tag in tags {
                runner.pool().submit_tagged(tag, |_| panic!("always down"));
            }
        };
        submit(&[7]);
        let (attempts, failures) = runner.run_waves(submit);
        assert_eq!(attempts, RETRY_ROUNDS + 1);
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].tag, 7);
        let err = SetFailure { attempts, failures };
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
