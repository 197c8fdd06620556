//! The worker pool: persistent owned threads multiplexing campaigns.
//!
//! Every parallel run goes through this one pool. A direct
//! `Procedure2::run` with `threads > 1` starts a private pool and
//! registers a single campaign on it; the `rls-serve` campaign server
//! keeps one pool for the life of the process and registers a campaign
//! per request. Both then drive a [`SharedSetRunner`], so "served ≡
//! direct" holds by construction.
//!
//! - [`SharedPool`] owns `threads` worker threads. Jobs are `'static`
//!   closures handed over through per-campaign FIFO queues (no borrowed
//!   environment, hence no `unsafe`); campaign context travels in `Arc`s.
//! - [`SharedPool::register`] adds a campaign *slot* with a thread
//!   `budget` and returns a [`CampaignHandle`]: `submit_tagged` /
//!   `wait_idle` / `take_failures` / `snapshot`.
//! - Scheduling is fair round-robin across slots: workers scan slots from
//!   a rotating cursor and claim at most `budget` concurrent jobs per
//!   slot, so one huge campaign cannot starve a small one.
//! - Workers are supervised: a panicking job is caught, classified, and
//!   recorded under its tag in the owning campaign's ledger (with a
//!   `dispatch.panic` mark and a `worker-panic` flight-recorder dump);
//!   the worker carries on. Retries are the caller's policy
//!   ([`SharedSetRunner`] runs the wave protocol of [`crate::executor`]).
//! - Shutdown is graceful: queued jobs drain before workers exit, and
//!   jobs submitted *after* shutdown are recorded as failures (class
//!   [`crate::FailureClass::Other`]) instead of vanishing, so a caller's
//!   wave protocol observes the outage and can degrade to the sequential
//!   oracle.
//! - Observability is per campaign: when a [`CampaignHandle`] retires it
//!   emits the pool's per-worker busy/idle gauges and job counts plus the
//!   campaign's batch, drop, respawn, and lane-occupancy totals, once,
//!   from its final snapshot — the hot loop carries no obs calls.
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
//! for the default target). Test blocks are sized by the campaign's
//! *budget*, not the pool width, so a campaign's jobs are the same
//! whether it shares the workers or not. The outcome is bit-identical to
//! the sequential oracle regardless of how many other campaigns share
//! the pool; the integration suites byte-compare served campaign records
//! against direct runs to pin this.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use rls_fsim::{simulate_block, ChainMap, CompiledCircuit, FaultId, ScanTest, SimOptions};

use crate::bitset::AtomicBitset;
use crate::executor::{test_blocks, SetFailure, RETRY_ROUNDS};
use crate::inject;
use crate::pool::{
    classify, payload_message, FailureClass, JobFailure, PoolSnapshot, WorkerCounters,
};

/// A job runnable on the pool. Jobs own their state (`'static`) —
/// campaign context travels in `Arc`s.
pub type SharedJob = Box<dyn FnOnce(&WorkerCounters) + Send + 'static>;

/// One registered campaign's scheduling state.
struct Slot {
    id: u64,
    queue: VecDeque<(u64, SharedJob)>,
    /// Jobs currently executing on some worker.
    running: usize,
    /// Jobs submitted and not yet finished (queued + running).
    pending: usize,
    /// Concurrency cap: at most this many of the campaign's jobs run at
    /// once, so co-tenants keep their share of the pool.
    budget: usize,
    ledger: Arc<Ledger>,
}

/// Per-campaign accounting, shared between the slot (workers write
/// through it) and the [`CampaignHandle`] (the campaign reads it).
struct Ledger {
    /// Per-OS-worker counters, indexed by worker id.
    counters: Vec<WorkerCounters>,
    failures: Mutex<Vec<JobFailure>>,
}

struct Sched {
    slots: Vec<Slot>,
    /// Round-robin scan start, advanced past each claimed slot.
    cursor: usize,
    /// False once shutdown begins: queues drain, new submissions fail.
    open: bool,
}

struct Hub {
    sched: Mutex<Sched>,
    /// Signalled when work (or capacity to run it) appears, and at
    /// shutdown.
    work_cv: Condvar,
    /// Signalled when a slot's pending count reaches zero.
    idle_cv: Condvar,
    next_id: AtomicU64,
}

impl Hub {
    fn lock(&self) -> std::sync::MutexGuard<'_, Sched> {
        self.sched.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Claims the next runnable job, scanning slots round-robin from the
/// cursor and respecting each slot's budget.
fn claim(sched: &mut Sched) -> Option<(u64, u64, SharedJob, Arc<Ledger>)> {
    let n = sched.slots.len();
    for step in 0..n {
        let idx = (sched.cursor + step) % n;
        let slot = &mut sched.slots[idx]; // lint: panic-ok(idx is reduced modulo slots.len() on the line above)
        if slot.running < slot.budget {
            if let Some((tag, job)) = slot.queue.pop_front() {
                slot.running += 1;
                let id = slot.id;
                let ledger = Arc::clone(&slot.ledger);
                sched.cursor = (idx + 1) % n;
                return Some((id, tag, job, ledger));
            }
        }
    }
    None
}

/// The supervised worker loop: claim, run under `catch_unwind`, settle.
fn worker_loop(hub: Arc<Hub>, w: usize) {
    loop {
        // Schedule-exploration points sit *outside* the sched lock: the
        // soak harness perturbs who reaches the lock next, never what
        // happens under it.
        inject::on_sched_point("worker.scan");
        let claimed = {
            let mut sched = hub.lock();
            loop {
                if let Some(c) = claim(&mut sched) {
                    break Some(c);
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
        let Some((id, tag, job, ledger)) = claimed else {
            return; // closed and drained
        };
        inject::on_sched_point("worker.claimed");
        let counters = &ledger.counters[w]; // lint: panic-ok(ledgers are built with one counter per pool worker; w < threads by construction)
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
                ledger
                    .failures
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(JobFailure {
                        worker: w,
                        tag,
                        message,
                        class,
                    });
                counters.add_respawn();
            }
        }
        let mut sched = hub.lock();
        if let Some(slot) = sched.slots.iter_mut().find(|s| s.id == id) {
            slot.running -= 1;
            slot.pending -= 1;
            if slot.pending == 0 {
                hub.idle_cv.notify_all();
            } else if !slot.queue.is_empty() && slot.running < slot.budget {
                // Freed budget with work still queued: wake a sleeper so
                // the slot is not stuck at this worker's pace.
                hub.work_cv.notify_one();
            }
        }
    }
}

/// A pool of owned worker threads that outlives any single campaign.
///
/// Dropping (or [`SharedPool::shutdown`]) closes the pool: already-queued
/// jobs drain, workers join, and later submissions are recorded as
/// failures on their campaign's ledger.
pub struct SharedPool {
    hub: Arc<Hub>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
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
                slots: Vec::new(),
                cursor: 0,
                open: true,
            }),
            work_cv: Condvar::new(),
            idle_cv: Condvar::new(),
            next_id: AtomicU64::new(0),
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
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Registers a campaign with a concurrency `budget` (clamped to
    /// `1..=threads`) and returns its submission handle.
    pub fn register(&self, budget: usize) -> CampaignHandle {
        let budget = budget.clamp(1, self.threads);
        let id = self.hub.next_id.fetch_add(1, Ordering::Relaxed); // lint: ordering-ok(unique-id counter; uniqueness is all that is required)
        let ledger = Arc::new(Ledger {
            counters: (0..self.threads)
                .map(|_| WorkerCounters::default())
                .collect(),
            failures: Mutex::new(Vec::new()),
        });
        self.hub.lock().slots.push(Slot {
            id,
            queue: VecDeque::new(),
            running: 0,
            pending: 0,
            budget,
            ledger: Arc::clone(&ledger),
        });
        CampaignHandle {
            hub: Arc::clone(&self.hub),
            id,
            budget,
            ledger,
            lifetime: rls_obs::Stopwatch::start(),
        }
    }

    fn close(&self) {
        self.hub.lock().open = false;
        self.hub.work_cv.notify_all();
    }

    /// Closes the pool and joins every worker after queued jobs drain.
    pub fn shutdown(mut self) {
        self.close();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for SharedPool {
    fn drop(&mut self) {
        self.close();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// One campaign's handle onto the pool.
///
/// Dropping the handle waits for the campaign's in-flight jobs, retires
/// its slot, and emits the campaign's pool metrics.
pub struct CampaignHandle {
    hub: Arc<Hub>,
    id: u64,
    budget: usize,
    ledger: Arc<Ledger>,
    /// Times the campaign's life on the pool (the busy/idle base).
    lifetime: rls_obs::Stopwatch,
}

impl std::fmt::Debug for CampaignHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CampaignHandle")
            .field("id", &self.id)
            .field("budget", &self.budget)
            .finish_non_exhaustive()
    }
}

impl CampaignHandle {
    /// Enqueues a job under a caller-chosen tag. If the job panics, the
    /// tag identifies it in [`CampaignHandle::take_failures`], so the
    /// caller can rebuild and retry exactly the failed work. On a closed
    /// pool the job is not run; a failure is recorded under the tag so the
    /// caller's wave protocol observes the outage.
    pub fn submit_tagged(&self, tag: u64, job: impl FnOnce(&WorkerCounters) + Send + 'static) {
        inject::on_sched_point("campaign.submit");
        let mut sched = self.hub.lock();
        if !sched.open {
            drop(sched);
            self.ledger
                .failures
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(JobFailure {
                    worker: usize::MAX,
                    tag,
                    message: "shared pool is shut down".to_string(),
                    class: classify("shared pool is shut down"),
                });
            return;
        }
        if let Some(slot) = sched.slots.iter_mut().find(|s| s.id == self.id) {
            slot.queue.push_back((tag, Box::new(job)));
            slot.pending += 1;
        }
        drop(sched);
        self.hub.work_cv.notify_one();
    }

    /// Blocks until every job this campaign submitted has finished — the
    /// per-campaign reduction barrier. Other campaigns' jobs are
    /// irrelevant to (and unaffected by) this wait.
    pub fn wait_idle(&self) {
        inject::on_sched_point("campaign.wait_idle");
        let mut sched = self.hub.lock();
        loop {
            let pending = sched
                .slots
                .iter()
                .find(|s| s.id == self.id)
                .map_or(0, |s| s.pending);
            if pending == 0 {
                return;
            }
            sched = self
                .hub
                .idle_cv
                .wait(sched)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// [`wait_idle`](Self::wait_idle) with an upper bound: returns `false`
    /// if jobs are still pending when `timeout` elapses. A wedged worker
    /// (infinite loop, never-returning syscall) would otherwise pin its
    /// campaign in the barrier forever; the serve-layer watchdog uses this
    /// to turn "no progress" into a bounded, checkpointable failure
    /// instead. Timing out abandons no state — the jobs finish (or not)
    /// on their own and the slot drains normally at handle drop.
    pub fn wait_idle_for(&self, timeout: std::time::Duration) -> bool {
        let deadline = Instant::now() + timeout; // lint: det-ok(bounds the wait only; the reduced result never depends on when the timeout fires)
        let mut sched = self.hub.lock();
        loop {
            let pending = sched
                .slots
                .iter()
                .find(|s| s.id == self.id)
                .map_or(0, |s| s.pending);
            if pending == 0 {
                return true;
            }
            let left = deadline.saturating_duration_since(Instant::now()); // lint: det-ok(bounds the wait only; the reduced result never depends on when the timeout fires)
            if left.is_zero() {
                return false;
            }
            let (guard, _timed_out) = self
                .hub
                .idle_cv
                .wait_timeout(sched, left)
                .unwrap_or_else(PoisonError::into_inner);
            sched = guard;
        }
    }

    /// Drains the failures recorded since the last call. Call at a
    /// [`CampaignHandle::wait_idle`] barrier; an empty result means every
    /// job since the last drain completed.
    pub fn take_failures(&self) -> Vec<JobFailure> {
        inject::on_sched_point("campaign.take_failures");
        std::mem::take(
            &mut self
                .ledger
                .failures
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        )
    }

    /// A progress snapshot of this campaign only: its pending count and
    /// its per-worker counters. `threads` reports the campaign's budget —
    /// the parallelism the campaign was promised — not the pool width.
    pub fn snapshot(&self) -> PoolSnapshot {
        let pending = self
            .hub
            .lock()
            .slots
            .iter()
            .find(|s| s.id == self.id)
            .map_or(0, |s| s.pending);
        PoolSnapshot {
            threads: self.budget,
            pending,
            workers: self
                .ledger
                .counters
                .iter()
                .enumerate()
                .map(|(w, c)| c.snapshot(w))
                .collect(),
            fallback: None,
        }
    }

    /// Emits the campaign's pool metrics once, from its final counters.
    /// "Busy" is simulation wall time; the rest of the campaign's life on
    /// the pool counts as idle (queue waits, other campaigns' jobs,
    /// sleeps).
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

    /// The campaign's concurrency budget (the `threads` analogue for
    /// test-block sizing).
    pub fn threads(&self) -> usize {
        self.budget
    }
}

impl Drop for CampaignHandle {
    fn drop(&mut self) {
        let mut sched = self.hub.lock();
        while let Some(pos) = sched.slots.iter().position(|s| s.id == self.id) {
            let slot = &sched.slots[pos]; // lint: panic-ok(pos was just produced by position() over the same vec under the same lock)
            if slot.pending == 0 {
                sched.slots.remove(pos);
                break;
            }
            sched = self
                .hub
                .idle_cv
                .wait(sched)
                .unwrap_or_else(PoisonError::into_inner);
        }
        drop(sched);
        self.emit_metrics();
    }
}

/// Computes one test set's detections on a [`CampaignHandle`] against a
/// live fault list the caller owns.
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
    handle: CampaignHandle,
    /// Upper bound on one wave's reduction barrier; `None` waits forever.
    wave_timeout: Option<std::time::Duration>,
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
    /// `chains` with `options`, submitting its jobs through `handle`.
    pub fn new(
        compiled: Arc<CompiledCircuit>,
        chains: ChainMap,
        options: SimOptions,
        handle: CampaignHandle,
    ) -> Self {
        SharedSetRunner {
            compiled,
            chains: Arc::new(chains),
            options,
            handle,
            wave_timeout: None,
        }
    }

    /// Bounds every wave barrier: a wave whose jobs have not all finished
    /// within `timeout` is reported as a [`SetFailure`] instead of
    /// blocking forever, so the caller can fall back to sequential
    /// execution of the same set (which re-derives every drop and keeps
    /// the outcome bit-identical). `None` restores unbounded waits.
    pub fn set_wave_timeout(&mut self, timeout: Option<std::time::Duration>) {
        self.wave_timeout = timeout;
    }

    /// The campaign's pool handle.
    pub fn handle(&self) -> &CampaignHandle {
        &self.handle
    }

    /// Gives the pool handle back, e.g. to keep a degraded campaign's
    /// worker counters without running more sets on the pool.
    pub fn into_handle(self) -> CampaignHandle {
        self.handle
    }

    /// Submits one wave of test-block jobs for the given tags (block
    /// indices). Each job walks its block with
    /// [`rls_fsim::simulate_block`], treating every fault another job of
    /// the set already published in the bitset as dropped.
    fn submit_block_wave(&self, tags: &[u64], set: &Arc<SetWork>, blocks: &[(usize, usize)]) {
        for &tag in tags {
            let (lo, hi) = blocks[tag as usize]; // lint: panic-ok(tags are minted over 0..blocks.len())
            let set = Arc::clone(set);
            self.handle.submit_tagged(tag, move |counters| {
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
                self.handle.snapshot().pending as u64,
                phase = PHASE
            );
            match self.wave_timeout {
                None => self.handle.wait_idle(),
                Some(timeout) => {
                    if !self.handle.wait_idle_for(timeout) {
                        let mut failures = self.handle.take_failures();
                        failures.push(JobFailure {
                            worker: usize::MAX,
                            tag: 0,
                            message: format!(
                                "wave barrier timed out after {}ms with jobs still running",
                                timeout.as_millis()
                            ),
                            class: FailureClass::Other,
                        });
                        return Err(SetFailure {
                            phase: PHASE,
                            attempts,
                            failures,
                        });
                    }
                }
            }
            let failures = self.handle.take_failures();
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
        let _ = self.handle.take_failures();
        // One wave of contiguous test-block jobs, sized by the campaign's
        // budget exactly as a direct run with `threads = budget` would
        // size them, each simulating against the set-start live list.
        let blocks = test_blocks(tests.len(), self.handle.threads());
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
    use std::sync::atomic::AtomicUsize;

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
        let pool = SharedPool::new(4);
        for budget in [1, 2, 4] {
            let runner = SharedSetRunner::new(
                Arc::clone(&compiled),
                ChainMap::full(3),
                SimOptions::default(),
                pool.register(budget),
            );
            let mut sim = FaultSimulator::on(Arc::clone(&compiled));
            let counts = run_sets(&runner, &mut sim, &sets);
            assert_eq!(counts, seq_counts, "budget = {budget}");
            assert_eq!(sim.live(), &seq_live[..], "budget = {budget}");
        }
        pool.shutdown();
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
        let pool = SharedPool::new(2);
        let mut sim = FaultSimulator::on(Arc::clone(&compiled));
        let chains = ChainMap::full(compiled.circuit().num_dffs());
        let runner =
            SharedSetRunner::new(compiled, chains, SimOptions::default(), pool.register(2));
        let counts = run_sets(&runner, &mut sim, &sets);
        assert_eq!(counts, seq_counts);
        assert_eq!(sim.live(), &seq_live[..]);
        let snap = runner.handle().snapshot();
        assert_eq!(
            snap.total_lanes_capacity(),
            snap.total_batches() * KernelWord::LANES as u64
        );
        pool.shutdown();
    }

    #[test]
    fn newly_detected_is_in_live_list_order() {
        let pool = SharedPool::new(4);
        let runner = s27_runner(&pool);
        let live = compiled_s27().collapsed().representatives().to_vec();
        let newly = runner.try_run_set(&live, &s27_sets()[0]).unwrap();
        let mut sorted = newly.clone();
        sorted.sort_unstable();
        assert_eq!(newly, sorted, "default live list is ascending by id");
        assert!(!newly.is_empty());
        pool.shutdown();
    }

    #[test]
    fn restricted_live_lists_match_the_fault_simulator() {
        let compiled = compiled_s27();
        let targets: Vec<FaultId> = compiled.collapsed().representatives()[..7].to_vec();
        let set = &s27_sets()[0];
        let mut sim = FaultSimulator::on(Arc::clone(&compiled));
        sim.set_targets(&targets);
        let seq: usize = set.iter().map(|t| sim.run_test(t).len()).sum();
        let pool = SharedPool::new(2);
        let chains = ChainMap::full(compiled.circuit().num_dffs());
        let runner =
            SharedSetRunner::new(compiled, chains, SimOptions::default(), pool.register(2));
        let newly = runner.try_run_set(&targets, set).unwrap();
        assert_eq!(newly.len(), seq);
        let left: Vec<FaultId> = targets
            .iter()
            .copied()
            .filter(|id| !newly.contains(id))
            .collect();
        assert_eq!(left, sim.live());
        // The workers' drop counters account for exactly these faults.
        assert_eq!(runner.handle().snapshot().total_dropped() as usize, seq);
    }

    #[test]
    fn a_readmitted_fault_is_simulated_again() {
        // Detection state is per set: a fault an earlier set detected and
        // a later live list re-admits (as a checkpoint restrict can) is
        // simulated and reported again, as the FaultSimulator does.
        let compiled = compiled_s27();
        let all = compiled.collapsed().representatives().to_vec();
        let set = &s27_sets()[0];
        let pool = SharedPool::new(2);
        let runner = SharedSetRunner::new(
            Arc::clone(&compiled),
            ChainMap::full(compiled.circuit().num_dffs()),
            SimOptions::default(),
            pool.register(2),
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
        pool.shutdown();
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

    fn s27_runner(pool: &SharedPool) -> SharedSetRunner {
        SharedSetRunner::new(
            compiled_s27(),
            ChainMap::full(3),
            SimOptions::default(),
            pool.register(2),
        )
    }

    #[test]
    fn run_waves_retries_only_failed_tags() {
        let _quiet = quiet_panics();
        let pool = SharedPool::new(2);
        let runner = s27_runner(&pool);
        let flaky_runs = Arc::new(AtomicUsize::new(0));
        let total_jobs = Arc::new(AtomicUsize::new(0));
        let r = runner.run_waves(vec![1, 2, 3], |tags| {
            for &tag in tags {
                let flaky_runs = Arc::clone(&flaky_runs);
                let total_jobs = Arc::clone(&total_jobs);
                runner.handle().submit_tagged(tag, move |_| {
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
        let pool = SharedPool::new(2);
        let runner = s27_runner(&pool);
        let err = runner
            .run_waves(vec![7], |tags| {
                for &tag in tags {
                    runner
                        .handle()
                        .submit_tagged(tag, |_| panic!("always down"));
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
            runner.handle().snapshot().total_respawns(),
            (RETRY_ROUNDS + 1) as u64
        );
    }

    #[test]
    fn concurrent_campaigns_are_isolated_and_exact() {
        // Two campaigns over the same compiled circuit, driven from two
        // client threads sharing one pool: each must match the oracle as
        // if it ran alone.
        let sets = s27_sets();
        let (seq_counts, seq_live) = sequential(&sets);
        let compiled = compiled_s27();
        let pool = SharedPool::new(4);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let runner = SharedSetRunner::new(
                        Arc::clone(&compiled),
                        ChainMap::full(3),
                        SimOptions::default(),
                        pool.register(2),
                    );
                    let mut sim = FaultSimulator::on(Arc::clone(&compiled));
                    let sets = &sets;
                    s.spawn(move || {
                        let counts = run_sets(&runner, &mut sim, sets);
                        (counts, sim.live().to_vec())
                    })
                })
                .collect();
            for h in handles {
                let (counts, live) = h.join().unwrap();
                assert_eq!(counts, seq_counts);
                assert_eq!(live, seq_live);
            }
        });
        pool.shutdown();
    }

    #[test]
    fn failures_are_recorded_per_campaign_and_pool_survives() {
        let _quiet = quiet_panics();
        let pool = SharedPool::new(2);
        let bad = pool.register(2);
        let good = pool.register(2);
        bad.submit_tagged(7, |_| panic!("down on purpose"));
        good.submit_tagged(1, |_| {});
        bad.wait_idle();
        good.wait_idle();
        let failures = bad.take_failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].tag, 7);
        assert!(failures[0].message.contains("down on purpose"));
        assert!(good.take_failures().is_empty());
        // The pool still runs work after a supervised panic.
        let ran = Arc::new(AtomicUsize::new(0));
        let r = Arc::clone(&ran);
        bad.submit_tagged(8, move |_| {
            r.fetch_add(1, Ordering::SeqCst);
        });
        bad.wait_idle();
        assert_eq!(ran.load(Ordering::SeqCst), 1);
        assert!(bad.take_failures().is_empty());
    }

    #[test]
    fn budget_caps_concurrency() {
        // With budget 1 on a 4-wide pool, no two of the campaign's jobs
        // may overlap.
        let pool = SharedPool::new(4);
        let h = pool.register(1);
        let active = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        for t in 0..16 {
            let active = Arc::clone(&active);
            let peak = Arc::clone(&peak);
            h.submit_tagged(t, move |_| {
                let now = active.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_micros(200));
                active.fetch_sub(1, Ordering::SeqCst);
            });
        }
        h.wait_idle();
        assert_eq!(peak.load(Ordering::SeqCst), 1);
        assert_eq!(h.snapshot().threads, 1);
    }

    #[test]
    fn shutdown_drains_queued_jobs() {
        let pool = SharedPool::new(1);
        let h = pool.register(1);
        let ran = Arc::new(AtomicUsize::new(0));
        for t in 0..32 {
            let r = Arc::clone(&ran);
            h.submit_tagged(t, move |_| {
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
        let pool = SharedPool::new(1);
        let h = pool.register(1);
        pool.shutdown();
        h.submit_tagged(42, |_| {});
        h.wait_idle(); // trivially idle: nothing was enqueued
        let failures = h.take_failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].tag, 42);
        assert!(failures[0].message.contains("shut down"));
    }

    #[test]
    fn bounded_idle_wait_times_out_on_a_wedged_job_then_drains() {
        let pool = SharedPool::new(2);
        let h = pool.register(2);
        h.submit_tagged(1, |_| {
            std::thread::sleep(std::time::Duration::from_millis(150));
        });
        assert!(
            !h.wait_idle_for(std::time::Duration::from_millis(10)),
            "a job outliving the bound must report not-idle"
        );
        assert!(
            h.wait_idle_for(std::time::Duration::from_secs(10)),
            "once the job finishes the same wait succeeds"
        );
        assert!(
            h.wait_idle_for(std::time::Duration::ZERO),
            "idle slot: zero bound is fine"
        );
    }
}
