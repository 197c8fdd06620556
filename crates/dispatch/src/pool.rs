//! Worker accounting and failure records shared by every pool user.
//!
//! The pool itself lives in [`crate::shared`]; this module holds the
//! value types its campaign reads back:
//!
//! - [`WorkerCounters`]: one cache-line-padded set of atomic counters per
//!   worker (jobs, kernel batches, faults dropped, simulation time,
//!   respawns, lane occupancy), bumped by the jobs themselves and read
//!   without stopping the pool;
//! - [`PoolSnapshot`] / [`WorkerSnapshot`]: point-in-time copies of those
//!   counters, the payload of the campaign `workers` record;
//! - [`JobFailure`]: a caught job panic, recorded under
//!   the tag the job was submitted with so the caller can retry exactly
//!   the failed work (see `shared`) or degrade.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// One job that failed: which worker it was on, the tag it carried, and
/// the panic message.
#[derive(Debug, Clone)]
pub struct JobFailure {
    /// Worker index the job ran on.
    pub worker: usize,
    /// The tag the job was submitted with.
    pub tag: u64,
    /// The panic message (or a placeholder for non-string payloads).
    pub message: String,
}

/// Extracts a readable message from a panic payload.
pub(crate) fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Per-worker activity counters, updated by the owning worker (and by the
/// jobs it runs) and read concurrently by
/// [`crate::SharedPool::snapshot`].
#[derive(Debug, Default)]
#[repr(align(64))] // avoid false sharing between neighbouring workers
pub struct WorkerCounters {
    jobs: AtomicU64,
    batches: AtomicU64,
    faults_dropped: AtomicU64,
    sim_nanos: AtomicU64,
    respawns: AtomicU64,
    lanes_used: AtomicU64,
    lanes_capacity: AtomicU64,
}

impl WorkerCounters {
    /// Records one job's kernel work: its batches and lane occupancy
    /// (the feed for the obs `fsim.lanes_*` counters) and the wall time
    /// it simulated for.
    #[inline]
    pub(crate) fn add_kernel(&self, stats: rls_fsim::LaneStats, elapsed: Duration) {
        self.batches.fetch_add(stats.batches, Ordering::Relaxed); // lint: ordering-ok(observability counter; snapshots read after the pool idles, never mid-reduction)
        self.lanes_used
            .fetch_add(stats.lanes_used, Ordering::Relaxed); // lint: ordering-ok(observability counter; snapshots read after the pool idles, never mid-reduction)
        self.lanes_capacity
            .fetch_add(stats.lanes_capacity, Ordering::Relaxed); // lint: ordering-ok(observability counter; snapshots read after the pool idles, never mid-reduction)
        self.sim_nanos
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed); // lint: ordering-ok(observability counter; snapshots read after the pool idles, never mid-reduction)
    }

    /// Records `n` faults one of this worker's sets detected.
    #[inline]
    pub(crate) fn add_dropped(&self, n: u64) {
        self.faults_dropped.fetch_add(n, Ordering::Relaxed); // lint: ordering-ok(observability counter; snapshots read after the pool idles, never mid-reduction)
    }

    /// Records one completed job.
    pub(crate) fn add_job(&self) {
        self.jobs.fetch_add(1, Ordering::Relaxed); // lint: ordering-ok(observability counter; snapshots read after the pool idles, never mid-reduction)
    }

    /// Records one supervised recovery after a job panic.
    pub(crate) fn add_respawn(&self) {
        self.respawns.fetch_add(1, Ordering::Relaxed); // lint: ordering-ok(observability counter; snapshots read after the pool idles, never mid-reduction)
    }

    pub(crate) fn snapshot(&self, worker: usize) -> WorkerSnapshot {
        WorkerSnapshot {
            worker,
            jobs: self.jobs.load(Ordering::Relaxed), // lint: ordering-ok(snapshot taken at the idle barrier; writers quiesced under the pool mutex)
            batches: self.batches.load(Ordering::Relaxed), // lint: ordering-ok(snapshot taken at the idle barrier; writers quiesced under the pool mutex)
            faults_dropped: self.faults_dropped.load(Ordering::Relaxed), // lint: ordering-ok(snapshot taken at the idle barrier; writers quiesced under the pool mutex)
            sim_nanos: self.sim_nanos.load(Ordering::Relaxed), // lint: ordering-ok(snapshot taken at the idle barrier; writers quiesced under the pool mutex)
            respawns: self.respawns.load(Ordering::Relaxed), // lint: ordering-ok(snapshot taken at the idle barrier; writers quiesced under the pool mutex)
            lanes_used: self.lanes_used.load(Ordering::Relaxed), // lint: ordering-ok(snapshot taken at the idle barrier; writers quiesced under the pool mutex)
            lanes_capacity: self.lanes_capacity.load(Ordering::Relaxed), // lint: ordering-ok(snapshot taken at the idle barrier; writers quiesced under the pool mutex)
        }
    }
}

/// A point-in-time copy of one worker's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerSnapshot {
    /// Worker index (`0..threads`).
    pub worker: usize,
    /// Jobs executed (completed without panicking).
    pub jobs: u64,
    /// Kernel fault batches simulated.
    pub batches: u64,
    /// Faults the sets this worker ran detected against their submitted
    /// live list (the caller drops those no earlier trial dropped).
    pub faults_dropped: u64,
    /// Nanoseconds spent in simulation work.
    pub sim_nanos: u64,
    /// Times this worker's loop was respawned after a job panic.
    pub respawns: u64,
    /// Occupied kernel lanes summed over this worker's batches.
    pub lanes_used: u64,
    /// Available kernel lanes summed over this worker's batches
    /// (`batches * KernelWord::LANES`: every invocation runs one
    /// [`rls_fsim::KernelWord`]).
    pub lanes_capacity: u64,
}

/// A progress snapshot of the whole pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolSnapshot {
    /// Number of worker threads.
    pub threads: usize,
    /// Jobs submitted but not yet finished.
    pub pending: usize,
    /// Per-worker counters.
    pub workers: Vec<WorkerSnapshot>,
    /// Lane accounting of the sets the campaign's own simulator ran on the
    /// caller thread: `TS0`, the first trial of every window, and every
    /// set after a degrade (a set that kept failing on the pool, or a
    /// forced degrade). `None` when the caller simulated nothing.
    pub caller: Option<rls_fsim::LaneStats>,
}

impl PoolSnapshot {
    /// Total kernel batches simulated across workers and the caller.
    pub fn total_batches(&self) -> u64 {
        self.workers.iter().map(|w| w.batches).sum::<u64>() + self.caller.map_or(0, |f| f.batches)
    }

    /// Total faults dropped across workers.
    pub fn total_dropped(&self) -> u64 {
        self.workers.iter().map(|w| w.faults_dropped).sum()
    }

    /// Total worker respawns after job panics.
    pub fn total_respawns(&self) -> u64 {
        self.workers.iter().map(|w| w.respawns).sum()
    }

    /// Total occupied kernel lanes across workers and the caller.
    pub fn total_lanes_used(&self) -> u64 {
        self.workers.iter().map(|w| w.lanes_used).sum::<u64>()
            + self.caller.map_or(0, |f| f.lanes_used)
    }

    /// Total available kernel lanes across workers and the caller.
    pub fn total_lanes_capacity(&self) -> u64 {
        self.workers.iter().map(|w| w.lanes_capacity).sum::<u64>()
            + self.caller.map_or(0, |f| f.lanes_capacity)
    }
}
