//! Liveness watchdog: detects campaigns that stop making trial progress.
//!
//! Every admitted campaign registers a [`ProgressCell`]; the campaign's
//! executor beats the cell at each trial boundary. One heartbeat thread
//! scans the registry a few times per deadline and, when a cell has not
//! beaten within the deadline, raises its `stalled` flag. The executor
//! reads that flag from `cancelled()`, so a stalled campaign stops at
//! the next trial boundary with its checkpoint intact — the session then
//! requeues it from that checkpoint (bounded retries) and finally forces
//! the degrade-to-sequential path, which cannot stall on the pool.
//!
//! The watchdog uses wall time, but only to decide *when to give up
//! waiting* — never what a campaign computes. Requeued and degraded
//! attempts replay from checkpoints through the same resume machinery
//! that keeps results bit-identical, so a spurious stall (a genuinely
//! slow trial) costs wasted work, not a wrong answer.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Per-campaign progress state shared between the executor (writer) and
/// the heartbeat thread (reader).
#[derive(Debug)]
pub struct ProgressCell {
    /// When the cell was created; beats are measured against this.
    epoch: Instant,
    /// Milliseconds since `epoch` at the last trial boundary.
    beat_ms: AtomicU64,
    /// Trial boundaries crossed (diagnostics; the flag is what cancels).
    trials: AtomicU64,
    /// Raised by the watchdog when the deadline lapses without a beat.
    stalled: AtomicBool,
}

impl ProgressCell {
    fn new() -> ProgressCell {
        ProgressCell {
            epoch: Instant::now(), // lint: det-ok(liveness bookkeeping only; stall cancellation replays from a checkpoint, outcomes are unchanged)
            beat_ms: AtomicU64::new(0),
            trials: AtomicU64::new(0),
            stalled: AtomicBool::new(false),
        }
    }

    /// Records a trial boundary: the campaign is alive.
    pub fn beat(&self) {
        let now = self.epoch.elapsed().as_millis() as u64;
        self.beat_ms.store(now, Ordering::Relaxed); // lint: ordering-ok(monotonic liveness timestamp; a stale read only delays stall detection by one scan)
        self.trials.fetch_add(1, Ordering::Relaxed); // lint: ordering-ok(diagnostic counter; no reader orders against it)
    }

    /// Whether the watchdog declared this campaign stalled.
    pub fn stalled(&self) -> bool {
        self.stalled.load(Ordering::Relaxed) // lint: ordering-ok(advisory cancellation flag polled at trial boundaries; latency, not ordering, is the contract)
    }

    /// Clears the stall flag for a requeued attempt.
    pub fn clear_stall(&self) {
        self.stalled.store(false, Ordering::Relaxed); // lint: ordering-ok(advisory cancellation flag; see stalled())
    }

    /// Raises the stall flag (the heartbeat thread's verdict).
    pub(crate) fn mark_stalled(&self) {
        self.stalled.store(true, Ordering::Relaxed); // lint: ordering-ok(advisory cancellation flag polled at trial boundaries)
    }

    /// Trial boundaries crossed so far.
    pub fn trials(&self) -> u64 {
        self.trials.load(Ordering::Relaxed) // lint: ordering-ok(diagnostic counter; no reader orders against it)
    }

    fn quiet_for(&self) -> Duration {
        let now = self.epoch.elapsed().as_millis() as u64;
        let beat = self.beat_ms.load(Ordering::Relaxed); // lint: ordering-ok(monotonic liveness timestamp; see beat())
        Duration::from_millis(now.saturating_sub(beat))
    }
}

struct Registry {
    cells: Vec<(u64, Arc<ProgressCell>)>,
    next_id: u64,
    stop: bool,
}

/// The heartbeat thread plus its registry of monitored campaigns.
pub struct Watchdog {
    inner: Arc<Inner>,
    thread: Option<std::thread::JoinHandle<()>>,
    deadline: Duration,
}

struct Inner {
    registry: Mutex<Registry>,
    /// Wakes the scanner early at shutdown (and bounds its scan period).
    tick: Condvar,
}

impl Watchdog {
    /// Starts the heartbeat thread. A zero `deadline` disables the
    /// watchdog entirely: registration returns `None` and no thread runs.
    pub fn start(deadline: Duration) -> Watchdog {
        let inner = Arc::new(Inner {
            registry: Mutex::new(Registry {
                cells: Vec::new(),
                next_id: 0,
                stop: false,
            }),
            tick: Condvar::new(),
        });
        let thread = (!deadline.is_zero()).then(|| {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || scan_loop(inner, deadline))
        });
        Watchdog {
            inner,
            thread,
            deadline,
        }
    }

    /// The configured stall deadline (zero when disabled).
    pub fn deadline(&self) -> Duration {
        self.deadline
    }

    /// Registers a campaign for monitoring; the guard unregisters on
    /// drop. Returns `None` when the watchdog is disabled.
    pub fn register(&self) -> Option<WatchGuard> {
        self.thread.as_ref()?;
        let cell = Arc::new(ProgressCell::new());
        let mut reg = self.inner.lock();
        let id = reg.next_id;
        reg.next_id += 1;
        reg.cells.push((id, Arc::clone(&cell)));
        drop(reg);
        rls_obs::gauge!("serve.watchdog.monitored", self.monitored() as u64);
        Some(WatchGuard {
            inner: Arc::clone(&self.inner),
            id,
            cell,
        })
    }

    /// Number of campaigns currently monitored.
    pub fn monitored(&self) -> usize {
        self.inner.lock().cells.len()
    }
}

impl Inner {
    fn lock(&self) -> std::sync::MutexGuard<'_, Registry> {
        self.registry.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.inner.lock().stop = true;
        self.inner.tick.notify_all();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// RAII registration for one monitored campaign.
pub struct WatchGuard {
    inner: Arc<Inner>,
    id: u64,
    cell: Arc<ProgressCell>,
}

impl WatchGuard {
    /// The monitored cell (share it with the executor).
    pub fn cell(&self) -> &Arc<ProgressCell> {
        &self.cell
    }
}

impl Drop for WatchGuard {
    fn drop(&mut self) {
        let mut reg = self.inner.lock();
        reg.cells.retain(|(id, _)| *id != self.id);
    }
}

fn scan_loop(inner: Arc<Inner>, deadline: Duration) {
    // Scanning at a quarter of the deadline bounds detection latency to
    // deadline + scan period while keeping the thread essentially idle.
    let period = (deadline / 4).max(Duration::from_millis(10));
    let mut reg = inner.lock();
    loop {
        if reg.stop {
            return;
        }
        let mut stalls = 0u64;
        for (_, cell) in &reg.cells {
            if !cell.stalled() && cell.quiet_for() > deadline {
                cell.mark_stalled();
                stalls += 1;
            }
        }
        if stalls > 0 {
            // Drop the registry lock first: the dump writes a file, and
            // register/deregister must not queue behind that I/O.
            drop(reg);
            rls_obs::counter!("serve.watchdog.stalls", stalls);
            // What was everyone doing when the stall was declared? Mark
            // it and dump the flight recorder's window for post-mortems.
            rls_obs::mark!("serve.stall", stalls);
            let _ = rls_obs::recorder::dump("watchdog-stall");
            reg = inner.lock();
        }
        let (guard, _) = inner
            .tick
            .wait_timeout(reg, period)
            .unwrap_or_else(PoisonError::into_inner);
        reg = guard;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_watchdog_registers_nothing() {
        let dog = Watchdog::start(Duration::ZERO);
        assert!(dog.register().is_none());
        assert_eq!(dog.monitored(), 0);
    }

    #[test]
    fn silent_campaign_is_declared_stalled_and_beats_prevent_it() {
        let dog = Watchdog::start(Duration::from_millis(40));
        let silent = dog.register().unwrap();
        let lively = dog.register().unwrap();
        assert_eq!(dog.monitored(), 2);
        let until = Instant::now() + Duration::from_millis(400);
        while !silent.cell().stalled() && Instant::now() < until {
            lively.cell().beat();
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(silent.cell().stalled(), "no beats within the deadline");
        assert!(
            !lively.cell().stalled(),
            "regular beats keep a campaign alive"
        );
        assert!(lively.cell().trials() > 0);
        // A requeued attempt clears the flag and is monitored afresh.
        silent.cell().clear_stall();
        assert!(!silent.cell().stalled());
        drop(silent);
        assert_eq!(dog.monitored(), 1);
    }
}
