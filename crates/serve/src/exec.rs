//! The served trial executor: Procedure 2 on the persistent shared pool.
//!
//! [`ServedExecutor`] wraps the same [`CampaignExecutor`] a direct
//! `Procedure2::run` drives — one `FaultSimulator` owning the fault
//! list, a runner computing each set's detections on the shared pool,
//! and the degrade to that simulator when a set keeps failing — and
//! adds only what is server-specific: `cancelled()`
//! answers from four sources so the greedy loop stops at the next trial
//! boundary (the server draining, the client disconnecting, the watchdog
//! declaring the campaign stalled, and a per-request deadline lapsing),
//! every set beats the watchdog, and [`ServedExecutor::force_degrade`]
//! pins a requeued campaign to the sequential path. Checkpoints written
//! after `TS0` and after every kept pair make a cancelled campaign
//! resumable, whichever source stopped it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use rls_core::{CampaignExecutor, TrialExecutor};
use rls_dispatch::PoolSnapshot;
use rls_fsim::{FaultId, ScanTest};

use crate::watchdog::ProgressCell;

/// Why a served campaign stopped early — reported in the `interrupted`
/// frame and used to pick the requeue/journal policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelCause {
    /// The server is draining for shutdown.
    Drain,
    /// The watchdog declared the campaign stalled.
    Stall,
    /// The request's deadline lapsed.
    Deadline,
    /// The client went away (or its stream write failed).
    Disconnect,
}

impl CancelCause {
    /// The wire label used in `interrupted` frames.
    pub fn label(self) -> &'static str {
        match self {
            CancelCause::Drain => "drain",
            CancelCause::Stall => "stall",
            CancelCause::Deadline => "deadline",
            CancelCause::Disconnect => "disconnect",
        }
    }
}

/// Drives one served campaign's trials on the shared pool.
pub struct ServedExecutor<'c> {
    inner: CampaignExecutor,
    drain: &'c AtomicBool,
    disconnect: Arc<AtomicBool>,
    progress: Option<Arc<ProgressCell>>,
    deadline: Option<Instant>,
}

impl std::fmt::Debug for ServedExecutor<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServedExecutor")
            .field("inner", &self.inner)
            .finish_non_exhaustive()
    }
}

impl<'c> ServedExecutor<'c> {
    /// An executor over a registered campaign's executor. `drain` is
    /// the server's global drain flag; `disconnect` is set by the response
    /// writer when the client goes away.
    pub fn new(
        inner: CampaignExecutor,
        drain: &'c AtomicBool,
        disconnect: Arc<AtomicBool>,
    ) -> Self {
        ServedExecutor {
            inner,
            drain,
            disconnect,
            progress: None,
            deadline: None,
        }
    }

    /// Attaches a watchdog progress cell: `apply_set` beats it at every
    /// trial boundary and `cancelled()` honours its stall flag.
    pub fn with_progress(mut self, cell: Arc<ProgressCell>) -> Self {
        self.progress = Some(cell);
        self
    }

    /// Attaches a per-request deadline checked at trial boundaries.
    pub fn with_deadline(mut self, deadline: Option<Instant>) -> Self {
        self.deadline = deadline;
        self
    }

    /// The campaign's worker counters for the `workers` record (see
    /// [`CampaignExecutor::snapshot`]).
    pub fn snapshot(&self) -> Option<PoolSnapshot> {
        self.inner.snapshot()
    }

    /// True when the run was asked to stop — distinguishes an
    /// `interrupted` stream from a `done` one.
    pub fn was_cancelled(&self) -> bool {
        self.cancelled()
    }

    /// Why the run was asked to stop (most systemic cause wins when
    /// several apply), or `None` when it was not.
    pub fn cancel_cause(&self) -> Option<CancelCause> {
        if self.drain.load(Ordering::Acquire) {
            Some(CancelCause::Drain)
        } else if self.progress.as_ref().is_some_and(|c| c.stalled()) {
            Some(CancelCause::Stall)
        } else if self.past_deadline() {
            Some(CancelCause::Deadline)
        } else if self.disconnect.load(Ordering::Acquire) {
            Some(CancelCause::Disconnect)
        } else {
            None
        }
    }

    /// Drops the pool runner up front (watchdog retries exhausted): every
    /// subsequent set runs on the executor's simulator on this thread,
    /// which the pool cannot stall.
    pub fn force_degrade(&mut self) {
        self.inner.force_degrade();
    }

    fn past_deadline(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d) // lint: det-ok(deadline cancellation stops at a checkpointed trial boundary; the resumed outcome is bit-identical)
    }
}

impl TrialExecutor for ServedExecutor<'_> {
    fn live_count(&self) -> usize {
        self.inner.live_count()
    }

    fn apply_set(&mut self, tests: &[ScanTest]) -> usize {
        if let Some(cell) = &self.progress {
            cell.beat();
        }
        self.inner.apply_set(tests)
    }

    fn undetected(&self) -> Vec<FaultId> {
        self.inner.undetected()
    }

    fn restrict(&mut self, live: &[FaultId]) {
        self.inner.restrict(live);
    }

    fn degraded(&self) -> bool {
        self.inner.degraded()
    }

    fn cancelled(&self) -> bool {
        self.cancel_cause().is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rls_core::RlsConfig;
    use rls_dispatch::SharedPool;
    use rls_fsim::{ChainMap, CompiledCircuit, FaultSimulator};

    fn fixture() -> (SharedPool, Arc<CompiledCircuit>) {
        let compiled = Arc::new(CompiledCircuit::compile(rls_benchmarks::s27()).unwrap());
        (SharedPool::new(2), compiled)
    }

    fn served<'c>(
        pool: &SharedPool,
        compiled: &Arc<CompiledCircuit>,
        drain: &'c AtomicBool,
        disconnect: Arc<AtomicBool>,
    ) -> ServedExecutor<'c> {
        let inner = CampaignExecutor::new(
            compiled,
            &ChainMap::full(3),
            &RlsConfig::new(4, 8, 8),
            Some(pool.register(2)),
        );
        ServedExecutor::new(inner, drain, disconnect)
    }

    fn s27_set() -> Vec<ScanTest> {
        vec![ScanTest::from_strings("001", &["0111", "1001", "0100"]).unwrap()]
    }

    #[test]
    fn executor_matches_the_sequential_oracle() {
        let (pool, compiled) = fixture();
        let drain = AtomicBool::new(false);
        let mut exec = served(&pool, &compiled, &drain, Arc::new(AtomicBool::new(false)));
        let mut oracle = FaultSimulator::new(compiled.circuit());
        let set = s27_set();
        let newly = exec.apply_set(&set);
        assert_eq!(newly, oracle.run_tests(&set));
        assert_eq!(exec.undetected(), oracle.live());
        assert!(!exec.degraded() && !exec.was_cancelled());
    }

    #[test]
    fn cancellation_flags_flip_cancelled() {
        let (pool, compiled) = fixture();
        let drain = AtomicBool::new(false);
        let disconnect = Arc::new(AtomicBool::new(false));
        let exec = served(&pool, &compiled, &drain, Arc::clone(&disconnect));
        assert!(!exec.cancelled());
        disconnect.store(true, Ordering::Release);
        assert!(exec.cancelled());
        assert_eq!(exec.cancel_cause(), Some(CancelCause::Disconnect));
        disconnect.store(false, Ordering::Release);
        drain.store(true, Ordering::Release);
        assert!(exec.cancelled());
        assert_eq!(exec.cancel_cause(), Some(CancelCause::Drain));
    }

    #[test]
    fn stall_and_deadline_are_cancel_sources_too() {
        let (pool, compiled) = fixture();
        let drain = AtomicBool::new(false);
        let dog = crate::watchdog::Watchdog::start(std::time::Duration::from_secs(3600));
        let guard = dog.register().unwrap();
        let exec = served(&pool, &compiled, &drain, Arc::new(AtomicBool::new(false)))
            .with_progress(Arc::clone(guard.cell()))
            .with_deadline(Some(Instant::now() + std::time::Duration::from_secs(3600)));
        assert!(!exec.cancelled());
        // Raise the stall flag the way the heartbeat thread would.
        guard.cell().mark_stalled();
        assert!(exec.cancelled(), "a watchdog stall cancels");
        assert_eq!(exec.cancel_cause(), Some(CancelCause::Stall));
        guard.cell().clear_stall();
        assert!(!exec.cancelled());
        let exec = exec.with_deadline(Some(Instant::now() - std::time::Duration::from_millis(1)));
        assert!(exec.cancelled(), "a lapsed deadline cancels");
        assert_eq!(exec.cancel_cause(), Some(CancelCause::Deadline));
    }

    #[test]
    fn force_degrade_routes_every_set_to_the_oracle() {
        let (pool, compiled) = fixture();
        let drain = AtomicBool::new(false);
        let mut exec = served(&pool, &compiled, &drain, Arc::new(AtomicBool::new(false)));
        exec.force_degrade();
        assert!(exec.degraded(), "degraded before any set ran");
        let mut oracle = FaultSimulator::new(compiled.circuit());
        let set = s27_set();
        assert_eq!(exec.apply_set(&set), oracle.run_tests(&set));
        assert_eq!(exec.undetected(), oracle.live());
    }

    #[test]
    fn shutdown_pool_degrades_to_the_oracle_with_exact_lane_accounting() {
        // Submitting against a shut-down pool records failures; the wave
        // protocol exhausts retries and the executor must fall back to
        // the sequential simulator — same detections, and the fallback's
        // lane accounting is folded into the workers snapshot.
        let (pool, compiled) = fixture();
        let drain = AtomicBool::new(false);
        let mut exec = served(&pool, &compiled, &drain, Arc::new(AtomicBool::new(false)));
        pool.shutdown();
        let mut oracle = FaultSimulator::new(compiled.circuit());
        let set = s27_set();
        let newly = exec.apply_set(&set);
        assert!(exec.degraded());
        assert_eq!(newly, oracle.run_tests(&set));
        assert_eq!(exec.undetected(), oracle.live());
        let stats = exec
            .snapshot()
            .and_then(|snap| snap.fallback)
            .expect("fallback ran batches");
        assert!(stats.batches > 0 && stats.lanes_used > 0);
    }
}
