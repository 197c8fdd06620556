//! The wave protocol shared by every parallel set execution: job tags,
//! chunk sizing, and the retry budget.
//!
//! # Execution model
//!
//! A *set* is the atomic scheduling unit of the paper's procedures: `TS0`
//! or one derived `TS(I, D1)`. [`crate::SharedSetRunner::try_run_set`]
//! fans a set out as one wave of jobs over the worker pool: one job per
//! `(tile, fault chunk)` of the live list (tagged by `batch_tag`)
//! simulates the chunk against a *tile* of shape-compatible consecutive
//! tests (grouped by [`rls_fsim::plan_tiles`] at [`rls_fsim::TILE_HEIGHT`]),
//! publishing detections into the shared [`crate::AtomicBitset`]. The
//! SoA kernel carries each test's fault-free machine in a reference lane,
//! so no job waits on a precomputed good trace. Chunks are sized
//! adaptively by [`chunk_size`] so big circuits do not drown the queue in
//! per-job overhead; a chunk wider than a tile row is simulated as
//! consecutive full-width sub-batches inside the job.
//!
//! # Recovery
//!
//! The jobs run as *waves*: submit, wait for the barrier, drain
//! [`crate::JobFailure`]s, and resubmit exactly the failed tags. Retries
//! are idempotent — the detection bitset is monotone — so a wave may
//! safely re-run work that partially completed.
//! A tag still failing after [`RETRY_ROUNDS`] retry waves aborts the set
//! with [`SetFailure`], leaving the runner's live/detected bookkeeping
//! untouched so the caller can replay the whole set on the sequential
//! oracle (see `rls_core::procedure2`'s degrade path).

use std::fmt;

use crate::pool::JobFailure;

/// Retry waves allowed per set before it is declared failed.
pub const RETRY_ROUNDS: usize = 3;

/// Tag of the job simulating live-list chunk `chunk` of tile `t`
/// (a tile is a run of shape-compatible consecutive tests).
pub(crate) fn batch_tag(t: usize, chunk: usize) -> u64 {
    ((t as u64) << 32) | chunk as u64
}

/// Adaptive batch-chunk size for one set: `max(16, live_faults / (threads × 8))`.
///
/// Fixed 64-fault chunks made submit overhead scale with circuit size:
/// a large live list became thousands of tiny jobs per test. Sizing by
/// live-list length keeps roughly eight chunks per worker per test —
/// enough slack to balance uneven work across the campaign's budget, few
/// enough that queue traffic stays cheap — with a floor of 16 so small
/// circuits still fan out. The kernel keeps its one word width: jobs
/// split oversized chunks into tile-capacity sub-batches.
pub fn chunk_size(live_faults: usize, threads: usize) -> usize {
    (live_faults / (threads.max(1) * 8)).max(16)
}

/// A test set that could not be executed on the pool: some tagged job
/// kept panicking through every retry wave.
///
/// The runner's live/detected bookkeeping is untouched when this is
/// returned, so the caller can replay the set elsewhere (sequentially).
#[derive(Debug)]
pub struct SetFailure {
    /// Which phase gave up (always "batch": a set is one wave of
    /// `(tile, chunk)` jobs).
    pub phase: &'static str,
    /// Waves attempted (initial submission plus retries).
    pub attempts: usize,
    /// The failures of the final wave.
    pub failures: Vec<JobFailure>,
}

impl fmt::Display for SetFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} job still failing after {} attempts ({} job(s) down",
            self.phase,
            self.attempts,
            self.failures.len()
        )?;
        if let Some(first) = self.failures.first() {
            write!(f, "; first: {}", first.message)?;
        }
        write!(f, ")")
    }
}

impl std::error::Error for SetFailure {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_size_targets_eight_chunks_per_worker() {
        // Floor dominates for small circuits.
        assert_eq!(chunk_size(100, 4), 16);
        assert_eq!(chunk_size(0, 1), 16);
        // Large live lists: live / (threads * 8), so ~8 chunks per worker.
        assert_eq!(chunk_size(64_000, 4), 2_000);
        assert_eq!(chunk_size(64_000, 1), 8_000);
        // Degenerate thread count is clamped.
        assert_eq!(chunk_size(1_024, 0), 128);
    }
}
