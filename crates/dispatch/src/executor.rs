//! The wave protocol shared by every parallel set execution: job tags,
//! tile planning, chunk sizing, and the retry budget.
//!
//! # Execution model
//!
//! A *set* is the atomic scheduling unit of the paper's procedures: `TS0`
//! or one derived `TS(I, D1)`. [`crate::SharedSetRunner::try_run_set`]
//! fans a set out in two phases over the worker pool:
//!
//! 1. **Traces** — one job per test computes the fault-free
//!    [`rls_fsim::TestTrace`] (tagged by `trace_tag`);
//! 2. **Batches** — one job per `(tile, fault chunk)` of the live list
//!    (tagged by `batch_tag`) simulates the chunk against a *tile* of
//!    shape-compatible consecutive tests (see `plan_tiles`; height one
//!    when pattern lanes are disabled), publishing detections into the
//!    shared [`crate::AtomicBitset`]. Chunks are sized adaptively by
//!    [`chunk_size`] so big circuits do not drown the queue in per-job
//!    overhead; a chunk wider than a tile row is simulated as consecutive
//!    full-width sub-batches inside the job.
//!
//! # Recovery
//!
//! Both phases run as *waves*: submit, wait for the barrier, drain
//! [`crate::JobFailure`]s, and resubmit exactly the failed tags. Retries
//! are idempotent — traces land in `OnceLock`s and the detection bitset is
//! monotone — so a wave may safely re-run work that partially completed.
//! A tag still failing after [`RETRY_ROUNDS`] retry waves aborts the set
//! with [`SetFailure`], leaving the runner's live/detected bookkeeping
//! untouched so the caller can replay the whole set on the sequential
//! oracle (see `rls_core::procedure2`'s degrade path).

use std::fmt;

use rls_fsim::{tile_compatible, ScanTest};

use crate::pool::JobFailure;

/// Retry waves allowed per phase before a set is declared failed.
pub const RETRY_ROUNDS: usize = 3;

/// Tag bit distinguishing phase-1 trace jobs from phase-2 batch jobs.
pub(crate) const TRACE_TAG_BIT: u64 = 1 << 62;

/// Tag of the phase-1 job computing test `t`'s fault-free trace.
pub(crate) fn trace_tag(t: usize) -> u64 {
    TRACE_TAG_BIT | t as u64
}

/// Tag of the phase-2 job simulating live-list chunk `chunk` of tile `t`
/// (a tile is a run of shape-compatible consecutive tests; height one
/// when pattern lanes are disabled).
pub(crate) fn batch_tag(t: usize, chunk: usize) -> u64 {
    ((t as u64) << 32) | chunk as u64
}

/// Greedy tiling of a test set for the 2-D kernel: consecutive runs of
/// [`tile_compatible`] tests, each run at most `pattern_lanes` tall.
/// Height-one tiles degrade to the classic one-test batch, so the same
/// wave protocol covers both shapes.
pub(crate) fn plan_tiles(tests: &[ScanTest], pattern_lanes: usize) -> Vec<(usize, usize)> {
    let cap = pattern_lanes.max(1);
    let mut tiles = Vec::new();
    let mut i = 0;
    while i < tests.len() {
        let mut j = i + 1;
        while j < tests.len() && j - i < cap && tile_compatible(&tests[i], &tests[j]) { // lint: panic-ok(i < j < tests.len() by the loop conditions)
            j += 1;
        }
        tiles.push((i, j));
        i = j;
    }
    tiles
}

/// Adaptive batch-chunk size for one set: `max(16, live_faults / (threads × 8))`.
///
/// Fixed 64-fault chunks made submit overhead scale with circuit size:
/// a large live list became thousands of tiny jobs per test. Sizing by
/// live-list length keeps roughly eight chunks per worker per test —
/// enough slack to balance uneven work across the campaign's budget, few
/// enough that queue traffic stays cheap — with a floor of 16 so small
/// circuits still fan out. The kernel keeps its configured word width:
/// jobs split oversized chunks into lane-width sub-batches.
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
    /// Which phase gave up ("trace" or "batch").
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

    /// A set of six tests sharing one shape (length + shift schedule) so
    /// tiling has real runs to pack, plus a schedule-breaking straggler.
    fn tileable_set() -> Vec<ScanTest> {
        let shifts = vec![rls_fsim::ShiftOp {
            at: 2,
            amount: 1,
            fill: vec![true],
        }];
        let vecs: [[&str; 4]; 6] = [
            ["0111", "1001", "0111", "1001"],
            ["1011", "0001", "1110", "0101"],
            ["0000", "1111", "0011", "1100"],
            ["1010", "0101", "1010", "0101"],
            ["1101", "0010", "1000", "0111"],
            ["0110", "1001", "0110", "1001"],
        ];
        let mut tests: Vec<ScanTest> = ["001", "110", "010", "101", "011", "100"]
            .iter()
            .zip(vecs.iter())
            .map(|(si, vs)| {
                ScanTest::from_strings(si, vs)
                    .unwrap()
                    .with_shifts(shifts.clone())
                    .unwrap()
            })
            .collect();
        tests.push(ScanTest::from_strings("111", &["1001", "0110"]).unwrap());
        tests
    }

    #[test]
    fn plan_tiles_groups_compatible_runs_up_to_the_cap() {
        let tests = tileable_set();
        assert_eq!(plan_tiles(&tests, 4), vec![(0, 4), (4, 6), (6, 7)]);
        assert_eq!(plan_tiles(&tests, 8), vec![(0, 6), (6, 7)]);
        assert_eq!(
            plan_tiles(&tests, 1),
            (0..7).map(|t| (t, t + 1)).collect::<Vec<_>>(),
            "height one degrades to one tile per test"
        );
        assert_eq!(plan_tiles(&[], 4), Vec::<(usize, usize)>::new());
    }

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
