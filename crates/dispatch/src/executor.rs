//! The wave protocol shared by every parallel set execution: test
//! blocks, job tags, and the retry budget.
//!
//! # Execution model
//!
//! A *set* is the atomic scheduling unit of the paper's procedures: `TS0`
//! or one derived `TS(I, D1)`. [`crate::SharedSetRunner::try_run_set`]
//! fans a set out as one wave of jobs over the worker pool: one job per
//! contiguous block of tests ([`test_blocks`]), tagged by its block
//! index. A job runs the sequential engine's own tile walk,
//! [`rls_fsim::simulate_block`], over its block against the set-start
//! live list: before each tile it skips the faults any job already
//! published in the set's [`crate::AtomicBitset`], picks the tile's
//! height from the count left, and publishes the tile's detections into
//! the bitset. The SoA kernel carries each test's fault-free machine in a
//! reference lane, so no job waits on a precomputed good trace.
//!
//! # Recovery
//!
//! The jobs run as *waves*: submit, wait for the barrier, drain
//! [`crate::JobFailure`]s, and resubmit exactly the failed tags. Retries
//! are idempotent — the detection bitset is monotone — so a wave may
//! safely re-run work that partially completed.
//! A tag still failing after [`RETRY_ROUNDS`] retry waves aborts the set
//! with [`SetFailure`]. The runner owns no fault list, so nothing has
//! been applied and the caller can replay the whole set on its
//! sequential simulator (see `rls_core::procedure2`'s degrade path).

use std::fmt;

use crate::pool::JobFailure;

/// Retry waves allowed per set before it is declared failed.
pub const RETRY_ROUNDS: usize = 3;

/// Test blocks per unit of campaign budget. A few blocks per budgeted
/// thread balance uneven blocks (early blocks of a set find more live
/// faults than late ones) while keeping queue traffic to a handful of
/// jobs per set.
pub const BLOCKS_PER_BUDGET: usize = 4;

/// Splits a set of `tests` tests into at most
/// `BLOCKS_PER_BUDGET × budget` contiguous, near-equal `(start, end)`
/// blocks in test order — one pool job each, tagged by its index.
///
/// Sized by the campaign's budget, not the pool width, so a campaign's
/// jobs are the same whether it shares the workers or not. An empty set
/// has no blocks.
pub fn test_blocks(tests: usize, budget: usize) -> Vec<(usize, usize)> {
    let blocks = tests.min(BLOCKS_PER_BUDGET * budget.max(1));
    (0..blocks)
        .map(|b| (b * tests / blocks, (b + 1) * tests / blocks))
        .collect()
}

/// A test set that could not be executed on the pool: some tagged job
/// kept panicking through every retry wave.
///
/// Nothing of the set has been applied to the caller's fault list when
/// this is returned, so the caller can replay the set elsewhere
/// (sequentially).
#[derive(Debug)]
pub struct SetFailure {
    /// Which phase gave up (always "batch": a set is one wave of
    /// test-block jobs).
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
    fn test_blocks_partition_the_set_by_budget() {
        assert_eq!(test_blocks(10, 1), vec![(0, 2), (2, 5), (5, 7), (7, 10)]);
        // Never more blocks than tests, never an empty block.
        assert_eq!(test_blocks(3, 4), vec![(0, 1), (1, 2), (2, 3)]);
        assert!(test_blocks(0, 2).is_empty());
        // A degenerate budget is clamped to one thread.
        assert_eq!(test_blocks(128, 0).len(), BLOCKS_PER_BUDGET);
        for (tests, budget) in [(64, 2), (256, 2), (255, 3), (7, 8)] {
            let blocks = test_blocks(tests, budget);
            assert_eq!(blocks.len(), tests.min(BLOCKS_PER_BUDGET * budget));
            assert_eq!(blocks.first().map(|b| b.0), Some(0));
            assert_eq!(blocks.last().map(|b| b.1), Some(tests));
            assert!(blocks.windows(2).all(|w| w[0].1 == w[1].0));
            assert!(blocks.iter().all(|&(lo, hi)| lo < hi));
        }
    }
}
