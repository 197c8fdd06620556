//! A fixed-capacity atomic bitset keyed by [`FaultId`].
//!
//! This is the shared fault-drop state of one test set: every job of the
//! set publishes detections into the same bitset with `fetch_or`, so a
//! fault detected by one worker stops being simulated by every other
//! worker as soon as they next look — fault dropping propagates across
//! threads in the middle of a test set, not just at set barriers.
//!
//! Each set starts from a fresh bitset and bits are only ever set, never
//! cleared, which is what makes the parallel run reducible to a
//! deterministic result: the *set* of bits at a barrier does not depend
//! on the interleaving, only on the jobs that ran.

use std::sync::atomic::{AtomicU64, Ordering};

use rls_fsim::FaultId;

/// A concurrent bitset over fault ids `0..capacity`.
#[derive(Debug)]
pub struct AtomicBitset {
    words: Vec<AtomicU64>,
    capacity: usize,
}

impl AtomicBitset {
    /// Creates a cleared bitset able to hold ids `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        let words = (0..capacity.div_ceil(64))
            .map(|_| AtomicU64::new(0))
            .collect();
        AtomicBitset { words, capacity }
    }

    /// Number of ids the set can hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Sets the bit for `id`; returns `true` if this call newly set it.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of capacity.
    #[inline]
    pub fn set(&self, id: FaultId) -> bool {
        let i = id.index();
        assert!(i < self.capacity, "fault id {i} out of bitset capacity");
        let mask = 1u64 << (i % 64);
        // lint: panic-ok(i / 64 < words.len() follows from the capacity assert above)
        let prev = self.words[i / 64].fetch_or(mask, Ordering::AcqRel);
        prev & mask == 0
    }

    /// Whether the bit for `id` is set.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of capacity.
    #[inline]
    pub fn get(&self, id: FaultId) -> bool {
        let i = id.index();
        assert!(i < self.capacity, "fault id {i} out of bitset capacity");
        // lint: panic-ok(i / 64 < words.len() follows from the capacity assert above)
        self.words[i / 64].load(Ordering::Acquire) & (1u64 << (i % 64)) != 0
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.words
            .iter()
            .map(|w| w.load(Ordering::Acquire).count_ones() as usize) // lint: ordering-ok(each word is one of `words`, published by set's AcqRel fetch_or)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_reports_novelty_once() {
        let b = AtomicBitset::new(130);
        assert!(b.set(FaultId(129)));
        assert!(!b.set(FaultId(129)));
        assert!(b.get(FaultId(129)));
        assert!(!b.get(FaultId(0)));
        assert_eq!(b.count(), 1);
    }

    #[test]
    #[should_panic(expected = "out of bitset capacity")]
    fn out_of_range_panics() {
        AtomicBitset::new(10).set(FaultId(10));
    }

    #[test]
    fn concurrent_sets_count_each_bit_once() {
        let b = std::sync::Arc::new(AtomicBitset::new(1024));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let b = &b;
                s.spawn(move || {
                    for i in 0..1024 {
                        b.set(FaultId(i));
                    }
                });
            }
        });
        assert_eq!(b.count(), 1024);
    }
}
