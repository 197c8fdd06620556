//! Multiple scan chains.
//!
//! The methods the paper compares against ([5], [6]) use multiple scan
//! chains with a maximum length of 10, so a complete scan operation costs at
//! most 10 cycles. A [`MultiChain`] describes that architecture: flip-flops
//! are dealt round-robin into `c` chains, every chain shifts in parallel,
//! and a `k`-position scan affects positions `0..k` of *every* chain while
//! costing only `k` cycles. [`crate::ChainMap`] turns it into chains.

/// A multiple-scan-chain configuration over a state vector of `n_sv`
/// flip-flops.
///
/// Flip-flop at state position `i` belongs to chain `i % chains` at chain
/// position `i / chains` — the classic balanced dealing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MultiChain {
    n_sv: usize,
    chains: usize,
}

impl MultiChain {
    /// Creates a configuration with the given number of chains.
    ///
    /// # Panics
    ///
    /// Panics if `chains == 0`.
    pub fn new(n_sv: usize, chains: usize) -> Self {
        assert!(chains > 0, "need at least one chain");
        MultiChain { n_sv, chains }
    }

    /// Creates a configuration with as many chains as needed so no chain is
    /// longer than `max_len` (the [5]/[6] setting is `max_len = 10`).
    ///
    /// # Panics
    ///
    /// Panics if `max_len == 0`.
    pub fn with_max_length(n_sv: usize, max_len: usize) -> Self {
        assert!(max_len > 0, "chain length bound must be positive");
        let chains = n_sv.div_ceil(max_len).max(1);
        MultiChain { n_sv, chains }
    }

    /// Number of chains.
    pub fn chains(&self) -> usize {
        self.chains
    }

    /// Number of flip-flops covered.
    pub fn n_sv(&self) -> usize {
        self.n_sv
    }

    /// Length of the longest chain.
    pub fn max_chain_len(&self) -> usize {
        self.n_sv.div_ceil(self.chains)
    }

    /// Cycles for a complete scan operation (`max_chain_len`).
    pub fn full_scan_cycles(&self) -> u64 {
        self.max_chain_len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dealing_is_balanced() {
        let mc = MultiChain::new(10, 3);
        assert_eq!(mc.max_chain_len(), 4);
        assert_eq!(MultiChain::new(0, 2).max_chain_len(), 0);
    }

    #[test]
    fn with_max_length_matches_reference_setting() {
        // [5]/[6]: chains of length at most 10.
        let mc = MultiChain::with_max_length(74, 10);
        assert_eq!(mc.chains(), 8);
        assert!(mc.max_chain_len() <= 10);
        assert_eq!(mc.full_scan_cycles(), 10);
    }

    #[test]
    fn full_scan_cheaper_than_single_chain() {
        let single = MultiChain::new(100, 1);
        let multi = MultiChain::with_max_length(100, 10);
        assert_eq!(single.full_scan_cycles(), 100);
        assert_eq!(multi.full_scan_cycles(), 10);
    }

    #[test]
    #[should_panic(expected = "at least one chain")]
    fn zero_chains_panics() {
        MultiChain::new(4, 0);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_max_length_panics() {
        MultiChain::with_max_length(4, 0);
    }
}
