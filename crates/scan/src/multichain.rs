//! Multiple scan chains.
//!
//! The methods the paper compares against ([5], [6]) use multiple scan
//! chains with a maximum length of 10, so a complete scan operation costs at
//! most 10 cycles. This module provides that architecture as an extension:
//! flip-flops are dealt round-robin into `c` chains, every chain shifts in
//! parallel, and a `k`-position scan affects positions `0..k` of *every*
//! chain while costing only `k` cycles.

use crate::ops;

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

    /// The (chain, position) coordinates of state position `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n_sv`.
    pub fn coords(&self, i: usize) -> (usize, usize) {
        assert!(i < self.n_sv);
        (i % self.chains, i / self.chains)
    }

    /// Performs a `k`-cycle scan shift on all chains of a boolean state
    /// vector simultaneously.
    ///
    /// Returns the observed bits: for each of the `k` cycles, the tail bit
    /// of every chain (chain-major within a cycle). `fill[cycle][chain]`
    /// supplies the head bits.
    ///
    /// # Panics
    ///
    /// Panics if `k` exceeds the longest chain or the fill shape is wrong.
    pub fn limited_scan_bools(
        &self,
        state: &mut [bool],
        k: usize,
        fill: &[Vec<bool>],
    ) -> Vec<bool> {
        assert_eq!(state.len(), self.n_sv, "state length mismatch");
        assert!(k <= self.max_chain_len(), "shift exceeds chain length");
        assert_eq!(fill.len(), k, "need one fill row per cycle");
        // Split state into per-chain vectors.
        let mut per_chain: Vec<Vec<bool>> = vec![Vec::new(); self.chains];
        for (i, &b) in state.iter().enumerate() {
            per_chain[i % self.chains].push(b);
        }
        let mut observed = Vec::new();
        for row in fill.iter() {
            assert_eq!(row.len(), self.chains, "need one fill bit per chain");
            for (chain, bits) in per_chain.iter_mut().enumerate() {
                if bits.is_empty() {
                    continue;
                }
                let out = ops::limited_scan_bools(bits, 1, &[row[chain]]);
                observed.push(out[0]);
            }
        }
        // Reassemble.
        let mut idx = vec![0usize; self.chains];
        for (i, slot) in state.iter_mut().enumerate() {
            let chain = i % self.chains;
            *slot = per_chain[chain][idx[chain]];
            idx[chain] += 1;
        }
        observed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dealing_is_balanced() {
        let mc = MultiChain::new(10, 3);
        assert_eq!(mc.max_chain_len(), 4);
        assert_eq!(mc.coords(0), (0, 0));
        assert_eq!(mc.coords(1), (1, 0));
        assert_eq!(mc.coords(2), (2, 0));
        assert_eq!(mc.coords(3), (0, 1));
        assert_eq!(mc.coords(9), (0, 3));
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
    fn single_chain_limited_scan_matches_ops() {
        let mc = MultiChain::new(5, 1);
        let mut a = vec![true, false, true, true, false];
        let mut b = a.clone();
        let fill_rows = vec![vec![false], vec![true]];
        let out_mc = mc.limited_scan_bools(&mut a, 2, &fill_rows);
        let out_ops = ops::limited_scan_bools(&mut b, 2, &[false, true]);
        assert_eq!(a, b);
        assert_eq!(out_mc, out_ops);
    }

    #[test]
    fn two_chain_scan_shifts_both() {
        // positions: chain0 = {0,2}, chain1 = {1,3}.
        let mc = MultiChain::new(4, 2);
        let mut state = vec![true, false, false, true];
        let observed = mc.limited_scan_bools(&mut state, 1, &[vec![false, false]]);
        // Chain 0: [1,0] -> shift -> [0,1], out 0 (tail was state[2]=false).
        // Chain 1: [0,1] -> shift -> [0,0], out 1 (tail was state[3]=true).
        assert_eq!(observed, vec![false, true]);
        assert_eq!(state, vec![false, false, true, false]);
    }

    #[test]
    #[should_panic(expected = "at least one chain")]
    fn zero_chains_panics() {
        MultiChain::new(4, 0);
    }

    #[test]
    fn empty_circuit() {
        let mc = MultiChain::new(0, 2);
        assert_eq!(mc.max_chain_len(), 0);
        let mut state: Vec<bool> = vec![];
        let out = mc.limited_scan_bools(&mut state, 0, &[]);
        assert!(out.is_empty());
    }
}
