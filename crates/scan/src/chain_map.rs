//! Scan chains as data.
//!
//! A [`ChainMap`] says how a test's scan operations reach the state
//! vector: the scan chains as lists of state positions (head → tail), the
//! positions the initial scan-in loads, and the positions the concluding
//! scan-out reads. Full scan, [`PartialScan`] and [`MultiChain`] are three
//! constructors of the same description, so a simulator that reads the
//! map runs all three scan styles through one code path.
//!
//! A limited scan of `k` cycles moves every chain one position per cycle:
//! each non-empty chain's tail bit is scanned out and observed, and its
//! head takes a fill bit. The fill is `k × chains` bits, cycle-major
//! (`fill[cycle * chains + chain]`); with one chain that is the paper's
//! one bit per shift cycle.

use crate::{MultiChain, PartialScan};

/// The scan chains of a circuit's state vector, as state positions.
///
/// # Example
///
/// ```
/// use rls_scan::{ChainMap, MultiChain};
///
/// // Two chains over four flip-flops: {0, 2} and {1, 3}.
/// let map = ChainMap::from(&MultiChain::new(4, 2));
/// let mut state = vec![true, false, false, true];
/// let out = map.limited_scan_bools(&mut state, 1, &[false, false]);
/// assert_eq!(out, vec![false, true]); // the two tails, chain order
/// assert_eq!(state, vec![false, false, true, false]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainMap {
    n_sv: usize,
    /// State positions of each chain, head first. The list is never
    /// empty, but a chain may be (more chains than flip-flops).
    chains: Vec<Vec<usize>>,
    /// `scan_in[i]` loads state position `load[i]`; every other
    /// flip-flop resets to 0.
    load: Vec<usize>,
    /// State positions the concluding scan-out reads, in read order.
    observe: Vec<usize>,
}

impl ChainMap {
    /// Full scan: one chain over every flip-flop in state order. The
    /// scan-in loads and the final scan-out reads the whole state.
    pub fn full(n_sv: usize) -> Self {
        let all: Vec<usize> = (0..n_sv).collect();
        ChainMap {
            n_sv,
            chains: vec![all.clone()],
            load: all.clone(),
            observe: all,
        }
    }

    /// Number of flip-flops in the state vector.
    pub fn n_sv(&self) -> usize {
        self.n_sv
    }

    /// The chains, each as state positions from head to tail.
    pub fn chains(&self) -> &[Vec<usize>] {
        &self.chains
    }

    /// The state positions the scan-in loads; a test's `scan_in` has one
    /// bit per entry.
    pub fn load(&self) -> &[usize] {
        &self.load
    }

    /// The state positions the concluding scan-out reads.
    pub fn observe(&self) -> &[usize] {
        &self.observe
    }

    /// Length of the longest chain: the largest legal shift.
    pub fn max_chain_len(&self) -> usize {
        self.chains.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// The state after the initial scan-in: `scan_in[i]` lands at
    /// `load()[i]`, every other flip-flop holds its reset value 0.
    ///
    /// # Panics
    ///
    /// Panics if `scan_in` does not have one bit per loaded position.
    pub fn load_bools(&self, scan_in: &[bool]) -> Vec<bool> {
        assert_eq!(scan_in.len(), self.load.len(), "scan-in width mismatch");
        let mut state = vec![false; self.n_sv];
        for (&pos, &bit) in self.load.iter().zip(scan_in) {
            state[pos] = bit; // lint: panic-ok(constructors keep every position below n_sv)
        }
        state
    }

    /// A limited scan of `k` cycles on every chain at once.
    ///
    /// Returns the observed bits: per cycle, the tail bit of every
    /// non-empty chain in chain order. `fill[cycle * chains + chain]`
    /// enters that chain's head on that cycle.
    ///
    /// # Panics
    ///
    /// Panics if `state.len() != n_sv()`, `k > max_chain_len()`, or
    /// `fill.len() != k * chains().len()`.
    pub fn limited_scan_bools(&self, state: &mut [bool], k: usize, fill: &[bool]) -> Vec<bool> {
        assert_eq!(state.len(), self.n_sv, "state length mismatch");
        assert!(
            k <= self.max_chain_len(),
            "cannot shift by more than the chain length"
        );
        assert_eq!(
            fill.len(),
            k * self.chains.len(),
            "need one fill bit per chain per shift"
        );
        let mut out = Vec::with_capacity(fill.len());
        for row in fill.chunks(self.chains.len()) {
            for (chain, &f) in self.chains.iter().zip(row) {
                let (Some(&head), Some(&tail)) = (chain.first(), chain.last()) else {
                    continue;
                };
                out.push(state[tail]); // lint: panic-ok(constructors keep every position below n_sv)
                for w in (1..chain.len()).rev() {
                    state[chain[w]] = state[chain[w - 1]]; // lint: panic-ok(1 <= w < chain.len(), positions below n_sv)
                }
                state[head] = f; // lint: panic-ok(constructors keep every position below n_sv)
            }
        }
        out
    }

    /// The bits the concluding scan-out reads from `state`.
    pub fn observe_bools(&self, state: &[bool]) -> Vec<bool> {
        self.observe.iter().map(|&p| state[p]).collect() // lint: panic-ok(constructors keep every position below n_sv)
    }
}

impl From<&PartialScan> for ChainMap {
    /// One chain over the scanned flip-flops in chain order; the scan-in
    /// and the final scan-out cover the chain only, and unscanned
    /// flip-flops start every test at reset (0).
    fn from(ps: &PartialScan) -> Self {
        ChainMap {
            n_sv: ps.n_sv(),
            chains: vec![ps.scanned().to_vec()],
            load: ps.scanned().to_vec(),
            observe: ps.scanned().to_vec(),
        }
    }
}

impl From<&MultiChain> for ChainMap {
    /// Chain `c` holds state positions `c, c + k, c + 2k, …` for `k`
    /// chains. Every flip-flop is scanned: the parallel scan-in loads and
    /// the final scan-out reads the whole state.
    fn from(mc: &MultiChain) -> Self {
        let (n_sv, k) = (mc.n_sv(), mc.chains());
        let all: Vec<usize> = (0..n_sv).collect();
        ChainMap {
            n_sv,
            chains: (0..k).map(|c| (c..n_sv).step_by(k).collect()).collect(),
            load: all.clone(),
            observe: all,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;

    /// A tiny deterministic bit source (xorshift).
    fn bits(seed: &mut u64, n: usize) -> Vec<bool> {
        (0..n)
            .map(|_| {
                *seed ^= *seed << 13;
                *seed ^= *seed >> 7;
                *seed ^= *seed << 17;
                *seed & 1 == 1
            })
            .collect()
    }

    /// Shifts `map` and `reference` (the same chains) from random states
    /// by every legal amount and demands equal scan-outs and states.
    fn assert_shifts_agree<F>(map: &ChainMap, seed: &mut u64, reference: F)
    where
        F: Fn(&mut [bool], usize, &[bool]) -> Vec<bool>,
    {
        for k in 0..=map.max_chain_len() {
            let mut a = bits(seed, map.n_sv());
            let mut b = a.clone();
            let fill = bits(seed, k * map.chains().len());
            let out = map.limited_scan_bools(&mut a, k, &fill);
            assert_eq!(out, reference(&mut b, k, &fill), "{map:?} k {k}");
            assert_eq!(a, b, "{map:?} k {k}");
        }
    }

    #[test]
    fn shifts_equal_the_full_partial_and_multichain_shifts() {
        let mut seed = 0x9e37_79b9_7f4a_7c15;
        for n in 0..12 {
            let full = ChainMap::full(n);
            assert_shifts_agree(&full, &mut seed, ops::limited_scan_bools);
            // Every third position, then every position in reverse.
            for scanned in [(0..n).step_by(3).collect(), (0..n).rev().collect()] {
                let ps = PartialScan::new(n, scanned);
                let map = ChainMap::from(&ps);
                assert_shifts_agree(&map, &mut seed, |s, k, f| ps.limited_scan_bools(s, k, f));
            }
            for chains in 1..6 {
                let mc = MultiChain::new(n, chains);
                assert_eq!(ChainMap::from(&mc).max_chain_len(), mc.max_chain_len());
                assert_shifts_agree(&ChainMap::from(&mc), &mut seed, |s, k, f| {
                    let rows: Vec<Vec<bool>> = f.chunks(chains).map(<[bool]>::to_vec).collect();
                    mc.limited_scan_bools(s, k, &rows)
                });
            }
        }
    }

    #[test]
    fn load_and_observe_follow_the_chain() {
        let b = |s: &str| -> Vec<bool> { s.chars().map(|c| c == '1').collect() };
        let map = ChainMap::from(&PartialScan::new(4, vec![3, 1]));
        assert_eq!(map.load_bools(&b("11")), b("0101"));
        assert_eq!(map.observe_bools(&b("1011")), b("10"));
        let full = ChainMap::full(3);
        assert_eq!(full.load_bools(&b("101")), b("101"));
        assert_eq!(full.observe(), &[0, 1, 2]);
        let mc = ChainMap::from(&MultiChain::new(5, 2));
        assert_eq!(mc.chains(), &[vec![0, 2, 4], vec![1, 3]]);
        assert_eq!(mc.load().len(), 5);
    }

    #[test]
    #[should_panic(expected = "more than the chain length")]
    fn overshift_panics() {
        let map = ChainMap::from(&PartialScan::new(4, vec![0, 2]));
        map.limited_scan_bools(&mut [false; 4], 3, &[false; 3]);
    }

    #[test]
    #[should_panic(expected = "one fill bit per chain")]
    fn fill_must_cover_every_chain() {
        let map = ChainMap::from(&MultiChain::new(4, 2));
        map.limited_scan_bools(&mut [false; 4], 1, &[false]);
    }
}
