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
//!
//! The load, shift and observe operations are generic over the state
//! cell: a `bool` is one machine, a `u64` lane word is 64 machines that
//! shift in lockstep.

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
/// let out = map.limited_scan(&mut state, 1, &[false, false]);
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
    /// `load()[i]`, every other flip-flop holds its reset value
    /// (`T::default()`).
    ///
    /// # Panics
    ///
    /// Panics if `scan_in` does not have one cell per loaded position.
    pub fn load_state<T: Copy + Default>(&self, scan_in: &[T]) -> Vec<T> {
        assert_eq!(scan_in.len(), self.load.len(), "scan-in width mismatch");
        let mut state = vec![T::default(); self.n_sv];
        for (&pos, &cell) in self.load.iter().zip(scan_in) {
            state[pos] = cell; // lint: panic-ok(constructors keep every position below n_sv)
        }
        state
    }

    /// A limited scan of `k` cycles on every chain at once.
    ///
    /// Returns the observed cells: per cycle, the tail cell of every
    /// non-empty chain in chain order. `fill[cycle * chains + chain]`
    /// enters that chain's head on that cycle.
    ///
    /// # Panics
    ///
    /// Panics if `state.len() != n_sv()`, `k > max_chain_len()`, or
    /// `fill.len() != k * chains().len()`.
    pub fn limited_scan<T: Copy>(&self, state: &mut [T], k: usize, fill: &[T]) -> Vec<T> {
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

    /// The cells the concluding scan-out reads from `state`.
    pub fn observe_state<T: Copy>(&self, state: &[T]) -> Vec<T> {
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

    /// The reference: one scalar chain shifted one cycle per fill bit —
    /// the fill enters the head and the tail falls out.
    fn shift_one_chain(chain: &mut Vec<bool>, fill: &[bool]) -> Vec<bool> {
        fill.iter()
            .map(|&f| {
                chain.insert(0, f);
                chain.pop().expect("a non-empty chain")
            })
            .collect()
    }

    /// [`ChainMap::limited_scan`] rebuilt from [`shift_one_chain`]: each
    /// non-empty chain is cut out of the state, shifted with its own
    /// column of the cycle-major fill and written back; the scan-outs are
    /// interleaved cycle-major in chain order.
    fn reference_scan(map: &ChainMap, state: &mut [bool], k: usize, fill: &[bool]) -> Vec<bool> {
        let n = map.chains().len();
        let mut outs = Vec::new();
        for (c, chain) in map.chains().iter().enumerate() {
            if chain.is_empty() {
                continue;
            }
            let mut cells: Vec<bool> = chain.iter().map(|&p| state[p]).collect();
            let column: Vec<bool> = (0..k).map(|cycle| fill[cycle * n + c]).collect();
            outs.push(shift_one_chain(&mut cells, &column));
            for (&p, &b) in chain.iter().zip(&cells) {
                state[p] = b;
            }
        }
        (0..k)
            .flat_map(|cycle| outs.iter().map(move |o| o[cycle]))
            .collect()
    }

    /// Full scan on `n` flip-flops, two partial chains (every third
    /// position, every position in reverse) and one to five round-robin
    /// chains.
    fn shapes(n: usize) -> Vec<ChainMap> {
        let mut maps = vec![ChainMap::full(n)];
        for scanned in [(0..n).step_by(3).collect(), (0..n).rev().collect()] {
            maps.push(ChainMap::from(&PartialScan::new(n, scanned)));
        }
        maps.extend((1..6).map(|chains| ChainMap::from(&MultiChain::new(n, chains))));
        maps
    }

    #[test]
    fn shifts_equal_the_scalar_chain_reference() {
        let mut seed = 0x9e37_79b9_7f4a_7c15;
        for n in 0..12 {
            for map in shapes(n) {
                for k in 0..=map.max_chain_len() {
                    let mut a = bits(&mut seed, map.n_sv());
                    let mut b = a.clone();
                    let fill = bits(&mut seed, k * map.chains().len());
                    let out = map.limited_scan(&mut a, k, &fill);
                    assert_eq!(out, reference_scan(&map, &mut b, k, &fill), "{map:?} k {k}");
                    assert_eq!(a, b, "{map:?} k {k}");
                }
            }
        }
    }

    #[test]
    fn max_chain_len_matches_the_descriptors() {
        // Procedure 2 costs shifts with the map's length, the extension
        // tables with the descriptors' own: they must agree.
        for n in 0..12 {
            assert_eq!(ChainMap::full(n).max_chain_len(), n);
            let ps = PartialScan::new(n, (0..n).step_by(3).collect());
            assert_eq!(ChainMap::from(&ps).max_chain_len(), ps.chain_len());
            for chains in 1..6 {
                let mc = MultiChain::new(n, chains);
                assert_eq!(ChainMap::from(&mc).max_chain_len(), mc.max_chain_len());
                assert_eq!(mc.full_scan_cycles(), mc.max_chain_len() as u64);
            }
        }
    }

    #[test]
    fn words_match_bools_lanewise() {
        // A u64 shift is 64 independent machines shifting in lockstep.
        let mut seed = 0x2545_f491_4f6c_dd1d;
        let word = |seed: &mut u64| {
            bits(seed, 64)
                .iter()
                .enumerate()
                .fold(0u64, |w, (lane, &b)| w | u64::from(b) << lane)
        };
        for n in 0..9 {
            for map in shapes(n) {
                for k in 0..=map.max_chain_len() {
                    let mut words: Vec<u64> = (0..n).map(|_| word(&mut seed)).collect();
                    let fill: Vec<u64> = (0..k * map.chains().len())
                        .map(|_| word(&mut seed))
                        .collect();
                    let before = words.clone();
                    let out = map.limited_scan(&mut words, k, &fill);
                    let lane = |ws: &[u64], l: usize| -> Vec<bool> {
                        ws.iter().map(|&w| w >> l & 1 == 1).collect()
                    };
                    for l in 0..64 {
                        let mut expect = lane(&before, l);
                        let expect_out = reference_scan(&map, &mut expect, k, &lane(&fill, l));
                        assert_eq!(lane(&words, l), expect, "{map:?} k {k} lane {l}");
                        assert_eq!(lane(&out, l), expect_out, "{map:?} k {k} lane {l}");
                    }
                }
            }
        }
    }

    #[test]
    fn load_and_observe_follow_the_chain() {
        let b = |s: &str| -> Vec<bool> { s.chars().map(|c| c == '1').collect() };
        let map = ChainMap::from(&PartialScan::new(4, vec![3, 1]));
        assert_eq!(map.load_state(&b("11")), b("0101"));
        assert_eq!(map.observe_state(&b("1011")), b("10"));
        let full = ChainMap::full(3);
        assert_eq!(full.load_state(&b("101")), b("101"));
        assert_eq!(full.load_state(&[5u64, 0, 7]), vec![5, 0, 7]);
        assert_eq!(full.observe(), &[0, 1, 2]);
        let mc = ChainMap::from(&MultiChain::new(5, 2));
        assert_eq!(mc.chains(), &[vec![0, 2, 4], vec![1, 3]]);
        assert_eq!(mc.load().len(), 5);
    }

    #[test]
    #[should_panic(expected = "more than the chain length")]
    fn overshift_panics() {
        let map = ChainMap::from(&PartialScan::new(4, vec![0, 2]));
        map.limited_scan(&mut [false; 4], 3, &[false; 3]);
    }

    #[test]
    #[should_panic(expected = "one fill bit per chain")]
    fn fill_must_cover_every_chain() {
        let map = ChainMap::from(&MultiChain::new(4, 2));
        map.limited_scan(&mut [false; 4], 1, &[false]);
    }
}
