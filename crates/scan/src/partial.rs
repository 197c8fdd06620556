//! Partial scan.
//!
//! The paper's concluding remark: "limited scan can be used to improve the
//! fault coverage for partial scan circuits as well." A [`PartialScan`]
//! names the flip-flops stitched into the one chain; the rest hold their
//! values during scan operations and are neither written by scan-in nor
//! observed by scan-out. [`crate::ChainMap`] turns it into chains.

/// A partial scan configuration over a state vector of `n_sv` flip-flops.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartialScan {
    n_sv: usize,
    /// State positions of the scanned flip-flops, in chain order.
    scanned: Vec<usize>,
}

impl PartialScan {
    /// Creates a configuration scanning the given state positions (chain
    /// order = the order given).
    ///
    /// # Panics
    ///
    /// Panics if a position repeats or is out of range.
    pub fn new(n_sv: usize, scanned: Vec<usize>) -> Self {
        let mut seen = vec![false; n_sv];
        for &p in &scanned {
            assert!(p < n_sv, "scan position {p} out of range");
            assert!(!seen[p], "duplicate scan position {p}");
            seen[p] = true;
        }
        PartialScan { n_sv, scanned }
    }

    /// A full-scan configuration (every flip-flop scanned, natural order).
    pub fn full(n_sv: usize) -> Self {
        PartialScan {
            n_sv,
            scanned: (0..n_sv).collect(),
        }
    }

    /// Number of flip-flops in the circuit.
    pub fn n_sv(&self) -> usize {
        self.n_sv
    }

    /// Number of scanned flip-flops (the chain length).
    pub fn chain_len(&self) -> usize {
        self.scanned.len()
    }

    /// The scanned state positions in chain order.
    pub fn scanned(&self) -> &[usize] {
        &self.scanned
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_len_and_order() {
        let ps = PartialScan::new(5, vec![4, 0]);
        assert_eq!(ps.chain_len(), 2);
        assert_eq!(ps.n_sv(), 5);
        assert_eq!(ps.scanned(), &[4, 0]);
        assert_eq!(PartialScan::full(3).scanned(), &[0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_position() {
        PartialScan::new(3, vec![3]);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn rejects_duplicate_position() {
        PartialScan::new(3, vec![1, 1]);
    }
}
