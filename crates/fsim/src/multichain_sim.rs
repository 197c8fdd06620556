//! Fault simulation for **multiple scan chain** architectures.
//!
//! The reference methods the paper compares against ([5], [6]) use multiple
//! scan chains with a maximum length of 10, making complete scan operations
//! almost free. This module combines that architecture with the paper's
//! limited scans: a `k`-cycle limited scan shifts *every* chain by `k`
//! positions, scanning `k` bits out of each chain tail and `k` fresh bits
//! into each head — `k · chains` bits of extra observation and
//! controllability for `k` clock cycles.
//!
//! A multichain test is a [`ScanTest`] whose `scan_in` covers the whole
//! state (the parallel load costs only `max_chain_len` cycles) and whose
//! shifts carry `amount × chains` fill bits, cycle-major
//! (`fill[cycle * chains + chain]`). [`ScanTest::with_shifts`] accepts
//! any whole number of fill bits per cycle; the kernel, which knows the
//! chain count, checks the exact width. The architecture is a
//! [`ChainMap`], so these tests run through the same kernel and engine as
//! full scan.

use rls_scan::{ChainMap, MultiChain};

use crate::engine::run_tests_on_chains;
use crate::fault::{FaultId, FaultUniverse};
use crate::good::GoodSim;
use crate::test::ScanTest;

/// A test for a multichain architecture (see the module docs for the
/// fill layout).
pub type McScanTest = ScanTest;

/// Simulates multichain tests with fault dropping; returns the detected
/// faults in detection order.
///
/// # Panics
///
/// Panics if `mc` does not match the circuit, on width mismatches or
/// invalid shifts, or if `universe` is not the circuit's fault universe.
pub fn run_tests_multichain(
    sim: &GoodSim<'_>,
    mc: &MultiChain,
    tests: &[McScanTest],
    targets: &[FaultId],
    universe: &FaultUniverse,
) -> Vec<FaultId> {
    run_tests_on_chains(sim, ChainMap::from(mc), tests, targets, universe)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test::ShiftOp;

    #[test]
    fn single_chain_matches_standard_engine() {
        // A one-chain multichain configuration is exactly the standard
        // full-scan architecture: both drivers detect the same faults in
        // the same order.
        let c = rls_benchmarks::s27();
        let sim = GoodSim::new(&c);
        let universe = FaultUniverse::enumerate(&c);
        let test = ScanTest::from_strings("011", &["0111", "1001", "0100"])
            .unwrap()
            .with_shifts(vec![ShiftOp {
                at: 1,
                amount: 2,
                fill: vec![true, false],
            }])
            .unwrap();
        let mut engine = crate::FaultSimulator::new(&c);
        engine.run_test(&test);
        let targets = engine.collapsed().representatives().to_vec();
        let mc = MultiChain::new(3, 1);
        let det = run_tests_multichain(&sim, &mc, &[test], &targets, &universe);
        assert_eq!(det, engine.detected());
    }

    #[test]
    fn multichain_shift_observes_more_bits_per_cycle() {
        let c = rls_benchmarks::by_name("b03").unwrap(); // 30 flip-flops
        let mc = MultiChain::with_max_length(30, 10); // 3 chains
        let sim = GoodSim::new(&c).with_chains(ChainMap::from(&mc));
        let test = McScanTest {
            scan_in: vec![false; 30].into(),
            vectors: vec![vec![false; 4]; 3].into(),
            shifts: vec![ShiftOp {
                at: 1,
                amount: 2,
                fill: vec![false; 6],
            }]
            .into(),
        };
        let trace = sim.simulate_test(&test);
        // 2 cycles × 3 chains = 6 observed bits for 2 clock cycles.
        assert_eq!(trace.scan_outs[0].1.len(), 6);
    }

    #[test]
    fn dropping_driver_detects() {
        let c = rls_benchmarks::s27();
        let sim = GoodSim::new(&c);
        let mc = MultiChain::new(3, 2);
        let universe = FaultUniverse::enumerate(&c);
        let collapsed = crate::collapse::CollapsedFaults::build(&c, &universe);
        let tests: Vec<McScanTest> = (0..8)
            .map(|k| {
                McScanTest::new(
                    vec![k % 2 == 0, k % 3 == 0, k % 5 == 0],
                    (0..4)
                        .map(|v| vec![v % 2 == 0, k % 2 == 1, true, false])
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        let det = run_tests_multichain(&sim, &mc, &tests, collapsed.representatives(), &universe);
        assert!(!det.is_empty());
    }
}
