//! Fault simulation for **partial scan** circuits.
//!
//! The paper's concluding remark: "limited scan can be used to improve the
//! fault coverage for partial scan circuits as well." This module provides
//! the simulation side of that extension:
//!
//! - only the flip-flops in the [`PartialScan`] configuration are stitched
//!   into the chain; a test's `scan_in` covers the *chain*, not the state;
//! - unscanned flip-flops start every test at the reset value `0`
//!   (the standard assumption that a partial-scan design keeps a global
//!   reset) and evolve only through functional clocking;
//! - scan operations — the initial scan-in, mid-test limited scans, the
//!   final scan-out — move and observe chain bits only.
//!
//! Detection points are the partial-scan analogues of the full-scan ones:
//! primary outputs per vector, limited-scan scan-outs, and the final
//! scan-out of the chain. The architecture is a [`ChainMap`], so these
//! tests run through the same kernel and engine as full scan.

use rls_scan::{ChainMap, PartialScan};

use crate::engine::run_tests_on_chains;
use crate::fault::{FaultId, FaultUniverse};
use crate::good::GoodSim;
use crate::test::ScanTest;

/// Simulates a list of partial-scan tests with fault dropping and returns
/// the detected fault ids, in detection order.
///
/// # Panics
///
/// Panics if `ps` does not match the circuit, a test's `scan_in` width
/// differs from the chain length, a shift exceeds the chain, or
/// `universe` is not the circuit's fault universe.
pub fn run_tests_partial(
    sim: &GoodSim<'_>,
    ps: &PartialScan,
    tests: &[ScanTest],
    targets: &[FaultId],
    universe: &FaultUniverse,
) -> Vec<FaultId> {
    run_tests_on_chains(sim, ChainMap::from(ps), tests, targets, universe)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::good::traces_differ;
    use crate::test::ShiftOp;

    #[test]
    fn full_configuration_matches_full_scan_engine() {
        // With every flip-flop scanned, the partial driver must detect
        // exactly what the full-scan engine detects, in order.
        let c = rls_benchmarks::s27();
        let sim = GoodSim::new(&c);
        let universe = FaultUniverse::enumerate(&c);
        let test = ScanTest::from_strings("001", &["0111", "1001", "0111"])
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
        let part = run_tests_partial(&sim, &PartialScan::full(3), &[test], &targets, &universe);
        assert_eq!(part, engine.detected());
    }

    #[test]
    fn driver_matches_the_serial_reference_on_a_partial_chain() {
        // Chain (q3, q1) of a 4-stage shift register: the driver's
        // detections are the faults whose serial chain-aware trace
        // differs, in candidate order.
        let c = rls_benchmarks::parametric::shift_register(4);
        let ps = PartialScan::new(4, vec![3, 1]);
        let sim = GoodSim::new(&c).with_chains(ChainMap::from(&ps));
        let universe = FaultUniverse::enumerate(&c);
        let test = ScanTest::new(vec![true, false], vec![vec![true], vec![false], vec![true]])
            .with_shifts(vec![ShiftOp {
                at: 1,
                amount: 1,
                fill: vec![true],
            }])
            .unwrap();
        let targets: Vec<FaultId> = (0..universe.len() as u32).map(FaultId).collect();
        let good = sim.simulate_test(&test);
        let expect: Vec<FaultId> = targets
            .iter()
            .copied()
            .filter(|&id| traces_differ(&good, &sim.simulate_faulty(&test, universe.fault(id))))
            .collect();
        assert!(!expect.is_empty());
        assert_eq!(
            run_tests_partial(&sim, &ps, &[test], &targets, &universe),
            expect
        );
    }

    #[test]
    fn partial_scan_detects_fewer_or_equal_faults() {
        use rls_lfsr::{RandomSource, XorShift64};
        let c = rls_benchmarks::by_name("b01").unwrap();
        let sim = GoodSim::new(&c);
        let universe = FaultUniverse::enumerate(&c);
        let collapsed = crate::collapse::CollapsedFaults::build(&c, &universe);
        let targets = collapsed.representatives().to_vec();
        let n_sv = c.num_dffs();
        let mut rng = XorShift64::new(42);
        let make_tests = |rng: &mut XorShift64, chain: usize| -> Vec<ScanTest> {
            (0..40)
                .map(|_| {
                    let mut scan_in = vec![false; chain];
                    rng.fill_bits(&mut scan_in);
                    let vectors: Vec<Vec<bool>> = (0..6)
                        .map(|_| {
                            let mut v = vec![false; c.num_inputs()];
                            rng.fill_bits(&mut v);
                            v
                        })
                        .collect();
                    ScanTest::new(scan_in, vectors)
                })
                .collect()
        };
        let full = PartialScan::full(n_sv);
        let det_full = run_tests_partial(
            &sim,
            &full,
            &make_tests(&mut rng, n_sv),
            &targets,
            &universe,
        );
        let mut rng = XorShift64::new(42);
        let half = PartialScan::new(n_sv, (0..n_sv / 2).collect());
        let det_half = run_tests_partial(
            &sim,
            &half,
            &make_tests(&mut rng, n_sv / 2),
            &targets,
            &universe,
        );
        assert!(
            det_half.len() <= det_full.len(),
            "partial {} vs full {}",
            det_half.len(),
            det_full.len()
        );
    }
}
