//! End-to-end BIST sessions: controller + circuit + MISR.
//!
//! [`run_session`] plays a whole controller session against a circuit the
//! way the chip would see it: every test's responses (primary outputs each
//! vector cycle, bits scanned out during limited scans, the final
//! scan-out) are compacted into a MISR, producing the golden signature a
//! manufacturing test would compare against; the same tests are fault
//! simulated to report what the session detects.

use rls_fsim::{FaultSimulator, GoodSim};
use rls_netlist::Circuit;

use crate::controller::BistController;
use crate::misr::Misr;

/// The outcome of an end-to-end session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionReport {
    /// The fault-free (golden) signature.
    pub golden_signature: u64,
    /// Total clock cycles (from the controller's event stream).
    pub cycles: u64,
    /// Tests applied per set (`TS0` first).
    pub tests_per_set: Vec<usize>,
    /// Collapsed faults detected by the whole session.
    pub detected_faults: usize,
    /// Total collapsed faults.
    pub total_faults: usize,
}

/// Runs a full session.
///
/// `misr_width` sizes the signature register (2–64).
///
/// # Panics
///
/// Panics if the controller's dimensions do not match the circuit or the
/// MISR width is unsupported.
pub fn run_session(
    circuit: &Circuit,
    controller: &BistController,
    misr_width: u32,
) -> SessionReport {
    assert_eq!(
        controller.config().n_sv,
        circuit.num_dffs(),
        "controller/scan-chain mismatch"
    );
    assert_eq!(
        controller.config().n_pi,
        circuit.num_inputs(),
        "controller/input mismatch"
    );
    let summary = controller.run(|_| {});
    let sets = controller.collect_tests();
    let good = GoodSim::new(circuit);
    let mut misr = Misr::new(misr_width).expect("supported MISR width");
    let chunk = misr_width as usize;
    let feed = |bits: &[bool], misr: &mut Misr| {
        for part in bits.chunks(chunk) {
            misr.shift_bits(part);
        }
    };
    let mut sim = FaultSimulator::new(circuit);
    for set in &sets {
        for test in set {
            let trace = good.simulate_test(test);
            for outputs in &trace.outputs {
                feed(outputs, &mut misr);
            }
            for (_, scanned) in &trace.scan_outs {
                feed(scanned, &mut misr);
            }
            feed(trace.final_state(), &mut misr);
            sim.run_test(test);
        }
    }
    SessionReport {
        golden_signature: misr.signature(),
        cycles: summary.cycles,
        tests_per_set: sets.iter().map(Vec::len).collect(),
        detected_faults: sim.detected_count(),
        total_faults: sim.total_faults(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::ControllerConfig;
    use rls_lfsr::SeedSequence;

    fn controller(c: &Circuit, pairs: Vec<(u64, u32)>) -> BistController {
        BistController::new(ControllerConfig {
            n_sv: c.num_dffs(),
            n_pi: c.num_inputs(),
            la: 4,
            lb: 8,
            n: 16,
            pairs,
            d2: c.num_dffs() as u32 + 1,
            seeds: SeedSequence::default(),
        })
    }

    #[test]
    fn session_is_deterministic() {
        let c = rls_benchmarks::s27();
        let ctl = controller(&c, vec![(1, 1)]);
        let a = run_session(&c, &ctl, 16);
        let b = run_session(&c, &ctl, 16);
        assert_eq!(a, b);
    }

    #[test]
    fn pairs_increase_detection_and_cycles() {
        let c = rls_benchmarks::s27();
        let plain = run_session(&c, &controller(&c, vec![]), 16);
        let with_pairs = run_session(&c, &controller(&c, vec![(1, 1), (2, 2)]), 16);
        assert!(with_pairs.cycles > plain.cycles);
        assert!(with_pairs.detected_faults >= plain.detected_faults);
        assert_eq!(plain.tests_per_set, vec![32]);
        assert_eq!(with_pairs.tests_per_set, vec![32, 32, 32]);
    }

    #[test]
    fn signature_depends_on_the_pair_list() {
        let c = rls_benchmarks::s27();
        let a = run_session(&c, &controller(&c, vec![(1, 1)]), 32);
        let b = run_session(&c, &controller(&c, vec![(2, 1)]), 32);
        assert_ne!(a.golden_signature, b.golden_signature);
    }

    #[test]
    #[should_panic(expected = "scan-chain mismatch")]
    fn wrong_circuit_rejected() {
        let c = rls_benchmarks::s27();
        let other = rls_benchmarks::parametric::counter(5);
        let ctl = controller(&c, vec![]);
        run_session(&other, &ctl, 16);
    }
}
