//! Baseline random BIST schemes the paper compares against.
//!
//! The reference methods (\[5\] Tsai/Cheng/Bhawmik DAC'99 and \[6\]
//! Huang/Pomeranz/Reddy/Rajski ICCAD'00) apply random tests *without*
//! limited scan under a fixed clock-cycle budget (500,000 cycles in their
//! experiments). Two baselines are provided:
//!
//! - [`classic_scan_bist`]: single-vector tests (`L = 1`), the textbook
//!   test-per-scan BIST;
//! - [`two_length_bist`]: the \[6\]-style scheme with test lengths `L_A` and
//!   `L_B` but no limited scan — exactly our `TS0` repeated with fresh
//!   randomness until the budget runs out.
//!
//! Both report the coverage achieved within the budget, giving the
//! comparison row for EXPERIMENTS.md.

use rls_fsim::{Coverage, FaultId, FaultSimulator, ScanTest};
use rls_lfsr::{RandomSource, XorShift64};
use rls_netlist::Circuit;

use crate::config::CoverageTarget;

/// The outcome of a budgeted baseline run.
#[derive(Debug, Clone)]
pub struct BaselineOutcome {
    /// Faults detected within the budget.
    pub detected: usize,
    /// Target size.
    pub target_faults: usize,
    /// Clock cycles actually spent (≤ budget).
    pub cycles_used: u64,
    /// Tests applied.
    pub tests_applied: usize,
}

impl BaselineOutcome {
    /// Coverage over the target.
    pub fn coverage(&self) -> Coverage {
        Coverage::new(self.target_faults, self.detected)
    }
}

fn random_test<R: RandomSource>(circuit: &Circuit, length: usize, rng: &mut R) -> ScanTest {
    let mut scan_in = vec![false; circuit.num_dffs()];
    rng.fill_bits(&mut scan_in);
    let vectors: Vec<Vec<bool>> = (0..length)
        .map(|_| {
            let mut v = vec![false; circuit.num_inputs()];
            rng.fill_bits(&mut v);
            v
        })
        .collect();
    ScanTest::new(scan_in, vectors)
}

fn run_budgeted(
    circuit: &Circuit,
    target: &CoverageTarget,
    budget: u64,
    seed: u64,
    mut next_length: impl FnMut(usize) -> usize,
) -> BaselineOutcome {
    let mut sim = FaultSimulator::new(circuit);
    if let CoverageTarget::Faults(t) = target {
        sim.set_targets(t);
    }
    let target_faults = sim.live_count();
    let n_sv = circuit.num_dffs() as u64;
    let mut rng = XorShift64::new(seed);
    // First test pays two scan ops (scan-in + scan-out); each further test
    // overlaps one boundary.
    let mut cycles_used = 0u64;
    let mut tests_applied = 0usize;
    loop {
        if sim.live_count() == 0 {
            break;
        }
        let length = next_length(tests_applied);
        let boundary = if tests_applied == 0 { 2 * n_sv } else { n_sv };
        let cost = boundary + length as u64;
        if cycles_used + cost > budget {
            break;
        }
        let test = random_test(circuit, length, &mut rng);
        sim.run_test(&test);
        cycles_used += cost;
        tests_applied += 1;
    }
    BaselineOutcome {
        detected: sim.detected_count(),
        target_faults,
        cycles_used,
        tests_applied,
    }
}

/// Classic test-per-scan BIST: every test scans in a random state and
/// applies a single random vector.
pub fn classic_scan_bist(
    circuit: &Circuit,
    target: &CoverageTarget,
    budget: u64,
    seed: u64,
) -> BaselineOutcome {
    run_budgeted(circuit, target, budget, seed, |_| 1)
}

/// Two-length at-speed BIST without limited scan: tests alternate between
/// lengths `la` and `lb` (the \[6\]-style scheme restricted to our cost
/// model).
pub fn two_length_bist(
    circuit: &Circuit,
    target: &CoverageTarget,
    budget: u64,
    la: usize,
    lb: usize,
    seed: u64,
) -> BaselineOutcome {
    run_budgeted(circuit, target, budget, seed, move |i| {
        if i % 2 == 0 {
            la
        } else {
            lb
        }
    })
}

/// Weighted random BIST: the classic fix for random-pattern resistance
/// that the paper's introduction cites as an alternative. Inputs and
/// scan-in bits are drawn with non-uniform one-probabilities, rotating
/// through a small weight set per test so different activation conditions
/// are favoured over time.
///
/// The weight set {1/8, 1/2, 7/8} is the standard 3-weight scheme; each
/// test uses one weight for all its bits.
pub fn weighted_random_bist(
    circuit: &Circuit,
    target: &CoverageTarget,
    budget: u64,
    la: usize,
    lb: usize,
    seed: u64,
) -> BaselineOutcome {
    let mut sim = FaultSimulator::new(circuit);
    if let CoverageTarget::Faults(t) = target {
        sim.set_targets(t);
    }
    let target_faults = sim.live_count();
    let n_sv = circuit.num_dffs() as u64;
    let mut rng = XorShift64::new(seed);
    let weighted_bit = |rng: &mut XorShift64, weight: u32| -> bool {
        // weight in eighths: P(1) = weight / 8.
        rng.draw_mod(8) < weight
    };
    let weights = [1u32, 4, 7];
    let mut cycles_used = 0u64;
    let mut tests_applied = 0usize;
    loop {
        if sim.live_count() == 0 {
            break;
        }
        let length = if tests_applied.is_multiple_of(2) {
            la
        } else {
            lb
        };
        let boundary = if tests_applied == 0 { 2 * n_sv } else { n_sv };
        let cost = boundary + length as u64;
        if cycles_used + cost > budget {
            break;
        }
        let w = weights[tests_applied % weights.len()];
        let scan_in: Vec<bool> = (0..circuit.num_dffs())
            .map(|_| weighted_bit(&mut rng, w))
            .collect();
        let vectors: Vec<Vec<bool>> = (0..length)
            .map(|_| {
                (0..circuit.num_inputs())
                    .map(|_| weighted_bit(&mut rng, w))
                    .collect()
            })
            .collect();
        sim.run_test(&ScanTest::new(scan_in, vectors));
        cycles_used += cost;
        tests_applied += 1;
    }
    BaselineOutcome {
        detected: sim.detected_count(),
        target_faults,
        cycles_used,
        tests_applied,
    }
}

/// Returns the live faults a baseline leaves undetected (for overlap
/// analysis against the limited-scan method).
pub fn undetected_after_baseline(
    circuit: &Circuit,
    target: &CoverageTarget,
    budget: u64,
    seed: u64,
    la: usize,
    lb: usize,
) -> Vec<FaultId> {
    let mut sim = FaultSimulator::new(circuit);
    if let CoverageTarget::Faults(t) = target {
        sim.set_targets(t);
    }
    let mut rng = XorShift64::new(seed);
    let n_sv = circuit.num_dffs() as u64;
    let mut cycles = 0u64;
    let mut i = 0usize;
    loop {
        if sim.live_count() == 0 {
            break;
        }
        let length = if i.is_multiple_of(2) { la } else { lb };
        let boundary = if i == 0 { 2 * n_sv } else { n_sv };
        if cycles + boundary + length as u64 > budget {
            break;
        }
        let test = random_test(circuit, length, &mut rng);
        sim.run_test(&test);
        cycles += boundary + length as u64;
        i += 1;
    }
    sim.live().to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_is_respected() {
        let c = rls_benchmarks::s27();
        let out = classic_scan_bist(&c, &CoverageTarget::AllCollapsed, 500, 1);
        assert!(out.cycles_used <= 500);
        assert!(out.tests_applied > 0);
    }

    #[test]
    fn larger_budget_never_hurts() {
        let c = rls_benchmarks::s27();
        let small = classic_scan_bist(&c, &CoverageTarget::AllCollapsed, 100, 1);
        let large = classic_scan_bist(&c, &CoverageTarget::AllCollapsed, 5000, 1);
        assert!(large.detected >= small.detected);
    }

    #[test]
    fn two_length_applies_both_lengths() {
        let c = rls_benchmarks::s27();
        let out = two_length_bist(&c, &CoverageTarget::AllCollapsed, 2000, 4, 8, 7);
        assert!(out.tests_applied >= 2);
        // Cost accounting: (2N_SV for the first) + N_SV each after, plus
        // vector cycles — all within budget.
        assert!(out.cycles_used <= 2000);
    }

    #[test]
    fn s27_baseline_reaches_high_coverage_with_generous_budget() {
        let c = rls_benchmarks::s27();
        let out = classic_scan_bist(&c, &CoverageTarget::AllCollapsed, 50_000, 3);
        // s27 is tiny; random single-vector tests cover it completely.
        assert!(out.coverage().is_complete(), "{}", out.coverage());
    }

    #[test]
    fn weighted_baseline_respects_budget_and_detects() {
        let c = rls_benchmarks::s27();
        let out = weighted_random_bist(&c, &CoverageTarget::AllCollapsed, 20_000, 4, 8, 5);
        assert!(out.cycles_used <= 20_000);
        assert!(out.detected > 0);
    }

    #[test]
    fn weighted_can_beat_uniform_on_resistant_logic() {
        // Not asserted as a strict win (it depends on the circuit), but
        // the weighted scheme must at least be in the same league.
        let c = rls_benchmarks::by_name("s208").unwrap();
        let budget = 30_000;
        let uniform = two_length_bist(&c, &CoverageTarget::AllCollapsed, budget, 8, 16, 5);
        let weighted = weighted_random_bist(&c, &CoverageTarget::AllCollapsed, budget, 8, 16, 5);
        let lo = uniform.detected * 8 / 10;
        assert!(
            weighted.detected >= lo,
            "weighted {} vs uniform {}",
            weighted.detected,
            uniform.detected
        );
    }

    #[test]
    fn undetected_list_matches_counts() {
        let c = rls_benchmarks::s27();
        let budget = 300;
        let out = two_length_bist(&c, &CoverageTarget::AllCollapsed, budget, 4, 8, 9);
        let undetected =
            undetected_after_baseline(&c, &CoverageTarget::AllCollapsed, budget, 9, 4, 8);
        assert_eq!(undetected.len(), out.target_faults - out.detected);
    }
}
