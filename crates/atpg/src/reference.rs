//! The detectable-fault reference set.
//!
//! The paper's "complete fault coverage" means all *detectable* faults.
//! [`DetectableSet`] classifies every collapsed fault of a circuit with
//! PODEM: detectable (with a witness test), redundant, or aborted.
//! Experiment drivers treat `detectable` as the 100%-coverage target and
//! report aborted faults separately.

use rls_netlist::Circuit;

use rls_fsim::{CollapsedFaults, FaultId, FaultUniverse, ScanTest};

use crate::podem::{Effort, Podem, PodemOutcome};

/// Classification of a circuit's collapsed fault list.
#[derive(Debug, Clone)]
pub struct DetectableSet {
    detectable: Vec<FaultId>,
    redundant: Vec<FaultId>,
    aborted: Vec<FaultId>,
    witnesses: Vec<(FaultId, ScanTest)>,
}

impl DetectableSet {
    /// Classifies all collapsed faults of `circuit`.
    ///
    /// `backtrack_limit` bounds the effort per fault; exceeded limits land
    /// in [`DetectableSet::aborted`].
    pub fn compute(circuit: &Circuit, backtrack_limit: usize) -> Self {
        let universe = FaultUniverse::enumerate(circuit);
        let collapsed = CollapsedFaults::build(circuit, &universe);
        Self::compute_for(
            circuit,
            &universe,
            collapsed.representatives(),
            backtrack_limit,
        )
    }

    /// Classifies a specific fault list.
    ///
    /// Traced as one `atpg.classify` span; the search effort and the
    /// verdict counts are summed over the list and emitted once, as the
    /// `atpg.decisions`, `atpg.backtracks`, `atpg.detected`,
    /// `atpg.redundant` and `atpg.aborted` counters.
    pub fn compute_for(
        circuit: &Circuit,
        universe: &FaultUniverse,
        faults: &[FaultId],
        backtrack_limit: usize,
    ) -> Self {
        let _span = rls_obs::span!(
            "atpg.classify",
            faults = faults.len(),
            backtrack_limit = backtrack_limit
        );
        let podem = Podem::new(circuit, backtrack_limit);
        let mut effort = Effort::default();
        let mut set = DetectableSet {
            detectable: Vec::new(),
            redundant: Vec::new(),
            aborted: Vec::new(),
            witnesses: Vec::new(),
        };
        for &id in faults {
            match podem.generate_counted(universe.fault(id), &mut effort) {
                PodemOutcome::Detected(test) => {
                    set.detectable.push(id);
                    set.witnesses.push((id, test));
                }
                PodemOutcome::Redundant => set.redundant.push(id),
                PodemOutcome::Aborted => set.aborted.push(id),
            }
        }
        rls_obs::counter!("atpg.decisions", effort.decisions);
        rls_obs::counter!("atpg.backtracks", effort.backtracks);
        rls_obs::counter!("atpg.detected", set.detectable.len() as u64);
        rls_obs::counter!("atpg.redundant", set.redundant.len() as u64);
        rls_obs::counter!("atpg.aborted", set.aborted.len() as u64);
        set
    }

    /// Faults proven detectable (the coverage target).
    pub fn detectable(&self) -> &[FaultId] {
        &self.detectable
    }

    /// Faults proven combinationally undetectable.
    pub fn redundant(&self) -> &[FaultId] {
        &self.redundant
    }

    /// Faults whose classification exceeded the backtrack limit.
    pub fn aborted(&self) -> &[FaultId] {
        &self.aborted
    }

    /// Witness tests, one per detectable fault.
    pub fn witnesses(&self) -> &[(FaultId, ScanTest)] {
        &self.witnesses
    }

    /// Total classified faults.
    pub fn len(&self) -> usize {
        self.detectable.len() + self.redundant.len() + self.aborted.len()
    }

    /// Whether no faults were classified.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rls_fsim::FaultSimulator;

    #[test]
    fn s27_all_detectable() {
        let c = rls_benchmarks::s27();
        let set = DetectableSet::compute(&c, 10_000);
        assert_eq!(set.len(), 32);
        assert_eq!(set.detectable().len(), 32);
        assert!(set.redundant().is_empty());
        assert!(set.aborted().is_empty());
        assert_eq!(set.witnesses().len(), 32);
    }

    #[test]
    fn witnesses_detect_their_faults_via_simulation() {
        let c = rls_benchmarks::parametric::counter(4);
        let set = DetectableSet::compute(&c, 10_000);
        assert!(set.aborted().is_empty());
        let mut sim = FaultSimulator::new(&c);
        for (id, test) in set.witnesses() {
            sim.set_targets(&[*id]);
            assert_eq!(sim.run_test(test), vec![*id]);
        }
    }

    #[test]
    fn redundant_faults_survive_a_random_campaign() {
        // Cross-validate PODEM's redundancy proofs against brute-force
        // simulation: faults proven redundant are never detected by many
        // random single-vector tests.
        use rls_lfsr::{RandomSource, XorShift64};
        let mut c = Circuit::new("absorb");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g = c.add_gate("g", rls_netlist::GateKind::And, vec![a, b]);
        let y = c.add_gate("y", rls_netlist::GateKind::Or, vec![a, g]);
        c.add_output(y);
        let set = DetectableSet::compute(&c, 10_000);
        assert!(!set.redundant().is_empty());
        let mut sim = FaultSimulator::new(&c);
        sim.set_targets(set.redundant());
        let mut rng = XorShift64::new(11);
        for _ in 0..50 {
            let vec: Vec<bool> = (0..2).map(|_| rng.next_bit()).collect();
            let t = ScanTest::new(vec![], vec![vec]);
            assert!(sim.run_test(&t).is_empty());
        }
    }

    #[test]
    fn compute_for_subsets() {
        let c = rls_benchmarks::s27();
        let universe = FaultUniverse::enumerate(&c);
        let collapsed = CollapsedFaults::build(&c, &universe);
        let subset = &collapsed.representatives()[..4];
        let set = DetectableSet::compute_for(&c, &universe, subset, 1000);
        assert_eq!(set.len(), 4);
    }
}
