//! The detectable-fault reference set.
//!
//! The paper's "complete fault coverage" means all *detectable* faults.
//! [`DetectableSet`] classifies every collapsed fault of a circuit with
//! PODEM: detectable (with a witness test), redundant, or aborted.
//! Experiment drivers treat `detectable` as the 100%-coverage target and
//! report aborted faults separately.
//!
//! A fault's verdict depends only on the circuit, the fault and the
//! backtrack limit, so the list is classified on the host's cores by
//! scoped workers that share one [`Podem`], and the verdicts are merged
//! back in input order: every list gets the serial loop's result.

use std::sync::atomic::{AtomicUsize, Ordering};

use rls_netlist::Circuit;

use rls_fsim::{CollapsedFaults, FaultId, FaultUniverse, ScanTest};

use crate::podem::{Effort, Podem, PodemOutcome};

/// Classification of a circuit's collapsed fault list.
#[derive(Debug, Clone, PartialEq, Eq)]
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
    /// Each fault's verdict depends only on the circuit, the fault and
    /// `backtrack_limit`, so the list is classified on the host's
    /// [`available_parallelism`](std::thread::available_parallelism)
    /// workers and merged back in input order: the result never depends
    /// on the width.
    ///
    /// Traced as one `atpg.classify` span (its `workers` field is the
    /// width the pass ran at); the search effort and the verdict counts
    /// are summed over the list and emitted once, as the
    /// `atpg.decisions`, `atpg.backtracks`, `atpg.detected`,
    /// `atpg.redundant` and `atpg.aborted` counters.
    pub fn compute_for(
        circuit: &Circuit,
        universe: &FaultUniverse,
        faults: &[FaultId],
        backtrack_limit: usize,
    ) -> Self {
        let host = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        let width = host.clamp(1, faults.len().max(1));
        let _span = rls_obs::span!(
            "atpg.classify",
            faults = faults.len(),
            backtrack_limit = backtrack_limit,
            workers = width
        );
        let podem = Podem::new(circuit, backtrack_limit);
        let (set, effort) = classify(&podem, universe, faults, width);
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

/// Classifies `faults` on `width` (≥ 1) scoped workers.
///
/// Workers share one `podem` and claim fault indices one at a time from
/// an atomic cursor, so the few faults that search to the backtrack limit
/// do not pile up on one worker. Verdicts and witnesses are put back in
/// input order and the effort is summed, so the result is the serial
/// loop's at every width. A worker panic re-raises here with its payload.
fn classify(
    podem: &Podem,
    universe: &FaultUniverse,
    faults: &[FaultId],
    width: usize,
) -> (DetectableSet, Effort) {
    let cursor = AtomicUsize::new(0);
    let work = || {
        let mut verdicts = Vec::new();
        let mut effort = Effort::default();
        loop {
            // lint: ordering-ok(claim cursor: it only hands out distinct indices, and the verdicts travel back through `join`)
            let k = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(&id) = faults.get(k) else { break };
            let outcome = podem.generate_counted(universe.fault(id), &mut effort);
            verdicts.push((k, id, outcome));
        }
        (verdicts, effort)
    };
    let mut verdicts = Vec::with_capacity(faults.len());
    let mut effort = Effort::default();
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..width).map(|_| s.spawn(work)).collect();
        for worker in workers {
            let (part, spent) = worker
                .join()
                .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
            verdicts.extend(part);
            effort.decisions += spent.decisions;
            effort.backtracks += spent.backtracks;
        }
    });
    verdicts.sort_unstable_by_key(|&(k, _, _)| k);
    let mut set = DetectableSet {
        detectable: Vec::new(),
        redundant: Vec::new(),
        aborted: Vec::new(),
        witnesses: Vec::new(),
    };
    for (_, id, outcome) in verdicts {
        match outcome {
            PodemOutcome::Detected(test) => {
                set.detectable.push(id);
                set.witnesses.push((id, test));
            }
            PodemOutcome::Redundant => set.redundant.push(id),
            PodemOutcome::Aborted => set.aborted.push(id),
        }
    }
    (set, effort)
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

    #[test]
    fn classify_is_the_same_at_every_width() {
        // s953 at a small limit reaches the abort path cheaply.
        let s953 = rls_benchmarks::by_name("s953").expect("registered circuit");
        for (c, limit) in [(rls_benchmarks::s27(), 10_000), (s953, 20)] {
            let universe = FaultUniverse::enumerate(&c);
            let collapsed = CollapsedFaults::build(&c, &universe);
            let podem = Podem::new(&c, limit);
            let faults = collapsed.representatives();
            let (serial, effort) = classify(&podem, &universe, faults, 1);
            assert_eq!(serial.len(), faults.len());
            if c.name() == "s953" {
                assert!(
                    !serial.aborted().is_empty(),
                    "the limit must abort some faults"
                );
            }
            for width in [2, 3, 8] {
                let got = classify(&podem, &universe, faults, width);
                assert_eq!(
                    got,
                    (serial.clone(), effort),
                    "{} at width {width}",
                    c.name()
                );
            }
        }
    }

    #[test]
    fn a_worker_panic_reraises_with_its_payload() {
        let c = rls_benchmarks::s27();
        let universe = FaultUniverse::enumerate(&c);
        let podem = Podem::new(&c, 1000);
        let out_of_range = [FaultId(0), FaultId(universe.len() as u32), FaultId(1)];
        let payload = std::panic::catch_unwind(|| classify(&podem, &universe, &out_of_range, 2))
            .expect_err("an unknown fault id must panic");
        let message = payload
            .downcast_ref::<String>()
            .expect("an index panic carries a formatted message");
        assert!(message.contains("index out of bounds"), "{message}");
    }
}
