//! The fault-simulation driver: collapsed fault list, fault dropping, and
//! the grouping of consecutive tests into SoA tiles, each as tall as the
//! live fault count makes worthwhile.

use rls_netlist::{Circuit, LevelizedCircuit};
use rls_scan::{ChainMap, LaneWord};

use crate::collapse::CollapsedFaults;
use crate::coverage::Coverage;
use crate::fault::{Fault, FaultId, FaultUniverse};
use crate::good::GoodSim;
use crate::soa::{
    compatible_run, fill_height, simulate_tile_lanes, tile_fault_capacity, KernelWord, SimOptions,
};
use crate::test::ScanTest;

/// Cumulative kernel-lane accounting of one simulator.
///
/// Unlike the `fsim.lanes_*` obs counters (emitted only when the obs
/// layer is enabled), these totals are maintained unconditionally, so an
/// out-of-band consumer — e.g. the dispatch degrade path, which replays
/// sets on a sequential simulator after the pool gives up — can report
/// exact lane utilization for work the worker counters never saw.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneStats {
    /// Kernel invocations.
    pub batches: u64,
    /// Fault lanes summed over those batches (the SoA kernel's
    /// per-pattern reference lanes are not counted).
    pub lanes_used: u64,
    /// Available lanes summed over those batches
    /// (`batches * KernelWord::LANES`).
    pub lanes_capacity: u64,
}

impl LaneStats {
    /// Whether any kernel work was recorded.
    pub fn is_empty(&self) -> bool {
        self.batches == 0
    }
}

/// A fault simulator bound to one circuit.
///
/// Maintains the collapsed target fault list with fault dropping: once a
/// fault is detected it is never simulated again. [`FaultSimulator::reset`]
/// restores the full list. Tests are applied through full scan unless
/// [`FaultSimulator::set_chains`] installs another [`ChainMap`].
///
/// # Example
///
/// ```
/// use rls_fsim::{FaultSimulator, ScanTest};
///
/// let c = rls_benchmarks::s27();
/// let mut sim = FaultSimulator::new(&c);
/// let total = sim.total_faults();
/// let t = ScanTest::from_strings("001", &["0111", "1001"]).unwrap();
/// let newly = sim.run_test(&t);
/// assert_eq!(sim.detected_count(), newly.len());
/// assert!(sim.live_count() + sim.detected_count() == total);
/// ```
#[derive(Debug)]
pub struct FaultSimulator<'c> {
    /// The circuit, its levelization and the scan chains.
    good: GoodSim<'c>,
    /// The levelized SoA lowering, built once per simulator.
    soa: LevelizedCircuit,
    universe: FaultUniverse,
    collapsed: CollapsedFaults,
    /// Live (undetected) representative faults.
    live: Vec<FaultId>,
    detected: Vec<FaultId>,
    options: SimOptions,
    lane_stats: LaneStats,
}

impl<'c> FaultSimulator<'c> {
    /// Builds the simulator: enumerates and collapses the fault list.
    ///
    /// # Panics
    ///
    /// Panics if the circuit has combinational cycles.
    pub fn new(circuit: &'c Circuit) -> Self {
        let universe = FaultUniverse::enumerate(circuit);
        let collapsed = CollapsedFaults::build(circuit, &universe);
        let live = collapsed.representatives().to_vec();
        let good = GoodSim::new(circuit);
        let soa = LevelizedCircuit::build(circuit, good.levelization());
        FaultSimulator {
            good,
            soa,
            universe,
            collapsed,
            live,
            detected: Vec::new(),
            options: SimOptions::default(),
            lane_stats: LaneStats::default(),
        }
    }

    /// Sets the observation policy (ablation support); the default observes
    /// every point the paper's model observes.
    pub fn set_options(&mut self, options: SimOptions) {
        self.options = options;
    }

    /// The current observation policy.
    pub fn options(&self) -> SimOptions {
        self.options
    }

    /// Sets the scan chains tests are applied through (full scan by
    /// default): a [`ChainMap`] from a [`rls_scan::PartialScan`] or a
    /// [`rls_scan::MultiChain`] runs the same kernel on that scan style.
    ///
    /// # Panics
    ///
    /// Panics if `chains` covers a different number of flip-flops than
    /// the circuit has.
    pub fn set_chains(&mut self, chains: ChainMap) {
        self.good.set_chains(chains);
    }

    /// The levelized SoA lowering of the circuit under test.
    pub fn levelized(&self) -> &LevelizedCircuit {
        &self.soa
    }

    /// Cumulative kernel-lane accounting over this simulator's lifetime
    /// (maintained unconditionally, unlike the obs counters). Survives
    /// [`FaultSimulator::reset`]/[`FaultSimulator::set_targets`]: it
    /// describes engine work done, not the current fault list.
    pub fn lane_stats(&self) -> LaneStats {
        self.lane_stats
    }

    /// The circuit under test.
    pub fn circuit(&self) -> &Circuit {
        self.good.circuit()
    }

    /// The good-machine simulator.
    pub fn good(&self) -> &GoodSim<'c> {
        &self.good
    }

    /// The uncollapsed fault universe.
    pub fn universe(&self) -> &FaultUniverse {
        &self.universe
    }

    /// The collapsed fault classes.
    pub fn collapsed(&self) -> &CollapsedFaults {
        &self.collapsed
    }

    /// Number of collapsed target faults.
    pub fn total_faults(&self) -> usize {
        self.collapsed.len()
    }

    /// Currently undetected faults.
    pub fn live(&self) -> &[FaultId] {
        &self.live
    }

    /// Number of currently undetected faults.
    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    /// Faults detected so far, in detection order.
    pub fn detected(&self) -> &[FaultId] {
        &self.detected
    }

    /// Number of faults detected so far.
    pub fn detected_count(&self) -> usize {
        self.detected.len()
    }

    /// Current coverage snapshot.
    pub fn coverage(&self) -> Coverage {
        Coverage::new(self.total_faults(), self.detected_count())
    }

    /// Restores the full fault list (e.g. between experiments).
    pub fn reset(&mut self) {
        self.live = self.collapsed.representatives().to_vec();
        self.detected.clear();
    }

    /// Restricts the live list to the given faults (e.g. to target only the
    /// ATPG-detectable set). Detected bookkeeping is reset.
    pub fn set_targets(&mut self, targets: &[FaultId]) {
        self.live = targets.to_vec();
        self.detected.clear();
    }

    /// Simulates one test against all live faults, drops and returns the
    /// newly detected ones.
    pub fn run_test(&mut self, test: &ScanTest) -> Vec<FaultId> {
        self.run_tile(&[test])
    }

    /// Records the kernel calls of one test or tile: `faults` candidates
    /// simulated `per_batch` at a time against `height` patterns.
    /// Accounted unconditionally (see [`LaneStats`]); the obs counters
    /// mirror it only when the layer is enabled.
    fn account(&mut self, sw: &rls_obs::Stopwatch, faults: usize, per_batch: usize, height: usize) {
        let lanes = KernelWord::LANES as u64;
        let batches = faults.div_ceil(per_batch) as u64;
        let fault_lanes = (faults * height) as u64;
        self.lane_stats.batches += batches;
        self.lane_stats.lanes_used += fault_lanes;
        self.lane_stats.lanes_capacity += batches * lanes;
        if sw.running() {
            rls_obs::histogram!("fsim.test_nanos", sw.elapsed_nanos());
            rls_obs::counter!("fsim.faults_simulated", fault_lanes);
            rls_obs::counter!("fsim.batches", batches);
            rls_obs::counter!("fsim.lanes_used", fault_lanes);
            rls_obs::counter!("fsim.lanes_capacity", batches * lanes);
        }
    }

    /// Drops `newly` (already in detection order and duplicate-free) from
    /// the live list and appends it to the detected list.
    fn drop_detected(&mut self, newly: &[FaultId]) {
        if !newly.is_empty() {
            let drop: std::collections::HashSet<FaultId> = newly.iter().copied().collect();
            self.live.retain(|id| !drop.contains(id));
            self.detected.extend_from_slice(newly);
        }
    }

    /// Applies externally computed detections: drops the given faults from
    /// the live list and appends them (in the given order) to the detected
    /// list. Ids not currently live are ignored.
    ///
    /// This is the hand-off point for out-of-band executors — e.g. the
    /// `rls-dispatch` worker pool, which simulates batches across threads
    /// and reduces detections deterministically before applying them here.
    pub fn apply_detections(&mut self, newly: &[FaultId]) {
        if newly.is_empty() {
            return;
        }
        let live: std::collections::HashSet<FaultId> = self.live.iter().copied().collect();
        let accepted: Vec<FaultId> = newly.iter().copied().filter(|id| live.contains(id)).collect();
        let drop: std::collections::HashSet<FaultId> = accepted.iter().copied().collect();
        self.live.retain(|id| !drop.contains(id));
        self.detected.extend(accepted);
    }

    /// Simulates a sequence of tests, dropping as it goes; returns the
    /// number of newly detected faults.
    ///
    /// Consecutive shape-compatible tests are packed into tiles so one
    /// kernel pass covers several tests. Each tile is re-planned from the
    /// current live count: [`fill_height`] over the [`compatible_run`] at
    /// the next test, so a thin fault tail packs many tests per word. The
    /// detections (set *and* order) are identical to the sequential
    /// per-test run: per-(test, fault) detection does not depend on the
    /// other faults in the word, and the tile merge walks patterns in test
    /// order, dropping already-detected ids exactly as sequential dropping
    /// would.
    pub fn run_tests(&mut self, tests: &[ScanTest]) -> usize {
        let all: Vec<&ScanTest> = tests.iter().collect();
        let mut count = 0;
        let mut next = 0;
        while next < tests.len() && !self.live.is_empty() {
            let height = fill_height(self.live.len(), compatible_run(tests, next));
            count += self.run_tile(&all[next..next + height]).len(); // lint: panic-ok(fill_height never exceeds the compatible run, which ends inside tests)
            next += height;
        }
        count
    }

    /// Simulates a tile of shape-compatible tests in SoA passes over the
    /// whole live list and merges the per-pattern detections in test
    /// order. Each pattern's fault-free machine runs in its reference
    /// lane, so no good trace is computed and no candidate is
    /// prefiltered: a fault that is never activated is simply not
    /// detected.
    fn run_tile(&mut self, tests: &[&ScanTest]) -> Vec<FaultId> {
        let t = tests.len();
        let _span = rls_obs::span!("fsim.test", live = self.live.len());
        let sw = rls_obs::Stopwatch::start();
        let candidates: Vec<(FaultId, Fault)> = self
            .live
            .iter()
            .map(|&id| (id, self.universe.fault(id)))
            .collect();
        let cap = tile_fault_capacity::<KernelWord>(t);
        let circuit = self.good.circuit();
        let mut per_pattern: Vec<Vec<FaultId>> = vec![Vec::new(); t];
        for chunk in candidates.chunks(cap) {
            rls_obs::mark!("fsim.batch", chunk.len());
            let dets = simulate_tile_lanes::<KernelWord>(
                circuit,
                &self.soa,
                self.good.chains(),
                tests,
                chunk,
                self.options,
            );
            for (p, d) in dets.into_iter().enumerate() {
                per_pattern[p].extend(d); // lint: panic-ok(the kernel returns one list per tile pattern)
            }
        }
        // Each kernel call occupies `t × (chunk + 1)` lanes of a
        // `lanes`-wide word, so the capacity invariant
        // (`capacity == batches * lanes`) is preserved under tiling.
        self.account(&sw, candidates.len(), cap, t);
        if sw.running() {
            rls_obs::counter!("fsim.tiles", 1);
            rls_obs::histogram!("fsim.tile_height", t as u64);
        }
        // Order-preserving merge: walk patterns in test order, each in
        // candidate order, dropping ids already claimed by an earlier
        // pattern — exactly what sequential per-test dropping produces.
        let mut seen: std::collections::HashSet<FaultId> = std::collections::HashSet::new();
        let merged: Vec<FaultId> = per_pattern
            .into_iter()
            .flatten()
            .filter(|&id| seen.insert(id))
            .collect();
        self.drop_detected(&merged);
        merged
    }
}

/// Simulates `tests` on the scan chains of `chains` against `targets`
/// with fault dropping and returns the detected faults in detection
/// order — the driver behind [`crate::run_tests_partial`] and
/// [`crate::run_tests_multichain`].
///
/// # Panics
///
/// Panics if `universe` is not the fault universe of `sim`'s circuit, or
/// on the width mismatches [`FaultSimulator::run_tests`] rejects.
pub(crate) fn run_tests_on_chains(
    sim: &GoodSim<'_>,
    chains: ChainMap,
    tests: &[ScanTest],
    targets: &[FaultId],
    universe: &FaultUniverse,
) -> Vec<FaultId> {
    let mut engine = FaultSimulator::new(sim.circuit());
    assert_eq!(
        engine.universe().faults(),
        universe.faults(),
        "fault ids must index the circuit's own universe"
    );
    engine.set_chains(chains);
    engine.set_targets(targets);
    engine.run_tests(tests);
    engine.detected
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s27_test() -> ScanTest {
        ScanTest::from_strings("001", &["0111", "1001", "0111", "1001", "0100"]).unwrap()
    }

    #[test]
    fn dropping_means_no_double_detection() {
        let c = rls_benchmarks::s27();
        let mut sim = FaultSimulator::new(&c);
        let first = sim.run_test(&s27_test());
        assert!(!first.is_empty());
        let second = sim.run_test(&s27_test());
        assert!(
            second.is_empty(),
            "same test cannot re-detect dropped faults"
        );
    }

    #[test]
    fn counts_are_consistent() {
        let c = rls_benchmarks::s27();
        let mut sim = FaultSimulator::new(&c);
        let total = sim.total_faults();
        assert_eq!(total, 32);
        sim.run_test(&s27_test());
        assert_eq!(sim.live_count() + sim.detected_count(), total);
    }

    #[test]
    fn reset_restores_everything() {
        let c = rls_benchmarks::s27();
        let mut sim = FaultSimulator::new(&c);
        sim.run_test(&s27_test());
        let detected = sim.detected_count();
        assert!(detected > 0);
        sim.reset();
        assert_eq!(sim.detected_count(), 0);
        assert_eq!(sim.live_count(), sim.total_faults());
        // Re-running gives the same detections.
        let again = sim.run_test(&s27_test());
        assert_eq!(again.len(), detected);
    }

    #[test]
    fn set_targets_narrows_the_list() {
        let c = rls_benchmarks::s27();
        let mut sim = FaultSimulator::new(&c);
        let some: Vec<FaultId> = sim.live()[..5].to_vec();
        sim.set_targets(&some);
        assert_eq!(sim.live_count(), 5);
        sim.run_test(&s27_test());
        assert!(sim.live_count() + sim.detected_count() == 5);
    }

    #[test]
    fn apply_detections_drops_and_ignores_stale_ids() {
        let c = rls_benchmarks::s27();
        let mut sim = FaultSimulator::new(&c);
        let picked: Vec<FaultId> = sim.live()[..3].to_vec();
        sim.apply_detections(&picked);
        assert_eq!(sim.detected(), &picked[..]);
        assert_eq!(sim.live_count(), sim.total_faults() - 3);
        // Re-applying (stale ids) changes nothing.
        sim.apply_detections(&picked);
        assert_eq!(sim.detected_count(), 3);
        assert_eq!(sim.live_count(), sim.total_faults() - 3);
    }

    #[test]
    fn run_tests_stops_when_empty() {
        let c = rls_benchmarks::s27();
        let mut sim = FaultSimulator::new(&c);
        let tests = vec![s27_test(); 3];
        let n = sim.run_tests(&tests);
        assert_eq!(n, sim.detected_count());
    }

    #[test]
    fn limited_scan_adds_detections_on_top_of_plain_test() {
        // The crux of the paper, in miniature: applying the limited-scan
        // variant *in addition to* the plain test (the paper's TS0 +
        // TS(I,D1) structure) detects faults the plain test missed —
        // Table 1 exhibits one such fault.
        let c = rls_benchmarks::s27();
        let mut sim = FaultSimulator::new(&c);
        sim.run_test(&s27_test());
        let plain = sim.detected_count();
        let shifted = s27_test()
            .with_shifts(vec![crate::test::ShiftOp {
                at: 3,
                amount: 1,
                fill: vec![false],
            }])
            .unwrap();
        let extra = sim.run_test(&shifted);
        assert!(
            !extra.is_empty(),
            "limited scan must add detections beyond the {plain} plain ones"
        );
    }

    fn s27_tile_tests() -> Vec<ScanTest> {
        // Six tests: the first four shape-compatible (tileable), then two
        // with a different shift schedule (forcing a tile break).
        let mut out: Vec<ScanTest> = [
            ("001", ["0111", "1001", "0111", "1001", "0100"]),
            ("110", ["1010", "0101", "1110", "0001", "1000"]),
            ("010", ["0000", "1111", "0011", "1100", "0110"]),
            ("101", ["1001", "0110", "1010", "0101", "1111"]),
        ]
        .iter()
        .map(|&(si, ref vs)| {
            ScanTest::from_strings(si, vs)
                .unwrap()
                .with_shifts(vec![crate::test::ShiftOp {
                    at: 2,
                    amount: 1,
                    fill: vec![false],
                }])
                .unwrap()
        })
        .collect();
        out.push(
            ScanTest::from_strings("011", &["1100", "0011", "1010", "0101", "1001"])
                .unwrap()
                .with_shifts(vec![crate::test::ShiftOp {
                    at: 3,
                    amount: 2,
                    fill: vec![true, false],
                }])
                .unwrap(),
        );
        out.push(ScanTest::from_strings("111", &["0001", "0010", "0100", "1000", "0110"]).unwrap());
        out
    }

    /// The serial drop-as-you-go reference: tests in order, live faults
    /// in candidate order, one scalar faulty trace per (test, fault)
    /// compared by `traces_differ`, each detection dropped before the
    /// next test.
    fn serial_dropping(c: &Circuit, tests: &[ScanTest]) -> Vec<FaultId> {
        let engine = FaultSimulator::new(c);
        let good = GoodSim::new(c);
        let mut live = engine.live().to_vec();
        let mut detected = Vec::new();
        for t in tests {
            let trace = good.simulate_test(t);
            let newly: Vec<FaultId> = live
                .iter()
                .copied()
                .filter(|&id| {
                    let faulty = good.simulate_faulty(t, engine.universe().fault(id));
                    crate::good::traces_differ(&trace, &faulty)
                })
                .collect();
            live.retain(|id| !newly.contains(id));
            detected.extend(newly);
        }
        detected
    }

    #[test]
    fn run_test_matches_the_serial_reference() {
        // The engine's detection *order* (not just the set) is the serial
        // one — the dispatch reduction and checkpointing both depend on it.
        let c = rls_benchmarks::s27();
        let expect = serial_dropping(&c, &[s27_test()]);
        assert!(!expect.is_empty());
        let mut sim = FaultSimulator::new(&c);
        sim.run_test(&s27_test());
        assert_eq!(sim.detected(), &expect[..]);
    }

    #[test]
    fn tiled_run_tests_matches_the_serial_reference() {
        // The crown invariant of the tile scheduler: run_tests over a
        // mixed (tileable + non-tileable) sequence yields the serial
        // dropping order exactly, and every kernel call is accounted at
        // the full word.
        let c = rls_benchmarks::s27();
        let tests = s27_tile_tests();
        let expect = serial_dropping(&c, &tests);
        assert!(!expect.is_empty());
        let mut sim = FaultSimulator::new(&c);
        sim.run_tests(&tests);
        assert_eq!(sim.detected(), &expect[..]);
        let stats = sim.lane_stats();
        assert_eq!(
            stats.lanes_capacity,
            stats.batches * KernelWord::LANES as u64
        );
        assert!(stats.lanes_used <= stats.lanes_capacity);
    }

    #[test]
    fn thin_live_lists_pack_the_whole_run_into_one_tile() {
        // 32 live faults fit one 8-tall tile of the kernel word (63 fault
        // lanes per pattern), so eight compatible tests take one pass.
        let c = rls_benchmarks::s27();
        let tests = vec![s27_tile_tests()[0].clone(); 8];
        let expect = serial_dropping(&c, &tests);
        let mut sim = FaultSimulator::new(&c);
        assert_eq!(crate::soa::fill_height(sim.live_count(), tests.len()), 8);
        sim.run_tests(&tests);
        assert_eq!(sim.detected(), &expect[..]);
        assert_eq!(sim.lane_stats().batches, 1);
        assert_eq!(sim.lane_stats().lanes_used, 8 * 32);
    }

    #[test]
    fn lane_stats_accumulate_without_obs() {
        // The engine's lane accounting is unconditional — the dispatch
        // degrade path reads it with the obs layer off.
        let c = rls_benchmarks::s27();
        let mut sim = FaultSimulator::new(&c);
        assert!(sim.lane_stats().is_empty());
        sim.run_test(&s27_test());
        sim.run_test(&s27_test());
        let stats = sim.lane_stats();
        assert!(stats.batches > 0);
        assert!(stats.lanes_used > 0);
        assert_eq!(
            stats.lanes_capacity,
            stats.batches * KernelWord::LANES as u64
        );
        assert!(stats.lanes_used <= stats.lanes_capacity);
    }

    #[test]
    fn coverage_snapshot() {
        let c = rls_benchmarks::s27();
        let mut sim = FaultSimulator::new(&c);
        sim.run_test(&s27_test());
        let cov = sim.coverage();
        assert_eq!(cov.total, 32);
        assert_eq!(cov.detected, sim.detected_count());
    }
}
