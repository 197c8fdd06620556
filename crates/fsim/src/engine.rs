//! The fault-simulation driver: the compiled circuit, the collapsed fault
//! list with fault dropping, and the one tile walk, which groups
//! consecutive tests into SoA tiles, each as tall as the live fault count
//! makes worthwhile.

use std::sync::Arc;

use rls_netlist::{Circuit, LevelizedCircuit, NetlistError};
use rls_scan::ChainMap;

use crate::collapse::CollapsedFaults;
use crate::coverage::Coverage;
use crate::fault::{Fault, FaultId, FaultUniverse};
use crate::good::GoodSim;
use crate::soa::{
    compatible_run, fill_height, simulate_tile_lanes, tile_fault_capacity, SimOptions,
};
use crate::test::ScanTest;
use crate::word::KernelWord;

/// Kernel-lane accounting of one [`simulate_block`] walk, or summed over
/// a simulator's lifetime.
///
/// Unlike the `fsim.lanes_*` obs counters (emitted only when the obs
/// layer is enabled), these totals are kept unconditionally: the pool's
/// worker counters add up the walks of their jobs, and a
/// [`FaultSimulator`] adds up its own (in a pooled campaign, the sets run
/// on the caller thread).
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

impl std::ops::AddAssign for LaneStats {
    fn add_assign(&mut self, other: LaneStats) {
        self.batches += other.batches;
        self.lanes_used += other.lanes_used;
        self.lanes_capacity += other.lanes_capacity;
    }
}

/// Everything immutable fault simulation needs about one circuit,
/// compiled once: the parsed circuit, its levelized SoA lowering, the
/// fault universe, and the collapsed fault list.
///
/// A [`FaultSimulator`] runs on one behind an `Arc`, and so does every
/// pool job of a campaign, so a server can compile a circuit once and
/// share it across concurrent campaigns. Compilation is fallible
/// (uploaded netlists may have combinational cycles); a server rejects
/// such requests instead of panicking.
#[derive(Debug)]
pub struct CompiledCircuit {
    circuit: Circuit,
    soa: LevelizedCircuit,
    universe: FaultUniverse,
    collapsed: CollapsedFaults,
}

impl CompiledCircuit {
    /// Levelizes, lowers to the SoA kernel layout, enumerates, and
    /// collapses `circuit`.
    pub fn compile(circuit: Circuit) -> Result<Self, NetlistError> {
        let lev = circuit.levelize()?;
        let soa = LevelizedCircuit::build(&circuit, &lev);
        let universe = FaultUniverse::enumerate(&circuit);
        let collapsed = CollapsedFaults::build(&circuit, &universe);
        Ok(CompiledCircuit {
            circuit,
            soa,
            universe,
            collapsed,
        })
    }

    /// The compiled circuit.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// The levelized SoA lowering every kernel pass runs on.
    pub fn levelized(&self) -> &LevelizedCircuit {
        &self.soa
    }

    /// The full single-stuck-at fault universe.
    pub fn universe(&self) -> &FaultUniverse {
        &self.universe
    }

    /// The collapsed fault classes.
    pub fn collapsed(&self) -> &CollapsedFaults {
        &self.collapsed
    }
}

/// Simulates a block of tests tile by tile against `live` with fault
/// dropping — the one tile walk, behind [`FaultSimulator::run_tests`] and
/// every pool job.
///
/// Before each tile the walk keeps the faults of `live` that it has not
/// reported yet, and picks the tile's height from that count:
/// [`fill_height`] over the [`compatible_run`] at the next test.
/// Each detected fault is passed to `detect` once, walking the tile's
/// patterns in test order and each in `live` order: the order sequential
/// per-test dropping produces, since whether a test detects a fault does
/// not depend on the other faults in the word. The walk ends with the
/// block or when no fault is left.
///
/// Emits the `fsim.tiles` / `fsim.tile_height` metrics and returns the
/// block's kernel accounting.
pub fn simulate_block(
    compiled: &CompiledCircuit,
    chains: &ChainMap,
    options: SimOptions,
    tests: &[ScanTest],
    live: &[FaultId],
    mut detect: impl FnMut(FaultId),
) -> LaneStats {
    let universe = compiled.universe();
    let mut reported = vec![false; universe.len()];
    let mut stats = LaneStats::default();
    let mut next = 0;
    while next < tests.len() {
        let candidates: Vec<(FaultId, Fault)> = live
            .iter()
            .filter(|&&id| !reported[id.index()]) // lint: panic-ok(fault ids index their own universe, which sized the vector)
            .map(|&id| (id, universe.fault(id)))
            .collect();
        if candidates.is_empty() {
            break;
        }
        let height = fill_height(candidates.len(), compatible_run(tests, next));
        let tile: Vec<&ScanTest> = tests[next..next + height].iter().collect(); // lint: panic-ok(fill_height never exceeds the compatible run, which ends inside tests)
        let cap = tile_fault_capacity(height);
        let mut per_pattern: Vec<Vec<FaultId>> = vec![Vec::new(); height];
        for chunk in candidates.chunks(cap) {
            rls_obs::mark!("fsim.batch", chunk.len());
            let dets = simulate_tile_lanes(
                compiled.circuit(),
                compiled.levelized(),
                chains,
                &tile,
                chunk,
                options,
            );
            for (merged, d) in per_pattern.iter_mut().zip(dets) {
                merged.extend(d);
            }
        }
        // Each kernel call occupies `height × (chunk + 1)` lanes of one
        // word, so `capacity == batches * lanes` holds under tiling.
        let batches = candidates.len().div_ceil(cap) as u64;
        stats += LaneStats {
            batches,
            lanes_used: (candidates.len() * height) as u64,
            lanes_capacity: batches * KernelWord::LANES as u64,
        };
        rls_obs::counter!("fsim.tiles", 1);
        rls_obs::histogram!("fsim.tile_height", height as u64);
        for id in per_pattern.into_iter().flatten() {
            // lint: panic-ok(the kernel reports candidate ids, which index the universe)
            if !std::mem::replace(&mut reported[id.index()], true) {
                detect(id);
            }
        }
        next += height;
    }
    stats
}

/// A fault simulator bound to one compiled circuit: the owner of a
/// campaign's fault list.
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
pub struct FaultSimulator {
    compiled: Arc<CompiledCircuit>,
    /// The scan chains tests are applied through.
    chains: ChainMap,
    /// Live (undetected) representative faults.
    live: Vec<FaultId>,
    detected: Vec<FaultId>,
    options: SimOptions,
    lane_stats: LaneStats,
}

impl FaultSimulator {
    /// Builds the simulator: compiles the circuit, enumerating and
    /// collapsing its fault list.
    ///
    /// # Panics
    ///
    /// Panics if the circuit has combinational cycles
    /// ([`CompiledCircuit::compile`] is the fallible form).
    pub fn new(circuit: &Circuit) -> Self {
        match CompiledCircuit::compile(circuit.clone()) {
            Ok(compiled) => FaultSimulator::on(Arc::new(compiled)),
            // lint: panic-ok(documented contract: simulation needs an acyclic circuit; fallible callers compile first)
            Err(e) => panic!("fault simulation requires an acyclic circuit: {e}"),
        }
    }

    /// A simulator on an already compiled circuit, targeting every
    /// collapsed fault through full scan.
    pub fn on(compiled: Arc<CompiledCircuit>) -> Self {
        FaultSimulator {
            chains: ChainMap::full(compiled.circuit().num_dffs()),
            live: compiled.collapsed().representatives().to_vec(),
            compiled,
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

    /// Sets the scan chains tests are applied through (full scan by
    /// default): a [`ChainMap`] from a [`rls_scan::PartialScan`] or a
    /// [`rls_scan::MultiChain`] runs the same kernel on that scan style.
    ///
    /// # Panics
    ///
    /// Panics if `chains` covers a different number of flip-flops than
    /// the circuit has.
    pub fn set_chains(&mut self, chains: ChainMap) {
        assert_eq!(
            chains.n_sv(),
            self.circuit().num_dffs(),
            "chain map/circuit mismatch"
        );
        self.chains = chains;
    }

    /// The compiled circuit the simulator runs on.
    pub fn compiled(&self) -> &Arc<CompiledCircuit> {
        &self.compiled
    }

    /// Cumulative kernel-lane accounting over this simulator's lifetime
    /// (maintained unconditionally, unlike the obs counters). Survives
    /// [`FaultSimulator::reset`]/[`FaultSimulator::set_targets`]: it
    /// describes engine work done, not the current fault list. Detections
    /// handed in through [`FaultSimulator::apply_detections`] add nothing.
    pub fn lane_stats(&self) -> LaneStats {
        self.lane_stats
    }

    /// The circuit under test.
    pub fn circuit(&self) -> &Circuit {
        self.compiled.circuit()
    }

    /// The uncollapsed fault universe.
    pub fn universe(&self) -> &FaultUniverse {
        self.compiled.universe()
    }

    /// The collapsed fault classes.
    pub fn collapsed(&self) -> &CollapsedFaults {
        self.compiled.collapsed()
    }

    /// Number of collapsed target faults.
    pub fn total_faults(&self) -> usize {
        self.collapsed().len()
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
        self.live = self.collapsed().representatives().to_vec();
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
        self.simulate(std::slice::from_ref(test))
    }

    /// Simulates a sequence of tests, dropping as it goes; returns the
    /// number of newly detected faults.
    ///
    /// Consecutive shape-compatible tests are packed into tiles so one
    /// kernel pass covers several tests, each tile re-planned from the
    /// current live count ([`simulate_block`]). The detections (set *and*
    /// order) are identical to the sequential per-test run.
    pub fn run_tests(&mut self, tests: &[ScanTest]) -> usize {
        self.simulate(tests).len()
    }

    /// Applies externally computed detections: drops the given faults from
    /// the live list and appends them (in the given order, each once) to
    /// the detected list, and returns how many it dropped. Ids not
    /// currently live are ignored.
    ///
    /// This is the hand-off point for a pooled trial: an `rls-dispatch`
    /// pool job computes a whole set's detections against the live list
    /// as it stood when the trial's window started, and the campaign
    /// applies them here in trial order, so faults an earlier trial of
    /// the window already dropped are ignored.
    pub fn apply_detections(&mut self, newly: &[FaultId]) -> usize {
        if newly.is_empty() {
            return 0;
        }
        let mut unclaimed: std::collections::HashSet<FaultId> = self.live.iter().copied().collect();
        let accepted: Vec<FaultId> = newly
            .iter()
            .copied()
            .filter(|id| unclaimed.remove(id))
            .collect();
        self.drop_detected(&accepted);
        accepted.len()
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

    /// Runs `tests` through the tile walk against the live list, accounts
    /// the kernel work, and drops what the tests detect.
    fn simulate(&mut self, tests: &[ScanTest]) -> Vec<FaultId> {
        let mut newly = Vec::new();
        if self.live.is_empty() || tests.is_empty() {
            return newly;
        }
        let _span = rls_obs::span!("fsim.test", live = self.live.len());
        let sw = rls_obs::Stopwatch::start();
        let stats = simulate_block(
            &self.compiled,
            &self.chains,
            self.options,
            tests,
            &self.live,
            |id| newly.push(id),
        );
        self.lane_stats += stats;
        if sw.running() {
            rls_obs::histogram!("fsim.test_nanos", sw.elapsed_nanos());
            rls_obs::counter!("fsim.faults_simulated", stats.lanes_used);
            rls_obs::counter!("fsim.batches", stats.batches);
            rls_obs::counter!("fsim.lanes_used", stats.lanes_used);
            rls_obs::counter!("fsim.lanes_capacity", stats.lanes_capacity);
        }
        self.drop_detected(&newly);
        newly
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
/// if `chains` does not fit the circuit.
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
    fn apply_detections_counts_a_repeated_id_once() {
        // A pooled set hands its detections over here; an id listed twice
        // is still one detection.
        let c = rls_benchmarks::s27();
        let mut sim = FaultSimulator::new(&c);
        let id = sim.live()[0];
        sim.apply_detections(&[id, id]);
        assert_eq!(sim.detected(), &[id]);
        assert_eq!(sim.live_count() + sim.detected_count(), sim.total_faults());
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
    fn cyclic_uploads_cannot_reach_a_compiled_circuit() {
        // The parser already rejects combinational cycles, so a malicious
        // upload never reaches compile(); compile() itself stays fallible
        // as defense in depth.
        let src = "INPUT(a)\nOUTPUT(y)\ny = AND(a, z)\nz = OR(y, a)\n";
        let err = rls_netlist::parse_bench("cyclic", src).unwrap_err();
        assert!(err.to_string().contains("z"), "{err}");
        let ok = rls_netlist::parse_bench("tiny", "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n").unwrap();
        assert!(CompiledCircuit::compile(ok).is_ok());
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
