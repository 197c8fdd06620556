//! Output checks. A row fails when any check on it fails; the failures
//! feed `attempted`/`failed` and `bench.rows_failed_frac`.
//!
//! - Recorded rows: on the default seed each row must equal the row
//!   recorded from the commit that introduced this benchmark
//!   (`expected/default.txt`), unless its circuit's ATPG target has since
//!   gained faults that used to abort — then re-simulation alone checks it.
//! - ATPG verdicts: compared with the recorded classification, no fault
//!   may move between detectable and redundant, and no decided fault may
//!   become aborted. A fault moving from aborted to decided is counted as
//!   `atpg.target_delta`.
//! - Re-simulation: each Procedure 2 row's `TS0` plus its selected
//!   `TS(I, D1)` sets, re-simulated with a sequential `FaultSimulator`
//!   restricted to the target, must detect exactly the reported faults;
//!   complete must hold exactly when that count is the target size. The
//!   scan-variant rows are re-simulated with their own simulators.
//! - Agreement: every pass must repeat the first pass's rows, and rows
//!   re-run with the other thread count must be identical (t1 ≡ t2).

use std::collections::{BTreeMap, BTreeSet};

use rls_core::cycles::{ncyc0, nsh};
use rls_core::extension::{derive_mc_test_set, generate_ts0_partial};
use rls_core::{derive_test_set, generate_ts0, CoverageTarget};
use rls_fsim::{
    run_tests_multichain, run_tests_partial, CollapsedFaults, FaultId, FaultSimulator,
    FaultUniverse, GoodSim, McScanTest, ScanTest,
};
use rls_netlist::Circuit;

use crate::workload::{Row, RowKind};

/// Verdict letters of a classification string: one per collapsed fault,
/// in representative order.
pub const DETECTABLE: char = 'd';
/// See [`DETECTABLE`].
pub const REDUNDANT: char = 'r';
/// See [`DETECTABLE`].
pub const ABORTED: char = 'a';

/// The recorded outputs: classification strings by circuit and row lines
/// by row key.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Expected {
    pub classes: BTreeMap<String, String>,
    pub rows: BTreeMap<String, String>,
}

impl Expected {
    /// Parses the recorded format: `class <circuit> <verdicts>` and
    /// `row <key>\t<line>` lines; `#` starts a comment.
    pub fn parse(text: &str) -> Result<Expected, String> {
        let mut e = Expected::default();
        for (n, raw) in text.lines().enumerate() {
            let line = raw.trim_end();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(rest) = line.strip_prefix("class ") {
                let (circuit, verdicts) = rest
                    .split_once(' ')
                    .ok_or_else(|| format!("line {}: class needs a circuit and verdicts", n + 1))?;
                e.classes.insert(circuit.to_string(), verdicts.to_string());
            } else if let Some(rest) = line.strip_prefix("row ") {
                let (key, value) = rest
                    .split_once('\t')
                    .ok_or_else(|| format!("line {}: row needs `<key>\\t<line>`", n + 1))?;
                e.rows.insert(key.to_string(), value.to_string());
            } else {
                return Err(format!("line {}: unknown record `{line}`", n + 1));
            }
        }
        Ok(e)
    }

    /// Renders `classes` and `rows` in the format [`Expected::parse`]
    /// reads.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (c, v) in &self.classes {
            out.push_str(&format!("class {c} {v}\n"));
        }
        for (k, v) in &self.rows {
            out.push_str(&format!("row {k}\t{v}\n"));
        }
        out
    }
}

/// The recorded outputs of the commit that introduced the benchmark.
pub fn recorded() -> Expected {
    Expected::parse(include_str!("../expected/default.txt"))
        .expect("the recorded outputs parse (they are committed with the benchmark)")
}

/// Collected check failures, by row key.
#[derive(Debug, Default)]
pub struct Checks {
    failures: BTreeMap<String, Vec<String>>,
    /// Faults recorded as aborted that are now decided.
    pub target_delta: u64,
    /// Circuits whose target differs from the recorded one (by faults
    /// that used to abort), whose rows are checked by re-simulation only.
    pub moved_targets: BTreeSet<String>,
}

impl Checks {
    /// Records one failed check on `key`.
    pub fn fail(&mut self, key: &str, why: String) {
        self.failures.entry(key.to_string()).or_default().push(why);
    }

    /// Records `result` against `key` when it is an error.
    pub fn note(&mut self, key: &str, result: Result<(), String>) {
        if let Err(why) = result {
            self.fail(key, why);
        }
    }

    /// Rows with at least one failed check.
    pub fn failed_rows(&self) -> usize {
        self.failures.len()
    }

    /// Every failure, one line each.
    pub fn report(&self) -> Vec<String> {
        self.failures
            .iter()
            .flat_map(|(k, whys)| whys.iter().map(move |w| format!("{k}: {w}")))
            .collect()
    }
}

/// Compares a row line with its recorded value; a row with no recorded
/// value is a failure (the default seed records every row).
pub fn check_recorded(line: &str, recorded: Option<&String>) -> Result<(), String> {
    match recorded {
        None => Err("no recorded row".into()),
        Some(r) if r == line => Ok(()),
        Some(r) => Err(format!(
            "differs from the recorded row: got `{line}`, recorded `{r}`"
        )),
    }
}

/// Compares two runs of the same row.
pub fn check_same(what: &str, a: &Row, b: &Row) -> Result<(), String> {
    let (la, lb) = (a.line(), b.line());
    if la == lb {
        Ok(())
    } else {
        Err(format!("{what} disagree: `{la}` vs `{lb}`"))
    }
}

/// Checks a classification against the recorded one, fault by fault.
/// Returns the number of faults that moved from aborted to decided.
pub fn check_verdicts(recorded: &str, now: &str) -> Result<u64, String> {
    if recorded.len() != now.len() {
        return Err(format!(
            "{} classified faults, {} recorded",
            now.len(),
            recorded.len()
        ));
    }
    let mut delta = 0;
    for (k, (r, n)) in recorded.chars().zip(now.chars()).enumerate() {
        match (r, n) {
            _ if r == n => {}
            (ABORTED, DETECTABLE | REDUNDANT) => delta += 1,
            _ => return Err(format!("fault #{k} moved from `{r}` to `{n}`")),
        }
    }
    Ok(delta)
}

/// Checks a `target_for` result against the recorded classification when
/// only the detectable list is known (the untraced run): recorded
/// detectable faults stay detectable, recorded redundant faults stay out,
/// and the redundant and aborted counts move only by aborted faults
/// becoming decided. Returns that move count.
pub fn check_target(
    reps: &[FaultId],
    recorded: &str,
    detectable: &[FaultId],
    redundant: usize,
    aborted: usize,
) -> Result<u64, String> {
    if reps.len() != recorded.len() {
        return Err(format!(
            "{} collapsed faults, {} recorded",
            reps.len(),
            recorded.len()
        ));
    }
    let now: BTreeSet<FaultId> = detectable.iter().copied().collect();
    let count = |v: char| recorded.chars().filter(|&c| c == v).count();
    let (rec_red, rec_ab) = (count(REDUNDANT), count(ABORTED));
    let mut newly_detectable = 0u64;
    for (id, v) in reps.iter().zip(recorded.chars()) {
        match (v, now.contains(id)) {
            (DETECTABLE, false) => {
                return Err(format!("detectable fault {} left the target", id.0))
            }
            (REDUNDANT, true) => {
                return Err(format!("redundant fault {} entered the target", id.0))
            }
            (ABORTED, true) => newly_detectable += 1,
            _ => {}
        }
    }
    if now.len() + redundant + aborted != reps.len() || redundant < rec_red || aborted > rec_ab {
        return Err(format!(
            "classification {}/{redundant}/{aborted} (det/red/ab) is not reachable from the recorded {}/{rec_red}/{rec_ab} by aborted faults becoming decided",
            now.len(),
            count(DETECTABLE)
        ));
    }
    Ok(newly_detectable + (redundant - rec_red) as u64)
}

/// Re-simulates one row and checks its reported counts. Target rows have
/// nothing to re-simulate.
pub fn resimulate(c: &Circuit, row: &Row) -> Result<(), String> {
    match &row.kind {
        RowKind::Target(_) => Ok(()),
        RowKind::P2 { cfg, out } => {
            let mut sim = FaultSimulator::new(c);
            if let CoverageTarget::Faults(t) = &cfg.target {
                sim.set_targets(t);
            }
            let target = sim.live_count();
            let ts0 = generate_ts0(c, cfg);
            let initial = sim.run_tests(&ts0);
            let d2 = cfg.d2(c.num_dffs());
            let mut det = initial;
            let mut cycles = out.initial_cycles;
            for p in &out.pairs {
                let derived = derive_test_set(&ts0, cfg, p.i, p.d1, d2);
                det += sim.run_tests(&derived);
                cycles += out.initial_cycles + nsh(&derived);
            }
            counts_agree(
                (initial, det, target, cycles),
                (
                    out.initial_detected,
                    out.total_detected,
                    out.target_faults,
                    out.total_cycles,
                ),
            )?;
            if out.complete != (det == target) {
                return Err(format!(
                    "complete={} but {det} of {target} detected",
                    out.complete
                ));
            }
            Ok(())
        }
        RowKind::Partial { ps, cfg, out } => {
            let d2 = cfg.d2_override.unwrap_or(ps.chain_len() as u32 + 1);
            let base = ncyc0(ps.chain_len(), cfg.la, cfg.lb, cfg.n);
            let ts0 = generate_ts0_partial(c, ps, cfg);
            let (good, universe, mut live) = all_collapsed(c);
            let total = live.len();
            let run = |tests: &[ScanTest], live: &mut Vec<FaultId>| {
                drop_detected(live, run_tests_partial(&good, ps, tests, live, &universe))
            };
            let initial = run(&ts0, &mut live);
            let (mut det, mut cycles) = (initial, base);
            for &(i, d1) in &out.pairs {
                let derived = derive_test_set(&ts0, cfg, i, d1, d2);
                det += run(&derived, &mut live);
                cycles += base + nsh(&derived);
            }
            counts_agree(
                (initial, det, total, cycles),
                (
                    out.initial_detected,
                    out.total_detected,
                    out.total_faults,
                    out.total_cycles,
                ),
            )
        }
        RowKind::Multi { mc, cfg, out } => {
            let d2 = cfg.d2_override.unwrap_or(mc.max_chain_len() as u32 + 1);
            let base = (2 * cfg.n as u64 + 1) * mc.full_scan_cycles()
                + cfg.n as u64 * (cfg.la + cfg.lb) as u64;
            let ts0 = generate_ts0(c, cfg);
            let mc_ts0: Vec<McScanTest> = ts0
                .iter()
                .map(|t| McScanTest::new(t.scan_in.clone(), t.vectors.clone()))
                .collect();
            let (good, universe, mut live) = all_collapsed(c);
            let total = live.len();
            let run = |tests: &[McScanTest], live: &mut Vec<FaultId>| {
                drop_detected(
                    live,
                    run_tests_multichain(&good, mc, tests, live, &universe),
                )
            };
            let initial = run(&mc_ts0, &mut live);
            let (mut det, mut cycles) = (initial, base);
            for &(i, d1) in &out.pairs {
                let derived = derive_mc_test_set(&ts0, cfg, mc, i, d1, d2);
                det += run(&derived, &mut live);
                cycles += base + derived.iter().map(McScanTest::shift_cycles).sum::<u64>();
            }
            counts_agree(
                (initial, det, total, cycles),
                (
                    out.initial_detected,
                    out.total_detected,
                    out.total_faults,
                    out.total_cycles,
                ),
            )
        }
    }
}

fn all_collapsed(c: &Circuit) -> (GoodSim<'_>, FaultUniverse, Vec<FaultId>) {
    let universe = FaultUniverse::enumerate(c);
    let live = CollapsedFaults::build(c, &universe)
        .representatives()
        .to_vec();
    (GoodSim::new(c), universe, live)
}

fn drop_detected(live: &mut Vec<FaultId>, detected: Vec<FaultId>) -> usize {
    let detected: BTreeSet<FaultId> = detected.into_iter().collect();
    live.retain(|id| !detected.contains(id));
    detected.len()
}

/// `(initial det, total det, target size, cycles)`, re-simulated against
/// reported.
fn counts_agree(
    resim: (usize, usize, usize, u64),
    reported: (usize, usize, usize, u64),
) -> Result<(), String> {
    if resim == reported {
        Ok(())
    } else {
        Err(format!(
            "re-simulation gives (initial det, det, target, cycles) = {resim:?}, the row reports {reported:?}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Tracer;
    use crate::workload::{combo_config, row_seeds, run_pass, Inputs, Workload};
    use rls_core::{Procedure2, RlsConfig};
    use rls_scan::{MultiChain, PartialScan};

    fn s27_p2_row(threads: usize) -> (Circuit, Row) {
        let c = rls_benchmarks::s27();
        let info = rls_core::experiment::detectable_target(&c, 10_000);
        let cfg = combo_config((4, 8, 8), &info.target, threads, row_seeds(3, 0));
        let out = Procedure2::new(&c, cfg.clone()).run();
        let row = Row {
            key: "grid s27 4,8,8".into(),
            circuit: "s27",
            kind: RowKind::P2 { cfg, out },
        };
        (c, row)
    }

    fn p2_out(row: &mut Row) -> &mut rls_core::Procedure2Outcome {
        match &mut row.kind {
            RowKind::P2 { out, .. } => out,
            _ => unreachable!(),
        }
    }

    #[test]
    fn resimulation_accepts_a_true_row_and_catches_corruptions() {
        let (c, row) = s27_p2_row(1);
        assert_eq!(resimulate(&c, &row), Ok(()));
        type Corrupt = fn(&mut rls_core::Procedure2Outcome);
        let corruptions: [(&str, Corrupt); 5] = [
            ("det", |o| o.total_detected -= 1),
            ("initial det", |o| o.initial_detected += 1),
            ("cycles", |o| o.total_cycles += 1),
            ("complete", |o| o.complete = !o.complete),
            ("target", |o| o.target_faults += 1),
        ];
        for (what, corrupt) in corruptions {
            let mut bad = row.clone();
            corrupt(p2_out(&mut bad));
            assert!(
                resimulate(&c, &bad).is_err(),
                "corrupted {what} passed re-simulation"
            );
        }
        // A dropped selected pair loses its detections.
        let mut bad = row.clone();
        let out = p2_out(&mut bad);
        if let Some(p) = out.pairs.pop() {
            out.total_cycles -= out.initial_cycles + p.shift_cycles;
            assert!(
                resimulate(&c, &bad).is_err(),
                "dropped pair passed re-simulation"
            );
        }
    }

    #[test]
    fn scan_variant_resimulation_catches_a_wrong_count() {
        let c = rls_benchmarks::s27();
        let cfg = RlsConfig::new(4, 8, 8).with_seeds(row_seeds(5, 1));
        let ps = PartialScan::new(3, vec![0, 1]);
        let out = rls_core::extension::run_partial(&c, &ps, &cfg);
        let mut row = Row {
            key: "partial s27 67%".into(),
            circuit: "s27",
            kind: RowKind::Partial {
                ps,
                cfg: cfg.clone(),
                out,
            },
        };
        assert_eq!(resimulate(&c, &row), Ok(()));
        if let RowKind::Partial { out, .. } = &mut row.kind {
            out.total_detected += 1;
        }
        assert!(resimulate(&c, &row).is_err());

        let mc = MultiChain::new(3, 2);
        let out = rls_core::extension::run_multichain(&c, &mc, &cfg);
        let mut row = Row {
            key: "multichain s27 2".into(),
            circuit: "s27",
            kind: RowKind::Multi { mc, cfg, out },
        };
        assert_eq!(resimulate(&c, &row), Ok(()));
        let mut bad = row.clone();
        if let RowKind::Multi { out, .. } = &mut bad.kind {
            out.initial_detected -= 1;
        }
        assert!(resimulate(&c, &bad).is_err());
        if let RowKind::Multi { out, .. } = &mut row.kind {
            out.total_cycles += 1;
        }
        assert!(resimulate(&c, &row).is_err());
    }

    #[test]
    fn recorded_row_check_fires_on_a_corrupted_row() {
        let (_, row) = s27_p2_row(1);
        let line = row.line();
        assert_eq!(check_recorded(&line, Some(&line)), Ok(()));
        let corrupted = line.replacen("det=", "det=9", 1);
        assert!(check_recorded(&line, Some(&corrupted)).is_err());
        assert!(check_recorded(&line, None).is_err());
    }

    #[test]
    fn thread_counts_agree_and_a_mismatch_fires() {
        let (_, t1) = s27_p2_row(1);
        let (_, t2) = s27_p2_row(2);
        assert_eq!(check_same("t1/t2", &t1, &t2), Ok(()));
        let mut bad = t2.clone();
        p2_out(&mut bad).total_cycles += 1;
        assert!(check_same("t1/t2", &t1, &bad).is_err());
    }

    #[test]
    fn verdict_check_allows_only_aborted_to_decided() {
        assert_eq!(check_verdicts("ddra", "ddra"), Ok(0));
        assert_eq!(check_verdicts("ddra", "ddrd"), Ok(1));
        assert_eq!(check_verdicts("dara", "ddrr"), Ok(2));
        assert!(
            check_verdicts("ddra", "drra").is_err(),
            "detectable -> redundant"
        );
        assert!(
            check_verdicts("ddra", "ddda").is_err(),
            "redundant -> detectable"
        );
        assert!(
            check_verdicts("ddra", "dara").is_err(),
            "decided -> aborted"
        );
        assert!(check_verdicts("ddra", "ddr").is_err(), "length");
    }

    #[test]
    fn target_check_fires_on_a_corrupted_verdict() {
        let reps: Vec<FaultId> = (0..5).map(FaultId).collect();
        let recorded = "ddraa";
        let det = [FaultId(0), FaultId(1)];
        assert_eq!(check_target(&reps, recorded, &det, 1, 2), Ok(0));
        // Aborted fault 3 became detectable, fault 4 redundant.
        let more = [FaultId(0), FaultId(1), FaultId(3)];
        assert_eq!(check_target(&reps, recorded, &more, 2, 0), Ok(2));
        // A detectable fault left the target.
        assert!(check_target(&reps, recorded, &[FaultId(0)], 2, 2).is_err());
        // The redundant fault entered it.
        let wrong = [FaultId(0), FaultId(1), FaultId(2)];
        assert!(check_target(&reps, recorded, &wrong, 0, 2).is_err());
        // Counts that do not add up.
        assert!(check_target(&reps, recorded, &det, 1, 1).is_err());
        // A redundant fault turned aborted.
        assert!(check_target(&reps, recorded, &det, 0, 3).is_err());
    }

    #[test]
    fn expected_round_trips_and_rejects_junk() {
        let mut e = Expected::default();
        e.classes.insert("s27".into(), "ddr".into());
        e.rows
            .insert("grid s27 4,8,8".into(), "init_det=1 det=2".into());
        assert_eq!(Expected::parse(&e.render()), Ok(e));
        assert!(Expected::parse("bogus line").is_err());
        assert!(Expected::parse("row no-tab").is_err());
    }

    #[test]
    fn the_recorded_file_covers_every_default_row_key_shape() {
        let e = recorded();
        for c in ["s953", "s208", "s298"] {
            assert!(e.classes.contains_key(c), "class {c}");
            assert!(e.rows.contains_key(&format!("target {c}")), "target {c}");
        }
        assert_eq!(e.rows.keys().filter(|k| k.starts_with("grid ")).count(), 90);
        assert!(e.rows.keys().any(|k| k.starts_with("table6 s953 ")));
        assert_eq!(
            e.rows.keys().filter(|k| k.starts_with("partial ")).count(),
            4
        );
        assert_eq!(
            e.rows
                .keys()
                .filter(|k| k.starts_with("multichain "))
                .count(),
            3
        );
    }

    #[test]
    fn rows_are_seeded_and_repeatable() {
        use rls_lfsr::SeedSequence;
        assert_eq!(
            row_seeds(crate::workload::DEFAULT_SEED, 5),
            SeedSequence::default()
        );
        assert_eq!(row_seeds(7, 3), row_seeds(7, 3));
        assert_ne!(row_seeds(7, 3), row_seeds(8, 3));
        assert_ne!(row_seeds(7, 3), row_seeds(7, 4));
        let inputs = Inputs {
            seed: 7,
            circuits: vec![("s27", rls_benchmarks::s27())],
        };
        let lines = || -> Vec<String> {
            run_pass(Workload::ScanVariants, &inputs, &mut Tracer::new(false))
                .iter()
                .map(Row::line)
                .collect()
        };
        assert_eq!(lines(), lines());
    }
}
