//! The four table-path workloads, their seeded inputs, and the rows one
//! pass over a workload produces.
//!
//! Every layer is reached through the program's public functions, exactly
//! as the table binaries reach it: `rls_benchmarks` builds the circuits,
//! `rls_bench::target_for` classifies the faults, `Procedure2::run` runs
//! each `(L_A, L_B, N)` row with the configuration `run_combo` builds, and
//! `rls_core::extension::{run_partial, run_multichain}` run the scan
//! variants.

use rls_core::experiment::{all_grid_combos, ExecProfile, TargetInfo};
use rls_core::extension::{MultiChainOutcome, PartialOutcome};
use rls_core::{CoverageTarget, D1Order, Procedure2, Procedure2Outcome, RlsConfig};
use rls_lfsr::{derive_seed, SeedSequence};
use rls_netlist::Circuit;
use rls_scan::{MultiChain, PartialScan};

use crate::trace::Tracer;

/// The seed whose inputs are the committed table inputs: the registry
/// circuits and the default `SeedSequence` on every row.
pub const DEFAULT_SEED: u64 = 0;

/// Combinations the Table 6 ladder tries before giving up (the `table6`
/// binary's default).
const LADDER_TRIES: usize = 20;

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Table 6 ladder on s953 with two threads: PODEM-bound.
    Table6S953,
    /// The Table 3 grid on s208 and s298 with two threads.
    GridT2,
    /// The same grid on the sequential `FaultSimulator` path.
    GridT1,
    /// Partial and multichain scan on s298: the scan-variant simulators.
    ScanVariants,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Table6S953,
        Workload::GridT2,
        Workload::GridT1,
        Workload::ScanVariants,
    ];

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table6S953 => "table6-s953",
            Workload::GridT2 => "grid-t2",
            Workload::GridT1 => "grid-t1",
            Workload::ScanVariants => "scan-variants",
        }
    }

    /// The registry circuits the workload builds in set-up.
    pub fn circuits(self) -> &'static [&'static str] {
        match self {
            Workload::Table6S953 => &["s953"],
            Workload::GridT2 | Workload::GridT1 => &["s208", "s298"],
            Workload::ScanVariants => &["s298"],
        }
    }

    /// Fault-simulation threads for Procedure 2 rows: two for the `-t2`
    /// style workloads, never more than the machine has.
    pub fn threads(self) -> usize {
        match self {
            Workload::Table6S953 | Workload::GridT2 => two_or_nproc(),
            Workload::GridT1 | Workload::ScanVariants => 1,
        }
    }

    /// The thread count its Procedure 2 rows are re-run with for the
    /// t1 ≡ t2 check; `None` when it runs no Procedure 2 rows.
    pub fn cross_threads(self) -> Option<usize> {
        match self {
            Workload::Table6S953 | Workload::GridT2 => Some(1),
            Workload::GridT1 => Some(two_or_nproc()),
            Workload::ScanVariants => None,
        }
    }

    /// Whether `--seed` changes the workload's inputs. The Table 6 ladder
    /// keeps the committed sequence on every seed: its length (one try or
    /// more) depends on the sequence and moves the peak memory and a tenth
    /// of the time of a workload that exists to time PODEM, whose input
    /// (the registry s953) no seed changes.
    pub fn seeded(self) -> bool {
        self != Workload::Table6S953
    }

    /// Whether the workload calls `target_for` (every one but the scan
    /// variants, which target all collapsed faults).
    pub fn has_atpg(self) -> bool {
        self != Workload::ScanVariants
    }
}

fn two_or_nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(2)
}

/// The `SeedSequence` for the `index`-th seeded row of a pass.
///
/// The default seed keeps the committed sequence on every row, so its rows
/// equal the table binaries' rows. Any other seed gives each row its own
/// derived sequence: rows sharing one sequence share their `TS0` prefixes
/// and their `seed(I)` draws, and a lucky or unlucky sequence then moves
/// the whole grid's work together.
pub fn row_seeds(seed: u64, index: usize) -> SeedSequence {
    if seed == DEFAULT_SEED {
        SeedSequence::default()
    } else {
        SeedSequence::new(derive_seed(seed, index as u64))
    }
}

/// The Procedure 2 configuration of one row: built exactly as
/// `rls_core::experiment::run_combo` builds it, plus the row's seeds.
pub fn combo_config(
    combo: (usize, usize, usize),
    target: &CoverageTarget,
    threads: usize,
    seeds: SeedSequence,
) -> RlsConfig {
    let (la, lb, n) = combo;
    let exec = ExecProfile {
        threads,
        ..ExecProfile::default()
    };
    let mut cfg = exec
        .configure(
            RlsConfig::new(la, lb, n)
                .with_d1_order(D1Order::Increasing)
                .with_target(target.clone()),
        )
        .with_seeds(seeds);
    cfg.max_iterations = 40;
    cfg
}

/// What one row ran and what it returned.
#[derive(Debug, Clone)]
pub enum RowKind {
    /// One `target_for` classification.
    Target(TargetInfo),
    /// One `Procedure2::run`.
    P2 {
        cfg: RlsConfig,
        out: Procedure2Outcome,
    },
    /// One `run_partial`.
    Partial {
        ps: PartialScan,
        cfg: RlsConfig,
        out: PartialOutcome,
    },
    /// One `run_multichain`.
    Multi {
        mc: MultiChain,
        cfg: RlsConfig,
        out: MultiChainOutcome,
    },
}

/// One checked unit of work: an ATPG target, or one Procedure 2 or
/// extension run.
#[derive(Debug, Clone)]
pub struct Row {
    /// Stable identity, e.g. `grid s208 8,16,64` (shared by both grid
    /// workloads, whose rows must agree).
    pub key: String,
    /// The registry circuit the row ran on.
    pub circuit: &'static str,
    /// Inputs and outputs.
    pub kind: RowKind,
}

impl Row {
    /// The row's outputs in canonical text: the unit of every comparison
    /// (recorded rows, pass against pass, threads against threads).
    pub fn line(&self) -> String {
        match &self.kind {
            RowKind::Target(info) => format!(
                "det={} red={} ab={}",
                info.detectable, info.redundant, info.aborted
            ),
            RowKind::P2 { out, .. } => {
                let ls = out
                    .ls_average()
                    .map(|l| format!("{:?}", l.value()))
                    .unwrap_or_else(|| "-".into());
                let sel: Vec<String> = out
                    .pairs
                    .iter()
                    .map(|p| format!("{}:{}", p.i, p.d1))
                    .collect();
                format!(
                    "init_det={} init_cycles={} app={} det={} cycles={} ls={ls} complete={} target={} sel={}",
                    out.initial_detected,
                    out.initial_cycles,
                    out.pairs.len(),
                    out.total_detected,
                    out.total_cycles,
                    out.complete,
                    out.target_faults,
                    sel.join(",")
                )
            }
            RowKind::Partial { out, .. } => format!(
                "chain={} init_det={} det={} faults={} cycles={} sel={}",
                out.chain_len,
                out.initial_detected,
                out.total_detected,
                out.total_faults,
                out.total_cycles,
                pair_list(&out.pairs)
            ),
            RowKind::Multi { out, .. } => format!(
                "chains={} scan_op={} init_det={} det={} faults={} cycles={} sel={}",
                out.chains,
                out.scan_op_cycles,
                out.initial_detected,
                out.total_detected,
                out.total_faults,
                out.total_cycles,
                pair_list(&out.pairs)
            ),
        }
    }
}

fn pair_list(pairs: &[(u64, u32)]) -> String {
    let v: Vec<String> = pairs.iter().map(|(i, d1)| format!("{i}:{d1}")).collect();
    v.join(",")
}

/// A workload's set-up product: its circuits, built once per set-up.
pub struct Inputs {
    /// The run's seed.
    pub seed: u64,
    /// `(registry name, circuit)` in [`Workload::circuits`] order.
    pub circuits: Vec<(&'static str, Circuit)>,
}

/// Builds the workload's circuits (the measured set-up step).
pub fn build_circuits(w: Workload) -> Vec<(&'static str, Circuit)> {
    w.circuits()
        .iter()
        .map(|&name| (name, rls_bench::circuit(name)))
        .collect()
}

/// Runs the workload's timed phase once and returns its rows in order.
pub fn run_pass(w: Workload, inputs: &Inputs, tr: &mut Tracer) -> Vec<Row> {
    let mut rows = Vec::new();
    let threads = w.threads();
    match w {
        Workload::Table6S953 | Workload::GridT2 | Workload::GridT1 => {
            let group = if w == Workload::Table6S953 {
                "table6"
            } else {
                "grid"
            };
            let mut seeded = 0;
            for (name, c) in &inputs.circuits {
                let id = rows.len() as u32;
                tr.open("atpg.target", Some(id));
                let info = rls_bench::target_for(c, name);
                tr.close();
                let target = info.target.clone();
                rows.push(Row {
                    key: format!("target {name}"),
                    circuit: name,
                    kind: RowKind::Target(info),
                });
                let combos: Vec<(usize, usize, usize)> = if w == Workload::Table6S953 {
                    rls_core::rank_combinations(c.num_dffs())
                        .into_iter()
                        .take(LADDER_TRIES)
                        .map(|k| (k.la, k.lb, k.n))
                        .collect()
                } else {
                    all_grid_combos(c.num_dffs())
                        .into_iter()
                        .map(|k| (k.la, k.lb, k.n))
                        .collect()
                };
                let seed = if w.seeded() {
                    inputs.seed
                } else {
                    DEFAULT_SEED
                };
                for combo in combos {
                    let cfg = combo_config(combo, &target, threads, row_seeds(seed, seeded));
                    seeded += 1;
                    let id = rows.len() as u32;
                    tr.open("core.procedure2", Some(id));
                    let out = Procedure2::new(c, cfg.clone()).run();
                    tr.close();
                    let complete = out.complete;
                    let (la, lb, n) = combo;
                    rows.push(Row {
                        key: format!("{group} {name} {la},{lb},{n}"),
                        circuit: name,
                        kind: RowKind::P2 { cfg, out },
                    });
                    // The Table 6 ladder stops at the first complete row.
                    if w == Workload::Table6S953 && complete {
                        break;
                    }
                }
            }
        }
        Workload::ScanVariants => {
            for (name, c) in &inputs.circuits {
                let n_sv = c.num_dffs();
                for percent in [25usize, 50, 75, 100] {
                    let take = (n_sv * percent).div_ceil(100).clamp(1, n_sv);
                    let ps = PartialScan::new(n_sv, (0..take).collect());
                    let cfg =
                        RlsConfig::new(8, 16, 64).with_seeds(row_seeds(inputs.seed, rows.len()));
                    let id = rows.len() as u32;
                    tr.open("extension.partial", Some(id));
                    let out = rls_core::extension::run_partial(c, &ps, &cfg);
                    tr.close();
                    rows.push(Row {
                        key: format!("partial {name} {percent}%"),
                        circuit: name,
                        kind: RowKind::Partial { ps, cfg, out },
                    });
                }
                for (label, mc) in [
                    ("1", MultiChain::new(n_sv, 1)),
                    ("<=10", MultiChain::with_max_length(n_sv, 10)),
                    ("<=4", MultiChain::with_max_length(n_sv, 4)),
                ] {
                    let cfg =
                        RlsConfig::new(8, 16, 64).with_seeds(row_seeds(inputs.seed, rows.len()));
                    let id = rows.len() as u32;
                    tr.open("extension.multichain", Some(id));
                    let out = rls_core::extension::run_multichain(c, &mc, &cfg);
                    tr.close();
                    rows.push(Row {
                        key: format!("multichain {name} {label}"),
                        circuit: name,
                        kind: RowKind::Multi { mc, cfg, out },
                    });
                }
            }
        }
    }
    rows
}

/// Re-runs one Procedure 2 row with another thread count (the t1 ≡ t2
/// cross-check); `None` for rows that are not Procedure 2 runs.
pub fn rerun_with_threads(row: &Row, c: &Circuit, threads: usize) -> Option<Row> {
    let RowKind::P2 { cfg, .. } = &row.kind else {
        return None;
    };
    let cfg = cfg.clone().with_threads(threads);
    let out = Procedure2::new(c, cfg.clone()).run();
    Some(Row {
        key: row.key.clone(),
        circuit: row.circuit,
        kind: RowKind::P2 { cfg, out },
    })
}
