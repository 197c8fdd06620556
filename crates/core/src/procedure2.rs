//! Procedure 2: greedy selection of `(I, D1)` pairs.
//!
//! 1. Generate `TS0`, simulate it, drop detected faults.
//! 2. For `I = 1, 2, …`: for each `D1` in trial order, derive `TS(I, D1)`
//!    (Procedure 1), simulate it against the remaining faults; if it
//!    detects anything, keep the pair.
//! 3. Stop when the target is fully covered, or after `N_SAME_FC`
//!    consecutive iterations without improvement (or the safety cap).
//!
//! Tests are applied through full scan unless [`Procedure2::with_chains`]
//! installs another [`ChainMap`] (a partial-scan chain, multiple short
//! chains). From the map follow a `TS0` scan-in bit per loaded position,
//! a fill bit per chain per shift cycle, and the longest chain as the
//! scan cost in `N_cyc0` and the default `D2` (`N_SV` under full scan).
//!
//! # Execution
//!
//! The greedy selection across iterations is sequential, but the `D1`
//! trials of one iteration all start from the same fault list, so whole
//! trials are independent work. The driver runs them in *windows* of up
//! to `threads` trials behind a crate-private executor trait, which one
//! executor implements: a [`FaultSimulator`] owns the campaign's fault
//! list, and with `threads > 1` a private [`SharedPool`] of `threads − 1`
//! workers, through an `rls-dispatch` [`SharedSetRunner`], simulates
//! every trial of a window but the first against the live list as it
//! stood when the window started, while the caller simulates the first
//! on its own simulator. Then, in `D1` order, each trial's detections are
//! applied ([`FaultSimulator::apply_detections`] ignores faults an
//! earlier trial already dropped), which gives every trial exactly the
//! live list it sees when trials run one at a time. With `threads = 1`
//! every window holds one trial and there is no pool; `TS0` is always a
//! window of one. Both produce bit-identical [`Procedure2Outcome`]s.
//! With `campaign_dir` set, a JSONL campaign record (per-trial lines,
//! per-worker counters) is persisted.

use std::sync::Arc;
use std::time::Instant;

use rls_dispatch::{
    Campaign, CampaignSummary, PoolSnapshot, SetFailure, SharedPool, SharedSetRunner, Submitted,
    TrialRecord,
};
use rls_fsim::{ChainMap, CompiledCircuit, FaultId, FaultSimulator, ScanTest};
use rls_netlist::Circuit;

use crate::config::{CoverageTarget, RlsConfig};
use crate::cycles::{ncyc0, nsh};
use crate::metrics::LsAverage;
use crate::procedure1::derive_test_set_on;
use crate::resume::{fingerprint, ResumeError, ResumeState};
use crate::ts0::generate_ts0_on;

/// One selected `(I, D1)` pair and its bookkeeping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelectedPair {
    /// The iteration index `I`.
    pub i: u64,
    /// The insertion-probability parameter `D1`.
    pub d1: u32,
    /// Faults newly detected by `TS(I, D1)`.
    pub newly_detected: usize,
    /// The set's limited-scan shift cycles `N_SH(I, D1)`.
    pub shift_cycles: u64,
    /// Time units hosting a limited scan, summed over the set's tests.
    pub limited_scan_units: u64,
    /// Total vector time units of the set (`Σ L_i`).
    pub vector_units: u64,
}

/// The outcome of Procedure 2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Procedure2Outcome {
    /// Faults detected by `TS0` alone (the paper's `initial det`).
    pub initial_detected: usize,
    /// `N_cyc0`.
    pub initial_cycles: u64,
    /// Selected pairs in selection order (`ID1_PAIRS`).
    pub pairs: Vec<SelectedPair>,
    /// Total detected faults (initial + pairs).
    pub total_detected: usize,
    /// Total target faults.
    pub target_faults: usize,
    /// Total session cycles: `N_cyc0 + Σ (N_cyc0 + N_SH)` — zero pairs
    /// means only `TS0` is applied.
    pub total_cycles: u64,
    /// Whether the coverage target was fully reached.
    pub complete: bool,
    /// Iterations actually run.
    pub iterations: u64,
    /// Target faults still undetected at the end.
    pub undetected: Vec<FaultId>,
}

impl Procedure2Outcome {
    /// The paper's `n̄_ls`: average limited-scan time units per vector time
    /// unit over all selected sets (`TS0` excluded). `None` with no pairs.
    pub fn ls_average(&self) -> Option<LsAverage> {
        if self.pairs.is_empty() {
            return None;
        }
        let units: u64 = self.pairs.iter().map(|p| p.limited_scan_units).sum();
        let vectors: u64 = self.pairs.iter().map(|p| p.vector_units).sum();
        Some(LsAverage::new(units, vectors))
    }

    /// Coverage snapshot over the target set.
    pub fn final_coverage(&self) -> rls_fsim::Coverage {
        rls_fsim::Coverage::new(self.target_faults, self.total_detected)
    }
}

/// The Procedure 2 driver.
#[derive(Debug)]
pub struct Procedure2<'c> {
    circuit: &'c Circuit,
    cfg: RlsConfig,
    chains: ChainMap,
}

impl<'c> Procedure2<'c> {
    /// Creates a full-scan driver for one circuit and configuration.
    pub fn new(circuit: &'c Circuit, cfg: RlsConfig) -> Self {
        let chains = ChainMap::full(circuit.num_dffs());
        Procedure2 {
            circuit,
            cfg,
            chains,
        }
    }

    /// Applies every test through the scan chains of `chains`, which must
    /// cover the circuit's flip-flops, instead of full scan.
    pub fn with_chains(mut self, chains: ChainMap) -> Self {
        self.chains = chains;
        self
    }

    /// The scan chains tests are applied through.
    pub fn chains(&self) -> &ChainMap {
        &self.chains
    }

    /// The run's [`fingerprint`]: what a checkpoint must carry to resume
    /// this run, and what names its campaign file.
    pub fn fingerprint(&self) -> u64 {
        fingerprint(self.circuit.name(), &self.cfg, &self.chains)
    }

    /// Runs the procedure to completion.
    ///
    /// `cfg.threads` sets how many trials run at once: `1` runs every set
    /// on the executor's own simulator, `> 1` runs windows of that many
    /// trials, all but the first on a private `rls-dispatch`
    /// [`SharedPool`] of `threads − 1` workers. Both produce bit-identical
    /// outcomes.
    /// With `cfg.campaign_dir` set, a JSONL campaign record (including
    /// resume checkpoints) streams crash-safely into that directory
    /// (failures to persist are reported on stderr, never fatal).
    pub fn run(&self) -> Procedure2Outcome {
        self.run_from(None)
    }

    /// Resumes the procedure from a checkpoint (see [`crate::resume`]).
    ///
    /// Validates that the checkpoint belongs to this circuit and that the
    /// trajectory-relevant configuration matches (fingerprint); the
    /// resumed run then provably converges to the same final test set as
    /// an uninterrupted run. If the checkpoint's `source` is set, new
    /// records append to that same campaign file.
    pub fn resume(&self, state: ResumeState) -> Result<Procedure2Outcome, ResumeError> {
        if state.circuit != self.circuit.name() {
            return Err(ResumeError::CircuitMismatch {
                expected: self.circuit.name().to_string(),
                found: state.circuit.clone(),
            });
        }
        if state.fingerprint != self.fingerprint() {
            return Err(ResumeError::ConfigMismatch);
        }
        Ok(self.run_from(Some(state)))
    }

    fn run_from(&self, resume: Option<ResumeState>) -> Procedure2Outcome {
        let threads = self.cfg.threads.max(1);
        let _run_span = rls_obs::span!(
            "procedure2.run",
            circuit = self.circuit.name(),
            threads = threads as u64,
            resumed = resume.is_some()
        );
        let mut campaign = self.make_campaign(threads, resume.as_ref());
        let compiled = match CompiledCircuit::compile(self.circuit.clone()) {
            Ok(compiled) => Arc::new(compiled),
            // lint: panic-ok(FaultSimulator::new panics on the same cyclic input; one contract for every thread count)
            Err(e) => panic!("circuit cannot be simulated: {e}"),
        };
        // The caller simulates the first trial of every window, so the
        // pool holds one worker fewer than the run has threads.
        let pool = (threads > 1).then(|| SharedPool::new(threads - 1));
        let mut exec = CampaignExecutor::new(&compiled, &self.chains, &self.cfg, pool);
        let outcome = self.drive(&mut exec, campaign.as_mut(), resume);
        if let Some(campaign) = campaign.as_mut() {
            if let Some(snapshot) = exec.snapshot() {
                campaign.record_workers(snapshot);
            }
        }
        // Retire the pool: its workers join and it emits its metrics.
        drop(exec);
        if let Some(campaign) = campaign.as_mut() {
            campaign.record_summary(CampaignSummary {
                detected: outcome.total_detected,
                target_faults: outcome.target_faults,
                pairs: outcome.pairs.len(),
                total_cycles: outcome.total_cycles,
                complete: outcome.complete,
                iterations: outcome.iterations,
            });
            if let Some(path) = campaign.path() {
                eprintln!("[procedure2] campaign record: {}", path.display());
            }
        }
        outcome
    }

    /// Builds the campaign sink: append to the resume source if there is
    /// one, else create a fresh file under `campaign_dir`, else record in
    /// memory only. Persistence trouble degrades to in-memory recording.
    fn make_campaign(&self, threads: usize, resume: Option<&ResumeState>) -> Option<Campaign> {
        let name = self.circuit.name();
        if let Some(source) = resume.and_then(|s| s.source.as_deref()) {
            return Some(match Campaign::append_to(source, name, threads) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("[procedure2] cannot append to campaign file: {e}");
                    Campaign::new(name, threads)
                }
            });
        }
        let dir = self.cfg.campaign_dir.as_ref()?;
        let print = self.fingerprint();
        Some(match Campaign::create(dir, name, threads, print) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("[procedure2] cannot create campaign file: {e}");
                Campaign::new(name, threads)
            }
        })
    }

    /// The greedy selection loop, generic over how a set is simulated.
    ///
    /// With `resume`, the `TS0` phase is skipped (its effect is restored
    /// by restricting the executor to the checkpointed live list) and the
    /// loop re-enters mid-iteration at the checkpointed `D1` position;
    /// every later trial derives its test set from `(seeds, I, D1)`
    /// exactly as the uninterrupted run would, so the outcomes coincide.
    fn drive<E: TrialExecutor>(
        &self,
        exec: &mut E,
        mut campaign: Option<&mut Campaign>,
        resume: Option<ResumeState>,
    ) -> Procedure2Outcome {
        // A complete scan operation costs a cycle per position of the
        // longest chain.
        let scan_len = self.chains.max_chain_len();
        let d2 = self.cfg.d2(scan_len);
        let base_cycles = ncyc0(scan_len, self.cfg.la, self.cfg.lb, self.cfg.n);
        let print = self.fingerprint();
        let fill_width = self.chains.chains().len();

        // Step 2: TS0 (regenerated even on resume — later trials derive
        // their sets from it).
        let ts0_gen_span = rls_obs::span!("procedure2.ts0_gen");
        let ts0 = generate_ts0_on(self.circuit, &self.chains, &self.cfg);
        drop(ts0_gen_span);
        let vector_units: u64 = ts0.iter().map(|t| t.len() as u64).sum();

        // Every checkpoint record is this post-`TS0` state with the fields
        // that moved since replaced: what a resume needs to re-enter with
        // the next trial at `(iteration, d1_pos)`.
        let mut base = ResumeState {
            circuit: self.circuit.name().to_string(),
            fingerprint: print,
            iteration: 0,
            d1_pos: 0,
            in_iteration: false,
            improved: false,
            n_same_fc: 0,
            total_cycles: base_cycles,
            initial_detected: 0,
            initial_cycles: base_cycles,
            target_faults: 0,
            live: Vec::new(),
            pairs: Vec::new(),
            source: None,
        };
        let mut pairs: Vec<SelectedPair>;
        let mut total_cycles;
        let mut iterations;
        let mut n_same_fc;
        // Mid-iteration entry point: `(iteration, d1_pos, improved)`.
        let mut entry: Option<(u64, usize, bool)> = None;
        if let Some(state) = resume {
            rls_obs::counter!("procedure2.resumes", 1, iteration = state.iteration);
            base.target_faults = state.target_faults;
            base.initial_detected = state.initial_detected;
            exec.restrict(&state.live);
            pairs = state.pairs;
            total_cycles = state.total_cycles;
            n_same_fc = state.n_same_fc;
            iterations = state.iteration;
            if state.in_iteration {
                entry = Some((state.iteration, state.d1_pos, state.improved));
            }
        } else {
            base.target_faults = exec.live().len();
            let ts0_span = rls_obs::span!("procedure2.ts0", tests = ts0.len());
            let ts0_start = Instant::now(); // lint: det-ok(wall time is campaign-record metadata; selection never reads it)
            base.initial_detected = exec.apply_trial(0, &ts0);
            drop(ts0_span);
            if let Some(c) = campaign.as_deref_mut() {
                c.record_initial(
                    ts0.len(),
                    base.initial_detected,
                    ts0_start.elapsed().as_nanos() as u64,
                );
            }
            // First checkpoint: the post-TS0 state.
            record_checkpoint(campaign.as_deref_mut(), || ResumeState {
                live: exec.live().to_vec(),
                ..base.clone()
            });
            pairs = Vec::new();
            total_cycles = base_cycles;
            iterations = 0;
            n_same_fc = 0;
        }
        let (target_faults, initial_detected) = (base.target_faults, base.initial_detected);

        let d1_values = self.cfg.d1_order.values(self.cfg.d1_max);
        let mut degrade_logged = false;
        // Steps 3–6. A mid-iteration resume re-enters its iteration
        // unconditionally (the uninterrupted run was already inside it —
        // the entry guards were checked back then); fresh iterations
        // check the guards exactly as the original `while` did.
        'outer: loop {
            let (i, start_pos, mut improved) = match entry.take() {
                Some((i, pos, improved)) => {
                    iterations = i;
                    (i, pos, improved)
                }
                None => {
                    if exec.live().is_empty()
                        || n_same_fc >= self.cfg.n_same_fc
                        || iterations >= u64::from(self.cfg.max_iterations)
                    {
                        break;
                    }
                    iterations += 1;
                    (iterations, 0, false)
                }
            };
            let _iter_span = rls_obs::span!("procedure2.iter", i = i, live = exec.live().len());
            let mut pos = start_pos;
            while pos < d1_values.len() {
                if exec.live().is_empty() {
                    break 'outer;
                }
                // The next window: as many trials as the executor runs at
                // once, all simulated against the live list as it stands.
                let end = (pos + exec.window()).min(d1_values.len());
                let window = &d1_values[pos..end]; // lint: panic-ok(pos < end <= d1_values.len())
                let sets: Vec<Vec<ScanTest>> = window
                    .iter()
                    .map(|&d1| {
                        let _span = rls_obs::span!("procedure2.derive", i = i, d1 = u64::from(d1));
                        derive_test_set_on(&ts0, &self.cfg, fill_width, i, d1, d2)
                    })
                    .collect();
                exec.start_window(&sets);
                for (k, (&d1, derived)) in window.iter().zip(&sets).enumerate() {
                    // A trial that empties the live list ends the campaign:
                    // the window's later trials leave no trace.
                    if exec.live().is_empty() {
                        break 'outer;
                    }
                    let trial_span = rls_obs::span!("procedure2.trial", i = i, d1 = u64::from(d1));
                    rls_obs::counter!("procedure2.trials", 1);
                    let trial_start = Instant::now(); // lint: det-ok(wall time is campaign-record metadata; selection never reads it)
                    let newly = exec.apply_trial(k, derived);
                    drop(trial_span);
                    // The trial's bookkeeping: coverage gauge, degrade
                    // check, campaign trial record, kept pair and its
                    // checkpoint.
                    let _record_span =
                        rls_obs::span!("procedure2.record", i = i, d1 = u64::from(d1));
                    rls_obs::gauge!(
                        "procedure2.coverage",
                        (target_faults.saturating_sub(exec.live().len())) as u64,
                        i = i,
                        d1 = u64::from(d1)
                    );
                    if exec.degraded() && !degrade_logged {
                        degrade_logged = true;
                        rls_obs::counter!("procedure2.degrades", 1, i = i, d1 = u64::from(d1));
                        if let Some(c) = campaign.as_deref_mut() {
                            c.record_raw(
                                &rls_obs::jsonl::JsonObject::new()
                                    .str("type", "degrade")
                                    .num("i", i)
                                    .num("d1", u64::from(d1))
                                    .render(),
                            );
                        }
                    }
                    if let Some(c) = campaign.as_deref_mut() {
                        c.record_trial(TrialRecord {
                            i,
                            d1,
                            tests: derived.len(),
                            newly_detected: newly,
                            kept: newly > 0,
                            live_after: exec.live().len(),
                            wall_nanos: trial_start.elapsed().as_nanos() as u64,
                        });
                    }
                    if newly > 0 {
                        improved = true;
                        let shift_cycles = nsh(derived);
                        rls_obs::counter!("procedure2.pairs_kept", 1, i = i, d1 = u64::from(d1));
                        rls_obs::histogram!("procedure2.trial_cycles", base_cycles + shift_cycles);
                        total_cycles += base_cycles + shift_cycles;
                        pairs.push(SelectedPair {
                            i,
                            d1,
                            newly_detected: newly,
                            shift_cycles,
                            limited_scan_units: derived
                                .iter()
                                .map(|t| t.limited_scan_units() as u64)
                                .sum(),
                            vector_units,
                        });
                        // Checkpoint after every accepted pair: the next
                        // trial to run is `(i, pos + k + 1)`.
                        record_checkpoint(campaign.as_deref_mut(), || ResumeState {
                            iteration: i,
                            d1_pos: pos + k + 1,
                            in_iteration: true,
                            improved: true,
                            n_same_fc,
                            total_cycles,
                            live: exec.live().to_vec(),
                            pairs: pairs.clone(),
                            ..base.clone()
                        });
                    }
                }
                pos = end;
            }
            if improved {
                n_same_fc = 0;
            } else {
                n_same_fc += 1;
            }
        }
        // Arithmetic rather than asking the executor: provably equal for
        // a fresh run (every detection is either initial or in a pair),
        // and the only correct accounting after a resume, where the
        // executor never saw the pre-checkpoint detections.
        let total_detected =
            initial_detected + pairs.iter().map(|p| p.newly_detected).sum::<usize>();
        Procedure2Outcome {
            initial_detected,
            initial_cycles: base_cycles,
            pairs,
            total_detected,
            target_faults,
            total_cycles,
            complete: exec.live().is_empty(),
            iterations,
            undetected: exec.live().to_vec(),
        }
    }
}

/// Appends the checkpoint `state` builds to the campaign file, when the
/// run has one (the state is not built otherwise).
fn record_checkpoint(campaign: Option<&mut Campaign>, state: impl FnOnce() -> ResumeState) {
    let Some(c) = campaign.filter(|c| c.has_sink()) else {
        return;
    };
    c.record_raw(&state().render());
    rls_obs::counter!("procedure2.checkpoints", 1);
}

/// How the driver simulates its trials against the remaining faults.
///
/// The contract that keeps all implementations bit-identical: a trial
/// drops and counts the *unique* faults its set detects out of the live
/// list as the trials before it left it. Which test within the set
/// detects a fault is bookkeeping-irrelevant (the union is invariant),
/// and so is how early a trial is simulated, as long as it is applied in
/// order — which is what lets the pool-backed executor run a window's
/// trials at once.
pub(crate) trait TrialExecutor {
    /// The undetected target faults, in live-list order.
    fn live(&self) -> &[FaultId];
    /// How many trials one window holds.
    fn window(&self) -> usize;
    /// Starts a window of trials: every set after the first may be
    /// simulated from now on, against the live list as it stands.
    fn start_window(&mut self, sets: &[Vec<ScanTest>]);
    /// Settles trial `k` of the current window — or, with `k = 0`, runs a
    /// lone set such as `TS0` — dropping and counting its newly detected
    /// faults. Trials are settled in window order.
    fn apply_trial(&mut self, k: usize, tests: &[ScanTest]) -> usize;
    /// Restricts the live list to exactly `live` (checkpoint resume).
    fn restrict(&mut self, live: &[FaultId]);
    /// Whether the executor has permanently fallen back to the
    /// sequential path after unrecoverable job failures.
    fn degraded(&self) -> bool;
}

/// The one trial executor: a [`FaultSimulator`] owns the campaign's
/// fault list, and an optional [`SharedSetRunner`] simulates all but the
/// first trial of every window on a pool.
///
/// Built from the compiled circuit, the run configuration, and, for a
/// pooled run, the campaign's [`SharedPool`], so `observe` and
/// [`CoverageTarget::Faults`] are applied here for every thread count.
/// Without a runner every window holds one trial, which runs through
/// [`FaultSimulator::run_tests`]. With one, a window holds one trial
/// more than the pool has workers: the first runs on the simulator while
/// the runner simulates the others against the window-start live list,
/// and the simulator applies their detections at their turn.
///
/// If a pool trial's job keeps failing through the retry budget (a
/// poisoned job), the executor *degrades*: it runs that trial — which
/// the runner left unapplied — on the simulator at its turn, and every
/// later set there too. The sequential path is the oracle the pool is
/// tested against, so the outcome is unchanged; only the wall clock
/// suffers.
pub(crate) struct CampaignExecutor {
    sim: FaultSimulator,
    /// The pool's runner, kept after a degrade for its worker counters.
    runner: Option<SharedSetRunner>,
    degraded: bool,
    /// The current window's pool trials, until the first of them is
    /// settled.
    submitted: Option<Submitted>,
    /// The current window's pool results, in trial order.
    pooled: std::vec::IntoIter<Result<Vec<FaultId>, SetFailure>>,
}

impl CampaignExecutor {
    /// An executor targeting what `cfg.target` names through the scan
    /// chains of `chains`: pooled on `pool` if there is one, sequential
    /// otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `chains` covers a different number of flip-flops than
    /// the circuit has.
    pub fn new(
        compiled: &Arc<CompiledCircuit>,
        chains: &ChainMap,
        cfg: &RlsConfig,
        pool: Option<SharedPool>,
    ) -> Self {
        let mut sim = FaultSimulator::on(Arc::clone(compiled));
        sim.set_chains(chains.clone());
        sim.set_options(cfg.observe);
        if let CoverageTarget::Faults(targets) = &cfg.target {
            sim.set_targets(targets);
        }
        let runner = pool.map(|pool| {
            SharedSetRunner::new(Arc::clone(compiled), chains.clone(), cfg.observe, pool)
        });
        CampaignExecutor {
            sim,
            runner,
            degraded: false,
            submitted: None,
            pooled: Vec::new().into_iter(),
        }
    }

    /// The campaign's worker counters — the payload of the `workers`
    /// record — or `None` for a run without a pool. The lanes of the
    /// sets the simulator ran on the caller thread are folded in, so
    /// `lanes_used`/`capacity` cover the whole campaign.
    pub fn snapshot(&self) -> Option<PoolSnapshot> {
        let mut snapshot = self.runner.as_ref()?.pool().snapshot();
        let lanes = self.sim.lane_stats();
        snapshot.caller = (!lanes.is_empty()).then_some(lanes);
        Some(snapshot)
    }

    /// The runner, while the campaign has not degraded.
    fn active(&self) -> Option<&SharedSetRunner> {
        self.runner.as_ref().filter(|_| !self.degraded)
    }

    /// Stops using the pool: this and every later trial runs on the
    /// simulator. Detections are bit-identical because the simulator owns
    /// the live list every trial is applied to.
    pub fn force_degrade(&mut self) {
        self.degraded = self.runner.is_some();
    }

    /// Trial `k`'s detections from the pool, collecting the window's pool
    /// trials at the first one's turn; `None` when trial `k` runs on the
    /// simulator (the window's first, no pool, or its job failed — which
    /// degrades the campaign).
    fn pooled_result(&mut self, k: usize) -> Option<Vec<FaultId>> {
        if k == 0 {
            return None;
        }
        let runner = self.runner.as_ref().filter(|_| !self.degraded)?;
        if let Some(submitted) = self.submitted.take() {
            self.pooled = runner.collect_sets(submitted).into_iter();
        }
        match self.pooled.next()? {
            Ok(newly) => Some(newly),
            Err(e) => {
                eprintln!(
                    "[procedure2] parallel trial failed ({e}); \
                     degrading campaign to the sequential simulator"
                );
                // The moment worth a post-mortem: mark it and dump the
                // flight recorder's window.
                rls_obs::mark!("dispatch.degrade");
                if let Some(path) = rls_obs::recorder::dump("degrade") {
                    eprintln!("[procedure2] flight-recorder dump: {}", path.display());
                }
                self.force_degrade();
                None
            }
        }
    }
}

impl TrialExecutor for CampaignExecutor {
    fn live(&self) -> &[FaultId] {
        self.sim.live()
    }

    fn window(&self) -> usize {
        self.active().map_or(1, |r| r.pool().threads() + 1)
    }

    fn start_window(&mut self, sets: &[Vec<ScanTest>]) {
        self.submitted = match (self.active(), sets.get(1..)) {
            (Some(runner), Some(rest)) if !rest.is_empty() => {
                Some(runner.submit(self.sim.live(), rest.to_vec()))
            }
            _ => None,
        };
    }

    fn apply_trial(&mut self, k: usize, tests: &[ScanTest]) -> usize {
        match self.pooled_result(k) {
            Some(newly) => self.sim.apply_detections(&newly),
            None => self.sim.run_tests(tests),
        }
    }

    fn restrict(&mut self, live: &[FaultId]) {
        self.sim.set_targets(live);
    }

    fn degraded(&self) -> bool {
        self.degraded
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::D1Order;
    use crate::ts0::generate_ts0;

    #[test]
    fn s27_reaches_complete_coverage() {
        let c = rls_benchmarks::s27();
        let cfg = RlsConfig::new(4, 8, 8);
        let out = Procedure2::new(&c, cfg).run();
        assert_eq!(out.target_faults, 32);
        assert!(out.complete, "undetected: {:?}", out.undetected);
        assert_eq!(out.total_detected, 32);
        assert!(out.final_coverage().is_complete());
    }

    #[test]
    fn initial_cycles_match_formula() {
        let c = rls_benchmarks::s27();
        let cfg = RlsConfig::new(4, 8, 8);
        let out = Procedure2::new(&c, cfg).run();
        assert_eq!(out.initial_cycles, ncyc0(3, 4, 8, 8));
    }

    #[test]
    fn total_cycles_account_for_every_pair() {
        let c = rls_benchmarks::s27();
        let cfg = RlsConfig::new(2, 3, 2); // tiny: forces several pairs
        let out = Procedure2::new(&c, cfg).run();
        let expect: u64 = out.initial_cycles
            + out
                .pairs
                .iter()
                .map(|p| out.initial_cycles + p.shift_cycles)
                .sum::<u64>();
        assert_eq!(out.total_cycles, expect);
    }

    #[test]
    fn pairs_only_kept_when_they_detect() {
        let c = rls_benchmarks::s27();
        let cfg = RlsConfig::new(4, 8, 8);
        let out = Procedure2::new(&c, cfg).run();
        for p in &out.pairs {
            assert!(p.newly_detected > 0);
        }
        let pair_total: usize = out.pairs.iter().map(|p| p.newly_detected).sum();
        assert_eq!(out.initial_detected + pair_total, out.total_detected);
    }

    #[test]
    fn gives_up_after_n_same_fc_without_improvement() {
        // Target a fault list that includes nothing detectable: procedure
        // must terminate by the no-improvement rule.
        let c = rls_benchmarks::s27();
        let mut cfg = RlsConfig::new(2, 2, 1);
        cfg.n_same_fc = 2;
        cfg.max_iterations = 50;
        // An absurd D2 of 1 makes every shift draw zero => schedules are
        // empty; combined with a tiny TS0 some faults stay undetected.
        cfg.d2_override = Some(1);
        let out = Procedure2::new(&c, cfg).run();
        if !out.complete {
            assert!(out.iterations <= 50);
            assert!(!out.undetected.is_empty());
        }
    }

    #[test]
    fn decreasing_order_prefers_large_d1() {
        let c = rls_benchmarks::s27();
        let cfg = RlsConfig::new(4, 8, 8).with_d1_order(D1Order::Decreasing);
        let out = Procedure2::new(&c, cfg).run();
        if let Some(first) = out.pairs.first() {
            // The first pair tried (and selected) in an iteration comes
            // from the high end of the D1 range.
            assert!(first.d1 >= 5, "first selected D1 = {}", first.d1);
        }
    }

    #[test]
    fn explicit_target_narrows_completion() {
        let c = rls_benchmarks::s27();
        let base = RlsConfig::new(4, 8, 8);
        let full = Procedure2::new(&c, base.clone()).run();
        // Re-run targeting only the faults TS0 already detects: complete
        // with zero pairs.
        let easy: Vec<FaultId> = {
            let mut s = FaultSimulator::new(&c);
            let ts0 = generate_ts0(&c, &base);
            for t in &ts0 {
                s.run_test(t);
            }
            s.detected().to_vec()
        };
        let cfg = base.with_target(CoverageTarget::Faults(easy.clone()));
        let out = Procedure2::new(&c, cfg).run();
        assert!(out.complete);
        assert_eq!(out.target_faults, easy.len());
        assert!(out.pairs.is_empty());
        assert!(full.total_detected >= out.total_detected);
    }

    #[test]
    fn ls_average_none_without_pairs() {
        let c = rls_benchmarks::s27();
        let easy: Vec<FaultId> = {
            let mut s = FaultSimulator::new(&c);
            let cfg = RlsConfig::new(4, 8, 8);
            let ts0 = generate_ts0(&c, &cfg);
            for t in &ts0 {
                s.run_test(t);
            }
            s.detected().to_vec()
        };
        let cfg = RlsConfig::new(4, 8, 8).with_target(CoverageTarget::Faults(easy));
        let out = Procedure2::new(&c, cfg).run();
        assert!(out.ls_average().is_none());
    }

    #[test]
    fn resume_from_final_checkpoint_matches_uninterrupted() {
        let c = rls_benchmarks::s27();
        let dir = std::env::temp_dir().join(format!("rls-p2-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = RlsConfig::new(4, 8, 8).with_campaign_dir(&dir);
        let full = Procedure2::new(&c, cfg.clone()).run();
        let file = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().is_some_and(|x| x == "jsonl"))
            .expect("campaign file written");
        let state = crate::resume::load_checkpoint(&file).unwrap();
        assert!(!state.pairs.is_empty() || state.iteration == 0);
        let resumed = Procedure2::new(&c, cfg.clone()).resume(state).unwrap();
        assert_eq!(resumed, full, "resume converges to the same outcome");
        // The campaign file now carries the resume seam.
        let text = std::fs::read_to_string(&file).unwrap();
        assert!(text.contains(r#""type":"resume""#));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_rejects_foreign_checkpoints() {
        let c = rls_benchmarks::s27();
        let cfg = RlsConfig::new(4, 8, 8);
        let state = crate::resume::ResumeState {
            circuit: "s27".to_string(),
            fingerprint: 0, // wrong by construction
            iteration: 0,
            d1_pos: 0,
            in_iteration: false,
            improved: false,
            n_same_fc: 0,
            total_cycles: 0,
            initial_detected: 0,
            initial_cycles: 0,
            target_faults: 32,
            live: Vec::new(),
            pairs: Vec::new(),
            source: None,
        };
        let e = Procedure2::new(&c, cfg.clone())
            .resume(state.clone())
            .unwrap_err();
        assert!(
            matches!(e, crate::resume::ResumeError::ConfigMismatch),
            "{e}"
        );
        let mut other = state;
        other.circuit = "s208".to_string();
        let e = Procedure2::new(&c, cfg).resume(other).unwrap_err();
        assert!(
            matches!(e, crate::resume::ResumeError::CircuitMismatch { .. }),
            "{e}"
        );
    }

    #[test]
    fn checkpoints_do_not_cross_scan_architectures() {
        // A partial-scan checkpoint resumes only a partial-scan run on
        // the same chain, and a full-scan checkpoint only a full-scan run.
        let c = rls_benchmarks::s27();
        let dir = std::env::temp_dir().join(format!("rls-p2-chains-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = RlsConfig::new(2, 3, 2).with_campaign_dir(&dir);
        let partial = ChainMap::from(&rls_scan::PartialScan::new(3, vec![0, 2]));
        let full = || Procedure2::new(&c, cfg.clone());
        let on_chain = || Procedure2::new(&c, cfg.clone()).with_chains(partial.clone());
        let checkpoint = |procedure: Procedure2<'_>| {
            let outcome = procedure.run();
            let print = procedure.fingerprint();
            let file = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().path())
                .find(|p| p.to_string_lossy().contains(&format!("{print:016x}")))
                .expect("campaign file written");
            (outcome, crate::resume::load_checkpoint(&file).unwrap())
        };
        let (partial_outcome, from_partial) = checkpoint(on_chain());
        let (_, from_full) = checkpoint(full());
        assert_ne!(from_partial.fingerprint, from_full.fingerprint);
        for (procedure, state) in [(full(), &from_partial), (on_chain(), &from_full)] {
            let e = procedure.resume(state.clone()).unwrap_err();
            assert!(matches!(e, ResumeError::ConfigMismatch), "{e}");
        }
        let resumed = on_chain().resume(from_partial).unwrap();
        assert_eq!(resumed, partial_outcome);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Runs every trial through `inner`, dropping its runner before trial
    /// `k` (`TS0` counts as the first), and records the lanes each trial
    /// cost the executor's own simulator.
    struct DegradeAt {
        inner: CampaignExecutor,
        k: usize,
        trials: usize,
        lanes: Vec<rls_fsim::LaneStats>,
    }

    impl TrialExecutor for DegradeAt {
        fn live(&self) -> &[FaultId] {
            self.inner.live()
        }

        fn window(&self) -> usize {
            self.inner.window()
        }

        fn start_window(&mut self, sets: &[Vec<ScanTest>]) {
            self.inner.start_window(sets);
        }

        fn apply_trial(&mut self, k: usize, tests: &[ScanTest]) -> usize {
            if self.trials == self.k {
                self.inner.force_degrade();
            }
            self.trials += 1;
            let before = self.inner.sim.lane_stats();
            let newly = self.inner.apply_trial(k, tests);
            let after = self.inner.sim.lane_stats();
            self.lanes.push(rls_fsim::LaneStats {
                batches: after.batches - before.batches,
                lanes_used: after.lanes_used - before.lanes_used,
                lanes_capacity: after.lanes_capacity - before.lanes_capacity,
            });
            newly
        }

        fn restrict(&mut self, live: &[FaultId]) {
            self.inner.restrict(live);
        }

        fn degraded(&self) -> bool {
            self.inner.degraded()
        }
    }

    #[test]
    fn degrading_at_any_trial_boundary_keeps_the_outcome() {
        // A pooled campaign handed to its simulator before any trial,
        // from the first to past the last, finishes exactly as the
        // sequential run does. Every trial the caller simulated costs it
        // exactly the sequential run's lanes for that trial (it sees the
        // same live list), the pool's trials cost it none, and the
        // workers record accounts for the caller's lanes.
        for name in ["s27", "s208"] {
            let c = rls_benchmarks::by_name(name).unwrap();
            let mut cfg = RlsConfig::new(2, 3, 2);
            cfg.max_iterations = 2;
            let compiled = Arc::new(CompiledCircuit::compile(c.clone()).unwrap());
            let procedure = Procedure2::new(&c, cfg.clone());
            let chains = procedure.chains();
            let mut oracle = DegradeAt {
                inner: CampaignExecutor::new(&compiled, chains, &cfg, None),
                k: usize::MAX,
                trials: 0,
                lanes: Vec::new(),
            };
            let expect = procedure.drive(&mut oracle, None, None);
            assert_eq!(
                expect,
                procedure.run(),
                "{name}: the wrapper is transparent"
            );
            for threads in [2, 4] {
                for k in 0..=oracle.trials {
                    let mut exec = DegradeAt {
                        inner: CampaignExecutor::new(
                            &compiled,
                            chains,
                            &cfg,
                            Some(SharedPool::new(threads - 1)),
                        ),
                        k,
                        trials: 0,
                        lanes: Vec::new(),
                    };
                    let got = procedure.drive(&mut exec, None, None);
                    let at = format!("{name} x {threads} threads, degraded before trial {k}");
                    assert_eq!(got, expect, "{at}");
                    assert_eq!(exec.degraded(), k < oracle.trials, "{at}");
                    assert_eq!(exec.trials, oracle.trials, "{at}");
                    let mut caller = rls_fsim::LaneStats::default();
                    for (t, (&got, &want)) in exec.lanes.iter().zip(&oracle.lanes).enumerate() {
                        assert!(got == want || (t < k && got.is_empty()), "{at}, trial {t}");
                        caller += got;
                    }
                    let snap = exec.inner.snapshot().expect("a pooled run has a snapshot");
                    assert_eq!(snap.caller.unwrap_or_default(), caller, "{at}");
                }
            }
        }
    }

    #[test]
    fn outcome_is_reproducible() {
        let c = rls_benchmarks::s27();
        let cfg = RlsConfig::new(4, 8, 8);
        let a = Procedure2::new(&c, cfg.clone()).run();
        let b = Procedure2::new(&c, cfg).run();
        assert_eq!(a.pairs, b.pairs);
        assert_eq!(a.total_detected, b.total_detected);
        assert_eq!(a.total_cycles, b.total_cycles);
    }
}
