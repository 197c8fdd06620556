//! Levelized SoA fault-simulation kernel with (fault × pattern) tiles —
//! the crate's one stuck-at kernel.
//!
//! The kernel sweeps the dense slot arrays of a [`LevelizedCircuit`] —
//! one contiguous `Vec<KernelWord>` of values, an opcode table and a CSR fanin
//! table — instead of walking [`rls_netlist::Node`] objects per gate, so
//! the hot loop is branch-light and pointer-chase-free.
//!
//! # Two lane axes and a reference lane
//!
//! A [`KernelWord`] carries [`KernelWord::LANES`] machines, split across
//! *two* axes: a tile of `T` tests (patterns), each owning `C + 1` lanes
//! for a batch of `C` faults, with `T * (C + 1) <= KernelWord::LANES`. Pattern `p` owns
//! the contiguous lane range `[p*(C+1), (p+1)*(C+1))`:
//!
//! ```text
//!   pattern 0                       pattern 1
//!   | ref | f0 | f1 | … | fC-1 |    | ref | f0 | f1 | … | fC-1 |   …
//!     0     1    2        C          C+1   C+2
//! ```
//!
//! Lane `p*(C+1)` carries no forces: it *is* the fault-free machine under
//! test `p`, so the kernel needs no precomputed good trace. Fault `j`
//! sits in lane `p*(C+1) + 1 + j`. At every observation point (primary
//! outputs, limited-scan scan-out bits, the final scan-out) each word is
//! compared with its pattern's reference bit broadcast across the
//! pattern's range; the detection and early-exit mask covers the fault
//! lanes only. The broadcast is one word operation at any height: the
//! reference lanes sit `C + 1` apart, so `KernelWord::spread` of the
//! word masked to them fills every range at once. With `T = 1` the kernel
//! degenerates to the single-test layout: one reference lane plus
//! `KernelWord::LANES - 1` faults.
//!
//! Tests sharing one tile must be *shape-compatible* ([`tile_compatible`]):
//! same length and the same `(at, amount)` shift schedule. Scan-in states,
//! vectors and shift fills may all differ per pattern — they are mixed
//! into lane words per pattern range, reference lane included.
//!
//! # Stimulus mixing
//!
//! The crate's `mix` module builds each stimulus word from the tile's
//! rows eight patterns at a time: one byte per (bit, 8-pattern group),
//! from a branch-free 8×8 bit transpose of the group's packed vector
//! bytes (or read bit by bit from scan-in and fill rows), indexes a
//! per-(group, limb) table holding that limb's lanes of every set
//! pattern's whole range. A word is one table read and OR per (group,
//! limb): no loop over set bits, no per-pattern row lookup per frame and
//! no `spread`. The tables depend only on the tile's height and stride,
//! and each thread keeps the last shape's. Vector rows are gathered
//! frame-major in chunks of at most 16 KiB. A tile whose tests share one
//! schedule allocation (every same-length test of a `SeedMode::PerTest`
//! derived set) scans in the same fills, so its fill words are splats.
//!
//! # One word, heights from the live count
//!
//! [`simulate_tile_lanes`] runs on one word, [`KernelWord`] (512 lanes),
//! and every tile height is bit-identical. Production picks each tile's
//! height with one fill rule: [`fill_height`] takes the live fault count
//! and the length of the
//! [`compatible_run`] starting at the next test, and returns the height
//! that needs the fewest kernel passes — or 1 once a
//! single test's faults fill whole words. A long live list gives short
//! tiles with many fault lanes each; a thin tail of tens of faults gives
//! tall tiles that pack many tests into one word. Both the sequential
//! engine and the dispatch pool re-plan before every tile.
//! Tests and `bench_fsim_lanes` also run fixed heights (1/2/4/8 and up
//! to 128 on a thin tail; 3, 9, 65 and 256 too in the oracle, whose
//! pattern ranges start mid-limb), which keeps edge cases cheap to cover
//! and the fill rule backed by a measurement.
//!
//! # Scan style as data
//!
//! Full, partial and multichain scan differ only in a [`ChainMap`]: the
//! initial scan-in loads the map's load positions (every other flip-flop
//! starts at reset 0), a limited scan of `k` cycles moves every chain `k`
//! positions with `k × chains` fill bits, and the final scan-out reads the
//! map's observe positions.
//!
//! # Fault injection as sorted patch lists
//!
//! Forces are sorted patch lists applied at level-run boundaries: every
//! consumer of a gate sits at a strictly higher level, so patching a
//! run's outputs after bulk-evaluating the run is indistinguishable from
//! patching each gate as it is computed. Within a run, pin re-evaluations
//! are applied before stem patches (fanin forces feed the gate function,
//! stem forces override its output).
//!
//! # Verification
//!
//! The reference is the scalar one-fault-at-a-time simulator
//! ([`crate::GoodSim::simulate_faulty`] compared by
//! [`crate::good::traces_differ`]), which reads the same [`ChainMap`] but
//! shares no word code with this kernel. The differential oracle
//! (`tests/soa_oracle.rs` plus the in-crate tests below) proves the
//! kernel order-exact against it across every tile height, fault-chunk
//! length, observation mix, scan style and thread count. The
//! `kernel-mutate` feature compiles in seeded single-site corruptions
//! (the feature-gated `mutate` module) used by the mutation self-tests to prove the oracle
//! actually turns red.

use std::sync::Arc;

use rls_netlist::{Circuit, GateKind, LevelizedCircuit};
use rls_scan::ChainMap;

use crate::fault::{Fault, FaultId, FaultSite};
use crate::mix::TileStimulus;
use crate::test::ScanTest;
use crate::word::KernelWord;

/// Which observation points count toward detection.
///
/// The default observes everything (the paper's model). Switching
/// individual points off isolates the detection mechanisms of the paper's
/// Section 2 — e.g. how much the mid-test scan-out of limited scans
/// contributes versus the state change they cause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimOptions {
    /// Observe primary outputs at every applied vector.
    pub observe_outputs: bool,
    /// Observe the bits scanned out during limited scan operations.
    pub observe_limited_scan_out: bool,
    /// Observe the final complete scan-out.
    pub observe_final_scan_out: bool,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            observe_outputs: true,
            observe_limited_scan_out: true,
            observe_final_scan_out: true,
        }
    }
}

/// A force applied to a word: `w = (w & and) | or`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Force {
    and: KernelWord,
    or: KernelWord,
}

impl Force {
    const NONE: Force = Force {
        and: KernelWord::ONES,
        or: KernelWord::ZERO,
    };

    #[inline]
    fn add(&mut self, lane: usize, stuck: bool) {
        if stuck {
            self.or.set_lane(lane, true);
        } else {
            self.and.set_lane(lane, false);
        }
    }

    #[inline]
    fn apply(self, w: KernelWord) -> KernelWord {
        (w & self.and) | self.or
    }
}

/// Whether two tests may share one tile: same length and the same
/// `(at, amount)` shift schedule (fills and scan-ins may differ — they
/// are per-pattern data, not shape).
pub fn tile_compatible(a: &ScanTest, b: &ScanTest) -> bool {
    a.len() == b.len()
        && a.shifts.len() == b.shifts.len()
        && a.shifts
            .iter()
            .zip(b.shifts.iter())
            .all(|(x, y)| x.at == y.at && x.amount == y.amount)
}

/// The length of the run of consecutive tests from `start` that are
/// [`tile_compatible`] with `tests[start]`: the tallest tile that may
/// start there. Zero when `start` is past the end.
pub fn compatible_run(tests: &[ScanTest], start: usize) -> usize {
    let Some(first) = tests.get(start) else {
        return 0;
    };
    tests
        .iter()
        .skip(start)
        .take_while(|t| tile_compatible(first, t))
        .count()
}

/// Kernel passes that simulate `run` tests against `live` faults in
/// `height`-tall tiles of [`KernelWord`]s: `ceil(run / height)` tiles,
/// each split into `ceil(live / capacity)` fault chunks. `height` must be
/// in `1..=max_tile_height()`.
const fn kernel_passes(live: usize, run: usize, height: usize) -> usize {
    run.div_ceil(height) * live.div_ceil(tile_fault_capacity(height))
}

/// The fill rule: the tile height for `live` faults over a compatible run
/// of `run` tests.
///
/// While one test leaves fault lanes of the word empty (`live` at most
/// [`tile_fault_capacity`] of a 1-tall tile), the height `h` in
/// `1..=min(run, max_tile_height)` that minimises the kernel passes,
/// `ceil(run / h) · ceil(live / tile_fault_capacity(h))`; ties
/// go to the shorter tile, so drop-as-you-go drops detected faults
/// sooner. A live list that fills whole 1-tall words runs 1 tall: there
/// packing only trims the last chunk's rounding, while every extra test
/// in the tile is simulated against faults its predecessors would have
/// dropped. The result is always at least 1.
pub fn fill_height(live: usize, run: usize) -> usize {
    if live > tile_fault_capacity(1) {
        return 1;
    }
    let tallest = run.clamp(1, max_tile_height());
    // `min_by_key` keeps the first minimum: the shortest tied height.
    (1..=tallest)
        .min_by_key(|&h| kernel_passes(live, run, h))
        .unwrap_or(1)
}

/// Pin patches of one gate: `(pin, force)` pairs in ascending pin order.
#[derive(Debug)]
struct PinPatch {
    gate: u32,
    pins: Vec<(u32, Force)>,
}

/// A prepared `patterns × (1 + faults)` tile of at most
/// `KernelWord::LANES` lanes: per pattern one force-free reference lane,
/// then one lane per fault.
///
/// All patch lists are sorted by their application key so the kernel can
/// walk them with a cursor as it sweeps the level runs.
#[derive(Debug)]
struct SoaBatch {
    ids: Vec<FaultId>,
    patterns: usize,
    /// Stem forces on source slots (inputs/constants), by ascending slot.
    source_stem: Vec<(u32, Force)>,
    /// Stem forces on gate outputs, by ascending gate index (eval order).
    gate_stem: Vec<(u32, Force)>,
    /// Branch forces on gate fanin pins, grouped per gate, ascending.
    pin_gates: Vec<PinPatch>,
    /// Stuck register outputs by chain position, re-applied after every
    /// state mutation.
    ff_pos: Vec<(usize, Force)>,
    /// Branch forces on flip-flop data pins by chain position, applied to
    /// the captured word.
    ff_capture: Vec<(usize, Force)>,
}

/// Sorts raw `(key, fault index, stuck)` entries and folds equal keys into
/// one [`Force`] covering the fault's lane in every pattern (lane
/// `p * stride + 1 + j`; the reference lane `p * stride` stays force-free).
fn fold_forces<K: Ord + Copy>(
    mut raw: Vec<(K, usize, bool)>,
    patterns: usize,
    stride: usize,
) -> Vec<(K, Force)> {
    raw.sort_by_key(|&(k, _, _)| k);
    let mut out: Vec<(K, Force)> = Vec::new();
    for (k, j, stuck) in raw {
        if out.last().map(|&(lk, _)| lk) != Some(k) {
            out.push((k, Force::NONE));
        }
        let f = &mut out.last_mut().expect("pushed on the previous line").1; // lint: panic-ok(out is nonempty here by construction)
        for p in 0..patterns {
            f.add(p * stride + 1 + j, stuck);
        }
    }
    out
}

impl SoaBatch {
    /// Prepares a tile of `patterns` × (reference lane + `faults`); the
    /// caller has checked that it fits one word.
    fn new(
        circuit: &Circuit,
        lc: &LevelizedCircuit,
        faults: &[(FaultId, Fault)],
        patterns: usize,
    ) -> Self {
        let stride = faults.len() + 1;
        let num_sources = lc.num_sources();
        let mut src: Vec<(u32, usize, bool)> = Vec::new();
        let mut gstem: Vec<(u32, usize, bool)> = Vec::new();
        let mut pins: Vec<((u32, u32), usize, bool)> = Vec::new();
        let mut ffp: Vec<(usize, usize, bool)> = Vec::new();
        let mut ffc: Vec<(usize, usize, bool)> = Vec::new();
        for (j, &(_, fault)) in faults.iter().enumerate() {
            match fault.site {
                FaultSite::Stem(net) => {
                    if let Some(pos) = circuit.dff_position(net) {
                        ffp.push((pos, j, fault.stuck));
                    } else {
                        let slot = lc.slot(net);
                        if (slot as usize) < num_sources {
                            src.push((slot, j, fault.stuck));
                        } else {
                            gstem.push((slot - num_sources as u32, j, fault.stuck));
                        }
                    }
                }
                FaultSite::Branch { node, pin } => {
                    if let Some(pos) = circuit.dff_position(node) {
                        ffc.push((pos, j, fault.stuck));
                    } else {
                        pins.push(((lc.slot(node) - num_sources as u32, pin), j, fault.stuck));
                    }
                }
            }
        }
        let pin_forces = fold_forces(pins, patterns, stride);
        let mut pin_gates: Vec<PinPatch> = Vec::new();
        for ((gate, pin), f) in pin_forces {
            match pin_gates.last_mut() {
                Some(pp) if pp.gate == gate => pp.pins.push((pin, f)),
                _ => pin_gates.push(PinPatch {
                    gate,
                    pins: vec![(pin, f)],
                }),
            }
        }
        SoaBatch {
            ids: faults.iter().map(|&(id, _)| id).collect(),
            patterns,
            source_stem: fold_forces(src, patterns, stride),
            gate_stem: fold_forces(gstem, patterns, stride),
            pin_gates,
            ff_pos: fold_forces(ffp, patterns, stride),
            ff_capture: fold_forces(ffc, patterns, stride),
        }
    }

    /// Lanes per pattern: the reference lane plus one lane per fault.
    fn stride(&self) -> usize {
        self.ids.len() + 1
    }

    #[inline]
    fn force_state(&self, state: &mut [KernelWord]) {
        for &(pos, f) in &self.ff_pos {
            state[pos] = f.apply(state[pos]); // lint: panic-ok(ff positions index the dense state vector)
        }
    }
}

/// Evaluates one gate from its fanin slots — the branch-light heart of the
/// kernel, with dedicated unary/binary fast paths.
#[inline]
fn eval_gate(op: GateKind, fanins: &[u32], values: &[KernelWord]) -> KernelWord {
    match fanins {
        [a] => {
            let x = values[*a as usize]; // lint: panic-ok(fanin slots index the dense value array)
            match op {
                GateKind::Not | GateKind::Nand | GateKind::Nor | GateKind::Xnor => !x,
                _ => x,
            }
        }
        [a, b] => {
            let x = values[*a as usize]; // lint: panic-ok(fanin slots index the dense value array)
            let y = values[*b as usize]; // lint: panic-ok(fanin slots index the dense value array)
            match op {
                GateKind::And => x & y,
                GateKind::Nand => !(x & y),
                GateKind::Or => x | y,
                GateKind::Nor => !(x | y),
                GateKind::Xor => x ^ y,
                GateKind::Xnor => !(x ^ y),
                GateKind::Buf => x,
                GateKind::Not => !x,
            }
        }
        _ => {
            let Some(&a0) = fanins.first() else {
                panic!("gate must have at least one fanin"); // lint: panic-ok(validated circuits have no fanin-less gates, mirrors GateKind::eval_lanes)
            };
            let first = values[a0 as usize]; // lint: panic-ok(fanin slots index the dense value array)
            let rest = fanins[1..].iter().map(|&f| values[f as usize]); // lint: panic-ok(fanin slots index the dense value array)
            match op {
                GateKind::And => rest.fold(first, |acc, w| acc & w),
                GateKind::Nand => !rest.fold(first, |acc, w| acc & w),
                GateKind::Or => rest.fold(first, |acc, w| acc | w),
                GateKind::Nor => !rest.fold(first, |acc, w| acc | w),
                GateKind::Xor => rest.fold(first, |acc, w| acc ^ w),
                GateKind::Xnor => !rest.fold(first, |acc, w| acc ^ w),
                GateKind::Buf => first,
                GateKind::Not => !first,
            }
        }
    }
}

/// One combinational sweep over the levelized arrays: loads sources,
/// bulk-evaluates each level run, and applies the tile's fault patches at
/// run boundaries (sound because all fanout crosses to higher levels).
fn eval_tile(
    lc: &LevelizedCircuit,
    batch: &SoaBatch,
    pi_words: &[KernelWord],
    state: &[KernelWord],
    values: &mut [KernelWord],
    fanin_buf: &mut Vec<KernelWord>,
) {
    for (k, &s) in lc.input_slots().iter().enumerate() {
        values[s as usize] = pi_words[k]; // lint: panic-ok(one PI word per input slot, values dense over slots)
    }
    for (i, &s) in lc.dff_slots().iter().enumerate() {
        // State words already carry flip-flop stem forces.
        values[s as usize] = state[i]; // lint: panic-ok(one state word per dff slot, values dense over slots)
    }
    for &(s, v) in lc.const_slots() {
        values[s as usize] = KernelWord::splat(v); // lint: panic-ok(const slots index the dense value array)
    }
    for &(s, f) in &batch.source_stem {
        values[s as usize] = f.apply(values[s as usize]); // lint: panic-ok(source slots index the dense value array)
    }
    let ops = lc.ops();
    let bounds = lc.fanin_bounds();
    let fanins = lc.fanin_slots();
    let base = lc.num_sources();
    let mut stem_i = 0usize;
    let mut pin_i = 0usize;
    for &(gs, ge) in lc.level_runs() {
        for g in gs as usize..ge as usize {
            let s = bounds[g] as usize; // lint: panic-ok(fanin_bounds has num_gates + 1 entries)
            let e = bounds[g + 1] as usize; // lint: panic-ok(fanin_bounds has num_gates + 1 entries)
            let (s, e) = mutated_fanin_window(g, s, e, fanins.len());
            let w = eval_gate(mutated_op(g, ops[g]), &fanins[s..e], values); // lint: panic-ok(CSR offsets index the fanin array by construction)
            values[base + g] = w; // lint: panic-ok(gate g writes slot num_sources + g, in range)
        }
        // Patch this run's outputs before any higher level reads them:
        // pin re-evaluations first, then stem overrides, as if each gate
        // were patched when computed.
        let barrier = mutated_patch_barrier(ge);
        // lint: panic-ok(pin_i bounded by the loop condition)
        while pin_i < batch.pin_gates.len() && batch.pin_gates[pin_i].gate < barrier {
            let pp = &batch.pin_gates[pin_i]; // lint: panic-ok(pin_i bounded by the loop condition)
            let g = pp.gate as usize;
            let s = bounds[g] as usize; // lint: panic-ok(fanin_bounds has num_gates + 1 entries)
            let e = bounds[g + 1] as usize; // lint: panic-ok(fanin_bounds has num_gates + 1 entries)
            fanin_buf.clear();
            // lint: panic-ok(s..e is a CSR window of fanin_slots)
            for (pin, &fs) in fanins[s..e].iter().enumerate() {
                let mut w = values[fs as usize]; // lint: panic-ok(fanin slots index the dense value array)
                for &(fp, f) in &pp.pins {
                    if fp as usize == pin {
                        w = f.apply(w);
                    }
                }
                fanin_buf.push(w);
            }
            values[base + g] = mutated_op(g, ops[g]).eval_lanes(fanin_buf); // lint: panic-ok(gate g writes slot num_sources + g, in range)
            pin_i += 1;
        }
        // lint: panic-ok(stem_i bounded by the loop condition)
        while stem_i < batch.gate_stem.len() && batch.gate_stem[stem_i].0 < barrier {
            let (g, f) = batch.gate_stem[stem_i]; // lint: panic-ok(stem_i bounded by the loop condition)
            let s = base + g as usize;
            values[s] = f.apply(values[s]); // lint: panic-ok(gate indices write slots below num_slots)
            stem_i += 1;
        }
    }
}

/// Collects per-pattern detections in candidate (batch) order.
fn collect_detections(batch: &SoaBatch, detected: KernelWord) -> Vec<Vec<FaultId>> {
    let stride = batch.stride();
    (0..batch.patterns)
        .map(|p| {
            batch
                .ids
                .iter()
                .enumerate()
                .filter(|&(j, _)| detected.lane(p * stride + 1 + j))
                .map(|(_, &id)| id)
                .collect()
        })
        .collect()
}

/// One limited scan of `k` cycles on every chain of `map` at once, with
/// per-pattern fill words `fill[cycle * chains + chain]`.
///
/// The scan-out words land in `out` in the order
/// [`ChainMap::limited_scan`] returns its cells: cycle-major, chains
/// in map order, empty chains skipped. They are read from the pre-shift
/// state — cycle `i` of a length-`m` chain sees old position `m - 1 - i`,
/// or, once `i >= m`, the fill word that entered `m` cycles earlier — and
/// then each chain moves `k` positions in one pass.
fn shift_chains(
    map: &ChainMap,
    state: &mut [KernelWord],
    k: usize,
    fill: &[KernelWord],
    out: &mut Vec<KernelWord>,
) {
    let chains = map.chains();
    let n = chains.len();
    assert!(
        k <= map.max_chain_len(),
        "cannot shift by more than the chain length"
    );
    out.clear();
    for i in 0..k {
        for (c, chain) in chains.iter().enumerate() {
            let m = chain.len();
            if m == 0 {
                continue;
            }
            out.push(if i < m {
                state[chain[mutated_scan_out(m - 1 - i)]] // lint: panic-ok(i < m indexes the chain, chain positions index the state)
            } else {
                fill[(i - m) * n + c] // lint: panic-ok(i - m < k and c < n index the k x n fill)
            });
        }
    }
    for (c, chain) in chains.iter().enumerate() {
        let m = chain.len();
        for j in (k..m).rev() {
            state[chain[j]] = state[chain[j - k]]; // lint: panic-ok(k <= j < m indexes the chain)
        }
        for j in 0..k.min(m) {
            state[chain[j]] = fill[(k - 1 - j) * n + c]; // lint: panic-ok(j < k and c < n index the k x n fill)
        }
    }
}

/// Tile simulation: runs a shape-compatible tile of tests against one
/// fault batch on the scan chains of `chains` and returns,
/// per test, the detected faults in candidate order.
///
/// The fault-free machine of every test runs in its pattern's reference
/// lane, so no good trace is needed; `lc` must be the lowering of
/// `circuit`. Each test's `scan_in` has one bit per loaded position of
/// `chains` and each shift carries `amount × chains` fill bits,
/// cycle-major.
///
/// # Panics
///
/// Panics if the tile is empty, the tests are not shape-compatible or do
/// not match the circuit's or the chain map's widths, a shift exceeds the
/// longest chain, or `tests.len() * (faults.len() + 1)` exceeds
/// `KernelWord::LANES`.
pub fn simulate_tile_lanes(
    circuit: &Circuit,
    lc: &LevelizedCircuit,
    chains: &ChainMap,
    tests: &[&ScanTest],
    faults: &[(FaultId, Fault)],
    opts: SimOptions,
) -> Vec<Vec<FaultId>> {
    let t = tests.len();
    assert!(t > 0, "a tile must hold at least one test");
    assert!(
        t * (faults.len() + 1) <= KernelWord::LANES,
        "tile of {} patterns x (1 + {} faults) exceeds the {}-lane kernel width",
        t,
        faults.len(),
        KernelWord::LANES
    );
    assert!(
        tests.iter().all(|x| tile_compatible(tests[0], x)), // lint: panic-ok(t > 0 asserted just above)
        "tile tests must share length and shift schedule"
    );
    let nff = circuit.num_dffs();
    let npi = circuit.num_inputs();
    assert_eq!(chains.n_sv(), nff, "chain map/circuit mismatch");
    assert!(
        tests.iter().all(|x| x.scan_in.len() == chains.load().len()),
        "scan-in width mismatch"
    );
    let width = chains.chains().len();
    assert!(
        tests
            .iter()
            .all(|x| x.shifts.iter().all(|s| s.fill.len() == s.amount * width)),
        "fill width mismatch: a shift needs one fill bit per chain per cycle"
    );
    assert!(
        tests
            .iter()
            .all(|x| x.vectors.is_empty() || x.vectors.width() == npi),
        "vector width mismatch"
    );
    if faults.is_empty() {
        return vec![Vec::new(); t];
    }
    let batch = SoaBatch::new(circuit, lc, faults, t);
    TileStimulus::with(t, batch.stride(), |stimulus| {
        run_tile(circuit, lc, chains, tests, &batch, stimulus, opts)
    })
}

/// The walk of [`simulate_tile_lanes`] over a checked tile, with the
/// tile's stimulus mixer.
fn run_tile(
    circuit: &Circuit,
    lc: &LevelizedCircuit,
    chains: &ChainMap,
    tests: &[&ScanTest],
    batch: &SoaBatch,
    stimulus: &mut TileStimulus,
    opts: SimOptions,
) -> Vec<Vec<FaultId>> {
    let t = tests.len();
    let stride = batch.stride();
    // Pattern `p` owns lanes `[p*stride, (p+1)*stride)`, its reference
    // lane first; `full` is the fault lanes only. Per-pattern stimulus is
    // mixed into words by the `TileStimulus` (scan-in, vectors and fills);
    // fills the tile's tests share are splats.
    let reference = (0..t).fold(KernelWord::ZERO, |mut acc, p| {
        acc.set_lane(p * stride, true);
        acc
    });
    let full = mutated_full_mask(KernelWord::low_mask(t * stride) ^ reference, t * stride);
    let ref_lanes = mutated_reference_lanes(reference);
    // Lanes disagreeing with their pattern's fault-free machine: the
    // reference lanes' bits, spread across their ranges, are exactly the
    // broadcast each lane is compared with.
    let diff = |w: KernelWord| w ^ (w & ref_lanes).spread(stride);
    let mut detected = KernelWord::ZERO;
    // Initial scan-in: loaded positions from the tests, the rest at reset.
    let mut state = vec![KernelWord::ZERO; circuit.num_dffs()];
    let mut loaded = vec![KernelWord::ZERO; chains.load().len()];
    stimulus.mix_bits(&mut loaded, tests.iter().map(|x| &*x.scan_in));
    for (&pos, &w) in chains.load().iter().zip(&loaded) {
        state[pos] = w; // lint: panic-ok(chain map positions index the dense state vector)
    }
    batch.force_state(&mut state);
    let mut values = vec![KernelWord::ZERO; lc.num_slots()];
    let mut pi_words = vec![KernelWord::ZERO; circuit.num_inputs()];
    let mut fill_words = Vec::new();
    let mut scan_out = Vec::new();
    let mut fanin_buf = Vec::with_capacity(8);
    // lint: panic-ok(t > 0 asserted at entry)
    let first = tests[0];
    // Tests holding one schedule allocation (every same-length test of a
    // `SeedMode::PerTest` derived set) scan in the same fills.
    let shared_fills = tests.iter().all(|x| Arc::ptr_eq(&x.shifts, &first.shifts));
    // `tile_compatible` tests share `(at, amount)` index by index, so the
    // first test's units drive the walk and `k` is the index of the
    // current shift in every pattern's schedule.
    let mut k = 0;
    for (u, (shift, _)) in first.units().enumerate() {
        if let Some(op) = shift {
            if shared_fills {
                fill_words.clear();
                fill_words.extend(op.fill.iter().map(|&bit| KernelWord::splat(bit)));
            } else {
                fill_words.resize(op.fill.len(), KernelWord::ZERO);
                // lint: panic-ok(tile_compatible gives every pattern a k-th shift)
                let fills = tests.iter().map(|x| x.shifts[k].fill.as_slice());
                stimulus.mix_bits(&mut fill_words, fills);
            }
            k += 1;
            shift_chains(chains, &mut state, op.amount, &fill_words, &mut scan_out);
            if opts.observe_limited_scan_out {
                for &w in &scan_out {
                    detected |= diff(w);
                }
            }
            batch.force_state(&mut state);
            if detected & full == full {
                return collect_detections(batch, full);
            }
        }
        stimulus.mix_vectors(&mut pi_words, tests, u);
        eval_tile(lc, batch, &pi_words, &state, &mut values, &mut fanin_buf);
        if opts.observe_outputs {
            for &oslot in lc.output_slots() {
                detected |= diff(values[oslot as usize]); // lint: panic-ok(output slots index the dense value array)
            }
        }
        if detected & full == full {
            return collect_detections(batch, full);
        }
        // Capture next state.
        for (i, &dslot) in lc.dff_data_slots().iter().enumerate() {
            state[i] = values[dslot as usize]; // lint: panic-ok(state is dense over dffs, values over slots)
        }
        for &(pos, f) in &batch.ff_capture {
            state[pos] = f.apply(state[pos]); // lint: panic-ok(ff positions index the dense state vector)
        }
        batch.force_state(&mut state);
    }
    // The concluding scan-out reads the chain map's observed positions.
    if opts.observe_final_scan_out {
        for &pos in chains.observe() {
            detected |= diff(state[pos]); // lint: panic-ok(chain map positions index the dense state vector)
        }
    }
    detected &= full;
    collect_detections(batch, detected)
}

/// Fault lanes per pattern of a `height`-tall tile: each pattern spends
/// one lane on its reference machine. `height` must be in
/// `1..=max_tile_height()`.
pub const fn tile_fault_capacity(height: usize) -> usize {
    KernelWord::LANES / height - 1
}

/// The tallest tile a word can hold: every pattern needs its reference
/// lane plus at least one fault lane.
pub const fn max_tile_height() -> usize {
    KernelWord::LANES / 2
}

/// Seeded single-site kernel corruptions for mutation self-tests.
///
/// Compiled only under the `kernel-mutate` feature; the production build
/// replaces every hook with an inlined identity. A mutation is *armed*
/// per-thread, runs every kernel call on that thread until disarmed, and
/// must turn the differential oracle red — that is the whole point: the
/// self-tests prove the oracle catches real kernel bugs.
#[cfg(feature = "kernel-mutate")]
pub mod mutate {
    use std::cell::Cell;

    /// A single-site corruption of the SoA evaluator.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum KernelMutation {
        /// Gate `g` evaluates with its opcode swapped against its dual
        /// (And↔Or, Nand↔Nor, Xor↔Xnor, Not↔Buf).
        WrongOpcode(usize),
        /// Gate `g` reads a CSR fanin window shifted off by one slot.
        SwappedFaninWindow(usize),
        /// The level barrier is skewed: the last gate of every run gets
        /// its fault patches one run too late (i.e. never, for the
        /// final run).
        LevelBarrierSkew,
        /// The occupied-lane mask is one lane short, silently dropping
        /// the last fault × pattern lane from detection.
        DetectMaskShort,
        /// Every pattern broadcasts its reference bit from the wrong lane
        /// (its first fault lane instead of the force-free machine), so
        /// faults are compared against a faulty machine.
        ReferenceLaneSkew,
        /// A limited scan reads each chain's scan-out one position short
        /// of the tail (the neighbour towards the head).
        ScanOutSkew,
        /// The last primary input reads its vector row one bit too far
        /// (bit `i + 1`, past the row's width) instead of its own bit `i`.
        LastInputOffByOne,
        /// The vector transpose drops the last pattern of every 8-pattern
        /// group: its inputs read 0 whatever its row holds.
        TransposeDropsLastPattern,
    }

    thread_local! {
        static ARMED: Cell<Option<KernelMutation>> = const { Cell::new(None) };
    }

    /// Arms a mutation (or disarms with `None`) for this thread.
    pub fn arm(m: Option<KernelMutation>) {
        ARMED.with(|a| a.set(m));
    }

    /// The currently armed mutation, if any.
    pub fn armed() -> Option<KernelMutation> {
        ARMED.with(|a| a.get())
    }

    pub(super) fn dual(op: rls_netlist::GateKind) -> rls_netlist::GateKind {
        use rls_netlist::GateKind::*;
        match op {
            And => Or,
            Or => And,
            Nand => Nor,
            Nor => Nand,
            Xor => Xnor,
            Xnor => Xor,
            Not => Buf,
            Buf => Not,
        }
    }
}

#[cfg(feature = "kernel-mutate")]
#[inline]
fn mutated_op(g: usize, op: GateKind) -> GateKind {
    match mutate::armed() {
        Some(mutate::KernelMutation::WrongOpcode(mg)) if mg == g => mutate::dual(op),
        _ => op,
    }
}

#[cfg(not(feature = "kernel-mutate"))]
#[inline(always)]
fn mutated_op(_g: usize, op: GateKind) -> GateKind {
    op
}

#[cfg(feature = "kernel-mutate")]
#[inline]
fn mutated_fanin_window(g: usize, s: usize, e: usize, max: usize) -> (usize, usize) {
    match mutate::armed() {
        Some(mutate::KernelMutation::SwappedFaninWindow(mg)) if mg == g => {
            if e < max {
                (s + 1, e + 1)
            } else if s > 0 {
                (s - 1, e - 1)
            } else {
                (s, e)
            }
        }
        _ => (s, e),
    }
}

#[cfg(not(feature = "kernel-mutate"))]
#[inline(always)]
fn mutated_fanin_window(_g: usize, s: usize, e: usize, _max: usize) -> (usize, usize) {
    (s, e)
}

#[cfg(feature = "kernel-mutate")]
#[inline]
fn mutated_patch_barrier(run_end: u32) -> u32 {
    match mutate::armed() {
        Some(mutate::KernelMutation::LevelBarrierSkew) => run_end.saturating_sub(1),
        _ => run_end,
    }
}

#[cfg(not(feature = "kernel-mutate"))]
#[inline(always)]
fn mutated_patch_barrier(run_end: u32) -> u32 {
    run_end
}

#[cfg(feature = "kernel-mutate")]
#[inline]
fn mutated_full_mask(fault_lanes: KernelWord, occupied: usize) -> KernelWord {
    match mutate::armed() {
        Some(mutate::KernelMutation::DetectMaskShort) => {
            fault_lanes & KernelWord::low_mask(occupied.saturating_sub(1))
        }
        _ => fault_lanes,
    }
}

#[cfg(not(feature = "kernel-mutate"))]
#[inline(always)]
fn mutated_full_mask(fault_lanes: KernelWord, _occupied: usize) -> KernelWord {
    fault_lanes
}

#[cfg(feature = "kernel-mutate")]
#[inline]
fn mutated_scan_out(chain_index: usize) -> usize {
    match mutate::armed() {
        Some(mutate::KernelMutation::ScanOutSkew) => chain_index.saturating_sub(1),
        _ => chain_index,
    }
}

#[cfg(not(feature = "kernel-mutate"))]
#[inline(always)]
fn mutated_scan_out(chain_index: usize) -> usize {
    chain_index
}

#[cfg(feature = "kernel-mutate")]
#[inline]
pub(crate) fn mutated_input_source(input: usize, inputs: usize) -> usize {
    match mutate::armed() {
        // Bit `input + 1` is row padding, or past the row's words when
        // the width fills them.
        Some(mutate::KernelMutation::LastInputOffByOne) if input + 1 == inputs => inputs,
        _ => input,
    }
}

#[cfg(not(feature = "kernel-mutate"))]
#[inline(always)]
pub(crate) fn mutated_input_source(input: usize, _inputs: usize) -> usize {
    input
}

#[cfg(feature = "kernel-mutate")]
#[inline]
pub(crate) fn mutated_transpose(bytes: u64) -> u64 {
    match mutate::armed() {
        Some(mutate::KernelMutation::TransposeDropsLastPattern) => bytes & 0x7F7F_7F7F_7F7F_7F7F,
        _ => bytes,
    }
}

#[cfg(not(feature = "kernel-mutate"))]
#[inline(always)]
pub(crate) fn mutated_transpose(bytes: u64) -> u64 {
    bytes
}

#[cfg(feature = "kernel-mutate")]
#[inline]
fn mutated_reference_lanes(lanes: KernelWord) -> KernelWord {
    match mutate::armed() {
        Some(mutate::KernelMutation::ReferenceLaneSkew) => lanes.shift_up(1),
        _ => lanes,
    }
}

#[cfg(not(feature = "kernel-mutate"))]
#[inline(always)]
fn mutated_reference_lanes(lanes: KernelWord) -> KernelWord {
    lanes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultUniverse;
    use crate::good::{traces_differ, GoodSim};
    use crate::test::ShiftOp;
    use rls_netlist::Levelization;
    use rls_scan::{MultiChain, PartialScan};

    fn lower(c: &Circuit) -> (LevelizedCircuit, Levelization) {
        let lev = c.levelize().unwrap();
        (LevelizedCircuit::build(c, &lev), lev)
    }

    fn all_pairs(u: &FaultUniverse) -> Vec<(FaultId, Fault)> {
        u.faults()
            .iter()
            .enumerate()
            .map(|(i, &f)| (FaultId(i as u32), f))
            .collect()
    }

    fn s27_tests() -> Vec<ScanTest> {
        // Four shape-compatible tests (same length, same shift schedule,
        // different scan-ins / vectors / fills).
        let base = [
            ("001", ["0111", "1001", "0111", "1001", "0100"], true),
            ("110", ["1010", "0101", "1110", "0001", "1000"], false),
            ("010", ["0000", "1111", "0011", "1100", "0110"], true),
            ("101", ["1001", "0110", "1010", "0101", "1111"], false),
        ];
        base.iter()
            .map(|&(si, ref vs, fill)| {
                ScanTest::from_strings(si, vs)
                    .unwrap()
                    .with_shifts(vec![ShiftOp {
                        at: 2,
                        amount: 2,
                        fill: vec![fill, !fill],
                    }])
                    .unwrap()
            })
            .collect()
    }

    /// One-test SoA detections over `pairs` in chunks of `chunk` faults.
    fn soa_single(
        c: &Circuit,
        lc: &LevelizedCircuit,
        chains: &ChainMap,
        test: &ScanTest,
        pairs: &[(FaultId, Fault)],
        chunk: usize,
        opts: SimOptions,
    ) -> Vec<FaultId> {
        pairs
            .chunks(chunk)
            .flat_map(|chunk| simulate_tile_lanes(c, lc, chains, &[test], chunk, opts).remove(0))
            .collect()
    }

    /// The serial reference: the faults whose one-fault trace differs from
    /// the good trace at a point `opts` observes, in candidate order.
    fn serial(
        sim: &GoodSim<'_>,
        test: &ScanTest,
        pairs: &[(FaultId, Fault)],
        opts: SimOptions,
    ) -> Vec<FaultId> {
        let good = sim.simulate_test(test);
        pairs
            .iter()
            .filter(|&&(_, f)| {
                let faulty = sim.simulate_faulty(test, f);
                (opts.observe_outputs && good.outputs != faulty.outputs)
                    || (opts.observe_limited_scan_out && good.scan_outs != faulty.scan_outs)
                    || (opts.observe_final_scan_out && good.final_scan_out != faulty.final_scan_out)
            })
            .map(|&(id, _)| id)
            .collect()
    }

    /// Whether a one-fault, one-test, full-scan tile detects `fault`.
    fn detects(c: &Circuit, test: &ScanTest, fault: Fault) -> bool {
        let (lc, _) = lower(c);
        let full = ChainMap::full(c.num_dffs());
        let pairs = [(FaultId(0), fault)];
        let opts = SimOptions::default();
        !simulate_tile_lanes(c, &lc, &full, &[test], &pairs, opts)[0].is_empty()
    }

    #[test]
    fn each_observation_point_detects_on_a_small_circuit() {
        use rls_netlist::GateKind;
        // y = AND(a, b): y/0 shows at the output under a = b = 1, y/1
        // under a = 0.
        let mut c = Circuit::new("and2");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let y = c.add_gate("y", GateKind::And, vec![a, b]);
        c.add_output(y);
        let ones = ScanTest::new(vec![], vec![vec![true, true]]);
        assert!(detects(&c, &ones, Fault::stem_sa0(y)));
        assert!(!detects(&c, &ones, Fault::stem_sa1(y)));
        let zero_one = ScanTest::new(vec![], vec![vec![false, true]]);
        assert!(detects(&c, &zero_one, Fault::stem_sa1(y)));
        // d = XOR(a, q) feeds only the flip-flop q: a fault on it is
        // captured and seen by the final scan-out, or by a one-bit limited
        // scan before the second vector.
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let q = c.add_dff_placeholder("q");
        let d = c.add_gate("d", GateKind::Xor, vec![a, q]);
        c.connect_dff(q, d).unwrap();
        let po = c.add_gate("po", GateKind::Buf, vec![a]);
        c.add_output(po);
        let captured = ScanTest::new(vec![false], vec![vec![true]]);
        assert!(detects(&c, &captured, Fault::stem_sa0(d)));
        let shifted = ScanTest::new(vec![false], vec![vec![true], vec![true]])
            .with_shifts(vec![ShiftOp {
                at: 1,
                amount: 1,
                fill: vec![false],
            }])
            .unwrap();
        let no_final = SimOptions {
            observe_final_scan_out: false,
            ..SimOptions::default()
        };
        let (lc, _) = lower(&c);
        let pairs = [(FaultId(7), Fault::stem_sa0(d))];
        let full = ChainMap::full(1);
        let out = simulate_tile_lanes(&c, &lc, &full, &[&shifted], &pairs, no_final);
        assert_eq!(out, vec![vec![FaultId(7)]]);
        // A stuck register output corrupts what the final scan-out reads.
        let c = rls_benchmarks::parametric::shift_register(2);
        let test = ScanTest::new(vec![false, false], vec![vec![false]]);
        assert!(detects(&c, &test, Fault::stem_sa1(c.find("q1").unwrap())));
    }

    #[test]
    fn soa_matches_serial_on_s27_at_every_observation_mix() {
        // Every s27 fault under every test: the SoA detections equal the
        // serial trace comparison's, in order, in one chunk and in
        // several.
        let c = rls_benchmarks::s27();
        let sim = GoodSim::new(&c);
        let (lc, _) = lower(&c);
        let full = ChainMap::full(3);
        let pairs = all_pairs(&FaultUniverse::enumerate(&c));
        for test in s27_tests() {
            for mask in 0..8u32 {
                let opts = SimOptions {
                    observe_outputs: mask & 1 != 0,
                    observe_limited_scan_out: mask & 2 != 0,
                    observe_final_scan_out: mask & 4 != 0,
                };
                let expect = serial(&sim, &test, &pairs, opts);
                assert_eq!(expect.is_empty(), mask == 0, "opts {opts:?}");
                for chunk in [tile_fault_capacity(1), 7] {
                    let soa = soa_single(&c, &lc, &full, &test, &pairs, chunk, opts);
                    assert_eq!(expect, soa, "chunks of {chunk}, opts {opts:?}");
                }
            }
        }
    }

    #[test]
    fn word_shift_matches_the_chain_map_lane_by_lane() {
        // The kernel's word shift against the serial chain-map shift, on
        // random states and fills, for full, partial and multichain maps.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut word = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let maps = [
            ChainMap::full(7),
            ChainMap::from(&PartialScan::new(7, vec![5, 1, 3])),
            ChainMap::from(&MultiChain::new(7, 3)),
            ChainMap::from(&MultiChain::new(2, 3)),
        ];
        let mut word = move || {
            let mut w = KernelWord::ZERO;
            for lane in 0..KernelWord::LANES {
                w.set_lane(lane, word() & 1 == 1);
            }
            w
        };
        for map in &maps {
            let n = map.chains().len();
            for k in 0..=map.max_chain_len() {
                let mut state: Vec<KernelWord> = (0..map.n_sv()).map(|_| word()).collect();
                let fill: Vec<KernelWord> = (0..k * n).map(|_| word()).collect();
                let before = state.clone();
                let mut out = Vec::new();
                shift_chains(map, &mut state, k, &fill, &mut out);
                for lane in [0, 17, 63, 64, 300, 511] {
                    let bit = |w: &KernelWord| w.lane(lane);
                    let mut expect: Vec<bool> = before.iter().map(bit).collect();
                    let fill_bits: Vec<bool> = fill.iter().map(bit).collect();
                    let expect_out = map.limited_scan(&mut expect, k, &fill_bits);
                    let got: Vec<bool> = state.iter().map(bit).collect();
                    let got_out: Vec<bool> = out.iter().map(bit).collect();
                    assert_eq!(got, expect, "{map:?} k {k}");
                    assert_eq!(got_out, expect_out, "{map:?} k {k}");
                }
            }
        }
    }

    #[test]
    fn tile_equals_single_test_runs() {
        // A T-pattern tile must report exactly what T single-test calls
        // report, per pattern and in order — patterns in one word don't interact.
        let c = rls_benchmarks::s27();
        let (lc, _) = lower(&c);
        let u = FaultUniverse::enumerate(&c);
        let pairs = all_pairs(&u);
        let tests = s27_tests();
        let opts = SimOptions::default();
        let full = ChainMap::full(3);
        for t in [1usize, 2, 4] {
            let tile_tests: Vec<&ScanTest> = tests[..t].iter().collect();
            for chunk in pairs.chunks(tile_fault_capacity(t)) {
                let tiled = simulate_tile_lanes(&c, &lc, &full, &tile_tests, chunk, opts);
                for p in 0..t {
                    let alone = [tile_tests[p]];
                    let single = simulate_tile_lanes(&c, &lc, &full, &alone, chunk, opts);
                    assert_eq!(tiled[p], single[0], "tile height {t}, pattern {p}");
                }
            }
        }
    }

    #[test]
    fn shift_cursor_walks_first_last_and_every_interior_unit() {
        // The tile walk steps one cursor through the schedule its tests
        // share. A shift at the first interior unit, one at the last, and
        // one at every interior unit (the D1 = 1 shape, amounts cycling
        // 1..=3) must each land at its unit with its own pattern's fill:
        // the tile's detections equal the serial trace comparison's, one
        // pattern alone and at the tallest tile.
        let c = rls_benchmarks::s27();
        let sim = GoodSim::new(&c);
        let (lc, _) = lower(&c);
        let full = ChainMap::full(3);
        let pairs = all_pairs(&FaultUniverse::enumerate(&c));
        let opts = SimOptions::default();
        let len = 6;
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut bit = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x & 1 == 1
        };
        for units in [vec![1], vec![len - 1], (1..len).collect::<Vec<_>>()] {
            let patterns: Vec<ScanTest> = (0..8)
                .map(|_| {
                    let scan_in: Vec<bool> = (0..3).map(|_| bit()).collect();
                    let vectors: Vec<Vec<bool>> =
                        (0..len).map(|_| (0..4).map(|_| bit()).collect()).collect();
                    let shifts: Vec<ShiftOp> = units
                        .iter()
                        .enumerate()
                        .map(|(k, &at)| {
                            let amount = 1 + k % 3;
                            let fill = (0..amount).map(|_| bit()).collect();
                            ShiftOp { at, amount, fill }
                        })
                        .collect();
                    ScanTest::new(scan_in, vectors).with_shifts(shifts).unwrap()
                })
                .collect();
            let expect: Vec<Vec<FaultId>> = patterns
                .iter()
                .map(|t| {
                    let good = sim.simulate_test(t);
                    pairs
                        .iter()
                        .filter(|&&(_, f)| traces_differ(&good, &sim.simulate_faulty(t, f)))
                        .map(|&(id, _)| id)
                        .collect()
                })
                .collect();
            assert!(expect.iter().any(|d| !d.is_empty()));
            for height in [1, max_tile_height()] {
                let starts = if height == 1 { patterns.len() } else { 1 };
                for first in 0..starts {
                    let tile: Vec<&ScanTest> =
                        patterns.iter().cycle().skip(first).take(height).collect();
                    let mut got = vec![Vec::new(); height];
                    for chunk in pairs.chunks(tile_fault_capacity(height)) {
                        let tiled = simulate_tile_lanes(&c, &lc, &full, &tile, chunk, opts);
                        for (p, d) in tiled.into_iter().enumerate() {
                            got[p].extend(d);
                        }
                    }
                    for (p, d) in got.iter().enumerate() {
                        assert_eq!(
                            *d,
                            expect[(first + p) % patterns.len()],
                            "shifts at {units:?}, height {height}, pattern {p}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn tallest_tile_holds_one_fault_per_pattern() {
        // At the height cap every pattern owns exactly a reference lane
        // and one fault lane, and the word is full.
        let c = rls_benchmarks::s27();
        let (lc, _) = lower(&c);
        let u = FaultUniverse::enumerate(&c);
        let pairs = all_pairs(&u);
        let base = &s27_tests()[0];
        let height = max_tile_height();
        assert_eq!(height, 256);
        assert_eq!(tile_fault_capacity(height), 1);
        assert_eq!(tile_fault_capacity(4), 127);
        let tile_tests: Vec<&ScanTest> = vec![base; height];
        let opts = SimOptions::default();
        let full = ChainMap::full(3);
        for chunk in pairs.chunks(1) {
            let tiled = simulate_tile_lanes(&c, &lc, &full, &tile_tests, chunk, opts);
            let single = simulate_tile_lanes(&c, &lc, &full, &[base], chunk, opts);
            assert!(tiled.iter().all(|d| *d == single[0]));
        }
    }

    #[test]
    fn empty_fault_chunk_detects_nothing() {
        let c = rls_benchmarks::s27();
        let (lc, _) = lower(&c);
        let tests = s27_tests();
        let tile_tests: Vec<&ScanTest> = tests.iter().collect();
        let per = simulate_tile_lanes(
            &c,
            &lc,
            &ChainMap::full(3),
            &tile_tests,
            &[],
            SimOptions::default(),
        );
        assert_eq!(per.len(), tests.len());
        assert!(per.iter().all(|d| d.is_empty()));
    }

    #[test]
    #[should_panic(expected = "exceeds the 512-lane kernel width")]
    fn oversized_tile_is_guarded() {
        let c = rls_benchmarks::s27();
        let (lc, _) = lower(&c);
        let u = FaultUniverse::enumerate(&c);
        let pairs: Vec<_> = all_pairs(&u).into_iter().cycle().take(128).collect();
        let tests = s27_tests();
        let tile_tests: Vec<&ScanTest> = tests.iter().collect();
        // 4 patterns × (1 reference + 128 faults) = 516 lanes > 512.
        simulate_tile_lanes(
            &c,
            &lc,
            &ChainMap::full(3),
            &tile_tests,
            &pairs,
            SimOptions::default(),
        );
    }

    #[test]
    #[should_panic(expected = "share length and shift schedule")]
    fn incompatible_tile_is_rejected() {
        let c = rls_benchmarks::s27();
        let (lc, _) = lower(&c);
        let a = ScanTest::from_strings("001", &["0111", "1001"]).unwrap();
        let b = ScanTest::from_strings("001", &["0111", "1001", "0100"]).unwrap();
        simulate_tile_lanes(
            &c,
            &lc,
            &ChainMap::full(3),
            &[&a, &b],
            &[],
            SimOptions::default(),
        );
    }

    #[test]
    #[should_panic(expected = "fill width mismatch")]
    fn fill_width_follows_the_chain_count() {
        // One fill bit per cycle is a whole schedule on one chain, but
        // two chains need two bits per cycle.
        let c = rls_benchmarks::s27();
        let (lc, _) = lower(&c);
        let t = ScanTest::from_strings("001", &["0111", "1001"])
            .unwrap()
            .with_shifts(vec![ShiftOp {
                at: 1,
                amount: 1,
                fill: vec![true],
            }])
            .unwrap();
        simulate_tile_lanes(
            &c,
            &lc,
            &ChainMap::from(&rls_scan::MultiChain::new(3, 2)),
            &[&t],
            &[],
            SimOptions::default(),
        );
    }

    #[test]
    fn tile_compatibility_ignores_fills_and_scan_ins() {
        let mk = |si: &str, fill: bool| {
            ScanTest::from_strings(si, &["0111", "1001", "0100"])
                .unwrap()
                .with_shifts(vec![ShiftOp {
                    at: 1,
                    amount: 1,
                    fill: vec![fill],
                }])
                .unwrap()
        };
        assert!(tile_compatible(&mk("001", true), &mk("110", false)));
        let other_schedule = ScanTest::from_strings("001", &["0111", "1001", "0100"])
            .unwrap()
            .with_shifts(vec![ShiftOp {
                at: 2,
                amount: 1,
                fill: vec![true],
            }])
            .unwrap();
        assert!(!tile_compatible(&mk("001", true), &other_schedule));
    }

    /// Six tests sharing one shape (length + shift schedule) so tiling
    /// has real runs to pack, plus a schedule-breaking straggler.
    fn tileable_set() -> Vec<ScanTest> {
        let mut tests: Vec<ScanTest> = ["001", "110", "010", "101", "011", "100"]
            .iter()
            .zip([
                ["0111", "1001", "0111", "1001"],
                ["1011", "0001", "1110", "0101"],
                ["0000", "1111", "0011", "1100"],
                ["1010", "0101", "1010", "0101"],
                ["1101", "0010", "1000", "0111"],
                ["0110", "1001", "0110", "1001"],
            ])
            .map(|(si, vs)| {
                ScanTest::from_strings(si, &vs)
                    .unwrap()
                    .with_shifts(vec![ShiftOp {
                        at: 2,
                        amount: 1,
                        fill: vec![true],
                    }])
                    .unwrap()
            })
            .collect();
        tests.push(ScanTest::from_strings("111", &["1001", "0110"]).unwrap());
        tests
    }

    #[test]
    fn compatible_runs_stop_at_the_first_shape_change() {
        let tests = tileable_set();
        let runs: Vec<usize> = (0..=tests.len())
            .map(|i| compatible_run(&tests, i))
            .collect();
        assert_eq!(runs, vec![6, 5, 4, 3, 2, 1, 1, 0]);
        assert_eq!(compatible_run(&[], 0), 0);
    }

    #[test]
    fn fill_height_is_the_shortest_pass_minimum() {
        // Brute force over live counts and run lengths around every
        // capacity step of the kernel word.
        let cap = max_tile_height();
        let one_word = tile_fault_capacity(1);
        let lives: Vec<usize> = (0..=40)
            .chain([63, 64, 126, 127, 128, 255, 256, 510, 511, 512, 1500, 5000])
            .collect();
        for &live in &lives {
            for run in (1..=40).chain([64, 100, 128, 255, 256, 257, 600]) {
                let h = fill_height(live, run);
                assert!(
                    h >= 1 && h <= run.min(cap),
                    "live {live} run {run}: height {h}"
                );
                if live > one_word {
                    assert_eq!(h, 1, "live {live} fills whole words: 1 tall");
                    continue;
                }
                let best = (1..=run.min(cap))
                    .map(|k| kernel_passes(live, run, k))
                    .min()
                    .unwrap();
                assert_eq!(kernel_passes(live, run, h), best, "live {live} run {run}");
                assert!(
                    (1..h).all(|k| kernel_passes(live, run, k) > best),
                    "live {live} run {run}: a shorter tile ties height {h}"
                );
            }
        }
        // A run of zero still yields a usable height.
        assert_eq!(fill_height(10, 0), 1);
        // A thin tail fills the word with patterns; a long list does not.
        assert_eq!(fill_height(30, 128), 16);
        assert_eq!(fill_height(1704, 16), 1);
    }
}
