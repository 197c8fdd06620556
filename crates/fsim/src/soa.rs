//! Levelized SoA fault-simulation kernel with (fault × pattern) tiles.
//!
//! This is the flat-array rewrite of [`crate::parallel`]: instead of
//! walking [`rls_netlist::Node`] objects per gate, it sweeps the dense
//! slot arrays of a [`LevelizedCircuit`] — one contiguous `Vec<W>` of
//! values, an opcode table and a CSR fanin table — so the hot loop is
//! branch-light and pointer-chase-free.
//!
//! # Two lane axes and a reference lane
//!
//! A lane word still carries [`LaneWord::LANES`] machines, but the lanes
//! are split across *two* axes: a tile of `T` tests (patterns), each
//! owning `C + 1` lanes for a batch of `C` faults, with
//! `T * (C + 1) <= W::LANES`. Pattern `p` owns the contiguous lane range
//! `[p*(C+1), (p+1)*(C+1))`:
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
//! pattern's range (`mix` over `pmask`); the detection and early-exit
//! mask covers the fault lanes only. With `T = 1` the kernel degenerates
//! to the single-test layout: one reference lane plus `W::LANES - 1`
//! faults.
//!
//! Tests sharing one tile must be *shape-compatible* ([`tile_compatible`]):
//! same length and the same `(at, amount)` shift schedule. Scan-in states,
//! vectors and shift fills may all differ per pattern — they are mixed
//! into lane words per pattern range, reference lane included.
//!
//! # Fault injection as sorted patch lists
//!
//! The legacy kernel keeps dense per-net force tables and a pin-force hash
//! map. Here forces become sorted patch lists applied at level-run
//! boundaries: every consumer of a gate sits at a strictly higher level,
//! so patching a run's outputs after bulk-evaluating the run is
//! indistinguishable from patching each gate as it is computed. Within a
//! run, pin re-evaluations are applied before stem patches, matching the
//! legacy per-gate order (fanin forces feed the gate function, stem forces
//! override its output).
//!
//! # Verification
//!
//! The legacy kernel stays in-tree as the reference implementation; the
//! differential oracle (`tests/soa_oracle.rs` plus the in-crate tests
//! below) proves this kernel bit-identical to it, and to the serial
//! good-versus-faulty trace comparison, across every lane width,
//! pattern-lane count, observation mix and thread count. The `kernel-mutate` feature
//! compiles in seeded single-site corruptions ([`mutate`]) used by the
//! mutation self-tests to prove the oracle actually turns red.

use rls_netlist::{Circuit, GateKind, LevelizedCircuit};
use rls_scan::lanes::LaneWord;
use rls_scan::ops;
use rls_scan::{W128, W256, W512};

use crate::fault::{Fault, FaultId, FaultSite};
use crate::parallel::{Force, LaneWidth, SimOptions};
use crate::test::ScanTest;

/// Which fault-simulation kernel the engine drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimKernel {
    /// The original gate-walking kernel ([`crate::parallel`]), kept as the
    /// differential reference.
    Legacy,
    /// The levelized SoA tile kernel (this module).
    Soa,
}

impl SimKernel {
    /// The default kernel: the SoA tiles, proven bit-identical to the
    /// legacy kernel by the oracle suite and ≥2× faster on s953 (see
    /// `BENCH_fsim_lanes.json`).
    pub const DEFAULT: SimKernel = SimKernel::Soa;

    /// Parses a kernel name (`legacy`/`gate` or `soa`/`levelized`).
    pub fn parse(s: &str) -> Option<SimKernel> {
        match s.trim().to_ascii_lowercase().as_str() {
            "legacy" | "gate" | "gatewalk" => Some(SimKernel::Legacy),
            "soa" | "levelized" => Some(SimKernel::Soa),
            _ => None,
        }
    }
}

impl Default for SimKernel {
    fn default() -> Self {
        SimKernel::DEFAULT
    }
}

impl std::fmt::Display for SimKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimKernel::Legacy => write!(f, "legacy"),
            SimKernel::Soa => write!(f, "soa"),
        }
    }
}

/// Supported pattern-lane (tile height) settings, smallest first.
pub const PATTERN_LANES_ALL: [usize; 4] = [1, 2, 4, 8];

/// The default tile height, chosen from measured `fsim.test_nanos` on the
/// s953 TS0 campaign (see `BENCH_fsim_lanes.json`): packing 4 tests per
/// word keeps the fault axis wide enough for early exits while filling
/// lanes that a thin fault tail would waste.
pub const PATTERN_LANES_DEFAULT: usize = 4;

/// Parses a pattern-lane count (`1`/`2`/`4`/`8`).
pub fn parse_pattern_lanes(s: &str) -> Option<usize> {
    match s.trim() {
        "1" => Some(1),
        "2" => Some(2),
        "4" => Some(4),
        "8" => Some(8),
        _ => None,
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

/// Pin patches of one gate: `(pin, force)` pairs in ascending pin order.
#[derive(Debug)]
struct PinPatch<W> {
    gate: u32,
    pins: Vec<(u32, Force<W>)>,
}

/// A prepared `patterns × (1 + faults)` tile of at most `W::LANES` lanes:
/// per pattern one force-free reference lane, then one lane per fault.
///
/// All patch lists are sorted by their application key so the kernel can
/// walk them with a cursor as it sweeps the level runs.
#[derive(Debug)]
pub struct SoaBatch<W = u64> {
    ids: Vec<FaultId>,
    patterns: usize,
    /// Stem forces on source slots (inputs/constants), by ascending slot.
    source_stem: Vec<(u32, Force<W>)>,
    /// Stem forces on gate outputs, by ascending gate index (eval order).
    gate_stem: Vec<(u32, Force<W>)>,
    /// Branch forces on gate fanin pins, grouped per gate, ascending.
    pin_gates: Vec<PinPatch<W>>,
    /// Stuck register outputs by chain position, re-applied after every
    /// state mutation.
    ff_pos: Vec<(usize, Force<W>)>,
    /// Branch forces on flip-flop data pins by chain position, applied to
    /// the captured word.
    ff_capture: Vec<(usize, Force<W>)>,
}

/// Sorts raw `(key, fault index, stuck)` entries and folds equal keys into
/// one [`Force`] covering the fault's lane in every pattern (lane
/// `p * stride + 1 + j`; the reference lane `p * stride` stays force-free).
fn fold_forces<K: Ord + Copy, W: LaneWord>(
    mut raw: Vec<(K, usize, bool)>,
    patterns: usize,
    stride: usize,
) -> Vec<(K, Force<W>)> {
    raw.sort_by_key(|&(k, _, _)| k);
    let mut out: Vec<(K, Force<W>)> = Vec::new();
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

impl<W: LaneWord> SoaBatch<W> {
    /// Prepares a tile of `patterns` × (reference lane + `faults`).
    ///
    /// # Panics
    ///
    /// Panics if `patterns * (faults.len() + 1)` exceeds `W::LANES`.
    pub fn new(
        circuit: &Circuit,
        lc: &LevelizedCircuit,
        faults: &[(FaultId, Fault)],
        patterns: usize,
    ) -> Self {
        assert!(patterns > 0, "a tile must hold at least one pattern");
        assert!(
            patterns * (faults.len() + 1) <= W::LANES,
            "tile of {} patterns x (1 + {} faults) exceeds {} lanes",
            patterns,
            faults.len(),
            W::LANES
        );
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
        let pin_forces = fold_forces::<(u32, u32), W>(pins, patterns, stride);
        let mut pin_gates: Vec<PinPatch<W>> = Vec::new();
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

    /// Number of occupied lanes (`patterns × (1 + faults)`), reference
    /// lanes included.
    pub fn lanes(&self) -> usize {
        self.patterns * self.stride()
    }

    /// Lanes per pattern: the reference lane plus one lane per fault.
    fn stride(&self) -> usize {
        self.ids.len() + 1
    }

    /// The tile's fault ids, in candidate order.
    pub fn ids(&self) -> &[FaultId] {
        &self.ids
    }

    #[inline]
    fn force_state(&self, state: &mut [W]) {
        for &(pos, f) in &self.ff_pos {
            state[pos] = f.apply(state[pos]); // lint: panic-ok(ff positions index the dense state vector)
        }
    }
}

/// Mixes per-pattern bits into one lane word: pattern `p`'s contiguous
/// lane range is filled with `bit(p)`.
#[inline]
fn mix<W: LaneWord, F: FnMut(usize) -> bool>(pmask: &[W], mut bit: F) -> W {
    let mut w = W::ZERO;
    for (p, &m) in pmask.iter().enumerate() {
        if bit(p) {
            w |= m;
        }
    }
    w
}

/// Evaluates one gate from its fanin slots — the branch-light heart of the
/// kernel, with dedicated unary/binary fast paths.
#[inline]
fn eval_gate<W: LaneWord>(op: GateKind, fanins: &[u32], values: &[W]) -> W {
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
fn eval_tile<W: LaneWord>(
    lc: &LevelizedCircuit,
    batch: &SoaBatch<W>,
    pi_words: &[W],
    state: &[W],
    values: &mut [W],
    fanin_buf: &mut Vec<W>,
) {
    for (k, &s) in lc.input_slots().iter().enumerate() {
        values[s as usize] = pi_words[k]; // lint: panic-ok(one PI word per input slot, values dense over slots)
    }
    for (i, &s) in lc.dff_slots().iter().enumerate() {
        // State words already carry flip-flop stem forces.
        values[s as usize] = state[i]; // lint: panic-ok(one state word per dff slot, values dense over slots)
    }
    for &(s, v) in lc.const_slots() {
        values[s as usize] = W::splat(v); // lint: panic-ok(const slots index the dense value array)
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
        // pin re-evaluations first, then stem overrides, matching the
        // legacy per-gate order.
        let barrier = mutated_patch_barrier(ge);
        while pin_i < batch.pin_gates.len() && batch.pin_gates[pin_i].gate < barrier { // lint: panic-ok(pin_i bounded by the loop condition)
            let pp = &batch.pin_gates[pin_i]; // lint: panic-ok(pin_i bounded by the loop condition)
            let g = pp.gate as usize;
            let s = bounds[g] as usize; // lint: panic-ok(fanin_bounds has num_gates + 1 entries)
            let e = bounds[g + 1] as usize; // lint: panic-ok(fanin_bounds has num_gates + 1 entries)
            fanin_buf.clear();
            for (pin, &fs) in fanins[s..e].iter().enumerate() { // lint: panic-ok(s..e is a CSR window of fanin_slots)
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
        while stem_i < batch.gate_stem.len() && batch.gate_stem[stem_i].0 < barrier { // lint: panic-ok(stem_i bounded by the loop condition)
            let (g, f) = batch.gate_stem[stem_i]; // lint: panic-ok(stem_i bounded by the loop condition)
            let s = base + g as usize;
            values[s] = f.apply(values[s]); // lint: panic-ok(gate indices write slots below num_slots)
            stem_i += 1;
        }
    }
}

/// Collects per-pattern detections in candidate (batch) order.
fn collect_detections<W: LaneWord>(batch: &SoaBatch<W>, detected: W) -> Vec<Vec<FaultId>> {
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

/// Width-generic tile simulation: runs a shape-compatible tile of tests
/// against one fault batch and returns, per test, the detected faults in
/// candidate order.
///
/// The fault-free machine of every test runs in its pattern's reference
/// lane, so no good trace is needed; `lc` must be the lowering of
/// `circuit`.
///
/// # Panics
///
/// Panics if the tile is empty, the tests are not shape-compatible or do
/// not match the circuit's widths, or `tests.len() * (faults.len() + 1)`
/// exceeds `W::LANES`.
pub fn simulate_tile_lanes<W: LaneWord>(
    circuit: &Circuit,
    lc: &LevelizedCircuit,
    tests: &[&ScanTest],
    faults: &[(FaultId, Fault)],
    opts: SimOptions,
) -> Vec<Vec<FaultId>> {
    let t = tests.len();
    assert!(t > 0, "a tile must hold at least one test");
    assert!(
        tests.iter().all(|x| tile_compatible(tests[0], x)), // lint: panic-ok(t > 0 asserted just above)
        "tile tests must share length and shift schedule"
    );
    let nff = circuit.num_dffs();
    let npi = circuit.num_inputs();
    assert!(
        tests.iter().all(|x| x.scan_in.len() == nff),
        "scan-in width mismatch"
    );
    assert!(
        tests
            .iter()
            .all(|x| x.vectors.iter().all(|v| v.len() == npi)),
        "vector width mismatch"
    );
    if faults.is_empty() {
        return vec![Vec::new(); t];
    }
    let batch: SoaBatch<W> = SoaBatch::new(circuit, lc, faults, t);
    let stride = batch.stride();
    // Pattern ranges (reference lane included) carry the stimulus and the
    // broadcast reference bit; `full` is the fault lanes only.
    let pmask: Vec<W> = (0..t)
        .map(|p| W::low_mask((p + 1) * stride) ^ W::low_mask(p * stride))
        .collect();
    let ref_lane: Vec<usize> = (0..t).map(|p| mutated_reference_lane(p * stride)).collect();
    let fault_lanes = (0..t).fold(W::ZERO, |acc, p| {
        acc | (W::low_mask((p + 1) * stride) ^ W::low_mask(p * stride + 1))
    });
    let full = mutated_full_mask(fault_lanes, t * stride);
    // Lanes disagreeing with their pattern's fault-free machine.
    let diff = |w: W| w ^ mix(&pmask, |p| w.lane(ref_lane[p])); // lint: panic-ok(mix calls back with p < pmask.len() == ref_lane.len())
    let mut detected = W::ZERO;
    let mut state: Vec<W> = (0..nff)
        .map(|i| mix(&pmask, |p| tests[p].scan_in[i])) // lint: panic-ok(scan-in widths asserted against the chain above)
        .collect();
    batch.force_state(&mut state);
    let mut values: Vec<W> = vec![W::ZERO; lc.num_slots()];
    let mut pi_words: Vec<W> = vec![W::ZERO; npi];
    let mut fill_words: Vec<W> = Vec::new();
    let mut fanin_buf: Vec<W> = Vec::with_capacity(8);
    for u in 0..tests[0].len() { // lint: panic-ok(t > 0 asserted at entry)
        if let Some(op) = tests[0].shift_at(u) { // lint: panic-ok(t > 0 asserted at entry)
            fill_words.clear();
            for cyc in 0..op.amount {
                fill_words.push(mix(&pmask, |p| {
                    tests[p] // lint: panic-ok(mix calls back with p < pmask.len() == tests.len())
                        .shift_at(u)
                        .expect("tile shapes agree") // lint: panic-ok(tile_compatible guarantees a matching shift per pattern)
                        .fill[cyc] // lint: panic-ok(ScanTest validates fill length == amount)
                }));
            }
            let outs = ops::limited_scan_fill_lanes(&mut state, op.amount, &fill_words);
            if opts.observe_limited_scan_out {
                for &w in &outs {
                    detected |= diff(w);
                }
            }
            batch.force_state(&mut state);
            if detected & full == full {
                return collect_detections(&batch, full);
            }
        }
        for (k, w) in pi_words.iter_mut().enumerate() {
            *w = mix(&pmask, |p| tests[p].vectors[u][k]); // lint: panic-ok(vector widths asserted against num_inputs above)
        }
        eval_tile(lc, &batch, &pi_words, &state, &mut values, &mut fanin_buf);
        if opts.observe_outputs {
            for &oslot in lc.output_slots() {
                detected |= diff(values[oslot as usize]); // lint: panic-ok(output slots index the dense value array)
            }
        }
        if detected & full == full {
            return collect_detections(&batch, full);
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
    // Final complete scan-out observes the whole state.
    if opts.observe_final_scan_out {
        for &sw in &state {
            detected |= diff(sw);
        }
    }
    detected &= full;
    collect_detections(&batch, detected)
}

/// Dispatches one tile to the kernel monomorphisation for `width`.
///
/// The tile-aware analogue of [`crate::parallel::simulate_chunk_at`]: the
/// chunkers size fault chunks by `width.lanes() / tests.len() - 1` (one
/// reference lane per pattern) and this guard catches any disagreement.
///
/// # Panics
///
/// Panics if `tests.len() * (faults.len() + 1)` exceeds `width.lanes()`.
pub fn simulate_tile_at(
    width: LaneWidth,
    circuit: &Circuit,
    lc: &LevelizedCircuit,
    tests: &[&ScanTest],
    faults: &[(FaultId, Fault)],
    opts: SimOptions,
) -> Vec<Vec<FaultId>> {
    assert!(
        tests.len() * (faults.len() + 1) <= width.lanes(),
        "tile of {} patterns x (1 + {} faults) exceeds the {}-lane kernel width",
        tests.len(),
        faults.len(),
        width.lanes()
    );
    match width {
        LaneWidth::W64 => simulate_tile_lanes::<u64>(circuit, lc, tests, faults, opts),
        LaneWidth::W128 => simulate_tile_lanes::<W128>(circuit, lc, tests, faults, opts),
        LaneWidth::W256 => simulate_tile_lanes::<W256>(circuit, lc, tests, faults, opts),
        LaneWidth::W512 => simulate_tile_lanes::<W512>(circuit, lc, tests, faults, opts),
    }
}

/// Fault lanes per pattern of a `height`-tall tile at `width`: each
/// pattern spends one lane on its reference machine. `height` must be in
/// `1..=max_tile_height(width)`.
pub fn tile_fault_capacity(width: LaneWidth, height: usize) -> usize {
    width.lanes() / height - 1
}

/// The tallest tile `width` can hold: every pattern needs its reference
/// lane plus at least one fault lane.
pub fn max_tile_height(width: LaneWidth) -> usize {
    width.lanes() / 2
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
fn mutated_full_mask<W: LaneWord>(fault_lanes: W, occupied: usize) -> W {
    match mutate::armed() {
        Some(mutate::KernelMutation::DetectMaskShort) => {
            fault_lanes & W::low_mask(occupied.saturating_sub(1))
        }
        _ => fault_lanes,
    }
}

#[cfg(not(feature = "kernel-mutate"))]
#[inline(always)]
fn mutated_full_mask<W: LaneWord>(fault_lanes: W, _occupied: usize) -> W {
    fault_lanes
}

#[cfg(feature = "kernel-mutate")]
#[inline]
fn mutated_reference_lane(lane: usize) -> usize {
    match mutate::armed() {
        Some(mutate::KernelMutation::ReferenceLaneSkew) => lane + 1,
        _ => lane,
    }
}

#[cfg(not(feature = "kernel-mutate"))]
#[inline(always)]
fn mutated_reference_lane(lane: usize) -> usize {
    lane
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultUniverse;
    use crate::good::GoodSim;
    use crate::parallel::simulate_chunk_at;
    use crate::test::ShiftOp;
    use rls_netlist::Levelization;

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

    /// One-test SoA detections over `pairs`, chunked to the 1-tall tile
    /// capacity at `width`.
    fn soa_single(
        width: LaneWidth,
        c: &Circuit,
        lc: &LevelizedCircuit,
        test: &ScanTest,
        pairs: &[(FaultId, Fault)],
        opts: SimOptions,
    ) -> Vec<FaultId> {
        pairs
            .chunks(tile_fault_capacity(width, 1))
            .flat_map(|chunk| simulate_tile_at(width, c, lc, &[test], chunk, opts).remove(0))
            .collect()
    }

    /// The legacy kernel's detections over `pairs`, chunked as
    /// [`soa_single`] chunks them.
    fn legacy_single(
        width: LaneWidth,
        sim: &GoodSim<'_>,
        test: &ScanTest,
        pairs: &[(FaultId, Fault)],
        opts: SimOptions,
    ) -> Vec<FaultId> {
        let trace = sim.simulate_test(test);
        pairs
            .chunks(tile_fault_capacity(width, 1))
            .flat_map(|chunk| simulate_chunk_at(width, sim, test, &trace, chunk, opts))
            .collect()
    }

    #[test]
    fn soa_matches_legacy_on_s27_exhaustive_at_every_width() {
        // The in-crate differential oracle: for every width the SoA
        // detections equal the legacy kernel's, in order.
        let c = rls_benchmarks::s27();
        let sim = GoodSim::new(&c);
        let (lc, _) = lower(&c);
        let u = FaultUniverse::enumerate(&c);
        let pairs = all_pairs(&u);
        let opts = SimOptions::default();
        for test in s27_tests() {
            for width in LaneWidth::ALL {
                let legacy = legacy_single(width, &sim, &test, &pairs, opts);
                let soa = soa_single(width, &c, &lc, &test, &pairs, opts);
                assert_eq!(legacy, soa, "width {width}");
            }
        }
    }

    #[test]
    fn soa_matches_legacy_under_every_observation_mix() {
        let c = rls_benchmarks::s27();
        let sim = GoodSim::new(&c);
        let (lc, _) = lower(&c);
        let u = FaultUniverse::enumerate(&c);
        let pairs = all_pairs(&u);
        let test = &s27_tests()[0];
        for mask in 0..8u32 {
            let opts = SimOptions {
                observe_outputs: mask & 1 != 0,
                observe_limited_scan_out: mask & 2 != 0,
                observe_final_scan_out: mask & 4 != 0,
            };
            let legacy = legacy_single(LaneWidth::W64, &sim, test, &pairs, opts);
            let soa = soa_single(LaneWidth::W64, &c, &lc, test, &pairs, opts);
            assert_eq!(legacy, soa, "opts {opts:?}");
        }
    }

    #[test]
    fn tile_equals_single_test_runs() {
        // A T-pattern tile must report exactly what T single-test calls
        // report, per pattern and in order — pattern lanes don't interact.
        let c = rls_benchmarks::s27();
        let (lc, _) = lower(&c);
        let u = FaultUniverse::enumerate(&c);
        let pairs = all_pairs(&u);
        let tests = s27_tests();
        let opts = SimOptions::default();
        for t in [1usize, 2, 4] {
            let tile_tests: Vec<&ScanTest> = tests[..t].iter().collect();
            let cap = tile_fault_capacity(LaneWidth::W256, t);
            for chunk in pairs.chunks(cap) {
                let tiled = simulate_tile_at(LaneWidth::W256, &c, &lc, &tile_tests, chunk, opts);
                for p in 0..t {
                    let single =
                        simulate_tile_at(LaneWidth::W256, &c, &lc, &[tile_tests[p]], chunk, opts);
                    assert_eq!(tiled[p], single[0], "tile height {t}, pattern {p}");
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
        let height = max_tile_height(LaneWidth::W64);
        assert_eq!(height, 32);
        assert_eq!(tile_fault_capacity(LaneWidth::W64, height), 1);
        assert_eq!(tile_fault_capacity(LaneWidth::W512, 4), 127);
        let tile_tests: Vec<&ScanTest> = vec![base; height];
        let opts = SimOptions::default();
        for chunk in pairs.chunks(1) {
            let tiled = simulate_tile_at(LaneWidth::W64, &c, &lc, &tile_tests, chunk, opts);
            let single = simulate_tile_at(LaneWidth::W64, &c, &lc, &[base], chunk, opts);
            assert!(tiled.iter().all(|d| *d == single[0]));
        }
    }

    #[test]
    fn empty_fault_chunk_detects_nothing() {
        let c = rls_benchmarks::s27();
        let (lc, _) = lower(&c);
        let tests = s27_tests();
        let tile_tests: Vec<&ScanTest> = tests.iter().collect();
        let per = simulate_tile_at(
            LaneWidth::W64,
            &c,
            &lc,
            &tile_tests,
            &[],
            SimOptions::default(),
        );
        assert_eq!(per.len(), tests.len());
        assert!(per.iter().all(|d| d.is_empty()));
    }

    #[test]
    #[should_panic(expected = "exceeds the 64-lane kernel width")]
    fn oversized_tile_is_guarded() {
        let c = rls_benchmarks::s27();
        let (lc, _) = lower(&c);
        let u = FaultUniverse::enumerate(&c);
        let pairs = all_pairs(&u);
        let tests = s27_tests();
        let tile_tests: Vec<&ScanTest> = tests.iter().collect();
        // 4 patterns × (1 reference + 16 faults) = 68 lanes > 64.
        simulate_tile_at(
            LaneWidth::W64,
            &c,
            &lc,
            &tile_tests,
            &pairs[..16],
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
        simulate_tile_at(
            LaneWidth::W64,
            &c,
            &lc,
            &[&a, &b],
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

    #[test]
    fn kernel_and_pattern_lane_parsing() {
        assert_eq!(SimKernel::parse("soa"), Some(SimKernel::Soa));
        assert_eq!(SimKernel::parse(" LEGACY "), Some(SimKernel::Legacy));
        assert_eq!(SimKernel::parse("levelized"), Some(SimKernel::Soa));
        assert_eq!(SimKernel::parse("fast"), None);
        assert_eq!(SimKernel::DEFAULT.to_string(), "soa");
        for p in PATTERN_LANES_ALL {
            assert_eq!(parse_pattern_lanes(&p.to_string()), Some(p));
        }
        assert_eq!(parse_pattern_lanes("3"), None);
        assert_eq!(parse_pattern_lanes(""), None);
        assert!(PATTERN_LANES_ALL.contains(&PATTERN_LANES_DEFAULT));
    }
}
