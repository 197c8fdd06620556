//! Levelized structure-of-arrays lowering of a circuit.
//!
//! [`LevelizedCircuit`] flattens the node graph into dense, topologically
//! ordered arrays so simulation kernels can sweep the combinational core
//! without touching [`crate::Node`] objects: no name strings, no per-gate
//! `Vec<NetId>` fanin allocations, no enum matching on [`crate::NodeKind`]
//! in the hot loop. Every net gets a dense *slot*:
//!
//! - slots `0..num_sources` are the sources (primary inputs, flip-flop
//!   outputs and constants) in net-id order;
//! - slot `num_sources + g` is the output of the `g`-th gate in
//!   levelized evaluation order (sorted by `(level, net id)`, the same
//!   order [`crate::Levelization`] produces).
//!
//! Gate structure lives in three flat arrays: an opcode per gate
//! ([`LevelizedCircuit::ops`]), a CSR offset table
//! ([`LevelizedCircuit::fanin_bounds`]) and the concatenated fanin slots
//! ([`LevelizedCircuit::fanin_slots`]). Gates of equal level form
//! contiguous *runs* ([`LevelizedCircuit::level_runs`]); a kernel may
//! evaluate a whole run back to back and only synchronise (apply fault
//! forces, exchange partition boundaries, …) at run boundaries, because
//! every consumer of a gate sits at a strictly higher level.
//!
//! The lowering is pure bookkeeping — `rls-fsim` proves its kernels over
//! this layout bit-identical to the node-walking reference on every
//! circuit in the suite.

use crate::circuit::{Circuit, NetId, NodeKind};
use crate::gate::GateKind;
use crate::levelize::Levelization;

/// A circuit lowered to dense levelized arrays (see the module docs).
#[derive(Debug, Clone)]
pub struct LevelizedCircuit {
    /// `slot_of[net.index()]` is the dense slot of `net`.
    slot_of: Vec<u32>,
    /// `net_of[slot]` is the original net of a slot.
    net_of: Vec<NetId>,
    /// Number of source slots (inputs + flip-flops + constants).
    num_sources: usize,
    /// Opcode of the `g`-th gate in evaluation order.
    ops: Vec<GateKind>,
    /// CSR offsets into [`LevelizedCircuit::fanin_slots`]: gate `g` reads
    /// `fanin_slots[fanin_bounds[g]..fanin_bounds[g + 1]]`.
    fanin_bounds: Vec<u32>,
    /// Concatenated fanin slots of every gate, in pin order.
    fanin_slots: Vec<u32>,
    /// Half-open gate-index ranges `[start, end)`, one per level `1..`.
    level_runs: Vec<(u32, u32)>,
    /// Slot of each primary input, in [`Circuit::inputs`] order.
    input_slots: Vec<u32>,
    /// Slot of each flip-flop output, in [`Circuit::dffs`] (chain) order.
    dff_slots: Vec<u32>,
    /// Slot of each flip-flop's data input, in chain order.
    dff_data_slots: Vec<u32>,
    /// `(slot, value)` of each constant node.
    const_slots: Vec<(u32, bool)>,
    /// Slot of each primary output, in [`Circuit::outputs`] order.
    output_slots: Vec<u32>,
}

impl LevelizedCircuit {
    /// Lowers a circuit over its levelization (which must belong to it).
    ///
    /// # Panics
    ///
    /// Panics if a flip-flop is left unconnected — the lowering is for
    /// simulation, which needs every data input resolved.
    pub fn build(circuit: &Circuit, lev: &Levelization) -> Self {
        let n = circuit.len();
        let num_gates = circuit.num_gates();
        let num_sources = n - num_gates;
        let mut slot_of = vec![0u32; n];
        let mut net_of = vec![NetId(0); n];
        let mut next = 0u32;
        for (i, node) in circuit.nodes().iter().enumerate() {
            if !node.is_gate() {
                slot_of[i] = next; // lint: panic-ok(slot_of is dense over circuit.len())
                net_of[next as usize] = NetId(i as u32); // lint: panic-ok(one slot per node, so next < circuit.len())
                next += 1;
            }
        }
        debug_assert_eq!(next as usize, num_sources);
        let mut ops = Vec::with_capacity(num_gates);
        let mut fanin_bounds = Vec::with_capacity(num_gates + 1);
        fanin_bounds.push(0u32);
        let mut level_runs: Vec<(u32, u32)> = Vec::new();
        for (g, &gate) in lev.order().iter().enumerate() {
            slot_of[gate.index()] = next; // lint: panic-ok(slot_of is dense over circuit.len())
            net_of[next as usize] = gate; // lint: panic-ok(one slot per node, so next < circuit.len())
            next += 1;
            let lvl = lev.level(gate);
            match level_runs.last_mut() {
                Some(run) if lev.level(lev.order()[run.0 as usize]) == lvl => run.1 = g as u32 + 1, // lint: panic-ok(run starts index the levelization order)
                _ => level_runs.push((g as u32, g as u32 + 1)),
            }
            let NodeKind::Gate { kind, .. } = &circuit.node(gate).kind else {
                unreachable!("levelization order contains only gates"); // lint: panic-ok(levelization invariant)
            };
            ops.push(*kind);
        }
        // Second pass for fanin slots: every slot is assigned by now, so
        // forward references within the CSR table are impossible to get
        // wrong silently — the debug assert below pins topological order.
        let mut fanin_slots = Vec::new();
        for &gate in lev.order() {
            for f in circuit.node(gate).fanin() {
                let fs = slot_of[f.index()]; // lint: panic-ok(slot_of is dense over circuit.len())
                debug_assert!(
                    fs < slot_of[gate.index()], // lint: panic-ok(slot_of is dense over circuit.len())
                    "fanin slot must precede the gate slot"
                );
                fanin_slots.push(fs);
            }
            fanin_bounds.push(fanin_slots.len() as u32);
        }
        let slot = |net: NetId| slot_of[net.index()]; // lint: panic-ok(slot_of is dense over circuit.len())
        let input_slots = circuit.inputs().iter().map(|&i| slot(i)).collect();
        let dff_slots = circuit.dffs().iter().map(|&ff| slot(ff)).collect();
        let dff_data_slots = circuit
            .dffs()
            .iter()
            .map(|&ff| {
                let NodeKind::Dff { d: Some(d) } = circuit.node(ff).kind else {
                    panic!("unconnected flip-flop in levelized lowering"); // lint: panic-ok(simulation requires connected flip-flops, as in GoodSim)
                };
                slot(d)
            })
            .collect();
        let const_slots = circuit
            .nodes()
            .iter()
            .enumerate()
            .filter_map(|(i, node)| match node.kind {
                NodeKind::Const(v) => Some((slot_of[i], v)), // lint: panic-ok(slot_of is dense over circuit.len())
                _ => None,
            })
            .collect();
        let output_slots = circuit.outputs().iter().map(|&o| slot(o)).collect();
        LevelizedCircuit {
            slot_of,
            net_of,
            num_sources,
            ops,
            fanin_bounds,
            fanin_slots,
            level_runs,
            input_slots,
            dff_slots,
            dff_data_slots,
            const_slots,
            output_slots,
        }
    }

    /// Total slots (== the circuit's net count).
    pub fn num_slots(&self) -> usize {
        self.net_of.len()
    }

    /// Number of source slots; gates occupy `num_sources..num_slots`.
    pub fn num_sources(&self) -> usize {
        self.num_sources
    }

    /// Number of gates.
    pub fn num_gates(&self) -> usize {
        self.ops.len()
    }

    /// The dense slot of a net.
    pub fn slot(&self, net: NetId) -> u32 {
        self.slot_of[net.index()] // lint: panic-ok(slot_of is dense over circuit.len())
    }

    /// The net occupying a slot.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= num_slots`.
    pub fn net(&self, slot: u32) -> NetId {
        self.net_of[slot as usize] // lint: panic-ok(documented contract: slot must be in range)
    }

    /// The value slot gate `g` (evaluation order) writes.
    pub fn gate_slot(&self, g: usize) -> u32 {
        (self.num_sources + g) as u32
    }

    /// Opcodes per gate, in evaluation order.
    pub fn ops(&self) -> &[GateKind] {
        &self.ops
    }

    /// CSR fanin offsets (`num_gates + 1` entries).
    pub fn fanin_bounds(&self) -> &[u32] {
        &self.fanin_bounds
    }

    /// Concatenated fanin slots.
    pub fn fanin_slots(&self) -> &[u32] {
        &self.fanin_slots
    }

    /// The fanin slots of gate `g`.
    pub fn fanins_of(&self, g: usize) -> &[u32] {
        let s = self.fanin_bounds[g] as usize; // lint: panic-ok(fanin_bounds has num_gates + 1 entries)
        let e = self.fanin_bounds[g + 1] as usize; // lint: panic-ok(fanin_bounds has num_gates + 1 entries)
        &self.fanin_slots[s..e] // lint: panic-ok(CSR offsets index the concatenated fanin array by construction)
    }

    /// Half-open gate-index runs per level, shallowest first.
    pub fn level_runs(&self) -> &[(u32, u32)] {
        &self.level_runs
    }

    /// Primary-input slots, in [`Circuit::inputs`] order.
    pub fn input_slots(&self) -> &[u32] {
        &self.input_slots
    }

    /// Flip-flop output slots, in chain order.
    pub fn dff_slots(&self) -> &[u32] {
        &self.dff_slots
    }

    /// Flip-flop data-input slots, in chain order.
    pub fn dff_data_slots(&self) -> &[u32] {
        &self.dff_data_slots
    }

    /// `(slot, value)` of every constant node.
    pub fn const_slots(&self) -> &[(u32, bool)] {
        &self.const_slots
    }

    /// Primary-output slots, in [`Circuit::outputs`] order.
    pub fn output_slots(&self) -> &[u32] {
        &self.output_slots
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(c: &Circuit) -> LevelizedCircuit {
        LevelizedCircuit::build(c, &c.levelize().unwrap())
    }

    #[test]
    fn slots_are_a_permutation_with_sources_first() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let q = c.add_dff_placeholder("q");
        let g1 = c.add_gate("g1", GateKind::And, vec![a, q]);
        let g2 = c.add_gate("g2", GateKind::Not, vec![g1]);
        c.connect_dff(q, g2).unwrap();
        c.add_output(g2);
        let lc = lower(&c);
        assert_eq!(lc.num_slots(), 4);
        assert_eq!(lc.num_sources(), 2);
        assert_eq!(lc.num_gates(), 2);
        // Round trip: slot(net(s)) == s for every slot.
        for s in 0..lc.num_slots() as u32 {
            assert_eq!(lc.slot(lc.net(s)), s);
        }
        // Sources occupy the low slots.
        assert!(lc.slot(a) < 2 && lc.slot(q) < 2);
        // g1 (level 1) precedes g2 (level 2).
        assert_eq!(lc.slot(g1), 2);
        assert_eq!(lc.slot(g2), 3);
        assert_eq!(lc.ops(), &[GateKind::And, GateKind::Not]);
        assert_eq!(lc.fanins_of(0), &[lc.slot(a), lc.slot(q)]);
        assert_eq!(lc.fanins_of(1), &[lc.slot(g1)]);
        assert_eq!(lc.dff_data_slots(), &[lc.slot(g2)]);
        assert_eq!(lc.output_slots(), &[lc.slot(g2)]);
    }

    #[test]
    fn level_runs_cover_all_gates_in_order() {
        let mut c = Circuit::new("diamond");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let l = c.add_gate("l", GateKind::And, vec![a, b]);
        let r = c.add_gate("r", GateKind::Or, vec![a, b]);
        let top = c.add_gate("top", GateKind::Xor, vec![l, r]);
        c.add_output(top);
        let lc = lower(&c);
        assert_eq!(lc.level_runs(), &[(0, 2), (2, 3)]);
        let covered: usize = lc.level_runs().iter().map(|&(s, e)| (e - s) as usize).sum();
        assert_eq!(covered, lc.num_gates());
        // Fanins always point at strictly lower slots.
        for g in 0..lc.num_gates() {
            for &f in lc.fanins_of(g) {
                assert!(f < lc.gate_slot(g));
            }
        }
    }

    #[test]
    fn s27_lowering_is_consistent() {
        let c = rls_benchmarks_stub::s27_like();
        let lc = lower(&c);
        assert_eq!(lc.num_slots(), c.len());
        assert_eq!(lc.input_slots().len(), c.num_inputs());
        assert_eq!(lc.dff_slots().len(), c.num_dffs());
        let covered: usize = lc.level_runs().iter().map(|&(s, e)| (e - s) as usize).sum();
        assert_eq!(covered, lc.num_gates());
        for s in 0..lc.num_slots() as u32 {
            assert_eq!(lc.slot(lc.net(s)), s);
        }
    }

    #[test]
    fn const_slots_carry_values() {
        let mut c = Circuit::new("t");
        let k1 = c.add_const("one", true);
        let k0 = c.add_const("zero", false);
        let g = c.add_gate("g", GateKind::Or, vec![k1, k0]);
        c.add_output(g);
        let lc = lower(&c);
        let mut consts = lc.const_slots().to_vec();
        consts.sort_unstable();
        assert_eq!(consts, vec![(lc.slot(k1), true), (lc.slot(k0), false)]);
    }

    /// A small s27-shaped circuit without depending on `rls-benchmarks`
    /// (which would be a cyclic dev-dependency from here).
    mod rls_benchmarks_stub {
        use super::*;

        pub fn s27_like() -> Circuit {
            let mut c = Circuit::new("s27ish");
            let g0 = c.add_input("G0");
            let g1 = c.add_input("G1");
            let g2 = c.add_input("G2");
            let g3 = c.add_input("G3");
            let q5 = c.add_dff_placeholder("G5");
            let q6 = c.add_dff_placeholder("G6");
            let q7 = c.add_dff_placeholder("G7");
            let n14 = c.add_gate("G14", GateKind::Not, vec![g0]);
            let n17 = c.add_gate("G17", GateKind::Not, vec![q7]);
            let n8 = c.add_gate("G8", GateKind::And, vec![g1, q7]);
            let n15 = c.add_gate("G15", GateKind::Or, vec![g3, n8]);
            let n16 = c.add_gate("G16", GateKind::Or, vec![g2, n14]);
            let n9 = c.add_gate("G9", GateKind::Nand, vec![n16, n17]);
            let n12 = c.add_gate("G12", GateKind::Nor, vec![n15, n9]);
            let n13 = c.add_gate("G13", GateKind::Nor, vec![n12, q6]);
            let n10 = c.add_gate("G10", GateKind::Nor, vec![n13, q5]);
            let n11 = c.add_gate("G11", GateKind::Xor, vec![n10, n12]);
            c.connect_dff(q5, n10).unwrap();
            c.connect_dff(q6, n11).unwrap();
            c.connect_dff(q7, n13).unwrap();
            c.add_output(n17);
            c
        }
    }
}
