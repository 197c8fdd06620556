//! Levelization: topological ordering of the combinational core.
//!
//! Flip-flop outputs, primary inputs and constants are level-0 sources; each
//! gate's level is one more than the maximum level of its fanins. The
//! resulting order is what logic and fault simulators iterate over once per
//! time frame.

use crate::circuit::{Circuit, NetId, NodeKind};
use crate::error::NetlistError;

/// A topological ordering of a circuit's combinational gates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Levelization {
    /// Combinational gates in a valid evaluation order (fanins of every gate
    /// precede it, with sources implicit).
    order: Vec<NetId>,
    /// `level[i]` is the logic level of net `i` (0 for sources).
    level: Vec<u32>,
    /// Maximum level over all nets (combinational depth).
    depth: u32,
}

impl Levelization {
    /// Builds a levelization, failing on combinational cycles.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] naming a net on a cycle.
    pub fn build(circuit: &Circuit) -> Result<Self, NetlistError> {
        let n = circuit.len();
        let mut level = vec![0u32; n];
        let mut order = Vec::with_capacity(n);
        // Kahn's algorithm over combinational gates only.
        let mut pending = vec![0usize; n]; // unresolved combinational fanins
        let mut ready: Vec<NetId> = Vec::new();
        for (i, node) in circuit.nodes().iter().enumerate() {
            match &node.kind {
                NodeKind::Input | NodeKind::Const(_) | NodeKind::Dff { .. } => {}
                NodeKind::Gate { fanin, .. } => {
                    let unresolved = fanin.iter().filter(|f| circuit.node(**f).is_gate()).count();
                    pending[i] = unresolved; // lint: panic-ok(levelization visits only net ids it allocated)
                    if unresolved == 0 {
                        ready.push(NetId(i as u32));
                    }
                }
            }
        }
        let fanout = circuit.fanout();
        let mut resolved = 0usize;
        while let Some(id) = ready.pop() {
            let lvl = circuit
                .node(id)
                .fanin()
                .iter()
                .map(|f| level[f.index()]) // lint: panic-ok(levelization visits only net ids it allocated)
                .max()
                .unwrap_or(0)
                + 1;
            level[id.index()] = lvl; // lint: panic-ok(levelization visits only net ids it allocated)
            order.push(id);
            resolved += 1;
            // lint: panic-ok(levelization visits only net ids it allocated)
            for &succ in &fanout[id.index()] {
                if circuit.node(succ).is_gate() {
                    pending[succ.index()] -= 1; // lint: panic-ok(levelization visits only net ids it allocated)
                                                // lint: panic-ok(levelization visits only net ids it allocated)
                    if pending[succ.index()] == 0 {
                        ready.push(succ);
                    }
                }
            }
        }
        let total_gates = circuit.num_gates();
        if resolved != total_gates {
            // Some gate never became ready: it is on (or downstream of) a
            // combinational cycle. Name the lowest-id such gate.
            let culprit = circuit
                .nodes()
                .iter()
                .enumerate()
                .find(|(i, node)| node.is_gate() && pending[*i] > 0) // lint: panic-ok(levelization visits only net ids it allocated)
                .map(|(_, node)| node.name.clone())
                .unwrap_or_else(|| "<unknown>".to_string());
            return Err(NetlistError::CombinationalCycle(culprit));
        }
        // `order` from a stack pop is depth-biased but still topological;
        // re-sort by (level, id) for deterministic, cache-friendlier sweeps.
        order.sort_by_key(|id| (level[id.index()], id.0)); // lint: panic-ok(levelization visits only net ids it allocated)
        let depth = level.iter().copied().max().unwrap_or(0);
        Ok(Levelization {
            order,
            level,
            depth,
        })
    }

    /// Combinational gates in evaluation order.
    pub fn order(&self) -> &[NetId] {
        &self.order
    }

    /// The logic level of a net (0 for inputs, constants and flip-flops).
    pub fn level(&self, net: NetId) -> u32 {
        self.level[net.index()] // lint: panic-ok(levelization visits only net ids it allocated)
    }

    /// The combinational depth of the circuit.
    pub fn depth(&self) -> u32 {
        self.depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::GateKind;

    #[test]
    fn chain_levels() {
        let mut c = Circuit::new("chain");
        let a = c.add_input("a");
        let g1 = c.add_gate("g1", GateKind::Not, vec![a]);
        let g2 = c.add_gate("g2", GateKind::Not, vec![g1]);
        let g3 = c.add_gate("g3", GateKind::Not, vec![g2]);
        c.add_output(g3);
        let lv = c.levelize().unwrap();
        assert_eq!(lv.level(a), 0);
        assert_eq!(lv.level(g1), 1);
        assert_eq!(lv.level(g2), 2);
        assert_eq!(lv.level(g3), 3);
        assert_eq!(lv.depth(), 3);
        assert_eq!(lv.order(), &[g1, g2, g3]);
    }

    #[test]
    fn order_respects_fanin_precedence() {
        let mut c = Circuit::new("diamond");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let l = c.add_gate("l", GateKind::And, vec![a, b]);
        let r = c.add_gate("r", GateKind::Or, vec![a, b]);
        let top = c.add_gate("top", GateKind::Xor, vec![l, r]);
        c.add_output(top);
        let lv = c.levelize().unwrap();
        let pos = |id: NetId| lv.order().iter().position(|&x| x == id).unwrap();
        assert!(pos(l) < pos(top));
        assert!(pos(r) < pos(top));
        assert_eq!(lv.level(top), 2);
    }

    #[test]
    fn dff_is_level_zero_source() {
        let mut c = Circuit::new("seq");
        let q = c.add_dff_placeholder("q");
        let g = c.add_gate("g", GateKind::Not, vec![q]);
        c.connect_dff(q, g).unwrap();
        c.add_output(q);
        let lv = c.levelize().unwrap();
        assert_eq!(lv.level(q), 0);
        assert_eq!(lv.level(g), 1);
    }

    #[test]
    fn empty_circuit_levelizes() {
        let c = Circuit::new("empty");
        let lv = c.levelize().unwrap();
        assert!(lv.order().is_empty());
        assert_eq!(lv.depth(), 0);
    }

    #[test]
    fn cycle_is_reported_with_a_name() {
        let mut c = Circuit::new("cyc");
        let a = c.add_input("a");
        let g1 = c.add_gate("g1", GateKind::And, vec![a, a]);
        let g2 = c.add_gate("g2", GateKind::Or, vec![g1, a]);
        c.replace_fanin(g1, 1, g2).unwrap();
        c.add_output(g2);
        let err = c.levelize().unwrap_err();
        assert!(matches!(err, NetlistError::CombinationalCycle(_)));
    }
}
