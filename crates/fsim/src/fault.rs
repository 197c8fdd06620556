//! The single-stuck-at fault universe.
//!
//! Faults live at two kinds of sites:
//!
//! - **Stem**: the output net of a node (gate, primary input, flip-flop,
//!   constant). One sa0 and one sa1 per net.
//! - **Branch**: an input pin of a gate or flip-flop whose source net has
//!   fanout greater than one. (For a fanout-free net the pin fault is
//!   physically the same wire as the stem fault, so it is not enumerated
//!   separately.)
//!
//! This is the standard fault universe on which structural equivalence
//! collapsing ([`crate::collapse`]) operates.

use std::fmt;

use rls_netlist::{Circuit, NetId};

/// Dense index of a fault within a [`FaultUniverse`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FaultId(pub u32);

impl FaultId {
    /// The index as `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Where a fault sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// On the output net of the node.
    Stem(NetId),
    /// On input pin `pin` of node `node` (only enumerated when the source
    /// net has fanout > 1).
    Branch { node: NetId, pin: u32 },
}

impl FaultSite {
    /// The net whose fault-free value activates the fault (the source net
    /// for a branch).
    pub fn source_net(self, circuit: &Circuit) -> NetId {
        match self {
            FaultSite::Stem(n) => n,
            FaultSite::Branch { node, pin } => circuit.node(node).fanin()[pin as usize], // lint: panic-ok(fault sites index nets allocated by the same circuit)
        }
    }
}

/// A single stuck-at fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fault {
    /// Where the fault sits.
    pub site: FaultSite,
    /// The stuck value (`false` = stuck-at-0).
    pub stuck: bool,
}

impl Fault {
    /// Stuck-at-0 at a stem.
    pub fn stem_sa0(net: NetId) -> Self {
        Fault {
            site: FaultSite::Stem(net),
            stuck: false,
        }
    }

    /// Stuck-at-1 at a stem.
    pub fn stem_sa1(net: NetId) -> Self {
        Fault {
            site: FaultSite::Stem(net),
            stuck: true,
        }
    }

    /// A human-readable description, e.g. `G11/0` or `G8.in1/1`.
    pub fn describe(&self, circuit: &Circuit) -> String {
        let v = i32::from(self.stuck);
        match self.site {
            FaultSite::Stem(n) => format!("{}/{v}", circuit.node(n).name),
            FaultSite::Branch { node, pin } => {
                format!("{}.in{pin}/{v}", circuit.node(node).name)
            }
        }
    }
}

impl fmt::Display for FaultId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// The complete (uncollapsed) fault universe of a circuit.
#[derive(Debug, Clone)]
pub struct FaultUniverse {
    faults: Vec<Fault>,
}

impl FaultUniverse {
    /// Enumerates all stem faults plus branch faults on fanout pins.
    ///
    /// Deterministic order: stems in net-id order (sa0 then sa1), then
    /// branches in (node, pin) order.
    pub fn enumerate(circuit: &Circuit) -> Self {
        let fanout = circuit.fanout();
        let mut faults = Vec::new();
        for i in 0..circuit.len() {
            let net = NetId(i as u32);
            faults.push(Fault::stem_sa0(net));
            faults.push(Fault::stem_sa1(net));
        }
        for i in 0..circuit.len() {
            let node = NetId(i as u32);
            for (pin, &src) in circuit.node(node).fanin().iter().enumerate() {
                // lint: panic-ok(fault sites index nets allocated by the same circuit)
                if fanout[src.index()].len() > 1 {
                    for stuck in [false, true] {
                        faults.push(Fault {
                            site: FaultSite::Branch {
                                node,
                                pin: pin as u32,
                            },
                            stuck,
                        });
                    }
                }
            }
        }
        FaultUniverse { faults }
    }

    /// All faults, indexable by [`FaultId`].
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// The fault with the given id.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn fault(&self, id: FaultId) -> Fault {
        self.faults[id.index()] // lint: panic-ok(fault sites index nets allocated by the same circuit)
    }

    /// Number of faults in the universe.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the universe is empty.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Looks up the id of a fault.
    pub fn id_of(&self, fault: Fault) -> Option<FaultId> {
        self.faults
            .iter()
            .position(|&f| f == fault)
            .map(|i| FaultId(i as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rls_netlist::GateKind;

    fn fanout_circuit() -> Circuit {
        // a feeds both g1 and g2: branch faults at both pins.
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g1 = c.add_gate("g1", GateKind::And, vec![a, b]);
        let g2 = c.add_gate("g2", GateKind::Or, vec![a, b]);
        c.add_output(g1);
        c.add_output(g2);
        c
    }

    #[test]
    fn stem_faults_cover_every_net() {
        let c = fanout_circuit();
        let u = FaultUniverse::enumerate(&c);
        let stems = u
            .faults()
            .iter()
            .filter(|f| matches!(f.site, FaultSite::Stem(_)))
            .count();
        assert_eq!(stems, 2 * c.len());
    }

    #[test]
    fn branch_faults_only_on_fanout_nets() {
        let c = fanout_circuit();
        let u = FaultUniverse::enumerate(&c);
        let branches: Vec<&Fault> = u
            .faults()
            .iter()
            .filter(|f| matches!(f.site, FaultSite::Branch { .. }))
            .collect();
        // a and b each feed two gates: 2 nets * 2 pins * 2 polarities = 8.
        assert_eq!(branches.len(), 8);
    }

    #[test]
    fn fanout_free_circuit_has_no_branches() {
        let mut c = Circuit::new("chain");
        let a = c.add_input("a");
        let g = c.add_gate("g", GateKind::Not, vec![a]);
        c.add_output(g);
        let u = FaultUniverse::enumerate(&c);
        assert_eq!(u.len(), 4); // 2 nets * 2 polarities
    }

    #[test]
    fn source_net_of_branch_is_the_fanin() {
        let c = fanout_circuit();
        let g1 = c.find("g1").unwrap();
        let a = c.find("a").unwrap();
        let site = FaultSite::Branch { node: g1, pin: 0 };
        assert_eq!(site.source_net(&c), a);
    }

    #[test]
    fn describe_names_the_site() {
        let c = fanout_circuit();
        let g1 = c.find("g1").unwrap();
        assert_eq!(Fault::stem_sa0(g1).describe(&c), "g1/0");
        let branch = Fault {
            site: FaultSite::Branch { node: g1, pin: 1 },
            stuck: true,
        };
        assert_eq!(branch.describe(&c), "g1.in1/1");
    }

    #[test]
    fn id_round_trip() {
        let c = fanout_circuit();
        let u = FaultUniverse::enumerate(&c);
        for i in 0..u.len() {
            let id = FaultId(i as u32);
            assert_eq!(u.id_of(u.fault(id)), Some(id));
        }
    }

    #[test]
    fn enumeration_is_deterministic() {
        let c = fanout_circuit();
        let a = FaultUniverse::enumerate(&c);
        let b = FaultUniverse::enumerate(&c);
        assert_eq!(a.faults(), b.faults());
    }
}
