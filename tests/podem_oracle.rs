//! PODEM's differential oracle: the full-recompute engine, kept here as
//! the reference for the event-driven one in `rls_atpg::podem`.
//!
//! The reference re-implies the whole circuit after every decision and
//! scans every gate for the D-frontier. The production engine implies
//! incrementally, rewinds an undo trail on backtrack, and scans only the
//! fault's cone. Both must make the same decisions, so every fault must
//! get an equal [`PodemOutcome`] — verdict and witness test alike:
//!
//! - every collapsed fault of s27, s208 and s298 at the table limit;
//! - s344 and s382 at a small limit, so the abort and flip paths run
//!   cheaply;
//! - every collapsed fault of s953, the benchmark's circuit, at limit 20,
//!   where dozens of faults abort;
//! - a property over seeded synthetic circuits with XOR gates, flip-flop
//!   pin branches and flip-flop output stems.
//!
//! On each of these fault lists `DetectableSet::compute_for`, which
//! classifies on every core, must also give each fault the reference's
//! verdict and witness, in input order.
//!
//! The reference evaluates gates with its own [`eval_v3`], which collects
//! each gate's inputs first; the production engine evaluates in place with
//! `rls_atpg::v3::eval_gate`, so the two share no evaluation code. A
//! property compares the two evaluators on random three-valued inputs.

#[path = "support/quickprop.rs"]
mod quickprop;

use quickprop::{check, no_shrink, Gen};
use random_limited_scan::benchmarks::SynthConfig;
use rls_atpg::v3::eval_gate;
use rls_atpg::{DetectableSet, Podem, PodemOutcome, V3};
use rls_fsim::{Fault, FaultId, FaultSimulator, FaultSite, ScanTest};
use rls_netlist::{Circuit, GateKind, NetId, NodeKind};

/// Evaluates a gate over three-valued inputs, collected into a slice.
///
/// # Panics
///
/// Panics if `inputs` is empty or a unary gate gets several inputs.
fn eval_v3(kind: GateKind, inputs: &[V3]) -> V3 {
    assert!(!inputs.is_empty(), "gate must have at least one fanin");
    match kind {
        GateKind::And | GateKind::Nand => {
            let v = if inputs.contains(&V3::Zero) {
                V3::Zero
            } else if inputs.iter().all(|&v| v == V3::One) {
                V3::One
            } else {
                V3::X
            };
            if kind == GateKind::Nand {
                !v
            } else {
                v
            }
        }
        GateKind::Or | GateKind::Nor => {
            let v = if inputs.contains(&V3::One) {
                V3::One
            } else if inputs.iter().all(|&v| v == V3::Zero) {
                V3::Zero
            } else {
                V3::X
            };
            if kind == GateKind::Nor {
                !v
            } else {
                v
            }
        }
        GateKind::Xor | GateKind::Xnor => {
            if inputs.iter().any(|v| v.is_x()) {
                V3::X
            } else {
                let parity = inputs
                    .iter()
                    .fold(false, |acc, v| acc ^ v.known().expect("checked"));
                let v = V3::from_bool(parity);
                if kind == GateKind::Xnor {
                    !v
                } else {
                    v
                }
            }
        }
        GateKind::Not => {
            assert_eq!(inputs.len(), 1, "NOT takes exactly one fanin");
            !inputs[0]
        }
        GateKind::Buf => {
            assert_eq!(inputs.len(), 1, "BUF takes exactly one fanin");
            inputs[0]
        }
    }
}

/// The full-recompute PODEM engine.
struct Reference<'c> {
    circuit: &'c Circuit,
    order: Vec<NetId>,
    observed: Vec<(NetId, Option<NetId>)>,
    backtrack_limit: usize,
}

struct Planes {
    good: Vec<V3>,
    faulty: Vec<V3>,
}

impl<'c> Reference<'c> {
    fn new(circuit: &'c Circuit, backtrack_limit: usize) -> Self {
        let lev = circuit.levelize().expect("acyclic");
        let mut observed: Vec<(NetId, Option<NetId>)> =
            circuit.outputs().iter().map(|&po| (po, None)).collect();
        for &ff in circuit.dffs() {
            if let NodeKind::Dff { d: Some(d) } = circuit.node(ff).kind {
                observed.push((d, Some(ff)));
            }
        }
        Reference {
            circuit,
            order: lev.order().to_vec(),
            observed,
            backtrack_limit,
        }
    }

    fn generate(&self, fault: Fault) -> PodemOutcome {
        if let FaultSite::Stem(net) = fault.site {
            if self.circuit.node(net).is_dff() {
                let pin_equiv = Fault {
                    site: FaultSite::Branch { node: net, pin: 0 },
                    stuck: fault.stuck,
                };
                match self.generate_inner(pin_equiv) {
                    PodemOutcome::Detected(t) => return PodemOutcome::Detected(t),
                    PodemOutcome::Aborted => {
                        return match self.generate_inner(fault) {
                            PodemOutcome::Detected(t) => PodemOutcome::Detected(t),
                            _ => PodemOutcome::Aborted,
                        };
                    }
                    PodemOutcome::Redundant => {}
                }
            }
        }
        self.generate_inner(fault)
    }

    fn generate_inner(&self, fault: Fault) -> PodemOutcome {
        let n = self.circuit.len();
        let mut planes = Planes {
            good: vec![V3::X; n],
            faulty: vec![V3::X; n],
        };
        // Decision stack: (input net, value, already flipped).
        let mut stack: Vec<(NetId, bool, bool)> = Vec::new();
        let mut backtracks = 0usize;
        let site_net = fault.site.source_net(self.circuit);
        loop {
            self.imply(fault, &stack, &mut planes);
            if self.success(fault, &planes) {
                return PodemOutcome::Detected(self.witness(&stack));
            }
            if let Some((net, val)) = self.objective(fault, site_net, &planes) {
                if let Some((input, value)) = self.backtrace(net, val, &planes) {
                    stack.push((input, value, false));
                    continue;
                }
            }
            loop {
                match stack.pop() {
                    Some((input, value, false)) => {
                        backtracks += 1;
                        if backtracks > self.backtrack_limit {
                            return PodemOutcome::Aborted;
                        }
                        stack.push((input, !value, true));
                        break;
                    }
                    Some((_, _, true)) => continue,
                    None => return PodemOutcome::Redundant,
                }
            }
        }
    }

    fn imply(&self, fault: Fault, stack: &[(NetId, bool, bool)], planes: &mut Planes) {
        let c = self.circuit;
        planes.good.fill(V3::X);
        planes.faulty.fill(V3::X);
        for (i, node) in c.nodes().iter().enumerate() {
            if let NodeKind::Const(v) = node.kind {
                planes.good[i] = V3::from_bool(v);
                planes.faulty[i] = V3::from_bool(v);
            }
        }
        for &(input, value, _) in stack {
            planes.good[input.index()] = V3::from_bool(value);
            planes.faulty[input.index()] = V3::from_bool(value);
        }
        if let FaultSite::Stem(net) = fault.site {
            if !c.node(net).is_gate() {
                planes.faulty[net.index()] = V3::from_bool(fault.stuck);
            }
        }
        let mut good_in: Vec<V3> = Vec::with_capacity(8);
        let mut faulty_in: Vec<V3> = Vec::with_capacity(8);
        for &gate in &self.order {
            let NodeKind::Gate { kind, fanin } = &c.node(gate).kind else {
                unreachable!("order contains only gates");
            };
            good_in.clear();
            faulty_in.clear();
            for (pin, &f) in fanin.iter().enumerate() {
                good_in.push(planes.good[f.index()]);
                let mut fv = planes.faulty[f.index()];
                if let FaultSite::Branch { node, pin: p } = fault.site {
                    if node == gate && p as usize == pin {
                        fv = V3::from_bool(fault.stuck);
                    }
                }
                faulty_in.push(fv);
            }
            planes.good[gate.index()] = eval_v3(*kind, &good_in);
            let mut fv = eval_v3(*kind, &faulty_in);
            if fault.site == FaultSite::Stem(gate) {
                fv = V3::from_bool(fault.stuck);
            }
            planes.faulty[gate.index()] = fv;
        }
    }

    fn port_faulty(&self, fault: Fault, port: NetId, owner: Option<NetId>, planes: &Planes) -> V3 {
        if let Some(ff) = owner {
            let hits = match fault.site {
                FaultSite::Branch { node, pin: 0 } => node == ff,
                FaultSite::Stem(net) => net == ff,
                _ => false,
            };
            if hits {
                return V3::from_bool(fault.stuck);
            }
        }
        planes.faulty[port.index()]
    }

    fn success(&self, fault: Fault, planes: &Planes) -> bool {
        self.observed.iter().any(|&(port, owner)| {
            let g = planes.good[port.index()].known();
            let f = self.port_faulty(fault, port, owner, planes).known();
            matches!((g, f), (Some(a), Some(b)) if a != b)
        })
    }

    fn objective(&self, fault: Fault, site_net: NetId, planes: &Planes) -> Option<(NetId, bool)> {
        match planes.good[site_net.index()].known() {
            None => return Some((site_net, !fault.stuck)),
            Some(v) if v == fault.stuck => return None,
            Some(_) => {}
        }
        for &gate in &self.order {
            let NodeKind::Gate { kind, fanin } = &self.circuit.node(gate).kind else {
                unreachable!("order contains only gates");
            };
            let out_g = planes.good[gate.index()];
            let out_f = planes.faulty[gate.index()];
            let out_error = matches!((out_g.known(), out_f.known()), (Some(a), Some(b)) if a != b);
            if out_error || (!out_g.is_x() && !out_f.is_x()) {
                continue;
            }
            let has_error_input = fanin.iter().enumerate().any(|(pin, &f)| {
                let g = planes.good[f.index()].known();
                let mut fv = planes.faulty[f.index()];
                if let FaultSite::Branch { node, pin: p } = fault.site {
                    if node == gate && p as usize == pin {
                        fv = V3::from_bool(fault.stuck);
                    }
                }
                matches!((g, fv.known()), (Some(a), Some(b)) if a != b)
            });
            if !has_error_input {
                continue;
            }
            if let Some(&x_input) = fanin
                .iter()
                .find(|f| planes.good[f.index()].is_x() || planes.faulty[f.index()].is_x())
            {
                let val = match kind.controlling_value() {
                    Some(c) => !c,
                    None => false,
                };
                return Some((x_input, val));
            }
        }
        None
    }

    fn backtrace(&self, mut net: NetId, mut val: bool, planes: &Planes) -> Option<(NetId, bool)> {
        loop {
            match &self.circuit.node(net).kind {
                NodeKind::Input | NodeKind::Dff { .. } => {
                    return planes.good[net.index()].is_x().then_some((net, val));
                }
                NodeKind::Const(_) => return None,
                NodeKind::Gate { kind, fanin } => {
                    let t = val ^ kind.is_inverting();
                    let x_input = fanin
                        .iter()
                        .copied()
                        .find(|f| planes.good[f.index()].is_x())
                        .or_else(|| {
                            fanin
                                .iter()
                                .copied()
                                .find(|f| planes.faulty[f.index()].is_x())
                        })?;
                    let next_val = match kind {
                        GateKind::Xor | GateKind::Xnor => {
                            let known_parity = fanin
                                .iter()
                                .filter_map(|f| planes.good[f.index()].known())
                                .fold(false, |acc, b| acc ^ b);
                            t ^ known_parity
                        }
                        _ => t,
                    };
                    net = x_input;
                    val = next_val;
                }
            }
        }
    }

    fn witness(&self, stack: &[(NetId, bool, bool)]) -> ScanTest {
        let c = self.circuit;
        let mut pi = vec![false; c.num_inputs()];
        let mut state = vec![false; c.num_dffs()];
        for &(input, value, _) in stack {
            if let Some(k) = c.inputs().iter().position(|&p| p == input) {
                pi[k] = value;
            } else if let Some(p) = c.dff_position(input) {
                state[p] = value;
            }
        }
        ScanTest::new(state, vec![pi])
    }
}

/// Compares both engines on every collapsed fault, and the fanned-out
/// [`DetectableSet::compute_for`] with the reference's verdicts and
/// witnesses in input order; returns the first disagreement, and counts
/// of (detected, redundant, aborted) otherwise.
fn compare(c: &Circuit, limit: usize) -> Result<[usize; 3], String> {
    let podem = Podem::new(c, limit);
    let reference = Reference::new(c, limit);
    let sim = FaultSimulator::new(c);
    let faults = sim.collapsed().representatives();
    let mut verdicts: [Vec<FaultId>; 3] = Default::default();
    let mut witnesses = Vec::new();
    for &rep in faults {
        let fault = sim.universe().fault(rep);
        let got = podem.generate(fault);
        let want = reference.generate(fault);
        if got != want {
            return Err(format!(
                "{} on {}: engine {got:?}, reference {want:?}",
                fault.describe(c),
                c.name()
            ));
        }
        let kind = match want {
            PodemOutcome::Detected(test) => {
                witnesses.push((rep, test));
                0
            }
            PodemOutcome::Redundant => 1,
            PodemOutcome::Aborted => 2,
        };
        verdicts[kind].push(rep);
    }
    let set = DetectableSet::compute_for(c, sim.universe(), faults, limit);
    let lists = [
        ("detectable", set.detectable(), &verdicts[0]),
        ("redundant", set.redundant(), &verdicts[1]),
        ("aborted", set.aborted(), &verdicts[2]),
    ];
    for (what, got, want) in lists {
        if got != want.as_slice() {
            return Err(format!(
                "compute_for on {}: {what} {got:?}, reference {want:?}",
                c.name()
            ));
        }
    }
    if set.witnesses() != witnesses.as_slice() {
        return Err(format!(
            "compute_for on {}: witnesses differ from the reference's",
            c.name()
        ));
    }
    Ok(verdicts.map(|v| v.len()))
}

fn circuit(name: &str) -> Circuit {
    random_limited_scan::benchmarks::by_name(name).expect("registered circuit")
}

#[test]
fn small_circuits_match_the_reference_at_the_table_limit() {
    for name in ["s27", "s208", "s298"] {
        compare(&circuit(name), 10_000).unwrap();
    }
}

#[test]
fn abort_and_flip_paths_match_the_reference_at_a_small_limit() {
    let mut aborted = 0;
    for name in ["s344", "s382"] {
        let [_, _, a] = compare(&circuit(name), 50).unwrap();
        aborted += a;
    }
    assert!(aborted > 0, "the small limit must reach the abort path");
}

#[test]
fn every_s953_fault_matches_the_reference_at_a_small_limit() {
    let [_, _, aborted] = compare(&circuit("s953"), 20).unwrap();
    assert!(aborted > 0, "the small limit must reach the abort path");
}

#[test]
fn prop_in_place_evaluator_matches_the_reference_evaluator() {
    // Arities the property reached, by input count 1..=4.
    let reached = std::cell::Cell::new([0usize; 4]);
    check(
        "eval_gate_matches_eval_v3",
        0xe7a1,
        512,
        |g: &mut Gen| {
            let kind = GateKind::ALL[g.usize_in(0, GateKind::ALL.len())];
            let arity = if kind.is_unary() { 1 } else { g.usize_in(1, 5) };
            let inputs: Vec<V3> = (0..arity)
                .map(|_| [V3::Zero, V3::One, V3::X][g.usize_in(0, 3)])
                .collect();
            (kind, inputs)
        },
        no_shrink,
        |(kind, inputs)| {
            let mut seen = reached.get();
            seen[inputs.len() - 1] += 1;
            reached.set(seen);
            let (got, want) = (
                eval_gate(*kind, inputs.iter().copied()),
                eval_v3(*kind, inputs),
            );
            if got == want {
                Ok(())
            } else {
                Err(format!(
                    "{kind} {inputs:?}: in place {got:?}, reference {want:?}"
                ))
            }
        },
    );
    assert!(reached.get().iter().all(|&n| n > 0), "{:?}", reached.get());
}

#[test]
fn prop_synthetic_circuits_match_the_reference() {
    // Site kinds the property reached: XOR-family gates, flip-flop data-pin
    // branches, flip-flop output stems.
    let reached = std::cell::Cell::new([0usize; 3]);
    check(
        "podem_matches_reference",
        0x90de,
        48,
        |g: &mut Gen| SynthConfig {
            name: "podem".into(),
            inputs: g.usize_in(1, 6),
            outputs: g.usize_in(1, 4),
            dffs: g.usize_in(1, 6),
            gates: g.usize_in(5, 60),
            seed: g.word(),
            resistant_gates: 1,
            resistant_width: 4,
        },
        no_shrink,
        |cfg| {
            let c = cfg.build();
            let mut seen = reached.get();
            for node in c.nodes() {
                if let NodeKind::Gate {
                    kind: GateKind::Xor | GateKind::Xnor,
                    ..
                } = node.kind
                {
                    seen[0] += 1;
                }
            }
            let sim = FaultSimulator::new(&c);
            for &rep in sim.collapsed().representatives() {
                match sim.universe().fault(rep).site {
                    FaultSite::Branch { node, .. } if c.node(node).is_dff() => seen[1] += 1,
                    FaultSite::Stem(net) if c.node(net).is_dff() => seen[2] += 1,
                    _ => {}
                }
            }
            reached.set(seen);
            compare(&c, 64).map(|_| ())
        },
    );
    let [xor, pins, stems] = reached.get();
    assert!(xor > 0 && pins > 0 && stems > 0, "{:?}", reached.get());
}
