//! The PODEM test-generation algorithm.
//!
//! PODEM (path-oriented decision making) searches the space of primary-input
//! assignments only: an objective (net, value) is *backtraced* to an
//! assignable input, the assignment is *implied* forward through a two-plane
//! (good/faulty) three-valued simulation, and conflicts backtrack by
//! flipping the most recent decision. On the scan-expanded view, assignable
//! inputs are primary inputs plus flip-flop outputs, and observation points
//! are primary outputs plus flip-flop data inputs.
//!
//! Implication is event-driven. Each fault starts from one full sweep with
//! every source at X; a decision then re-evaluates only the gates whose
//! inputs changed, in level order, and pushes the old values of every net
//! it changes onto an undo trail. A backtrack rewinds the trail to the
//! decision's mark instead of re-simulating the circuit. The D-frontier is
//! searched only inside the fault's cone (the gates an error can reach),
//! in levelized order, so it finds the same gate a whole-circuit scan
//! would.
//!
//! Three more things make a step cheap, and none changes a value the
//! search reads, so none changes a decision:
//!
//! - **Flat gate data.** [`Podem::new`] lays out each gate's kind and
//!   fanins, each net's gate readers and each net's observation ports in
//!   flat per-net arrays (an offset array and one item array). Gates are
//!   evaluated in place over them by [`eval_gate`]; implication,
//!   objective and backtrace never look up a netlist node.
//! - **One plane outside the cone.** A gate outside the fault's cone
//!   (other than the stem-fault gate itself) reads no net that can carry
//!   an error, so its faulty value is its good value: it is evaluated
//!   once and the value copied.
//! - **Success checked where values changed.** A decision is only made
//!   when no observation port sees an error, and a rewind restores such a
//!   state, so after an implication only the ports on nets it wrote (the
//!   trail entries above the decision's mark) can newly see one. Only
//!   those are checked; the initial planes get the full check.
//!
//! Exhausting the decision space proves a fault *redundant*
//! (combinationally undetectable); exceeding the backtrack limit *aborts*.

use rls_netlist::{Circuit, GateKind, NetId, NodeKind};

use rls_fsim::{Fault, FaultSite, ScanTest};

use crate::v3::{eval_gate, V3};

/// Outcome of test generation for one fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PodemOutcome {
    /// A detecting single-vector scan test exists.
    Detected(ScanTest),
    /// Proven combinationally undetectable.
    Redundant,
    /// Backtrack limit exceeded; detectability unknown.
    Aborted,
}

impl PodemOutcome {
    /// Whether the fault was proven detectable.
    pub fn is_detected(&self) -> bool {
        matches!(self, PodemOutcome::Detected(_))
    }
}

/// Search effort spent on one or more faults.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Effort {
    /// New decisions pushed onto the decision stack.
    pub decisions: u64,
    /// Decisions flipped by a backtrack.
    pub backtracks: u64,
}

/// One list per net in a flat array: net `i`'s list is
/// `items[start[i]..start[i + 1]]`.
#[derive(Debug)]
struct PerNet<T> {
    start: Vec<u32>,
    items: Vec<T>,
}

impl<T> PerNet<T> {
    /// Lays out `lists`, the first being net 0's.
    fn new<L: IntoIterator<Item = T>>(lists: impl IntoIterator<Item = L>) -> Self {
        let mut start = vec![0];
        let mut items = Vec::new();
        for list in lists {
            items.extend(list);
            start.push(items.len() as u32);
        }
        PerNet { start, items }
    }

    /// Net `net`'s list.
    fn of(&self, net: NetId) -> &[T] {
        let i = net.index();
        // lint: panic-ok(PODEM search: gate and net ids validated when the circuit is built)
        &self.items[self.start[i] as usize..self.start[i + 1] as usize]
    }
}

/// A PODEM engine bound to one circuit.
#[derive(Debug)]
pub struct Podem<'c> {
    circuit: &'c Circuit,
    /// Gates in levelized order.
    order: Vec<NetId>,
    /// `kind[i]`: gate `i`'s kind (`Buf` for a non-gate, never read).
    kind: Vec<GateKind>,
    /// Each gate's fanins in pin order; empty for every non-gate.
    fanin: PerNet<NetId>,
    /// The gates reading each net, each once.
    fanout: PerNet<NetId>,
    /// `level[i]`: the logic level of net `i` (0 for sources).
    level: Vec<u32>,
    /// `position[i]`: the index of gate `i` in `order` (0 for non-gates).
    position: Vec<u32>,
    /// Observation ports: the net read, and the owning flip-flop when the
    /// port is a scan-out observation of that flip-flop's captured value.
    observed: Vec<(NetId, Option<NetId>)>,
    /// The owners of the observation ports on each net.
    ports: PerNet<Option<NetId>>,
    backtrack_limit: usize,
}

#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct Planes {
    good: Vec<V3>,
    faulty: Vec<V3>,
}

/// One decision on the search stack.
#[derive(Debug, Clone, Copy)]
struct Decision {
    input: NetId,
    value: bool,
    flipped: bool,
    /// Trail length before this decision was implied.
    mark: usize,
}

impl<'c> Podem<'c> {
    /// Creates an engine with the given backtrack limit.
    ///
    /// # Panics
    ///
    /// Panics if the circuit has combinational cycles.
    pub fn new(circuit: &'c Circuit, backtrack_limit: usize) -> Self {
        let lev = circuit
            .levelize()
            .expect("test generation requires an acyclic circuit"); // lint: panic-ok(PODEM search: gate and net ids validated when the circuit is built)
        let mut observed: Vec<(NetId, Option<NetId>)> =
            circuit.outputs().iter().map(|&po| (po, None)).collect();
        for &ff in circuit.dffs() {
            if let NodeKind::Dff { d: Some(d) } = circuit.node(ff).kind {
                observed.push((d, Some(ff)));
            }
        }
        let mut ports = vec![Vec::new(); circuit.len()];
        for &(net, owner) in &observed {
            ports[net.index()].push(owner); // lint: panic-ok(PODEM search: gate and net ids validated when the circuit is built)
        }
        let kind = circuit
            .nodes()
            .iter()
            .map(|node| match node.kind {
                NodeKind::Gate { kind, .. } => kind,
                _ => GateKind::Buf,
            })
            .collect();
        let fanin = PerNet::new(circuit.nodes().iter().map(|node| match &node.kind {
            NodeKind::Gate { fanin, .. } => fanin.clone(),
            _ => Vec::new(),
        }));
        let fanout = PerNet::new(circuit.fanout().into_iter().map(|mut readers| {
            readers.retain(|&r| circuit.node(r).is_gate());
            readers.dedup(); // ids are sorted, so repeats are adjacent
            readers
        }));
        let level = (0..circuit.len())
            .map(|i| lev.level(NetId(i as u32)))
            .collect();
        let mut position = vec![0u32; circuit.len()];
        for (k, &gate) in lev.order().iter().enumerate() {
            position[gate.index()] = k as u32; // lint: panic-ok(PODEM search: gate and net ids validated when the circuit is built)
        }
        Podem {
            circuit,
            order: lev.order().to_vec(),
            kind,
            fanin,
            fanout,
            level,
            position,
            observed,
            ports: PerNet::new(ports),
            backtrack_limit,
        }
    }

    /// The observation points (primary outputs, then flip-flop data nets).
    pub fn observed(&self) -> Vec<NetId> {
        self.observed.iter().map(|&(n, _)| n).collect()
    }

    /// Attempts to generate a single-vector scan test for `fault`.
    ///
    /// A fault on a flip-flop *output* has two detection mechanisms: it can
    /// propagate through the combinational logic like any other fault, and
    /// it is read directly by the scan-out (the stored value is stuck).
    /// Both are explored; the fault is redundant only if both fail.
    pub fn generate(&self, fault: Fault) -> PodemOutcome {
        self.generate_counted(fault, &mut Effort::default())
    }

    /// [`Podem::generate`], adding the search effort to `effort`.
    pub(crate) fn generate_counted(&self, fault: Fault, effort: &mut Effort) -> PodemOutcome {
        if let FaultSite::Stem(net) = fault.site {
            if self.circuit.node(net).is_dff() {
                // Scan-out mechanism: the stored value reads `stuck`, so it
                // suffices to make the captured good value `!stuck` — the
                // same search as the flip-flop data-pin fault.
                let pin_equiv = Fault {
                    site: FaultSite::Branch { node: net, pin: 0 },
                    stuck: fault.stuck,
                };
                match self.generate_inner(pin_equiv, effort) {
                    PodemOutcome::Detected(t) => return PodemOutcome::Detected(t),
                    PodemOutcome::Aborted => {
                        // Could not settle the cheap mechanism; the logic
                        // path may still detect, but a Redundant proof
                        // below would be unsound. Degrade to Aborted
                        // unless the logic path finds a test.
                        return match self.generate_inner(fault, effort) {
                            PodemOutcome::Detected(t) => PodemOutcome::Detected(t),
                            _ => PodemOutcome::Aborted,
                        };
                    }
                    PodemOutcome::Redundant => {}
                }
            }
        }
        self.generate_inner(fault, effort)
    }

    fn generate_inner(&self, fault: Fault, effort: &mut Effort) -> PodemOutcome {
        let site_net = fault.site.source_net(self.circuit);
        let cone = self.cone(fault);
        let mut search = Search::new(self, fault, &cone);
        let mut stack: Vec<Decision> = Vec::new();
        let mut backtracks = 0usize;
        // The trail position the last implication started at; `None`
        // before the first, when every port is checked.
        let mut implied_from = None;
        loop {
            let detected = match implied_from {
                None => self.success(fault, &search.planes),
                Some(mark) => search.error_since(mark),
            };
            if detected {
                return PodemOutcome::Detected(self.witness(&stack));
            }
            let objective = self.objective(fault, site_net, &cone, &search.planes);
            if let Some((net, val)) = objective {
                if let Some((input, value)) = self.backtrace(net, val, &search.planes) {
                    let mark = search.trail.len();
                    stack.push(Decision {
                        input,
                        value,
                        flipped: false,
                        mark,
                    });
                    search.assign(input, value);
                    implied_from = Some(mark);
                    effort.decisions += 1;
                    continue;
                }
                // No X path back to an input: treat as conflict.
            }
            // Backtrack: drop flipped decisions, flip the latest unflipped
            // one. Marks nest, so one rewind undoes everything above it.
            loop {
                match stack.pop() {
                    Some(d) if !d.flipped => {
                        backtracks += 1;
                        if backtracks > self.backtrack_limit {
                            return PodemOutcome::Aborted;
                        }
                        effort.backtracks += 1;
                        search.undo(d.mark);
                        stack.push(Decision {
                            value: !d.value,
                            flipped: true,
                            ..d
                        });
                        search.assign(d.input, !d.value);
                        implied_from = Some(d.mark);
                        break;
                    }
                    Some(_) => continue,
                    None => return PodemOutcome::Redundant,
                }
            }
        }
    }

    /// The gates an error of `fault` can reach, in levelized order: the
    /// transitive gate fanout of the stem, or the branch's gate and its
    /// transitive fanout. Outside the cone good and faulty values agree,
    /// so no gate there can have an error input.
    fn cone(&self, fault: Fault) -> Vec<NetId> {
        let mut work: Vec<NetId> = match fault.site {
            FaultSite::Stem(net) => self.fanout.of(net).to_vec(),
            FaultSite::Branch { node, .. } if self.circuit.node(node).is_gate() => vec![node],
            FaultSite::Branch { .. } => Vec::new(),
        };
        let mut seen = vec![false; self.circuit.len()];
        let mut cone = Vec::new();
        while let Some(gate) = work.pop() {
            // lint: panic-ok(PODEM search: gate and net ids validated when the circuit is built)
            if !std::mem::replace(&mut seen[gate.index()], true) {
                cone.push(gate);
                work.extend_from_slice(self.fanout.of(gate));
            }
        }
        cone.sort_unstable_by_key(|g| self.position[g.index()]); // lint: panic-ok(PODEM search: gate and net ids validated when the circuit is built)
        cone
    }

    /// Evaluates `gate` in both planes from its fanins' current values,
    /// with `fault` injected. A gate outside the cone (`!in_cone`) reads
    /// no error, so it is evaluated once and its faulty value is its good
    /// value.
    fn eval(&self, fault: Fault, gate: NetId, in_cone: bool, planes: &Planes) -> (V3, V3) {
        let kind = self.kind[gate.index()]; // lint: panic-ok(PODEM search: gate and net ids validated when the circuit is built)
        let fanin = self.fanin.of(gate);
        // lint: panic-ok(PODEM search: gate and net ids validated when the circuit is built)
        let good = eval_gate(kind, fanin.iter().map(|f| planes.good[f.index()]));
        if !in_cone {
            return (good, good);
        }
        let stuck = V3::from_bool(fault.stuck);
        let faulty = match fault.site {
            FaultSite::Stem(net) if net == gate => stuck,
            FaultSite::Branch { node, pin } if node == gate => {
                let faulty_in = fanin.iter().enumerate().map(|(p, f)| {
                    if p == pin as usize {
                        stuck
                    } else {
                        planes.faulty[f.index()] // lint: panic-ok(PODEM search: gate and net ids validated when the circuit is built)
                    }
                });
                eval_gate(kind, faulty_in)
            }
            // lint: panic-ok(PODEM search: gate and net ids validated when the circuit is built)
            _ => eval_gate(kind, fanin.iter().map(|f| planes.faulty[f.index()])),
        };
        (good, faulty)
    }

    /// The planes before any decision: every source at X, constants set,
    /// the fault injected, and one sweep over all gates, both planes
    /// evaluated where `in_cone` says so.
    fn initial_planes(&self, fault: Fault, in_cone: &[bool]) -> Planes {
        let c = self.circuit;
        let mut planes = Planes {
            good: vec![V3::X; c.len()],
            faulty: vec![V3::X; c.len()],
        };
        for (i, node) in c.nodes().iter().enumerate() {
            if let NodeKind::Const(v) = node.kind {
                planes.good[i] = V3::from_bool(v); // lint: panic-ok(PODEM search: gate and net ids validated when the circuit is built)
                planes.faulty[i] = V3::from_bool(v); // lint: panic-ok(PODEM search: gate and net ids validated when the circuit is built)
            }
        }
        // Stem fault on a source (input/flip-flop/constant) forces the
        // faulty plane there.
        if let FaultSite::Stem(net) = fault.site {
            if !c.node(net).is_gate() {
                planes.faulty[net.index()] = V3::from_bool(fault.stuck); // lint: panic-ok(PODEM search: gate and net ids validated when the circuit is built)
            }
        }
        for &gate in &self.order {
            let i = gate.index();
            let (g, f) = self.eval(fault, gate, in_cone[i], &planes); // lint: panic-ok(PODEM search: gate and net ids validated when the circuit is built)
            planes.good[i] = g; // lint: panic-ok(PODEM search: gate and net ids validated when the circuit is built)
            planes.faulty[i] = f; // lint: panic-ok(PODEM search: gate and net ids validated when the circuit is built)
        }
        planes
    }

    /// Whether the port on `net` owned by `owner` observes an error: both
    /// values known and different. A fault on the owning flip-flop — its
    /// data pin or its output — corrupts the *stored* value the scan-out
    /// reads, independent of the net's value.
    fn port_error(&self, fault: Fault, net: NetId, owner: Option<NetId>, planes: &Planes) -> bool {
        let hits = owner.is_some_and(|ff| match fault.site {
            FaultSite::Branch { node, pin: 0 } => node == ff,
            FaultSite::Stem(stem) => stem == ff,
            _ => false,
        });
        let faulty = if hits {
            V3::from_bool(fault.stuck)
        } else {
            planes.faulty[net.index()] // lint: panic-ok(PODEM search: gate and net ids validated when the circuit is built)
        };
        let good = planes.good[net.index()]; // lint: panic-ok(PODEM search: gate and net ids validated when the circuit is built)
        matches!((good.known(), faulty.known()), (Some(a), Some(b)) if a != b)
    }

    /// Whether any observation port observes an error.
    fn success(&self, fault: Fault, planes: &Planes) -> bool {
        self.observed
            .iter()
            .any(|&(port, owner)| self.port_error(fault, port, owner, planes))
    }

    fn objective(
        &self,
        fault: Fault,
        site_net: NetId,
        cone: &[NetId],
        planes: &Planes,
    ) -> Option<(NetId, bool)> {
        // 1. Activate: the good value at the site must be the opposite of
        //    the stuck value.
        // lint: panic-ok(PODEM search: gate and net ids validated when the circuit is built)
        match planes.good[site_net.index()].known() {
            None => return Some((site_net, !fault.stuck)),
            Some(v) if v == fault.stuck => return None, // conflict
            Some(_) => {}
        }
        // 2. Propagate: pick the first D-frontier gate of the cone and set
        //    an X input to the non-controlling value.
        for &gate in cone {
            let out_g = planes.good[gate.index()]; // lint: panic-ok(PODEM search: gate and net ids validated when the circuit is built)
            let out_f = planes.faulty[gate.index()]; // lint: panic-ok(PODEM search: gate and net ids validated when the circuit is built)
            let out_error = matches!((out_g.known(), out_f.known()), (Some(a), Some(b)) if a != b);
            if out_error || (!out_g.is_x() && !out_f.is_x()) {
                continue;
            }
            let fanin = self.fanin.of(gate);
            let has_error_input = fanin.iter().enumerate().any(|(pin, &f)| {
                let g = planes.good[f.index()].known(); // lint: panic-ok(PODEM search: gate and net ids validated when the circuit is built)
                let mut fv = planes.faulty[f.index()]; // lint: panic-ok(PODEM search: gate and net ids validated when the circuit is built)
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
            // Descend through any input that is unknown in *either* plane:
            // an input whose good value is known but whose faulty value is
            // still X (the error masked one way) must also be justified,
            // or real propagation paths are missed and detectable faults
            // get misclassified as redundant.
            if let Some(&x_input) = fanin
                .iter()
                // lint: panic-ok(PODEM search: gate and net ids validated when the circuit is built)
                .find(|f| planes.good[f.index()].is_x() || planes.faulty[f.index()].is_x())
            {
                // lint: panic-ok(PODEM search: gate and net ids validated when the circuit is built)
                let val = match self.kind[gate.index()].controlling_value() {
                    Some(c) => !c,
                    None => false, // XOR family: any known value sensitizes
                };
                return Some((x_input, val));
            }
        }
        None
    }

    /// Maps an objective to an unassigned assignable input (PI or flip-flop
    /// output) and an initial value.
    fn backtrace(&self, mut net: NetId, mut val: bool, planes: &Planes) -> Option<(NetId, bool)> {
        loop {
            let fanin = self.fanin.of(net);
            if fanin.is_empty() {
                // A source: an input or flip-flop output is assignable
                // while X; a constant never is X.
                // lint: panic-ok(PODEM search: gate and net ids validated when the circuit is built)
                return planes.good[net.index()].is_x().then_some((net, val));
            }
            let kind = self.kind[net.index()]; // lint: panic-ok(PODEM search: gate and net ids validated when the circuit is built)
                                               // Pre-inversion target.
            let t = val ^ kind.is_inverting();
            // Descend through good-plane X inputs when available,
            // else fault-plane X (backtrace is a heuristic: it only
            // needs to reach an unassigned input).
            let x_input = fanin
                .iter()
                .copied()
                .find(|f| planes.good[f.index()].is_x()) // lint: panic-ok(PODEM search: gate and net ids validated when the circuit is built)
                .or_else(|| {
                    fanin
                        .iter()
                        .copied()
                        .find(|f| planes.faulty[f.index()].is_x()) // lint: panic-ok(PODEM search: gate and net ids validated when the circuit is built)
                })?;
            let next_val = match kind {
                GateKind::And | GateKind::Nand => t, // 0 needs one 0; 1 needs all 1
                GateKind::Or | GateKind::Nor => t,   // 1 needs one 1; 0 needs all 0
                GateKind::Not | GateKind::Buf => t,
                GateKind::Xor | GateKind::Xnor => {
                    // Aim for the parity using known inputs.
                    let known_parity = fanin
                        .iter()
                        .filter_map(|f| planes.good[f.index()].known()) // lint: panic-ok(PODEM search: gate and net ids validated when the circuit is built)
                        .fold(false, |acc, b| acc ^ b);
                    t ^ known_parity
                }
            };
            net = x_input;
            val = next_val;
        }
    }

    /// Builds the witness test from the decision stack: unassigned inputs
    /// default to 0.
    fn witness(&self, stack: &[Decision]) -> ScanTest {
        let c = self.circuit;
        let mut pi = vec![false; c.num_inputs()];
        let mut state = vec![false; c.num_dffs()];
        for &Decision { input, value, .. } in stack {
            if let Some(k) = c.inputs().iter().position(|&p| p == input) {
                pi[k] = value; // lint: panic-ok(PODEM search: gate and net ids validated when the circuit is built)
            } else if let Some(p) = c.dff_position(input) {
                state[p] = value; // lint: panic-ok(PODEM search: gate and net ids validated when the circuit is built)
            }
        }
        ScanTest::new(state, vec![pi])
    }
}

/// One fault's implication state: the cone flags, the two planes, the
/// undo trail, and the level-bucketed event queue.
struct Search<'p, 'c> {
    podem: &'p Podem<'c>,
    fault: Fault,
    /// `in_cone[i]`: gate `i` can carry an error — it lies in the fault's
    /// cone or is the stem-fault gate — so both planes are evaluated.
    in_cone: Vec<bool>,
    planes: Planes,
    /// The old `(net, good, faulty)` of every net changed by a decision,
    /// oldest first; a decision's mark is the trail length before it.
    trail: Vec<(NetId, V3, V3)>,
    /// Gates awaiting re-evaluation, bucketed by level.
    buckets: Vec<Vec<NetId>>,
    /// Whether a gate is already in its bucket.
    queued: Vec<bool>,
    /// Gates in all buckets.
    pending: usize,
}

impl<'p, 'c> Search<'p, 'c> {
    /// The search state before any decision, for `fault` with its `cone`.
    fn new(podem: &'p Podem<'c>, fault: Fault, cone: &[NetId]) -> Self {
        let depth = podem.level.iter().copied().max().unwrap_or(0) as usize;
        let mut in_cone = vec![false; podem.circuit.len()];
        for &gate in cone {
            in_cone[gate.index()] = true; // lint: panic-ok(PODEM search: gate and net ids validated when the circuit is built)
        }
        // The cone holds a stem's readers; a stem-fault gate is stuck in
        // the faulty plane. (On a source the flag is never read.)
        if let FaultSite::Stem(net) = fault.site {
            in_cone[net.index()] = true; // lint: panic-ok(PODEM search: gate and net ids validated when the circuit is built)
        }
        Search {
            podem,
            fault,
            planes: podem.initial_planes(fault, &in_cone),
            in_cone,
            trail: Vec::new(),
            buckets: vec![Vec::new(); depth + 1],
            queued: vec![false; podem.circuit.len()],
            pending: 0,
        }
    }

    /// Sets a source to `value` and implies the change forward, one level
    /// at a time, re-evaluating only gates with a changed input.
    fn assign(&mut self, input: NetId, value: bool) {
        let v = V3::from_bool(value);
        // A stem fault on the input keeps the faulty plane stuck there.
        let faulty = if self.fault.site == FaultSite::Stem(input) {
            self.planes.faulty[input.index()] // lint: panic-ok(PODEM search: gate and net ids validated when the circuit is built)
        } else {
            v
        };
        self.set(input, v, faulty);
        let mut level = 0;
        while self.pending > 0 {
            // lint: panic-ok(PODEM search: gate and net ids validated when the circuit is built)
            while let Some(gate) = self.buckets[level].pop() {
                self.pending -= 1;
                let i = gate.index();
                self.queued[i] = false; // lint: panic-ok(PODEM search: gate and net ids validated when the circuit is built)
                let in_cone = self.in_cone[i]; // lint: panic-ok(PODEM search: gate and net ids validated when the circuit is built)
                let (g, f) = self.podem.eval(self.fault, gate, in_cone, &self.planes);
                // lint: panic-ok(PODEM search: gate and net ids validated when the circuit is built)
                if (g, f) != (self.planes.good[i], self.planes.faulty[i]) {
                    self.set(gate, g, f);
                }
            }
            level += 1;
        }
    }

    /// Records `net`'s old values on the trail, stores the new ones, and
    /// queues the gates reading it.
    fn set(&mut self, net: NetId, good: V3, faulty: V3) {
        let i = net.index();
        self.trail
            .push((net, self.planes.good[i], self.planes.faulty[i])); // lint: panic-ok(PODEM search: gate and net ids validated when the circuit is built)
        self.planes.good[i] = good; // lint: panic-ok(PODEM search: gate and net ids validated when the circuit is built)
        self.planes.faulty[i] = faulty; // lint: panic-ok(PODEM search: gate and net ids validated when the circuit is built)
        let podem = self.podem;
        for &reader in podem.fanout.of(net) {
            // lint: panic-ok(PODEM search: gate and net ids validated when the circuit is built)
            if !std::mem::replace(&mut self.queued[reader.index()], true) {
                self.buckets[podem.level[reader.index()] as usize].push(reader); // lint: panic-ok(PODEM search: gate and net ids validated when the circuit is built)
                self.pending += 1;
            }
        }
    }

    /// Rewinds every change recorded since `mark`, newest first.
    fn undo(&mut self, mark: usize) {
        for (net, good, faulty) in self.trail.drain(mark..).rev() {
            self.planes.good[net.index()] = good; // lint: panic-ok(PODEM search: gate and net ids validated when the circuit is built)
            self.planes.faulty[net.index()] = faulty; // lint: panic-ok(PODEM search: gate and net ids validated when the circuit is built)
        }
    }

    /// Whether an observation port on a net written since trail position
    /// `mark` observes an error.
    fn error_since(&self, mark: usize) -> bool {
        let podem = self.podem;
        // lint: panic-ok(PODEM search: gate and net ids validated when the circuit is built)
        self.trail[mark..].iter().any(|&(net, ..)| {
            podem
                .ports
                .of(net)
                .iter()
                .any(|&owner| podem.port_error(self.fault, net, owner, &self.planes))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rls_fsim::FaultSimulator;
    use rls_netlist::Circuit;

    fn check_witness(c: &Circuit, fault: Fault, test: &ScanTest) {
        // The witness must actually detect the fault per the simulator.
        let mut sim = FaultSimulator::new(c);
        let universe_id = sim
            .universe()
            .id_of(fault)
            .expect("fault exists in universe");
        sim.set_targets(&[universe_id]);
        let det = sim.run_test(test);
        assert_eq!(det, vec![universe_id], "{}", fault.describe(c));
    }

    #[test]
    fn and_gate_faults() {
        let mut c = Circuit::new("and2");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let y = c.add_gate("y", GateKind::And, vec![a, b]);
        c.add_output(y);
        let podem = Podem::new(&c, 100);
        for fault in [
            Fault::stem_sa0(y),
            Fault::stem_sa1(y),
            Fault::stem_sa0(a),
            Fault::stem_sa1(a),
        ] {
            match podem.generate(fault) {
                PodemOutcome::Detected(t) => check_witness(&c, fault, &t),
                other => panic!("{}: {other:?}", fault.describe(&c)),
            }
        }
    }

    #[test]
    fn classic_redundant_fault_is_proven() {
        // y = OR(a, AND(a, b)) — the AND is absorbed; AND-output sa0 is
        // redundant (y = a regardless).
        let mut c = Circuit::new("absorb");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g = c.add_gate("g", GateKind::And, vec![a, b]);
        let y = c.add_gate("y", GateKind::Or, vec![a, g]);
        c.add_output(y);
        let podem = Podem::new(&c, 1000);
        assert_eq!(podem.generate(Fault::stem_sa0(g)), PodemOutcome::Redundant);
        // But g sa1 is detectable (a=0, b=0 gives y: good 0, faulty 1).
        match podem.generate(Fault::stem_sa1(g)) {
            PodemOutcome::Detected(t) => check_witness(&c, Fault::stem_sa1(g), &t),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn state_port_faults_use_scan() {
        // Fault on a flip-flop output propagating only through state logic.
        let c = rls_benchmarks::parametric::shift_register(3);
        let q0 = c.find("q0").unwrap();
        let podem = Podem::new(&c, 100);
        match podem.generate(Fault::stem_sa1(q0)) {
            PodemOutcome::Detected(t) => check_witness(&c, Fault::stem_sa1(q0), &t),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn every_s27_collapsed_fault_is_detectable_with_verified_witness() {
        let c = rls_benchmarks::s27();
        let podem = Podem::new(&c, 10_000);
        let sim = FaultSimulator::new(&c);
        for &rep in sim.collapsed().representatives() {
            let fault = sim.universe().fault(rep);
            match podem.generate(fault) {
                PodemOutcome::Detected(t) => check_witness(&c, fault, &t),
                other => panic!("{}: {other:?}", fault.describe(&c)),
            }
        }
    }

    #[test]
    fn xor_propagation() {
        let mut c = Circuit::new("xor");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let y = c.add_gate("y", GateKind::Xor, vec![a, b]);
        c.add_output(y);
        let podem = Podem::new(&c, 100);
        for fault in [Fault::stem_sa0(a), Fault::stem_sa1(a)] {
            match podem.generate(fault) {
                PodemOutcome::Detected(t) => check_witness(&c, fault, &t),
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn branch_fault_on_ff_pin() {
        // d net feeds both the FF and a PO gate: the FF pin fault is a
        // branch, detectable through the final scan-out.
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let d = c.add_gate("d", GateKind::Buf, vec![a]);
        let q = c.add_dff("q", d);
        let po = c.add_gate("po", GateKind::Not, vec![d]);
        c.add_output(po);
        c.add_output(q);
        let podem = Podem::new(&c, 100);
        let fault = Fault {
            site: FaultSite::Branch { node: q, pin: 0 },
            stuck: false,
        };
        match podem.generate(fault) {
            PodemOutcome::Detected(t) => check_witness(&c, fault, &t),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn an_error_on_the_decided_input_itself_is_observed() {
        // Inputs read directly by a primary output and by a flip-flop: the
        // decided net is the only one an implication writes, so the
        // success check after it must include that net's own ports.
        let mut c = Circuit::new("wires");
        let a = c.add_input("a");
        let b = c.add_input("b");
        c.add_dff("q", b);
        c.add_output(a);
        let podem = Podem::new(&c, 100);
        for fault in [
            Fault::stem_sa0(a),
            Fault::stem_sa1(a),
            Fault::stem_sa0(b),
            Fault::stem_sa1(b),
        ] {
            match podem.generate(fault) {
                PodemOutcome::Detected(t) => check_witness(&c, fault, &t),
                other => panic!("{}: {other:?}", fault.describe(&c)),
            }
        }
    }

    /// The full-recompute reference: sources set from `assigned`, the fault
    /// injected, and every gate swept in levelized order in both planes.
    fn imply_all(podem: &Podem, fault: Fault, assigned: &[(NetId, bool)]) -> Planes {
        let everywhere = vec![true; podem.circuit.len()];
        let mut planes = podem.initial_planes(fault, &everywhere);
        for &(input, value) in assigned {
            planes.good[input.index()] = V3::from_bool(value);
            if fault.site != FaultSite::Stem(input) {
                planes.faulty[input.index()] = V3::from_bool(value);
            }
        }
        for &gate in &podem.order {
            let (g, f) = podem.eval(fault, gate, true, &planes);
            planes.good[gate.index()] = g;
            planes.faulty[gate.index()] = f;
        }
        planes
    }

    /// Drives `search` through a seeded random walk of 24 decisions and
    /// rewinds, comparing its planes with [`imply_all`] of the surviving
    /// decisions before the walk and after every step; returns whether
    /// they always agreed.
    fn walk_matches_full_sweeps(
        search: &mut Search,
        rng: &mut impl rls_lfsr::RandomSource,
    ) -> bool {
        let (podem, fault) = (search.podem, search.fault);
        let c = podem.circuit;
        let sources: Vec<NetId> = c.inputs().iter().chain(c.dffs()).copied().collect();
        if search.planes != imply_all(podem, fault, &[]) {
            return false;
        }
        let mut decided: Vec<(NetId, bool, usize)> = Vec::new();
        let mut agreed = true;
        for _ in 0..24 {
            if decided.is_empty() || rng.draw_mod(3) != 0 {
                let free: Vec<NetId> = sources
                    .iter()
                    .copied()
                    .filter(|s| decided.iter().all(|d| d.0 != *s))
                    .collect();
                if free.is_empty() {
                    continue;
                }
                let input = free[rng.draw_mod(free.len() as u32) as usize];
                let value = rng.next_bit();
                decided.push((input, value, search.trail.len()));
                search.assign(input, value);
            } else {
                let keep = rng.draw_mod(decided.len() as u32) as usize;
                search.undo(decided[keep].2);
                decided.truncate(keep);
            }
            let assigned: Vec<(NetId, bool)> = decided.iter().map(|&(n, v, _)| (n, v)).collect();
            agreed &= search.planes == imply_all(podem, fault, &assigned);
            assert_eq!(search.pending, 0);
        }
        agreed
    }

    #[test]
    fn incremental_planes_match_a_full_sweep_after_every_assign_and_undo() {
        use rls_lfsr::XorShift64;
        let mut rng = XorShift64::new(0x5eed);
        for c in [
            rls_benchmarks::s27(),
            rls_benchmarks::by_name("s208").unwrap(),
            rls_benchmarks::by_name("s298").unwrap(),
        ] {
            let podem = Podem::new(&c, 0);
            let sim = FaultSimulator::new(&c);
            for &rep in sim.collapsed().representatives() {
                let fault = sim.universe().fault(rep);
                // The cone flags `generate_inner` builds, so gates outside
                // the cone take the one-plane path.
                let mut search = Search::new(&podem, fault, &podem.cone(fault));
                assert!(
                    walk_matches_full_sweeps(&mut search, &mut rng),
                    "{}",
                    fault.describe(&c)
                );
            }
        }
    }

    #[test]
    fn a_missing_cone_flag_breaks_the_planes() {
        // Evaluating one cone gate in the good plane only must show: the
        // walk above is not blind to the cone flags.
        use rls_lfsr::XorShift64;
        let mut rng = XorShift64::new(0x5eed);
        let c = rls_benchmarks::by_name("s208").unwrap();
        let podem = Podem::new(&c, 0);
        let sim = FaultSimulator::new(&c);
        let mut broken = 0;
        for &rep in sim.collapsed().representatives() {
            let fault = sim.universe().fault(rep);
            let mut cone = podem.cone(fault);
            if cone.is_empty() {
                continue;
            }
            cone.remove(0);
            let mut search = Search::new(&podem, fault, &cone);
            if !walk_matches_full_sweeps(&mut search, &mut rng) {
                broken += 1;
            }
        }
        assert!(broken > 0, "no fault noticed the missing cone flag");
    }

    #[test]
    fn cone_holds_every_gate_that_can_carry_an_error() {
        use rls_lfsr::{RandomSource, XorShift64};
        let mut rng = XorShift64::new(0xc0e);
        let c = rls_benchmarks::by_name("s208").unwrap();
        let podem = Podem::new(&c, 0);
        let sim = FaultSimulator::new(&c);
        for &rep in sim.collapsed().representatives() {
            let fault = sim.universe().fault(rep);
            let cone = podem.cone(fault);
            assert!(cone
                .windows(2)
                .all(|w| podem.position[w[0].index()] < podem.position[w[1].index()]));
            // Under random full assignments, every gate whose planes
            // differ lies in the cone (or is the faulty stem itself).
            for _ in 0..4 {
                let assigned: Vec<(NetId, bool)> = c
                    .inputs()
                    .iter()
                    .chain(c.dffs())
                    .map(|&s| (s, rng.next_bit()))
                    .collect();
                let planes = imply_all(&podem, fault, &assigned);
                for &gate in &podem.order {
                    if planes.good[gate.index()] != planes.faulty[gate.index()] {
                        assert!(
                            cone.contains(&gate) || fault.site == FaultSite::Stem(gate),
                            "{}: {}",
                            fault.describe(&c),
                            c.node(gate).name
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn abort_on_tiny_limit() {
        // With a zero backtrack limit, a fault requiring any backtracking
        // aborts rather than looping. Use a reconvergent structure.
        let mut c = Circuit::new("reconv");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let na = c.add_gate("na", GateKind::Not, vec![a]);
        let g1 = c.add_gate("g1", GateKind::And, vec![a, b]);
        let g2 = c.add_gate("g2", GateKind::And, vec![na, b]);
        let y = c.add_gate("y", GateKind::And, vec![g1, g2]); // constant 0
        c.add_output(y);
        let podem = Podem::new(&c, 0);
        let outcome = podem.generate(Fault::stem_sa1(y));
        // sa1 on a constant-0 net is detectable (y good 0 vs faulty 1)?
        // y good is always 0, so good != stuck(1): activation needs good
        // = 0, which holds; actually y/1 IS detectable: any input works.
        assert!(matches!(
            outcome,
            PodemOutcome::Detected(_) | PodemOutcome::Aborted
        ));
        // y sa0 is undetectable (y is constant 0); proof may need
        // backtracks, so with limit 0 it aborts; with a real limit it is
        // proven redundant.
        let podem = Podem::new(&c, 1000);
        assert_eq!(podem.generate(Fault::stem_sa0(y)), PodemOutcome::Redundant);
    }
}
