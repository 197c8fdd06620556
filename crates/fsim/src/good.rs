//! Fault-free and single-fault scalar simulation.
//!
//! Produces the complete per-time-unit trace of a [`ScanTest`]: the state
//! sequence, the primary outputs, the bits observed during limited scans
//! and the bits the final scan-out reads. The fault-free trace is the
//! no-fault case of the one-fault simulation, so the scalar simulator has
//! one code path. Compared by [`traces_differ`], one faulty trace per
//! fault is the serial reference of the bit-parallel kernel
//! ([`crate::soa`]); the `table1` harness prints the traces directly.
//!
//! Scan operations follow the simulator's [`ChainMap`] (full scan by
//! default): the scan-in loads the map's load positions, limited scans
//! move every chain, and the final scan-out reads the map's observe
//! positions.

use rls_netlist::{Circuit, Levelization, NodeKind};
use rls_scan::ChainMap;

use crate::fault::{Fault, FaultSite};
use crate::test::ScanTest;

/// Scalar simulator for a circuit and its scan chains.
#[derive(Debug)]
pub struct GoodSim<'c> {
    circuit: &'c Circuit,
    lev: Levelization,
    chains: ChainMap,
}

/// The full trace of one test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TestTrace {
    /// `states[u]` is the circuit state when the vector of time unit `u` is
    /// applied (i.e. *after* any limited scan at `u`); `states[L]` is the
    /// final state handed to the concluding scan-out.
    pub states: Vec<Vec<bool>>,
    /// `pre_shift_states[u]` is the state at time unit `u` before any
    /// limited scan (equal to `states[u]` when no shift is scheduled).
    pub pre_shift_states: Vec<Vec<bool>>,
    /// Primary output vectors at each time unit.
    pub outputs: Vec<Vec<bool>>,
    /// For each limited scan op, `(time_unit, observed_bits)` tail-first.
    pub scan_outs: Vec<(usize, Vec<bool>)>,
    /// The bits the concluding scan-out reads from the final state (the
    /// whole state under full scan).
    pub final_scan_out: Vec<bool>,
}

impl TestTrace {
    /// The final state (observed by the concluding complete scan-out).
    pub fn final_state(&self) -> &[bool] {
        self.states.last().expect("trace always has a final state") // lint: panic-ok(kernel hot loop: net ids are dense indices validated at levelization)
    }
}

impl<'c> GoodSim<'c> {
    /// Builds a full-scan simulator (levelizes the circuit once).
    ///
    /// # Panics
    ///
    /// Panics if the circuit has combinational cycles (validate first).
    pub fn new(circuit: &'c Circuit) -> Self {
        let lev = circuit
            .levelize()
            .expect("fault simulation requires an acyclic circuit"); // lint: panic-ok(kernel hot loop: net ids are dense indices validated at levelization)
        let chains = ChainMap::full(circuit.num_dffs());
        GoodSim {
            circuit,
            lev,
            chains,
        }
    }

    /// The same simulator on the scan chains of `chains`.
    ///
    /// # Panics
    ///
    /// Panics if `chains` covers a different number of flip-flops than
    /// the circuit has.
    pub fn with_chains(mut self, chains: ChainMap) -> Self {
        assert_eq!(
            chains.n_sv(),
            self.circuit.num_dffs(),
            "chain map/circuit mismatch"
        );
        self.chains = chains;
        self
    }

    /// The circuit under simulation.
    pub fn circuit(&self) -> &Circuit {
        self.circuit
    }

    /// The levelization used for evaluation sweeps.
    pub fn levelization(&self) -> &Levelization {
        &self.lev
    }

    /// The scan chains tests are applied through.
    pub fn chains(&self) -> &ChainMap {
        &self.chains
    }

    /// Evaluates the combinational core for the given primary inputs and
    /// state and returns every net's value.
    ///
    /// # Panics
    ///
    /// Panics if `pis` or `state` have the wrong length.
    pub fn eval(&self, pis: &[bool], state: &[bool]) -> Vec<bool> {
        let mut values = Vec::new();
        self.eval_with(pis, state, None, &mut values);
        values
    }

    /// The one combinational sweep, writing every net's value into
    /// `values` (resized as needed): sources, then gates in level order,
    /// with `fault` (if any) forced where it sits.
    fn eval_with(
        &self,
        pis: &[bool],
        state: &[bool],
        fault: Option<Fault>,
        values: &mut Vec<bool>,
    ) {
        assert_eq!(pis.len(), self.circuit.num_inputs(), "PI width mismatch");
        assert_eq!(state.len(), self.circuit.num_dffs(), "state width mismatch");
        values.clear();
        values.resize(self.circuit.len(), false);
        for (k, &pi) in self.circuit.inputs().iter().enumerate() {
            values[pi.index()] = pis[k]; // lint: panic-ok(kernel hot loop: net ids are dense indices validated at levelization)
        }
        for (k, &ff) in self.circuit.dffs().iter().enumerate() {
            values[ff.index()] = state[k]; // lint: panic-ok(kernel hot loop: net ids are dense indices validated at levelization)
        }
        for (i, node) in self.circuit.nodes().iter().enumerate() {
            if let NodeKind::Const(v) = node.kind {
                values[i] = v; // lint: panic-ok(kernel hot loop: net ids are dense indices validated at levelization)
            }
        }
        // Stem faults on sources apply before any gate reads them.
        if let Some(Fault {
            site: FaultSite::Stem(net),
            stuck,
        }) = fault
        {
            if !self.circuit.node(net).is_gate() {
                values[net.index()] = stuck; // lint: panic-ok(kernel hot loop: net ids are dense indices validated at levelization)
            }
        }
        let mut fanin_buf: Vec<bool> = Vec::with_capacity(8);
        for &gate in self.lev.order() {
            let node = self.circuit.node(gate);
            let NodeKind::Gate { kind, fanin } = &node.kind else {
                unreachable!("levelization order contains only gates"); // lint: panic-ok(kernel hot loop: net ids are dense indices validated at levelization)
            };
            fanin_buf.clear();
            for (pin, &f) in fanin.iter().enumerate() {
                let mut v = values[f.index()]; // lint: panic-ok(kernel hot loop: net ids are dense indices validated at levelization)
                if let Some(Fault {
                    site:
                        FaultSite::Branch {
                            node: fn_node,
                            pin: fp,
                        },
                    stuck,
                }) = fault
                {
                    if fn_node == gate && fp as usize == pin {
                        v = stuck;
                    }
                }
                fanin_buf.push(v);
            }
            let mut v = kind.eval_bool(&fanin_buf);
            if let Some(Fault { site, stuck }) = fault {
                if site == FaultSite::Stem(gate) {
                    v = stuck;
                }
            }
            values[gate.index()] = v; // lint: panic-ok(kernel hot loop: net ids are dense indices validated at levelization)
        }
    }

    /// Extracts the next state (flip-flop data inputs) from a value vector.
    pub fn next_state(&self, values: &[bool]) -> Vec<bool> {
        self.circuit
            .dffs()
            .iter()
            .map(|&ff| {
                let NodeKind::Dff { d: Some(d) } = self.circuit.node(ff).kind else {
                    panic!("unconnected flip-flop in simulation"); // lint: panic-ok(kernel hot loop: net ids are dense indices validated at levelization)
                };
                values[d.index()] // lint: panic-ok(kernel hot loop: net ids are dense indices validated at levelization)
            })
            .collect()
    }

    /// Extracts the primary output vector from a value vector.
    pub fn outputs(&self, values: &[bool]) -> Vec<bool> {
        self.circuit
            .outputs()
            .iter()
            .map(|&po| values[po.index()]) // lint: panic-ok(kernel hot loop: net ids are dense indices validated at levelization)
            .collect()
    }

    /// Simulates a complete test fault-free and returns the full trace.
    ///
    /// # Panics
    ///
    /// Panics if the test's scan-in or vector widths do not match the
    /// circuit and its scan chains.
    pub fn simulate_test(&self, test: &ScanTest) -> TestTrace {
        self.simulate_with(test, None)
    }

    /// Simulates a complete test *in the presence of a fault*, returning
    /// the faulty trace. Comparing it against [`GoodSim::simulate_test`]
    /// at the observation points reproduces the faulty columns of the
    /// paper's Table 1.
    ///
    /// A fault on a flip-flop output is re-applied after every state
    /// mutation (the scan-in, every limited scan and every capture): a
    /// stuck register output that also feeds the scan path with its stuck
    /// value.
    ///
    /// # Panics
    ///
    /// Panics on width mismatches.
    pub fn simulate_faulty(&self, test: &ScanTest, fault: Fault) -> TestTrace {
        self.simulate_with(test, Some(fault))
    }

    /// The one test simulation: `fault` (if any) forced throughout.
    fn simulate_with(&self, test: &ScanTest, fault: Option<Fault>) -> TestTrace {
        let position = |net| self.circuit.dff_position(net);
        let ff_stuck: Option<(usize, bool)> = match fault {
            Some(Fault {
                site: FaultSite::Stem(net),
                stuck,
            }) => position(net).map(|pos| (pos, stuck)),
            _ => None,
        };
        let ff_pin: Option<(usize, bool)> = match fault {
            Some(Fault {
                site: FaultSite::Branch { node, pin: 0 },
                stuck,
            }) if self.circuit.node(node).is_dff() => position(node).map(|pos| (pos, stuck)),
            _ => None,
        };
        let force_state = |state: &mut [bool]| {
            if let Some((pos, v)) = ff_stuck {
                state[pos] = v; // lint: panic-ok(kernel hot loop: net ids are dense indices validated at levelization)
            }
        };
        let mut state = self.chains.load_bools(&test.scan_in);
        force_state(&mut state);
        let mut trace = TestTrace {
            states: Vec::with_capacity(test.len() + 1),
            pre_shift_states: Vec::with_capacity(test.len()),
            outputs: Vec::with_capacity(test.len()),
            scan_outs: Vec::new(),
            final_scan_out: Vec::new(),
        };
        let mut values = Vec::new();
        for (u, (shift, vector)) in test.units().enumerate() {
            trace.pre_shift_states.push(state.clone());
            if let Some(op) = shift {
                let observed = self
                    .chains
                    .limited_scan_bools(&mut state, op.amount, &op.fill);
                trace.scan_outs.push((u, observed));
                force_state(&mut state);
            }
            trace.states.push(state.clone());
            self.eval_with(vector, &state, fault, &mut values);
            trace.outputs.push(self.outputs(&values));
            state = self.next_state(&values);
            if let Some((pos, v)) = ff_pin {
                state[pos] = v; // lint: panic-ok(kernel hot loop: net ids are dense indices validated at levelization)
            }
            force_state(&mut state);
        }
        trace.final_scan_out = self.chains.observe_bools(&state);
        trace.states.push(state);
        trace
    }
}

/// Whether a faulty trace differs from the good trace at any observation
/// point (primary outputs, limited-scan scan-outs, final scan-out) — the
/// serial-reference detection decision.
pub fn traces_differ(good: &TestTrace, faulty: &TestTrace) -> bool {
    good.outputs != faulty.outputs
        || good.scan_outs != faulty.scan_outs
        || good.final_scan_out != faulty.final_scan_out
}

/// Convenience: evaluate a purely combinational circuit (no flip-flops) on
/// one input vector and return the primary outputs.
///
/// # Panics
///
/// Panics if the circuit has flip-flops or the vector width is wrong.
pub fn eval_combinational(circuit: &Circuit, pis: &[bool]) -> Vec<bool> {
    assert_eq!(circuit.num_dffs(), 0, "circuit must be combinational");
    let sim = GoodSim::new(circuit);
    let values = sim.eval(pis, &[]);
    sim.outputs(&values)
}

/// Formats a state (or any bit vector) the way the paper prints them:
/// most-significant-looking bit first, e.g. `001`.
pub fn bits_to_string(bits: &[bool]) -> String {
    bits.iter().map(|&b| if b { '1' } else { '0' }).collect()
}

/// Looks up the value of a named net in a value vector.
///
/// # Panics
///
/// Panics if the net does not exist.
pub fn net_value(circuit: &Circuit, values: &[bool], name: &str) -> bool {
    let id = circuit
        .find(name)
        .unwrap_or_else(|| panic!("no net named {name}")); // lint: panic-ok(kernel hot loop: net ids are dense indices validated at levelization)
    values[id.index()] // lint: panic-ok(kernel hot loop: net ids are dense indices validated at levelization)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rls_netlist::GateKind;

    #[test]
    fn combinational_eval_matches_truth_table() {
        let mut c = Circuit::new("mux");
        let s = c.add_input("s");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let ns = c.add_gate("ns", GateKind::Not, vec![s]);
        let ta = c.add_gate("ta", GateKind::And, vec![ns, a]);
        let tb = c.add_gate("tb", GateKind::And, vec![s, b]);
        let y = c.add_gate("y", GateKind::Or, vec![ta, tb]);
        c.add_output(y);
        for s_v in [false, true] {
            for a_v in [false, true] {
                for b_v in [false, true] {
                    let out = eval_combinational(&c, &[s_v, a_v, b_v]);
                    let expect = if s_v { b_v } else { a_v };
                    assert_eq!(out, vec![expect]);
                }
            }
        }
        let _ = (ns, ta, tb, y);
    }

    #[test]
    fn s27_fault_free_trace_matches_paper_table_1a() {
        // Table 1(a): SI = 001, T = (0111, 1001, 0111, 1001, 0100).
        let c = rls_benchmarks::s27();
        let sim = GoodSim::new(&c);
        let test =
            ScanTest::from_strings("001", &["0111", "1001", "0111", "1001", "0100"]).unwrap();
        let trace = sim.simulate_test(&test);
        let states: Vec<String> = trace.states.iter().map(|s| bits_to_string(s)).collect();
        assert_eq!(states, ["001", "000", "010", "010", "010", "011"]);
        let outs: Vec<String> = trace.outputs.iter().map(|o| bits_to_string(o)).collect();
        assert_eq!(outs, ["1", "0", "0", "0", "0"]);
    }

    #[test]
    fn s27_limited_scan_trace_matches_paper_table_1b() {
        // Table 1(b): shift(3) = 1 with fill 0 turns S(3) from 010 into 001;
        // the subsequent fault-free states are 101 and 001, outputs 1 and 1.
        let c = rls_benchmarks::s27();
        let sim = GoodSim::new(&c);
        let test = ScanTest::from_strings("001", &["0111", "1001", "0111", "1001", "0100"])
            .unwrap()
            .with_shifts(vec![crate::test::ShiftOp {
                at: 3,
                amount: 1,
                fill: vec![false],
            }])
            .unwrap();
        let trace = sim.simulate_test(&test);
        let states: Vec<String> = trace.states.iter().map(|s| bits_to_string(s)).collect();
        assert_eq!(states, ["001", "000", "010", "001", "101", "001"]);
        let outs: Vec<String> = trace.outputs.iter().map(|o| bits_to_string(o)).collect();
        assert_eq!(outs, ["1", "0", "0", "1", "1"]);
        assert_eq!(trace.pre_shift_states[3], vec![false, true, false]);
        assert_eq!(trace.scan_outs, vec![(3, vec![false])]);
    }

    #[test]
    fn counter_counts() {
        let c = rls_benchmarks::parametric::counter(3);
        let sim = GoodSim::new(&c);
        // Enabled for 5 cycles from 000: states 000,001,010,011,100,101.
        let test = ScanTest::new(vec![false; 3], vec![vec![true]; 5]);
        let trace = sim.simulate_test(&test);
        let as_num =
            |s: &[bool]| -> u32 { s.iter().enumerate().map(|(i, &b)| u32::from(b) << i).sum() };
        let nums: Vec<u32> = trace.states.iter().map(|s| as_num(s)).collect();
        assert_eq!(nums, [0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn shift_register_delays_input() {
        let c = rls_benchmarks::parametric::shift_register(4);
        let sim = GoodSim::new(&c);
        // Feed 1,0,0,0,0,0: the 1 appears at the output (stage 3) after 4
        // cycles.
        let vectors: Vec<Vec<bool>> = [true, false, false, false, false, false]
            .iter()
            .map(|&b| vec![b])
            .collect();
        let test = ScanTest::new(vec![false; 4], vectors);
        let trace = sim.simulate_test(&test);
        let outs: Vec<bool> = trace.outputs.iter().map(|o| o[0]).collect();
        assert_eq!(outs, [false, false, false, false, true, false]);
    }

    #[test]
    fn net_value_lookup() {
        let c = rls_benchmarks::s27();
        let sim = GoodSim::new(&c);
        let values = sim.eval(&[false, true, true, true], &[false, false, true]);
        assert!(net_value(&c, &values, "G14")); // NOT(G0=0) = 1
        assert!(net_value(&c, &values, "G17"));
    }

    #[test]
    #[should_panic(expected = "PI width mismatch")]
    fn wrong_pi_width_panics() {
        let c = rls_benchmarks::s27();
        GoodSim::new(&c).eval(&[false], &[false, false, true]);
    }

    #[test]
    fn partial_chain_loads_and_observes_only_the_chain() {
        // Scan only positions 3 and 1 of a 4-stage shift register: the
        // scan-in fills the chain, the other stages start at reset, and
        // the final scan-out reads the chain in chain order.
        let c = rls_benchmarks::parametric::shift_register(4);
        let ps = rls_scan::PartialScan::new(4, vec![3, 1]);
        let sim = GoodSim::new(&c).with_chains(ChainMap::from(&ps));
        let test = ScanTest::new(vec![true, true], vec![vec![false]]);
        let trace = sim.simulate_test(&test);
        assert_eq!(trace.states[0], vec![false, true, false, true]);
        assert_eq!(trace.final_state(), &[false, false, true, false]);
        assert_eq!(trace.final_scan_out, vec![false, false]);
    }

    #[test]
    fn fault_free_run_is_the_no_fault_case_of_the_faulty_run() {
        // A fault whose site never leaves its stuck value (G0 is 0 in both
        // vectors) reproduces the fault-free trace exactly.
        let c = rls_benchmarks::s27();
        let sim = GoodSim::new(&c);
        let test = ScanTest::from_strings("001", &["0111", "0111"]).unwrap();
        let good = sim.simulate_test(&test);
        assert_eq!(good.final_scan_out, good.final_state());
        let never_activated = crate::fault::Fault::stem_sa0(c.find("G0").unwrap());
        assert_eq!(good, sim.simulate_faulty(&test, never_activated));
    }

    #[test]
    fn bits_to_string_formats() {
        assert_eq!(bits_to_string(&[false, false, true]), "001");
        assert_eq!(bits_to_string(&[]), "");
    }
}
