//! Transition-delay (slow-to-rise / slow-to-fall) fault simulation.
//!
//! The whole point of *at-speed* testing — the property the paper's test
//! structure is designed to preserve — is catching **delay defects**: a
//! gate output that fails to switch within one functional clock period. A
//! transition fault needs a *launch* (the value toggles between two
//! consecutive at-speed cycles) and a *capture* (the late value propagates
//! to an observation point), so:
//!
//! - a test of length 1 detects **no** transition faults (nothing is
//!   launched at speed) — the limitation of classic test-per-scan BIST
//!   that motivated \[5\]/\[6\] and this paper;
//! - scan operations are not at speed: the first functional cycle after
//!   the scan-in *or after any limited scan* cannot serve as a capture
//!   cycle. Limited scans therefore trade at-speed pairs for stuck-at
//!   controllability/observability — a tension this module makes
//!   measurable.
//!
//! # Model
//!
//! Slow-to-rise on net `n`: whenever the (faulty-machine) value of `n`
//! would rise between consecutive at-speed cycles, it stays 0 for the
//! second cycle (`new = cur AND prev`); slow-to-fall keeps it 1
//! (`new = cur OR prev`). Both combine per 64-fault batch with one lane
//! per fault, exactly like the stuck-at engine. Detection points are the
//! same three as stuck-at.

use std::collections::HashMap;

use rls_netlist::{Circuit, NetId, NodeKind};

use crate::good::{GoodSim, TestTrace};
use crate::test::ScanTest;

/// Faults per batch: one per lane of a `u64`.
const LANES: usize = 64;

/// The same bit in every lane.
fn splat(bit: bool) -> u64 {
    if bit {
        !0
    } else {
        0
    }
}

/// A transition-delay fault on a net.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TransitionFault {
    /// The net whose transition is slow.
    pub net: NetId,
    /// `true` = slow-to-rise (stuck low one extra cycle), `false` =
    /// slow-to-fall.
    pub slow_to_rise: bool,
}

impl TransitionFault {
    /// A human-readable description, e.g. `G11/STR`.
    pub fn describe(&self, circuit: &Circuit) -> String {
        let kind = if self.slow_to_rise { "STR" } else { "STF" };
        format!("{}/{kind}", circuit.node(self.net).name)
    }
}

/// Enumerates both transition faults on every net.
pub fn enumerate_transition_faults(circuit: &Circuit) -> Vec<TransitionFault> {
    (0..circuit.len() as u32)
        .map(NetId)
        .flat_map(|net| {
            [
                TransitionFault {
                    net,
                    slow_to_rise: true,
                },
                TransitionFault {
                    net,
                    slow_to_rise: false,
                },
            ]
        })
        .collect()
}

/// Runs one test against a batch of transition faults and returns the
/// indices (into `faults`) of the detected ones.
///
/// `trace` must be the good trace of `test`.
///
/// # Panics
///
/// Panics if more than 64 faults (one word of lanes) are given or on
/// width mismatches.
pub fn simulate_batch_transition(
    sim: &GoodSim<'_>,
    test: &ScanTest,
    trace: &TestTrace,
    faults: &[TransitionFault],
) -> Vec<usize> {
    assert!(faults.len() <= LANES, "at most {LANES} faults per batch");
    let circuit = sim.circuit();
    let full = if faults.len() == LANES {
        !0u64
    } else {
        (1u64 << faults.len()) - 1
    };
    // Per-node lane masks.
    let mut str_mask: HashMap<u32, u64> = HashMap::new();
    let mut stf_mask: HashMap<u32, u64> = HashMap::new();
    for (lane, f) in faults.iter().enumerate() {
        let slot = if f.slow_to_rise {
            str_mask.entry(f.net.0).or_insert(0)
        } else {
            stf_mask.entry(f.net.0).or_insert(0)
        };
        *slot |= 1u64 << lane;
    }
    let mut has_force = vec![false; circuit.len()];
    // lint: det-ok(order-free: sets independent per-key flags, no cross-key state)
    for &n in str_mask.keys().chain(stf_mask.keys()) {
        has_force[n as usize] = true; // lint: panic-ok(kernel hot loop: net ids are dense indices validated at levelization)
    }
    // Previous-cycle faulty values of the forced nets; `armed` is false for
    // the first functional cycle after a scan operation (no at-speed
    // launch across a scan boundary).
    let mut prev: HashMap<u32, u64> = HashMap::new();
    let mut armed = false;
    let mut detected = 0u64;
    let chains = sim.chains();
    let scan_in: Vec<u64> = test.scan_in.iter().map(|&b| splat(b)).collect();
    let mut state: Vec<u64> = chains.load_state(&scan_in);
    let mut values: Vec<u64> = vec![0; circuit.len()];
    let mut scan_out_idx = 0usize;
    let mut fill: Vec<u64> = Vec::new();
    for (u, (shift, vector)) in test.units().enumerate() {
        if let Some(op) = shift {
            fill.clear();
            fill.extend(op.fill.iter().map(|&b| splat(b)));
            let outs = chains.limited_scan(&mut state, op.amount, &fill);
            let (_, good_outs) = &trace.scan_outs[scan_out_idx]; // lint: panic-ok(kernel hot loop: net ids are dense indices validated at levelization)
            scan_out_idx += 1;
            for (w, &g) in outs.iter().zip(good_outs.iter()) {
                detected |= w ^ splat(g);
            }
            // A scan operation breaks the at-speed pair.
            armed = false;
        }
        // Evaluate with per-lane transition forcing.
        for (k, &pi) in circuit.inputs().iter().enumerate() {
            values[pi.index()] = splat(vector[k]); // lint: panic-ok(kernel hot loop: net ids are dense indices validated at levelization)
        }
        for (p, &ff) in circuit.dffs().iter().enumerate() {
            values[ff.index()] = state[p]; // lint: panic-ok(kernel hot loop: net ids are dense indices validated at levelization)
        }
        for (i, node) in circuit.nodes().iter().enumerate() {
            if let NodeKind::Const(v) = node.kind {
                values[i] = splat(v); // lint: panic-ok(kernel hot loop: net ids are dense indices validated at levelization)
            }
        }
        let mut fanin_buf: Vec<u64> = Vec::with_capacity(8);
        // Sources can also carry transition faults (flip-flop outputs and
        // primary inputs); apply forcing to them before the sweep.
        if armed {
            // lint: det-ok(order-free: each key updates only its own values slot)
            for (&n, &mask) in &str_mask {
                let idx = n as usize;
                if !circuit.node(NetId(n)).is_gate() {
                    let p = prev.get(&n).copied().unwrap_or(values[idx]); // lint: panic-ok(kernel hot loop: net ids are dense indices validated at levelization)
                    let forced = values[idx] & p; // lint: panic-ok(kernel hot loop: net ids are dense indices validated at levelization)
                    values[idx] = (values[idx] & !mask) | (forced & mask); // lint: panic-ok(kernel hot loop: net ids are dense indices validated at levelization)
                }
            }
            // lint: det-ok(order-free: each key updates only its own values slot)
            for (&n, &mask) in &stf_mask {
                let idx = n as usize;
                if !circuit.node(NetId(n)).is_gate() {
                    let p = prev.get(&n).copied().unwrap_or(values[idx]); // lint: panic-ok(kernel hot loop: net ids are dense indices validated at levelization)
                    let forced = values[idx] | p; // lint: panic-ok(kernel hot loop: net ids are dense indices validated at levelization)
                    values[idx] = (values[idx] & !mask) | (forced & mask); // lint: panic-ok(kernel hot loop: net ids are dense indices validated at levelization)
                }
            }
        }
        for &gate in sim.levelization().order() {
            let NodeKind::Gate { kind, fanin } = &circuit.node(gate).kind else {
                unreachable!("order contains only gates"); // lint: panic-ok(kernel hot loop: net ids are dense indices validated at levelization)
            };
            fanin_buf.clear();
            fanin_buf.extend(fanin.iter().map(|f| values[f.index()])); // lint: panic-ok(kernel hot loop: net ids are dense indices validated at levelization)
            let mut w = kind.eval_word(&fanin_buf);
            // lint: panic-ok(kernel hot loop: net ids are dense indices validated at levelization)
            if armed && has_force[gate.index()] {
                if let Some(&mask) = str_mask.get(&gate.0) {
                    let p = prev.get(&gate.0).copied().unwrap_or(w);
                    w = (w & !mask) | ((w & p) & mask);
                }
                if let Some(&mask) = stf_mask.get(&gate.0) {
                    let p = prev.get(&gate.0).copied().unwrap_or(w);
                    w = (w & !mask) | ((w | p) & mask);
                }
            }
            values[gate.index()] = w; // lint: panic-ok(kernel hot loop: net ids are dense indices validated at levelization)
        }
        // Record the (possibly forced) site values as the next launch
        // reference.
        // lint: det-ok(order-free: inserts independent per-key snapshots, no cross-key state)
        for &n in str_mask.keys().chain(stf_mask.keys()) {
            prev.insert(n, values[n as usize]); // lint: panic-ok(kernel hot loop: net ids are dense indices validated at levelization)
        }
        armed = true;
        // Observation: primary outputs.
        for (k, &po) in circuit.outputs().iter().enumerate() {
            let good_w = splat(trace.outputs[u][k]); // lint: panic-ok(kernel hot loop: net ids are dense indices validated at levelization)
            detected |= values[po.index()] ^ good_w; // lint: panic-ok(kernel hot loop: net ids are dense indices validated at levelization)
        }
        if detected & full == full {
            return (0..faults.len()).collect();
        }
        // Capture.
        for (p, &ff) in circuit.dffs().iter().enumerate() {
            let NodeKind::Dff { d: Some(d) } = circuit.node(ff).kind else {
                panic!("unconnected flip-flop in simulation"); // lint: panic-ok(kernel hot loop: net ids are dense indices validated at levelization)
            };
            state[p] = values[d.index()]; // lint: panic-ok(kernel hot loop: net ids are dense indices validated at levelization)
        }
    }
    let final_scan_out = chains.observe_state(&state);
    for (w, &g) in final_scan_out.iter().zip(&trace.final_scan_out) {
        detected |= w ^ splat(g);
    }
    detected &= full;
    (0..faults.len())
        .filter(|&lane| detected >> lane & 1 == 1)
        .collect()
}

/// Simulates a list of tests against all transition faults with dropping;
/// returns `(detected_count, total)`.
pub fn transition_coverage(circuit: &Circuit, tests: &[ScanTest]) -> (usize, usize) {
    let sim = GoodSim::new(circuit);
    let mut live: Vec<TransitionFault> = enumerate_transition_faults(circuit);
    let total = live.len();
    let mut detected = 0usize;
    for test in tests {
        if live.is_empty() {
            break;
        }
        let trace = sim.simulate_test(test);
        let mut hit: Vec<TransitionFault> = Vec::new();
        for chunk in live.chunks(LANES) {
            for idx in simulate_batch_transition(&sim, test, &trace, chunk) {
                hit.push(chunk[idx]); // lint: panic-ok(kernel hot loop: net ids are dense indices validated at levelization)
            }
        }
        if !hit.is_empty() {
            detected += hit.len();
            live.retain(|f| !hit.contains(f));
        }
    }
    (detected, total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn length_one_tests_detect_nothing() {
        // No at-speed launch is possible with a single vector.
        let c = rls_benchmarks::s27();
        let tests: Vec<ScanTest> = (0..20)
            .map(|k| {
                ScanTest::new(
                    vec![k % 2 == 0, k % 3 == 0, k % 5 == 0],
                    vec![vec![k % 2 == 1, k % 3 == 1, k % 5 == 1, k % 7 == 1]],
                )
            })
            .collect();
        let (det, total) = transition_coverage(&c, &tests);
        assert_eq!(det, 0, "single-vector tests cannot launch transitions");
        assert!(total > 0);
    }

    #[test]
    fn longer_sequences_detect_transitions() {
        use rls_lfsr::{RandomSource, XorShift64};
        let c = rls_benchmarks::s27();
        let mut rng = XorShift64::new(3);
        let tests: Vec<ScanTest> = (0..30)
            .map(|_| {
                let mut si = vec![false; 3];
                rng.fill_bits(&mut si);
                let vectors: Vec<Vec<bool>> = (0..6)
                    .map(|_| {
                        let mut v = vec![false; 4];
                        rng.fill_bits(&mut v);
                        v
                    })
                    .collect();
                ScanTest::new(si, vectors)
            })
            .collect();
        let (det, total) = transition_coverage(&c, &tests);
        assert!(det > total / 2, "{det}/{total}");
    }

    #[test]
    fn slow_to_rise_on_a_buffer_behaves_as_delayed_value() {
        // b = BUF(a) observed directly; drive a: 0,1 — the slow-to-rise
        // buffer outputs 0,0 and the difference shows at the PO on the
        // second cycle.
        let mut c = rls_netlist::Circuit::new("t");
        let a = c.add_input("a");
        let b = c.add_gate("b", rls_netlist::GateKind::Buf, vec![a]);
        c.add_output(b);
        let sim = GoodSim::new(&c);
        let test = ScanTest::new(vec![], vec![vec![false], vec![true]]);
        let trace = sim.simulate_test(&test);
        let faults = [
            TransitionFault {
                net: b,
                slow_to_rise: true,
            },
            TransitionFault {
                net: b,
                slow_to_rise: false,
            },
        ];
        let det = simulate_batch_transition(&sim, &test, &trace, &faults);
        assert_eq!(det, vec![0], "only the slow rise is launched by 0->1");
    }

    #[test]
    fn scan_boundary_breaks_the_pair() {
        // Same buffer circuit, but a flip-flop-based one so a limited scan
        // can interrupt: a launch across a scan operation must not count.
        let mut c = rls_netlist::Circuit::new("t");
        let a = c.add_input("a");
        let q = c.add_dff("q", a);
        let b = c.add_gate("b", rls_netlist::GateKind::Buf, vec![q]);
        c.add_output(b);
        let sim = GoodSim::new(&c);
        // q: scan-in 0; vectors a=1 (captures 1), a=0. b rises between
        // cycles 0 and 1 (q goes 0->1). With a limited scan between them,
        // that rise is no longer at speed.
        let plain = ScanTest::new(vec![false], vec![vec![true], vec![false]]);
        let fault = [TransitionFault {
            net: b,
            slow_to_rise: true,
        }];
        let good_plain = sim.simulate_test(&plain);
        let det_plain = simulate_batch_transition(&sim, &plain, &good_plain, &fault);
        assert_eq!(det_plain, vec![0], "plain pair launches and captures");
        let shifted = ScanTest::new(vec![false], vec![vec![true], vec![false]])
            .with_shifts(vec![crate::test::ShiftOp {
                at: 1,
                amount: 1,
                fill: vec![true],
            }])
            .unwrap();
        let good_shifted = sim.simulate_test(&shifted);
        let det_shifted = simulate_batch_transition(&sim, &shifted, &good_shifted, &fault);
        assert!(
            det_shifted.is_empty(),
            "the scan boundary must disarm the launch"
        );
    }

    #[test]
    fn fault_free_lanes_never_detect() {
        // A batch where the good machine equals the faulty machine (no
        // transition ever launched) reports nothing: constant-ish nets.
        let mut c = rls_netlist::Circuit::new("t");
        let a = c.add_input("a");
        let n = c.add_gate("n", rls_netlist::GateKind::Not, vec![a]);
        let orr = c.add_gate("orr", rls_netlist::GateKind::Or, vec![a, n]); // constant 1
        c.add_output(orr);
        let sim = GoodSim::new(&c);
        let test = ScanTest::new(vec![], vec![vec![false], vec![true], vec![false]]);
        let trace = sim.simulate_test(&test);
        let fault = [TransitionFault {
            net: orr,
            slow_to_rise: true,
        }];
        let det = simulate_batch_transition(&sim, &test, &trace, &fault);
        assert!(det.is_empty(), "a never-rising net cannot be slow to rise");
    }
}
