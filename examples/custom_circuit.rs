//! Using the library on your own circuit: parse an ISCAS-89 `.bench`
//! netlist, build the scan infrastructure, and run the limited-scan flow.
//!
//! ```sh
//! cargo run --release --example custom_circuit
//! ```

use random_limited_scan::core::{Procedure2, RlsConfig};
use random_limited_scan::fsim::FaultSimulator;
use random_limited_scan::netlist::parse_bench;

/// A small serial-protocol-ish controller, written directly in the
/// `.bench` format your synthesis flow would emit.
const MY_DESIGN: &str = "
# handshake controller
INPUT(req)
INPUT(data)
OUTPUT(ack)
OUTPUT(err)
busy  = DFF(busy_n)
shift0 = DFF(data_g)
shift1 = DFF(shift0)
ack   = AND(busy, req)
idle  = NOT(busy)
start = AND(idle, req)
hold  = AND(busy, req)
busy_n = OR(start, hold)
data_g = AND(data, busy)
err   = XOR(shift1, shift0)
";

fn main() {
    // 1. Parse and validate.
    let circuit = parse_bench("handshake", MY_DESIGN).expect("well-formed netlist");
    println!("parsed: {} — {}", circuit.name(), circuit.stats());

    // 2. The scan chain follows flip-flop declaration order.
    let chain = circuit.dffs();
    println!(
        "scan chain ({} bits): {}",
        chain.len(),
        chain
            .iter()
            .map(|&f| circuit.node(f).name.as_str())
            .collect::<Vec<_>>()
            .join(" -> ")
    );

    // 3. Inspect the fault list.
    let sim = FaultSimulator::new(&circuit);
    println!("collapsed stuck-at faults: {}", sim.total_faults());

    // 4. Run the limited-scan flow with a small budget.
    let cfg = RlsConfig::new(4, 8, 8);
    let outcome = Procedure2::new(&circuit, cfg).run();
    println!(
        "TS0 detects {}, +{} pairs detect {} of {} ({}), {} cycles",
        outcome.initial_detected,
        outcome.pairs.len(),
        outcome.total_detected,
        outcome.target_faults,
        outcome.final_coverage(),
        outcome.total_cycles
    );
    if !outcome.complete {
        println!(
            "undetected faults: {}",
            outcome
                .undetected
                .iter()
                .map(|&id| sim.universe().fault(id).describe(&circuit))
                .collect::<Vec<_>>()
                .join(", ")
        );
        println!("(check with ATPG whether these are redundant: rls_atpg::DetectableSet)");
    }
}
