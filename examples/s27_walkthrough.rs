//! The paper's Section 2 worked example on the real s27 netlist,
//! reproduced bit for bit: a test whose fault-free trace matches Table 1,
//! and the effect of inserting a one-position limited scan at time unit 3.
//!
//! ```sh
//! cargo run --release --example s27_walkthrough
//! ```

use random_limited_scan::fsim::good::bits_to_string;
use random_limited_scan::fsim::{GoodSim, ScanTest, ShiftOp};

fn main() {
    let circuit = random_limited_scan::benchmarks::s27();
    println!("s27: {}", circuit.stats());
    let sim = GoodSim::new(&circuit);

    // The paper's test: τ = (SI, T) with SI = 001,
    // T = (0111, 1001, 0111, 1001, 0100).
    let plain = ScanTest::from_strings("001", &["0111", "1001", "0111", "1001", "0100"]).unwrap();

    println!("\nWithout limited scan (paper Table 1(a), fault-free columns):");
    let trace = sim.simulate_test(&plain);
    for u in 0..plain.len() {
        println!(
            "  u={u}  T(u)={}  S(u)={}  Z(u)={}",
            bits_to_string(&plain.vectors.row(u).to_vec()),
            bits_to_string(&trace.states[u]),
            bits_to_string(&trace.outputs[u]),
        );
    }
    println!(
        "  u=5             S(5)={}",
        bits_to_string(trace.final_state())
    );

    // Insert shift(3) = 1 with fill bit 0: state 010 becomes 001 before
    // the vector of time unit 3 is applied.
    let shifted = plain
        .with_shifts(vec![ShiftOp {
            at: 3,
            amount: 1,
            fill: vec![false],
        }])
        .unwrap();
    println!("\nWith limited scan shift(3)=1 (paper Table 1(b), fault-free columns):");
    let trace = sim.simulate_test(&shifted);
    for (u, (shift, vector)) in shifted.units().enumerate() {
        let marker = shift.map_or(String::new(), |op| {
            format!(
                "  <- limited scan, {} position(s), scanned out {}",
                op.amount,
                bits_to_string(&trace.scan_outs.iter().find(|(at, _)| *at == u).unwrap().1)
            )
        });
        println!(
            "  u={u}  T(u)={}  S(u)={}  Z(u)={}{marker}",
            bits_to_string(&vector.to_vec()),
            bits_to_string(&trace.states[u]),
            bits_to_string(&trace.outputs[u]),
        );
    }
    println!(
        "  u=5             S(5)={}",
        bits_to_string(trace.final_state())
    );

    println!(
        "\nThe states match the paper exactly: 001,000,010,010,010,011 without the\n\
         shift and 001,000,010,001,101,001 with it — the shift turns S(3)=010 into\n\
         001 and changes everything downstream, which is what lets an otherwise\n\
         undetected fault produce an error at the primary output (run the table1\n\
         binary to see the faulty columns: `cargo run -p rls-bench --bin table1`)."
    );
}
