//! Reproduces the paper's Tables 1 and 2: the s27 worked example.
//!
//! Finds a fault that is undetected by the plain test `τ = (001, (0111,
//! 1001, 0111, 1001, 0100))` but detected once a one-position limited scan
//! is inserted at time unit 3, then prints the paper's three views:
//! Table 1(a) (no limited scan), Table 1(b) (with limited scan, original
//! time units), and Table 2 (accurate timing with the shift cycle shown).

use rls_core::report::TextTable;
use rls_fsim::good::{bits_to_string, traces_differ};
use rls_fsim::{FaultUniverse, GoodSim, ScanTest, ShiftOp, TestTrace};

fn paired(g: &[bool], f: &[bool]) -> String {
    format!("{}/{}", bits_to_string(g), bits_to_string(f))
}

fn print_view(title: &str, test: &ScanTest, good: &TestTrace, faulty: &TestTrace) {
    println!("{title}");
    let mut t = TextTable::new(vec!["u", "shift(u)", "T(u)", "S(u)", "Z(u)"]);
    for (u, (shift, vector)) in test.units().enumerate() {
        t.row(vec![
            u.to_string(),
            shift.map_or(0, |s| s.amount).to_string(),
            bits_to_string(vector),
            paired(&good.states[u], &faulty.states[u]),
            paired(&good.outputs[u], &faulty.outputs[u]),
        ]);
    }
    t.row(vec![
        test.len().to_string(),
        String::new(),
        String::new(),
        paired(good.final_state(), faulty.final_state()),
        String::new(),
    ]);
    println!("{}", t.render());
}

fn print_accurate_timing(test: &ScanTest, good: &TestTrace, faulty: &TestTrace) {
    println!("Table 2: accurate timing (the limited scan occupies its own time unit)");
    let mut t = TextTable::new(vec!["u", "T(u)", "S(u)", "Z(u)"]);
    let mut wall = 0usize;
    for (u, (shift, vector)) in test.units().enumerate() {
        if let Some(op) = shift {
            // The shift cycles show the pre-shift state and no vector.
            t.row(vec![
                wall.to_string(),
                "-".to_string(),
                paired(&good.pre_shift_states[u], &faulty.pre_shift_states[u]),
                "-".to_string(),
            ]);
            wall += op.amount;
        }
        t.row(vec![
            wall.to_string(),
            bits_to_string(vector),
            paired(&good.states[u], &faulty.states[u]),
            paired(&good.outputs[u], &faulty.outputs[u]),
        ]);
        wall += 1;
    }
    t.row(vec![
        wall.to_string(),
        String::new(),
        paired(good.final_state(), faulty.final_state()),
        String::new(),
    ]);
    println!("{}", t.render());
}

fn main() {
    // The worked example is sequential, but the profile still arms the
    // obs layer (RLS_OBS) so even this binary emits a span tree.
    let _exec = rls_bench::exec_profile();
    let table = rls_bench::table_span("table1");
    let c = rls_benchmarks::s27();
    let sim = GoodSim::new(&c);
    let plain = ScanTest::from_strings("001", &["0111", "1001", "0111", "1001", "0100"]).unwrap();
    let shifted = plain
        .clone()
        .with_shifts(vec![ShiftOp {
            at: 3,
            amount: 1,
            fill: vec![false],
        }])
        .unwrap();
    let good_plain = sim.simulate_test(&plain);
    let good_shifted = sim.simulate_test(&shifted);
    // The paper's fault: undetected by the plain test, detected with the
    // limited scan. Prefer one that is invisible in the plain view (equal
    // states everywhere), like the paper's Table 1(a).
    let universe = FaultUniverse::enumerate(&c);
    let candidate = universe
        .faults()
        .iter()
        .copied()
        .filter(|&f| {
            let fp = sim.simulate_faulty(&plain, f);
            let fs = sim.simulate_faulty(&shifted, f);
            !traces_differ(&good_plain, &fp) && traces_differ(&good_shifted, &fs)
        })
        .max_by_key(|&f| {
            // Most-paper-like: fault visible at the primary output at time
            // unit 3 (Z(3) = 1/0) with faulty state 010 at time unit 4.
            let fs = sim.simulate_faulty(&shifted, f);
            let z3 = usize::from(fs.outputs[3] == vec![false]);
            let s4 = usize::from(fs.states[4] == vec![false, true, false]);
            2 * z3 + s4
        })
        .expect("a Table-1-style fault exists for s27");
    println!(
        "s27, test SI=001, T=(0111,1001,0111,1001,0100); fault: {}\n",
        candidate.describe(&c)
    );
    let faulty_plain = sim.simulate_faulty(&plain, candidate);
    print_view(
        "Table 1(a): without limited scan",
        &plain,
        &good_plain,
        &faulty_plain,
    );
    let faulty_shifted = sim.simulate_faulty(&shifted, candidate);
    print_view(
        "Table 1(b): with limited scan (shift(3)=1, fill 0)",
        &shifted,
        &good_shifted,
        &faulty_shifted,
    );
    print_accurate_timing(&shifted, &good_shifted, &faulty_shifted);
    println!(
        "Fault-free columns match the paper exactly: states 001,000,010,010,010,011 \
         without limited scan; 001,000,010,001,101,001 with it."
    );
    rls_bench::finish_obs(table);
}
