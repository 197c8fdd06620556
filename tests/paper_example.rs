//! End-to-end reproduction of the paper's Section 2 worked example
//! (Tables 1 and 2) across netlist, scan, and fault-simulation crates.

use random_limited_scan::fsim::good::{bits_to_string, traces_differ};
use random_limited_scan::fsim::{FaultUniverse, GoodSim, ScanTest, ShiftOp};

fn plain_test() -> ScanTest {
    ScanTest::from_strings("001", &["0111", "1001", "0111", "1001", "0100"]).unwrap()
}

fn shifted_test() -> ScanTest {
    plain_test()
        .with_shifts(vec![ShiftOp {
            at: 3,
            amount: 1,
            fill: vec![false],
        }])
        .unwrap()
}

#[test]
fn table_1a_fault_free_columns() {
    let c = random_limited_scan::benchmarks::s27();
    let sim = GoodSim::new(&c);
    let trace = sim.simulate_test(&plain_test());
    let states: Vec<String> = trace.states.iter().map(|s| bits_to_string(s)).collect();
    assert_eq!(states, ["001", "000", "010", "010", "010", "011"]);
    let outputs: Vec<String> = trace.outputs.iter().map(|o| bits_to_string(o)).collect();
    assert_eq!(outputs, ["1", "0", "0", "0", "0"]);
}

#[test]
fn table_1b_fault_free_columns() {
    let c = random_limited_scan::benchmarks::s27();
    let sim = GoodSim::new(&c);
    let trace = sim.simulate_test(&shifted_test());
    let states: Vec<String> = trace.states.iter().map(|s| bits_to_string(s)).collect();
    assert_eq!(states, ["001", "000", "010", "001", "101", "001"]);
    let outputs: Vec<String> = trace.outputs.iter().map(|o| bits_to_string(o)).collect();
    assert_eq!(outputs, ["1", "0", "0", "1", "1"]);
    // The limited scan shifted out the tail bit of 010, which is 0.
    assert_eq!(trace.scan_outs, vec![(3, vec![false])]);
}

#[test]
fn a_fault_exists_that_only_the_limited_scan_detects() {
    // The property Table 1 demonstrates: some fault is undetected by the
    // plain test τ but detected once shift(3) = 1 is inserted.
    //
    // Note on fidelity: the *fault-free* columns of Tables 1(a)/1(b) are
    // reproduced bit for bit (tests above). The paper's *faulty* columns
    // (Z(3) = 1/0 with S(4) = 101/010 and S(5) = 001/001 simultaneously)
    // are not consistent with any single stuck-at fault of the standard
    // s27 netlist under the same bit ordering that makes the fault-free
    // columns match — an exhaustive search over all 52 uncollapsed faults
    // shows every fault that flips Z(3) is also detected by the plain test
    // at u = 0. We therefore assert the property, not the exact trace; see
    // EXPERIMENTS.md.
    let c = random_limited_scan::benchmarks::s27();
    let sim = GoodSim::new(&c);
    let good_plain = sim.simulate_test(&plain_test());
    let good_shift = sim.simulate_test(&shifted_test());
    let universe = FaultUniverse::enumerate(&c);
    let found = universe.faults().iter().copied().any(|f| {
        let fp = sim.simulate_faulty(&plain_test(), f);
        if traces_differ(&good_plain, &fp) {
            return false;
        }
        let fs = sim.simulate_faulty(&shifted_test(), f);
        traces_differ(&good_shift, &fs)
    });
    assert!(found, "a limited-scan-only fault must exist");
}

#[test]
fn no_single_fault_reproduces_the_papers_faulty_columns_exactly() {
    // Pins down the discrepancy documented above so that any future change
    // in semantics that *would* make the paper's exact faulty trace
    // reproducible is noticed.
    let c = random_limited_scan::benchmarks::s27();
    let sim = GoodSim::new(&c);
    let good_plain = sim.simulate_test(&plain_test());
    let universe = FaultUniverse::enumerate(&c);
    let exact = universe.faults().iter().copied().any(|f| {
        let fp = sim.simulate_faulty(&plain_test(), f);
        if traces_differ(&good_plain, &fp) {
            return false;
        }
        let fs = sim.simulate_faulty(&shifted_test(), f);
        bits_to_string(&fs.outputs[3]) == "0"
            && bits_to_string(&fs.states[4]) == "010"
            && bits_to_string(&fs.states[5]) == "001"
    });
    assert!(
        !exact,
        "the paper's exact faulty columns became reproducible — update \
         EXPERIMENTS.md and the table1 fault ranking"
    );
}

#[test]
fn paper_scan_out_detection_example() {
    // Section 2's second mechanism: state 00000/00010 shifted by two scans
    // out 00 (fault-free) vs 10 (faulty) — reproduced with the scan crate.
    let chain = random_limited_scan::scan::ChainMap::full(5);
    let mut good = vec![false; 5];
    let mut faulty = vec![false, false, false, true, false];
    let g = chain.limited_scan(&mut good, 2, &[false, false]);
    let f = chain.limited_scan(&mut faulty, 2, &[false, false]);
    assert_eq!(bits_to_string(&g), "00");
    assert_eq!(bits_to_string(&f), "01"); // tail-first order: 0 then 1
    assert_ne!(g, f);
}
