//! At-speed value of the test sets, measured with transition-delay faults.
//!
//! The paper argues its tests keep the circuit tested *at speed* because
//! `TS0`'s sequences run without scan interruptions even when the derived
//! sets scan often. This binary quantifies that argument with a
//! transition-fault (slow-to-rise / slow-to-fall) simulation:
//!
//! - single-vector tests (classic test-per-scan BIST) launch nothing;
//! - `TS0`'s two-length at-speed sequences cover most transition faults;
//! - `TS(I, D1)` with small `D1` (frequent limited scans) covers *fewer*
//!   transition faults per test — each scan operation breaks a
//!   launch-capture pair — while large `D1` approaches `TS0`.
//!
//! Usage: `at_speed [circuit...]` (default: s298).

use rls_core::report::TextTable;
use rls_core::{derive_test_set, generate_ts0, RlsConfig};
use rls_fsim::{transition_coverage, ScanTest, TestVectors};
use rls_lfsr::{RandomSource, XorShift64};

fn main() {
    let names = rls_bench::circuits_from_args(&["s298"]);
    for name in &names {
        let c = rls_bench::circuit(name);
        let cfg = RlsConfig::new(8, 16, 64);
        let ts0 = generate_ts0(&c, &cfg);
        let d2 = cfg.d2(c.num_dffs());
        println!(
            "\nTransition-fault coverage on {name} ({} faults, 2 per net):\n",
            2 * c.len()
        );
        let mut t = TextTable::new(vec!["stimulus", "TDF det", "coverage"]);
        let mut row = |label: String, tests: &[ScanTest]| {
            let (det, total) = transition_coverage(&c, tests);
            t.row(vec![
                label,
                det.to_string(),
                format!("{:.1}%", 100.0 * det as f64 / total as f64),
            ]);
        };
        // Classic test-per-scan: same cycle budget as TS0, length-1 tests.
        let mut rng = XorShift64::new(0xA75);
        let singles: Vec<ScanTest> = (0..2 * cfg.n * (cfg.la + cfg.lb) / 2)
            .map(|_| {
                let mut si = vec![false; c.num_dffs()];
                rng.fill_bits(&mut si);
                ScanTest::new(si, TestVectors::draw(1, c.num_inputs(), &mut rng))
            })
            .collect();
        row("single-vector tests (test-per-scan)".into(), &singles);
        row("TS0 (two-length at-speed)".into(), &ts0);
        for d1 in [1u32, 3, 10] {
            let derived = derive_test_set(&ts0, &cfg, 1, d1, d2);
            row(format!("TS(1,{d1}) alone"), &derived);
        }
        println!("{}", t.render());
    }
}
