//! Baseline comparison (the paper's Section 4 discussion against \[5\]/\[6\]):
//! the limited-scan method versus plain and weighted random BIST at equal
//! clock-cycle budgets, and versus the 500,000-cycle budget the reference
//! methods used.
//!
//! Usage: `baselines [circuit...]` (default: s208 s420 b09).
//!
//! Execution: `RLS_THREADS=n` runs trials n at a time, `RLS_CAMPAIGN_DIR=dir`
//! persists JSONL campaign records, and `--resume <file>` (or `RLS_RESUME`)
//! restarts an interrupted campaign from its last checkpoint.

use rls_core::baseline::{classic_scan_bist, two_length_bist, weighted_random_bist};
use rls_core::report::{kilo, TextTable};
use rls_core::{Procedure2, RlsConfig};

fn main() {
    let names = rls_bench::circuits_from_args(&["s208", "s420", "b09"]);
    let exec = rls_bench::exec_profile();
    for name in &names {
        let c = rls_bench::circuit(name);
        let info = rls_bench::target_for(&c, name);
        let method = Procedure2::new(
            &c,
            exec.configure(RlsConfig::new(8, 16, 64).with_target(info.target.clone())),
        )
        .run();
        let budget = method.total_cycles;
        println!(
            "\n{name}: {} detectable faults; method budget = {} cycles",
            info.detectable,
            kilo(budget)
        );
        let mut t = TextTable::new(vec!["scheme", "budget", "det", "coverage"]);
        let row = |t: &mut TextTable, label: &str, det: usize, total: usize, b: u64| {
            t.row(vec![
                label.to_string(),
                kilo(b),
                det.to_string(),
                format!("{:.2}%", 100.0 * det as f64 / total as f64),
            ]);
        };
        row(
            &mut t,
            "random limited scan (this paper)",
            method.total_detected,
            method.target_faults,
            budget,
        );
        let classic = classic_scan_bist(&c, &info.target, budget, 0xB15D);
        row(
            &mut t,
            "classic test-per-scan",
            classic.detected,
            classic.target_faults,
            budget,
        );
        let two = two_length_bist(&c, &info.target, budget, 8, 16, 0xB15D);
        row(
            &mut t,
            "two-length at-speed ([6]-style)",
            two.detected,
            two.target_faults,
            budget,
        );
        let weighted = weighted_random_bist(&c, &info.target, budget, 8, 16, 0xB15D);
        row(
            &mut t,
            "weighted random (3 weights)",
            weighted.detected,
            weighted.target_faults,
            budget,
        );
        let big = two_length_bist(&c, &info.target, 500_000, 8, 16, 0xB15D);
        row(
            &mut t,
            "two-length, 500K budget ([5]/[6] setting)",
            big.detected,
            big.target_faults,
            big.cycles_used,
        );
        println!("{}", t.render());
    }
}
