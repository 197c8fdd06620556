//! Reproduces the paper's Table 7: the Table 6 experiment with `D1` tried
//! in decreasing order (`10, 9, …, 1`), which prefers fewer limited scan
//! operations and therefore longer at-speed runs.
//!
//! The reproduction target: `n̄_ls` drops relative to Table 6 while the
//! pair count (`app`) tends to rise, with the same final coverage.
//!
//! Usage: `table7 [circuit...]`.
//!
//! Execution: `RLS_THREADS=n` runs trials n at a time, `RLS_CAMPAIGN_DIR=dir`
//! persists JSONL campaign records, and `--resume <file>` (or `RLS_RESUME`)
//! restarts an interrupted campaign from its last checkpoint.

use rls_bench::{exec_profile, ladder_row, render_results};
use rls_core::D1Order;

fn main() {
    let names = rls_bench::circuits_from_args(&rls_benchmarks::table6_names());
    let mut rows = Vec::new();
    let exec = exec_profile();
    let table = rls_bench::table_span("table7");
    for name in &names {
        eprintln!("[table7] running {name}…");
        let _circuit = rls_bench::circuit_span(name);
        // The paper uses the same (L_A, L_B, N) as Table 6: find it with
        // the increasing-order run, then re-run decreasing on it, both
        // against one classification of the circuit.
        let c = rls_bench::circuit(name);
        let info = rls_bench::target_for(&c, name);
        let chosen = ladder_row(&c, name, D1Order::Increasing, &info.target, 20, &exec);
        rows.push(rls_core::experiment::run_combo(
            &c,
            name,
            chosen.combo,
            D1Order::Decreasing,
            &info.target,
            &exec,
        ));
    }
    println!(
        "{}",
        render_results("Table 7: D1 tried in decreasing order (10..1)", &rows)
    );
    rls_bench::finish_obs(table);
}
