//! Reproduces the paper's Table 8: several `(L_A, L_B, N)` combinations
//! per circuit, showing that larger combinations reduce the number of
//! `(I, D1)` pairs (`app`) at the price of more clock cycles.
//!
//! The paper's circuit selection (s208, s420, s641, s953, s1196, s1423,
//! s5378, b09) and its per-circuit combination lists are used by default.
//!
//! Usage: `table8 [circuit...]`.
//!
//! Execution: `RLS_THREADS=n` runs trials n at a time, `RLS_CAMPAIGN_DIR=dir`
//! persists JSONL campaign records, and `--resume <file>` (or `RLS_RESUME`)
//! restarts an interrupted campaign from its last checkpoint.

use rls_bench::{combo_row, render_results};
use rls_core::D1Order;

/// The paper's Table 8 combinations per circuit.
fn combos_for(name: &str) -> Vec<(usize, usize, usize)> {
    match name {
        "s208" => vec![(8, 16, 64), (8, 32, 64), (8, 64, 64), (8, 128, 64)],
        "s420" => vec![
            (8, 32, 128),
            (16, 64, 128),
            (32, 64, 128),
            (64, 256, 64),
            (16, 256, 256),
        ],
        "s641" => vec![(16, 256, 128), (8, 128, 256), (16, 256, 256)],
        "s953" => vec![(8, 16, 64), (8, 32, 64), (8, 64, 64)],
        "s1196" => vec![(16, 128, 256), (32, 128, 256)],
        "s1423" => vec![
            (16, 64, 64),
            (32, 64, 64),
            (8, 128, 64),
            (16, 256, 64),
            (8, 256, 128),
            (32, 256, 128),
        ],
        "s5378" => vec![
            (8, 32, 64),
            (16, 32, 64),
            (8, 64, 64),
            (32, 64, 64),
            (8, 128, 64),
            (16, 128, 64),
            (8, 256, 64),
            (64, 256, 64),
            (16, 256, 128),
            (64, 256, 128),
            (32, 256, 256),
        ],
        "b09" => vec![
            (8, 16, 64),
            (8, 32, 64),
            (8, 64, 64),
            (32, 64, 64),
            (16, 128, 64),
            (8, 256, 64),
        ],
        // For circuits outside the paper's Table 8, walk a generic ladder.
        _ => vec![(8, 16, 64), (8, 64, 64), (16, 256, 128)],
    }
}

fn main() {
    let names = rls_bench::circuits_from_args(&[
        "s208", "s420", "s641", "s953", "s1196", "s1423", "s5378", "b09",
    ]);
    let mut rows = Vec::new();
    let exec = rls_bench::exec_profile();
    let table = rls_bench::table_span("table8");
    for name in &names {
        eprintln!("[table8] running {name}…");
        let _circuit = rls_bench::circuit_span(name);
        let c = rls_bench::circuit(name);
        let info = rls_bench::target_for(&c, name);
        for combo in combos_for(name) {
            rows.push(combo_row(
                name,
                combo,
                D1Order::Increasing,
                &info.target,
                &exec,
            ));
        }
    }
    println!(
        "{}",
        render_results(
            "Table 8: larger (LA,LB,N) trade pairs (app) for cycles",
            &rows
        )
    );
    rls_bench::finish_obs(table);
}
