//! Reproduces the paper's Table 3: `N_cyc` and `N_cyc0` grids for s208
//! over all `(L_A, L_B, N)` grid combinations with `L_A < L_B`.
//!
//! A dash marks combinations where Procedure 2 did not reach complete
//! coverage of the detectable faults. `N_cyc0` entries are exact (closed
//! formula); `N_cyc` entries depend on the synthetic stand-in and the
//! random streams, so their *pattern* — growth with the parameters, the
//! occasional inversion where a larger `TS0` needs fewer pairs — is the
//! reproduction target.
//!
//! Usage: `table3 [circuit...]` (default: s208; only the first name
//! runs). An unknown name prints the usage line and exits with code 2.
//!
//! Execution: `RLS_THREADS=n` runs trials n at a time, `RLS_CAMPAIGN_DIR=dir`
//! persists JSONL campaign records, and `--resume <file>` (or `RLS_RESUME`)
//! restarts an interrupted campaign from its last checkpoint.

use rls_bench::{circuit, exec_profile, target_for};
use rls_core::experiment::cycles_grid;
use rls_core::report::TextTable;
use rls_core::{PAPER_LA_GRID, PAPER_LB_GRID, PAPER_N_GRID};

fn main() {
    let name = rls_bench::circuits_from_args(&["s208"])
        .into_iter()
        .next()
        .expect("circuits_from_args falls back to the default list");
    let exec = exec_profile();
    let table = rls_bench::table_span("table3");
    let c = circuit(&name);
    let info = target_for(&c, &name);
    let rows = cycles_grid(&c, &name, &info.target, &exec);
    let cell = |la: usize, lb: usize, n: usize| -> Option<&rls_core::experiment::GridCell> {
        rows.iter()
            .find(|((a, b, m), _)| (*a, *b, *m) == (la, lb, n))
            .map(|(_, cell)| cell)
    };
    for (title, pick) in [("Ncyc", true), ("Ncyc0", false)] {
        println!("Table 3 ({name}): {title}");
        let mut header = vec!["N".to_string(), "LA".to_string()];
        header.extend(PAPER_LB_GRID.iter().map(|lb| format!("LB={lb}")));
        let mut t = TextTable::new(header);
        for &n in &PAPER_N_GRID {
            for &la in &PAPER_LA_GRID {
                if !PAPER_LB_GRID.iter().any(|&lb| la < lb) {
                    continue;
                }
                let mut row = vec![format!("N={n}"), la.to_string()];
                for &lb in &PAPER_LB_GRID {
                    let text = if la >= lb {
                        String::new()
                    } else {
                        match cell(la, lb, n) {
                            Some(cell) if pick => cell
                                .ncyc
                                .map(|v| v.to_string())
                                .unwrap_or_else(|| "-".to_string()),
                            Some(cell) => cell.ncyc0.to_string(),
                            None => String::new(),
                        }
                    };
                    row.push(text);
                }
                t.row(row);
            }
        }
        println!("{}", t.render());
    }
    rls_bench::finish_obs(table);
}
