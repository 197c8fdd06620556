//! Reproduces the paper's Table 4: the `N_cyc` / `N_cyc0` grids of Table 3
//! for s420 (see `table3.rs`; this binary simply defaults the circuit).
//!
//! Execution: `RLS_THREADS=n` runs trials n at a time, `RLS_CAMPAIGN_DIR=dir`
//! persists JSONL campaign records, and `--resume <file>` (or `RLS_RESUME`)
//! restarts an interrupted campaign from its last checkpoint.

fn main() {
    // Delegate: table3's logic with a different default circuit.
    let name = rls_bench::circuits_from_args(&["s420"])
        .into_iter()
        .next()
        .expect("circuits_from_args falls back to the default list");
    let exec = rls_bench::exec_profile();
    let table = rls_bench::table_span("table4");
    let c = rls_bench::circuit(&name);
    let info = rls_bench::target_for(&c, &name);
    let rows = rls_core::experiment::cycles_grid(&c, &name, &info.target, &exec);
    use rls_core::report::TextTable;
    use rls_core::{PAPER_LA_GRID, PAPER_LB_GRID, PAPER_N_GRID};
    let cell = |la: usize, lb: usize, n: usize| {
        rows.iter()
            .find(|((a, b, m), _)| (*a, *b, *m) == (la, lb, n))
            .map(|(_, cell)| cell)
    };
    for (title, pick_ncyc) in [("Ncyc", true), ("Ncyc0", false)] {
        println!("Table 4 ({name}): {title}");
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
                            Some(cell) if pick_ncyc => cell
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
