//! Shared harness code for the table-reproduction binaries.
//!
//! Each binary `tableN` regenerates the corresponding table of the paper:
//!
//! | Binary   | Paper table | Contents |
//! |----------|-------------|----------|
//! | `table1` | Tables 1–2  | The s27 worked example, with and without limited scan |
//! | `table3` | Table 3     | `N_cyc` / `N_cyc0` grids for s208 |
//! | `table4` | Table 4     | `N_cyc` / `N_cyc0` grids for s420 |
//! | `table5` | Table 5     | `(L_A, L_B, N)` ranking by `N_cyc0` |
//! | `table6` | Table 6     | Main results, first complete combination per circuit |
//! | `table7` | Table 7     | Same with decreasing `D1` order |
//! | `table8` | Table 8     | Several combinations per circuit |
//!
//! Run e.g. `cargo run --release -p rls-bench --bin table6 -- s208 s298`.
//! With no arguments the binaries use their default circuit lists; `table6`
//! through `table8` accept circuit names to restrict the run.

pub mod profile;

use rls_core::experiment::{detectable_target, CircuitResult, ExecProfile, TargetInfo};
use rls_core::report::{kilo, TextTable};
use rls_core::{CoverageTarget, D1Order};
use rls_netlist::Circuit;

/// Execution profile for the table binaries, from the environment:
/// `RLS_THREADS=n` runs Procedure 2's trials `n` at a time, on the
/// caller and an `rls-dispatch` worker pool (results are bit-identical
/// to `RLS_THREADS=1`),
/// `RLS_CAMPAIGN_DIR=dir` persists JSONL campaign records (typically
/// `results/`), `RLS_OBS=1` turns on the `rls-obs` tracing/metrics layer
/// (`RLS_OBS_SINK` picks `stderr`, `jsonl`, or `both`; the metrics
/// stream lands next to the campaign records), `RLS_RECORD=1` arms the
/// flight recorder (crash dumps land next to the campaign records), and
/// `RLS_RESUME=file`
/// (or the `--resume <file>` flag, which takes precedence) restarts an
/// interrupted campaign from its last checkpoint. Logs the profile when
/// it differs from the default.
///
/// Misconfiguration — an unparsable variable or an unreadable /
/// checkpoint-free resume file — terminates the process with exit
/// code 2 and an actionable message, before any simulation starts.
pub fn exec_profile() -> ExecProfile {
    let mut exec = ExecProfile::from_env().unwrap_or_else(|e| {
        eprintln!("[exec] {e}");
        std::process::exit(2);
    });
    let obs_dir = exec
        .campaign_dir
        .clone()
        .unwrap_or_else(|| std::path::PathBuf::from("results"));
    if exec.obs && !rls_obs::enabled() {
        match rls_obs::install_standard(exec.obs_sink, &obs_dir, 0) {
            Ok(Some(path)) => eprintln!("[obs] metrics stream: {}", path.display()),
            Ok(None) => eprintln!("[obs] tracing to stderr"),
            // Observability must never block the run: degrade to off.
            Err(e) => eprintln!("[obs] cannot install sinks ({e}); tracing disabled"),
        }
    }
    if exec.record > 0 {
        rls_obs::recorder::set_dump_dir(&obs_dir);
        if rls_obs::recorder::start(exec.record) {
            eprintln!(
                "[obs] flight recorder armed ({} events/thread; dumps under {})",
                exec.record,
                obs_dir.display()
            );
        }
    }
    if let Some(path) = resume_from_args(&mut std::env::args().skip(1)) {
        exec.resume = Some(std::path::PathBuf::from(path));
    }
    if let Some(path) = &exec.resume {
        match rls_core::load_checkpoint(path) {
            Ok(state) => eprintln!(
                "[exec] resume armed: {} at iteration {} ({} live faults) from {}",
                state.circuit,
                state.iteration,
                state.live.len(),
                path.display(),
            ),
            Err(e) => {
                eprintln!("[exec] cannot resume from {}: {e}", path.display());
                std::process::exit(2);
            }
        }
    }
    if exec.threads > 1 || exec.campaign_dir.is_some() {
        eprintln!(
            "[exec] threads={} campaign_dir={}",
            exec.threads.max(1),
            exec.campaign_dir
                .as_ref()
                .map(|d| d.display().to_string())
                .unwrap_or_else(|| "-".into()),
        );
    }
    exec
}

/// Top-level tracing span for one table binary. Bind the guard for the
/// length of `main` and pass it to [`finish_obs`] so the span lands in
/// the sinks before they flush.
pub fn table_span(table: &'static str) -> rls_obs::SpanGuard {
    rls_obs::span!("bench.table", table = table)
}

/// Per-circuit tracing span inside a table run.
pub fn circuit_span(name: &str) -> rls_obs::SpanGuard {
    rls_obs::span!("bench.circuit", circuit = name)
}

/// Closes the table span and flushes/uninstalls the obs sinks (renders
/// the stderr profile, writes the metrics-stream summary line). A no-op
/// when `RLS_OBS` was never enabled.
pub fn finish_obs(table_span: rls_obs::SpanGuard) {
    drop(table_span);
    let _ = rls_obs::finish();
}

/// Extracts `--resume <path>` / `--resume=<path>` from an argument
/// stream. The last occurrence wins, matching the usual CLI convention.
fn resume_from_args(args: &mut dyn Iterator<Item = String>) -> Option<String> {
    let mut resume = None;
    while let Some(arg) = args.next() {
        if arg == "--resume" {
            match args.next() {
                Some(path) => resume = Some(path),
                None => {
                    eprintln!("[exec] --resume requires a campaign JSONL path");
                    std::process::exit(2);
                }
            }
        } else if let Some(path) = arg.strip_prefix("--resume=") {
            resume = Some(path.to_string());
        }
    }
    resume
}

/// Default PODEM backtrack limit for computing detectable targets.
pub const DEFAULT_BACKTRACK_LIMIT: usize = 10_000;

/// Resolves a benchmark circuit, panicking with a helpful message for
/// unknown names.
pub fn circuit(name: &str) -> Circuit {
    rls_benchmarks::by_name(name).unwrap_or_else(|| {
        panic!(
            "unknown circuit `{name}`; known: {}",
            rls_benchmarks::all_names().join(", ")
        )
    })
}

/// Computes the detectable-fault target for a circuit, logging the
/// classification and the backtrack limit it used.
///
/// The PODEM backtrack limit per fault depends on the gate count:
///
/// | gates        | limit                                   |
/// |--------------|-----------------------------------------|
/// | ≤ 600        | [`DEFAULT_BACKTRACK_LIMIT`] (10,000)    |
/// | 601 – 5,000  | 1,000                                   |
/// | > 5,000      | 200                                     |
///
/// Larger circuits get less effort per fault: hard-to-prove faults land
/// in `aborted` (excluded from the target and reported) instead of
/// stalling the run for hours. The limit decides which faults are in the
/// target, so it is reported in [`TargetInfo::backtrack_limit`].
pub fn target_for(c: &Circuit, name: &str) -> TargetInfo {
    let limit = if c.num_gates() > 5000 {
        200
    } else if c.num_gates() > 600 {
        1000
    } else {
        DEFAULT_BACKTRACK_LIMIT
    };
    let info = detectable_target(c, limit);
    eprintln!(
        "[{name}] faults: {} detectable, {} redundant, {} aborted (backtrack limit {})",
        info.detectable, info.redundant, info.aborted, info.backtrack_limit
    );
    info
}

/// Circuit names from argv, or the given default list. The `--resume`
/// flag (and its value) belongs to [`exec_profile`] and is skipped here.
///
/// Every name is checked before any circuit runs: an unknown one prints
/// `usage: <bin> [circuit...]`, naming it and the known circuits, and
/// exits with code 2.
pub fn circuits_from_args(default: &[&str]) -> Vec<String> {
    let mut args = std::env::args();
    let bin = args
        .next()
        .as_deref()
        .and_then(|path| std::path::Path::new(path).file_name())
        .map_or_else(|| "table".into(), |f| f.to_string_lossy().into_owned());
    parse_circuits(args, default).unwrap_or_else(|bad| {
        eprintln!(
            "usage: {bin} [circuit...] (unknown circuit `{bad}`; known: {})",
            rls_benchmarks::all_names().join(", ")
        );
        std::process::exit(2);
    })
}

/// The circuit names among `args` (the `--resume` flag and its value
/// skipped), or `default` without any. The first name no circuit answers
/// to is the error.
fn parse_circuits(
    mut args: impl Iterator<Item = String>,
    default: &[&str],
) -> Result<Vec<String>, String> {
    let mut names = Vec::new();
    while let Some(arg) = args.next() {
        if arg == "--resume" {
            args.next();
        } else if !arg.starts_with("--resume=") {
            if rls_benchmarks::by_name(&arg).is_none() {
                return Err(arg);
            }
            names.push(arg);
        }
    }
    Ok(if names.is_empty() {
        default.iter().map(|s| s.to_string()).collect()
    } else {
        names
    })
}

/// Renders Table 6/7/8-style rows.
pub fn render_results(title: &str, rows: &[CircuitResult]) -> String {
    let mut t = TextTable::new(vec![
        "circuit", "LA,LB,N", "det", "cycles", "app", "det", "cycles", "ls", "complete",
    ]);
    for r in rows {
        let (la, lb, n) = r.combo;
        let (app_det, app_cycles, ls) = if r.app > 0 {
            (
                r.total_detected.to_string(),
                kilo(r.total_cycles),
                r.ls.map(|v| format!("{v:.2}")).unwrap_or_default(),
            )
        } else {
            (String::new(), String::new(), String::new())
        };
        t.row(vec![
            r.name.clone(),
            format!("{la},{lb},{n}"),
            r.initial_detected.to_string(),
            kilo(r.initial_cycles),
            r.app.to_string(),
            app_det,
            app_cycles,
            ls,
            if r.complete { "yes" } else { "NO" }.to_string(),
        ]);
    }
    format!(
        "{title}\n(initial: det/cycles of TS0; with lim. scan: app/det/cycles/ls)\n\n{}",
        t.render()
    )
}

/// Runs one circuit the Table 6 way: detectable target, ranked
/// combinations, first complete one reported (falls back to the last tried
/// row when none completes within `max_tries`).
pub fn table6_row(
    name: &str,
    order: D1Order,
    max_tries: usize,
    exec: &ExecProfile,
) -> CircuitResult {
    let c = circuit(name);
    let info = target_for(&c, name);
    ladder_row(&c, name, order, &info.target, max_tries, exec)
}

/// [`table6_row`] on an already classified circuit: the ranked
/// combinations against `target`, the first complete one reported (or
/// the last tried).
pub fn ladder_row(
    c: &Circuit,
    name: &str,
    order: D1Order,
    target: &CoverageTarget,
    max_tries: usize,
    exec: &ExecProfile,
) -> CircuitResult {
    let outcome =
        rls_core::experiment::first_complete_combo(c, name, order, target, max_tries, exec);
    outcome
        .chosen()
        .cloned()
        .or_else(|| outcome.tried.last().cloned())
        .expect("at least one combination is always tried")
}

/// Runs one circuit on an explicit combination (Table 7/8 style, where the
/// combination is given rather than searched).
pub fn combo_row(
    name: &str,
    combo: (usize, usize, usize),
    order: D1Order,
    target: &CoverageTarget,
    exec: &ExecProfile,
) -> CircuitResult {
    let c = circuit(name);
    rls_core::experiment::run_combo(&c, name, combo, order, target, exec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn circuit_resolves_known_names() {
        assert_eq!(circuit("s27").num_dffs(), 3);
    }

    #[test]
    #[should_panic(expected = "unknown circuit")]
    fn circuit_panics_on_unknown() {
        circuit("nope");
    }

    fn parse(args: &[&str], default: &[&str]) -> Result<Vec<String>, String> {
        parse_circuits(args.iter().map(|a| a.to_string()), default)
    }

    #[test]
    fn circuit_arguments_default_and_skip_the_resume_flag() {
        assert_eq!(parse(&[], &["s298"]), Ok(vec!["s298".to_string()]));
        assert_eq!(
            parse(&["s27", "--resume", "a.jsonl", "s208"], &["s298"]),
            Ok(vec!["s27".to_string(), "s208".to_string()])
        );
        assert_eq!(
            parse(&["--resume=a.jsonl"], &["s298"]),
            Ok(vec!["s298".to_string()])
        );
    }

    #[test]
    fn the_first_unknown_circuit_is_named() {
        assert_eq!(parse(&["nosuch"], &["s298"]), Err("nosuch".to_string()));
        assert_eq!(
            parse(&["s27", "nosuch", "other"], &["s298"]),
            Err("nosuch".to_string())
        );
    }

    #[test]
    fn resume_flag_is_parsed_in_both_spellings() {
        let mut args = ["s27".to_string(), "--resume".into(), "a.jsonl".into()].into_iter();
        assert_eq!(resume_from_args(&mut args).as_deref(), Some("a.jsonl"));
        let mut args = ["--resume=b.jsonl".to_string(), "s208".into()].into_iter();
        assert_eq!(resume_from_args(&mut args).as_deref(), Some("b.jsonl"));
        let mut args = ["--resume=a.jsonl".to_string(), "--resume=b.jsonl".into()].into_iter();
        assert_eq!(resume_from_args(&mut args).as_deref(), Some("b.jsonl"));
        let mut args = ["s27".to_string()].into_iter();
        assert_eq!(resume_from_args(&mut args), None);
    }

    #[test]
    fn render_includes_headers_and_rows() {
        let rows = vec![CircuitResult {
            name: "s27".into(),
            combo: (4, 8, 8),
            initial_detected: 30,
            initial_cycles: 147,
            app: 1,
            total_detected: 32,
            total_cycles: 500,
            ls: Some(0.41),
            complete: true,
            target_faults: 32,
        }];
        let s = render_results("Table X", &rows);
        assert!(s.contains("circuit"));
        assert!(s.contains("s27"));
        assert!(s.contains("0.41"));
        assert!(s.contains("yes"));
    }
}
