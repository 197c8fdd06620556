//! Reproduces the paper's Table 6: for every benchmark circuit, the first
//! `(L_A, L_B, N)` combination (in Table 5 order) reaching complete
//! coverage of the detectable faults, with the paper's columns — initial
//! `det`/`cycles` of `TS0`, then `app`, `det`, `cycles` and `n̄_ls` with
//! limited scan.
//!
//! All circuits except `s27` are profile-matched synthetic stand-ins, so
//! absolute values differ from the paper; the reproduction target is the
//! shape: incomplete initial coverage, completion through limited scans,
//! `app = 0` rows where `TS0` already suffices, and cycle growth by one to
//! two orders of magnitude for hard circuits.
//!
//! Usage: `table6 [circuit...]` (default: the paper's 22 circuits; the
//! largest stand-ins take a while — pass names to restrict).
//!
//! Execution: `RLS_THREADS=n` runs trials n at a time, `RLS_CAMPAIGN_DIR=dir`
//! persists JSONL campaign records, and `--resume <file>` (or `RLS_RESUME`)
//! restarts an interrupted campaign from its last checkpoint.
//! `RLS_MAX_TRIES=n` stops each circuit's ladder after `n` combinations
//! (default 20); a value that is not a positive integer exits 2.

use rls_bench::{exec_profile, render_results, table6_row};
use rls_core::{ConfigError, D1Order};

/// Parses `RLS_MAX_TRIES`: unset tries the whole 20-combination ladder,
/// and anything but a positive integer is an error (0 would try nothing).
fn parse_max_tries(value: Option<String>) -> Result<usize, ConfigError> {
    let Some(v) = value else {
        return Ok(20);
    };
    match v.trim().parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(ConfigError::InvalidEnv {
            var: "RLS_MAX_TRIES",
            value: v,
            expected: "a positive integer",
        }),
    }
}

fn main() {
    let names = rls_bench::circuits_from_args(&rls_benchmarks::table6_names());
    let raw = std::env::var_os("RLS_MAX_TRIES").map(|v| v.to_string_lossy().into_owned());
    let max_tries = parse_max_tries(raw).unwrap_or_else(|e| {
        eprintln!("[exec] {e}");
        std::process::exit(2);
    });
    let mut rows = Vec::new();
    let exec = exec_profile();
    let table = rls_bench::table_span("table6");
    for name in &names {
        eprintln!("[table6] running {name}…");
        let _circuit = rls_bench::circuit_span(name);
        let row = table6_row(name, D1Order::Increasing, max_tries, &exec);
        // Incremental progress (stderr) so long runs are salvageable.
        eprintln!(
            "[table6] {} {:?}: initial {}, app {}, det {}/{}, {} cycles, complete={}",
            row.name,
            row.combo,
            row.initial_detected,
            row.app,
            row.total_detected,
            row.target_faults,
            row.total_cycles,
            row.complete
        );
        rows.push(row);
    }
    println!(
        "{}",
        render_results("Table 6: first complete combination per circuit", &rows)
    );
    rls_bench::finish_obs(table);
}

#[cfg(test)]
mod tests {
    use super::parse_max_tries;

    #[test]
    fn max_tries_is_a_positive_integer_or_unset() {
        assert_eq!(parse_max_tries(None), Ok(20));
        assert_eq!(parse_max_tries(Some("1".into())), Ok(1));
        for bad in ["abc", "0"] {
            let err = parse_max_tries(Some(bad.into())).unwrap_err().to_string();
            assert_eq!(
                err,
                format!("invalid RLS_MAX_TRIES=`{bad}`: expected a positive integer")
            );
        }
    }
}
