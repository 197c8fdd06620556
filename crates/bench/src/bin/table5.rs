//! Reproduces the paper's Table 5: the first 10 `(L_A, L_B, N)`
//! combinations by increasing `N_cyc0`, for `N_SV = 21` and `N_SV = 74`.
//!
//! This table is a pure closed-form computation and reproduces the paper's
//! numbers **exactly** (asserted by unit tests in `rls-core::params`).
//!
//! Usage: `table5 [N_SV...]` (default: 21 74). An argument that is not a
//! non-negative integer prints the usage line and exits with code 2.

use rls_core::rank_combinations;
use rls_core::report::TextTable;

fn main() {
    let _exec = rls_bench::exec_profile();
    let nsvs = parse_nsvs(std::env::args().skip(1)).unwrap_or_else(|bad| {
        eprintln!("usage: table5 [N_SV...] (N_SV values are integers, got `{bad}`)");
        std::process::exit(2);
    });
    let table = rls_bench::table_span("table5");
    for n_sv in nsvs {
        println!("Table 5: N_cyc0 ranking for N_SV = {n_sv}");
        let mut t = TextTable::new(vec!["LA", "LB", "N", "Ncyc0"]);
        for combo in rank_combinations(n_sv).into_iter().take(10) {
            t.row(vec![
                combo.la.to_string(),
                combo.lb.to_string(),
                combo.n.to_string(),
                combo.ncyc0.to_string(),
            ]);
        }
        println!("{}", t.render());
    }
    rls_bench::finish_obs(table);
}

/// The `N_SV` values to rank: the arguments, or the paper's 21 and 74
/// without any. The first argument that is not an integer is the error.
fn parse_nsvs(args: impl Iterator<Item = String>) -> Result<Vec<usize>, String> {
    let nsvs = args
        .map(|a| a.parse().map_err(|_| a))
        .collect::<Result<Vec<usize>, String>>()?;
    Ok(if nsvs.is_empty() { vec![21, 74] } else { nsvs })
}

#[cfg(test)]
mod tests {
    use super::parse_nsvs;

    fn parse(args: &[&str]) -> Result<Vec<usize>, String> {
        parse_nsvs(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn defaults_to_the_papers_two_state_sizes() {
        assert_eq!(parse(&[]), Ok(vec![21, 74]));
    }

    #[test]
    fn integers_are_taken_in_order() {
        assert_eq!(parse(&["74", "8"]), Ok(vec![74, 8]));
    }

    #[test]
    fn the_first_non_integer_is_named() {
        assert_eq!(parse(&["21", "s27", "x"]), Err("s27".to_string()));
        assert_eq!(parse(&["-3"]), Err("-3".to_string()));
    }
}
