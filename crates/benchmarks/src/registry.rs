//! Name-based circuit lookup.
//!
//! `s27` resolves to the real embedded netlist; every other circuit of the
//! paper's tables resolves to its profile-matched synthetic stand-in (see
//! the crate docs and DESIGN.md). When the `RLS_BENCH_DIR` environment
//! variable points at a directory of real ISCAS-89 `.bench` netlists,
//! `<dir>/<name>.bench` takes precedence over both, so the whole stack —
//! table binaries, tests and examples alike — runs on the genuine
//! circuits without a code change.

use std::path::Path;

use rls_netlist::Circuit;

use crate::profiles::PAPER_PROFILES;
use crate::s27::s27;
use crate::synth::SynthConfig;

/// The environment variable naming a directory of real `.bench` netlists.
pub const BENCH_DIR_VAR: &str = "RLS_BENCH_DIR";

/// Builds the circuit registered under `name`, or `None` for unknown names.
///
/// With `RLS_BENCH_DIR` set, `<dir>/<name>.bench` is tried first; a
/// missing file falls back to the registry silently, while a present but
/// unparsable file is reported on stderr and then falls back (a corrupt
/// netlist must not silently change which circuit a campaign runs on
/// without a trace).
///
/// # Example
///
/// ```
/// assert!(rls_benchmarks::by_name("s27").is_some());
/// assert!(rls_benchmarks::by_name("c6288").is_none());
/// ```
pub fn by_name(name: &str) -> Option<Circuit> {
    if let Some(c) = from_bench_dir(name) {
        return Some(c);
    }
    if name == "s27" {
        return Some(s27());
    }
    PAPER_PROFILES
        .iter()
        .find(|p| p.name == name)
        .map(|p| SynthConfig::from_profile(p).build())
}

/// Loads `<RLS_BENCH_DIR>/<name>.bench` if the variable is set, the name
/// is a plain identifier (no path traversal), and the file parses.
fn from_bench_dir(name: &str) -> Option<Circuit> {
    let dir = std::env::var_os(BENCH_DIR_VAR)?;
    load_bench_from(Path::new(&dir), name)
}

/// The `RLS_BENCH_DIR` loader with the directory made explicit (tests
/// exercise it without mutating the process environment).
///
/// Circuit names are restricted to `[A-Za-z0-9_-]` so a request like
/// `../../etc/passwd` can never escape the netlist directory.
pub fn load_bench_from(dir: &Path, name: &str) -> Option<Circuit> {
    if name.is_empty()
        || !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
    {
        return None;
    }
    let path = dir.join(format!("{name}.bench"));
    let src = std::fs::read_to_string(&path).ok()?;
    match rls_netlist::parse_bench(name, &src) {
        Ok(c) => Some(c),
        Err(e) => {
            eprintln!(
                "warning: {BENCH_DIR_VAR} netlist `{}` ignored ({e}); using the registry circuit",
                path.display()
            );
            None
        }
    }
}

/// All registered circuit names, in the paper's table order.
pub fn all_names() -> Vec<&'static str> {
    PAPER_PROFILES.iter().map(|p| p.name).collect()
}

/// The circuits of the paper's Table 6, in row order.
pub fn table6_names() -> Vec<&'static str> {
    vec![
        "s208", "s298", "s344", "s382", "s400", "s420", "s510", "s641", "s820", "s953", "s1196",
        "s1423", "s5378", "s35932", "b01", "b02", "b03", "b04", "b06", "b09", "b10", "b11",
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn s27_is_the_real_netlist() {
        let c = by_name("s27").unwrap();
        assert_eq!(c.num_gates(), 10);
        assert!(c.find("G17").is_some());
    }

    #[test]
    fn stand_ins_match_nsv() {
        for (name, nsv) in [("s208", 8), ("s420", 16), ("s1423", 74), ("b09", 28)] {
            let c = by_name(name).unwrap();
            assert_eq!(c.num_dffs(), nsv, "{name}");
        }
    }

    #[test]
    fn table6_names_are_all_registered() {
        for name in table6_names() {
            assert!(by_name(name).is_some(), "{name}");
        }
    }

    #[test]
    fn all_names_contains_s27_and_table6() {
        let names = all_names();
        assert!(names.contains(&"s27"));
        for n in table6_names() {
            assert!(names.contains(&n), "{n}");
        }
    }

    #[test]
    fn unknown_is_none() {
        assert!(by_name("s9234").is_none());
    }

    #[test]
    fn bench_dir_loader_reads_parses_and_guards_traversal() {
        let dir = std::env::temp_dir().join(format!("rls-bench-dir-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("tiny.bench"), "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n").unwrap();
        std::fs::write(dir.join("broken.bench"), "y = NOT(\n").unwrap();
        let c = load_bench_from(&dir, "tiny").expect("valid netlist loads");
        assert_eq!(c.name(), "tiny");
        assert!(
            load_bench_from(&dir, "missing").is_none(),
            "absent file falls back"
        );
        assert!(
            load_bench_from(&dir, "broken").is_none(),
            "unparsable file falls back"
        );
        assert!(
            load_bench_from(&dir, "../tiny").is_none(),
            "traversal rejected"
        );
        assert!(load_bench_from(&dir, "").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
