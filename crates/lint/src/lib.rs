//! `rls-lint` — std-only invariant linter for the random-limited-scan
//! workspace.
//!
//! Clippy sees Rust; it cannot see *this project's* invariants. The
//! reproduction's correctness story rests on bit-identical replay
//! (`TS(I, D1)` selection, checkpoint/resume, the threads=N ≡ threads=1
//! oracle), and those break silently if a result path gains an unordered
//! `HashMap` iteration, a wall-clock read, or an `unwrap()` that bypasses
//! the supervised-worker recovery model. This crate enforces them:
//!
//! - its own lightweight lexer ([`lexer`]) — raw strings, nested block
//!   comments, char-vs-lifetime disambiguation; no `syn`, the build is
//!   offline,
//! - scope tracking and the marker grammar ([`scope`]) — `#[cfg(test)]`
//!   regions are exempt, and deliberate sites are blessed with a `lint:`
//!   marker carrying a reason,
//! - an item-level parser ([`items`]) — fn/impl/struct/static shapes
//!   over the lexer, enough structure for symbol tables and call graphs,
//! - the flow analysis ([`flow`]) — cross-file lock-order graphs,
//!   blocking-under-lock reachability, whole-field atomic pairing, and
//!   the fsync-before-rename persistence protocol,
//! - the rule engine ([`rules`]) — determinism, panic-safety,
//!   persistence-hygiene, and observability metric-name token rules,
//!   plus the suppression/hygiene pipeline both layers share,
//! - the baseline gate ([`baseline`]) — pre-existing findings are
//!   committed to `lint-baseline.json`; CI fails only on new ones.
//!
//! See DESIGN.md §8 for the rule catalogue and §11 for the flow layer.

pub mod baseline;
pub mod flow;
pub mod items;
pub mod lexer;
pub mod rules;
pub mod scope;

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use rules::{lint_source_with, FileExtras, Finding, RuleSet};

/// Crates whose outputs feed campaign results: determinism rules apply.
/// `obs` is held to the same bar — its wall-clock reads exist *only* to
/// time spans, and each one carries a `det-ok` blessing saying so.
const DET_CRATES: &[&str] = &[
    "core", "fsim", "lfsr", "scan", "netlist", "dispatch", "obs", "root",
];

/// Crates that own on-disk campaign artifacts: persistence rules apply
/// (`obs` writes the metrics JSONL stream next to the campaign records).
const PERSIST_CRATES: &[&str] = &["dispatch", "obs"];

/// Crates that emit `rls-obs` metrics: the metric-name audit applies.
const OBS_CRATES: &[&str] = &["atpg", "core", "fsim", "dispatch", "obs", "root"];

/// The lock-dense crates: concurrency flow rules (`lock-order`,
/// `blocking-under-lock`) apply (`obs` holds its metrics-stream mutex
/// across the append). Everything else either has no shared state or
/// touches locks only through these crates' APIs.
const CONC_CRATES: &[&str] = &["dispatch", "obs"];

/// Crates excluded from scanning entirely (benchmark harness binaries —
/// operator tooling, not result paths).
const SKIP_CRATES: &[&str] = &["bench"];

/// An I/O failure while walking or reading the workspace.
#[derive(Debug)]
pub struct LintError {
    /// What the linter was doing.
    pub context: &'static str,
    /// The path involved.
    pub path: PathBuf,
    /// The underlying error.
    pub source: std::io::Error,
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} `{}`: {}",
            self.context,
            self.path.display(),
            self.source
        )
    }
}

impl std::error::Error for LintError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// The rule classes for a crate, by directory name under `crates/`
/// (`"root"` for the umbrella crate's `src/`).
///
/// Panic-safety and the atomic-ordering audit apply everywhere that is
/// scanned — including this crate, which must pass its own rules.
pub fn rules_for_crate(name: &str) -> RuleSet {
    RuleSet {
        det: DET_CRATES.contains(&name),
        panic: true,
        atomics: true,
        persist: PERSIST_CRATES.contains(&name),
        obs: OBS_CRATES.contains(&name),
        conc: CONC_CRATES.contains(&name),
    }
}

/// One source file queued for the two-phase lint: collected first so the
/// flow analysis can see the whole workspace before any file is judged.
struct Unit {
    crate_name: String,
    label: String,
    source: String,
    rules: RuleSet,
}

/// Lints a set of in-memory sources as one universe: each entry is
/// `(crate_name, label, source)`, rule classes derive from the crate
/// name. This is the mutation-test entry point — seed a hazard into a
/// file's text and assert the relevant family fires, no tempdirs needed.
pub fn lint_sources(files: &[(&str, &str, &str)]) -> Vec<Finding> {
    let units: Vec<Unit> = files
        .iter()
        .map(|(crate_name, label, source)| Unit {
            crate_name: (*crate_name).to_string(),
            label: (*label).to_string(),
            source: (*source).to_string(),
            rules: rules_for_crate(crate_name),
        })
        .collect();
    lint_units(&units)
}

/// Runs both phases over the collected units: flow analysis across the
/// whole set, then the token-level pass per file with the flow results
/// merged in (so markers bless flow findings and consumed markers stay
/// off the stale report).
fn lint_units(units: &[Unit]) -> Vec<Finding> {
    let flow_in: Vec<flow::UnitIn<'_>> = units
        .iter()
        .map(|u| flow::UnitIn {
            crate_name: &u.crate_name,
            label: &u.label,
            source: &u.source,
            rules: u.rules,
        })
        .collect();
    let flow_out = flow::analyze(&flow_in);
    let mut findings = Vec::new();
    for u in units {
        let extras = FileExtras {
            findings: flow_out
                .findings
                .iter()
                .filter(|f| f.file == u.label)
                .cloned()
                .collect(),
            consumed_lines: flow_out
                .consumed
                .iter()
                .filter(|(label, _)| *label == u.label)
                .map(|(_, line)| *line)
                .collect(),
        };
        findings.extend(lint_source_with(&u.label, u.rules, &u.source, &extras));
    }
    findings.sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    findings
}

/// Lints the whole workspace rooted at `root`: `src/` (the umbrella
/// crate) and every `crates/<name>/src/` except the skip list. Binary
/// entry points (`main.rs`, `src/bin/`) are exempt, matching the
/// panic-safety rule's scope (failures there surface to the operator
/// directly). All files are collected first so the flow analysis sees
/// the full cross-crate call graph, then each file is judged. Findings
/// are sorted by path, line, then rule — the order is deterministic, as
/// the linter demands of everyone else.
pub fn lint_workspace(root: &Path) -> Result<Vec<Finding>, LintError> {
    let mut units = Vec::new();
    let umbrella = root.join("src");
    if umbrella.is_dir() {
        collect_dir(&umbrella, root, "root", &mut units)?;
    }
    let crates = root.join("crates");
    for name in sorted_dir_names(&crates)? {
        if SKIP_CRATES.contains(&name.as_str()) {
            continue;
        }
        let src = crates.join(&name).join("src");
        if src.is_dir() {
            collect_dir(&src, root, &name, &mut units)?;
        }
    }
    Ok(lint_units(&units))
}

/// Recursively collects `.rs` files under `dir` (sorted traversal),
/// skipping `bin/` directories and `main.rs` files.
fn collect_dir(
    dir: &Path,
    root: &Path,
    crate_name: &str,
    units: &mut Vec<Unit>,
) -> Result<(), LintError> {
    for name in sorted_dir_names(dir)? {
        let path = dir.join(&name);
        if path.is_dir() {
            if name != "bin" {
                collect_dir(&path, root, crate_name, units)?;
            }
            continue;
        }
        if !name.ends_with(".rs") || name == "main.rs" {
            continue;
        }
        let label: String = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let source = fs::read_to_string(&path).map_err(|e| LintError {
            context: "reading",
            path: path.clone(),
            source: e,
        })?;
        units.push(Unit {
            crate_name: crate_name.to_string(),
            label,
            source,
            rules: rules_for_crate(crate_name),
        });
    }
    Ok(())
}

/// Directory entry names, sorted for deterministic traversal.
fn sorted_dir_names(dir: &Path) -> Result<Vec<String>, LintError> {
    let entries = fs::read_dir(dir).map_err(|e| LintError {
        context: "listing",
        path: dir.to_path_buf(),
        source: e,
    })?;
    let mut names = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| LintError {
            context: "listing",
            path: dir.to_path_buf(),
            source: e,
        })?;
        names.push(entry.file_name().to_string_lossy().into_owned());
    }
    names.sort();
    Ok(names)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_scoping_matches_the_design() {
        let core = rules_for_crate("core");
        assert!(core.det && core.panic && core.atomics && !core.persist && core.obs && !core.conc);
        let dispatch = rules_for_crate("dispatch");
        assert!(dispatch.det && dispatch.persist && dispatch.obs && dispatch.conc);
        let obs = rules_for_crate("obs");
        assert!(obs.det && obs.persist && obs.obs && obs.conc);
        let lint = rules_for_crate("lint");
        assert!(
            !lint.det && lint.panic && lint.atomics && !lint.persist && !lint.obs && !lint.conc
        );
        let atpg = rules_for_crate("atpg");
        assert!(!atpg.det && atpg.panic && atpg.obs);
    }

    #[test]
    fn lint_sources_runs_both_phases_as_one_universe() {
        // A cross-file lock inversion only the flow layer can see, plus a
        // token-level unwrap in the same universe.
        let a = r#"
            use std::sync::Mutex;
            pub struct Hub { pub sched: Mutex<u64>, pub ledger: Mutex<u64> }
            pub fn snapshot(h: &Hub) {
                let s = h.sched.lock();
                let l = h.ledger.lock();
                let _ = (s, l);
            }
        "#;
        let b = r#"
            use crate::Hub;
            pub fn drain(h: &Hub) {
                let l = h.ledger.lock();
                let s = h.sched.lock();
                let _ = (l, s);
            }
        "#;
        let found = lint_sources(&[
            ("dispatch", "crates/dispatch/src/a.rs", a),
            ("dispatch", "crates/dispatch/src/b.rs", b),
        ]);
        let rules: Vec<&str> = found.iter().map(|f| f.rule.as_str()).collect();
        assert!(rules.contains(&"lock-order"), "{rules:?}");
        let cycle = found.iter().find(|f| f.rule == "lock-order");
        assert!(
            cycle.is_some_and(|f| !f.witness.is_empty()),
            "lock-order finding carries a witness path: {cycle:?}"
        );
    }

    #[test]
    fn workspace_walk_is_deterministic_and_labels_are_relative() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .map(Path::to_path_buf)
            .unwrap_or_default();
        let a = lint_workspace(&root).map(|f| f.len());
        let b = lint_workspace(&root).map(|f| f.len());
        assert!(a.is_ok(), "{a:?}");
        let first = lint_workspace(&root)
            .ok()
            .and_then(|f| f.into_iter().next());
        if let Some(f) = first {
            assert!(
                !f.file.starts_with('/'),
                "label should be relative: {}",
                f.file
            );
            assert!(f.file.ends_with(".rs"));
        }
        assert_eq!(a.ok(), b.ok());
    }
}
