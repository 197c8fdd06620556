//! The invariant linter gates its own workspace.
//!
//! Two guarantees, checked in-process (no subprocess spawning, so the
//! test works under `cargo test -q --offline --workspace`):
//!
//! 1. The committed tree produces no findings beyond the committed
//!    `lint-baseline.json` — the same check `ci.sh` runs via the CLI.
//! 2. The `dispatch` crate — the burned-down baseline slice — lints to
//!    zero findings outright: every remaining panic, atomic ordering,
//!    wall-clock read, and raw file create there is either fixed or
//!    carries a `lint:` marker with a reason.

use std::path::{Path, PathBuf};

use rls_lint::baseline;
use rls_lint::rules::Finding;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn render(findings: &[&Finding]) -> String {
    findings
        .iter()
        .map(|f| format!("  {}:{}: [{}] {}", f.file, f.line, f.rule, f.message))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn workspace_has_no_findings_beyond_the_baseline() {
    let root = workspace_root();
    let findings = rls_lint::lint_workspace(&root).expect("lint walk");
    let text = std::fs::read_to_string(root.join("lint-baseline.json")).expect("baseline file");
    let entries = baseline::parse(&text).expect("baseline parses");
    let fresh = baseline::new_findings(&findings, &entries);
    assert!(
        fresh.is_empty(),
        "{} new lint finding(s); fix them, bless deliberate sites with a `lint:` marker, \
         or (after review) run `cargo run -p rls-lint --offline -- --baseline \
         lint-baseline.json --update-baseline`:\n{}",
        fresh.len(),
        render(&fresh)
    );
}

#[test]
fn dispatch_crate_lints_to_zero_findings() {
    let root = workspace_root();
    let findings = rls_lint::lint_workspace(&root).expect("lint walk");
    let dispatch: Vec<&Finding> = findings
        .iter()
        .filter(|f| f.file.starts_with("crates/dispatch/"))
        .collect();
    assert!(
        dispatch.is_empty(),
        "dispatch is the burned-down slice and must stay at zero findings:\n{}",
        render(&dispatch)
    );
}

#[test]
fn baseline_matches_are_line_drift_tolerant() {
    // The committed baseline must keep gating even as unrelated edits
    // move code around: matching is on (file, rule, snippet), never on
    // the recorded line number.
    let root = workspace_root();
    let text = std::fs::read_to_string(root.join("lint-baseline.json")).expect("baseline file");
    let entries = baseline::parse(&text).expect("baseline parses");
    assert!(!entries.is_empty(), "baseline should carry the kernel debt");
    let first = entries.first().expect("non-empty");
    let drifted = [Finding {
        rule: first.rule.clone(),
        file: first.file.clone(),
        line: 999_999,
        snippet: first.snippet.clone(),
        message: String::new(),
        witness: Vec::new(),
    }];
    assert!(baseline::new_findings(&drifted, &entries).is_empty());
}

#[test]
fn baseline_is_burned_down_and_annotated() {
    // PR 8's debt ceiling: at most 100 entries, every one carrying a
    // blessing reason or debt tag, and none from the rules the flow
    // analysis gates at absolute zero.
    let root = workspace_root();
    let text = std::fs::read_to_string(root.join("lint-baseline.json")).expect("baseline file");
    let entries = baseline::parse(&text).expect("baseline parses");
    assert!(
        entries.len() <= 100,
        "baseline grew to {} entries (ceiling is 100)",
        entries.len()
    );
    for e in &entries {
        assert!(
            e.note.as_deref().is_some_and(|n| !n.trim().is_empty()),
            "baseline entry without a note: {}:{} [{}]",
            e.file,
            e.line,
            e.rule
        );
        assert!(
            rls_lint::rules::baselineable(&e.rule),
            "`{}` findings may never be baselined ({}:{})",
            e.rule,
            e.file,
            e.line
        );
    }
}

#[test]
fn clean_tree_has_zero_findings_from_the_flow_families() {
    let root = workspace_root();
    let findings = rls_lint::lint_workspace(&root).expect("lint walk");
    let flow: Vec<&Finding> = findings
        .iter()
        .filter(|f| {
            matches!(
                f.rule.as_str(),
                "lock-order" | "blocking-under-lock" | "atomic-pairing" | "persist-protocol"
            )
        })
        .collect();
    assert!(
        flow.is_empty(),
        "flow families must be at zero on the committed tree (no baseline allowed):\n{}",
        render(&flow)
    );
}

// --- mutation self-tests: a rule that cannot fail its mutant does not
// merge. Each seeds one concrete bug into the *real* source text and
// asserts the family catches it, then that the unmutated text is clean.

fn read_source(rel: &str) -> String {
    std::fs::read_to_string(workspace_root().join(rel)).expect("source file")
}

fn rules_hit(found: &[Finding], rule: &str) -> usize {
    found.iter().filter(|f| f.rule == rule).count()
}

/// Lints a whole crate's sources with one file's text replaced — atomic
/// groups and call graphs span files, so mutants must be judged in the
/// same universe CI uses.
fn lint_crate_with(crate_name: &str, mutated_rel: &str, mutated_text: &str) -> Vec<Finding> {
    let src_dir = workspace_root().join("crates").join(crate_name).join("src");
    let mut names: Vec<String> = std::fs::read_dir(&src_dir)
        .expect("crate src dir")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .filter(|n| n.ends_with(".rs") && n != "main.rs")
        .collect();
    names.sort();
    let files: Vec<(String, String)> = names
        .iter()
        .map(|n| {
            let rel = format!("crates/{crate_name}/src/{n}");
            let text = if rel == mutated_rel {
                mutated_text.to_string()
            } else {
                read_source(&rel)
            };
            (rel, text)
        })
        .collect();
    let refs: Vec<(&str, &str, &str)> = files
        .iter()
        .map(|(rel, text)| (crate_name, rel.as_str(), text.as_str()))
        .collect();
    rls_lint::lint_sources(&refs)
}

#[test]
fn mutation_lock_inversion_in_shared_is_caught() {
    let rel = "crates/dispatch/src/shared.rs";
    let clean = read_source(rel);
    let mutated = format!(
        "{clean}\n\
         fn seeded_fwd(hub: &Hub, ledger: &Ledger) {{\n\
             let s = hub.sched.lock().unwrap_or_else(PoisonError::into_inner);\n\
             let f = ledger.failures.lock().unwrap_or_else(PoisonError::into_inner);\n\
             let _ = (s, f);\n\
         }}\n\
         fn seeded_rev(hub: &Hub, ledger: &Ledger) {{\n\
             let f = ledger.failures.lock().unwrap_or_else(PoisonError::into_inner);\n\
             let s = hub.sched.lock().unwrap_or_else(PoisonError::into_inner);\n\
             let _ = (s, f);\n\
         }}\n"
    );
    let found = lint_crate_with("dispatch", rel, &mutated);
    let cycle = found.iter().find(|f| f.rule == "lock-order");
    assert!(
        cycle.is_some(),
        "seeded inversion must report a cycle:\n{}",
        render(&found.iter().collect::<Vec<_>>())
    );
    assert!(
        cycle.is_some_and(|f| !f.witness.is_empty()),
        "the cycle finding must carry a witness path"
    );
    let unmutated = lint_crate_with("dispatch", rel, &clean);
    assert_eq!(rules_hit(&unmutated, "lock-order"), 0);
}

#[test]
fn mutation_join_under_guard_is_caught() {
    let rel = "crates/dispatch/src/shared.rs";
    let clean = read_source(rel);
    let mutated = format!(
        "{clean}\n\
         fn seeded_join(hub: &Hub, h: std::thread::JoinHandle<()>) {{\n\
             let s = hub.sched.lock().unwrap_or_else(PoisonError::into_inner);\n\
             let _ = h.join();\n\
             drop(s);\n\
         }}\n"
    );
    let found = lint_crate_with("dispatch", rel, &mutated);
    assert!(
        rules_hit(&found, "blocking-under-lock") > 0,
        "join under a held guard must be flagged:\n{}",
        render(&found.iter().collect::<Vec<_>>())
    );
    let unmutated = lint_crate_with("dispatch", rel, &clean);
    assert_eq!(rules_hit(&unmutated, "blocking-under-lock"), 0);
}

#[test]
fn mutation_dropped_sync_all_in_jsonl_publish_is_caught() {
    // Every durable JSONL file (campaign records, the serve journal, obs
    // streams, recorder dumps) is published by the one helper in
    // `rls_obs::jsonl`: dropping its fsync must be caught.
    let rel = "crates/obs/src/jsonl.rs";
    let clean = read_source(rel);
    let sync_line = "        f.sync_all()?;\n";
    assert!(
        clean.contains(sync_line),
        "the JSONL publish helper must fsync its temp file (mutation anchor moved?)"
    );
    let mutated = clean.replacen(sync_line, "", 1);
    let found = lint_crate_with("obs", rel, &mutated);
    assert!(
        rules_hit(&found, "persist-protocol") > 0,
        "rename without fsync must be flagged:\n{}",
        render(&found.iter().collect::<Vec<_>>())
    );
    let unmutated = lint_crate_with("obs", rel, &clean);
    assert_eq!(rules_hit(&unmutated, "persist-protocol"), 0);
}

#[test]
fn mutation_relaxed_downgraded_store_is_caught() {
    let rel = "crates/serve/src/server.rs";
    let clean = read_source(rel);
    let release_store = "shared.drain.store(true, Ordering::Release);";
    assert!(
        clean.contains(release_store),
        "the drain flag's Release store moved (mutation anchor)"
    );
    let mutated = clean.replacen(
        release_store,
        "shared.drain.store(true, Ordering::Relaxed);",
        1,
    );
    let found = lint_crate_with("serve", rel, &mutated);
    assert!(
        rules_hit(&found, "atomic-pairing") > 0,
        "Acquire loads with no Release store must be flagged:\n{}",
        render(&found.iter().collect::<Vec<_>>())
    );
    let unmutated = lint_crate_with("serve", rel, &clean);
    assert_eq!(rules_hit(&unmutated, "atomic-pairing"), 0);
}

#[test]
fn rule_scopes_cover_the_result_affecting_crates() {
    for name in ["core", "fsim", "lfsr", "scan", "netlist", "dispatch"] {
        assert!(
            rls_lint::rules_for_crate(name).det,
            "determinism rules must cover `{name}`"
        );
    }
    assert!(rls_lint::rules_for_crate("dispatch").persist);
    // And the linter holds itself to the panic/atomics rules.
    let own = rls_lint::rules_for_crate("lint");
    assert!(own.panic && own.atomics);
    let _ = Path::new("crates/lint");
}
