//! The rule engine: token-sequence rules over one file, with per-file
//! rule classes and `lint:` marker suppression.
//!
//! Each rule guards an invariant established by an earlier PR (see
//! DESIGN.md §8 for the rationale table):
//!
//! | rule | class | guards |
//! |------|-------|--------|
//! | `det-hash-iter` | determinism | bit-identical replay: no unordered iteration in result paths |
//! | `det-wall-clock` | determinism | outcomes never depend on `Instant`/`SystemTime` |
//! | `det-thread-id` | determinism | outcomes never depend on which worker ran a job |
//! | `det-env-read` | determinism | configuration flows through `ExecProfile`, not scattered reads |
//! | `panic-unwrap` / `panic-expect` / `panic-macro` / `panic-slice-index` | panic-safety | failures route through `DispatchError`/`ConfigError`, not unwinds |
//! | `atomic-pairing` | atomics | store/load ordering sites of each atomic field pair up (flow analysis, [`crate::flow`]) |
//! | `lock-order` / `blocking-under-lock` | concurrency | no lock-order cycles; no blocking calls under a held guard (flow analysis) |
//! | `persist-raw-create` / `persist-protocol` | persistence | campaign files are created via temp-file + `sync_all` + atomic rename |
//! | `obs-metric-name` | observability | `span!`/`counter!`/`gauge!`/`histogram!`/`mark!` names are registered literals from `rls_obs::names` |
//! | `lint-annotation` / `stale-blessing` | hygiene | markers are well-formed and still suppress something |

use crate::lexer::{lex, TokKind, Token};
use crate::scope::{AnnKey, FileScope};

/// Which rule classes apply to a file (derived from its crate, see
/// [`crate::rules_for_crate`]).
#[derive(Debug, Clone, Copy)]
pub struct RuleSet {
    /// Determinism rules (`det-*`).
    pub det: bool,
    /// Panic-safety rules (`panic-*`).
    pub panic: bool,
    /// Atomic-pairing audit (`atomic-pairing`, whole-field flow analysis).
    pub atomics: bool,
    /// Persistence hygiene (`persist-*`, incl. the flow-level
    /// `persist-protocol`).
    pub persist: bool,
    /// Observability metric-name audit (`obs-metric-name`).
    pub obs: bool,
    /// Concurrency flow rules (`lock-order`, `blocking-under-lock`) — the
    /// lock-dense crates only.
    pub conc: bool,
}

impl RuleSet {
    /// Every rule class enabled.
    pub fn all() -> RuleSet {
        RuleSet {
            det: true,
            panic: true,
            atomics: true,
            persist: true,
            obs: true,
            conc: true,
        }
    }
}

/// One reported invariant violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier (e.g. `det-hash-iter`).
    pub rule: String,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// The trimmed source line (the baseline matches on this, so findings
    /// survive line drift).
    pub snippet: String,
    /// Human explanation.
    pub message: String,
    /// Flow-analysis witness path (empty for token-level findings): one
    /// line per hop, e.g. each edge of a lock-order cycle.
    pub witness: Vec<String>,
}

/// The suppression class a rule belongs to (`None` for hygiene findings
/// and lock-order cycles, which cannot be blessed away).
fn class_of(rule: &str) -> Option<AnnKey> {
    if rule.starts_with("det-") {
        Some(AnnKey::DetOk)
    } else if rule.starts_with("panic-") {
        Some(AnnKey::PanicOk)
    } else if rule == "atomic-pairing" {
        Some(AnnKey::OrderingOk)
    } else if rule == "blocking-under-lock" {
        Some(AnnKey::BlockOk)
    } else if rule.starts_with("persist-") {
        Some(AnnKey::PersistOk)
    } else {
        None
    }
}

/// The rule family a rule id belongs to — `--json` groups findings by
/// this, and CI gates whole families.
pub fn family(rule: &str) -> &'static str {
    if rule.starts_with("det-") {
        "determinism"
    } else if rule.starts_with("panic-") {
        "panic-safety"
    } else if rule == "atomic-pairing" {
        "atomics"
    } else if rule == "lock-order" || rule == "blocking-under-lock" {
        "concurrency"
    } else if rule.starts_with("persist-") {
        "persistence"
    } else if rule.starts_with("obs-") {
        "observability"
    } else {
        "hygiene"
    }
}

/// Rules whose findings may never be carried in the baseline: deadlock
/// cycles and persistence-protocol violations must be fixed (or blessed in
/// code with a reason), and hygiene findings are auto-fixable.
pub fn baselineable(rule: &str) -> bool {
    !matches!(
        rule,
        "lock-order" | "persist-protocol" | "stale-blessing" | "lint-annotation"
    )
}

/// Flow-analysis results for one file, merged into the token-level pass
/// so suppression, sorting, and baseline matching treat both uniformly.
#[derive(Debug, Default)]
pub struct FileExtras {
    /// Flow findings labelled for this file.
    pub findings: Vec<Finding>,
    /// Annotation target lines consumed by flow analysis (atomic sites
    /// whose markers justify a whole group) — keeps them off the
    /// stale-blessing report.
    pub consumed_lines: Vec<u32>,
}

/// Iteration methods that expose hash-bucket order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "into_keys",
    "values",
    "values_mut",
    "into_values",
    "drain",
];

/// Keywords that may legally precede a `[` without it being an index
/// expression (slice patterns, array expressions in statement position).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "let", "mut", "ref", "in", "return", "else", "match", "if", "while", "loop", "move", "box",
    "as", "dyn", "impl", "for", "where", "const", "static", "break", "continue", "await", "unsafe",
    "pub", "fn", "use", "struct", "enum", "type", "yield",
];

/// Lints one file's source text under the given rule classes (token-level
/// rules only; flow findings come via [`lint_source_with`]).
///
/// `file` is the label used in findings (workspace-relative path).
pub fn lint_source(file: &str, rules: RuleSet, source: &str) -> Vec<Finding> {
    lint_source_with(file, rules, source, &FileExtras::default())
}

/// Lints one file, merging flow-analysis `extras` into the pipeline before
/// suppression so `lint:` markers bless flow findings exactly like
/// token-level ones.
pub fn lint_source_with(
    file: &str,
    rules: RuleSet,
    source: &str,
    extras: &FileExtras,
) -> Vec<Finding> {
    let tokens = lex(source);
    let scope = FileScope::build(&tokens);
    let lines: Vec<&str> = source.lines().collect();
    let snippet = |line: u32| -> String {
        lines
            .get(line.saturating_sub(1) as usize)
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    };

    // Non-comment tokens with their index in the full stream (for test
    // scope lookups).
    let code: Vec<(usize, &Token)> = tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| !t.is_comment())
        .collect();
    let ident_at = |k: usize| -> Option<&str> {
        code.get(k).and_then(|(_, t)| {
            if t.kind == TokKind::Ident {
                Some(t.text.as_str())
            } else {
                None
            }
        })
    };
    let punct_at = |k: usize, c: char| -> bool { code.get(k).is_some_and(|(_, t)| t.is_punct(c)) };
    let line_at = |k: usize| -> u32 { code.get(k).map(|(_, t)| t.line).unwrap_or(0) };
    let in_test = |k: usize| -> bool { code.get(k).is_some_and(|(i, _)| scope.is_test(*i)) };

    let hash_names = hash_bound_names(&code, &scope);
    // A `let`-bound local only matches when NOT accessed as a field
    // (`self.live` is some struct's field, not the local that happens to
    // share its name); a field binding matches in either position.
    let is_hash_name = |k: usize| -> bool {
        ident_at(k).is_some_and(|name| {
            hash_names.iter().any(|(h, kind)| {
                h == name
                    && (*kind == BindKind::Field
                        || !(k > 0 && code.get(k - 1).is_some_and(|(_, t)| t.is_punct('.'))))
            })
        })
    };

    let mut raw: Vec<Finding> = Vec::new();
    let mut emit = |rule: &str, line: u32, message: String| {
        raw.push(Finding {
            rule: rule.to_string(),
            file: file.to_string(),
            line,
            snippet: snippet(line),
            message,
            witness: Vec::new(),
        });
    };

    for k in 0..code.len() {
        if in_test(k) {
            continue;
        }
        let line = line_at(k);

        // --- determinism: wall clock, thread identity, env reads ---
        if rules.det {
            if let Some(clock @ ("Instant" | "SystemTime")) = ident_at(k) {
                if punct_at(k + 1, ':') && punct_at(k + 2, ':') && ident_at(k + 3) == Some("now") {
                    emit(
                        "det-wall-clock",
                        line,
                        format!("`{clock}::now()` in a result-affecting crate — outcomes must not depend on wall time"),
                    );
                }
            }
            if ident_at(k) == Some("thread")
                && punct_at(k + 1, ':')
                && punct_at(k + 2, ':')
                && ident_at(k + 3) == Some("current")
            {
                emit(
                    "det-thread-id",
                    line,
                    "`thread::current()` in a result-affecting crate — outcomes must not depend on worker identity".to_string(),
                );
            }
            if ident_at(k) == Some("env") && punct_at(k + 1, ':') && punct_at(k + 2, ':') {
                if let Some(read @ ("var" | "var_os" | "vars" | "vars_os")) = ident_at(k + 3) {
                    emit(
                        "det-env-read",
                        line,
                        format!("`env::{read}` in a result-affecting crate — configuration flows through `ExecProfile`"),
                    );
                }
            }
            // Hash iteration: `h.iter()`-family on a hash-bound name …
            if is_hash_name(k) && punct_at(k + 1, '.') {
                if let Some(m) = ident_at(k + 2) {
                    if ITER_METHODS.contains(&m) {
                        emit(
                            "det-hash-iter",
                            line,
                            format!(
                                "`.{m}()` on a HashMap/HashSet iterates in hash order — sort the \
                                 result or use an ordered structure"
                            ),
                        );
                    }
                }
            }
            // … or `for x in [&[mut]] h` with the loop body following.
            if is_hash_name(k) {
                let mut p = k;
                while p > 0 && (punct_at(p - 1, '&') || ident_at(p - 1) == Some("mut")) {
                    p -= 1;
                }
                if p > 0 && ident_at(p - 1) == Some("in") && punct_at(k + 1, '{') {
                    emit(
                        "det-hash-iter",
                        line,
                        "`for … in` over a HashMap/HashSet iterates in hash order — sort the \
                         result or use an ordered structure"
                            .to_string(),
                    );
                }
            }
        }

        // --- panic-safety ---
        if rules.panic {
            if ident_at(k) == Some("unwrap")
                && k > 0
                && punct_at(k - 1, '.')
                && punct_at(k + 1, '(')
                && punct_at(k + 2, ')')
            {
                emit(
                    "panic-unwrap",
                    line,
                    "`.unwrap()` outside test code — route the failure through `DispatchError`/`ConfigError`".to_string(),
                );
            }
            if ident_at(k) == Some("expect")
                && k > 0
                && punct_at(k - 1, '.')
                && punct_at(k + 1, '(')
            {
                emit(
                    "panic-expect",
                    line,
                    "`.expect(…)` outside test code — route the failure through `DispatchError`/`ConfigError`".to_string(),
                );
            }
            if let Some(mac @ ("panic" | "unreachable" | "todo" | "unimplemented")) = ident_at(k) {
                if punct_at(k + 1, '!') {
                    emit(
                        "panic-macro",
                        line,
                        format!("`{mac}!` outside test code — supervised workers expect classified errors, not unwinds"),
                    );
                }
            }
            if punct_at(k, '[') && k > 0 {
                let prev_indexable = match code.get(k - 1) {
                    Some((_, t)) => match &t.kind {
                        TokKind::Ident => !NON_INDEX_KEYWORDS.contains(&t.text.as_str()),
                        TokKind::Punct(')') | TokKind::Punct(']') => true,
                        _ => false,
                    },
                    None => false,
                };
                if prev_indexable {
                    emit(
                        "panic-slice-index",
                        line,
                        "slice/array index can panic — use `.get(…)` or establish the bound and bless it".to_string(),
                    );
                }
            }
        }

        // --- persistence hygiene ---
        if rules.persist
            && ident_at(k) == Some("File")
            && punct_at(k + 1, ':')
            && punct_at(k + 2, ':')
            && ident_at(k + 3) == Some("create")
        {
            emit(
                "persist-raw-create",
                line,
                "raw `File::create` — campaign artifacts go through the temp-file + atomic-rename helper".to_string(),
            );
        }

        // --- observability: metric names are registered literals ---
        if rules.obs {
            if let Some(mac @ ("span" | "counter" | "gauge" | "histogram" | "mark")) = ident_at(k) {
                if punct_at(k + 1, '!') && punct_at(k + 2, '(') {
                    match code.get(k + 3) {
                        Some((_, t)) if t.kind == TokKind::StrLit => {
                            let name = str_lit_value(&t.text);
                            if !rls_obs::names::is_well_formed(name) {
                                emit(
                                    "obs-metric-name",
                                    line,
                                    format!(
                                        "`{mac}!(\"{name}\", …)` — metric names are lowercase \
                                         dot-separated (`phase.metric`)"
                                    ),
                                );
                            } else if !rls_obs::names::is_registered(name) {
                                emit(
                                    "obs-metric-name",
                                    line,
                                    format!(
                                        "`{mac}!(\"{name}\", …)` — `{name}` is not in the \
                                         `rls_obs::names` registry; register it there so reports \
                                         and dashboards can rely on the catalogue"
                                    ),
                                );
                            }
                        }
                        Some(_) => emit(
                            "obs-metric-name",
                            line,
                            format!(
                                "`{mac}!` with a computed name — metric names must be string \
                                 literals from the `rls_obs::names` registry"
                            ),
                        ),
                        None => {}
                    }
                }
            }
        }
    }

    // Merge flow findings before suppression so blessings apply to them.
    raw.extend(extras.findings.iter().cloned());

    // Suppression: a marker of the matching class on the finding's line
    // blesses it (and is thereby consumed).
    let mut used = vec![false; scope.annotations.len()];
    // Flow analysis may consume markers without an emitted finding (e.g.
    // ordering-ok on a site of a justified all-Relaxed group).
    for (i, a) in scope.annotations.iter().enumerate() {
        if extras.consumed_lines.contains(&a.target_line) {
            if let Some(slot) = used.get_mut(i) {
                *slot = true;
            }
        }
    }
    let mut findings: Vec<Finding> = Vec::new();
    for f in raw {
        let class = class_of(&f.rule);
        let suppressed = class.is_some_and(|c| {
            scope
                .annotations
                .iter()
                .enumerate()
                .find(|(_, a)| a.key == c && a.target_line == f.line)
                .map(|(i, _)| {
                    if let Some(slot) = used.get_mut(i) {
                        *slot = true;
                    }
                })
                .is_some()
        });
        if !suppressed {
            findings.push(f);
        }
    }

    // Hygiene: malformed markers, and markers that bless nothing. The
    // latter get their own rule — `stale-blessing` — so `--fix-stale` can
    // remove them mechanically.
    for bad in &scope.bad_annotations {
        findings.push(Finding {
            rule: "lint-annotation".to_string(),
            file: file.to_string(),
            line: bad.line,
            snippet: snippet(bad.line),
            message: bad.message.clone(),
            witness: Vec::new(),
        });
    }
    for (i, a) in scope.annotations.iter().enumerate() {
        if !used.get(i).copied().unwrap_or(false) {
            findings.push(Finding {
                rule: "stale-blessing".to_string(),
                file: file.to_string(),
                line: a.line,
                snippet: snippet(a.line),
                message: format!(
                    "stale `{}` marker: it suppresses nothing on line {} — remove it (`--fix-stale`)",
                    a.key.name(),
                    a.target_line
                ),
                witness: Vec::new(),
            });
        }
    }

    findings.sort_by(|a, b| (a.line, &a.rule).cmp(&(b.line, &b.rule)));
    findings.dedup_by(|a, b| a.line == b.line && a.rule == b.rule);
    findings
}

/// The payload of a string-literal token: the text between the first and
/// last `"`, which also strips `r#`/`b` prefixes and raw-string hashes.
fn str_lit_value(text: &str) -> &str {
    let start = text.find('"').map(|i| i + 1).unwrap_or(0);
    let end = text.rfind('"').unwrap_or(text.len());
    text.get(start..end).unwrap_or("")
}

/// How a hash-bound name was introduced — determines whether a `.name`
/// field access can refer to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BindKind {
    /// `let [mut] name … HashMap…` — a local; `.name` is something else.
    Local,
    /// `name: HashMap<…>` — a struct field or typed parameter.
    Field,
}

/// Collects identifiers bound to `HashMap`/`HashSet` values in live code:
/// `let [mut] name … HashMap…` bindings and `name: HashMap<…>` struct
/// fields, resolved per line. A file-scoped heuristic — a later `name` in
/// an unrelated function also counts, which errs toward reporting.
fn hash_bound_names(code: &[(usize, &Token)], scope: &FileScope) -> Vec<(String, BindKind)> {
    let mut names: Vec<(String, BindKind)> = Vec::new();
    let mut k = 0usize;
    while k < code.len() {
        let hash_here = code.get(k).is_some_and(|(i, t)| {
            (t.is_ident("HashMap") || t.is_ident("HashSet")) && !scope.is_test(*i)
        });
        if !hash_here {
            k += 1;
            continue;
        }
        let line = code.get(k).map(|(_, t)| t.line).unwrap_or(0);
        // Tokens of the same line, up to the HashMap/HashSet occurrence.
        let line_start = code.iter().position(|(_, t)| t.line == line).unwrap_or(k);
        let before: Vec<&Token> = code
            .get(line_start..k)
            .unwrap_or(&[])
            .iter()
            .map(|(_, t)| *t)
            .collect();
        let mut bound: Option<(String, BindKind)> = None;
        // `let [mut] name` anywhere before the type wins.
        for (j, t) in before.iter().enumerate() {
            if t.is_ident("let") {
                let mut n = j + 1;
                if before.get(n).is_some_and(|t| t.is_ident("mut")) {
                    n += 1;
                }
                if let Some(name_tok) = before.get(n) {
                    if name_tok.kind == TokKind::Ident {
                        bound = Some((name_tok.text.clone(), BindKind::Local));
                    }
                }
            }
        }
        // Otherwise the last `name :` pair (struct field / typed param),
        // skipping `path::segments`.
        if bound.is_none() {
            for (j, t) in before.iter().enumerate() {
                if t.kind == TokKind::Ident
                    && before.get(j + 1).is_some_and(|p| p.is_punct(':'))
                    && !before.get(j + 2).is_some_and(|p| p.is_punct(':'))
                    && !before
                        .get(j.wrapping_sub(1))
                        .is_some_and(|p| p.is_punct(':'))
                {
                    bound = Some((t.text.clone(), BindKind::Field));
                }
            }
        }
        if let Some((name, kind)) = bound {
            match names.iter_mut().find(|(n, _)| *n == name) {
                // `Field` is the more permissive kind; keep it.
                Some(entry) => {
                    if kind == BindKind::Field {
                        entry.1 = BindKind::Field;
                    }
                }
                None => names.push((name, kind)),
            }
        }
        k += 1;
    }
    names
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(src: &str, rules: RuleSet) -> Vec<String> {
        lint_source("fixture.rs", rules, src)
            .into_iter()
            .map(|f| f.rule)
            .collect()
    }

    fn all(src: &str) -> Vec<String> {
        rules_of(src, RuleSet::all())
    }

    // --- acceptance fixtures: the synthetic hazards the issue names ---

    #[test]
    fn synthetic_hashmap_iteration_in_core_is_flagged() {
        // Mirrors introducing an unordered reduction into `crates/core`.
        let src = r#"
            use std::collections::HashMap;
            fn reduce() {
                let mut newly: HashMap<u64, u64> = HashMap::new();
                newly.insert(1, 2);
                for (id, n) in &newly {
                    record(*id, *n);
                }
            }
        "#;
        assert!(
            all(src).contains(&"det-hash-iter".to_string()),
            "{:?}",
            all(src)
        );
    }

    #[test]
    fn flow_findings_merge_and_markers_bless_them() {
        // A flow-level finding (here: atomic-pairing, produced by
        // `crate::flow` in real runs) is suppressed by a marker of its
        // class on its line — same pipeline as token-level findings.
        let src = r#"
            fn publish(flag: &AtomicU64) {
                flag.store(1, Ordering::Release); // lint: ordering-ok(paired by the flow pass)
            }
        "#;
        let extras = FileExtras {
            findings: vec![Finding {
                rule: "atomic-pairing".to_string(),
                file: "fixture.rs".to_string(),
                line: 3,
                snippet: String::new(),
                message: "Release store with no Acquire load".to_string(),
                witness: Vec::new(),
            }],
            consumed_lines: Vec::new(),
        };
        let found = lint_source_with("fixture.rs", RuleSet::all(), src, &extras);
        assert!(found.is_empty(), "{found:?}");
        // Without the blessing, the merged flow finding surfaces.
        let bare = src.replace("// lint: ordering-ok(paired by the flow pass)", "");
        let found = lint_source_with("fixture.rs", RuleSet::all(), &bare, &extras);
        let rules: Vec<&str> = found.iter().map(|f| f.rule.as_str()).collect();
        assert_eq!(rules, ["atomic-pairing"]);
    }

    #[test]
    fn consumed_lines_keep_markers_off_the_stale_report() {
        // Flow analysis may consume a marker without emitting a finding
        // (ordering-ok justifying an all-Relaxed group); the marker must
        // not then be reported stale.
        let src = r#"
            fn bump(c: &AtomicU64) {
                c.fetch_add(1, Ordering::Relaxed); // lint: ordering-ok(observational counter)
            }
        "#;
        let stale = lint_source("fixture.rs", RuleSet::all(), src);
        assert_eq!(
            stale.first().map(|f| f.rule.as_str()),
            Some("stale-blessing")
        );
        let extras = FileExtras {
            findings: Vec::new(),
            consumed_lines: vec![3],
        };
        let kept = lint_source_with("fixture.rs", RuleSet::all(), src, &extras);
        assert!(kept.is_empty(), "{kept:?}");
    }

    // --- determinism rules ---

    #[test]
    fn hash_method_iteration_is_flagged() {
        for call in ["keys", "values", "iter", "drain", "into_iter"] {
            let src = format!(
                "fn f() {{ let m: HashMap<u32, u32> = HashMap::new(); let _ = m.{call}(); }}"
            );
            assert_eq!(all(&src), ["det-hash-iter"], "method {call}");
        }
    }

    #[test]
    fn hash_field_iteration_is_flagged() {
        let src = r#"
            struct Batch { pin: HashMap<(u32, u32), u8> }
            fn f(b: &Batch) {
                for (k, v) in b.pin.iter() { use_it(k, v); }
            }
        "#;
        assert_eq!(all(src), ["det-hash-iter"]);
    }

    #[test]
    fn hash_lookup_is_not_iteration() {
        let src = r#"
            fn f() {
                let m: HashMap<u32, u32> = HashMap::new();
                let _ = m.get(&1);
                let _ = m.contains_key(&2);
                m2.insert(1, 2);
            }
        "#;
        assert!(all(src).is_empty(), "{:?}", all(src));
    }

    #[test]
    fn vec_field_sharing_a_local_hash_name_is_not_flagged() {
        let src = r#"
            fn f(&mut self) {
                let ids: Vec<u32> = self.live.iter().copied().collect();
                let live: HashSet<u32> = HashSet::new();
                let _ = live.contains(&1);
                let _ = ids;
            }
        "#;
        assert!(all(src).is_empty(), "{:?}", all(src));
        let genuine = r#"
            fn f() {
                let live: HashSet<u32> = HashSet::new();
                for x in &live { use_it(x); }
            }
        "#;
        assert_eq!(all(genuine), ["det-hash-iter"]);
    }

    #[test]
    fn vec_iteration_is_not_flagged() {
        let src = "fn f(v: &Vec<u32>) { for x in v.iter() { use_it(x); } }";
        assert!(all(src).is_empty());
    }

    #[test]
    fn wall_clock_thread_id_env_are_flagged() {
        let src = r#"
            fn f() {
                let t = Instant::now();
                let s = SystemTime::now();
                let id = thread::current();
                let v = env::var("X");
            }
        "#;
        assert_eq!(
            all(src),
            [
                "det-wall-clock",
                "det-wall-clock",
                "det-thread-id",
                "det-env-read"
            ]
        );
    }

    #[test]
    fn det_rules_respect_scope() {
        let src = "fn f() { let t = Instant::now(); }";
        let no_det = RuleSet {
            det: false,
            ..RuleSet::all()
        };
        assert!(rules_of(src, no_det).is_empty());
    }

    // --- panic-safety rules ---

    #[test]
    fn unwrap_expect_macros_and_indexing_are_flagged() {
        let src = r#"
            fn f(v: &[u8], o: Option<u8>) -> u8 {
                let a = o.unwrap();
                let b = o.expect("present");
                if v.is_empty() { panic!("empty"); }
                match a { 0 => unreachable!(), _ => {} }
                v[0] + data[i]
            }
        "#;
        assert_eq!(
            all(src),
            [
                "panic-unwrap",
                "panic-expect",
                "panic-macro",
                "panic-macro",
                "panic-slice-index",
            ]
        );
    }

    #[test]
    fn unwrap_or_else_is_not_unwrap() {
        let src = r#"
            fn f(m: &Mutex<u8>) -> u8 {
                *m.lock().unwrap_or_else(PoisonError::into_inner)
            }
        "#;
        assert!(all(src).is_empty(), "{:?}", all(src));
    }

    #[test]
    fn test_code_is_exempt() {
        let src = r#"
            fn live(v: &[u8]) -> u8 { v.first().copied().unwrap_or(0) }
            #[cfg(test)]
            mod tests {
                #[test]
                fn check() {
                    let v = vec![1u8];
                    assert_eq!(v[0], super::live(&v).unwrap());
                    panic!("fine here");
                }
            }
        "#;
        assert!(all(src).is_empty(), "{:?}", all(src));
    }

    #[test]
    fn slice_patterns_and_array_types_are_not_indexing() {
        let src = r#"
            fn f(pair: [u8; 2], s: &[u8]) -> [u8; 2] {
                let [a, b] = pair;
                let _: &[u8] = s;
                let arr = [a, b];
                arr
            }
        "#;
        assert!(all(src).is_empty(), "{:?}", all(src));
    }

    #[test]
    fn macro_brackets_are_not_indexing_but_chained_index_is() {
        assert!(all("fn f() { let v = vec![1, 2]; }").is_empty());
        assert_eq!(
            all("fn f() { let x = vec![1, 2][0]; }"),
            ["panic-slice-index"]
        );
    }

    #[test]
    fn panic_blessing_covers_all_panic_findings_on_the_line() {
        let src = r#"
            fn f(traces: &[Trace], t: usize) -> u8 {
                traces[t].get().expect("barrier passed") // lint: panic-ok(supervised job; unwind is classified and retried)
            }
        "#;
        assert!(all(src).is_empty(), "{:?}", all(src));
    }

    // --- marker targeting ---

    #[test]
    fn standalone_marker_line_blesses_next_line() {
        let src = r#"
            fn f(v: &[u8], i: usize) -> u8 {
                // lint: panic-ok(i is bounds-checked by the caller's barrier)
                v[i]
            }
        "#;
        assert!(all(src).is_empty(), "{:?}", all(src));
    }

    // --- persistence ---

    #[test]
    fn raw_file_create_is_flagged_only_in_persist_scope() {
        let src = r#"fn f(p: &Path) { let _ = File::create(p); }"#;
        assert_eq!(all(src), ["persist-raw-create"]);
        let no_persist = RuleSet {
            persist: false,
            ..RuleSet::all()
        };
        assert!(rules_of(src, no_persist).is_empty());
    }

    #[test]
    fn create_new_reservation_is_not_raw_create() {
        let src = r#"
            fn f(p: &Path) -> std::io::Result<File> {
                OpenOptions::new().write(true).create_new(true).open(p)
            }
        "#;
        assert!(all(src).is_empty(), "{:?}", all(src));
    }

    // --- observability ---

    #[test]
    fn registered_metric_names_pass_and_unregistered_ones_are_flagged() {
        let ok = r#"
            fn f() {
                rls_obs::counter!("fsim.batches", 1);
                let _span = rls_obs::span!("dispatch.set", tests = 3u64);
            }
        "#;
        assert!(all(ok).is_empty(), "{:?}", all(ok));
        let unregistered = r#"fn f() { rls_obs::gauge!("dispatch.oops", 1); }"#;
        assert_eq!(all(unregistered), ["obs-metric-name"]);
    }

    #[test]
    fn flight_recorder_event_names_are_audited_like_metrics() {
        let ok = r#"fn f(n: usize) { rls_obs::mark!("fsim.batch", n as u64); }"#;
        assert!(all(ok).is_empty(), "{:?}", all(ok));
        let unregistered = r#"fn f() { rls_obs::mark!("fsim.oops", 1); }"#;
        assert_eq!(all(unregistered), ["obs-metric-name"]);
        let computed = r#"fn f(name: &str) { rls_obs::mark!(name, 1); }"#;
        assert_eq!(all(computed), ["obs-metric-name"]);
    }

    #[test]
    fn malformed_and_computed_metric_names_are_flagged() {
        let malformed = r#"fn f() { rls_obs::histogram!("Fsim Nanos", 1); }"#;
        assert_eq!(all(malformed), ["obs-metric-name"]);
        let computed = r#"fn f(name: &str) { rls_obs::counter!(name, 1); }"#;
        assert_eq!(all(computed), ["obs-metric-name"]);
    }

    #[test]
    fn obs_rule_respects_scope_and_cannot_be_blessed() {
        let src = r#"fn f() { rls_obs::counter!("nope.metric", 1); }"#;
        let no_obs = RuleSet {
            obs: false,
            ..RuleSet::all()
        };
        assert!(rules_of(src, no_obs).is_empty());
        // Unlike det/panic findings, a marker does not bless the name away
        // (and itself becomes a stale-marker hygiene finding).
        let blessed =
            r#"fn f() { rls_obs::counter!("nope.metric", 1); } // lint: det-ok(not a det rule)"#;
        assert!(
            all(blessed).contains(&"obs-metric-name".to_string()),
            "{:?}",
            all(blessed)
        );
    }

    #[test]
    fn macro_definitions_are_not_invocations() {
        // `macro_rules! counter { … }` must not trip the name audit.
        let src = r#"
            macro_rules! counter {
                ($name:expr, $v:expr) => {{ $crate::emit($name, $v) }};
            }
        "#;
        assert!(all(src).is_empty(), "{:?}", all(src));
    }

    // --- marker hygiene ---

    #[test]
    fn stale_marker_is_reported() {
        let src = r#"
            fn f() {
                // lint: ordering-ok(nothing here needs it)
                let x = 1;
            }
        "#;
        let found = lint_source("fixture.rs", RuleSet::all(), src);
        assert_eq!(found.len(), 1);
        let f = found.first().map(|f| (f.rule.as_str(), f.line));
        assert_eq!(f, Some(("stale-blessing", 3)));
    }

    #[test]
    fn misspelled_marker_is_reported() {
        let src = "fn f(o: Option<u8>) -> u8 { o.unwrap() } // lint: panik-ok(typo)";
        let rules: Vec<String> = all(src);
        assert!(rules.contains(&"panic-unwrap".to_string()), "{rules:?}");
        assert!(rules.contains(&"lint-annotation".to_string()), "{rules:?}");
    }

    #[test]
    fn findings_carry_snippets_for_baseline_matching() {
        let src = "fn f(o: Option<u8>) -> u8 {\n    o.unwrap()\n}\n";
        let found = lint_source("x.rs", RuleSet::all(), src);
        assert_eq!(
            found.first().map(|f| f.snippet.as_str()),
            Some("o.unwrap()")
        );
    }
}
