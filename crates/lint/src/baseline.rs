//! The baseline gate: known findings are committed to
//! `lint-baseline.json` and only *new* findings fail CI.
//!
//! Matching is by multiset of `(file, rule, snippet)` — the snippet is
//! the trimmed source line, so findings survive unrelated edits that
//! shift line numbers. If a file gains a second identical offending line,
//! the count exceeds the baseline and the surplus is reported as new.
//! Fixed findings simply leave slack in the baseline; `--update-baseline`
//! re-tightens it.

use std::collections::HashMap;

use rls_obs::jsonl::{self, JsonObject, JsonValue};

use crate::rules::Finding;

/// One blessed entry from the baseline file. The recorded line number is
/// for humans only; matching ignores it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineEntry {
    /// Workspace-relative file path.
    pub file: String,
    /// Rule identifier.
    pub rule: String,
    /// Trimmed source line at the time the baseline was taken.
    pub snippet: String,
    /// 1-based line at the time the baseline was taken (humans only).
    pub line: u32,
    /// Why this debt is carried — a blessing reason or a tracked debt tag
    /// (e.g. `debt(fsim-kernel): hot-loop indexing, bounds held by
    /// construction`). Preserved verbatim by `--update-baseline`.
    pub note: Option<String>,
}

impl BaselineEntry {
    /// A fresh entry for a current finding (no note yet).
    pub fn from_finding(f: &Finding) -> BaselineEntry {
        BaselineEntry {
            file: f.file.clone(),
            rule: f.rule.clone(),
            snippet: f.snippet.clone(),
            line: f.line,
            note: None,
        }
    }
}

/// Renders entries as the baseline file: a JSON array, one entry per
/// line, trailing newline (diff-friendly under version control).
pub fn render(entries: &[BaselineEntry]) -> String {
    if entries.is_empty() {
        return "[]\n".to_string();
    }
    let lines: Vec<String> = entries
        .iter()
        .map(|e| {
            let mut obj = JsonObject::new()
                .str("file", &e.file)
                .str("rule", &e.rule)
                .num("line", u64::from(e.line))
                .str("snippet", &e.snippet);
            if let Some(note) = &e.note {
                obj = obj.str("note", note);
            }
            obj.render()
        })
        .collect();
    format!("[\n{}\n]\n", lines.join(",\n"))
}

/// Parses a baseline file produced by [`render`] (any JSON array of
/// objects with `file`/`rule`/`snippet` string fields is accepted; `line`
/// and `note` are optional).
pub fn parse(text: &str) -> Result<Vec<BaselineEntry>, String> {
    let value = jsonl::parse(text)?;
    let items = value
        .as_array()
        .ok_or_else(|| "baseline is not a JSON array".to_string())?;
    let mut entries = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let field = |key: &str| -> Result<String, String> {
            item.get(key)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("baseline entry {i}: missing string field `{key}`"))
        };
        entries.push(BaselineEntry {
            file: field("file")?,
            rule: field("rule")?,
            snippet: field("snippet")?,
            line: item
                .get("line")
                .and_then(JsonValue::as_u64)
                .and_then(|n| u32::try_from(n).ok())
                .unwrap_or(0),
            note: item
                .get("note")
                .and_then(JsonValue::as_str)
                .map(str::to_string),
        });
    }
    Ok(entries)
}

/// Rebuilds the baseline from current findings, carrying forward notes
/// from the old baseline (matched by `(file, rule, snippet)`, multiset
/// semantics) and refusing entries for non-baselineable rules.
pub fn rebuild(current: &[Finding], old: &[BaselineEntry]) -> Vec<BaselineEntry> {
    let mut notes: HashMap<(&str, &str, &str), Vec<&str>> = HashMap::new();
    for e in old {
        if let Some(note) = &e.note {
            notes
                .entry((e.file.as_str(), e.rule.as_str(), e.snippet.as_str()))
                .or_default()
                .push(note);
        }
    }
    current
        .iter()
        .filter(|f| crate::rules::baselineable(&f.rule))
        .map(|f| {
            let mut e = BaselineEntry::from_finding(f);
            let key = (f.file.as_str(), f.rule.as_str(), f.snippet.as_str());
            if let Some(stack) = notes.get_mut(&key) {
                if !stack.is_empty() {
                    e.note = Some(stack.remove(0).to_string());
                }
            }
            e
        })
        .collect()
}

/// The findings not covered by the baseline, in input order. Each
/// baseline entry covers at most one finding (multiset semantics).
pub fn new_findings<'a>(current: &'a [Finding], baseline: &[BaselineEntry]) -> Vec<&'a Finding> {
    let mut budget: HashMap<(&str, &str, &str), usize> = HashMap::new();
    for b in baseline {
        *budget
            .entry((b.file.as_str(), b.rule.as_str(), b.snippet.as_str()))
            .or_insert(0) += 1;
    }
    let mut fresh = Vec::new();
    for f in current {
        let key = (f.file.as_str(), f.rule.as_str(), f.snippet.as_str());
        match budget.get_mut(&key) {
            Some(n) if *n > 0 => *n -= 1,
            _ => fresh.push(f),
        }
    }
    fresh
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(file: &str, rule: &str, line: u32, snippet: &str) -> Finding {
        Finding {
            rule: rule.to_string(),
            file: file.to_string(),
            line,
            snippet: snippet.to_string(),
            message: "m".to_string(),
            witness: Vec::new(),
        }
    }

    fn entries(findings: &[Finding]) -> Vec<BaselineEntry> {
        findings.iter().map(BaselineEntry::from_finding).collect()
    }

    #[test]
    fn round_trips_through_render_and_parse() {
        let findings = vec![
            finding("crates/core/src/a.rs", "panic-unwrap", 10, "x.unwrap()"),
            finding(
                "crates/fsim/src/b.rs",
                "det-hash-iter",
                3,
                "for k in m.keys() {",
            ),
        ];
        let text = render(&entries(&findings));
        let parsed = parse(&text).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].file, "crates/core/src/a.rs");
        assert_eq!(parsed[1].snippet, "for k in m.keys() {");
        assert_eq!(render(&[]), "[]\n");
        assert!(parse("[]\n").unwrap().is_empty());
    }

    #[test]
    fn line_drift_does_not_create_new_findings() {
        let baseline = parse(&render(&entries(&[finding(
            "a.rs",
            "panic-unwrap",
            10,
            "x.unwrap()",
        )])))
        .unwrap();
        let drifted = [finding("a.rs", "panic-unwrap", 99, "x.unwrap()")];
        assert!(new_findings(&drifted, &baseline).is_empty());
    }

    #[test]
    fn surplus_duplicates_are_new() {
        let baseline = parse(&render(&entries(&[finding(
            "a.rs",
            "panic-unwrap",
            10,
            "x.unwrap()",
        )])))
        .unwrap();
        let current = [
            finding("a.rs", "panic-unwrap", 10, "x.unwrap()"),
            finding("a.rs", "panic-unwrap", 40, "x.unwrap()"),
        ];
        let fresh = new_findings(&current, &baseline);
        assert_eq!(fresh.len(), 1);
        assert_eq!(fresh[0].line, 40);
    }

    #[test]
    fn different_rule_or_file_is_new() {
        let baseline = parse(&render(&entries(&[finding(
            "a.rs",
            "panic-unwrap",
            1,
            "x.unwrap()",
        )])))
        .unwrap();
        assert_eq!(
            new_findings(
                &[finding("b.rs", "panic-unwrap", 1, "x.unwrap()")],
                &baseline
            )
            .len(),
            1
        );
        assert_eq!(
            new_findings(
                &[finding("a.rs", "panic-expect", 1, "x.unwrap()")],
                &baseline
            )
            .len(),
            1
        );
    }

    #[test]
    fn fixed_findings_leave_slack_without_failing() {
        let baseline = parse(&render(&entries(&[
            finding("a.rs", "panic-unwrap", 1, "x.unwrap()"),
            finding("a.rs", "panic-unwrap", 2, "y.unwrap()"),
        ])))
        .unwrap();
        assert!(new_findings(
            &[finding("a.rs", "panic-unwrap", 1, "x.unwrap()")],
            &baseline
        )
        .is_empty());
    }

    #[test]
    fn malformed_baseline_is_an_error() {
        assert!(parse("not json").is_err());
        assert!(parse("{\"file\":\"a\"}").is_err());
        assert!(parse("[{\"file\":\"a\"}]").is_err());
    }

    #[test]
    fn rebuild_preserves_notes_and_refuses_unbaselineable_rules() {
        let mut old = entries(&[finding("a.rs", "panic-slice-index", 10, "v[i]")]);
        if let Some(e) = old.first_mut() {
            e.note = Some("debt(fsim-kernel): bounds held by construction".to_string());
        }
        let current = [
            finding("a.rs", "panic-slice-index", 12, "v[i]"),
            finding("b.rs", "lock-order", 5, "let g = m.lock();"),
            finding("c.rs", "persist-protocol", 7, "fs::rename(&tmp, &p)?;"),
            finding("d.rs", "stale-blessing", 2, "// lint: det-ok(old)"),
        ];
        let rebuilt = rebuild(&current, &old);
        assert_eq!(rebuilt.len(), 1, "{rebuilt:?}");
        let first = rebuilt.first();
        assert_eq!(first.map(|e| e.line), Some(12));
        assert_eq!(
            first.and_then(|e| e.note.as_deref()),
            Some("debt(fsim-kernel): bounds held by construction")
        );
        // The note survives a render → parse round trip.
        let parsed = parse(&render(&rebuilt)).unwrap();
        assert_eq!(
            parsed.first().and_then(|e| e.note.as_deref()),
            Some("debt(fsim-kernel): bounds held by construction")
        );
    }
}
