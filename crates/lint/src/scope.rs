//! Structural context for a token stream: which tokens are inside
//! `#[cfg(test)]` / `#[test]` items, and which suppression markers the
//! file carries.
//!
//! # Test-scope tracking
//!
//! Panic-safety and determinism rules do not apply inside test code. An
//! attribute whose identifiers include `test` (and not `not`, so
//! `#[cfg(not(test))]` stays live code) marks the next braced item — a
//! `mod tests { … }`, a `#[test] fn`, an `impl` — as a test region,
//! delimited by its matching closing brace. A braceless item (e.g.
//! `#[cfg(test)] use …;`) ends at the `;` and produces no region.
//!
//! # Suppression markers
//!
//! A comment containing a `lint:` marker followed by one of the keys
//! `ordering-ok`, `det-ok`, `panic-ok`, `persist-ok`, `block-ok` and a parenthesised
//! non-empty reason suppresses that class of finding on its target line:
//! the comment's own line when it trails code, otherwise the next line
//! that holds code. The full grammar is documented in DESIGN.md §8.
//! Markers with a misspelled key or an empty reason are themselves
//! reported, as are markers that suppress nothing — stale annotations
//! must not outlive the hazard they blessed.

use crate::lexer::{TokKind, Token};

/// The class of finding a suppression marker blesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnnKey {
    /// `ordering-ok`: a justified `Ordering::Relaxed` / `Ordering::SeqCst`.
    OrderingOk,
    /// `det-ok`: a justified wall-clock / env / hash-iteration use.
    DetOk,
    /// `panic-ok`: a justified panic site (documented contract, supervised
    /// worker, bounds established by construction).
    PanicOk,
    /// `persist-ok`: a justified raw file creation (the atomic-rename
    /// helper itself).
    PersistOk,
    /// `block-ok`: a justified blocking operation under a held lock (e.g.
    /// the journal's serialised append writes).
    BlockOk,
}

impl AnnKey {
    fn parse(key: &str) -> Option<AnnKey> {
        match key {
            "ordering-ok" => Some(AnnKey::OrderingOk),
            "det-ok" => Some(AnnKey::DetOk),
            "panic-ok" => Some(AnnKey::PanicOk),
            "persist-ok" => Some(AnnKey::PersistOk),
            "block-ok" => Some(AnnKey::BlockOk),
            _ => None,
        }
    }

    /// The marker spelling, for messages.
    pub fn name(self) -> &'static str {
        match self {
            AnnKey::OrderingOk => "ordering-ok",
            AnnKey::DetOk => "det-ok",
            AnnKey::PanicOk => "panic-ok",
            AnnKey::PersistOk => "persist-ok",
            AnnKey::BlockOk => "block-ok",
        }
    }
}

/// One parsed suppression marker.
#[derive(Debug, Clone)]
pub struct Annotation {
    /// Which finding class it blesses.
    pub key: AnnKey,
    /// The stated justification (non-empty by construction).
    pub reason: String,
    /// The line whose findings it suppresses.
    pub target_line: u32,
    /// The line the comment itself is on.
    pub line: u32,
}

/// A malformed suppression marker (reported as a finding by the engine).
#[derive(Debug, Clone)]
pub struct BadAnnotation {
    /// The line the comment is on.
    pub line: u32,
    /// What is wrong with it.
    pub message: String,
}

/// Structural context extracted from one file's tokens.
#[derive(Debug)]
pub struct FileScope {
    in_test: Vec<bool>,
    /// Well-formed suppression markers, in file order.
    pub annotations: Vec<Annotation>,
    /// Malformed markers, in file order.
    pub bad_annotations: Vec<BadAnnotation>,
}

impl FileScope {
    /// Builds the scope map for `tokens` (as produced by [`crate::lexer::lex`]).
    pub fn build(tokens: &[Token]) -> FileScope {
        FileScope {
            in_test: test_map(tokens),
            annotations: collect_annotations(tokens),
            bad_annotations: collect_bad(tokens),
        }
    }

    /// Whether the token at `index` lies inside a test region.
    pub fn is_test(&self, index: usize) -> bool {
        self.in_test.get(index).copied().unwrap_or(false)
    }
}

/// Marks every token covered by a test-attributed item's braces.
fn test_map(tokens: &[Token]) -> Vec<bool> {
    let mut in_test = vec![false; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        if token_is(tokens, i, '#')
            && next_code(tokens, i + 1).is_some_and(|j| token_is(tokens, j, '['))
        {
            let Some(open) = next_code(tokens, i + 1) else {
                break;
            };
            let (attr_end, is_test) = scan_attribute(tokens, open);
            if is_test {
                if let Some((lo, hi)) = item_braces(tokens, attr_end + 1) {
                    for flag in in_test.iter_mut().take(hi + 1).skip(lo) {
                        *flag = true;
                    }
                }
            }
            i = attr_end + 1;
        } else {
            i += 1;
        }
    }
    in_test
}

/// Whether the token at `i` is the punctuation `c` (comments never match).
fn token_is(tokens: &[Token], i: usize, c: char) -> bool {
    tokens.get(i).is_some_and(|t| t.is_punct(c))
}

/// Index of the next non-comment token at or after `i`.
fn next_code(tokens: &[Token], i: usize) -> Option<usize> {
    (i..tokens.len()).find(|&j| tokens.get(j).is_some_and(|t| !t.is_comment()))
}

/// Scans the attribute starting at its `[` token; returns the index of the
/// matching `]` and whether the attribute marks test-only code.
fn scan_attribute(tokens: &[Token], open: usize) -> (usize, bool) {
    let mut depth = 0usize;
    let mut has_test = false;
    let mut has_not = false;
    let mut j = open;
    while j < tokens.len() {
        let Some(t) = tokens.get(j) else { break };
        match t.kind {
            TokKind::Punct('[') => depth += 1,
            TokKind::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            TokKind::Ident => {
                if t.text == "test" {
                    has_test = true;
                } else if t.text == "not" {
                    has_not = true;
                }
            }
            _ => {}
        }
        j += 1;
    }
    (j.min(tokens.len().saturating_sub(1)), has_test && !has_not)
}

/// Finds the brace span of the item following an attribute: the first `{`
/// before any top-level `;`, and its matching `}`. `None` for braceless
/// items.
fn item_braces(tokens: &[Token], from: usize) -> Option<(usize, usize)> {
    let mut nest = 0usize; // parens/brackets of the signature
    let mut j = from;
    let open = loop {
        let t = tokens.get(j)?;
        match t.kind {
            TokKind::Punct('(') | TokKind::Punct('[') => nest += 1,
            TokKind::Punct(')') | TokKind::Punct(']') => nest = nest.saturating_sub(1),
            TokKind::Punct(';') if nest == 0 => return None,
            TokKind::Punct('{') => break j,
            _ => {}
        }
        j += 1;
    };
    let mut depth = 0usize;
    let mut k = open;
    loop {
        let t = tokens.get(k)?;
        match t.kind {
            TokKind::Punct('{') => depth += 1,
            TokKind::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    return Some((open, k));
                }
            }
            _ => {}
        }
        k += 1;
    }
}

/// Extracts the `lint:` marker candidate from a comment: the key text and
/// the reason, if a parenthesised payload exists.
fn marker_parts(text: &str) -> Option<(String, Option<String>)> {
    let at = text.find("lint:")?;
    let rest = text.get(at + 5..)?.trim_start();
    match rest.find('(') {
        Some(p) => {
            let key = rest.get(..p)?.trim().to_string();
            let after = rest.get(p + 1..)?;
            let close = after.rfind(')')?;
            let reason = after.get(..close)?.trim().to_string();
            Some((key, Some(reason)))
        }
        None => {
            let key = rest.split_whitespace().next().unwrap_or("").to_string();
            Some((key, None))
        }
    }
}

/// Whether a key candidate plausibly *intends* to be a marker (so prose
/// that merely mentions `lint:` is not reported as malformed).
fn looks_intentional(key: &str) -> bool {
    !key.is_empty()
        && key.len() <= 32
        && !key.contains(char::is_whitespace)
        && key
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
}

fn collect_annotations(tokens: &[Token]) -> Vec<Annotation> {
    let mut out = Vec::new();
    for (i, tok) in tokens.iter().enumerate() {
        if !tok.is_comment() {
            continue;
        }
        let Some((key_text, Some(reason))) = marker_parts(&tok.text) else {
            continue;
        };
        let Some(key) = AnnKey::parse(&key_text) else {
            continue;
        };
        if reason.is_empty() {
            continue; // reported by collect_bad
        }
        let trails_code = tokens
            .iter()
            .take(i)
            .any(|t| !t.is_comment() && t.line == tok.line);
        let target_line = if trails_code {
            tok.line
        } else {
            match next_code(tokens, i + 1).and_then(|j| tokens.get(j)) {
                Some(t) => t.line,
                None => tok.line,
            }
        };
        out.push(Annotation {
            key,
            reason,
            target_line,
            line: tok.line,
        });
    }
    out
}

fn collect_bad(tokens: &[Token]) -> Vec<BadAnnotation> {
    let mut out = Vec::new();
    for tok in tokens {
        if !tok.is_comment() {
            continue;
        }
        let Some((key_text, reason)) = marker_parts(&tok.text) else {
            continue;
        };
        if !looks_intentional(&key_text) {
            continue;
        }
        let known = AnnKey::parse(&key_text).is_some();
        let message = match (known, &reason) {
            (true, Some(r)) if r.is_empty() => {
                format!("`{key_text}` marker has an empty reason — state why the hazard is safe")
            }
            (true, None) => {
                format!("`{key_text}` marker is missing its parenthesised reason")
            }
            (false, _) if key_text.ends_with("-ok") => {
                format!("unknown lint marker key `{key_text}`")
            }
            _ => continue,
        };
        out.push(BadAnnotation {
            line: tok.line,
            message,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    /// Returns, for each named ident, whether it is in a test region.
    fn test_flags(src: &str, names: &[&str]) -> Vec<bool> {
        let tokens = lex(src);
        let scope = FileScope::build(&tokens);
        names
            .iter()
            .map(|name| {
                tokens
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| t.is_ident(name))
                    .any(|(i, _)| scope.is_test(i))
            })
            .collect()
    }

    #[test]
    fn cfg_test_module_is_marked() {
        let src = r#"
            fn live() { alpha(); }
            #[cfg(test)]
            mod tests {
                fn helper() { beta(); }
            }
            fn also_live() { gamma(); }
        "#;
        assert_eq!(
            test_flags(src, &["alpha", "beta", "gamma"]),
            [false, true, false]
        );
    }

    #[test]
    fn test_fn_attribute_is_marked() {
        let src = r#"
            #[test]
            fn check() { delta(); }
            fn live() { epsilon(); }
        "#;
        assert_eq!(test_flags(src, &["delta", "epsilon"]), [true, false]);
    }

    #[test]
    fn cfg_not_test_stays_live() {
        let src = r#"
            #[cfg(not(test))]
            fn shipped() { zeta(); }
        "#;
        assert_eq!(test_flags(src, &["zeta"]), [false]);
    }

    #[test]
    fn cfg_all_test_feature_is_marked() {
        let src = r#"
            #[cfg(all(test, feature = "fault-inject"))]
            mod tests { fn f() { eta(); } }
        "#;
        assert_eq!(test_flags(src, &["eta"]), [true]);
    }

    #[test]
    fn braceless_attributed_item_marks_nothing() {
        // `#[cfg(test)] use …;` must not leak the test scope onto the next
        // braced item.
        let src = r#"
            #[cfg(test)]
            use std::collections::HashMap;
            fn live() { theta(); }
        "#;
        assert_eq!(test_flags(src, &["theta"]), [false]);
    }

    #[test]
    fn signature_brackets_do_not_confuse_item_span() {
        let src = r#"
            #[test]
            fn takes_arrays(x: [u8; 4]) { iota(); }
            fn live() { kappa(); }
        "#;
        assert_eq!(test_flags(src, &["iota", "kappa"]), [true, false]);
    }

    fn ann(src: &str) -> (Vec<Annotation>, Vec<BadAnnotation>) {
        let tokens = lex(src);
        let scope = FileScope::build(&tokens);
        (scope.annotations, scope.bad_annotations)
    }

    #[test]
    fn trailing_marker_targets_its_own_line() {
        let (anns, bad) = ann("let x = 1;\nfoo(); // lint: panic-ok(bounded by construction)\n");
        assert!(bad.is_empty());
        assert_eq!(anns.len(), 1);
        let a = anns.first().map(|a| (a.key, a.target_line));
        assert_eq!(a, Some((AnnKey::PanicOk, 2)));
        assert_eq!(
            anns.first().map(|a| a.reason.as_str()),
            Some("bounded by construction")
        );
    }

    #[test]
    fn standalone_marker_targets_next_code_line() {
        let (anns, _) = ann(
            "// lint: ordering-ok(monotone flag; barrier is the mutex)\n// more prose\nfoo();\n",
        );
        assert_eq!(anns.len(), 1);
        assert_eq!(anns.first().map(|a| a.target_line), Some(3));
    }

    #[test]
    fn unknown_ok_key_is_reported() {
        let (anns, bad) = ann("foo(); // lint: orderng-ok(typo)\n");
        assert!(anns.is_empty());
        assert_eq!(bad.len(), 1);
        assert!(
            bad.first()
                .is_some_and(|b| b.message.contains("orderng-ok")),
            "{bad:?}"
        );
    }

    #[test]
    fn empty_reason_is_reported() {
        let (anns, bad) = ann("foo(); // lint: det-ok()\n");
        assert!(anns.is_empty());
        assert_eq!(bad.len(), 1);
    }

    #[test]
    fn missing_reason_is_reported() {
        let (anns, bad) = ann("foo(); // lint: panic-ok\n");
        assert!(anns.is_empty());
        assert_eq!(bad.len(), 1);
    }

    #[test]
    fn prose_mentioning_lint_is_ignored() {
        let (anns, bad) =
            ann("// the lint: markers described in the design doc are parsed here\nfoo();\n");
        assert!(anns.is_empty());
        assert!(bad.is_empty(), "{bad:?}");
    }
}
