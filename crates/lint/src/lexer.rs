//! A lightweight Rust lexer — just enough fidelity for invariant linting.
//!
//! The build environment is offline, so there is no `syn`; this hand-rolled
//! lexer handles the parts of Rust's surface syntax that would otherwise
//! corrupt a text-level scan:
//!
//! - string literals (`"…"` with escapes), byte strings (`b"…"`), and raw
//!   strings (`r"…"`, `r#"…"#`, any number of hashes, with `br` prefixes) —
//!   so `"HashMap"` inside a string never looks like a type;
//! - nested block comments (`/* /* */ */`) and line comments, emitted as
//!   tokens so the annotation pass can read `// lint: …` markers;
//! - `'a` lifetimes vs `'a'` char literals — so `&'a [T]` is not mistaken
//!   for a char followed by an index expression;
//! - numbers with type suffixes, `0x…` radices, and `0..n` ranges.
//!
//! Everything else becomes [`TokKind::Ident`] or single-character
//! [`TokKind::Punct`] tokens; rules match on short token sequences.

/// What a token is. Literal payloads are kept as raw text where a rule or
/// the annotation pass needs to read them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword (`let`, `HashMap`, `unwrap`, …).
    Ident,
    /// A lifetime or loop label (`'a`, `'static`, `'outer`).
    Lifetime,
    /// A char or byte-char literal (`'x'`, `b'{'`, `'\n'`).
    CharLit,
    /// A string, byte-string, or raw-string literal.
    StrLit,
    /// A numeric literal (`42`, `0xff_u64`, `1.5e-3` up to the sign).
    NumLit,
    /// A single punctuation character (`.`, `:`, `[`, `!`, …).
    Punct(char),
    /// A `// …` comment (text without the terminating newline).
    LineComment,
    /// A `/* … */` comment, nesting resolved.
    BlockComment,
}

/// One lexed token with its raw text and 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Token class.
    pub kind: TokKind,
    /// Raw source text of the token.
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
}

impl Token {
    /// Whether this token is a comment (annotations live there; rules
    /// match on everything else).
    pub fn is_comment(&self) -> bool {
        matches!(self.kind, TokKind::LineComment | TokKind::BlockComment)
    }

    /// Whether this is the identifier `name`.
    pub fn is_ident(&self, name: &str) -> bool {
        self.kind == TokKind::Ident && self.text == name
    }

    /// Whether this is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct(c)
    }
}

/// Lexes one source file into tokens (comments included).
///
/// The lexer never fails: unterminated literals simply run to the end of
/// input, which is good enough for linting a file that `rustc` already
/// accepts (and harmless for one it does not).
pub fn lex(source: &str) -> Vec<Token> {
    Lexer {
        chars: source.chars().collect(),
        pos: 0,
        line: 1,
        out: Vec::new(),
    }
    .run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    out: Vec<Token>,
}

impl Lexer {
    /// The character `n` places ahead of the cursor, if any.
    fn at(&self, n: usize) -> Option<char> {
        self.chars.get(self.pos + n).copied()
    }

    /// Consumes one character, maintaining the line counter.
    fn bump(&mut self) -> Option<char> {
        let c = self.at(0)?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
        }
        Some(c)
    }

    fn push(&mut self, kind: TokKind, text: String, line: u32) {
        self.out.push(Token { kind, text, line });
    }

    fn run(mut self) -> Vec<Token> {
        while let Some(c) = self.at(0) {
            let line = self.line;
            match c {
                c if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.at(1) == Some('/') => self.line_comment(line),
                '/' if self.at(1) == Some('*') => self.block_comment(line),
                '"' => self.string(line, String::new()),
                '\'' => self.char_or_lifetime(line),
                c if c.is_ascii_digit() => self.number(line),
                c if c.is_alphabetic() || c == '_' => self.ident_or_prefixed(line),
                c => {
                    self.bump();
                    self.push(TokKind::Punct(c), c.to_string(), line);
                }
            }
        }
        self.out
    }

    fn line_comment(&mut self, line: u32) {
        let mut text = String::new();
        while let Some(c) = self.at(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        self.push(TokKind::LineComment, text, line);
    }

    fn block_comment(&mut self, line: u32) {
        let mut text = String::new();
        let mut depth = 0usize;
        while let Some(c) = self.at(0) {
            if c == '/' && self.at(1) == Some('*') {
                depth += 1;
                text.push_str("/*");
                self.bump();
                self.bump();
            } else if c == '*' && self.at(1) == Some('/') {
                depth -= 1;
                text.push_str("*/");
                self.bump();
                self.bump();
                if depth == 0 {
                    break;
                }
            } else {
                text.push(c);
                self.bump();
            }
        }
        self.push(TokKind::BlockComment, text, line);
    }

    /// A `"…"` string; `prefix` carries any already-consumed `b`.
    fn string(&mut self, line: u32, prefix: String) {
        let mut text = prefix;
        if let Some(q) = self.bump() {
            text.push(q); // opening quote
        }
        while let Some(c) = self.bump() {
            text.push(c);
            match c {
                '\\' => {
                    if let Some(e) = self.bump() {
                        text.push(e);
                    }
                }
                '"' => break,
                _ => {}
            }
        }
        self.push(TokKind::StrLit, text, line);
    }

    /// A raw string starting at `r`/`br` (cursor on the hashes or quote):
    /// `r#"…"#` with any number of hashes. `prefix` holds the consumed
    /// `r`/`br`.
    fn raw_string(&mut self, line: u32, prefix: String) {
        let mut text = prefix;
        let mut hashes = 0usize;
        while self.at(0) == Some('#') {
            hashes += 1;
            text.push('#');
            self.bump();
        }
        if self.at(0) == Some('"') {
            text.push('"');
            self.bump();
        }
        // Scan for `"` followed by `hashes` hash characters.
        'scan: while let Some(c) = self.bump() {
            text.push(c);
            if c == '"' {
                for k in 0..hashes {
                    if self.at(k) != Some('#') {
                        continue 'scan;
                    }
                }
                for _ in 0..hashes {
                    text.push('#');
                    self.bump();
                }
                break;
            }
        }
        self.push(TokKind::StrLit, text, line);
    }

    /// Disambiguates `'a'` (char), `b'x'` handled by the caller, `'a`
    /// (lifetime), and `'outer:` (label — lexed as a lifetime).
    fn char_or_lifetime(&mut self, line: u32) {
        // Lifetime iff the quote is followed by an identifier char and the
        // character after that identifier char is NOT a closing quote.
        // `'a'` → char; `'a` / `'static` / `'outer` → lifetime; `'\n'`,
        // `'('`, `'1'` → char.
        let next = self.at(1);
        let is_lifetime = match next {
            Some(c) if c.is_alphabetic() || c == '_' => self.at(2) != Some('\''),
            _ => false,
        };
        if is_lifetime {
            let mut text = String::new();
            if let Some(q) = self.bump() {
                text.push(q);
            }
            while let Some(c) = self.at(0) {
                if c.is_alphanumeric() || c == '_' {
                    text.push(c);
                    self.bump();
                } else {
                    break;
                }
            }
            self.push(TokKind::Lifetime, text, line);
        } else {
            // Char literal: consume to the closing quote, honouring escapes.
            let mut text = String::new();
            if let Some(q) = self.bump() {
                text.push(q);
            }
            while let Some(c) = self.bump() {
                text.push(c);
                match c {
                    '\\' => {
                        if let Some(e) = self.bump() {
                            text.push(e);
                        }
                    }
                    '\'' => break,
                    _ => {}
                }
            }
            self.push(TokKind::CharLit, text, line);
        }
    }

    fn number(&mut self, line: u32) {
        let mut text = String::new();
        // Digits, radix prefixes, suffixes, underscores — one greedy run.
        while let Some(c) = self.at(0) {
            if c.is_ascii_alphanumeric() || c == '_' {
                text.push(c);
                self.bump();
            } else if c == '.' {
                // `1.5` continues the number; `0..n` does not.
                match self.at(1) {
                    Some(d) if d.is_ascii_digit() && !text.contains('.') => {
                        text.push('.');
                        self.bump();
                    }
                    _ => break,
                }
            } else {
                break;
            }
        }
        self.push(TokKind::NumLit, text, line);
    }

    /// An identifier, or a string literal behind an `r`/`b`/`br` prefix.
    fn ident_or_prefixed(&mut self, line: u32) {
        // Raw/byte string prefixes are idents until proven otherwise.
        if self.at(0) == Some('r') {
            match self.at(1) {
                Some('"') | Some('#') if self.raw_prefix_is_string(1) => {
                    self.bump();
                    return self.raw_string(line, "r".to_string());
                }
                _ => {}
            }
        }
        if self.at(0) == Some('b') {
            match self.at(1) {
                Some('"') => {
                    self.bump();
                    return self.string(line, "b".to_string());
                }
                Some('\'') => {
                    // Byte char literal b'x'.
                    self.bump(); // consume `b`
                    let mut text = "b".to_string();
                    if let Some(q) = self.bump() {
                        text.push(q);
                    }
                    while let Some(c) = self.bump() {
                        text.push(c);
                        match c {
                            '\\' => {
                                if let Some(e) = self.bump() {
                                    text.push(e);
                                }
                            }
                            '\'' => break,
                            _ => {}
                        }
                    }
                    return self.push(TokKind::CharLit, text, line);
                }
                Some('r') if self.raw_prefix_is_string(2) => {
                    self.bump();
                    self.bump();
                    return self.raw_string(line, "br".to_string());
                }
                _ => {}
            }
        }
        let mut text = String::new();
        while let Some(c) = self.at(0) {
            if c.is_alphanumeric() || c == '_' {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push(TokKind::Ident, text, line);
    }

    /// Whether the characters from offset `from` look like `#*"` — i.e. a
    /// raw-string body actually follows the `r`/`br` prefix (and not, say,
    /// the identifier `r#try` or plain `radius`).
    fn raw_prefix_is_string(&self, from: usize) -> bool {
        let mut k = from;
        while self.at(k) == Some('#') {
            k += 1;
        }
        // `r#ident` (raw identifier) has exactly one hash and then an
        // identifier character; a raw string has a quote here.
        self.at(k) == Some('"')
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    /// Satellite requirement: table-driven lexer coverage for the corner
    /// cases that would corrupt a text-level scan.
    #[test]
    fn table_raw_strings() {
        // (source, expected idents) — nothing inside a raw string may leak
        // out as an identifier.
        let cases: &[(&str, &[&str])] = &[
            (r##"let s = r"unwrap()";"##, &["let", "s"]),
            (r###"let s = r#"a "quoted" unwrap()"#;"###, &["let", "s"]),
            (
                r####"let s = r##"hash "# inside"##; call()"####,
                &["let", "s", "call"],
            ),
            (r###"let b = br#"bytes "raw" here"#;"###, &["let", "b"]),
            (r##"let b = b"byte str with unwrap()";"##, &["let", "b"]),
            // A raw string whose body spans lines.
            (
                "let s = r#\"line1\nline2 panic!()\"#; next",
                &["let", "s", "next"],
            ),
        ];
        for (src, expect) in cases {
            assert_eq!(&idents(src), expect, "source: {src}");
        }
    }

    #[test]
    fn table_nested_block_comments() {
        let cases: &[(&str, &[&str])] = &[
            ("/* unwrap() */ keep", &["keep"]),
            (
                "/* outer /* inner unwrap() */ still comment */ keep",
                &["keep"],
            ),
            ("/* /* /* deep */ */ */ keep", &["keep"]),
            ("a /* x */ b /* y /* z */ */ c", &["a", "b", "c"]),
        ];
        for (src, expect) in cases {
            assert_eq!(&idents(src), expect, "source: {src}");
        }
    }

    #[test]
    fn table_lifetimes_vs_chars() {
        // (source, lifetimes, char literals)
        let cases: &[(&str, &[&str], &[&str])] = &[
            ("fn f<'a>(x: &'a str) {}", &["'a", "'a"], &[]),
            ("let c = 'a';", &[], &["'a'"]),
            (
                "let c = '\\n'; let l: &'static str;",
                &["'static"],
                &["'\\n'"],
            ),
            ("'outer: loop { break 'outer; }", &["'outer", "'outer"], &[]),
            ("let q = '\\''; let b = b'{';", &[], &["'\\''", "b'{'"]),
            (
                "let p = '('; struct S<'x>(&'x u8);",
                &["'x", "'x"],
                &["'('"],
            ),
        ];
        for (src, lifetimes, chars) in cases {
            let toks = lex(src);
            let got_l: Vec<&str> = toks
                .iter()
                .filter(|t| t.kind == TokKind::Lifetime)
                .map(|t| t.text.as_str())
                .collect();
            let got_c: Vec<&str> = toks
                .iter()
                .filter(|t| t.kind == TokKind::CharLit)
                .map(|t| t.text.as_str())
                .collect();
            assert_eq!(&got_l, lifetimes, "lifetimes of: {src}");
            assert_eq!(&got_c, chars, "chars of: {src}");
        }
    }

    #[test]
    fn table_strings_and_escapes() {
        let cases: &[(&str, &[&str])] = &[
            (r#"let s = "has unwrap() inside";"#, &["let", "s"]),
            (r#"let s = "escaped \" quote unwrap()";"#, &["let", "s"]),
            (r#"let s = "backslash \\"; done()"#, &["let", "s", "done"]),
        ];
        for (src, expect) in cases {
            assert_eq!(&idents(src), expect, "source: {src}");
        }
    }

    #[test]
    fn table_numbers_and_ranges() {
        // `0..n` must not swallow the range dots; `1.5` must stay one token.
        let toks = kinds("for i in 0..n { let x = 1.5; let h = 0xff_u64; }");
        let nums: Vec<&str> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::NumLit)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(nums, ["0", "1.5", "0xff_u64"]);
        let dots = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Punct('.'))
            .count();
        assert_eq!(dots, 2, "both range dots survive");
    }

    #[test]
    fn comments_carry_text_and_lines() {
        let toks = lex("let a = 1;\n// lint: ordering-ok(reason)\nlet b = 2;");
        let comment = toks
            .iter()
            .find(|t| t.kind == TokKind::LineComment)
            .cloned()
            .into_iter()
            .next();
        let comment = match comment {
            Some(c) => c,
            None => unreachable!("comment token must exist"),
        };
        assert_eq!(comment.line, 2);
        assert!(comment.text.contains("ordering-ok"), "{}", comment.text);
        let b = toks.iter().filter(|t| t.is_ident("b")).count();
        assert_eq!(b, 1);
    }

    #[test]
    fn line_numbers_track_multiline_tokens() {
        let toks = lex("a\n/* two\nlines */\nb\nr#\"raw\nraw\"#\nc");
        let line_of = |name: &str| -> u32 {
            toks.iter()
                .filter(|t| t.is_ident(name))
                .map(|t| t.line)
                .sum()
        };
        assert_eq!(line_of("a"), 1);
        assert_eq!(line_of("b"), 4);
        assert_eq!(line_of("c"), 7);
    }

    #[test]
    fn raw_identifier_is_not_a_raw_string() {
        assert_eq!(idents("let r#type = 1; rest"), ["let", "r", "type", "rest"]);
    }
}
