//! Item-level parsing over the lexer: `fn` / `impl` / `struct` / `static`
//! items with enough signature fidelity to build a per-crate symbol table
//! and call graph (see [`crate::flow`]).
//!
//! This is deliberately not a Rust parser. It recognises *item heads* —
//! names, generics, parameter lists, return types, field lists — and
//! records each `fn` body as a token range for the flow walker; the body
//! itself is never parsed into an AST. Generics are skipped by balanced
//! angle-bracket matching (`->` arrows do not close an angle), `where`
//! clauses are consumed up to the item's brace, trait impls attribute
//! their methods to the implemented-for type, and nested `mod` blocks are
//! descended into (names stay flat per crate — the linter's universe is
//! small enough that module paths add nothing).

use crate::lexer::{TokKind, Token};
use crate::scope::FileScope;

/// A named, typed slot: a function parameter or a struct field.
#[derive(Debug, Clone)]
pub struct Param {
    /// The binding name (`"self"` for receivers, `"0"`, `"1"`, … for
    /// tuple-struct fields).
    pub name: String,
    /// The type text, tokens joined by single spaces (`"Arc < Hub >"`).
    pub ty: String,
}

/// One `struct` definition with its fields.
#[derive(Debug, Clone)]
pub struct StructDef {
    /// The struct name.
    pub name: String,
    /// Named (or tuple-positional) fields with type text.
    pub fields: Vec<Param>,
    /// 1-based line of the `struct` keyword.
    pub line: u32,
}

/// One `static` (or `const`) item — atomics and locks can live here too.
#[derive(Debug, Clone)]
pub struct StaticDef {
    /// The item name.
    pub name: String,
    /// The type text.
    pub ty: String,
    /// 1-based line.
    pub line: u32,
}

/// One `fn` definition: signature plus the body's token range.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// The bare function name.
    pub name: String,
    /// The impl'd (or trait'd) type the fn belongs to, if any.
    pub owner: Option<String>,
    /// Parameters, `self` included (typed as the owner).
    pub params: Vec<Param>,
    /// Return-type text (empty for unit).
    pub ret: String,
    /// Inclusive code-token index range of the `{ … }` body (braces
    /// included), in the *code index space* (comments stripped); `None`
    /// for bodiless declarations.
    pub body: Option<(usize, usize)>,
    /// 1-based line of the fn name.
    pub line: u32,
    /// Whether the fn sits inside a `#[cfg(test)]` region.
    pub in_test: bool,
}

/// Every item parsed from one file.
#[derive(Debug, Default)]
pub struct FileItems {
    /// `struct` definitions, in file order.
    pub structs: Vec<StructDef>,
    /// `fn` definitions (free and associated), in file order.
    pub fns: Vec<FnDef>,
    /// `static` / `const` items, in file order.
    pub statics: Vec<StaticDef>,
}

/// Indices of the non-comment tokens — the shared "code index space" the
/// parser and the flow walker both operate in.
pub fn code_indices(tokens: &[Token]) -> Vec<usize> {
    tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| !t.is_comment())
        .map(|(i, _)| i)
        .collect()
}

/// Parses the items of one file. `scope` supplies test-region flags so
/// test-only fns can be excluded from flow analysis.
pub fn parse_items(tokens: &[Token], scope: &FileScope) -> FileItems {
    let code = code_indices(tokens);
    let mut p = Parser {
        tokens,
        code: &code,
        scope,
        out: FileItems::default(),
    };
    let len = code.len();
    p.parse_region(0, len, None);
    p.out
}

struct Parser<'a> {
    tokens: &'a [Token],
    code: &'a [usize],
    scope: &'a FileScope,
    out: FileItems,
}

impl Parser<'_> {
    fn tok(&self, k: usize) -> Option<&Token> {
        self.code.get(k).and_then(|&i| self.tokens.get(i))
    }

    fn ident(&self, k: usize) -> Option<&str> {
        self.tok(k).and_then(|t| {
            if t.kind == TokKind::Ident {
                Some(t.text.as_str())
            } else {
                None
            }
        })
    }

    fn punct(&self, k: usize, c: char) -> bool {
        self.tok(k).is_some_and(|t| t.is_punct(c))
    }

    fn line(&self, k: usize) -> u32 {
        self.tok(k).map(|t| t.line).unwrap_or(0)
    }

    fn in_test(&self, k: usize) -> bool {
        self.code.get(k).is_some_and(|&i| self.scope.is_test(i))
    }

    /// Skips a balanced `< … >` generic list starting at `from` (which
    /// must be `<`); `->` arrows never close an angle. Returns the index
    /// just past the matching `>`.
    fn skip_generics(&self, from: usize) -> usize {
        let mut depth = 0usize;
        let mut k = from;
        while let Some(t) = self.tok(k) {
            match t.kind {
                TokKind::Punct('<') => depth += 1,
                // `->` is a return arrow, not an angle close.
                TokKind::Punct('>') if !(k > 0 && self.punct(k - 1, '-')) => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return k + 1;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        k
    }

    /// Skips a balanced bracket pair of `open`/`close` starting at `from`
    /// (which must be `open`); returns the index just past the close.
    fn skip_pair(&self, from: usize, open: char, close: char) -> usize {
        let mut depth = 0usize;
        let mut k = from;
        while let Some(t) = self.tok(k) {
            if t.is_punct(open) {
                depth += 1;
            } else if t.is_punct(close) {
                depth -= 1;
                if depth == 0 {
                    return k + 1;
                }
            }
            k += 1;
        }
        k
    }

    /// Index of the matching `}` for the `{` at `open`.
    fn close_of(&self, open: usize) -> usize {
        self.skip_pair(open, '{', '}').saturating_sub(1)
    }

    /// Advances past one attribute (`#[…]` or `#![…]`) starting at `#`.
    fn skip_attribute(&self, k: usize) -> usize {
        let mut j = k + 1;
        if self.punct(j, '!') {
            j += 1;
        }
        if self.punct(j, '[') {
            self.skip_pair(j, '[', ']')
        } else {
            k + 1
        }
    }

    /// Type text from `lo` (inclusive) to `hi` (exclusive), tokens joined
    /// by single spaces.
    fn text(&self, lo: usize, hi: usize) -> String {
        let mut parts = Vec::new();
        for k in lo..hi {
            if let Some(t) = self.tok(k) {
                parts.push(t.text.clone());
            }
        }
        parts.join(" ")
    }

    /// Parses items between code indices `lo..hi` under `owner` (the impl
    /// or trait type for methods).
    fn parse_region(&mut self, lo: usize, hi: usize, owner: Option<&str>) {
        let mut k = lo;
        while k < hi {
            if self.punct(k, '#') {
                k = self.skip_attribute(k);
                continue;
            }
            match self.ident(k) {
                Some("struct") | Some("union") => k = self.parse_struct(k),
                Some("enum") => k = self.skip_enum(k),
                Some("fn") => k = self.parse_fn(k, owner),
                Some("impl") => k = self.parse_impl(k),
                Some("trait") => k = self.parse_trait(k),
                Some("mod") => k = self.parse_mod(k, owner),
                Some("static") | Some("const") => k = self.parse_static(k),
                Some("macro_rules") => k = self.skip_macro_rules(k),
                Some("use") | Some("extern") | Some("type") => k = self.skip_to_semi(k),
                _ => k += 1,
            }
        }
    }

    /// Advances past the next `;` at brace depth zero (for `use`, `type`,
    /// `static` initialisers).
    fn skip_to_semi(&self, from: usize) -> usize {
        let mut depth = 0usize;
        let mut k = from;
        while let Some(t) = self.tok(k) {
            match t.kind {
                TokKind::Punct('{') => depth += 1,
                TokKind::Punct('}') => depth = depth.saturating_sub(1),
                TokKind::Punct(';') if depth == 0 => return k + 1,
                _ => {}
            }
            k += 1;
        }
        k
    }

    fn skip_enum(&self, k: usize) -> usize {
        // `enum Name<…> [where …] { … }` — consume the body wholesale.
        let mut j = k + 2; // past `enum Name`
        if self.punct(j, '<') {
            j = self.skip_generics(j);
        }
        while let Some(t) = self.tok(j) {
            match t.kind {
                TokKind::Punct('{') => return self.skip_pair(j, '{', '}'),
                TokKind::Punct(';') => return j + 1,
                _ => j += 1,
            }
        }
        j
    }

    fn skip_macro_rules(&self, k: usize) -> usize {
        // `macro_rules ! name { … }`
        let mut j = k + 1;
        while let Some(t) = self.tok(j) {
            if t.is_punct('{') {
                return self.skip_pair(j, '{', '}');
            }
            j += 1;
        }
        j
    }

    fn parse_struct(&mut self, k: usize) -> usize {
        let line = self.line(k);
        let Some(name) = self.ident(k + 1).map(str::to_string) else {
            return k + 1;
        };
        let mut j = k + 2;
        if self.punct(j, '<') {
            j = self.skip_generics(j);
        }
        // Tuple struct: `struct Name(T, U);`
        if self.punct(j, '(') {
            let close = self.skip_pair(j, '(', ')');
            let fields = self.split_commas(j + 1, close - 1);
            let fields = fields
                .iter()
                .enumerate()
                .map(|(i, &(lo, hi))| Param {
                    name: i.to_string(),
                    ty: self.text(self.skip_field_vis(lo), hi),
                })
                .collect();
            self.out.structs.push(StructDef { name, fields, line });
            return self.skip_to_semi(close);
        }
        // `where` clause, then `{ fields }` or `;`.
        while let Some(t) = self.tok(j) {
            match t.kind {
                TokKind::Punct('{') => break,
                TokKind::Punct(';') => {
                    self.out.structs.push(StructDef {
                        name,
                        fields: Vec::new(),
                        line,
                    });
                    return j + 1;
                }
                _ => j += 1,
            }
        }
        let open = j;
        let end = self.close_of(open);
        let mut fields = Vec::new();
        for &(lo, hi) in &self.split_commas(open + 1, end) {
            let lo = self.skip_field_vis(lo);
            // `name : TYPE`
            if let Some(fname) = self.ident(lo) {
                if self.punct(lo + 1, ':') && !self.punct(lo + 2, ':') {
                    fields.push(Param {
                        name: fname.to_string(),
                        ty: self.text(lo + 2, hi),
                    });
                }
            }
        }
        self.out.structs.push(StructDef { name, fields, line });
        end + 1
    }

    /// Skips attributes and a `pub` / `pub(crate)` prefix before a field.
    fn skip_field_vis(&self, mut k: usize) -> usize {
        loop {
            if self.punct(k, '#') {
                k = self.skip_attribute(k);
            } else if self.ident(k) == Some("pub") {
                k += 1;
                if self.punct(k, '(') {
                    k = self.skip_pair(k, '(', ')');
                }
            } else {
                return k;
            }
        }
    }

    /// Splits `lo..hi` at top-level commas (parens, brackets, braces and
    /// angles tracked; `->` never closes an angle). Empty segments are
    /// dropped.
    fn split_commas(&self, lo: usize, hi: usize) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        let (mut paren, mut angle) = (0i32, 0i32);
        let mut start = lo;
        let mut k = lo;
        while k < hi {
            match self.tok(k).map(|t| &t.kind) {
                Some(TokKind::Punct('('))
                | Some(TokKind::Punct('['))
                | Some(TokKind::Punct('{')) => paren += 1,
                Some(TokKind::Punct(')'))
                | Some(TokKind::Punct(']'))
                | Some(TokKind::Punct('}')) => paren -= 1,
                Some(TokKind::Punct('<')) => angle += 1,
                Some(TokKind::Punct('>')) if !(k > 0 && self.punct(k - 1, '-')) => angle -= 1,
                Some(TokKind::Punct(',')) if paren == 0 && angle <= 0 => {
                    if k > start {
                        out.push((start, k));
                    }
                    start = k + 1;
                    // A fresh segment resets any unbalanced-angle drift
                    // from comparison operators inside const generics.
                    angle = 0;
                }
                _ => {}
            }
            k += 1;
        }
        if hi > start {
            out.push((start, hi));
        }
        out
    }

    fn parse_fn(&mut self, k: usize, owner: Option<&str>) -> usize {
        let Some(name) = self.ident(k + 1).map(str::to_string) else {
            return k + 1;
        };
        let line = self.line(k + 1);
        let in_test = self.in_test(k + 1);
        let mut j = k + 2;
        if self.punct(j, '<') {
            j = self.skip_generics(j);
        }
        if !self.punct(j, '(') {
            return j;
        }
        let close = self.skip_pair(j, '(', ')');
        let mut params = Vec::new();
        for &(lo, hi) in &self.split_commas(j + 1, close - 1) {
            params.extend(self.parse_param(lo, hi, owner));
        }
        // Return type: `-> TYPE` up to `where`, `{`, or `;`.
        let mut r = close;
        let mut ret = String::new();
        if self.punct(r, '-') && self.punct(r + 1, '>') {
            let start = r + 2;
            let mut e = start;
            let mut depth = 0i32;
            while let Some(t) = self.tok(e) {
                match &t.kind {
                    TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
                    TokKind::Punct(')') | TokKind::Punct(']') => depth -= 1,
                    TokKind::Punct('{') | TokKind::Punct(';') if depth <= 0 => break,
                    TokKind::Ident if t.text == "where" && depth <= 0 => break,
                    _ => {}
                }
                e += 1;
            }
            ret = self.text(start, e);
            r = e;
        }
        // `where` clause up to the body.
        while let Some(t) = self.tok(r) {
            match t.kind {
                TokKind::Punct('{') | TokKind::Punct(';') => break,
                _ => r += 1,
            }
        }
        let (body, next) = if self.punct(r, '{') {
            let end = self.close_of(r);
            (Some((r, end)), end + 1)
        } else {
            (None, r + 1)
        };
        self.out.fns.push(FnDef {
            name,
            owner: owner.map(str::to_string),
            params,
            ret,
            body,
            line,
            in_test,
        });
        next
    }

    /// One parameter from `lo..hi`: `self` forms type as the owner; plain
    /// `pat : TYPE` takes the last ident before the colon; destructuring
    /// patterns yield nothing.
    fn parse_param(&self, lo: usize, hi: usize, owner: Option<&str>) -> Option<Param> {
        let mut k = lo;
        while k < hi && self.punct(k, '#') {
            k = self.skip_attribute(k);
        }
        // Receiver forms: `self`, `&self`, `&mut self`, `&'a self`,
        // `mut self`, `self: Arc<Self>`.
        let mut r = k;
        while r < hi {
            match self.tok(r) {
                Some(t) if t.is_punct('&') || t.kind == TokKind::Lifetime => r += 1,
                Some(t) if t.is_ident("mut") => r += 1,
                _ => break,
            }
        }
        if self.ident(r) == Some("self") {
            return Some(Param {
                name: "self".to_string(),
                ty: owner.unwrap_or("Self").to_string(),
            });
        }
        // `name : TYPE` — find the top-level colon.
        let mut depth = 0i32;
        let mut colon = None;
        for j in k..hi {
            match self.tok(j).map(|t| &t.kind) {
                Some(TokKind::Punct('('))
                | Some(TokKind::Punct('['))
                | Some(TokKind::Punct('<')) => depth += 1,
                Some(TokKind::Punct(')')) | Some(TokKind::Punct(']')) => depth -= 1,
                Some(TokKind::Punct('>')) if !(j > 0 && self.punct(j - 1, '-')) => depth -= 1,
                Some(TokKind::Punct(':')) if depth == 0 => {
                    // `::` is a path, not the parameter colon.
                    if self.punct(j + 1, ':') || (j > 0 && self.punct(j - 1, ':')) {
                        continue;
                    }
                    colon = Some(j);
                    break;
                }
                _ => {}
            }
        }
        let colon = colon?;
        // Last ident of the pattern (skips `mut`, `ref`).
        let mut name = None;
        for j in (k..colon).rev() {
            if let Some(id) = self.ident(j) {
                if id != "mut" && id != "ref" {
                    name = Some(id.to_string());
                    break;
                }
            } else if self.punct(j, ')') {
                return None; // destructuring pattern
            }
        }
        Some(Param {
            name: name?,
            ty: self.text(colon + 1, hi),
        })
    }

    fn parse_impl(&mut self, k: usize) -> usize {
        let mut j = k + 1;
        if self.punct(j, '<') {
            j = self.skip_generics(j);
        }
        // Collect the head up to `{` (or `;`), honouring a `for` split.
        let mut head_end = j;
        let mut for_at = None;
        let mut depth = 0i32;
        while let Some(t) = self.tok(head_end) {
            match &t.kind {
                TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
                TokKind::Punct(')') | TokKind::Punct(']') => depth -= 1,
                TokKind::Punct('<') => depth += 1,
                TokKind::Punct('>') if !(head_end > 0 && self.punct(head_end - 1, '-')) => {
                    depth -= 1
                }
                TokKind::Ident if t.text == "for" && depth == 0 => for_at = Some(head_end),
                TokKind::Ident if t.text == "where" && depth == 0 => break,
                TokKind::Punct('{') | TokKind::Punct(';') if depth <= 0 => break,
                _ => {}
            }
            head_end += 1;
        }
        let ty_start = for_at.map(|f| f + 1).unwrap_or(j);
        let owner = self.last_path_ident(ty_start, head_end);
        // Advance to the `{`.
        let mut b = head_end;
        while b < self.code.len() && !self.punct(b, '{') {
            if self.punct(b, ';') {
                return b + 1;
            }
            b += 1;
        }
        let end = self.close_of(b);
        self.parse_region(b + 1, end, owner.as_deref());
        end + 1
    }

    fn parse_trait(&mut self, k: usize) -> usize {
        let name = self.ident(k + 1).map(str::to_string);
        let mut b = k + 2;
        while b < self.code.len() && !self.punct(b, '{') {
            if self.punct(b, ';') {
                return b + 1;
            }
            b += 1;
        }
        let end = self.close_of(b);
        self.parse_region(b + 1, end, name.as_deref());
        end + 1
    }

    fn parse_mod(&mut self, k: usize, owner: Option<&str>) -> usize {
        let mut b = k + 2; // past `mod name`
        if self.punct(b, ';') {
            return b + 1;
        }
        if !self.punct(b, '{') {
            while b < self.code.len() && !self.punct(b, '{') && !self.punct(b, ';') {
                b += 1;
            }
            if !self.punct(b, '{') {
                return b + 1;
            }
        }
        let end = self.close_of(b);
        self.parse_region(b + 1, end, owner);
        end + 1
    }

    fn parse_static(&mut self, k: usize) -> usize {
        // `static [mut] NAME : TYPE = …;` (also `const NAME : TYPE = …;`).
        let mut j = k + 1;
        if self.ident(j) == Some("mut") {
            j += 1;
        }
        let Some(name) = self.ident(j).map(str::to_string) else {
            return self.skip_to_semi(k);
        };
        if !self.punct(j + 1, ':') || self.punct(j + 2, ':') {
            return self.skip_to_semi(k);
        }
        let line = self.line(j);
        // Type runs to the top-level `=` (or `;`).
        let mut e = j + 2;
        let mut depth = 0i32;
        while let Some(t) = self.tok(e) {
            match &t.kind {
                TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('<') => depth += 1,
                TokKind::Punct(')') | TokKind::Punct(']') => depth -= 1,
                TokKind::Punct('>') if !(e > 0 && self.punct(e - 1, '-')) => depth -= 1,
                TokKind::Punct('=') | TokKind::Punct(';') if depth <= 0 => break,
                _ => {}
            }
            e += 1;
        }
        self.out.statics.push(StaticDef {
            name,
            ty: self.text(j + 2, e),
            line,
        });
        self.skip_to_semi(e)
    }

    /// The last plain ident of a type path in `lo..hi`, before any
    /// generic arguments: `std :: fmt :: Debug` → `Debug`; `Bar < T >` →
    /// `Bar`; `& mut Admission < '_ >` → `Admission`.
    fn last_path_ident(&self, lo: usize, hi: usize) -> Option<String> {
        let mut last = None;
        let mut k = lo;
        while k < hi {
            match self.tok(k) {
                Some(t) if t.kind == TokKind::Ident => {
                    if t.text != "dyn" && t.text != "mut" && t.text != "where" {
                        last = Some(t.text.clone());
                    }
                    k += 1;
                }
                Some(t) if t.is_punct('<') => {
                    k = self.skip_generics(k);
                }
                Some(_) => k += 1,
                None => break,
            }
        }
        last
    }
}

/// The head identifier of a type text as produced by `Parser::text`:
/// skips `&`, `mut`, `dyn`, `impl`, lifetimes and path prefixes, then
/// returns the last segment of the first path (`"std :: sync :: Mutex <
/// Sched >"` → `Mutex`; `"& 'c AtomicBool"` → `AtomicBool`).
pub fn head_ident(ty: &str) -> Option<&str> {
    let mut head: Option<&str> = None;
    for part in ty.split_whitespace() {
        match part {
            "&" | "mut" | "dyn" | "impl" | ":" | "::" => continue,
            p if p.starts_with('\'') => continue,
            "<" | "(" | "[" | ">" | ")" | "]" | "," | "=" => break,
            p => {
                // Path segments keep replacing the head until the
                // generics open; `::` arrives as two `:` tokens which the
                // `":"` arm above skips.
                if p.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
                    head = Some(p);
                } else {
                    break;
                }
            }
        }
        // Stop once a head is followed by anything but a path separator;
        // handled by the loop's break arms.
    }
    head
}

/// The generic payload of a type text: the span between the first `<` and
/// its matching `>` (`"Arc < Mutex < T > >"` → `"Mutex < T >"`).
pub fn generic_payload(ty: &str) -> Option<String> {
    let parts: Vec<&str> = ty.split_whitespace().collect();
    let open = parts.iter().position(|&p| p == "<")?;
    let mut depth = 0i32;
    for (i, &p) in parts.iter().enumerate().skip(open) {
        if p == "<" {
            depth += 1;
        } else if p == ">" {
            depth -= 1;
            if depth == 0 {
                return parts.get(open + 1..i).map(|s| s.join(" "));
            }
        }
    }
    None
}

/// The *core* type ident after unwrapping reference/smart-pointer
/// wrappers (`Arc`, `Rc`, `Box`, `Option`): `"Arc < Hub >"` → `Hub`;
/// `"& 'c AtomicBool"` → `AtomicBool`; `"Mutex < Sched >"` → `Mutex`.
pub fn core_type(ty: &str) -> Option<String> {
    let mut current = ty.to_string();
    for _ in 0..8 {
        let head = head_ident(&current)?.to_string();
        if matches!(head.as_str(), "Arc" | "Rc" | "Box" | "Option") {
            match generic_payload(&current) {
                Some(inner) => current = inner,
                None => return Some(head),
            }
        } else {
            return Some(head);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn items(src: &str) -> FileItems {
        let tokens = lex(src);
        let scope = FileScope::build(&tokens);
        parse_items(&tokens, &scope)
    }

    /// Table-driven signature cases: generics, where-clauses, trait
    /// impls, nested modules — the shapes the flow analysis must not
    /// trip over.
    #[test]
    fn fn_signatures_parse_across_shapes() {
        struct Case {
            src: &'static str,
            name: &'static str,
            owner: Option<&'static str>,
            params: &'static [(&'static str, &'static str)],
            ret_contains: &'static str,
            has_body: bool,
        }
        let cases = [
            Case {
                src: "fn plain(x: u32) -> u32 { x }",
                name: "plain",
                owner: None,
                params: &[("x", "u32")],
                ret_contains: "u32",
                has_body: true,
            },
            Case {
                src: "fn generic<T: Clone, const N: usize>(v: Vec<T>) -> [T; N] where T: Default { todo!() }",
                name: "generic",
                owner: None,
                params: &[("v", "Vec < T >")],
                ret_contains: "T ; N",
                has_body: true,
            },
            Case {
                src: "impl<'c> Runner<'c> { fn lock(&self) -> MutexGuard<'_, Sched> { self.sched.lock().unwrap() } }",
                name: "lock",
                owner: Some("Runner"),
                params: &[("self", "Runner")],
                ret_contains: "MutexGuard",
                has_body: true,
            },
            Case {
                src: "impl std::fmt::Debug for Hub { fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result { Ok(()) } }",
                name: "fmt",
                owner: Some("Hub"),
                params: &[("self", "Hub"), ("f", "& mut Formatter < '_ >")],
                ret_contains: "Result",
                has_body: true,
            },
            Case {
                src: "mod inner { pub fn nested(a: &str, mut b: u64) {} }",
                name: "nested",
                owner: None,
                params: &[("a", "& str"), ("b", "u64")],
                ret_contains: "",
                has_body: true,
            },
            Case {
                src: "trait Exec { fn run(&mut self, set: &[Test]) -> Result<(), Fail>; }",
                name: "run",
                owner: Some("Exec"),
                params: &[("self", "Exec"), ("set", "& [ Test ]")],
                ret_contains: "Result",
                has_body: false,
            },
            Case {
                src: "impl<T> Wrapper<T> where T: Send { fn map<F: Fn(T) -> T>(self, f: F) -> Wrapper<T> { self } }",
                name: "map",
                owner: Some("Wrapper"),
                params: &[("self", "Wrapper"), ("f", "F")],
                ret_contains: "Wrapper",
                has_body: true,
            },
        ];
        for case in &cases {
            let parsed = items(case.src);
            let f = parsed
                .fns
                .iter()
                .find(|f| f.name == case.name)
                .unwrap_or_else(|| panic!("fn `{}` not parsed from {:?}", case.name, case.src));
            assert_eq!(f.owner.as_deref(), case.owner, "owner of {}", case.name);
            assert_eq!(f.body.is_some(), case.has_body, "body of {}", case.name);
            if !case.ret_contains.is_empty() {
                assert!(
                    f.ret.contains(case.ret_contains),
                    "ret of {}: {:?}",
                    case.name,
                    f.ret
                );
            }
            assert_eq!(
                f.params.len(),
                case.params.len(),
                "params of {}: {:?}",
                case.name,
                f.params
            );
            for (got, want) in f.params.iter().zip(case.params) {
                assert_eq!(got.name, want.0, "param name in {}", case.name);
                assert_eq!(got.ty, want.1, "param type in {}", case.name);
            }
        }
    }

    #[test]
    fn struct_fields_parse_with_generics_and_attributes() {
        let parsed = items(
            r#"
            /// Docs.
            #[derive(Debug)]
            pub struct Hub<T> where T: Send {
                /// The schedule.
                pub(crate) sched: Mutex<Sched>,
                work_cv: Condvar,
                next_id: AtomicU64,
                inner: Arc<Inner<T>>,
            }
            struct Admission<'a>(&'a AtomicUsize);
            struct Unit;
            "#,
        );
        assert_eq!(parsed.structs.len(), 3);
        let hub = &parsed.structs[0];
        assert_eq!(hub.name, "Hub");
        let names: Vec<&str> = hub.fields.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["sched", "work_cv", "next_id", "inner"]);
        assert_eq!(hub.fields[0].ty, "Mutex < Sched >");
        let adm = &parsed.structs[1];
        assert_eq!(adm.name, "Admission");
        assert_eq!(adm.fields.len(), 1);
        assert_eq!(adm.fields[0].name, "0");
        assert!(adm.fields[0].ty.contains("AtomicUsize"));
        assert!(parsed.structs[2].fields.is_empty());
    }

    #[test]
    fn statics_and_consts_are_captured() {
        let parsed = items(
            r#"
            static STATE: Mutex<Option<State>> = Mutex::new(None);
            static FIRED: AtomicU64 = AtomicU64::new(0);
            const LIMIT: usize = 8;
            "#,
        );
        let names: Vec<&str> = parsed.statics.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["STATE", "FIRED", "LIMIT"]);
        assert!(parsed.statics[0].ty.contains("Mutex"));
        assert!(parsed.statics[1].ty.contains("AtomicU64"));
    }

    #[test]
    fn test_region_fns_are_marked() {
        let parsed = items(
            r#"
            fn live() {}
            #[cfg(test)]
            mod tests {
                #[test]
                fn check() {}
            }
            "#,
        );
        let live = parsed.fns.iter().find(|f| f.name == "live").unwrap();
        let check = parsed.fns.iter().find(|f| f.name == "check").unwrap();
        assert!(!live.in_test);
        assert!(check.in_test);
    }

    #[test]
    fn enums_and_macros_do_not_derail_item_scan() {
        let parsed = items(
            r#"
            enum RunState { Running, Done { frame: String }, Failed(String) }
            macro_rules! noisy { ($x:expr) => { { fn not_an_item() {} } }; }
            fn after() {}
            "#,
        );
        assert!(parsed.fns.iter().any(|f| f.name == "after"));
        assert!(!parsed.fns.iter().any(|f| f.name == "not_an_item"));
        assert!(parsed.structs.is_empty());
    }

    #[test]
    fn type_helpers_unwrap_wrappers() {
        assert_eq!(head_ident("Arc < Hub >"), Some("Arc"));
        assert_eq!(core_type("Arc < Hub >").as_deref(), Some("Hub"));
        assert_eq!(core_type("& 'c AtomicBool").as_deref(), Some("AtomicBool"));
        assert_eq!(core_type("Mutex < Sched >").as_deref(), Some("Mutex"));
        assert_eq!(
            core_type("Arc < Mutex < HashMap < String , u64 > > >").as_deref(),
            Some("Mutex")
        );
        assert_eq!(
            generic_payload("Mutex < Vec < JobFailure > >").as_deref(),
            Some("Vec < JobFailure >")
        );
        assert_eq!(
            core_type("std :: sync :: MutexGuard < '_ , Sched >").as_deref(),
            Some("MutexGuard")
        );
    }
}
