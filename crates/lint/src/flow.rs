//! Flow-aware cross-file analysis: lock-order graphs, blocking-under-lock,
//! atomic pairing, and persistence-protocol verification.
//!
//! Built on the item parser ([`crate::items`]): a whole-workspace symbol
//! table (structs with field types, statics, fns with bodies as token
//! ranges) and a name/type-resolved call graph. Four rule families run on
//! top:
//!
//! - **`lock-order`** — every `Mutex`/`RwLock` field is a node; acquiring
//!   `B` while a guard on `A` is live (directly, or through any call whose
//!   transitive lockset contains `B`) adds an edge `A → B`. Any cycle is a
//!   deadlock potential and is reported with the witness path. Unblessable.
//! - **`blocking-under-lock`** — `join()`, socket/file reads and writes,
//!   fsync, and channel `recv` reachable within two call-graph hops while
//!   a guard is live. Blessable with `block-ok`.
//! - **`atomic-pairing`** — atomic accesses are grouped by field name
//!   across the workspace and judged as a whole: a Release-side store with
//!   no Acquire-side load (or vice versa) is a broken pairing; a group
//!   whose every access is Relaxed needs one `ordering-ok` blessing for
//!   the protocol; `SeqCst` still needs a per-site blessing. This replaces
//!   the per-site `atomic-ordering` audit with whole-field reasoning. A
//!   broken pairing on a resolved field or static cannot be blessed:
//!   `ordering-ok` markers justify a Relaxed-only protocol or a `SeqCst`
//!   site, and a marker on a site of an unpaired field must not hide the
//!   field's missing edge. A group keyed by an unresolved receiver's name
//!   (a closure binding such as `w` in `words.iter().map(|w| …)`) may be
//!   a split-off part of a field, so its broken pairing stays blessable.
//! - **`persist-protocol`** — within a fn, a `rename` of a path previously
//!   given to `File::create` must have a `sync_all`/`sync_data` between
//!   create and rename, and a `write_all` must be followed by one before
//!   the fn returns (directly or via one call hop). Blessable with
//!   `persist-ok`, never baselineable.
//!
//! # Soundness model (see DESIGN.md §11)
//!
//! Guard liveness is approximated: a `let`-bound guard lives to the end of
//! its enclosing block or an explicit `drop(name)`; a non-`let` (temporary)
//! acquisition is a zero-extent event. This yields false *negatives* for
//! exotic guard-passing shapes, not false positives. Closure bodies are
//! walked as part of the enclosing fn; condvar `wait`/`wait_timeout` are
//! not blocking (they release the mutex). Receiver resolution is typed
//! where the item parser can see a type (params, `let x: T`, `let x =
//! T::ctor(…)`, `let g = self.field.lock().unwrap();` typed as the mutex
//! payload, `self` fields) and falls back to unique-name lookup; an
//! unresolved receiver produces no event.

use std::collections::{BTreeMap, BTreeSet};

use crate::items::{self, core_type, generic_payload, head_ident, FileItems, FnDef};
use crate::lexer::{lex, TokKind, Token};
use crate::rules::{Finding, RuleSet};
use crate::scope::{AnnKey, FileScope};

/// One input file with its crate, findings label, and rule classes.
pub struct UnitIn<'a> {
    /// Crate name (`dispatch`, `obs`, …) for grouping in messages.
    pub crate_name: &'a str,
    /// Findings label (workspace-relative path).
    pub label: &'a str,
    /// Full source text.
    pub source: &'a str,
    /// Rule classes for this file (crate-derived).
    pub rules: RuleSet,
}

/// The result of one whole-workspace flow pass.
#[derive(Debug, Default)]
pub struct FlowOutput {
    /// Findings from the four flow families, labelled per file; a marker
    /// of the finding's class on its line blesses it.
    pub findings: Vec<Finding>,
    /// Findings no marker blesses (a broken Release/Acquire pairing on a
    /// resolved field or static), labelled per file.
    pub pinned: Vec<Finding>,
    /// `(label, target_line)` of annotations consumed by flow analysis
    /// (atomic sites whose `ordering-ok` markers justify a group), so the
    /// stale-marker pass does not flag them.
    pub consumed: Vec<(String, u32)>,
}

/// Methods that block the calling thread. Condvar waits are excluded by
/// design (they release the mutex while parked); `join` is handled
/// separately because `Path::join` shares the name (a blocking `join`
/// takes no arguments).
const BLOCKING_METHODS: &[&str] = &[
    "recv",
    "recv_timeout",
    "write_all",
    "write_fmt",
    "flush",
    "read_line",
    "read_exact",
    "read_to_end",
    "read_to_string",
    "accept",
    "connect",
    "sync_all",
    "sync_data",
];

const ATOMIC_METHODS: &[&str] = &[
    "load",
    "store",
    "swap",
    "compare_exchange",
    "compare_exchange_weak",
    "fetch_add",
    "fetch_sub",
    "fetch_or",
    "fetch_and",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_nand",
    "fetch_update",
];

const ORDERING_NAMES: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Idents that can precede `(` without being a call.
const CALL_KEYWORDS: &[&str] = &[
    "if", "while", "match", "for", "loop", "return", "in", "let", "else", "move", "break",
    "continue", "as", "ref", "mut", "fn", "impl", "pub", "use", "where", "unsafe", "dyn", "box",
    "await", "yield", "struct", "enum", "trait", "mod", "static", "const", "type",
];

/// `std` module segments that must not trigger by-name call resolution
/// (`thread::spawn` is not our `spawn`).
const STD_MODULES: &[&str] = &[
    "std",
    "core",
    "alloc",
    "mem",
    "fs",
    "thread",
    "io",
    "time",
    "fmt",
    "cmp",
    "iter",
    "slice",
    "str",
    "env",
    "process",
    "ptr",
    "sync",
    "atomic",
    "collections",
    "path",
    "cell",
];

/// How an atomic access touches the field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AccessKind {
    Load,
    Store,
    Rmw,
}

/// One atomic access site: every `(kind, ordering)` pair it performs.
#[derive(Debug, Clone)]
struct AtomicSite {
    group: String,
    /// The group key names a resolved field or static, not the fallback
    /// chain segment (a closure or iterator binding such as `w`).
    resolved: bool,
    accesses: Vec<(AccessKind, String)>,
    file: usize,
    line: u32,
}

/// Linear per-fn event stream for the guard simulation.
#[derive(Debug, Clone)]
enum Ev {
    BraceOpen,
    BraceClose,
    Semi,
    Let(String),
    Drop(String),
    /// `consumed`: the call's result feeds a further method chain
    /// (`.iter()`, `.map(…)`, …), so any guard it produced is a
    /// temporary dying at the statement's end — it must not be promoted
    /// to a let-bound guard even when the statement is a `let`.
    /// Chaining through `unwrap`/`expect`/`unwrap_or_else` preserves the
    /// guard and does not count.
    Acquire {
        lock: String,
        line: u32,
        consumed: bool,
    },
    Call {
        targets: Vec<usize>,
        name: String,
        line: u32,
        consumed: bool,
    },
    Blocking {
        op: String,
        line: u32,
    },
}

/// Persistence events within one fn, in source order.
#[derive(Debug, Clone)]
enum PersistEv {
    Create { path: String, line: u32 },
    Write { line: u32 },
    Sync,
    Rename { path: String, line: u32 },
    Call { targets: Vec<usize> },
}

#[derive(Debug, Default)]
struct FnFacts {
    events: Vec<Ev>,
    persist: Vec<PersistEv>,
    direct_locks: Vec<(String, u32)>,
    blocking: Vec<(String, u32)>,
    calls: Vec<(Vec<usize>, String, u32)>,
    trans_locks: BTreeSet<String>,
    has_sync: bool,
}

struct FileData {
    label: String,
    crate_name: String,
    rules: RuleSet,
    tokens: Vec<Token>,
    code: Vec<usize>,
    scope: FileScope,
    items: FileItems,
    lines: Vec<String>,
}

impl FileData {
    fn snippet(&self, line: u32) -> String {
        self.lines
            .get(line.saturating_sub(1) as usize)
            .cloned()
            .unwrap_or_default()
    }
}

struct Universe {
    files: Vec<FileData>,
    /// `(file, fn)` for every non-test fn, in deterministic order.
    fns: Vec<(usize, FnDef)>,
    /// struct name → fields (merged across same-named structs).
    fields: BTreeMap<String, Vec<(String, String)>>,
    /// static name → (type text, crate name).
    statics: BTreeMap<String, (String, String)>,
    /// fn name → fn indices.
    by_name: BTreeMap<String, Vec<usize>>,
    /// (owner, fn name) → fn indices.
    by_owner: BTreeMap<(String, String), Vec<usize>>,
}

/// Runs the whole-workspace flow analysis over `units`.
pub fn analyze(units: &[UnitIn<'_>]) -> FlowOutput {
    let files: Vec<FileData> = units
        .iter()
        .map(|u| {
            let tokens = lex(u.source);
            let scope = FileScope::build(&tokens);
            let items = items::parse_items(&tokens, &scope);
            let code = items::code_indices(&tokens);
            FileData {
                label: u.label.to_string(),
                crate_name: u.crate_name.to_string(),
                rules: u.rules,
                tokens,
                code,
                scope,
                items,
                lines: u.source.lines().map(|l| l.trim().to_string()).collect(),
            }
        })
        .collect();

    let universe = build_universe(files);
    let mut facts: Vec<FnFacts> = Vec::with_capacity(universe.fns.len());
    let mut sites: Vec<AtomicSite> = Vec::new();
    for idx in 0..universe.fns.len() {
        facts.push(collect_facts(&universe, idx, &mut sites));
    }
    fixpoint_locksets(&universe, &mut facts);

    let mut out = FlowOutput::default();
    lock_and_blocking_pass(&universe, &facts, &mut out);
    atomic_pairing_pass(&universe, &sites, &mut out);
    persist_protocol_pass(&universe, &facts, &mut out);
    for list in [&mut out.findings, &mut out.pinned] {
        list.sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    }
    out
}

fn build_universe(files: Vec<FileData>) -> Universe {
    let mut fns = Vec::new();
    let mut fields: BTreeMap<String, Vec<(String, String)>> = BTreeMap::new();
    let mut statics = BTreeMap::new();
    for (fi, fd) in files.iter().enumerate() {
        for s in &fd.items.structs {
            let entry = fields.entry(s.name.clone()).or_default();
            for f in &s.fields {
                entry.push((f.name.clone(), f.ty.clone()));
            }
        }
        for st in &fd.items.statics {
            statics
                .entry(st.name.clone())
                .or_insert_with(|| (st.ty.clone(), fd.crate_name.clone()));
        }
        for f in &fd.items.fns {
            if !f.in_test {
                fns.push((fi, f.clone()));
            }
        }
    }
    let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    let mut by_owner: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
    for (idx, (_, f)) in fns.iter().enumerate() {
        by_name.entry(f.name.clone()).or_default().push(idx);
        if let Some(owner) = &f.owner {
            by_owner
                .entry((owner.clone(), f.name.clone()))
                .or_default()
                .push(idx);
        }
    }
    Universe {
        files,
        fns,
        fields,
        statics,
        by_name,
        by_owner,
    }
}

impl Universe {
    fn field_ty(&self, owner: &str, field: &str) -> Option<&str> {
        self.fields
            .get(owner)?
            .iter()
            .find(|(n, _)| n == field)
            .map(|(_, t)| t.as_str())
    }

    /// Whether `ret` text says the fn hands back a lock guard.
    fn returns_guard(def: &FnDef) -> bool {
        def.ret.contains("MutexGuard")
            || def.ret.contains("RwLockReadGuard")
            || def.ret.contains("RwLockWriteGuard")
    }

    /// All fns sharing one `(owner, name)` identity with `name` — the
    /// unique-name fallback. `cfg`-duplicated fns (armed/stub pairs) count
    /// as one identity.
    fn unique_by_name(&self, name: &str) -> Vec<usize> {
        let Some(list) = self.by_name.get(name) else {
            return Vec::new();
        };
        let mut idents: BTreeSet<Option<&str>> = BTreeSet::new();
        for &i in list {
            if let Some((_, f)) = self.fns.get(i) {
                idents.insert(f.owner.as_deref());
            }
        }
        if idents.len() == 1 {
            list.clone()
        } else {
            Vec::new()
        }
    }
}

/// What a receiver chain resolves to.
enum Resolved {
    /// Terminal `.field` access: owning struct, field name, field type.
    Field {
        owner: String,
        field: String,
        ty: String,
    },
    /// A value of a known type (from `self`, a param, or a local).
    Typed(String),
    /// A `static` item.
    StaticRef { id: String, ty: String },
}

/// Unwraps container layers (`Arc`/`Box`/`Option` via [`core_type`], plus
/// `Vec`/`VecDeque`/arrays for indexed access) down to the lockable core.
fn lock_core(ty: &str) -> Option<String> {
    let mut cur = ty.to_string();
    for _ in 0..6 {
        let head = core_type(&cur)?;
        if head == "Vec" || head == "VecDeque" {
            cur = generic_payload(&cur)?;
        } else {
            return Some(head);
        }
    }
    None
}

/// The payload of a `Mutex` type behind `Arc`/`Rc`/`Box` layers:
/// `"Arc < Mutex < JsonlFile > >"` → `JsonlFile`.
fn mutex_payload(ty: &str) -> Option<String> {
    let mut cur = ty.to_string();
    for _ in 0..6 {
        match head_ident(&cur)? {
            "Mutex" => return generic_payload(&cur),
            "Arc" | "Rc" | "Box" => cur = generic_payload(&cur)?,
            _ => return None,
        }
    }
    None
}

/// Walks one fn body, producing its event stream, persistence events, and
/// atomic sites.
fn collect_facts(u: &Universe, idx: usize, sites: &mut Vec<AtomicSite>) -> FnFacts {
    let mut facts = FnFacts::default();
    let Some((fi, def)) = u.fns.get(idx) else {
        return facts;
    };
    let Some(fd) = u.files.get(*fi) else {
        return facts;
    };
    let Some((lo, hi)) = def.body else {
        return facts;
    };

    let tok = |k: usize| -> Option<&Token> { fd.code.get(k).and_then(|&i| fd.tokens.get(i)) };
    let ident = |k: usize| -> Option<&str> {
        tok(k).and_then(|t| (t.kind == TokKind::Ident).then_some(t.text.as_str()))
    };
    let punct = |k: usize, c: char| -> bool { tok(k).is_some_and(|t| t.is_punct(c)) };
    let line = |k: usize| -> u32 { tok(k).map(|t| t.line).unwrap_or(0) };
    let match_close = |open: usize| -> usize {
        let mut depth = 0i32;
        let mut k = open;
        while let Some(t) = tok(k) {
            if t.is_punct('(') {
                depth += 1;
            } else if t.is_punct(')') {
                depth -= 1;
                if depth == 0 {
                    return k;
                }
            }
            k += 1;
        }
        k
    };
    let match_open_back = |close: usize| -> usize {
        let mut depth = 0i32;
        let mut k = close;
        loop {
            match tok(k) {
                Some(t) if t.is_punct(']') => depth += 1,
                Some(t) if t.is_punct('[') => {
                    depth -= 1;
                    if depth == 0 {
                        return k;
                    }
                }
                _ => {}
            }
            if k == 0 {
                return 0;
            }
            k -= 1;
        }
    };
    let first_ident_in = |open: usize, close: usize| -> Option<String> {
        (open + 1..close).find_map(|k| match tok(k) {
            Some(t) if t.kind == TokKind::Ident && t.text != "mut" => Some(t.text.clone()),
            _ => None,
        })
    };

    // Environment: param types plus simple `let` type inference.
    let mut env: BTreeMap<String, String> = BTreeMap::new();
    for p in &def.params {
        env.insert(p.name.clone(), p.ty.clone());
    }
    {
        let mut k = lo + 1;
        while k < hi {
            if ident(k) == Some("let") {
                let mut n = k + 1;
                if ident(n) == Some("mut") {
                    n += 1;
                }
                // `let Some ( name ) = opt . as_mut|as_ref ( )` — `name`
                // takes the payload of `opt: Option<T>`.
                let unwrapped = (ident(n) == Some("Some")
                    && punct(n + 1, '(')
                    && punct(n + 3, ')')
                    && punct(n + 4, '=')
                    && punct(n + 6, '.')
                    && matches!(ident(n + 7), Some("as_mut" | "as_ref"))
                    && punct(n + 8, '(')
                    && punct(n + 9, ')'))
                .then(|| Some((ident(n + 2)?, env.get(ident(n + 5)?)?)))
                .flatten()
                .filter(|(_, ty)| head_ident(ty) == Some("Option"))
                .and_then(|(name, ty)| Some((name.to_string(), generic_payload(ty)?)));
                if let Some((name, ty)) = unwrapped {
                    env.insert(name, ty);
                } else if let Some(name) = ident(n).map(str::to_string) {
                    if punct(n + 1, ':') && !punct(n + 2, ':') {
                        // `let name : TYPE =` — type runs to `=` or `;`.
                        let mut e = n + 2;
                        let mut depth = 0i32;
                        while let Some(t) = tok(e) {
                            match &t.kind {
                                TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('<') => {
                                    depth += 1
                                }
                                TokKind::Punct(')') | TokKind::Punct(']') => depth -= 1,
                                TokKind::Punct('>') if !(e > 0 && punct(e - 1, '-')) => depth -= 1,
                                TokKind::Punct('=') | TokKind::Punct(';') if depth <= 0 => break,
                                _ => {}
                            }
                            e += 1;
                        }
                        let ty: Vec<String> = (n + 2..e)
                            .filter_map(|j| tok(j).map(|t| t.text.clone()))
                            .collect();
                        env.insert(name, ty.join(" "));
                    } else if punct(n + 1, '=') {
                        // `let name = self . field . lock ( )` plus at most
                        // one `unwrap`/`expect`/`unwrap_or_else` before the
                        // `;` — the guard derefs to the mutex payload.
                        let guard_end = |open: usize| -> bool {
                            let after = match_close(open) + 1;
                            punct(after, ';')
                                || (punct(after, '.')
                                    && matches!(
                                        ident(after + 1),
                                        Some("unwrap" | "expect" | "unwrap_or_else")
                                    )
                                    && punct(after + 2, '(')
                                    && punct(match_close(after + 2) + 1, ';'))
                        };
                        let guarded = (ident(n + 2) == Some("self")
                            && punct(n + 3, '.')
                            && punct(n + 5, '.')
                            && ident(n + 6) == Some("lock")
                            && punct(n + 7, '(')
                            && guard_end(n + 7))
                        .then(|| ident(n + 4))
                        .flatten()
                        .and_then(|field| u.field_ty(def.owner.as_deref()?, field))
                        .and_then(mutex_payload);
                        if let Some(ty) = guarded {
                            env.insert(name, ty);
                        // `let name = Type :: ctor (` — constructor convention.
                        } else if let Some(t0) = ident(n + 2) {
                            let upper = t0.chars().next().is_some_and(|c| c.is_ascii_uppercase());
                            if punct(n + 3, ':') && punct(n + 4, ':') && punct(n + 6, '(') {
                                if t0 == "Arc" && ident(n + 5) == Some("clone") {
                                    // `Arc::clone(&x)` — copy x's type.
                                    if let Some(src) = first_ident_in(n + 6, match_close(n + 6)) {
                                        if let Some(ty) = env.get(&src).cloned() {
                                            env.insert(name, ty);
                                        }
                                    }
                                } else if upper {
                                    env.insert(name, t0.to_string());
                                }
                            }
                        }
                    }
                }
            }
            k += 1;
        }
    }

    // Backward receiver-chain collection from a method ident at `k`.
    let collect_chain = |k: usize| -> Option<Vec<String>> {
        if k < 2 || !punct(k - 1, '.') {
            return None;
        }
        let mut segs: Vec<String> = Vec::new();
        let mut j = k - 2;
        loop {
            match tok(j) {
                Some(t) if t.is_punct(']') => {
                    let open = match_open_back(j);
                    if open == 0 {
                        return None;
                    }
                    j = open - 1;
                }
                Some(t) if t.kind == TokKind::Ident || t.kind == TokKind::NumLit => {
                    segs.push(t.text.clone());
                    if j >= 2 && punct(j - 1, '.') {
                        j -= 2;
                    } else if j >= 2 && punct(j - 1, ':') && punct(j - 2, ':') {
                        return None; // path root, not a value chain
                    } else {
                        break;
                    }
                }
                _ => return None,
            }
        }
        segs.reverse();
        Some(segs)
    };

    let resolve_chain = |segs: &[String]| -> Option<Resolved> {
        let first = segs.first()?;
        let mut cur_ty: String = if first == "self" {
            def.owner.clone()?
        } else if let Some(t) = env.get(first.as_str()) {
            t.clone()
        } else if let Some((ty, cr)) = u.statics.get(first.as_str()) {
            if segs.len() == 1 {
                return Some(Resolved::StaticRef {
                    id: format!("{cr}::{first}"),
                    ty: ty.clone(),
                });
            }
            ty.clone()
        } else {
            return None;
        };
        if segs.len() == 1 {
            return Some(Resolved::Typed(cur_ty));
        }
        for (i, seg) in segs.iter().enumerate().skip(1) {
            let owner_t = core_type(&cur_ty)?;
            let fld_ty = u.field_ty(&owner_t, seg)?.to_string();
            if i + 1 == segs.len() {
                return Some(Resolved::Field {
                    owner: owner_t,
                    field: seg.clone(),
                    ty: fld_ty,
                });
            }
            cur_ty = fld_ty;
        }
        None
    };

    // Whether the value produced at the call closing at `close` is fed
    // into a further method chain (so a produced guard is a temporary
    // dying at the statement's end). `unwrap`/`expect`/`unwrap_or_else`
    // hand the guard through and do not count as consumption.
    let chain_consumes = |close: usize| -> bool {
        let mut j = close;
        loop {
            if !punct(j + 1, '.') {
                return false;
            }
            match ident(j + 2) {
                Some("unwrap" | "expect" | "unwrap_or_else") if punct(j + 3, '(') => {
                    j = match_close(j + 3);
                }
                _ => return true,
            }
        }
    };

    // Orderings named inside a call's parens (strict `Ordering::X` form).
    let orderings_in = |open: usize, close: usize| -> Vec<String> {
        let mut out = Vec::new();
        for j in open..close {
            if ident(j) == Some("Ordering") && punct(j + 1, ':') && punct(j + 2, ':') {
                if let Some(o) = ident(j + 3) {
                    if ORDERING_NAMES.contains(&o) {
                        out.push(o.to_string());
                    }
                }
            }
        }
        out
    };

    let mut k = lo + 1;
    while k < hi {
        let Some(t) = tok(k) else {
            break;
        };
        match &t.kind {
            TokKind::Punct('{') => facts.events.push(Ev::BraceOpen),
            TokKind::Punct('}') => facts.events.push(Ev::BraceClose),
            TokKind::Punct(';') => facts.events.push(Ev::Semi),
            TokKind::Ident if t.text == "let" => {
                let mut n = k + 1;
                while matches!(ident(n), Some("mut")) || punct(n, '(') {
                    n += 1;
                }
                if let Some(name) = ident(n) {
                    facts.events.push(Ev::Let(name.to_string()));
                }
            }
            TokKind::Ident if t.text == "drop" && punct(k + 1, '(') && punct(k + 3, ')') => {
                if let Some(name) = ident(k + 2) {
                    facts.events.push(Ev::Drop(name.to_string()));
                }
            }
            TokKind::Ident if punct(k + 1, '(') && !CALL_KEYWORDS.contains(&t.text.as_str()) => {
                let m = t.text.clone();
                let ln = line(k);
                let close = match_close(k + 1);
                if punct(k - 1, '.') {
                    // --- method site ---
                    let chain = collect_chain(k);
                    let resolved = chain.as_deref().and_then(resolve_chain);
                    if ATOMIC_METHODS.contains(&m.as_str()) {
                        let ords = orderings_in(k + 2, close);
                        if !ords.is_empty() {
                            let group = atomic_group(&resolved, chain.as_deref());
                            if let Some((group, resolved)) = group {
                                sites.push(AtomicSite {
                                    group,
                                    resolved,
                                    accesses: classify_accesses(&m, &ords),
                                    file: *fi,
                                    line: ln,
                                });
                            }
                            k += 1;
                            continue;
                        }
                    }
                    // Lock acquisition on a Mutex/RwLock field or static.
                    let mut acquired = false;
                    if m == "lock" || m == "read" || m == "write" {
                        let want = if m == "lock" { "Mutex" } else { "RwLock" };
                        let lock_id = match &resolved {
                            Some(Resolved::Field { owner, field, ty }) => {
                                (lock_core(ty).as_deref() == Some(want))
                                    .then(|| format!("{owner}.{field}"))
                            }
                            Some(Resolved::StaticRef { id, ty }) => {
                                (lock_core(ty).as_deref() == Some(want)).then(|| id.clone())
                            }
                            _ => None,
                        };
                        if let Some(lock) = lock_id {
                            if !facts.direct_locks.iter().any(|(l, _)| *l == lock) {
                                facts.direct_locks.push((lock.clone(), ln));
                            }
                            facts.events.push(Ev::Acquire {
                                lock,
                                line: ln,
                                consumed: chain_consumes(close),
                            });
                            acquired = true;
                        }
                    }
                    if !acquired {
                        // Method call resolution: typed receiver, then
                        // unique-name fallback, then blocking ops.
                        let recv_core = match &resolved {
                            Some(Resolved::Typed(ty)) | Some(Resolved::Field { ty, .. }) => {
                                core_type(ty)
                            }
                            _ => None,
                        };
                        let targets = recv_core
                            .and_then(|c| u.by_owner.get(&(c, m.clone())).cloned())
                            .unwrap_or_else(|| u.unique_by_name(&m));
                        if !targets.is_empty() {
                            facts.calls.push((targets.clone(), m.clone(), ln));
                            facts.events.push(Ev::Call {
                                targets: targets.clone(),
                                name: m.clone(),
                                line: ln,
                                consumed: chain_consumes(close),
                            });
                            facts.persist.push(PersistEv::Call { targets });
                        } else if (m == "join" && punct(k + 2, ')'))
                            || BLOCKING_METHODS.contains(&m.as_str())
                        {
                            facts.blocking.push((m.clone(), ln));
                            facts.events.push(Ev::Blocking {
                                op: m.clone(),
                                line: ln,
                            });
                            if m == "sync_all" || m == "sync_data" {
                                facts.has_sync = true;
                                facts.persist.push(PersistEv::Sync);
                            } else if m == "write_all" {
                                facts.persist.push(PersistEv::Write { line: ln });
                            }
                        }
                    }
                } else if k >= 2 && punct(k - 1, ':') && punct(k - 2, ':') {
                    // --- path call `Qual :: m ( … )` ---
                    let qual = if k >= 3 { ident(k - 3) } else { None };
                    if qual == Some("File") && m == "create" {
                        if let Some(path) = first_ident_in(k + 1, close) {
                            facts.persist.push(PersistEv::Create { path, line: ln });
                        }
                    } else if m == "rename" {
                        if let Some(path) = first_ident_in(k + 1, close) {
                            facts.persist.push(PersistEv::Rename { path, line: ln });
                        }
                    } else if m == "sleep" {
                        facts.blocking.push(("sleep".to_string(), ln));
                        facts.events.push(Ev::Blocking {
                            op: "sleep".to_string(),
                            line: ln,
                        });
                    } else {
                        let targets = match qual {
                            Some(q)
                                if u.fields.contains_key(q)
                                    || u.by_owner.contains_key(&(q.to_string(), m.clone())) =>
                            {
                                u.by_owner
                                    .get(&(q.to_string(), m.clone()))
                                    .cloned()
                                    .unwrap_or_default()
                            }
                            Some(q) if !STD_MODULES.contains(&q) => u.unique_by_name(&m),
                            _ => Vec::new(),
                        };
                        if !targets.is_empty() {
                            facts.calls.push((targets.clone(), m.clone(), ln));
                            facts.events.push(Ev::Call {
                                targets: targets.clone(),
                                name: m.clone(),
                                line: ln,
                                consumed: chain_consumes(close),
                            });
                            facts.persist.push(PersistEv::Call { targets });
                        }
                    }
                } else if !(k >= 1 && punct(k - 1, '!')) {
                    // --- free call `m ( … )` (not a macro bang) ---
                    if m == "rename" {
                        if let Some(path) = first_ident_in(k + 1, close) {
                            facts.persist.push(PersistEv::Rename { path, line: ln });
                        }
                    }
                    let targets: Vec<usize> = u
                        .by_name
                        .get(&m)
                        .map(|list| {
                            list.iter()
                                .copied()
                                .filter(|&i| u.fns.get(i).is_some_and(|(_, f)| f.owner.is_none()))
                                .collect()
                        })
                        .unwrap_or_default();
                    if !targets.is_empty() {
                        facts.calls.push((targets.clone(), m.clone(), ln));
                        facts.events.push(Ev::Call {
                            targets: targets.clone(),
                            name: m.clone(),
                            line: ln,
                            consumed: chain_consumes(close),
                        });
                        facts.persist.push(PersistEv::Call { targets });
                    }
                }
            }
            _ => {}
        }
        k += 1;
    }
    facts
}

/// Group key for an atomic site: the resolved field/static name, falling
/// back to the chain's terminal segment. Grouping is by *name* across the
/// workspace so a field and the `&AtomicBool` params it is lent to land in
/// one group. The flag is true when the key came from a resolved field or
/// static.
fn atomic_group(resolved: &Option<Resolved>, chain: Option<&[String]>) -> Option<(String, bool)> {
    match resolved {
        Some(Resolved::Field { field, .. }) => Some((field.clone(), true)),
        Some(Resolved::StaticRef { id, .. }) => Some((id.clone(), true)),
        _ => chain.and_then(|c| c.last().cloned()).map(|g| (g, false)),
    }
}

/// Maps a method + its `Ordering` arguments to `(kind, ordering)` pairs.
fn classify_accesses(method: &str, ords: &[String]) -> Vec<(AccessKind, String)> {
    let first = ords.first().cloned().unwrap_or_default();
    match method {
        "load" => vec![(AccessKind::Load, first)],
        "store" => vec![(AccessKind::Store, first)],
        "compare_exchange" | "compare_exchange_weak" | "fetch_update" => {
            let mut out = vec![(AccessKind::Rmw, first)];
            if let Some(fail) = ords.get(1) {
                out.push((AccessKind::Load, fail.clone()));
            }
            out
        }
        _ => vec![(AccessKind::Rmw, first)],
    }
}

/// Transitive lockset fixpoint: `trans(f) = direct(f) ∪ ⋃ trans(callees)`.
fn fixpoint_locksets(u: &Universe, facts: &mut [FnFacts]) {
    for f in facts.iter_mut() {
        f.trans_locks = f.direct_locks.iter().map(|(l, _)| l.clone()).collect();
    }
    let _ = u;
    loop {
        let mut changed = false;
        for i in 0..facts.len() {
            let calls = facts.get(i).map(|f| f.calls.clone()).unwrap_or_default();
            let mut add: BTreeSet<String> = BTreeSet::new();
            for (targets, _, _) in &calls {
                for &t in targets {
                    if let Some(tf) = facts.get(t) {
                        add.extend(tf.trans_locks.iter().cloned());
                    }
                }
            }
            if let Some(f) = facts.get_mut(i) {
                let before = f.trans_locks.len();
                f.trans_locks.extend(add);
                if f.trans_locks.len() != before {
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
}

/// Blocking ops reachable from `targets` within two hops, with a witness
/// chain for each.
fn blocking_within(u: &Universe, facts: &[FnFacts], targets: &[usize]) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for &t in targets {
        let (Some((fi, def)), Some(tf)) = (u.fns.get(t), facts.get(t)) else {
            continue;
        };
        let label = u.files.get(*fi).map(|f| f.label.as_str()).unwrap_or("?");
        for (op, ln) in &tf.blocking {
            out.push((
                op.clone(),
                format!("`{}` blocks at `{op}` ({label}:{ln})", def.name),
            ));
        }
        for (targets2, name2, _) in &tf.calls {
            for &t2 in targets2 {
                let (Some((fi2, _)), Some(tf2)) = (u.fns.get(t2), facts.get(t2)) else {
                    continue;
                };
                let label2 = u.files.get(*fi2).map(|f| f.label.as_str()).unwrap_or("?");
                for (op, ln) in &tf2.blocking {
                    out.push((
                        op.clone(),
                        format!(
                            "`{}` calls `{name2}` which blocks at `{op}` ({label2}:{ln})",
                            def.name
                        ),
                    ));
                }
            }
        }
    }
    out
}

#[derive(Debug, Clone)]
struct LiveGuard {
    name: Option<String>,
    locks: Vec<(String, u32)>,
    depth: u32,
}

#[derive(Debug, Clone)]
struct EdgeInfo {
    file: String,
    line: u32,
    witness: String,
}

/// The guard simulation: walks each fn's event stream tracking live
/// guards, emitting lock-order edges and blocking-under-lock findings.
fn lock_and_blocking_pass(u: &Universe, facts: &[FnFacts], out: &mut FlowOutput) {
    let mut edges: BTreeMap<(String, String), EdgeInfo> = BTreeMap::new();
    for (idx, (fi, def)) in u.fns.iter().enumerate() {
        let Some(fd) = u.files.get(*fi) else {
            continue;
        };
        if !fd.rules.conc {
            continue;
        }
        let Some(f) = facts.get(idx) else {
            continue;
        };
        let mut guards: Vec<LiveGuard> = Vec::new();
        // Statement-scoped acquisitions: (lock, line, consumed-by-chain).
        let mut stmt_locks: Vec<(String, u32, bool)> = Vec::new();
        let mut stmt_let: Option<String> = None;
        let mut depth: u32 = 0;

        let held = |guards: &[LiveGuard], stmt: &[(String, u32, bool)]| -> Vec<(String, u32)> {
            let mut h: Vec<(String, u32)> = Vec::new();
            for g in guards {
                h.extend(g.locks.iter().cloned());
            }
            h.extend(stmt.iter().map(|(l, since, _)| (l.clone(), *since)));
            h
        };

        for ev in &f.events {
            match ev {
                Ev::BraceOpen => {
                    depth += 1;
                    stmt_locks.clear();
                }
                Ev::BraceClose => {
                    guards.retain(|g| g.depth < depth);
                    depth = depth.saturating_sub(1);
                    stmt_locks.clear();
                    stmt_let = None;
                }
                Ev::Semi => {
                    if let Some(name) = stmt_let.take() {
                        let kept: Vec<(String, u32)> = stmt_locks
                            .iter()
                            .filter(|(_, _, consumed)| !consumed)
                            .map(|(l, since, _)| (l.clone(), *since))
                            .collect();
                        if !kept.is_empty() {
                            guards.push(LiveGuard {
                                name: Some(name),
                                locks: kept,
                                depth,
                            });
                        }
                    }
                    stmt_locks.clear();
                }
                Ev::Let(name) => stmt_let = Some(name.clone()),
                Ev::Drop(name) => {
                    guards.retain(|g| g.name.as_deref() != Some(name.as_str()));
                }
                Ev::Acquire {
                    lock,
                    line,
                    consumed,
                } => {
                    for (h, since) in held(&guards, &stmt_locks) {
                        if h != *lock {
                            edges.entry((h.clone(), lock.clone())).or_insert(EdgeInfo {
                                file: fd.label.clone(),
                                line: *line,
                                witness: format!(
                                    "{}:{line} `{}` acquires `{lock}` while holding `{h}` (held since line {since})",
                                    fd.label, def.name
                                ),
                            });
                        }
                    }
                    stmt_locks.push((lock.clone(), *line, *consumed));
                }
                Ev::Call {
                    targets,
                    name,
                    line,
                    consumed,
                } => {
                    let held_now = held(&guards, &stmt_locks);
                    let mut callee_locks: BTreeSet<String> = BTreeSet::new();
                    let mut guard_ret: Vec<(String, u32)> = Vec::new();
                    for &t in targets {
                        if let (Some((_, tdef)), Some(tf)) = (u.fns.get(t), facts.get(t)) {
                            callee_locks.extend(tf.trans_locks.iter().cloned());
                            if Universe::returns_guard(tdef) {
                                guard_ret.extend(
                                    tf.direct_locks.iter().map(|(l, _)| (l.clone(), *line)),
                                );
                            }
                        }
                    }
                    for (h, since) in &held_now {
                        for l in &callee_locks {
                            edges.entry((h.clone(), l.clone())).or_insert(EdgeInfo {
                                file: fd.label.clone(),
                                line: *line,
                                witness: format!(
                                    "{}:{line} `{}` calls `{name}` (acquires `{l}`) while holding `{h}` (held since line {since})",
                                    fd.label, def.name
                                ),
                            });
                        }
                    }
                    if !held_now.is_empty() {
                        let blocked = blocking_within(u, facts, targets);
                        if let Some((op, chain)) = blocked.first() {
                            let locks: Vec<&str> =
                                held_now.iter().map(|(l, _)| l.as_str()).collect();
                            out.findings.push(Finding {
                                rule: "blocking-under-lock".to_string(),
                                file: fd.label.clone(),
                                line: *line,
                                snippet: fd.snippet(*line),
                                message: format!(
                                    "call to `{name}` reaches blocking `{op}` within 2 hops while `{}` is held — blocking under a lock stalls every contender",
                                    locks.join("`, `")
                                ),
                                witness: vec![chain.clone()],
                            });
                        }
                    }
                    if !guard_ret.is_empty() {
                        stmt_locks.extend(
                            guard_ret
                                .into_iter()
                                .map(|(l, since)| (l, since, *consumed)),
                        );
                    }
                }
                Ev::Blocking { op, line } => {
                    let held_now = held(&guards, &stmt_locks);
                    if !held_now.is_empty() {
                        let locks: Vec<String> = held_now
                            .iter()
                            .map(|(l, since)| format!("`{l}` (held since line {since})"))
                            .collect();
                        out.findings.push(Finding {
                            rule: "blocking-under-lock".to_string(),
                            file: fd.label.clone(),
                            line: *line,
                            snippet: fd.snippet(*line),
                            message: format!(
                                "blocking `{op}` while holding {} — blocking under a lock stalls every contender",
                                locks.join(", ")
                            ),
                            witness: Vec::new(),
                        });
                    }
                }
            }
        }
    }
    report_cycles(&edges, out);
}

/// DFS cycle detection over the lock-order graph; each distinct cycle is
/// one finding carrying the full witness path.
fn report_cycles(edges: &BTreeMap<(String, String), EdgeInfo>, out: &mut FlowOutput) {
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (from, to) in edges.keys() {
        adj.entry(from.as_str()).or_default().push(to.as_str());
        adj.entry(to.as_str()).or_default();
    }
    let mut seen_cycles: BTreeSet<String> = BTreeSet::new();
    let mut done: BTreeSet<&str> = BTreeSet::new();
    for &start in adj.keys().collect::<Vec<_>>().iter() {
        if done.contains(start) {
            continue;
        }
        // Iterative DFS with an explicit path stack.
        let mut path: Vec<&str> = vec![start];
        let mut iters: Vec<usize> = vec![0];
        while let (Some(&node), Some(&i)) = (path.last(), iters.last()) {
            let next = adj.get(node).and_then(|v| v.get(i)).copied();
            match next {
                Some(t) => {
                    if let Some(last) = iters.last_mut() {
                        *last += 1;
                    }
                    if let Some(pos) = path.iter().position(|&n| n == t) {
                        // Cycle: path[pos..] + t. Canonicalize rotation.
                        let cycle: Vec<&str> =
                            path.get(pos..).map(|s| s.to_vec()).unwrap_or_default();
                        record_cycle(&cycle, edges, &mut seen_cycles, out);
                    } else if !done.contains(t) {
                        path.push(t);
                        iters.push(0);
                    }
                }
                None => {
                    done.insert(node);
                    path.pop();
                    iters.pop();
                }
            }
        }
    }
}

fn record_cycle(
    cycle: &[&str],
    edges: &BTreeMap<(String, String), EdgeInfo>,
    seen: &mut BTreeSet<String>,
    out: &mut FlowOutput,
) {
    if cycle.is_empty() {
        return;
    }
    // Rotate so the lexicographically smallest node leads.
    let min_pos = cycle
        .iter()
        .enumerate()
        .min_by_key(|(_, n)| **n)
        .map(|(i, _)| i)
        .unwrap_or(0);
    let rotated: Vec<&str> = cycle
        .iter()
        .cycle()
        .skip(min_pos)
        .take(cycle.len())
        .copied()
        .collect();
    let key = rotated.join(" → ");
    if !seen.insert(key.clone()) {
        return;
    }
    let mut witness = Vec::new();
    let mut anchor: Option<&EdgeInfo> = None;
    for (i, from) in rotated.iter().enumerate() {
        let to = rotated
            .get((i + 1) % rotated.len())
            .copied()
            .unwrap_or(from);
        if let Some(info) = edges.get(&(from.to_string(), to.to_string())) {
            witness.push(info.witness.clone());
            if anchor.is_none() {
                anchor = Some(info);
            }
        }
    }
    let (file, line, snippet) = anchor
        .map(|a| (a.file.clone(), a.line, String::new()))
        .unwrap_or_default();
    out.findings.push(Finding {
        rule: "lock-order".to_string(),
        file,
        line,
        snippet,
        message: format!(
            "lock-order cycle: {key} → {} (deadlock potential)",
            rotated.first().copied().unwrap_or("?")
        ),
        witness,
    });
}

/// Whole-field atomic reasoning over the collected sites.
fn atomic_pairing_pass(u: &Universe, sites: &[AtomicSite], out: &mut FlowOutput) {
    let mut groups: BTreeMap<&str, Vec<&AtomicSite>> = BTreeMap::new();
    for s in sites {
        groups.entry(s.group.as_str()).or_default().push(s);
    }
    for (name, group) in &groups {
        let mut sorted: Vec<&&AtomicSite> = group.iter().collect();
        sorted.sort_by(|a, b| {
            let la = u.files.get(a.file).map(|f| f.label.as_str()).unwrap_or("");
            let lb = u.files.get(b.file).map(|f| f.label.as_str()).unwrap_or("");
            (la, a.line).cmp(&(lb, b.line))
        });
        let all: Vec<&(AccessKind, String)> =
            sorted.iter().flat_map(|s| s.accesses.iter()).collect();
        let relaxed_only = all.iter().all(|(_, o)| o == "Relaxed");
        let rel_side = |o: &str| matches!(o, "Release" | "AcqRel" | "SeqCst");
        let acq_side = |o: &str| matches!(o, "Acquire" | "AcqRel" | "SeqCst");
        let has_rel_store = all.iter().any(|(k, o)| {
            (*k == AccessKind::Store && rel_side(o)) || (*k == AccessKind::Rmw && rel_side(o))
        });
        let has_acq_load = all.iter().any(|(k, o)| {
            (*k == AccessKind::Load && acq_side(o)) || (*k == AccessKind::Rmw && acq_side(o))
        });
        // Consume every ordering-ok marker targeting a site of this group.
        let mut blessed_somewhere = false;
        for s in &sorted {
            if let Some(fd) = u.files.get(s.file) {
                for a in &fd.scope.annotations {
                    if a.key == AnnKey::OrderingOk && a.target_line == s.line {
                        blessed_somewhere = true;
                        out.consumed.push((fd.label.clone(), a.target_line));
                    }
                }
            }
        }
        let site_list = |sites: &[&&AtomicSite]| -> Vec<String> {
            sites
                .iter()
                .map(|s| {
                    let label = u.files.get(s.file).map(|f| f.label.as_str()).unwrap_or("?");
                    let ords: Vec<String> = s
                        .accesses
                        .iter()
                        .map(|(k, o)| format!("{k:?}/{o}"))
                        .collect();
                    format!("{label}:{} {}", s.line, ords.join(","))
                })
                .collect()
        };
        // A blessable finding lands in `findings`. A broken pairing on a
        // resolved field or static lands in `pinned`; one on a group keyed
        // by a fallback binding name stays blessable, since the parser may
        // have split a field's sites across names.
        let pin_broken = sorted.iter().any(|s| s.resolved);
        let emit =
            |list: &mut Vec<Finding>, site: &AtomicSite, message: String, witness: Vec<String>| {
                let Some(fd) = u.files.get(site.file) else {
                    return;
                };
                if !fd.rules.atomics {
                    return;
                }
                list.push(Finding {
                    rule: "atomic-pairing".to_string(),
                    file: fd.label.clone(),
                    line: site.line,
                    snippet: fd.snippet(site.line),
                    message,
                    witness,
                });
            };
        if relaxed_only {
            if !blessed_somewhere {
                if let Some(first) = sorted.first() {
                    emit(
                        &mut out.findings,
                        first,
                        format!(
                            "atomic field `{name}` is accessed only with `Relaxed` ({} site(s)) — bless one site with ordering-ok describing the protocol, or strengthen an edge",
                            sorted.len()
                        ),
                        site_list(&sorted),
                    );
                }
            }
        } else {
            if has_rel_store && !has_acq_load {
                let first = sorted.iter().find(|s| {
                    s.accesses
                        .iter()
                        .any(|(k, o)| *k != AccessKind::Load && rel_side(o))
                });
                if let Some(site) = first {
                    emit(
                        if pin_broken {
                            &mut out.pinned
                        } else {
                            &mut out.findings
                        },
                        site,
                        format!(
                            "atomic field `{name}` has a Release-side store but no Acquire-side load pairs with it — the release fence orders nothing"
                        ),
                        site_list(&sorted),
                    );
                }
            }
            if has_acq_load && !has_rel_store {
                let first = sorted.iter().find(|s| {
                    s.accesses
                        .iter()
                        .any(|(k, o)| *k != AccessKind::Store && acq_side(o))
                });
                if let Some(site) = first {
                    emit(
                        if pin_broken {
                            &mut out.pinned
                        } else {
                            &mut out.findings
                        },
                        site,
                        format!(
                            "atomic field `{name}` has an Acquire-side load but no Release-side store pairs with it — the acquire fence orders nothing"
                        ),
                        site_list(&sorted),
                    );
                }
            }
            for s in &sorted {
                if s.accesses.iter().any(|(_, o)| o == "SeqCst") {
                    emit(
                        &mut out.findings,
                        s,
                        format!(
                            "`SeqCst` access on atomic field `{name}` — state why sequential consistency is required (ordering-ok) or relax to Acquire/Release"
                        ),
                        Vec::new(),
                    );
                }
            }
        }
    }
}

/// Per-fn create → fsync → rename and write → fsync protocol
/// verification.
fn persist_protocol_pass(u: &Universe, facts: &[FnFacts], out: &mut FlowOutput) {
    for (idx, (fi, def)) in u.fns.iter().enumerate() {
        let Some(fd) = u.files.get(*fi) else {
            continue;
        };
        if !fd.rules.persist {
            continue;
        }
        let Some(f) = facts.get(idx) else {
            continue;
        };
        let is_sync = |e: &PersistEv| match e {
            PersistEv::Sync => true,
            PersistEv::Call { targets, .. } => targets
                .iter()
                .any(|&t| facts.get(t).is_some_and(|tf| tf.has_sync)),
            _ => false,
        };
        for (wp, ev) in f.persist.iter().enumerate() {
            let PersistEv::Write { line } = ev else {
                continue;
            };
            if !f.persist.iter().skip(wp + 1).any(is_sync) {
                out.findings.push(Finding {
                    rule: "persist-protocol".to_string(),
                    file: fd.label.clone(),
                    line: *line,
                    snippet: fd.snippet(*line),
                    message: format!(
                        "`{}` writes with `write_all` and never reaches a `sync_all`/`sync_data` after it — a crash can lose a record its caller counts as durable",
                        def.name
                    ),
                    witness: vec![format!(
                        "{}:{line} write_all → end of `{}` without fsync",
                        fd.label, def.name
                    )],
                });
            }
        }
        for (rp, ev) in f.persist.iter().enumerate() {
            let PersistEv::Rename { path, line } = ev else {
                continue;
            };
            let Some(cp) = f
                .persist
                .iter()
                .take(rp)
                .position(|e| matches!(e, PersistEv::Create { path: p, .. } if p == path))
            else {
                continue;
            };
            let create_line = match f.persist.get(cp) {
                Some(PersistEv::Create { line, .. }) => *line,
                _ => 0,
            };
            let synced = f.persist.iter().take(rp).skip(cp + 1).any(is_sync);
            if !synced {
                out.findings.push(Finding {
                    rule: "persist-protocol".to_string(),
                    file: fd.label.clone(),
                    line: *line,
                    snippet: fd.snippet(*line),
                    message: format!(
                        "`{}` renames `{path}` (created at line {create_line}) without a `sync_all`/`sync_data` in between — a crash can publish an empty or torn file",
                        def.name
                    ),
                    witness: vec![format!(
                        "{}:{create_line} File::create(&{path}) → {}:{line} rename without fsync on any path",
                        fd.label, fd.label
                    )],
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(srcs: &[(&str, &str)]) -> FlowOutput {
        let rules = RuleSet::all();
        let units: Vec<UnitIn<'_>> = srcs
            .iter()
            .map(|(label, src)| UnitIn {
                crate_name: "dispatch",
                label,
                source: src,
                rules,
            })
            .collect();
        analyze(&units)
    }

    fn rules_found(out: &FlowOutput) -> Vec<&str> {
        out.findings
            .iter()
            .chain(&out.pinned)
            .map(|f| f.rule.as_str())
            .collect()
    }

    #[test]
    fn lock_inversion_across_fns_is_a_cycle_with_witness() {
        let src = r#"
            struct Hub { sched: Mutex<Sched>, failures: Mutex<Vec<u32>> }
            impl Hub {
                fn forward(&self) {
                    let s = self.sched.lock().unwrap();
                    let f = self.failures.lock().unwrap();
                    drop(f);
                    drop(s);
                }
                fn backward(&self) {
                    let f = self.failures.lock().unwrap();
                    let s = self.sched.lock().unwrap();
                    drop(s);
                    drop(f);
                }
            }
        "#;
        let out = run(&[("shared.rs", src)]);
        assert!(
            rules_found(&out).contains(&"lock-order"),
            "{:?}",
            out.findings
        );
        let f = out
            .findings
            .iter()
            .find(|f| f.rule == "lock-order")
            .unwrap();
        assert!(f.message.contains("Hub.sched"), "{}", f.message);
        assert!(f.message.contains("Hub.failures"), "{}", f.message);
        assert!(!f.witness.is_empty(), "cycle carries a witness path");
    }

    #[test]
    fn consistent_order_and_scoped_guards_are_clean() {
        let src = r#"
            struct Hub { sched: Mutex<Sched>, failures: Mutex<Vec<u32>> }
            impl Hub {
                fn forward(&self) {
                    let s = self.sched.lock().unwrap();
                    let f = self.failures.lock().unwrap();
                    drop(f);
                    drop(s);
                }
                fn scoped(&self) {
                    {
                        let s = self.sched.lock().unwrap();
                        use_it(&s);
                    }
                    let f = self.failures.lock().unwrap();
                    use_it(&f);
                }
                fn instant(&self) {
                    self.failures.lock().unwrap().push(1);
                    let s = self.sched.lock().unwrap();
                    use_it(&s);
                }
            }
        "#;
        let out = run(&[("shared.rs", src)]);
        assert!(
            !rules_found(&out).contains(&"lock-order"),
            "{:?}",
            out.findings
        );
    }

    #[test]
    fn inversion_through_a_call_is_seen_interprocedurally() {
        let src = r#"
            struct Hub { a: Mutex<u32>, b: Mutex<u32> }
            impl Hub {
                fn takes_b(&self) {
                    let g = self.b.lock().unwrap();
                    use_it(&g);
                }
                fn a_then_b(&self) {
                    let g = self.a.lock().unwrap();
                    self.takes_b();
                    drop(g);
                }
                fn b_then_a(&self) {
                    let g = self.b.lock().unwrap();
                    let h = self.a.lock().unwrap();
                    drop(h);
                    drop(g);
                }
            }
        "#;
        let out = run(&[("shared.rs", src)]);
        assert!(
            rules_found(&out).contains(&"lock-order"),
            "{:?}",
            out.findings
        );
    }

    #[test]
    fn guard_returning_helper_propagates_its_lock() {
        let src = r#"
            struct Inner { registry: Mutex<Registry> }
            struct Other { map: Mutex<Map> }
            impl Inner {
                fn lock(&self) -> std::sync::MutexGuard<'_, Registry> {
                    self.registry.lock().unwrap()
                }
            }
            fn bad(inner: &Inner, other: &Other) {
                let m = other.map.lock().unwrap();
                let r = inner.lock();
                drop(r);
                drop(m);
            }
            fn also_bad(inner: &Inner, other: &Other) {
                let r = inner.lock();
                let m = other.map.lock().unwrap();
                drop(m);
                drop(r);
            }
        "#;
        let out = run(&[("watchdog.rs", src)]);
        let f = out.findings.iter().find(|f| f.rule == "lock-order");
        assert!(f.is_some(), "{:?}", out.findings);
        assert!(
            f.unwrap().message.contains("Inner.registry"),
            "{:?}",
            f.unwrap().message
        );
    }

    #[test]
    fn join_under_guard_is_blocking_and_scoped_join_is_not() {
        let src = r#"
            struct Hub { sched: Mutex<Sched> }
            impl Hub {
                fn bad(&self, h: std::thread::JoinHandle<()>) {
                    let s = self.sched.lock().unwrap();
                    let _ = h.join();
                    drop(s);
                }
                fn good(&self, h: std::thread::JoinHandle<()>) {
                    {
                        let s = self.sched.lock().unwrap();
                        use_it(&s);
                    }
                    let _ = h.join();
                }
                fn path_join_is_fine(&self, p: &std::path::Path) {
                    let s = self.sched.lock().unwrap();
                    let q = p.join("file");
                    drop(s);
                    use_it(&q);
                }
            }
        "#;
        let out = run(&[("shared.rs", src)]);
        let blocks: Vec<&Finding> = out
            .findings
            .iter()
            .filter(|f| f.rule == "blocking-under-lock")
            .collect();
        assert_eq!(blocks.len(), 1, "{:?}", out.findings);
        assert!(blocks[0].message.contains("join"), "{}", blocks[0].message);
    }

    #[test]
    fn blocking_two_hops_away_is_reported_with_chain() {
        let src = r#"
            struct Hub { sched: Mutex<Sched> }
            fn leaf(stream: &mut TcpStream) {
                let buf = [0u8; 4];
                stream.write_all(&buf).ok();
            }
            fn middle(stream: &mut TcpStream) {
                leaf(stream);
            }
            impl Hub {
                fn bad(&self, stream: &mut TcpStream) {
                    let s = self.sched.lock().unwrap();
                    middle(stream);
                    drop(s);
                }
            }
        "#;
        let out = run(&[("server.rs", src)]);
        let f = out
            .findings
            .iter()
            .find(|f| f.rule == "blocking-under-lock");
        assert!(f.is_some(), "{:?}", out.findings);
        let f = f.unwrap();
        assert!(f.message.contains("write_all"), "{}", f.message);
        assert!(!f.witness.is_empty(), "2-hop finding carries the chain");
    }

    #[test]
    fn fsync_through_a_guard_bound_receiver_is_blocking() {
        // `append` is defined on two types, so only the guard's type
        // (the mutex payload) resolves the call to the one that fsyncs.
        let src = r#"
            struct Log { file: File }
            impl Log {
                fn append(&mut self, line: &str) -> io::Result<()> {
                    self.file.sync_data()
                }
            }
            struct Other { lines: Vec<String> }
            impl Other {
                fn append(&mut self, line: &str) {
                    self.lines.push(line.to_string());
                }
            }
            struct Journal { file: Mutex<Log> }
            impl Journal {
                fn append(&self, line: &str) -> io::Result<()> {
                    let mut file = self.file.lock().unwrap_or_else(PoisonError::into_inner);
                    file.append(line)
                }
            }
        "#;
        let out = run(&[("journal.rs", src)]);
        let f = out
            .findings
            .iter()
            .find(|f| f.rule == "blocking-under-lock");
        assert!(f.is_some(), "{:?}", out.findings);
        let f = f.unwrap();
        assert_eq!(f.snippet, "file.append(line)");
        assert!(f.message.contains("sync_data"), "{}", f.message);
        // The same fsync behind `Mutex<Option<Log>>`, reached through
        // `let Some(f) = guard.as_mut()`.
        let optional = src
            .replace("file: Mutex<Log>", "file: Mutex<Option<Log>>")
            .replace(
                "file.append(line)",
                "let Some(f) = file.as_mut() else { return Ok(()) };\n f.append(line)",
            );
        let out = run(&[("journal.rs", &optional)]);
        let f = out
            .findings
            .iter()
            .find(|f| f.rule == "blocking-under-lock");
        assert!(f.is_some(), "{:?}", out.findings);
        assert_eq!(f.unwrap().snippet, "f.append(line)");
        // A binding that only passes through the guard (`….lock().unwrap()
        // .snapshot()`) is not the payload: `copy.append` stays unresolved
        // although another guard is live.
        let through = src
            .replace(
                "impl Log {",
                "impl Log {\n fn snapshot(&self) -> Other { Other { lines: Vec::new() } }",
            )
            .replace("struct Journal { file: Mutex<Log> }", "struct Journal { file: Mutex<Log>, seen: Mutex<u64> }")
            .replace(
                "let mut file = self.file.lock().unwrap_or_else(PoisonError::into_inner);\n                    file.append(line)",
                "let _seen = self.seen.lock().unwrap();\n let mut copy = self.file.lock().unwrap().snapshot();\n copy.append(line);\n Ok(())",
            );
        assert!(through.contains("copy.append(line)"));
        let out = run(&[("journal.rs", &through)]);
        assert!(
            !out.findings.iter().any(|f| f.rule == "blocking-under-lock"),
            "{:?}",
            out.findings
        );
    }

    #[test]
    fn release_store_without_acquire_load_is_flagged() {
        let src = r#"
            struct Flag { ready: AtomicBool }
            impl Flag {
                fn publish(&self) {
                    self.ready.store(true, Ordering::Release);
                }
                fn check(&self) -> bool {
                    self.ready.load(Ordering::Relaxed)
                }
            }
        "#;
        let out = run(&[("exec.rs", src)]);
        let f = out.pinned.iter().find(|f| f.rule == "atomic-pairing");
        assert!(f.is_some(), "{:?}", out.pinned);
        assert!(f.unwrap().message.contains("ready"), "{:?}", f.unwrap());
    }

    #[test]
    fn broken_pairing_is_pinned_only_on_a_resolved_field() {
        // `self.words[k]` resolves to the `words` field: its unpaired
        // Acquire load is pinned. The closure binding `w` does not resolve,
        // so its group keys on the binding name and stays blessable.
        let src = r#"
            struct Bits { words: Box<[AtomicU64]> }
            impl Bits {
                fn get(&self, k: usize) -> u64 {
                    self.words[k].load(Ordering::Acquire)
                }
                fn count(&self) -> u32 {
                    self.words.iter().map(|w| w.load(Ordering::Acquire).count_ones()).sum()
                }
            }
        "#;
        let out = run(&[("exec.rs", src)]);
        let msg = |list: &[Finding], name: &str| {
            list.iter()
                .any(|f| f.rule == "atomic-pairing" && f.message.contains(name))
        };
        assert!(msg(&out.pinned, "`words`"), "{:?}", out.pinned);
        assert!(!msg(&out.findings, "`words`"), "{:?}", out.findings);
        assert!(msg(&out.findings, "`w`"), "{:?}", out.findings);
        assert!(!msg(&out.pinned, "`w`"), "{:?}", out.pinned);
    }

    #[test]
    fn balanced_release_acquire_pair_is_clean() {
        let src = r#"
            struct Flag { ready: AtomicBool }
            impl Flag {
                fn publish(&self) {
                    self.ready.store(true, Ordering::Release);
                }
                fn check(&self) -> bool {
                    self.ready.load(Ordering::Acquire)
                }
            }
        "#;
        let out = run(&[("exec.rs", src)]);
        assert!(
            !rules_found(&out).contains(&"atomic-pairing"),
            "{:?}",
            out.findings
        );
    }

    #[test]
    fn relaxed_only_group_needs_one_blessing() {
        let bare = r#"
            struct C { hits: AtomicU64 }
            impl C {
                fn bump(&self) { self.hits.fetch_add(1, Ordering::Relaxed); }
                fn read(&self) -> u64 { self.hits.load(Ordering::Relaxed) }
            }
        "#;
        let out = run(&[("pool.rs", bare)]);
        assert!(
            rules_found(&out).contains(&"atomic-pairing"),
            "{:?}",
            out.findings
        );
        let blessed = r#"
            struct C { hits: AtomicU64 }
            impl C {
                fn bump(&self) { self.hits.fetch_add(1, Ordering::Relaxed); } // lint: ordering-ok(observational counter; snapshot happens at the idle barrier)
                fn read(&self) -> u64 { self.hits.load(Ordering::Relaxed) }
            }
        "#;
        let out = run(&[("pool.rs", blessed)]);
        assert!(
            !rules_found(&out).contains(&"atomic-pairing"),
            "{:?}",
            out.findings
        );
        assert!(!out.consumed.is_empty(), "blessing is consumed, not stale");
    }

    #[test]
    fn field_and_param_with_same_name_group_together() {
        // The Release store lives on a struct field; the Acquire load goes
        // through a borrowed `&AtomicBool` param with the same name. Name
        // grouping must unify them — no finding.
        let a = r#"
            struct Shared { drain: AtomicBool }
            impl Shared {
                fn start_drain(&self) {
                    self.drain.store(true, Ordering::Release);
                }
            }
        "#;
        let b = r#"
            struct Exec<'c> { drain: &'c AtomicBool }
            impl<'c> Exec<'c> {
                fn cancelled(&self) -> bool {
                    self.drain.load(Ordering::Acquire)
                }
            }
        "#;
        let out = run(&[("server.rs", a), ("exec.rs", b)]);
        assert!(
            !rules_found(&out).contains(&"atomic-pairing"),
            "{:?}",
            out.findings
        );
    }

    #[test]
    fn rename_without_fsync_is_flagged_and_with_fsync_is_clean() {
        let bad = r#"
            fn persist(tmp: &Path, path: &Path) -> io::Result<()> {
                let mut f = File::create(&tmp)?;
                f.write_all(b"data")?;
                fs::rename(&tmp, &path)?;
                Ok(())
            }
        "#;
        let out = run(&[("journal.rs", bad)]);
        assert!(
            rules_found(&out).contains(&"persist-protocol"),
            "{:?}",
            out.findings
        );
        let good = r#"
            fn persist(tmp: &Path, path: &Path) -> io::Result<()> {
                let mut f = File::create(&tmp)?;
                f.write_all(b"data")?;
                f.sync_all()?;
                fs::rename(&tmp, &path)?;
                Ok(())
            }
        "#;
        let out = run(&[("journal.rs", good)]);
        assert!(
            !rules_found(&out).contains(&"persist-protocol"),
            "{:?}",
            out.findings
        );
    }

    #[test]
    fn append_without_fsync_is_flagged_and_with_fsync_is_clean() {
        let bad = r#"
            fn append(f: &mut File, bytes: &[u8]) -> io::Result<()> {
                f.write_all(bytes)?;
                Ok(())
            }
        "#;
        let out = run(&[("journal.rs", bad)]);
        assert!(
            rules_found(&out).contains(&"persist-protocol"),
            "{:?}",
            out.findings
        );
        let good = r#"
            fn append(f: &mut File, bytes: &[u8]) -> io::Result<()> {
                f.write_all(bytes)?;
                f.sync_data()
            }
        "#;
        let out = run(&[("journal.rs", good)]);
        assert!(
            !rules_found(&out).contains(&"persist-protocol"),
            "{:?}",
            out.findings
        );
    }

    #[test]
    fn fsync_via_helper_call_satisfies_the_protocol() {
        let src = r#"
            fn flush_all(f: &File) -> io::Result<()> {
                f.sync_all()
            }
            fn persist(tmp: &Path, path: &Path) -> io::Result<()> {
                let mut f = File::create(&tmp)?;
                f.write_all(b"data")?;
                flush_all(&f)?;
                fs::rename(&tmp, &path)?;
                Ok(())
            }
        "#;
        let out = run(&[("journal.rs", src)]);
        assert!(
            !rules_found(&out).contains(&"persist-protocol"),
            "{:?}",
            out.findings
        );
    }

    #[test]
    fn rename_of_an_uncreated_path_is_not_a_protocol_violation() {
        // The journal's quarantine rename moves an *existing* file aside;
        // no create precedes it, so the protocol does not apply.
        let src = r#"
            fn quarantine(path: &Path, aside: &Path) -> io::Result<()> {
                fs::rename(&path, &aside)?;
                Ok(())
            }
        "#;
        let out = run(&[("journal.rs", src)]);
        assert!(
            !rules_found(&out).contains(&"persist-protocol"),
            "{:?}",
            out.findings
        );
    }

    #[test]
    fn conc_gating_disables_lock_rules_but_not_persist() {
        let src = r#"
            struct Hub { a: Mutex<u32>, b: Mutex<u32> }
            impl Hub {
                fn f(&self) {
                    let g = self.a.lock().unwrap();
                    let h = self.b.lock().unwrap();
                    drop(h);
                    drop(g);
                }
                fn g(&self) {
                    let h = self.b.lock().unwrap();
                    let g = self.a.lock().unwrap();
                    drop(g);
                    drop(h);
                }
            }
        "#;
        let no_conc = RuleSet {
            conc: false,
            ..RuleSet::all()
        };
        let units = [UnitIn {
            crate_name: "fsim",
            label: "kernel.rs",
            source: src,
            rules: no_conc,
        }];
        let out = analyze(&units);
        assert!(out.findings.is_empty(), "{:?}", out.findings);
    }
}
