//! JSON rendering and parsing, and the one durable JSONL file.
//!
//! The environment is offline (no `serde`), and every record the
//! workspace writes is a flat object of numbers, strings, and booleans,
//! so a tiny append-only builder is all that is needed. Output is one
//! object per line (JSONL) — `jq`-friendly and append-safe for long
//! campaigns.
//!
//! The [`parse`] half reads records back (checkpoint/resume, the
//! `rls-report` differ, the serve journal): a strict recursive-descent
//! parser for one JSON value, returning a [`JsonValue`] tree with typed
//! accessors. Numbers keep their raw token so `u64` fields (cycle counts,
//! fault ids) round-trip losslessly instead of passing through `f64`.
//!
//! # Durable files
//!
//! Campaign files, the serve journal, obs metrics streams and recorder
//! dumps all persist through [`JsonlFile`] and read back through
//! [`read`], so the crash contract (DESIGN.md §7) is written once:
//!
//! - [`JsonlFile::create`] reserves `<stem>[-k].jsonl` with `create_new`
//!   (the `-k` suffix backstops names left by other processes) and
//!   publishes the first record(s) through a hidden `.<name>.tmp` file:
//!   `sync_all`, rename over the reservation, best-effort directory
//!   fsync. On any error both files are removed, so a failed create
//!   leaves nothing visible;
//! - [`JsonlFile::replace`] rewrites a whole file the same way (the
//!   journal's compaction);
//! - [`JsonlFile::append`] writes one record as a single `write_all`
//!   plus `sync_data`, so after `kill -9` the file holds every appended
//!   record and at most one torn final line;
//! - [`JsonlFile::append_to`] reopens a file for appending after
//!   truncating such a torn line, so the next record never glues onto
//!   the torn bytes;
//! - [`read`] returns the parsed records, skipping blank lines and
//!   dropping exactly one unparsable final line; unparsable content
//!   before it is a [`ReadError::Parse`] carrying its 1-based line.

use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{self, ErrorKind, Write as _};
use std::path::{Path, PathBuf};

/// Escapes a string for inclusion in a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(s, &mut out);
    out
}

/// Appends `s` JSON-escaped to `out` — the one escaper behind every
/// record the workspace renders.
pub(crate) fn escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// An in-order JSON object builder.
#[derive(Debug, Default)]
pub struct JsonObject {
    parts: Vec<String>,
}

impl JsonObject {
    /// An empty object.
    pub fn new() -> Self {
        JsonObject::default()
    }

    /// Adds a string field.
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.parts
            .push(format!("\"{}\":\"{}\"", escape(key), escape(value)));
        self
    }

    /// Adds an unsigned integer field.
    pub fn num(mut self, key: &str, value: u64) -> Self {
        self.parts.push(format!("\"{}\":{}", escape(key), value));
        self
    }

    /// Adds a float field (renders `null` for non-finite values).
    pub fn float(mut self, key: &str, value: f64) -> Self {
        let rendered = if value.is_finite() {
            format!("{value}")
        } else {
            "null".to_string()
        };
        self.parts.push(format!("\"{}\":{rendered}", escape(key)));
        self
    }

    /// Adds a boolean field.
    pub fn bool(mut self, key: &str, value: bool) -> Self {
        self.parts.push(format!("\"{}\":{}", escape(key), value));
        self
    }

    /// Adds a pre-rendered JSON value (array or nested object).
    pub fn raw(mut self, key: &str, rendered: &str) -> Self {
        self.parts.push(format!("\"{}\":{}", escape(key), rendered));
        self
    }

    /// Renders the object on one line.
    pub fn render(self) -> String {
        format!("{{{}}}", self.parts.join(","))
    }
}

/// Renders an array from pre-rendered element strings.
pub fn array<I: IntoIterator<Item = String>>(items: I) -> String {
    let items: Vec<String> = items.into_iter().collect();
    format!("[{}]", items.join(","))
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw token for lossless integer access.
    Number(String),
    /// A string (escapes resolved).
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in source order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks up a field of an object; `None` for other kinds or missing keys.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64`, if it is an unsigned integer token.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `bool`, if it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Field accessors composing `get` with a typed conversion.
    pub fn u64_field(&self, key: &str) -> Option<u64> {
        self.get(key).and_then(JsonValue::as_u64)
    }

    /// String field, see [`JsonValue::u64_field`].
    pub fn str_field(&self, key: &str) -> Option<&str> {
        self.get(key).and_then(JsonValue::as_str)
    }

    /// Boolean field, see [`JsonValue::u64_field`].
    pub fn bool_field(&self, key: &str) -> Option<bool> {
        self.get(key).and_then(JsonValue::as_bool)
    }
}

/// Parses one JSON value from `text`, requiring it to span the whole input
/// (surrounding whitespace allowed). Errors carry a byte offset and a
/// message.
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", char::from(b), self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        let rest = self.bytes.get(self.pos..).unwrap_or_default();
        if rest.starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.sequence(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(format!(
                "unexpected `{}` at byte {}",
                char::from(c),
                self.pos
            )),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect_byte(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn sequence(&mut self) -> Result<JsonValue, String> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let code = self.hex4()?;
                            // Surrogate pairs are not produced by our own
                            // renderer; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            continue;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so byte
                    // boundaries are valid).
                    let rest = self.bytes.get(self.pos..).unwrap_or_default();
                    let s = std::str::from_utf8(rest).map_err(|_| "invalid UTF-8".to_string())?;
                    let c = s
                        .chars()
                        .next()
                        .ok_or_else(|| "unterminated string".to_string())?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        self.pos += 1; // consume `u`
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err("truncated \\u escape".to_string());
        }
        let hex = self
            .bytes
            .get(self.pos..end)
            .and_then(|b| std::str::from_utf8(b).ok())
            .ok_or_else(|| "invalid \\u escape".to_string())?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| "invalid \\u escape".to_string())?;
        self.pos = end;
        Ok(code)
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let raw = self
            .bytes
            .get(start..self.pos)
            .and_then(|b| std::str::from_utf8(b).ok())
            .unwrap_or_default();
        if raw.is_empty() || raw == "-" {
            return Err(format!("invalid number at byte {start}"));
        }
        Ok(JsonValue::Number(raw.to_string()))
    }
}

/// An open durable JSONL file: records are appended crash-safely.
#[derive(Debug)]
pub struct JsonlFile {
    file: File,
    path: PathBuf,
}

impl JsonlFile {
    /// Creates `<dir>/<stem>[-k].jsonl` (creating `dir` as needed) with
    /// `records` as its first lines, published atomically: the visible
    /// file never holds a partial first record, and a failed create
    /// leaves neither it nor its temp file behind.
    pub fn create<S: AsRef<str>>(dir: &Path, stem: &str, records: &[S]) -> io::Result<JsonlFile> {
        std::fs::create_dir_all(dir)?;
        let path = reserve(dir, stem)?;
        match publish(&path, &lines(records)) {
            Ok(file) => Ok(JsonlFile { file, path }),
            Err(e) => {
                let _ = std::fs::remove_file(&path);
                Err(e)
            }
        }
    }

    /// Atomically replaces the whole of `path` with `records` and keeps it
    /// open for appending. On error `path` is left as it was.
    pub fn replace<S: AsRef<str>>(path: &Path, records: &[S]) -> io::Result<JsonlFile> {
        let file = publish(path, &lines(records))?;
        Ok(JsonlFile {
            file,
            path: path.to_path_buf(),
        })
    }

    /// Opens an existing file for appending. A torn final line — a crash
    /// mid-append left bytes without a trailing newline — is truncated
    /// away first; appending straight after it would glue the next record
    /// onto the torn bytes and turn one tolerated torn tail into
    /// intolerable mid-file garbage.
    pub fn append_to(path: &Path) -> io::Result<JsonlFile> {
        truncate_torn_tail(path)?;
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(JsonlFile {
            file,
            path: path.to_path_buf(),
        })
    }

    /// Appends one record line and syncs it to disk.
    pub fn append(&mut self, record: &str) -> io::Result<()> {
        let mut bytes = Vec::with_capacity(record.len() + 1);
        bytes.extend_from_slice(record.as_bytes());
        bytes.push(b'\n');
        self.file.write_all(&bytes)?;
        self.file.sync_data()
    }

    /// The file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Wraps an already-open handle — the test hook for append failures.
    #[cfg(test)]
    pub(crate) fn from_parts(file: File, path: PathBuf) -> JsonlFile {
        JsonlFile { file, path }
    }
}

/// `records` as newline-terminated lines.
fn lines<S: AsRef<str>>(records: &[S]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for record in records {
        bytes.extend_from_slice(record.as_ref().as_bytes());
        bytes.push(b'\n');
    }
    bytes
}

/// Reserves the first free name of `<stem>.jsonl`, `<stem>-1.jsonl`, …
/// in `dir` with `create_new`.
fn reserve(dir: &Path, stem: &str) -> io::Result<PathBuf> {
    let mut k = 0u32;
    loop {
        let name = if k == 0 {
            format!("{stem}.jsonl")
        } else {
            format!("{stem}-{k}.jsonl")
        };
        let path = dir.join(name);
        match OpenOptions::new().write(true).create_new(true).open(&path) {
            Ok(_) => return Ok(path),
            Err(e) if e.kind() == ErrorKind::AlreadyExists => k += 1,
            Err(e) => return Err(e),
        }
    }
}

/// Writes `bytes` to the hidden temp file `.<name>.tmp` beside `path`
/// (the leading dot keeps it out of `*.jsonl` globs), fsyncs it, renames
/// it over `path`, and fsyncs the directory (best-effort; not every
/// filesystem supports it). The temp file is removed on error. Returns
/// the handle, positioned after `bytes`.
fn publish(path: &Path, bytes: &[u8]) -> io::Result<File> {
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| io::Error::new(ErrorKind::InvalidInput, "file name is not valid UTF-8"))?;
    let tmp = path.with_file_name(format!(".{name}.tmp"));
    let write = || -> io::Result<File> {
        let mut f = File::create(&tmp)?; // lint: persist-ok(this is the rename helper itself; hidden temp, fsync, then rename below)
        f.write_all(bytes)?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)?;
        Ok(f)
    };
    let file = write().inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })?;
    if let Some(Ok(d)) = path.parent().map(File::open) {
        let _ = d.sync_all();
    }
    Ok(file)
}

/// Truncates a torn final line (bytes after the last newline) so later
/// appends start on a fresh line. A file ending in a newline — or an
/// empty one — is left untouched. Scans backwards in chunks, so only the
/// tail is read regardless of size.
fn truncate_torn_tail(path: &Path) -> io::Result<()> {
    use std::io::{Read as _, Seek, SeekFrom};
    let mut f = OpenOptions::new().read(true).write(true).open(path)?;
    let len = f.metadata()?.len();
    if len == 0 {
        return Ok(());
    }
    let mut buf = [0u8; 4096];
    let mut end = len;
    loop {
        let start = end.saturating_sub(buf.len() as u64);
        let n = (end - start) as usize;
        f.seek(SeekFrom::Start(start))?;
        f.read_exact(&mut buf[..n])?; // lint: panic-ok(n = end - start <= buf.len() by the saturating_sub above)
                                      // lint: panic-ok(n >= 1: len > 0 and start < end on every pass)
        if end == len && buf[n - 1] == b'\n' {
            return Ok(()); // intact tail, nothing to repair
        }
        // lint: panic-ok(n <= buf.len(), as above)
        let keep = match buf[..n].iter().rposition(|&b| b == b'\n') {
            Some(pos) => start + pos as u64 + 1,
            None if start == 0 => 0, // one torn line is the whole file
            None => {
                end = start;
                continue;
            }
        };
        f.set_len(keep)?;
        return f.sync_data();
    }
}

/// Why a JSONL file could not be read back.
#[derive(Debug)]
pub enum ReadError {
    /// The file could not be read at all.
    Io(io::Error),
    /// A line before the final one does not parse: the file did not come
    /// from a [`JsonlFile`] writer, which can tear only its last line.
    Parse {
        /// 1-based line number within the file, blank lines included.
        line: usize,
        /// What the parser rejected.
        message: String,
    },
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Io(e) => write!(f, "{e}"),
            ReadError::Parse { line, message } => write!(f, "line {line}: {message}"),
        }
    }
}

impl std::error::Error for ReadError {}

/// Reads `path` back as parsed records (see [`parse_records`]). The file
/// may still be growing: each read returns every intact record present
/// at that moment.
pub fn read(path: &Path) -> Result<Vec<JsonValue>, ReadError> {
    parse_records(&std::fs::read_to_string(path).map_err(ReadError::Io)?)
}

/// Parses JSONL text one record per line. Blank lines are skipped; a
/// final line that fails to parse is a torn tail and is dropped; any
/// earlier line that fails is an error.
pub(crate) fn parse_records(text: &str) -> Result<Vec<JsonValue>, ReadError> {
    let lines: Vec<(usize, &str)> = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .collect();
    let mut records = Vec::with_capacity(lines.len());
    for (n, &(line_no, line)) in lines.iter().enumerate() {
        match parse(line) {
            Ok(v) => records.push(v),
            Err(_) if n + 1 == lines.len() => break, // torn tail
            Err(message) => {
                return Err(ReadError::Parse {
                    line: line_no + 1,
                    message,
                })
            }
        }
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_flat_object() {
        let s = JsonObject::new()
            .str("type", "trial")
            .num("i", 3)
            .bool("kept", true)
            .float("ls", 0.25)
            .render();
        assert_eq!(s, r#"{"type":"trial","i":3,"kept":true,"ls":0.25}"#);
    }

    #[test]
    fn escapes_strings() {
        let s = JsonObject::new().str("name", "a\"b\\c\nd").render();
        assert_eq!(s, r#"{"name":"a\"b\\c\nd"}"#);
    }

    #[test]
    fn arrays_compose() {
        let a = array((0..2).map(|i| JsonObject::new().num("w", i).render()));
        assert_eq!(a, r#"[{"w":0},{"w":1}]"#);
    }

    #[test]
    fn non_finite_floats_become_null() {
        let s = JsonObject::new().float("ls", f64::NAN).render();
        assert_eq!(s, r#"{"ls":null}"#);
    }

    #[test]
    fn parse_round_trips_rendered_records() {
        let line = JsonObject::new()
            .str("type", "trial")
            .num("i", 3)
            .num("big", u64::MAX)
            .bool("kept", true)
            .float("ls", 0.25)
            .raw("live", &array((0..3).map(|i| i.to_string())))
            .render();
        let v = parse(&line).unwrap();
        assert_eq!(v.str_field("type"), Some("trial"));
        assert_eq!(v.u64_field("i"), Some(3));
        assert_eq!(v.u64_field("big"), Some(u64::MAX), "u64 is lossless");
        assert_eq!(v.bool_field("kept"), Some(true));
        assert_eq!(v.get("ls").and_then(JsonValue::as_f64), Some(0.25));
        let live: Vec<u64> = v
            .get("live")
            .and_then(JsonValue::as_array)
            .unwrap()
            .iter()
            .map(|x| x.as_u64().unwrap())
            .collect();
        assert_eq!(live, vec![0, 1, 2]);
    }

    #[test]
    fn parse_resolves_escapes() {
        let line = JsonObject::new().str("name", "a\"b\\c\nd\ttab").render();
        let v = parse(&line).unwrap();
        assert_eq!(v.str_field("name"), Some("a\"b\\c\nd\ttab"));
        let v = parse(r#"{"u":"Aé"}"#).unwrap();
        assert_eq!(v.str_field("u"), Some("Aé"));
    }

    #[test]
    fn parse_rejects_torn_lines() {
        for torn in [
            r#"{"type":"trial","i":"#,
            r#"{"type":"tri"#,
            r#"{"type":"trial"} extra"#,
            r#"{"#,
            "",
        ] {
            assert!(parse(torn).is_err(), "{torn:?}");
        }
    }

    #[test]
    fn parse_handles_nested_and_negative() {
        let v = parse(r#"{"a":[{"x":-2.5e1},null,false]}"#).unwrap();
        let arr = v.get("a").and_then(JsonValue::as_array).unwrap();
        assert_eq!(arr[0].get("x").and_then(JsonValue::as_f64), Some(-25.0));
        assert_eq!(arr[1], JsonValue::Null);
        assert_eq!(arr[2].as_bool(), Some(false));
    }

    const HEADER: &str = r#"{"type":"obs","version":1,"run_id":"0-r0"}"#;
    const METRIC: &str = r#"{"type":"metric","kind":"counter","name":"fsim.batches","value":1}"#;

    fn kinds(records: &[JsonValue]) -> Vec<&str> {
        records.iter().filter_map(|r| r.str_field("type")).collect()
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rls-jsonl-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn records_read_back_and_torn_tails_drop() {
        let text = format!("{HEADER}\n{METRIC}\n");
        assert_eq!(kinds(&parse_records(&text).unwrap()), ["obs", "metric"]);
        assert!(parse_records("").unwrap().is_empty());
        for torn in [r#"{"type":"metr"#, r#"{"a":1} extra"#] {
            let records = parse_records(&format!("{text}{torn}")).unwrap();
            assert_eq!(records.len(), 2, "{torn:?} is a torn tail");
        }
    }

    #[test]
    fn blank_lines_are_skipped_and_count_toward_line_numbers() {
        let text = format!("\n{HEADER}\n\n{METRIC}\n\n");
        assert_eq!(parse_records(&text).unwrap().len(), 2);
        let err = parse_records(&format!("{HEADER}\n\nnot json\n{METRIC}\n")).unwrap_err();
        assert!(matches!(err, ReadError::Parse { line: 3, .. }), "{err}");
        assert!(err.to_string().starts_with("line 3: "), "{err}");
    }

    #[test]
    fn braces_inside_strings_are_one_record() {
        let tricky = r#"{"s":"a{b}c\"{","fields":{"k":1}}"#;
        let records = parse_records(&format!("{tricky}\n")).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].str_field("s"), Some("a{b}c\"{"));
    }

    #[test]
    fn a_growing_file_reads_every_intact_record_each_time() {
        let dir = scratch("reuse");
        let mut f = JsonlFile::create(&dir, "obs-reuse", &[HEADER]).unwrap();
        assert_eq!(read(f.path()).unwrap().len(), 1);
        // A torn tail at this instant is dropped, and picked up once the
        // line completes.
        f.append(METRIC).unwrap();
        f.file.write_all(br#"{"type":"m"#).unwrap();
        assert_eq!(read(f.path()).unwrap().len(), 2);
        f.file.write_all(b"etric\",\"value\":2}\n").unwrap();
        assert_eq!(read(f.path()).unwrap().len(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replace_rewrites_the_whole_file_and_keeps_appending() {
        let dir = scratch("replace");
        let path = dir.join("journal.jsonl");
        std::fs::write(&path, format!("{HEADER}\n{METRIC}\n{{\"type\":\"me")).unwrap();
        let mut f = JsonlFile::replace(&path, &[METRIC]).unwrap();
        f.append(HEADER).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, format!("{METRIC}\n{HEADER}\n"));
        let empty = JsonlFile::replace(&path, &[] as &[&str]).unwrap();
        assert_eq!(std::fs::read_to_string(empty.path()).unwrap(), "");
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, ["journal.jsonl"], "no temp file left behind");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn append_to_truncates_a_torn_tail_longer_than_one_chunk() {
        let dir = scratch("long-torn");
        let path = JsonlFile::create(&dir, "c", &[HEADER])
            .unwrap()
            .path()
            .to_path_buf();
        let torn = format!("{{\"pad\":\"{}", "x".repeat(10_000));
        std::fs::write(&path, format!("{HEADER}\n{torn}")).unwrap();
        JsonlFile::append_to(&path).unwrap().append(METRIC).unwrap();
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            format!("{HEADER}\n{METRIC}\n")
        );
        // A file that is one torn line is emptied, then appended to.
        std::fs::write(&path, "{\"type\":\"obs\"").unwrap();
        JsonlFile::append_to(&path).unwrap().append(METRIC).unwrap();
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            format!("{METRIC}\n")
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
