//! Minimal JSON rendering and parsing for campaign records.
//!
//! The environment is offline (no `serde`), and campaign records are flat
//! objects of numbers, strings, and booleans, so a tiny append-only
//! builder is all that is needed. Output is one object per line (JSONL) —
//! `jq`-friendly and append-safe for long campaigns.
//!
//! The [`parse`] half reads records back (checkpoint/resume, the
//! `rls-report` campaign differ): a strict recursive-descent parser for
//! one JSON value, returning a [`JsonValue`] tree with typed accessors.
//! Numbers keep their raw token so `u64` fields (cycle counts, fault ids)
//! round-trip losslessly instead of passing through `f64`.

use std::fmt::Write as _;

/// Escapes a string for inclusion in a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
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
}
