//! Event model and JSON rendering for the observability stream.
//!
//! Events are born as typed structs in the instrumented code, flow to the
//! installed [`crate::Sink`], and — when the JSONL sink is active — are
//! rendered as flat one-line objects with an optional nested `"fields"`
//! object. The rendering is self-contained (this crate sits below
//! `rls-dispatch`, so it cannot use `dispatch::jsonl`), but the output is
//! deliberately parseable by that crate's strict parser: `rls-report`
//! reads metrics streams back with the same machinery it uses for
//! campaign records.

use std::fmt::Write as _;

/// The three metric flavours.
///
/// The distinction matters to aggregating sinks: counters are summed,
/// gauges keep their last observation, histograms report count and mean.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MetricKind {
    /// A monotonically accumulated quantity (faults simulated, retries).
    Counter,
    /// A point-in-time level (queue depth, coverage so far).
    Gauge,
    /// A sampled distribution (cycles per trial, nanos per test).
    Histogram,
}

impl MetricKind {
    /// The lowercase wire name (`"counter"` / `"gauge"` / `"histogram"`).
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// A dynamically-typed span or metric field value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FieldValue {
    /// An unsigned integer (the common case: indices, counts, ids).
    U64(u64),
    /// Text (circuit names, phase labels).
    Str(String),
    /// A flag.
    Bool(bool),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}

impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(u64::from(v))
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

impl FieldValue {
    fn render(&self, out: &mut String) {
        match self {
            FieldValue::U64(v) => {
                let _ = write!(out, "{v}");
            }
            FieldValue::Str(s) => {
                out.push('"');
                escape_into(s, out);
                out.push('"');
            }
            FieldValue::Bool(b) => {
                let _ = write!(out, "{b}");
            }
        }
    }
}

/// One closed span: a named phase with hierarchical context and monotonic
/// timing. Emitted exactly once, when the guard drops.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// The registered span name (`"procedure2.iter"`).
    pub name: &'static str,
    /// Process-unique span id (monotonic, no ordering meaning across threads).
    pub id: u64,
    /// Id of the enclosing span on the same thread; `0` for roots.
    pub parent: u64,
    /// The emitting thread's obs id ([`crate::current_tid`]) — lets
    /// renderers (Chrome trace export, flamegraphs) lay spans out on
    /// per-thread tracks.
    pub tid: u32,
    /// Slash-joined name path from the thread's root span
    /// (`"procedure2.run/procedure2.iter"`) — lets sinks rebuild the tree
    /// without waiting for parents to close.
    pub path: String,
    /// Start offset in nanos from collector install (monotonic clock).
    pub start_nanos: u64,
    /// Duration in nanos.
    pub nanos: u64,
    /// Free-form key/value context (`i = 3`).
    pub fields: Vec<(&'static str, FieldValue)>,
}

/// One metric observation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricRecord {
    /// Counter, gauge, or histogram semantics.
    pub kind: MetricKind,
    /// The registered metric name (`"dispatch.queue_depth"`).
    pub name: &'static str,
    /// The observed value.
    pub value: u64,
    /// Free-form key/value context (`worker = 2`).
    pub fields: Vec<(&'static str, FieldValue)>,
}

/// Anything a [`crate::Sink`] can receive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A closed span.
    Span(SpanRecord),
    /// A metric observation.
    Metric(MetricRecord),
}

impl Event {
    /// The registered span/metric name.
    pub fn name(&self) -> &'static str {
        match self {
            Event::Span(s) => s.name,
            Event::Metric(m) => m.name,
        }
    }

    /// The event as one JSONL line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        match self {
            Event::Span(s) => {
                out.push_str("{\"type\":\"span\",\"name\":\"");
                escape_into(s.name, &mut out);
                out.push_str("\",\"path\":\"");
                escape_into(&s.path, &mut out);
                let _ = write!(
                    out,
                    "\",\"id\":{},\"parent\":{},\"tid\":{},\"start_nanos\":{},\"nanos\":{}",
                    s.id, s.parent, s.tid, s.start_nanos, s.nanos
                );
                fields_into(&s.fields, &mut out);
            }
            Event::Metric(m) => {
                let _ = write!(
                    out,
                    "{{\"type\":\"metric\",\"kind\":\"{}\",\"name\":\"",
                    m.kind.as_str()
                );
                escape_into(m.name, &mut out);
                let _ = write!(out, "\",\"value\":{}", m.value);
                fields_into(&m.fields, &mut out);
            }
        }
        out.push('}');
        out
    }
}

/// Appends `s` JSON-escaped (same escape set as `dispatch::jsonl`).
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

fn fields_into(fields: &[(&'static str, FieldValue)], out: &mut String) {
    if fields.is_empty() {
        return;
    }
    out.push_str(",\"fields\":{");
    for (n, (key, value)) in fields.iter().enumerate() {
        if n > 0 {
            out.push(',');
        }
        out.push('"');
        escape_into(key, out);
        out.push_str("\":");
        value.render(out);
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_renders_one_flat_line_with_nested_fields() {
        let e = Event::Span(SpanRecord {
            name: "procedure2.iter",
            id: 7,
            parent: 3,
            tid: 2,
            path: "procedure2.run/procedure2.iter".to_string(),
            start_nanos: 10,
            nanos: 456,
            fields: vec![("i", FieldValue::U64(2))],
        });
        assert_eq!(
            e.to_json(),
            "{\"type\":\"span\",\"name\":\"procedure2.iter\",\
             \"path\":\"procedure2.run/procedure2.iter\",\
             \"id\":7,\"parent\":3,\"tid\":2,\"start_nanos\":10,\"nanos\":456,\
             \"fields\":{\"i\":2}}"
        );
    }

    #[test]
    fn metric_renders_kind_value_and_fields() {
        let e = Event::Metric(MetricRecord {
            kind: MetricKind::Gauge,
            name: "dispatch.queue_depth",
            value: 12,
            fields: vec![("worker", FieldValue::U64(1)), ("tag", "x\"y".into())],
        });
        assert_eq!(
            e.to_json(),
            "{\"type\":\"metric\",\"kind\":\"gauge\",\"name\":\"dispatch.queue_depth\",\
             \"value\":12,\"fields\":{\"worker\":1,\"tag\":\"x\\\"y\"}}"
        );
    }

    #[test]
    fn empty_fields_are_omitted() {
        let e = Event::Metric(MetricRecord {
            kind: MetricKind::Counter,
            name: "fsim.batches",
            value: 1,
            fields: Vec::new(),
        });
        assert!(!e.to_json().contains("fields"));
    }

    #[test]
    fn field_value_conversions_cover_call_site_types() {
        assert_eq!(FieldValue::from(3usize), FieldValue::U64(3));
        assert_eq!(FieldValue::from(3u32), FieldValue::U64(3));
        assert_eq!(FieldValue::from(true), FieldValue::Bool(true));
        assert_eq!(FieldValue::from("s27"), FieldValue::Str("s27".to_string()));
    }
}
