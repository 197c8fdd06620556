//! Pluggable event sinks: stderr tree renderer, crash-safe JSONL stream,
//! in-memory capture, and a fan-out tee.
//!
//! Sinks receive already-closed events and must be `Send + Sync`; the
//! runtime clones one `Arc` per event under a read lock, so a sink is
//! free to take its own mutex without blocking emitters on other sinks.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use crate::hist::HdrHistogram;
use crate::jsonl::{JsonObject, JsonlFile};
use crate::record::{Event, MetricKind};

/// An event consumer.
pub trait Sink: Send + Sync {
    /// Receives one closed span or metric observation.
    fn event(&self, event: &Event);

    /// Called once by [`crate::finish`] with the total wall nanos since
    /// the collector was installed. Sinks flush/render here.
    fn finish(&self, wall_nanos: u64) {
        let _ = wall_nanos;
    }
}

/// Per-metric aggregate kept by [`StderrSink`].
#[derive(Default, Clone, Copy)]
struct MetricAgg {
    events: u64,
    sum: u64,
    last: u64,
}

#[derive(Default)]
struct Aggregate {
    /// Span path → (count, total nanos). A `BTreeMap` keeps the render
    /// deterministic, and since a child's path extends its parent's,
    /// lexicographic order *is* tree order.
    spans: BTreeMap<String, (u64, u64)>,
    /// (kind, name) → aggregate (counters and gauges).
    metrics: BTreeMap<(MetricKind, &'static str), MetricAgg>,
    /// Histograms get log-scaled bucketing so tails stay resolvable.
    hists: BTreeMap<&'static str, HdrHistogram>,
}

/// Human-readable renderer: aggregates everything in memory and prints a
/// span tree plus a metric table to stderr at [`crate::finish`].
#[derive(Default)]
pub struct StderrSink {
    agg: Mutex<Aggregate>,
}

impl StderrSink {
    /// An empty renderer.
    pub fn new() -> StderrSink {
        StderrSink::default()
    }

    /// The full report: span tree with durations, metric table, wall time.
    pub fn render(&self, wall_nanos: u64) -> String {
        let mut out = self.render_tree(true);
        let agg = self.agg.lock().unwrap_or_else(PoisonError::into_inner);
        if !agg.metrics.is_empty() || !agg.hists.is_empty() {
            out.push_str("== obs: metrics ==\n");
            for ((kind, name), m) in &agg.metrics {
                let shown = match kind {
                    MetricKind::Counter => format!("{}", m.sum),
                    MetricKind::Gauge => format!("last {}", m.last),
                    MetricKind::Histogram => unreachable!("histograms live in hists"), // lint: panic-ok(agg.metrics never holds histograms)
                };
                out.push_str(&format!("{:9} {:28} {shown}\n", kind.as_str(), name));
            }
            for (name, h) in &agg.hists {
                out.push_str(&format!("histogram {:28} {}\n", name, h.render()));
            }
        }
        out.push_str(&format!("wall: {:.3} ms\n", wall_nanos as f64 / 1e6));
        out
    }

    /// The span tree with durations stripped: indented `name xCOUNT`
    /// lines. For a deterministic workload this is identical across runs
    /// — the golden-structure tests compare exactly this.
    pub fn render_structure(&self) -> String {
        self.render_tree(false)
    }

    fn render_tree(&self, with_durations: bool) -> String {
        let agg = self.agg.lock().unwrap_or_else(PoisonError::into_inner);
        let mut out = String::from("== obs: span tree ==\n");
        for (path, (count, nanos)) in &agg.spans {
            let depth = path.matches('/').count();
            let name = path.rsplit('/').next().unwrap_or(path.as_str());
            out.push_str(&"  ".repeat(depth));
            if with_durations {
                out.push_str(&format!(
                    "{name}  x{count}  {:.3} ms\n",
                    *nanos as f64 / 1e6
                ));
            } else {
                out.push_str(&format!("{name}  x{count}\n"));
            }
        }
        out
    }
}

impl Sink for StderrSink {
    fn event(&self, event: &Event) {
        let mut agg = self.agg.lock().unwrap_or_else(PoisonError::into_inner);
        match event {
            Event::Span(s) => {
                let entry = agg.spans.entry(s.path.clone()).or_insert((0, 0));
                entry.0 += 1;
                entry.1 += s.nanos;
            }
            Event::Metric(m) if m.kind == MetricKind::Histogram => {
                agg.hists.entry(m.name).or_default().record(m.value);
            }
            Event::Metric(m) => {
                let entry = agg.metrics.entry((m.kind, m.name)).or_default();
                entry.events += 1;
                entry.sum += m.value;
                entry.last = m.value;
            }
        }
    }

    fn finish(&self, wall_nanos: u64) {
        eprint!("{}", self.render(wall_nanos));
    }
}

/// Crash-safe JSONL metrics stream.
///
/// A [`JsonlFile`] (DESIGN.md §7): the header lands atomically under a
/// reserved `obs-<run_id>[-k].jsonl` name and every event is appended as
/// one `write_all` + `sync_data` line — a crash leaves at most one torn
/// tail line, which [`crate::jsonl::read`] tolerates.
///
/// On the first append error the sink warns once on stderr and disables
/// itself; the run continues without metrics rather than failing.
///
/// [`Sink::finish`] seals the stream: the `obs_summary` line is appended
/// and the file handle dropped under one lock, so an event still in
/// flight on another thread (it cloned the collector before `finish`
/// took it) can never land after the summary. Such late events are
/// discarded and counted in the `obs.late_events` counter, which reaches
/// whichever collector (or armed recorder) is live when the late event
/// arrives — never the sealed stream itself.
pub struct JsonlSink {
    file: Mutex<Option<JsonlFile>>,
    path: PathBuf,
    dead: AtomicBool,
}

impl JsonlSink {
    /// Creates `obs-<run_id>[-k].jsonl` under `dir` and writes the header
    /// record `{"type":"obs","version":1,"run_id":…}`.
    pub fn create(dir: &Path, run_id: &str) -> io::Result<JsonlSink> {
        let header = JsonObject::new()
            .str("type", "obs")
            .num("version", 1)
            .str("run_id", run_id)
            .render();
        Ok(JsonlSink::from_file(JsonlFile::create(
            dir,
            &format!("obs-{run_id}"),
            &[header],
        )?))
    }

    fn from_file(file: JsonlFile) -> JsonlSink {
        JsonlSink {
            path: file.path().to_path_buf(),
            file: Mutex::new(Some(file)),
            dead: AtomicBool::new(false),
        }
    }

    /// Where the stream lives.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// True once an IO error has disabled the stream.
    pub fn disabled(&self) -> bool {
        // lint: ordering-ok(monotone latch; writers re-check under the file mutex)
        self.dead.load(Ordering::Relaxed)
    }

    /// Appends one line, then closes the stream for good when `seal` is
    /// set. Returns `false` when the stream was already closed (sealed or
    /// disabled) and the line was not written.
    fn write_line(&self, line: &str, seal: bool) -> bool {
        // lint: ordering-ok(monotone latch; a stale false only costs one extra mutex round)
        if self.dead.load(Ordering::Relaxed) {
            return false;
        }
        let mut guard = self.file.lock().unwrap_or_else(PoisonError::into_inner);
        let Some(f) = guard.as_mut() else {
            return false;
        };
        // lint: block-ok(the mutex serializes stream appends; each record is durable before the next)
        if let Err(e) = f.append(&[line]) {
            *guard = None;
            // lint: ordering-ok(monotone latch; set under the file mutex that every writer takes)
            self.dead.store(true, Ordering::Relaxed);
            eprintln!(
                "warning: obs metrics stream disabled ({}): {e}",
                self.path.display()
            );
        }
        if seal {
            *guard = None;
        }
        true
    }
}

impl Sink for JsonlSink {
    fn event(&self, event: &Event) {
        if self.write_line(&event.to_json(), false) || self.disabled() {
            return;
        }
        // Sealed by `finish`, which also uninstalled this sink: the
        // counter reaches whatever collector (or recorder) is live now.
        crate::counter!("obs.late_events", 1);
    }

    fn finish(&self, wall_nanos: u64) {
        self.write_line(
            &format!("{{\"type\":\"obs_summary\",\"wall_nanos\":{wall_nanos}}}"),
            true,
        );
    }
}

/// Captures events in memory — the instrumentation hook for tests.
#[derive(Default)]
pub struct MemorySink {
    events: Mutex<Vec<Event>>,
}

impl MemorySink {
    /// An empty capture buffer.
    pub fn new() -> MemorySink {
        MemorySink::default()
    }

    /// A snapshot of everything captured so far.
    pub fn events(&self) -> Vec<Event> {
        self.events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Drains the buffer.
    pub fn take(&self) -> Vec<Event> {
        std::mem::take(&mut *self.events.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

impl Sink for MemorySink {
    fn event(&self, event: &Event) {
        self.events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(event.clone());
    }
}

/// Fans every event out to several sinks, in order.
pub struct TeeSink {
    sinks: Vec<Arc<dyn Sink>>,
}

impl TeeSink {
    /// Wraps the given sinks.
    pub fn new(sinks: Vec<Arc<dyn Sink>>) -> TeeSink {
        TeeSink { sinks }
    }
}

impl Sink for TeeSink {
    fn event(&self, event: &Event) {
        for sink in &self.sinks {
            sink.event(event);
        }
    }

    fn finish(&self, wall_nanos: u64) {
        for sink in &self.sinks {
            sink.finish(wall_nanos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{FieldValue, MetricRecord, SpanRecord};
    use std::sync::atomic::AtomicU64;

    fn temp_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "rls-obs-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn span(path: &str, nanos: u64) -> Event {
        let name: &'static str = match path.rsplit('/').next().unwrap() {
            "procedure2.run" => "procedure2.run",
            "procedure2.iter" => "procedure2.iter",
            "procedure2.trial" => "procedure2.trial",
            other => panic!("unexpected {other}"),
        };
        Event::Span(SpanRecord {
            name,
            id: 1,
            parent: 0,
            tid: 1,
            path: path.to_string(),
            start_nanos: 0,
            nanos,
            fields: Vec::new(),
        })
    }

    #[test]
    fn stderr_sink_builds_a_stable_tree_modulo_durations() {
        let runs: Vec<String> = (0..2)
            .map(|run| {
                let sink = StderrSink::new();
                // Same workload, different durations per run.
                sink.event(&span("procedure2.run", 100 + run));
                for i in 0..3 {
                    sink.event(&span("procedure2.run/procedure2.iter", 10 + run * i));
                    sink.event(&span(
                        "procedure2.run/procedure2.iter/procedure2.trial",
                        5 + run,
                    ));
                }
                sink.render_structure()
            })
            .collect();
        assert_eq!(runs[0], runs[1], "structure must not depend on timing");
        assert_eq!(
            runs[0],
            "== obs: span tree ==\n\
             procedure2.run  x1\n\
            \x20 procedure2.iter  x3\n\
            \x20   procedure2.trial  x3\n"
        );
    }

    #[test]
    fn stderr_sink_aggregates_metrics_by_kind() {
        let sink = StderrSink::new();
        for v in [2u64, 3, 5] {
            sink.event(&Event::Metric(MetricRecord {
                kind: MetricKind::Counter,
                name: "dispatch.batches",
                value: v,
                fields: Vec::new(),
            }));
            sink.event(&Event::Metric(MetricRecord {
                kind: MetricKind::Gauge,
                name: "dispatch.queue_depth",
                value: v,
                fields: Vec::new(),
            }));
        }
        let report = sink.render(1_000_000);
        assert!(report.contains("dispatch.batches"), "{report}");
        assert!(report.contains("10"), "counter sums: {report}");
        assert!(report.contains("last 5"), "gauge keeps last: {report}");
        assert!(report.contains("wall: 1.000 ms"), "{report}");
    }

    #[test]
    fn stderr_sink_histograms_report_log_scaled_quantiles() {
        let sink = StderrSink::new();
        for _ in 0..99 {
            sink.event(&Event::Metric(MetricRecord {
                kind: MetricKind::Histogram,
                name: "fsim.test_nanos",
                value: 1_000,
                fields: Vec::new(),
            }));
        }
        sink.event(&Event::Metric(MetricRecord {
            kind: MetricKind::Histogram,
            name: "fsim.test_nanos",
            value: 1_000_000,
            fields: Vec::new(),
        }));
        let report = sink.render(1_000_000);
        assert!(report.contains("fsim.test_nanos"), "{report}");
        assert!(report.contains("n 100"), "{report}");
        assert!(report.contains("p99 1000"), "tail resolved: {report}");
        assert!(report.contains("max 1000000"), "{report}");
    }

    #[test]
    fn jsonl_sink_reserves_unique_names_and_writes_header() {
        let dir = temp_dir("jsonl");
        let a = JsonlSink::create(&dir, "00000000000000aa-r0").unwrap();
        let b = JsonlSink::create(&dir, "00000000000000aa-r0").unwrap();
        assert_ne!(a.path(), b.path(), "collision suffix must kick in");
        assert!(a
            .path()
            .to_str()
            .unwrap()
            .ends_with("obs-00000000000000aa-r0.jsonl"));
        assert!(b
            .path()
            .to_str()
            .unwrap()
            .ends_with("obs-00000000000000aa-r0-1.jsonl"));
        let text = std::fs::read_to_string(a.path()).unwrap();
        assert_eq!(
            text,
            "{\"type\":\"obs\",\"version\":1,\"run_id\":\"00000000000000aa-r0\"}\n"
        );
        // No temp leftovers.
        let hidden: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_str().is_some_and(|n| n.starts_with('.')))
            .collect();
        assert!(hidden.is_empty(), "{hidden:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_failed_create_leaves_no_visible_stream() {
        // A directory squatting on the temp name makes the publish fail
        // after the final name was reserved: the reservation must go too.
        let dir = temp_dir("create-fails");
        std::fs::create_dir(dir.join(".obs-X.jsonl.tmp")).unwrap();
        assert!(JsonlSink::create(&dir, "X").is_err());
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, [".obs-X.jsonl.tmp"], "no empty obs-X.jsonl");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn jsonl_sink_appends_events_and_summary() {
        let dir = temp_dir("events");
        let sink = JsonlSink::create(&dir, "0-r1").unwrap();
        sink.event(&Event::Metric(MetricRecord {
            kind: MetricKind::Counter,
            name: "fsim.batches",
            value: 4,
            fields: vec![("worker", FieldValue::U64(0))],
        }));
        sink.finish(123);
        let text = std::fs::read_to_string(sink.path()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"type\":\"obs\""));
        assert!(lines[1].contains("\"name\":\"fsim.batches\""));
        assert_eq!(lines[2], "{\"type\":\"obs_summary\",\"wall_nanos\":123}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn finish_seals_the_stream_against_late_events() {
        // An emitter that cloned the collector before `finish` took it
        // delivers its event afterwards: the summary must stay last.
        let dir = temp_dir("sealed");
        let sink = JsonlSink::create(&dir, "0-r2").unwrap();
        let event = Event::Metric(MetricRecord {
            kind: MetricKind::Counter,
            name: "fsim.batches",
            value: 1,
            fields: Vec::new(),
        });
        sink.event(&event);
        sink.finish(9);
        // The late tally goes to whichever collector is live by then.
        let _guard = crate::OBS_TEST_LOCK
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let live = Arc::new(MemorySink::new());
        assert!(
            crate::install(live.clone()),
            "collector left installed by another test"
        );
        sink.event(&event);
        sink.event(&span("procedure2.run", 5));
        crate::finish();
        let text = std::fs::read_to_string(sink.path()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "late events were appended: {text}");
        assert_eq!(lines[2], "{\"type\":\"obs_summary\",\"wall_nanos\":9}");
        let late: u64 = live
            .events()
            .iter()
            .filter_map(|e| match e {
                Event::Metric(m) if m.name == "obs.late_events" => Some(m.value),
                _ => None,
            })
            .sum();
        assert_eq!(late, 2);
        assert!(!sink.disabled(), "sealing is not an IO failure");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn io_error_disables_the_sink_after_one_warning() {
        let dir = temp_dir("dead");
        let path = dir.join("obs-x.jsonl");
        std::fs::write(&path, "{\"type\":\"obs\",\"version\":1}\n").unwrap();
        // A read-only handle forces every append to fail.
        let readonly = std::fs::File::open(&path).unwrap();
        let sink = JsonlSink::from_file(JsonlFile::from_parts(readonly, path.clone()));
        assert!(!sink.disabled());
        let event = Event::Metric(MetricRecord {
            kind: MetricKind::Counter,
            name: "fsim.batches",
            value: 1,
            fields: Vec::new(),
        });
        sink.event(&event);
        assert!(sink.disabled(), "first failure must latch the sink off");
        // Subsequent events (and finish) are silent no-ops, not panics.
        sink.event(&event);
        sink.finish(1);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1, "nothing was appended: {text}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tee_fans_out_to_all_sinks() {
        let a = Arc::new(MemorySink::new());
        let b = Arc::new(MemorySink::new());
        let tee = TeeSink::new(vec![a.clone() as Arc<dyn Sink>, b.clone()]);
        tee.event(&Event::Metric(MetricRecord {
            kind: MetricKind::Counter,
            name: "dispatch.batches",
            value: 7,
            fields: Vec::new(),
        }));
        assert_eq!(a.events().len(), 1);
        assert_eq!(a.events(), b.events());
    }
}
