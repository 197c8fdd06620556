//! Structured tracing, metrics, and profiling for random limited-scan.
//!
//! The paper's whole evaluation is cost accounting — `N_cyc0 + N_SH(I,D1)`
//! cycle budgets, coverage per `(I, D1)` pair — yet until this crate the
//! runtime's own costs were visible only through ad-hoc `eprintln!` lines
//! and counters buried in campaign JSONL. `rls-obs` is the workspace's
//! observability layer: hierarchical spans with monotonic timing, typed
//! counters/gauges/histograms, and pluggable sinks, all std-only and
//! zero-dependency so every other crate can sit on top of it.
//!
//! # Model
//!
//! - [`span!`] opens a named phase and returns a guard; the span is
//!   emitted once, on drop, carrying its duration, its parent (the
//!   enclosing span on the same thread), and a slash-joined name path.
//! - [`counter!`] / [`gauge!`] / [`histogram!`] emit one observation each.
//! - [`mark!`] drops an instantaneous event on the [`recorder`] — the
//!   per-thread flight recorder whose bounded rings feed crash dumps and
//!   live snapshots (see the module docs).
//! - Every name is a lowercase dot-separated literal from the
//!   [`names`] registry — enforced by `rls-lint`'s `obs-metric-name` rule.
//! - Events flow to one installed [`Sink`]: the human-readable
//!   [`StderrSink`] tree renderer, the crash-safe [`JsonlSink`] stream
//!   (read back by [`jsonl::read`] and diffed by `rls-report`), the
//!   in-memory [`MemorySink`] for tests, or a [`TeeSink`] fan-out.
//! - [`jsonl`] is the workspace's JSON renderer and parser, and its one
//!   durable JSONL file: campaign records, the serve journal, metrics
//!   streams and recorder dumps are all written by [`jsonl::JsonlFile`]
//!   and read back by [`jsonl::read`]. It lives here, at the bottom of
//!   the dependency graph, so every writer can share it.
//!
//! # Cost when disabled
//!
//! Emission is gated on one process-global `AtomicBool`: with no
//! collector installed, every instrumented site costs exactly one relaxed
//! atomic load (the macros check [`enabled`] before evaluating any
//! argument). There is no registration, no thread-local touch, no
//! allocation.
//!
//! # Determinism
//!
//! Nothing here feeds back into results: timing lives only in obs
//! records, and the wall-clock reads are confined to this crate (each one
//! carries a `det-ok` lint blessing saying so). `tests/determinism.rs`
//! re-proves threads=4 ≡ threads=1 with obs enabled.
//!
//! Enabling is wired through `ExecProfile` (`RLS_OBS=1`,
//! `RLS_OBS_SINK=stderr|jsonl|both`) — this crate itself reads no
//! environment variables.

pub mod hist;
pub mod jsonl;
pub mod names;
pub mod record;
pub mod recorder;
pub mod sink;

use std::cell::{Cell, RefCell};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, PoisonError, RwLock};
use std::time::Instant;

pub use hist::HdrHistogram;
pub use record::{Event, FieldValue, MetricKind, MetricRecord, SpanRecord};
pub use sink::{JsonlSink, MemorySink, Sink, StderrSink, TeeSink};

/// Process-global enable flag — the one atomic every disabled event site
/// pays for. True when a collector is installed **or** the flight
/// recorder is armed; [`refresh_enabled`] keeps it in sync.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// The installed sink. Emitters clone the `Arc` under the read lock, so
/// slow sinks never serialize unrelated threads on each other.
static COLLECTOR: RwLock<Option<Arc<dyn Sink>>> = RwLock::new(None);

/// Monotonic time origin, fixed at first install; span `start_nanos`
/// offsets are measured from here.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Span id allocator (uniqueness only; ids carry no cross-thread order).
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// Per-process run sequence for [`run_id`].
static RUN_SEQ: AtomicU64 = AtomicU64::new(0);

/// Per-thread obs id allocator; `0` means "not assigned yet".
static NEXT_TID: AtomicU32 = AtomicU32::new(1);

thread_local! {
    /// The open spans on this thread, innermost last: `(id, name path)`.
    static SPAN_STACK: RefCell<Vec<(u64, String)>> = const { RefCell::new(Vec::new()) };

    /// This thread's obs id, assigned lazily on first use.
    static TID: Cell<u32> = const { Cell::new(0) };
}

/// Serializes unit tests across this crate that flip the process-global
/// obs state (collector install, recorder arm).
#[cfg(test)]
pub(crate) static OBS_TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// True when any consumer is on — a collector installed or the flight
/// recorder armed — and instrumented sites should do work.
#[inline]
pub fn enabled() -> bool {
    // lint: ordering-ok(monotone-ish advisory flag; emitters that race an install/finish merely drop or no-op one event)
    ENABLED.load(Ordering::Relaxed)
}

/// Recomputes [`enabled`] from the collector slot and the recorder flag.
pub(crate) fn refresh_enabled() {
    let has_collector = COLLECTOR
        .read()
        .unwrap_or_else(PoisonError::into_inner)
        .is_some();
    // lint: ordering-ok(advisory enable; an emitter racing the flip drops or no-ops one event)
    ENABLED.store(has_collector || recorder::recording(), Ordering::Relaxed);
}

/// This thread's small stable obs id, shared between span records
/// (`tid`) and the flight recorder's rings. Assigned on first use; the
/// disabled instrumentation path never calls this.
pub fn current_tid() -> u32 {
    TID.with(|t| {
        let v = t.get();
        if v != 0 {
            return v;
        }
        // lint: ordering-ok(uniqueness-only id allocation, mirrors NEXT_SPAN_ID)
        let v = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        t.set(v);
        v
    })
}

fn epoch() -> Instant {
    // lint: det-ok(observability time origin; readings land only in obs records, never in results)
    *EPOCH.get_or_init(Instant::now)
}

fn since_epoch_nanos() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Installs `sink` and enables emission process-wide.
///
/// Returns `false` (and leaves the existing collector running) if one is
/// already installed — call [`finish`] first to swap sinks.
pub fn install(sink: Arc<dyn Sink>) -> bool {
    let mut slot = COLLECTOR.write().unwrap_or_else(PoisonError::into_inner);
    if slot.is_some() {
        return false;
    }
    let _ = epoch();
    *slot = Some(sink);
    // lint: ordering-ok(advisory enable; an emitter seeing the flag before the slot just finds None and drops the event)
    ENABLED.store(true, Ordering::Relaxed);
    true
}

/// Disables emission, delivers `Sink::finish` (total wall nanos since
/// install) to the installed sink, and returns it. No-op `None` when
/// nothing was installed.
///
/// There is no `atexit` in std, so long-lived entry points (the table
/// binaries) call this explicitly before exiting; the JSONL stream is
/// crash-safe line by line regardless.
pub fn finish() -> Option<Arc<dyn Sink>> {
    // lint: ordering-ok(advisory disable; stragglers mid-emission still see a consistent collector slot under the lock)
    ENABLED.store(recorder::recording(), Ordering::Relaxed);
    let sink = COLLECTOR
        .write()
        .unwrap_or_else(PoisonError::into_inner)
        .take();
    if let Some(s) = &sink {
        s.finish(since_epoch_nanos());
    }
    sink
}

/// A process-unique run identifier: the campaign's config fingerprint
/// plus a monotonic in-process counter.
///
/// Campaign and metrics filenames derive from this instead of a
/// wall-clock nanosecond stamp, so resumed or rapid-fire runs can no
/// longer collide on clock resolution; the `create_new` `-k` suffix in
/// the file reservers remains the backstop against names left by *other*
/// processes.
pub fn run_id(fingerprint: u64) -> String {
    // lint: ordering-ok(uniqueness needs atomicity only, not cross-thread order)
    let seq = RUN_SEQ.fetch_add(1, Ordering::Relaxed);
    format!("{fingerprint:016x}-r{seq}")
}

fn dispatch_event(event: Event) {
    let sink = COLLECTOR
        .read()
        .unwrap_or_else(PoisonError::into_inner)
        .clone();
    if let Some(s) = sink {
        s.event(&event);
    }
}

/// Emits one metric observation (the metric macros call this; prefer
/// them so the name stays a checkable literal).
pub fn emit_metric(
    kind: MetricKind,
    name: &'static str,
    value: u64,
    fields: Vec<(&'static str, FieldValue)>,
) {
    if !enabled() {
        return;
    }
    if recorder::recording() {
        let rec_kind = match kind {
            MetricKind::Counter => recorder::RecKind::Counter,
            MetricKind::Gauge => recorder::RecKind::Gauge,
            MetricKind::Histogram => recorder::RecKind::Histogram,
        };
        recorder::record(rec_kind, name, since_epoch_nanos(), value);
    }
    dispatch_event(Event::Metric(MetricRecord {
        kind,
        name,
        value,
        fields,
    }));
}

struct SpanStart {
    name: &'static str,
    id: u64,
    parent: u64,
    tid: u32,
    path: String,
    start: Instant,
    start_nanos: u64,
    fields: Vec<(&'static str, FieldValue)>,
}

/// RAII guard for one open span; emits the [`SpanRecord`] on drop.
///
/// Constructed by the [`span!`] macro — [`SpanGuard::disabled`] is the
/// free variant handed out when obs is off.
pub struct SpanGuard {
    live: Option<SpanStart>,
}

impl SpanGuard {
    /// Opens a span under the current thread's innermost open span.
    pub fn enter(name: &'static str, fields: Vec<(&'static str, FieldValue)>) -> SpanGuard {
        // lint: ordering-ok(span ids need uniqueness only, not cross-thread order)
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        let (parent, path) = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let parent = stack.last().map_or(0, |(pid, _)| *pid);
            let path = match stack.last() {
                Some((_, parent_path)) => format!("{parent_path}/{name}"),
                None => name.to_string(),
            };
            stack.push((id, path.clone()));
            (parent, path)
        });
        let start_nanos = since_epoch_nanos();
        // lint: det-ok(span timing is observability metadata; results never read it)
        let start = Instant::now();
        let tid = current_tid();
        if recorder::recording() {
            recorder::record(recorder::RecKind::Enter, name, start_nanos, id);
        }
        SpanGuard {
            live: Some(SpanStart {
                name,
                id,
                parent,
                tid,
                path,
                start,
                start_nanos,
                fields,
            }),
        }
    }

    /// The no-op guard: nothing recorded, nothing emitted on drop.
    pub fn disabled() -> SpanGuard {
        SpanGuard { live: None }
    }

    /// Attaches a field after entry (e.g. a result computed inside the
    /// span). No-op on a disabled guard.
    pub fn field(&mut self, key: &'static str, value: FieldValue) {
        if let Some(s) = &mut self.live {
            s.fields.push((key, value));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(s) = self.live.take() else { return };
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            // Guards normally drop innermost-first; `retain` covers
            // out-of-order drops (e.g. guards stored in structs).
            match stack.last() {
                Some((top, _)) if *top == s.id => {
                    stack.pop();
                }
                _ => stack.retain(|(id, _)| *id != s.id),
            }
        });
        let nanos = s.start.elapsed().as_nanos() as u64;
        if recorder::recording() {
            recorder::record(recorder::RecKind::Exit, s.name, s.start_nanos + nanos, s.id);
        }
        dispatch_event(Event::Span(SpanRecord {
            name: s.name,
            id: s.id,
            parent: s.parent,
            tid: s.tid,
            path: s.path,
            start_nanos: s.start_nanos,
            nanos,
            fields: s.fields,
        }));
    }
}

/// A wall-clock stopwatch that only ticks while obs is enabled.
///
/// This is how instrumented crates measure phases without touching the
/// clock themselves: `Instant::now` stays confined to `rls-obs` (with its
/// `det-ok` blessings), and a disabled stopwatch reads `0` for free.
#[derive(Debug)]
pub struct Stopwatch(Option<Instant>);

impl Stopwatch {
    /// Starts the watch — a no-op returning a dead watch when obs is off.
    pub fn start() -> Stopwatch {
        if enabled() {
            // lint: det-ok(profiling stopwatch; readings land only in obs records)
            Stopwatch(Some(Instant::now()))
        } else {
            Stopwatch(None)
        }
    }

    /// Nanoseconds since [`Stopwatch::start`]; `0` for a dead watch.
    pub fn elapsed_nanos(&self) -> u64 {
        self.0.map_or(0, |t| t.elapsed().as_nanos() as u64)
    }

    /// True when the watch is actually timing.
    pub fn running(&self) -> bool {
        self.0.is_some()
    }
}

/// Which sinks [`install_standard`] wires up (`RLS_OBS_SINK`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SinkMode {
    /// Human-readable span tree + metric table on stderr at finish.
    Stderr,
    /// Crash-safe JSONL metrics stream next to the campaign records.
    Jsonl,
    /// Both of the above.
    #[default]
    Both,
}

impl SinkMode {
    /// Parses an `RLS_OBS_SINK` value; `None` for unrecognized input.
    pub fn parse(value: &str) -> Option<SinkMode> {
        match value.trim() {
            "stderr" => Some(SinkMode::Stderr),
            "jsonl" => Some(SinkMode::Jsonl),
            "both" | "" => Some(SinkMode::Both),
            _ => None,
        }
    }
}

/// Installs the standard sink stack for a run: a [`JsonlSink`] under
/// `dir` named from [`run_id`]`(fingerprint)` and/or a [`StderrSink`],
/// per `mode`. Returns the metrics JSONL path when one was created.
pub fn install_standard(
    mode: SinkMode,
    dir: &Path,
    fingerprint: u64,
) -> std::io::Result<Option<PathBuf>> {
    let mut sinks: Vec<Arc<dyn Sink>> = Vec::new();
    let mut path = None;
    if matches!(mode, SinkMode::Jsonl | SinkMode::Both) {
        let sink = JsonlSink::create(dir, &run_id(fingerprint))?;
        path = Some(sink.path().to_path_buf());
        sinks.push(Arc::new(sink));
    }
    if matches!(mode, SinkMode::Stderr | SinkMode::Both) {
        sinks.push(Arc::new(StderrSink::new()));
    }
    if !install(Arc::new(TeeSink::new(sinks))) {
        return Err(std::io::Error::new(
            std::io::ErrorKind::AlreadyExists,
            "an obs collector is already installed",
        ));
    }
    Ok(path)
}

/// Opens a hierarchical span: `let _span = span!("procedure2.iter", i = i);`
///
/// Evaluates to a [`SpanGuard`]; the span is recorded when the guard
/// drops, so **bind it** (`let _span = …`, never `let _ = …`). With obs
/// disabled this is one relaxed atomic load and a no-op guard — field
/// expressions are not evaluated.
#[macro_export]
macro_rules! span {
    ($name:expr $(, $key:ident = $value:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::SpanGuard::enter(
                $name,
                vec![$((stringify!($key), $crate::FieldValue::from($value))),*],
            )
        } else {
            $crate::SpanGuard::disabled()
        }
    };
}

/// Emits a counter observation: `counter!("fsim.batches", n as u64);`
///
/// One relaxed atomic load when disabled; the value and field
/// expressions are not evaluated.
#[macro_export]
macro_rules! counter {
    ($name:expr, $value:expr $(, $key:ident = $field:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::emit_metric(
                $crate::MetricKind::Counter,
                $name,
                $value,
                vec![$((stringify!($key), $crate::FieldValue::from($field))),*],
            );
        }
    };
}

/// Emits a gauge observation: `gauge!("dispatch.queue_depth", depth);`
/// See [`counter!`] for the disabled-path contract.
#[macro_export]
macro_rules! gauge {
    ($name:expr, $value:expr $(, $key:ident = $field:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::emit_metric(
                $crate::MetricKind::Gauge,
                $name,
                $value,
                vec![$((stringify!($key), $crate::FieldValue::from($field))),*],
            );
        }
    };
}

/// Emits a histogram observation: `histogram!("procedure2.trial_cycles", c);`
/// See [`counter!`] for the disabled-path contract.
#[macro_export]
macro_rules! histogram {
    ($name:expr, $value:expr $(, $key:ident = $field:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::emit_metric(
                $crate::MetricKind::Histogram,
                $name,
                $value,
                vec![$((stringify!($key), $crate::FieldValue::from($field))),*],
            );
        }
    };
}

/// Records an instantaneous named event on the flight recorder:
/// `mark!("fsim.batch");` or `mark!("dispatch.degrade", wave);`
///
/// Marks never reach the sink pipeline — they exist to put fine-grained
/// timeline points (kernel batch boundaries, degrade moments) into
/// recorder snapshots and crash dumps. The name must be registered in
/// [`names::EVENTS`] (the `obs-metric-name` lint covers `mark!` sites).
/// One relaxed atomic load when disabled; the value expression is not
/// evaluated.
#[macro_export]
macro_rules! mark {
    ($name:expr $(,)?) => {
        if $crate::enabled() {
            $crate::recorder::record_mark($name, 0);
        }
    };
    ($name:expr, $value:expr $(,)?) => {
        if $crate::enabled() {
            $crate::recorder::record_mark($name, $value as u64);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    fn with_memory_sink<R>(f: impl FnOnce() -> R) -> (R, Vec<Event>) {
        let _guard = OBS_TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        let sink = Arc::new(MemorySink::new());
        assert!(
            install(sink.clone()),
            "collector left installed by another test"
        );
        let out = f();
        finish();
        (out, sink.events())
    }

    #[test]
    fn disabled_sites_are_noops() {
        let _guard = OBS_TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        assert!(!enabled());
        let mut g = span!("procedure2.run", i = 1u64);
        g.field("k", FieldValue::U64(2));
        drop(g);
        counter!("fsim.batches", 1);
        gauge!("dispatch.queue_depth", 2);
        histogram!("procedure2.trial_cycles", 3);
        let watch = Stopwatch::start();
        assert!(!watch.running());
        assert_eq!(watch.elapsed_nanos(), 0);
    }

    #[test]
    fn spans_nest_with_parents_and_paths() {
        let ((), events) = with_memory_sink(|| {
            let _outer = span!("procedure2.run", circuit = "s27");
            for i in 0..2u64 {
                let _inner = span!("procedure2.iter", i = i);
            }
        });
        let spans: Vec<&SpanRecord> = events
            .iter()
            .filter_map(|e| match e {
                Event::Span(s) => Some(s),
                Event::Metric(_) => None,
            })
            .collect();
        assert_eq!(spans.len(), 3);
        // Inner spans close (and emit) first.
        let outer = spans.last().unwrap();
        assert_eq!(outer.name, "procedure2.run");
        assert_eq!(outer.parent, 0);
        assert_eq!(outer.path, "procedure2.run");
        assert_eq!(
            outer.fields,
            vec![("circuit", FieldValue::Str("s27".to_string()))]
        );
        for inner in &spans[..2] {
            assert_eq!(inner.name, "procedure2.iter");
            assert_eq!(inner.parent, outer.id);
            assert_eq!(inner.path, "procedure2.run/procedure2.iter");
        }
        assert_eq!(spans[0].fields, vec![("i", FieldValue::U64(0))]);
    }

    #[test]
    fn metrics_carry_kind_value_and_fields() {
        let ((), events) = with_memory_sink(|| {
            counter!("fsim.batches", 4, worker = 1u64);
            gauge!("dispatch.queue_depth", 9);
            histogram!("procedure2.trial_cycles", 100);
        });
        let kinds: Vec<(MetricKind, &str, u64)> = events
            .iter()
            .filter_map(|e| match e {
                Event::Metric(m) => Some((m.kind, m.name, m.value)),
                Event::Span(_) => None,
            })
            .collect();
        assert_eq!(
            kinds,
            vec![
                (MetricKind::Counter, "fsim.batches", 4),
                (MetricKind::Gauge, "dispatch.queue_depth", 9),
                (MetricKind::Histogram, "procedure2.trial_cycles", 100),
            ]
        );
    }

    #[test]
    fn worker_thread_spans_are_roots() {
        let ((), events) = with_memory_sink(|| {
            let _outer = span!("procedure2.run");
            std::thread::scope(|s| {
                s.spawn(|| {
                    let _w = span!("fsim.test");
                });
            });
        });
        let worker = events
            .iter()
            .find_map(|e| match e {
                Event::Span(s) if s.name == "fsim.test" => Some(s),
                _ => None,
            })
            .unwrap();
        assert_eq!(worker.parent, 0, "span stacks are per-thread");
        assert_eq!(worker.path, "fsim.test");
    }

    #[test]
    fn finish_reports_wall_time_and_uninstalls() {
        let _guard = OBS_TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        struct WallCatcher(Mutex<Option<u64>>);
        impl Sink for WallCatcher {
            fn event(&self, _: &Event) {}
            fn finish(&self, wall_nanos: u64) {
                *self.0.lock().unwrap() = Some(wall_nanos);
            }
        }
        let sink = Arc::new(WallCatcher(Mutex::new(None)));
        assert!(install(sink.clone()));
        assert!(enabled());
        assert!(finish().is_some());
        assert!(!enabled());
        assert!(sink.0.lock().unwrap().is_some());
        assert!(finish().is_none(), "second finish is a no-op");
    }

    #[test]
    fn double_install_is_rejected() {
        let _guard = OBS_TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        assert!(install(Arc::new(MemorySink::new())));
        assert!(!install(Arc::new(MemorySink::new())));
        finish();
    }

    #[test]
    fn run_ids_are_unique_and_carry_the_fingerprint() {
        let a = run_id(0xabcd);
        let b = run_id(0xabcd);
        assert_ne!(a, b);
        assert!(a.starts_with("000000000000abcd-r"), "{a}");
        assert!(b.starts_with("000000000000abcd-r"), "{b}");
        let seq_of = |id: &str| -> u64 { id.rsplit("-r").next().unwrap().parse().unwrap() };
        assert!(seq_of(&b) > seq_of(&a), "monotonic: {a} then {b}");
    }

    #[test]
    fn sink_mode_parses_the_env_grammar() {
        assert_eq!(SinkMode::parse("stderr"), Some(SinkMode::Stderr));
        assert_eq!(SinkMode::parse("jsonl"), Some(SinkMode::Jsonl));
        assert_eq!(SinkMode::parse("both"), Some(SinkMode::Both));
        assert_eq!(SinkMode::parse(" jsonl "), Some(SinkMode::Jsonl));
        assert_eq!(SinkMode::parse(""), Some(SinkMode::Both));
        assert_eq!(SinkMode::parse("tcp"), None);
    }

    #[test]
    fn install_standard_creates_a_parseable_stream() {
        let _guard = OBS_TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        let dir = std::env::temp_dir().join(format!("rls-obs-std-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = install_standard(SinkMode::Jsonl, &dir, 7)
            .unwrap()
            .expect("jsonl mode must create a file");
        {
            let _span = span!("procedure2.run");
            counter!("procedure2.trials", 1);
        }
        finish();
        let records = jsonl::read(&path).unwrap();
        assert!(
            records.len() >= 4,
            "header + span + metric + summary: {records:?}"
        );
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"type\":\"obs\""));
        assert!(text.contains("\"type\":\"obs_summary\""));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn span_timing_is_monotonic_and_plausible() {
        let ((), events) = with_memory_sink(|| {
            let _outer = span!("procedure2.run");
            let _inner = span!("procedure2.ts0");
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        for e in &events {
            if let Event::Span(s) = e {
                assert!(s.nanos >= 1_000_000, "{}: {}ns", s.name, s.nanos);
            }
        }
    }
}
