//! The flight recorder: lock-free, per-thread bounded ring buffers of
//! span-enter/exit, metric, and mark events with monotonic timestamps.
//!
//! The sink pipeline ([`crate::Sink`]) aggregates *closed* spans; the
//! recorder keeps the other view — a rolling window of the most recent
//! raw events on every thread, cheap enough to leave on for a whole
//! campaign and readable at any moment, including the moment something
//! goes wrong. Its two consumers:
//!
//! - **crash dumps**: the panic/degrade and watchdog paths call
//!   [`dump`], which snapshots every ring and writes the last-N events
//!   per thread as a JSONL file next to the campaign records (torn-tail
//!   tolerant, same line discipline as the metrics stream);
//! - **introspection**: [`snapshot`] / [`drain`] hand the window to
//!   tests and tooling without stopping the writers.
//!
//! # Design
//!
//! Each thread owns one ring (`Ring`) and is its only writer; readers
//! (snapshot, dump) run concurrently on other threads. A slot is three
//! relaxed atomic words; the writer publishes with one release store of
//! the ring head. A reader copies the window and then re-reads the head:
//! any slot the writer could have touched during the copy is discarded
//! (counted as dropped) rather than trusted, so a snapshot taken
//! mid-write never yields a torn event. Names are stored as `u16`
//! indices into the [`crate::names`] registry — one reason recorder
//! names must be registered literals.
//!
//! # Cost
//!
//! Disabled, every site costs the same one relaxed atomic load as the
//! rest of `rls-obs` (the macros gate on [`crate::enabled`], and the
//! recorder hooks gate on [`recording`]). Enabled, a recorded event is a
//! handful of relaxed stores into the thread's own ring — no locks, no
//! allocation after the ring exists. Nothing here feeds back into
//! results; recording is proven non-perturbing by `tests/sched.rs`.

use std::cell::RefCell;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use crate::jsonl::{array, escape_into, JsonObject, JsonlFile};
use crate::names;

/// Ring capacity used when [`start`] is handed `0` (or `RLS_RECORD=1`).
pub const DEFAULT_CAPACITY: usize = 8192;

/// Sentinel name index for events whose name was not registered.
const UNREGISTERED: u16 = u16::MAX;

/// The recorder enable flag — the one load every disabled hook pays for
/// beyond [`crate::enabled`] (hooks run only when that gate is open).
static RECORDING: AtomicBool = AtomicBool::new(false);

/// Per-thread recorder ids, shared with span records (`tid`).
static SHARED: OnceLock<Shared> = OnceLock::new();

struct Shared {
    capacity: usize,
    rings: Mutex<Vec<Arc<Ring>>>,
    dump_dir: Mutex<Option<PathBuf>>,
    dump_seq: AtomicU32,
}

/// What a recorded event was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecKind {
    /// A span opened (`value` = span id).
    Enter,
    /// A span closed (`value` = span id).
    Exit,
    /// An instantaneous [`crate::mark!`] event.
    Mark,
    /// A counter observation.
    Counter,
    /// A gauge observation.
    Gauge,
    /// A histogram observation.
    Histogram,
}

impl RecKind {
    /// The lowercase wire name used in dump lines.
    pub fn as_str(self) -> &'static str {
        match self {
            RecKind::Enter => "enter",
            RecKind::Exit => "exit",
            RecKind::Mark => "mark",
            RecKind::Counter => "counter",
            RecKind::Gauge => "gauge",
            RecKind::Histogram => "histogram",
        }
    }

    fn from_code(code: u64) -> Option<RecKind> {
        Some(match code {
            0 => RecKind::Enter,
            1 => RecKind::Exit,
            2 => RecKind::Mark,
            3 => RecKind::Counter,
            4 => RecKind::Gauge,
            5 => RecKind::Histogram,
            _ => return None,
        })
    }
}

/// One slot: `meta` packs the kind code (high 32 bits) and the registry
/// name index (low 32); `t` is nanos since the obs epoch; `v` is the
/// span id or metric value. All relaxed — the ring head publishes.
struct Slot {
    meta: AtomicU64,
    t: AtomicU64,
    v: AtomicU64,
}

/// One thread's bounded event ring. Single writer (the owning thread),
/// any number of concurrent readers.
struct Ring {
    tid: u32,
    label: String,
    /// Next event index to write; event `n` lives in slot `n % capacity`
    /// until event `n + capacity` overwrites it.
    head: AtomicU64,
    /// Events below this index have been consumed by [`drain`].
    drained: AtomicU64,
    slots: Box<[Slot]>,
}

impl Ring {
    fn new(tid: u32, label: String, capacity: usize) -> Ring {
        let slots = (0..capacity)
            .map(|_| Slot {
                meta: AtomicU64::new(0),
                t: AtomicU64::new(0),
                v: AtomicU64::new(0),
            })
            .collect();
        Ring {
            tid,
            label,
            head: AtomicU64::new(0),
            drained: AtomicU64::new(0),
            slots,
        }
    }

    fn push(&self, kind: RecKind, name_idx: u16, t_nanos: u64, value: u64) {
        // Single-writer: the owning thread is the only `push` caller, so
        // a relaxed head read is its own last store.
        // lint: ordering-ok(single-writer ring; the Release head store below publishes the slot words)
        let n = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(n % self.slots.len() as u64) as usize]; // lint: panic-ok(modulo the ring length)
        let meta = ((kind as u64) << 32) | u64::from(name_idx);
        // lint: ordering-ok(slot words are published by the head Release store; readers discard slots the writer may have touched mid-copy)
        slot.meta.store(meta, Ordering::Relaxed);
        // lint: ordering-ok(published by the head Release store below)
        slot.t.store(t_nanos, Ordering::Relaxed);
        // lint: ordering-ok(published by the head Release store below)
        slot.v.store(value, Ordering::Relaxed);
        // lint: ordering-ok(Release publish of the slot words; paired with the Acquire head loads in collect)
        self.head.store(n + 1, Ordering::Release);
    }

    /// Copies events `[since, head)` that are provably untouched by the
    /// writer during the copy. Returns `(events, dropped)` where
    /// `dropped` counts window events overwritten before they were read.
    fn collect(&self, since: u64) -> (Vec<SnapEvent>, u64) {
        let cap = self.slots.len() as u64;
        // lint: ordering-ok(Acquire pairs with the writer's Release head store: events below h1 are fully written)
        let h1 = self.head.load(Ordering::Acquire);
        let lo = h1.saturating_sub(cap).max(since);
        let mut raw: Vec<(u64, u64, u64, u64)> = Vec::with_capacity((h1 - lo) as usize);
        for n in lo..h1 {
            let slot = &self.slots[(n % cap) as usize]; // lint: panic-ok(modulo the ring length)
                                                        // lint: ordering-ok(validated below: slots the writer may have overwritten during this copy are discarded)
            let meta = slot.meta.load(Ordering::Relaxed);
            // lint: ordering-ok(validated by the post-copy head re-read)
            let t = slot.t.load(Ordering::Relaxed);
            // lint: ordering-ok(validated by the post-copy head re-read)
            let v = slot.v.load(Ordering::Relaxed);
            raw.push((n, meta, t, v));
        }
        // Anything the writer may have been writing during the copy is
        // an event index <= h2, which recycles slots of events
        // <= h2 - cap; only events above that line are trustworthy.
        // lint: ordering-ok(Acquire re-read bounds the writer's progress during the copy)
        let h2 = self.head.load(Ordering::Acquire);
        let valid_lo = (h2 + 1).saturating_sub(cap);
        let dropped = valid_lo.min(h1).saturating_sub(since);
        let events = raw
            .into_iter()
            .filter(|(n, ..)| *n >= valid_lo)
            .filter_map(|(n, meta, t, v)| {
                let kind = RecKind::from_code(meta >> 32)?;
                let idx = (meta & 0xffff_ffff) as u16;
                let name = names::by_index(idx).unwrap_or("?");
                Some(SnapEvent {
                    seq: n,
                    tid: self.tid,
                    kind,
                    name,
                    t_nanos: t,
                    value: v,
                })
            })
            .collect();
        (events, dropped)
    }
}

/// One event copied out of a ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapEvent {
    /// Per-thread monotonic event index (gaps mean overwritten events).
    pub seq: u64,
    /// The recording thread's obs id (matches span `tid`).
    pub tid: u32,
    /// What happened.
    pub kind: RecKind,
    /// The registered name (`"?"` if it was not registered).
    pub name: &'static str,
    /// Nanos since the obs epoch.
    pub t_nanos: u64,
    /// Span id for enter/exit; observed value for metrics and marks.
    pub value: u64,
}

impl SnapEvent {
    /// The event as one JSONL dump line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        out.push_str("{\"type\":\"rec_event\",\"kind\":\"");
        out.push_str(self.kind.as_str());
        out.push_str("\",\"name\":\"");
        escape_into(self.name, &mut out);
        use std::fmt::Write as _;
        let _ = write!(
            out,
            "\",\"tid\":{},\"seq\":{},\"t_nanos\":{},\"value\":{}}}",
            self.tid, self.seq, self.t_nanos, self.value
        );
        out
    }
}

/// A consistent copy of every thread's recent events.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Events across all threads, ordered by `(t_nanos, tid, seq)`.
    pub events: Vec<SnapEvent>,
    /// Window events overwritten before this reader saw them.
    pub dropped: u64,
    /// `(tid, thread label)` for every ring that has recorded anything.
    pub threads: Vec<(u32, String)>,
}

thread_local! {
    /// This thread's ring plus a tiny name→index cache (keyed by the
    /// `&'static str` pointer, so repeat emissions skip the registry scan).
    static TL: RefCell<Option<ThreadRec>> = const { RefCell::new(None) };
}

struct ThreadRec {
    ring: Arc<Ring>,
    names: Vec<(usize, usize, u16)>,
}

impl ThreadRec {
    fn name_index(&mut self, name: &'static str) -> u16 {
        let key = (name.as_ptr() as usize, name.len());
        if let Some((_, _, idx)) = self.names.iter().find(|(p, l, _)| (*p, *l) == key) {
            return *idx;
        }
        let idx = names::index_of(name).unwrap_or(UNREGISTERED);
        self.names.push((key.0, key.1, idx));
        idx
    }
}

/// True when the flight recorder is armed. Hooks in the emission paths
/// gate on this; it is folded into [`crate::enabled`] so disabled sites
/// still cost exactly one relaxed load.
#[inline]
pub fn recording() -> bool {
    // lint: ordering-ok(advisory flag like ENABLED; a racing start/stop merely records or drops one event)
    RECORDING.load(Ordering::Relaxed)
}

fn shared() -> &'static Shared {
    SHARED.get_or_init(|| Shared {
        capacity: DEFAULT_CAPACITY,
        rings: Mutex::new(Vec::new()),
        dump_dir: Mutex::new(None),
        dump_seq: AtomicU32::new(0),
    })
}

/// Arms the recorder. `capacity` is the per-thread ring size in events
/// (`0` = [`DEFAULT_CAPACITY`]); the capacity is fixed at the first
/// `start` for the life of the process — later values are ignored.
/// Returns `false` if the recorder was already armed.
pub fn start(capacity: usize) -> bool {
    let cap = if capacity == 0 {
        DEFAULT_CAPACITY
    } else {
        capacity.max(16)
    };
    let _ = SHARED.get_or_init(|| Shared {
        capacity: cap,
        rings: Mutex::new(Vec::new()),
        dump_dir: Mutex::new(None),
        dump_seq: AtomicU32::new(0),
    });
    // lint: ordering-ok(advisory arm; emitters racing the flip record or skip one event)
    let was = RECORDING.swap(true, Ordering::Relaxed);
    crate::refresh_enabled();
    !was
}

/// Disarms the recorder. Rings (and their contents) survive for
/// [`snapshot`]/[`dump`]; re-arming resumes into the same rings.
pub fn stop() {
    // lint: ordering-ok(advisory disarm, mirrors start)
    RECORDING.store(false, Ordering::Relaxed);
    crate::refresh_enabled();
}

/// Sets where [`dump`] writes crash dumps (normally the campaign dir).
pub fn set_dump_dir(dir: &Path) {
    *shared()
        .dump_dir
        .lock()
        .unwrap_or_else(PoisonError::into_inner) = Some(dir.to_path_buf());
}

fn with_ring(f: impl FnOnce(&mut ThreadRec)) {
    TL.with(|tl| {
        let mut tl = tl.borrow_mut();
        if tl.is_none() {
            let sh = shared();
            let tid = crate::current_tid();
            // lint: det-ok(the label only annotates crash-dump records; no outcome reads it)
            let label = std::thread::current()
                .name()
                .map_or_else(|| format!("thread-{tid}"), str::to_string);
            let ring = Arc::new(Ring::new(tid, label, sh.capacity));
            sh.rings
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(ring.clone());
            *tl = Some(ThreadRec {
                ring,
                names: Vec::new(),
            });
        }
        f(tl.as_mut().expect("just initialized")); // lint: panic-ok(assigned Some two lines up)
    });
}

/// Records one event on the calling thread's ring. No-op when disarmed.
pub fn record(kind: RecKind, name: &'static str, t_nanos: u64, value: u64) {
    if !recording() {
        return;
    }
    with_ring(|rec| {
        let idx = rec.name_index(name);
        rec.ring.push(kind, idx, t_nanos, value);
    });
}

/// The [`crate::mark!`] entry point: an instantaneous named event,
/// timestamped here.
pub fn record_mark(name: &'static str, value: u64) {
    if !recording() {
        return;
    }
    record(RecKind::Mark, name, crate::since_epoch_nanos(), value);
}

/// Copies every ring's window without consuming it.
pub fn snapshot() -> Snapshot {
    collect(false)
}

/// Copies every ring's window and advances the drain watermark: the next
/// [`drain`] (or [`snapshot`]) only sees newer events.
pub fn drain() -> Snapshot {
    collect(true)
}

fn collect(consume: bool) -> Snapshot {
    let Some(sh) = SHARED.get() else {
        return Snapshot::default();
    };
    let rings: Vec<Arc<Ring>> = sh
        .rings
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone();
    let mut snap = Snapshot::default();
    for ring in rings {
        // lint: ordering-ok(drain watermark is reader-side bookkeeping; writers never read it)
        let since = ring.drained.load(Ordering::Relaxed);
        let (events, dropped) = ring.collect(since);
        if consume {
            let next = events.last().map_or(since, |e| e.seq + 1);
            // lint: ordering-ok(reader-side watermark; concurrent drains are already serialized by callers or tolerate overlap)
            ring.drained.store(next, Ordering::Relaxed);
        }
        snap.dropped += dropped;
        if !events.is_empty() || ring.head.load(Ordering::Relaxed) > 0 {
            snap.threads.push((ring.tid, ring.label.clone()));
        }
        snap.events.extend(events);
    }
    snap.sorted()
}

impl Snapshot {
    fn sorted(mut self) -> Snapshot {
        self.events.sort_by_key(|e| (e.t_nanos, e.tid, e.seq));
        self.threads.sort();
        self
    }
}

/// Writes a crash dump — the last-N events on every thread — as a JSONL
/// file under the configured dump directory, named
/// `rec-dump-<reason>-<pid>-<seq>[-k].jsonl`.
///
/// The whole dump is published at once through [`JsonlFile::create`]
/// (hidden temp file, fsync, rename), so a crash *in the middle of
/// dumping a crash* leaves no visible partial dump; readers use
/// [`crate::jsonl::read`]. Returns `None` (and
/// does nothing) when the recorder is disarmed, no dump directory is
/// configured, or the dump cannot be created.
pub fn dump(reason: &str) -> Option<PathBuf> {
    if !recording() {
        return None;
    }
    let sh = SHARED.get()?;
    let dir = sh
        .dump_dir
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone()?;
    let snap = snapshot();
    // lint: ordering-ok(uniqueness-only sequence, mirrors run_id)
    let seq = sh.dump_seq.fetch_add(1, Ordering::Relaxed);
    let tag: String = reason
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect();
    let written = write_dump(&dir, &tag, seq, reason, &snap);
    match written {
        Ok(path) => {
            crate::emit_metric(
                crate::MetricKind::Counter,
                "obs.recorder.dumps",
                1,
                Vec::new(),
            );
            if snap.dropped > 0 {
                crate::emit_metric(
                    crate::MetricKind::Counter,
                    "obs.recorder.dropped",
                    snap.dropped,
                    Vec::new(),
                );
            }
            Some(path)
        }
        Err(e) => {
            eprintln!("warning: flight-recorder dump failed: {e}");
            None
        }
    }
}

fn write_dump(
    dir: &Path,
    tag: &str,
    seq: u32,
    reason: &str,
    snap: &Snapshot,
) -> io::Result<PathBuf> {
    let threads = array(snap.threads.iter().map(|(tid, label)| {
        JsonObject::new()
            .num("tid", u64::from(*tid))
            .str("label", label)
            .render()
    }));
    let header = JsonObject::new()
        .str("type", "rec_dump")
        .num("version", 1)
        .str("reason", reason)
        .num("events", snap.events.len() as u64)
        .num("dropped", snap.dropped)
        .raw("threads", &threads)
        .render();
    let mut records = Vec::with_capacity(snap.events.len() + 1);
    records.push(header);
    records.extend(snap.events.iter().map(SnapEvent::to_json));
    let stem = format!("rec-dump-{tag}-{}-{seq}", std::process::id());
    Ok(JsonlFile::create(dir, &stem, &records)?
        .path()
        .to_path_buf())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn armed<R>(f: impl FnOnce() -> R) -> R {
        let _guard = crate::OBS_TEST_LOCK
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        start(0);
        let _ = drain(); // discard older tests' leftovers
        let out = f();
        stop();
        out
    }

    #[test]
    fn records_and_drains_in_order() {
        armed(|| {
            record(RecKind::Enter, "procedure2.run", 10, 1);
            record(RecKind::Counter, "procedure2.trials", 20, 5);
            record(RecKind::Exit, "procedure2.run", 30, 1);
            let snap = drain();
            let mine: Vec<&SnapEvent> = snap
                .events
                .iter()
                .filter(|e| e.tid == crate::current_tid())
                .collect();
            assert_eq!(mine.len(), 3, "{snap:?}");
            assert_eq!(mine[0].kind, RecKind::Enter);
            assert_eq!(mine[0].name, "procedure2.run");
            assert_eq!(mine[1].value, 5);
            assert_eq!(mine[2].kind, RecKind::Exit);
            // Drained events are consumed.
            record(RecKind::Mark, "fsim.batch", 40, 0);
            let again = drain();
            let mine: Vec<&SnapEvent> = again
                .events
                .iter()
                .filter(|e| e.tid == crate::current_tid())
                .collect();
            assert_eq!(mine.len(), 1, "{again:?}");
            assert_eq!(mine[0].name, "fsim.batch");
        });
    }

    #[test]
    fn wraparound_keeps_the_newest_window() {
        armed(|| {
            let cap = shared().capacity as u64;
            for i in 0..cap + 50 {
                record(RecKind::Counter, "procedure2.trials", i, i);
            }
            let snap = drain();
            let mine: Vec<&SnapEvent> = snap
                .events
                .iter()
                .filter(|e| e.tid == crate::current_tid())
                .collect();
            // One full window minus the slot the writer could have been
            // mid-overwriting (the reader discards it conservatively).
            assert_eq!(mine.len(), cap as usize - 1);
            assert_eq!(mine.last().unwrap().value, cap + 49, "newest survives");
            assert_eq!(mine[0].value, 51, "oldest were overwritten");
        });
    }

    #[test]
    fn unregistered_names_degrade_to_a_placeholder() {
        armed(|| {
            record(RecKind::Mark, "not.a.registered.name", 1, 0);
            let snap = drain();
            let mine = snap
                .events
                .iter()
                .find(|e| e.tid == crate::current_tid())
                .expect("event recorded");
            assert_eq!(mine.name, "?");
        });
    }

    #[test]
    fn snapshot_does_not_consume() {
        armed(|| {
            record(RecKind::Mark, "fsim.batch", 7, 0);
            let a = snapshot();
            let b = snapshot();
            let count = |s: &Snapshot| {
                s.events
                    .iter()
                    .filter(|e| e.tid == crate::current_tid())
                    .count()
            };
            assert_eq!(count(&a), count(&b));
            assert!(count(&a) >= 1);
        });
    }

    #[test]
    fn snapshot_during_write_never_yields_torn_events() {
        armed(|| {
            let stop_flag = Arc::new(AtomicBool::new(false));
            let writer_stop = stop_flag.clone();
            let started = Arc::new(AtomicBool::new(false));
            let writer_started = started.clone();
            let writer = std::thread::spawn(move || {
                let mut i = 0u64;
                while !writer_stop.load(Ordering::Relaxed) {
                    record(RecKind::Counter, "procedure2.trials", i, i);
                    record(RecKind::Mark, "fsim.batch", i, i);
                    i += 1;
                    writer_started.store(true, Ordering::Relaxed);
                }
                i
            });
            // Snapshot only once writes are under way, so the loop below
            // really overlaps them instead of racing the thread's start.
            while !started.load(Ordering::Relaxed) {
                std::thread::yield_now();
            }
            for _ in 0..200 {
                let snap = snapshot();
                for e in &snap.events {
                    // A torn slot would pair one event's name with
                    // another's value/kind; both recorded names carry
                    // value == t_nanos, so any mix is detectable.
                    if e.name == "procedure2.trials" || e.name == "fsim.batch" {
                        assert_eq!(e.value, e.t_nanos, "torn event: {e:?}");
                        assert!(
                            matches!(e.kind, RecKind::Counter | RecKind::Mark),
                            "torn kind: {e:?}"
                        );
                    }
                }
                // Per-thread seqs stay strictly increasing.
                let mut last: Option<(u32, u64)> = None;
                let mut by_tid: Vec<&SnapEvent> = snap.events.iter().collect();
                by_tid.sort_by_key(|e| (e.tid, e.seq));
                for e in by_tid {
                    if let Some((tid, seq)) = last {
                        if tid == e.tid {
                            assert!(e.seq > seq, "duplicate seq {e:?}");
                        }
                    }
                    last = Some((e.tid, e.seq));
                }
            }
            stop_flag.store(true, Ordering::Relaxed);
            let written = writer.join().expect("writer lives");
            assert!(written > 0);
        });
    }

    #[test]
    fn dump_writes_a_torn_tail_tolerant_jsonl() {
        armed(|| {
            let dir = std::env::temp_dir().join(format!(
                "rls-rec-dump-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            set_dump_dir(&dir);
            record(RecKind::Enter, "procedure2.run", 1, 9);
            record(RecKind::Mark, "dispatch.degrade", 2, 0);
            let path = dump("test-degrade").expect("dump written");
            let text = std::fs::read_to_string(&path).unwrap();
            assert!(text.starts_with("{\"type\":\"rec_dump\""), "{text}");
            assert!(text.contains("\"reason\":\"test-degrade\""));
            assert!(text.contains("\"name\":\"dispatch.degrade\""));
            // The dump parses with the shared torn-tail-tolerant reader,
            // including with its final line torn off mid-record.
            let records = crate::jsonl::read(&path).unwrap();
            assert!(records.len() >= 3, "{records:?}");
            let torn = &text[..text.len() - 10];
            let torn_records = crate::jsonl::parse_records(torn).unwrap();
            assert_eq!(torn_records.len(), records.len() - 1, "only the tail drops");
            // A second dump must not collide.
            let second = dump("test-degrade").expect("second dump");
            assert_ne!(path, second);
            std::fs::remove_dir_all(&dir).unwrap();
        });
    }

    #[test]
    fn a_failed_dump_leaves_no_visible_file() {
        armed(|| {
            let dir = std::env::temp_dir().join(format!(
                "rls-rec-dump-fail-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            set_dump_dir(&dir);
            record(RecKind::Mark, "dispatch.degrade", 1, 0);
            // A directory squatting on the next dump's temp name makes
            // the publish fail after the final name was reserved.
            let seq = SHARED.get().unwrap().dump_seq.load(Ordering::Relaxed);
            let tmp = format!(".rec-dump-sabotaged-{}-{seq}.jsonl.tmp", std::process::id());
            std::fs::create_dir(dir.join(&tmp)).unwrap();
            assert!(dump("sabotaged").is_none());
            let names: Vec<String> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                .collect();
            assert_eq!(names, [tmp], "no empty visible dump left behind");
            std::fs::remove_dir_all(&dir).unwrap();
        });
    }

    #[test]
    fn disarmed_recorder_is_inert() {
        let _guard = crate::OBS_TEST_LOCK
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        stop();
        record(RecKind::Mark, "fsim.batch", 1, 0);
        assert!(dump("nothing").is_none());
    }
}
