//! Live server introspection: per-campaign progress and the server-wide
//! snapshot answered to `stats` / streamed to `watch` clients.
//!
//! Every registered run carries a [`CampaignProgress`] — a bundle of
//! atomics the campaign record observer updates as each record line is
//! written (the same tap that streams lines to the client, so progress
//! moves exactly at trial boundaries). A `stats` request renders one
//! frame over all registered runs; a `watch` request polls one run's
//! version counter and streams a `progress` frame whenever it moved.
//!
//! The figures mirror the campaign JSONL by construction: they are
//! parsed from the very record lines the file holds, so a campaign's
//! final `progress`/`stats` entry agrees field-for-field with its
//! `summary` record. Wall time appears only in the advisory
//! `trials_per_sec` rate, never in anything a result depends on.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::time::Instant;

use rls_obs::jsonl::{parse, JsonObject};

/// Lifecycle of a registered run, as published to `stats`/`watch`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum RunPhase {
    /// Still executing (a live session or a crash recovery).
    Running = 0,
    /// Finished with a `done` frame.
    Done = 1,
    /// Stopped early with an `interrupted` frame (resumable).
    Interrupted = 2,
    /// Could not run (or finish).
    Failed = 3,
}

impl RunPhase {
    /// The wire label used in `stats`/`progress` frames.
    pub fn label(self) -> &'static str {
        match self {
            RunPhase::Running => "running",
            RunPhase::Done => "done",
            RunPhase::Interrupted => "interrupted",
            RunPhase::Failed => "failed",
        }
    }

    fn from_code(code: u8) -> RunPhase {
        match code {
            1 => RunPhase::Done,
            2 => RunPhase::Interrupted,
            3 => RunPhase::Failed,
            _ => RunPhase::Running,
        }
    }
}

/// Per-campaign live progress, updated from the campaign record stream.
///
/// All fields are plain atomics: the observer thread stores, stats and
/// watch sessions load, and a torn read across fields costs at most one
/// frame's worth of staleness — the next version bump republishes.
#[derive(Debug)]
pub struct CampaignProgress {
    /// Monotonic change counter; `watch` streams a frame per bump.
    version: AtomicU64,
    /// When the run registered; only feeds the advisory trials/sec rate.
    epoch: Instant,
    /// Trial records seen (kept or rejected).
    trials: AtomicU64,
    /// Kept trials — accepted `(TS, D1)` pairs.
    pairs: AtomicU64,
    /// Cumulative detected faults (TS0 initial + kept trials), later
    /// pinned by the summary record.
    detected: AtomicU64,
    /// Target fault count (0 until the summary reveals it).
    target_faults: AtomicU64,
    /// Live (undetected) faults after the last kept trial.
    live: AtomicU64,
    /// Total applied clock cycles, from the summary.
    total_cycles: AtomicU64,
    /// Outer iterations, from the summary.
    iterations: AtomicU64,
    /// Whether the campaign reached its coverage target.
    complete: AtomicBool,
    /// Watchdog requeues observed (`resume` seams in the record).
    requeues: AtomicU64,
    /// Whether the run degraded to the sequential path.
    degraded: AtomicBool,
    /// [`RunPhase`] code.
    phase: AtomicU8,
}

impl Default for CampaignProgress {
    fn default() -> Self {
        CampaignProgress::new()
    }
}

impl CampaignProgress {
    /// A fresh progress cell in the `Running` phase.
    pub fn new() -> CampaignProgress {
        CampaignProgress {
            version: AtomicU64::new(0),
            epoch: Instant::now(), // lint: det-ok(feeds only the advisory trials_per_sec figure in stats frames; no outcome reads it)
            trials: AtomicU64::new(0),
            pairs: AtomicU64::new(0),
            detected: AtomicU64::new(0),
            target_faults: AtomicU64::new(0),
            live: AtomicU64::new(0),
            total_cycles: AtomicU64::new(0),
            iterations: AtomicU64::new(0),
            complete: AtomicBool::new(false),
            requeues: AtomicU64::new(0),
            degraded: AtomicBool::new(false),
            phase: AtomicU8::new(RunPhase::Running as u8),
        }
    }

    /// The current change counter (bumped after every record observed
    /// and on phase transitions).
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// The run's lifecycle phase.
    pub fn phase(&self) -> RunPhase {
        RunPhase::from_code(self.phase.load(Ordering::Acquire))
    }

    /// Publishes a phase transition (conclude/fail paths).
    pub fn set_phase(&self, phase: RunPhase) {
        self.phase.store(phase as u8, Ordering::Release);
        self.bump();
    }

    /// Trial records observed so far.
    pub fn trials(&self) -> u64 {
        self.trials.load(Ordering::Relaxed) // lint: ordering-ok(monotonic progress counter; staleness costs one frame)
    }

    /// Cumulative detected faults.
    pub fn detected(&self) -> u64 {
        self.detected.load(Ordering::Relaxed) // lint: ordering-ok(monotonic progress counter; staleness costs one frame)
    }

    fn bump(&self) {
        self.version.fetch_add(1, Ordering::AcqRel);
    }

    /// Updates the progress figures from one campaign record line. Lines
    /// that do not parse are ignored — progress is advisory, and the
    /// record writer (not this tap) owns integrity.
    pub fn observe_record(&self, line: &str) {
        let Ok(v) = parse(line) else { return };
        match v.str_field("type") {
            Some("initial") => {
                if let Some(d) = v.u64_field("ts0_detected") {
                    self.detected.store(d, Ordering::Relaxed); // lint: ordering-ok(advisory progress figure; see observe_record)
                }
            }
            Some("trial") => {
                self.trials.fetch_add(1, Ordering::Relaxed); // lint: ordering-ok(advisory progress figure; see observe_record)
                if v.bool_field("kept") == Some(true) {
                    self.pairs.fetch_add(1, Ordering::Relaxed); // lint: ordering-ok(advisory progress figure; see observe_record)
                    if let Some(n) = v.u64_field("newly_detected") {
                        self.detected.fetch_add(n, Ordering::Relaxed); // lint: ordering-ok(advisory progress figure; see observe_record)
                    }
                    if let Some(l) = v.u64_field("live_after") {
                        self.live.store(l, Ordering::Relaxed); // lint: ordering-ok(advisory progress figure; see observe_record)
                    }
                }
            }
            Some("resume") => {
                self.requeues.fetch_add(1, Ordering::Relaxed); // lint: ordering-ok(advisory progress figure; see observe_record)
            }
            Some("degrade") => self.degraded.store(true, Ordering::Relaxed), // lint: ordering-ok(advisory progress figure; see observe_record)
            Some("summary") => {
                // The summary is authoritative: pin every figure to it so
                // the final snapshot agrees field-for-field with the file
                // (a resumed run's stream-local counts would not).
                let pin = |field: &str, slot: &AtomicU64| {
                    if let Some(x) = v.u64_field(field) {
                        slot.store(x, Ordering::Relaxed); // lint: ordering-ok(advisory progress figure; see observe_record)
                    }
                };
                pin("detected", &self.detected);
                pin("target_faults", &self.target_faults);
                pin("pairs", &self.pairs);
                pin("total_cycles", &self.total_cycles);
                pin("iterations", &self.iterations);
                if let Some(c) = v.bool_field("complete") {
                    self.complete.store(c, Ordering::Relaxed); // lint: ordering-ok(advisory progress figure; see observe_record)
                }
            }
            _ => return,
        }
        self.bump();
    }

    /// Renders the run's progress fields into a frame under construction.
    fn render_into(&self, obj: JsonObject) -> JsonObject {
        let elapsed = self.epoch.elapsed().as_secs_f64().max(1e-9);
        let trials = self.trials.load(Ordering::Relaxed); // lint: ordering-ok(advisory progress figure; see observe_record)
        obj.str("state", self.phase().label())
            .num("trials", trials)
            .num("pairs", self.pairs.load(Ordering::Relaxed)) // lint: ordering-ok(advisory progress figure; see observe_record)
            .num("detected", self.detected.load(Ordering::Relaxed)) // lint: ordering-ok(advisory progress figure; see observe_record)
            .num("target_faults", self.target_faults.load(Ordering::Relaxed)) // lint: ordering-ok(advisory progress figure; see observe_record)
            .num("live", self.live.load(Ordering::Relaxed)) // lint: ordering-ok(advisory progress figure; see observe_record)
            .num("total_cycles", self.total_cycles.load(Ordering::Relaxed)) // lint: ordering-ok(advisory progress figure; see observe_record)
            .num("iterations", self.iterations.load(Ordering::Relaxed)) // lint: ordering-ok(advisory progress figure; see observe_record)
            .bool("complete", self.complete.load(Ordering::Relaxed)) // lint: ordering-ok(advisory progress figure; see observe_record)
            .num("requeues", self.requeues.load(Ordering::Relaxed)) // lint: ordering-ok(advisory progress figure; see observe_record)
            .bool("degraded", self.degraded.load(Ordering::Relaxed)) // lint: ordering-ok(advisory progress figure; see observe_record)
            .float("trials_per_sec", trials as f64 / elapsed)
    }
}

/// Server-wide introspection counters (one per [`crate::Server`]).
#[derive(Debug, Default)]
pub struct ServerCounters {
    /// `stats` requests answered.
    pub stats_requests: AtomicU64,
    /// `progress` frames streamed to watchers.
    pub watch_frames: AtomicU64,
    /// Currently connected watch sessions.
    pub watchers: AtomicU64,
}

/// One registered run's identity, for snapshot rendering.
pub struct RunRow<'a> {
    /// The run id clients attach/watch by.
    pub run_id: &'a str,
    /// The circuit label.
    pub circuit: &'a str,
    /// The run's live progress.
    pub progress: &'a CampaignProgress,
}

/// The `stats` frame: a server-wide snapshot over every registered run.
pub fn stats_line(
    inflight: usize,
    max_inflight: usize,
    draining: bool,
    monitored: usize,
    counters: &ServerCounters,
    runs: &[RunRow<'_>],
) -> String {
    let campaigns = rls_obs::jsonl::array(runs.iter().map(|r| {
        r.progress
            .render_into(
                JsonObject::new()
                    .str("run_id", r.run_id)
                    .str("circuit", r.circuit),
            )
            .render()
    }));
    JsonObject::new()
        .str("type", "stats")
        .num("inflight", inflight as u64)
        .num("max_inflight", max_inflight as u64)
        .bool("draining", draining)
        .num("watchdog_monitored", monitored as u64)
        .num("watchers", counters.watchers.load(Ordering::Relaxed)) // lint: ordering-ok(advisory introspection counter)
        .num(
            "stats_requests",
            counters.stats_requests.load(Ordering::Relaxed), // lint: ordering-ok(advisory introspection counter)
        )
        .num(
            "watch_frames",
            counters.watch_frames.load(Ordering::Relaxed), // lint: ordering-ok(advisory introspection counter)
        )
        .raw("campaigns", &campaigns)
        .render()
}

/// One `progress` frame of a watch stream.
pub fn progress_line(run_id: &str, circuit: &str, progress: &CampaignProgress) -> String {
    progress
        .render_into(
            JsonObject::new()
                .str("type", "progress")
                .str("run_id", run_id)
                .str("circuit", circuit),
        )
        .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn progress_follows_a_campaign_record_stream() {
        let p = CampaignProgress::new();
        assert_eq!(p.phase(), RunPhase::Running);
        let v0 = p.version();
        p.observe_record(r#"{"type":"campaign","circuit":"s27","threads":1}"#);
        assert_eq!(p.version(), v0, "non-progress records do not bump");
        p.observe_record(r#"{"type":"initial","ts0_tests":16,"ts0_detected":28}"#);
        assert_eq!(p.detected(), 28);
        p.observe_record(
            r#"{"type":"trial","i":1,"d1":2,"tests":16,"newly_detected":0,"kept":false,"live_after":4}"#,
        );
        p.observe_record(
            r#"{"type":"trial","i":1,"d1":3,"tests":16,"newly_detected":3,"kept":true,"live_after":1}"#,
        );
        assert_eq!(p.trials(), 2);
        assert_eq!(p.detected(), 31);
        assert!(p.version() > v0);
        p.observe_record(r#"{"type":"resume","from_iteration":0}"#);
        p.observe_record(r#"{"type":"degrade","reason":"watchdog"}"#);
        let line = progress_line("run-1", "s27", &p);
        assert!(
            crate::protocol::is_control(&parse(&line).unwrap()),
            "{line}"
        );
        assert!(line.contains(r#""type":"progress""#), "{line}");
        assert!(line.contains(r#""requeues":1"#), "{line}");
        assert!(line.contains(r#""degraded":true"#), "{line}");
        assert!(line.contains(r#""trials":2"#), "{line}");
    }

    #[test]
    fn summary_pins_the_final_figures_to_the_file() {
        let p = CampaignProgress::new();
        p.observe_record(r#"{"type":"initial","ts0_tests":16,"ts0_detected":28}"#);
        // A resumed stream replays a kept trial: stream-local counts drift…
        for _ in 0..2 {
            p.observe_record(
                r#"{"type":"trial","i":1,"d1":3,"tests":16,"newly_detected":3,"kept":true,"live_after":1}"#,
            );
        }
        assert_eq!(p.detected(), 34, "double-counted before the summary");
        // …until the summary record overrides every figure.
        p.observe_record(
            r#"{"type":"summary","detected":31,"target_faults":32,"pairs":1,"total_cycles":900,"complete":true,"iterations":2}"#,
        );
        p.set_phase(RunPhase::Done);
        let line = progress_line("run-1", "s27", &p);
        assert!(line.contains(r#""detected":31"#), "{line}");
        assert!(line.contains(r#""target_faults":32"#), "{line}");
        assert!(line.contains(r#""pairs":1"#), "{line}");
        assert!(line.contains(r#""total_cycles":900"#), "{line}");
        assert!(line.contains(r#""complete":true"#), "{line}");
        assert!(line.contains(r#""state":"done""#), "{line}");
    }

    #[test]
    fn torn_or_alien_lines_are_ignored() {
        let p = CampaignProgress::new();
        let v0 = p.version();
        p.observe_record(r#"{"type":"trial","i":1,"#); // torn tail
        p.observe_record("not json at all");
        p.observe_record(r#"{"no_type":true}"#);
        assert_eq!(p.version(), v0);
        assert_eq!(p.trials(), 0);
    }

    #[test]
    fn stats_frame_aggregates_runs_and_counters() {
        let a = CampaignProgress::new();
        a.observe_record(r#"{"type":"initial","ts0_tests":16,"ts0_detected":28}"#);
        let b = CampaignProgress::new();
        b.set_phase(RunPhase::Interrupted);
        let counters = ServerCounters::default();
        counters.stats_requests.fetch_add(3, Ordering::Relaxed);
        let line = stats_line(
            1,
            4,
            false,
            1,
            &counters,
            &[
                RunRow {
                    run_id: "r-a",
                    circuit: "s27",
                    progress: &a,
                },
                RunRow {
                    run_id: "r-b",
                    circuit: "s208",
                    progress: &b,
                },
            ],
        );
        assert!(
            crate::protocol::is_control(&parse(&line).unwrap()),
            "{line}"
        );
        assert!(line.contains(r#""type":"stats""#), "{line}");
        assert!(line.contains(r#""inflight":1"#), "{line}");
        assert!(line.contains(r#""stats_requests":3"#), "{line}");
        assert!(line.contains(r#""run_id":"r-a""#), "{line}");
        assert!(line.contains(r#""state":"interrupted""#), "{line}");
        // The whole frame parses as one JSON object.
        let v = parse(&line).unwrap();
        assert_eq!(
            v.get("campaigns")
                .and_then(|c| c.as_array())
                .map(<[_]>::len),
            Some(2)
        );
    }
}
