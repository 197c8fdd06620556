//! Campaign records: what a multi-threaded Procedure 2 run did, persisted
//! as JSONL.
//!
//! A campaign is one Procedure 2 execution on one circuit. The record is a
//! line-oriented log — a `campaign` header, an `initial` line for the
//! `TS0` phase, one `trial` line per `(I, D1)` trial (kept or not),
//! `checkpoint` lines for resume (rendered by `rls_core::resume`), a
//! `workers` line with the pool's per-worker counters, and a `summary`
//! line — written under `results/` (or any directory) so long runs are
//! observable, diffable, and machine-readable after the fact.
//!
//! # Crash safety
//!
//! Records stream to disk as the campaign runs, not at the end, through
//! [`rls_obs::jsonl::JsonlFile`] — the workspace's one durable JSONL file:
//!
//! - the header is published atomically under a `create_new`-reserved
//!   name (monotonic `-k` suffix on collisions), so a crash mid-create
//!   leaves no half-written visible file;
//! - each record is one `write_all` + `sync_data`, so after `kill -9` the
//!   file holds every fully-appended record plus at most one torn tail
//!   line, which [`CampaignLog::read`] (and the resume parser) ignore;
//! - an append error never aborts the campaign: the sink is disabled
//!   with a single warning and the run continues in memory.
//!
//! Timing fields record wall-clock observations; they are deliberately
//! excluded from anything the deterministic outcome depends on.

use std::path::{Path, PathBuf};
use std::time::Instant;

use rls_obs::jsonl::{self, array, JsonObject, JsonValue, JsonlFile, ReadError};

use crate::error::DispatchError;
use crate::inject;
use crate::pool::PoolSnapshot;

/// One `(I, D1)` trial of Procedure 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialRecord {
    /// Iteration index `I`.
    pub i: u64,
    /// Insertion-probability parameter `D1`.
    pub d1: u32,
    /// Tests in the derived set.
    pub tests: usize,
    /// Faults newly detected by the set.
    pub newly_detected: usize,
    /// Whether the pair was kept (i.e. it detected something).
    pub kept: bool,
    /// Live faults remaining after the trial.
    pub live_after: usize,
    /// Wall time of the trial in nanoseconds.
    pub wall_nanos: u64,
}

/// The end-of-campaign summary line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignSummary {
    /// Total detected faults (initial + pairs).
    pub detected: usize,
    /// Size of the coverage target.
    pub target_faults: usize,
    /// Pairs kept.
    pub pairs: usize,
    /// Total session cycles.
    pub total_cycles: u64,
    /// Whether the coverage target was fully reached.
    pub complete: bool,
    /// Iterations run.
    pub iterations: u64,
}

/// A campaign's [`JsonlFile`], behind the `fault-inject` IO hooks.
#[derive(Debug)]
struct CampaignFile(JsonlFile);

impl CampaignFile {
    /// Creates `<dir>/<stem>[-k].jsonl` atomically with `header` as its
    /// first record.
    fn create(dir: &Path, stem: &str, header: &str) -> Result<Self, DispatchError> {
        inject::on_io("create campaign file")
            .and_then(|()| JsonlFile::create(dir, stem, &[header]))
            .map(CampaignFile)
            .map_err(|e| DispatchError::io("create campaign file", dir, e))
    }

    /// Opens an existing campaign file for appending (resume), repairing
    /// a torn final line first.
    fn append_to(path: &Path) -> Result<Self, DispatchError> {
        inject::on_io("open campaign file for append")
            .and_then(|()| JsonlFile::append_to(path))
            .map(CampaignFile)
            .map_err(|e| DispatchError::io("open campaign file for append", path, e))
    }

    /// Appends one record line and syncs it to disk.
    fn append(&mut self, line: &str) -> Result<(), DispatchError> {
        inject::on_io("append campaign record")
            .and_then(|()| self.0.append(line))
            .map_err(|e| DispatchError::io("append campaign record", self.0.path(), e))
    }
}

/// The file-name stem of a campaign: circuit, threads, and a stamp that
/// is an `rls-obs` run id — config fingerprint plus a process-monotonic
/// counter — so resumed or rapid-fire runs never collide; the `-k`
/// suffix backstops names left by *other* processes.
fn file_stem(circuit: &str, threads: usize, stamp: &str) -> String {
    format!("campaign-{}-{threads}t-{stamp}", sanitize(circuit))
}

/// An in-progress campaign record.
///
/// Always accumulates in memory (so [`Campaign::to_jsonl`] and
/// [`Campaign::trials`] work); when built with [`Campaign::create`] or
/// [`Campaign::append_to`] it *also* streams each record crash-safely to
/// disk as it is recorded.
#[derive(Debug)]
pub struct Campaign {
    circuit: String,
    threads: usize,
    started: Instant,
    initial: Option<(usize, usize, u64)>, // (tests, detected, wall_nanos)
    trials: Vec<TrialRecord>,
    workers: Option<PoolSnapshot>,
    summary: Option<CampaignSummary>,
    sink: Option<CampaignFile>,
}

impl Campaign {
    /// Starts an in-memory record for one circuit and thread count.
    pub fn new(circuit: &str, threads: usize) -> Self {
        Campaign {
            circuit: circuit.to_string(),
            threads,
            started: Instant::now(), // lint: det-ok(wall-clock is observability metadata in records, never a campaign outcome)
            initial: None,
            trials: Vec::new(),
            workers: None,
            summary: None,
            sink: None,
        }
    }

    /// Starts a record that streams crash-safely to a fresh file under
    /// `dir`; the header is on disk when this returns. `fingerprint` is
    /// the campaign's config fingerprint — it stamps the file name (via
    /// the `rls-obs` run id) so distinct configurations are tellable
    /// apart on disk and repeated runs never collide.
    pub fn create(
        dir: &Path,
        circuit: &str,
        threads: usize,
        fingerprint: u64,
    ) -> Result<Self, DispatchError> {
        let mut c = Campaign::new(circuit, threads);
        let stem = file_stem(circuit, threads, &rls_obs::run_id(fingerprint));
        c.sink = Some(CampaignFile::create(dir, &stem, &c.seam_line("campaign"))?);
        Ok(c)
    }

    /// Resumes recording onto an existing campaign file: opens it for
    /// appending and marks the seam with a `resume` record.
    pub fn append_to(path: &Path, circuit: &str, threads: usize) -> Result<Self, DispatchError> {
        let mut c = Campaign::new(circuit, threads);
        let mut sink = CampaignFile::append_to(path)?;
        sink.append(&c.seam_line("resume"))?;
        c.sink = Some(sink);
        Ok(c)
    }

    /// Whether records are being streamed to disk (and appends are still
    /// healthy).
    pub fn has_sink(&self) -> bool {
        self.sink.is_some()
    }

    /// The file records stream to, if any.
    pub fn path(&self) -> Option<&Path> {
        self.sink.as_ref().map(|s| s.0.path())
    }

    /// Appends a line to the sink; on failure warns once and disables the
    /// sink — persistence trouble must never abort a campaign.
    fn stream(&mut self, line: &str) {
        let Some(sink) = self.sink.as_mut() else {
            return;
        };
        if let Err(e) = sink.append(line) {
            eprintln!("warning: campaign persistence disabled: {e}");
            self.sink = None;
            rls_obs::counter!("campaign.sink_errors", 1);
        } else {
            rls_obs::counter!("campaign.records", 1);
        }
    }

    /// The `campaign` header ([`Campaign::create`]'s first line) or the
    /// `resume` seam ([`Campaign::append_to`]'s first append): the
    /// record `kind`, the circuit and the thread count.
    fn seam_line(&self, kind: &str) -> String {
        JsonObject::new()
            .str("type", kind)
            .str("circuit", &self.circuit)
            .num("threads", self.threads as u64)
            .render()
    }

    fn initial_line(tests: usize, detected: usize, wall_nanos: u64) -> String {
        JsonObject::new()
            .str("type", "initial")
            .num("ts0_tests", tests as u64)
            .num("ts0_detected", detected as u64)
            .num("ts0_wall_nanos", wall_nanos)
            .render()
    }

    fn trial_line(t: &TrialRecord) -> String {
        JsonObject::new()
            .str("type", "trial")
            .num("i", t.i)
            .num("d1", u64::from(t.d1))
            .num("tests", t.tests as u64)
            .num("newly_detected", t.newly_detected as u64)
            .bool("kept", t.kept)
            .num("live_after", t.live_after as u64)
            .num("wall_nanos", t.wall_nanos)
            .render()
    }

    fn workers_line(snap: &PoolSnapshot) -> String {
        let workers = array(snap.workers.iter().map(|w| {
            JsonObject::new()
                .num("worker", w.worker as u64)
                .num("jobs", w.jobs)
                .num("batches", w.batches)
                .num("faults_dropped", w.faults_dropped)
                .num("sim_nanos", w.sim_nanos)
                .num("respawns", w.respawns)
                .num("lanes_used", w.lanes_used)
                .num("lanes_capacity", w.lanes_capacity)
                .render()
        }));
        let mut line = JsonObject::new()
            .str("type", "workers")
            .num("threads", snap.threads as u64)
            .raw("workers", &workers);
        if let Some(f) = snap.fallback {
            let fallback = JsonObject::new()
                .num("batches", f.batches)
                .num("lanes_used", f.lanes_used)
                .num("lanes_capacity", f.lanes_capacity)
                .render();
            line = line.raw("fallback", &fallback);
        }
        line.render()
    }

    fn summary_line(&self, s: &CampaignSummary) -> String {
        JsonObject::new()
            .str("type", "summary")
            .num("detected", s.detected as u64)
            .num("target_faults", s.target_faults as u64)
            .num("pairs", s.pairs as u64)
            .num("total_cycles", s.total_cycles)
            .bool("complete", s.complete)
            .num("iterations", s.iterations)
            .num("wall_nanos", self.started.elapsed().as_nanos() as u64)
            .render()
    }

    /// Records the `TS0` phase.
    pub fn record_initial(&mut self, tests: usize, detected: usize, wall_nanos: u64) {
        self.initial = Some((tests, detected, wall_nanos));
        self.stream(&Self::initial_line(tests, detected, wall_nanos));
    }

    /// Records one `(I, D1)` trial.
    pub fn record_trial(&mut self, trial: TrialRecord) {
        self.trials.push(trial);
        self.stream(&Self::trial_line(&trial));
    }

    /// Appends a pre-rendered record line (e.g. a resume checkpoint from
    /// `rls_core::resume`) to the sink. In-memory rendering does not
    /// include these lines.
    pub fn record_raw(&mut self, line: &str) {
        self.stream(line);
    }

    /// Trials recorded so far.
    pub fn trials(&self) -> &[TrialRecord] {
        &self.trials
    }

    /// Attaches the pool's final per-worker counters.
    pub fn record_workers(&mut self, snapshot: PoolSnapshot) {
        self.stream(&Self::workers_line(&snapshot));
        self.workers = Some(snapshot);
    }

    /// Attaches the outcome summary.
    pub fn record_summary(&mut self, summary: CampaignSummary) {
        self.summary = Some(summary);
        self.stream(&self.summary_line(&summary));
    }

    /// Renders the whole in-memory record as JSONL (the same shape the
    /// streaming sink writes, minus raw checkpoint lines).
    pub fn to_jsonl(&self) -> String {
        let mut lines = vec![self.seam_line("campaign")];
        if let Some((tests, detected, wall)) = self.initial {
            lines.push(Self::initial_line(tests, detected, wall));
        }
        for t in &self.trials {
            lines.push(Self::trial_line(t));
        }
        if let Some(snap) = &self.workers {
            lines.push(Self::workers_line(snap));
        }
        if let Some(s) = &self.summary {
            lines.push(self.summary_line(s));
        }
        let mut out = lines.join("\n");
        out.push('\n');
        out
    }
}

/// Keeps file names tame for arbitrary circuit names.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// A campaign file read back from disk: one parsed [`JsonValue`] per
/// record line, tolerating a torn final line (the crash-safety contract
/// guarantees at most one).
#[derive(Debug)]
pub struct CampaignLog {
    path: PathBuf,
    records: Vec<JsonValue>,
}

impl CampaignLog {
    /// Reads and parses `path` with [`rls_obs::jsonl::read`]: a final
    /// line that fails to parse is ignored (torn tail from a killed
    /// process); a malformed line *before* the end is an error — the file
    /// did not come from this writer.
    pub fn read(path: &Path) -> Result<Self, DispatchError> {
        let records = jsonl::read(path).map_err(|e| match e {
            ReadError::Io(e) => DispatchError::io("read campaign file", path, e),
            ReadError::Parse { line, message } => DispatchError::Parse {
                path: path.to_path_buf(),
                line,
                message,
            },
        })?;
        Ok(CampaignLog {
            path: path.to_path_buf(),
            records,
        })
    }

    /// The file the log was read from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// All intact records, in file order.
    pub fn records(&self) -> &[JsonValue] {
        &self.records
    }

    /// Records whose `type` field equals `kind`.
    pub fn of_type<'a>(&'a self, kind: &'a str) -> impl Iterator<Item = &'a JsonValue> {
        self.records
            .iter()
            .filter(move |r| r.str_field("type") == Some(kind))
    }

    /// The `campaign` header record, if intact.
    pub fn header(&self) -> Option<&JsonValue> {
        self.of_type("campaign").next()
    }

    /// The last `summary` record, if any (a resumed file may hold one per
    /// segment; the last one describes the final state).
    pub fn summary(&self) -> Option<&JsonValue> {
        self.of_type("summary").last()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shared::SharedPool;

    fn sample() -> Campaign {
        let mut c = Campaign::new("s27", 4);
        c.record_initial(16, 28, 1234);
        c.record_trial(TrialRecord {
            i: 1,
            d1: 2,
            tests: 16,
            newly_detected: 3,
            kept: true,
            live_after: 1,
            wall_nanos: 99,
        });
        c.record_summary(CampaignSummary {
            detected: 31,
            target_faults: 32,
            pairs: 1,
            total_cycles: 420,
            complete: false,
            iterations: 1,
        });
        c
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("rls-dispatch-test-{tag}-{}", std::process::id()))
    }

    #[test]
    fn jsonl_has_one_record_per_line() {
        let mut c = sample();
        let pool = SharedPool::new(2);
        pool.submit_tagged(0, |w| w.add_dropped(1));
        pool.wait_idle();
        let snap = pool.snapshot();
        c.record_workers(snap);
        let text = c.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(lines[0].contains(r#""type":"campaign""#));
        assert!(lines[0].contains(r#""circuit":"s27""#));
        assert!(lines[1].contains(r#""type":"initial""#));
        assert!(lines[1].contains(r#""ts0_detected":28"#));
        assert!(lines[2].contains(r#""type":"trial""#));
        assert!(lines[3].contains(r#""type":"workers""#));
        assert!(lines[3].contains(r#""faults_dropped":1"#));
        assert!(lines[3].contains(r#""respawns":0"#));
        assert!(lines[4].contains(r#""type":"summary""#));
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }

    #[test]
    fn same_stamp_campaigns_get_distinct_names() {
        // Two campaigns reserving the same stamp (a run id left by
        // another process, mocked here) must get distinct files, not
        // overwrite.
        let dir = scratch_dir("collide");
        let stem = file_stem("s27", 4, "12345");
        let names: Vec<String> = (0..3)
            .map(|_| {
                let f = CampaignFile::create(&dir, &stem, "{}").unwrap();
                f.0.path()
                    .file_name()
                    .unwrap()
                    .to_str()
                    .unwrap()
                    .to_string()
            })
            .collect();
        assert_eq!(
            names,
            [
                "campaign-s27-4t-12345.jsonl",
                "campaign-s27-4t-12345-1.jsonl",
                "campaign-s27-4t-12345-2.jsonl"
            ]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_failed_create_leaves_no_visible_campaign_file() {
        // A directory squatting on the temp name makes the header publish
        // fail after the final name was reserved: the reservation goes too.
        let dir = scratch_dir("create-fails");
        let _ = std::fs::remove_dir_all(&dir);
        let tmp = ".campaign-s27-1t-12345.jsonl.tmp";
        std::fs::create_dir_all(dir.join(tmp)).unwrap();
        let err = CampaignFile::create(&dir, &file_stem("s27", 1, "12345"), "{}").unwrap_err();
        assert!(err.to_string().contains("create campaign file"), "{err}");
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, [tmp]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn campaign_names_carry_the_config_fingerprint_run_id() {
        // Names come from the rls-obs run id (fingerprint + monotonic
        // counter), not the wall clock: same-config runs in the same
        // process get distinct names by construction, not by luck.
        let dir = scratch_dir("runid");
        let a = Campaign::create(&dir, "s27", 4, 0xabcd).unwrap();
        let b = Campaign::create(&dir, "s27", 4, 0xabcd).unwrap();
        let name = |c: &Campaign| {
            c.path()
                .unwrap()
                .file_name()
                .unwrap()
                .to_str()
                .unwrap()
                .to_string()
        };
        assert!(
            name(&a).starts_with("campaign-s27-4t-000000000000abcd-r"),
            "{}",
            name(&a)
        );
        assert_ne!(name(&a), name(&b));
        let (pa, pb) = (
            a.path().unwrap().to_path_buf(),
            b.path().unwrap().to_path_buf(),
        );
        drop((a, b));
        let _ = std::fs::remove_file(pa);
        let _ = std::fs::remove_file(pb);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn streaming_campaign_is_readable_at_every_point() {
        let dir = scratch_dir("stream");
        let mut c = Campaign::create(&dir, "s27", 2, 0xfeed).unwrap();
        let path = c.path().unwrap().to_path_buf();
        // Header is on disk before anything else happens.
        let log = CampaignLog::read(&path).unwrap();
        assert_eq!(log.header().unwrap().str_field("circuit"), Some("s27"));
        c.record_initial(16, 28, 10);
        c.record_trial(TrialRecord {
            i: 1,
            d1: 1,
            tests: 16,
            newly_detected: 2,
            kept: true,
            live_after: 2,
            wall_nanos: 5,
        });
        c.record_raw(r#"{"type":"checkpoint","iteration":1}"#);
        let log = CampaignLog::read(&path).unwrap();
        assert_eq!(log.records().len(), 4);
        assert_eq!(log.of_type("trial").count(), 1);
        assert_eq!(log.of_type("checkpoint").count(), 1);
        drop(c);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn append_to_repairs_a_torn_tail() {
        use std::io::Write as _;
        let dir = scratch_dir("torn-tail");
        let c = Campaign::create(&dir, "s27", 1, 0xfeed).unwrap();
        let path = c.path().unwrap().to_path_buf();
        drop(c);
        // A crash mid-append leaves half a record with no newline.
        {
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            f.write_all(br#"{"type":"trial","i":1,"d1":"#).unwrap();
        }
        // Without the repair, the resume seam would be glued onto the
        // torn bytes — one garbled line mid-file that no reader accepts.
        let mut r = Campaign::append_to(&path, "s27", 1).unwrap();
        r.record_raw(r#"{"type":"checkpoint","iteration":1}"#);
        drop(r);
        let log = CampaignLog::read(&path).unwrap();
        let kinds: Vec<&str> = log
            .records()
            .iter()
            .filter_map(|v| v.str_field("type"))
            .collect();
        assert_eq!(kinds, ["campaign", "resume", "checkpoint"]);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            !text.contains("trial"),
            "torn bytes truncated away:\n{text}"
        );
        assert!(text.ends_with('\n'));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn append_to_marks_resume_seam() {
        let dir = scratch_dir("resume");
        let c = Campaign::create(&dir, "s27", 1, 0xfeed).unwrap();
        let path = c.path().unwrap().to_path_buf();
        drop(c);
        let mut r = Campaign::append_to(&path, "s27", 4).unwrap();
        r.record_initial(16, 28, 10);
        let log = CampaignLog::read(&path).unwrap();
        let kinds: Vec<&str> = log
            .records()
            .iter()
            .filter_map(|r| r.str_field("type"))
            .collect();
        assert_eq!(kinds, ["campaign", "resume", "initial"]);
        drop(r);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn torn_tail_is_tolerated_but_midfile_garbage_is_not() {
        let dir = scratch_dir("torn");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("campaign-x.jsonl");
        std::fs::write(
            &path,
            "{\"type\":\"campaign\",\"circuit\":\"s27\",\"threads\":1}\n{\"type\":\"tri",
        )
        .unwrap();
        let log = CampaignLog::read(&path).unwrap();
        assert_eq!(log.records().len(), 1, "torn tail dropped");
        std::fs::write(
            &path,
            "{\"type\":\"campaign\"}\nGARBAGE\n{\"type\":\"summary\"}\n",
        )
        .unwrap();
        let err = CampaignLog::read(&path).unwrap_err();
        assert!(matches!(err, DispatchError::Parse { line: 2, .. }), "{err}");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn sanitize_replaces_odd_chars() {
        assert_eq!(sanitize("s27/v2 beta"), "s27_v2_beta");
    }
}
