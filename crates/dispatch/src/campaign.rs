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
//! Records stream to disk as the campaign runs, not at the end:
//!
//! - the file is *created* by writing the header to a hidden temp file,
//!   fsyncing it, and atomically renaming over a `create_new`-reserved
//!   unique name — a crash mid-create leaves no half-written visible
//!   file, and two campaigns racing for the same stamp get distinct names
//!   (monotonic `-k` suffix) instead of overwriting each other;
//! - each record is one `write_all` + `sync_data`, so after `kill -9` the
//!   file holds every fully-appended record plus at most one torn tail
//!   line, which [`CampaignLog::read`] (and the resume parser) ignore;
//! - an append error never aborts the campaign: the sink is disabled
//!   with a single warning and the run continues in memory.
//!
//! Timing fields record wall-clock observations; they are deliberately
//! excluded from anything the deterministic outcome depends on.

use std::fs::{File, OpenOptions};
use std::io::{ErrorKind, Write as _};
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::error::DispatchError;
use crate::inject;
use crate::jsonl::{array, parse, JsonObject, JsonValue};
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

/// A crash-safe append-only JSONL sink.
#[derive(Debug)]
struct CampaignFile {
    file: File,
    path: PathBuf,
}

impl CampaignFile {
    /// Creates `<dir>/campaign-<circuit>-<threads>t-<run_id>[-k].jsonl`
    /// atomically with `header` as its first record.
    fn create(
        dir: &Path,
        circuit: &str,
        threads: usize,
        fingerprint: u64,
        header: &str,
    ) -> Result<Self, DispatchError> {
        inject::on_io("create campaign file")
            .map_err(|e| DispatchError::io("create campaign file", dir, e))?;
        std::fs::create_dir_all(dir)
            .map_err(|e| DispatchError::io("create campaign directory", dir, e))?;
        let (path, _reservation) = reserve_unique(dir, circuit, threads, fingerprint)
            .map_err(|e| DispatchError::io("reserve campaign file", dir, e))?;
        // Write the header to a hidden temp file (the leading dot keeps it
        // out of `campaign-*.jsonl` globs), fsync, then rename over the
        // reservation: the visible file is never in a half-written state.
        let name = path.file_name().and_then(|n| n.to_str()).ok_or_else(|| {
            DispatchError::io(
                "reserve campaign file",
                &path,
                std::io::Error::new(ErrorKind::InvalidData, "reserved name is not valid UTF-8"),
            )
        })?;
        let tmp = dir.join(format!(".{name}.tmp"));
        let write_header = || -> std::io::Result<File> {
            let mut f = File::create(&tmp)?; // lint: persist-ok(this is the rename helper itself; hidden temp, fsync, then rename below)
            f.write_all(header.as_bytes())?;
            f.write_all(b"\n")?;
            f.sync_all()?;
            std::fs::rename(&tmp, &path)?;
            Ok(f)
        };
        let file = write_header().map_err(|e| {
            let _ = std::fs::remove_file(&tmp);
            let _ = std::fs::remove_file(&path);
            DispatchError::io("write campaign header", &path, e)
        })?;
        // Persist the rename itself (best-effort; not all filesystems
        // support fsync on directories).
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
        Ok(CampaignFile { file, path })
    }

    /// Opens an existing campaign file for appending (resume). A torn
    /// final line — a crash mid-append left bytes without a trailing
    /// newline — is truncated away first; appending straight after it
    /// would glue the resume seam onto the torn bytes and turn one
    /// tolerated torn tail into intolerable mid-file garbage.
    fn append_to(path: &Path) -> Result<Self, DispatchError> {
        inject::on_io("open campaign file for append")
            .map_err(|e| DispatchError::io("open campaign file for append", path, e))?;
        truncate_torn_tail(path)
            .map_err(|e| DispatchError::io("repair campaign file tail", path, e))?;
        let file = OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| DispatchError::io("open campaign file for append", path, e))?;
        Ok(CampaignFile {
            file,
            path: path.to_path_buf(),
        })
    }

    /// Appends one record line and syncs it to disk.
    fn append(&mut self, line: &str) -> Result<(), DispatchError> {
        let write = |f: &mut File| -> std::io::Result<()> {
            inject::on_io("append campaign record")?;
            f.write_all(line.as_bytes())?;
            f.write_all(b"\n")?;
            f.sync_data()
        };
        write(&mut self.file)
            .map_err(|e| DispatchError::io("append campaign record", &self.path, e))
    }
}

/// Truncates a torn final line (bytes after the last newline, left by a
/// crash mid-append) so subsequent appends start on a fresh line. A file
/// ending in a newline — or an empty one — is left untouched. Scans
/// backwards in chunks, so only the tail is read regardless of size.
fn truncate_torn_tail(path: &Path) -> std::io::Result<()> {
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

/// Reserves a unique campaign file name in `dir` with `create_new`.
///
/// The name stamp is an `rls-obs` run id — config fingerprint plus a
/// process-monotonic counter — instead of the wall clock, so resumed or
/// rapid-fire runs can no longer collide on nanosecond resolution. The
/// `-k` collision suffix stays as the backstop for names left by *other*
/// processes (run ids are only process-unique).
fn reserve_unique(
    dir: &Path,
    circuit: &str,
    threads: usize,
    fingerprint: u64,
) -> std::io::Result<(PathBuf, File)> {
    reserve_with_stamp(dir, circuit, threads, &rls_obs::run_id(fingerprint))
}

/// Collision loop of [`reserve_unique`], stamp supplied by the caller
/// (tests mock it to force collisions).
fn reserve_with_stamp(
    dir: &Path,
    circuit: &str,
    threads: usize,
    stamp: &str,
) -> std::io::Result<(PathBuf, File)> {
    let mut k = 0u32;
    loop {
        let name = if k == 0 {
            format!("campaign-{}-{threads}t-{stamp}.jsonl", sanitize(circuit))
        } else {
            format!(
                "campaign-{}-{threads}t-{stamp}-{k}.jsonl",
                sanitize(circuit)
            )
        };
        let path = dir.join(name);
        match OpenOptions::new().write(true).create_new(true).open(&path) {
            Ok(f) => return Ok((path, f)),
            Err(e) if e.kind() == ErrorKind::AlreadyExists => k += 1,
            Err(e) => return Err(e),
        }
    }
}

/// A live tap on the record stream: called with each rendered record line
/// as it is recorded, independently of (and before) the disk sink. The
/// campaign server uses this to stream results to a connected client.
struct Observer(Box<dyn FnMut(&str) + Send>);

impl std::fmt::Debug for Observer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Observer(..)")
    }
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
    observer: Option<Observer>,
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
            observer: None,
        }
    }

    /// Installs a live observer: `f` is called with each rendered record
    /// line as it is recorded, before (and regardless of) the disk sink.
    /// The header line is *not* replayed — callers that need it render
    /// [`Campaign::header_line`] themselves.
    pub fn set_observer(&mut self, f: impl FnMut(&str) + Send + 'static) {
        self.observer = Some(Observer(Box::new(f)));
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
        c.sink = Some(CampaignFile::create(
            dir,
            circuit,
            threads,
            fingerprint,
            &c.header_line(),
        )?);
        Ok(c)
    }

    /// Resumes recording onto an existing campaign file: opens it for
    /// appending and marks the seam with a `resume` record.
    pub fn append_to(path: &Path, circuit: &str, threads: usize) -> Result<Self, DispatchError> {
        let mut c = Campaign::new(circuit, threads);
        let mut sink = CampaignFile::append_to(path)?;
        sink.append(&c.resume_line())?;
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
        self.sink.as_ref().map(|s| s.path.as_path())
    }

    /// Appends a line to the sink; on failure warns once and disables the
    /// sink — persistence trouble must never abort a campaign.
    fn stream(&mut self, line: &str) {
        if let Some(obs) = self.observer.as_mut() {
            (obs.0)(line);
        }
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

    /// The `campaign` header record, exactly as [`Campaign::create`]
    /// writes it as the file's first line.
    pub fn header_line(&self) -> String {
        JsonObject::new()
            .str("type", "campaign")
            .str("circuit", &self.circuit)
            .num("threads", self.threads as u64)
            .render()
    }

    /// The `resume` seam record, exactly as [`Campaign::append_to`]
    /// appends it when recording resumes onto an existing file.
    pub fn resume_line(&self) -> String {
        JsonObject::new()
            .str("type", "resume")
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
        let mut lines = vec![self.header_line()];
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

    /// Writes the in-memory record to a fresh uniquely-named file under
    /// `dir` (collision-safe), creating the directory as needed; returns
    /// the path. Prefer [`Campaign::create`] for crash-safe streaming.
    pub fn write_jsonl(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let (path, mut f) = reserve_unique(dir, &self.circuit, self.threads, 0)?;
        f.write_all(self.to_jsonl().as_bytes())?;
        f.sync_all()?;
        Ok(path)
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
    /// Reads and parses `path`. A final line that fails to parse is
    /// ignored (torn tail from a killed process); a malformed line
    /// *before* the end is an error — the file did not come from this
    /// writer.
    pub fn read(path: &Path) -> Result<Self, DispatchError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| DispatchError::io("read campaign file", path, e))?;
        let lines: Vec<(usize, &str)> = text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty())
            .collect();
        let mut records = Vec::with_capacity(lines.len());
        let last = lines.len();
        for (n, (line_no, line)) in lines.iter().enumerate() {
            match parse(line) {
                Ok(v) => records.push(v),
                Err(_) if n + 1 == last => break, // torn tail
                Err(message) => {
                    return Err(DispatchError::Parse {
                        path: path.to_path_buf(),
                        line: line_no + 1,
                        message,
                    });
                }
            }
        }
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
        let handle = pool.register(2);
        handle.submit_tagged(0, |w| w.add_dropped(1));
        handle.wait_idle();
        let snap = handle.snapshot();
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
    fn write_jsonl_creates_file_under_dir() {
        let dir = scratch_dir("write");
        let path = sample().write_jsonl(&dir).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains(r#""type":"summary""#));
        assert!(path
            .file_name()
            .unwrap()
            .to_str()
            .unwrap()
            .starts_with("campaign-s27-4t-"));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn same_stamp_campaigns_get_distinct_names() {
        // Two campaigns reserving the same stamp (a run id left by
        // another process, mocked here) must get distinct files, not
        // overwrite.
        let dir = scratch_dir("collide");
        std::fs::create_dir_all(&dir).unwrap();
        let (p1, _f1) = reserve_with_stamp(&dir, "s27", 4, "12345").unwrap();
        let (p2, _f2) = reserve_with_stamp(&dir, "s27", 4, "12345").unwrap();
        let (p3, _f3) = reserve_with_stamp(&dir, "s27", 4, "12345").unwrap();
        assert_eq!(p1.file_name().unwrap(), "campaign-s27-4t-12345.jsonl");
        assert_eq!(p2.file_name().unwrap(), "campaign-s27-4t-12345-1.jsonl");
        assert_eq!(p3.file_name().unwrap(), "campaign-s27-4t-12345-2.jsonl");
        for p in [p1, p2, p3] {
            let _ = std::fs::remove_file(p);
        }
        let _ = std::fs::remove_dir(&dir);
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
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
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
