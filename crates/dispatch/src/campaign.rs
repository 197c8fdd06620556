//! Campaign records: what a Procedure 2 run did, persisted as JSONL.
//!
//! A campaign is one Procedure 2 execution on one circuit. The record is a
//! line-oriented log — a `campaign` header, an `initial` line for the
//! `TS0` phase, one `trial` line per `(I, D1)` trial (kept or not), a
//! `degrade` line if the pool was given up, `checkpoint` lines for resume
//! (rendered by `rls_core::resume`), and a `summary` line — written under
//! `results/` (or any directory) so long runs are observable, diffable,
//! and machine-readable after the fact.
//!
//! Every record is a function of the code, the circuit, the configuration
//! and the seed: no thread count, wall time or worker counter appears in
//! a record or in the file name, so runs at any `RLS_THREADS` write the
//! same bytes. Wall time and pool counters live in the obs stream.
//!
//! # Crash safety
//!
//! Records reach disk as the campaign runs, not at the end, through
//! [`rls_obs::jsonl::JsonlFile`] — the workspace's one durable JSONL file:
//!
//! - the header is published atomically under a `create_new`-reserved
//!   name (monotonic `-k` suffix on collisions), so a crash mid-create
//!   leaves no half-written visible file;
//! - the other records are buffered, and each checkpoint is appended
//!   together with the records before it in one `write_all` + `sync_data`;
//!   so is the summary. After `kill -9` the file holds the records up to
//!   its last checkpoint, followed by at most a prefix of the next
//!   append, whose last line may be torn; [`CampaignLog::read`] (and the
//!   resume parser) ignore a torn final line;
//! - a resume reads only the last checkpoint and re-runs every trial
//!   after it, and [`Campaign::append_to`] first cuts the file back to
//!   the end of that checkpoint, so the resumed file minus its `resume`
//!   line is the file an uninterrupted run writes;
//! - an append error never aborts the campaign: the sink is disabled
//!   with a single warning, and the run continues without records.

use std::path::Path;

use rls_obs::jsonl::{self, JsonObject, JsonValue, JsonlFile, ReadError};

use crate::error::DispatchError;
use crate::inject;

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

    /// Opens an existing campaign file for appending (resume) after
    /// cutting it back to its last intact checkpoint, or to its header if
    /// it has none.
    fn append_to(path: &Path) -> Result<Self, DispatchError> {
        let resumable =
            |r: &JsonValue| matches!(r.str_field("type"), Some("checkpoint" | "campaign"));
        inject::on_io("open campaign file for append")
            .and_then(|()| JsonlFile::append_to(path, resumable))
            .map(CampaignFile)
            .map_err(|e| DispatchError::io("open campaign file for append", path, e))
    }

    /// Appends record lines in one write and syncs them to disk.
    fn append(&mut self, lines: &[String]) -> Result<(), DispatchError> {
        inject::on_io("append campaign records")
            .and_then(|()| self.0.append(lines))
            .map_err(|e| DispatchError::io("append campaign records", self.0.path(), e))
    }
}

/// The file-name stem of a campaign: the circuit and a stamp that is an
/// `rls-obs` run id — config fingerprint plus a process-monotonic counter
/// — so resumed or rapid-fire runs never collide; the `-k` suffix
/// backstops names left by *other* processes.
fn file_stem(circuit: &str, stamp: &str) -> String {
    format!("campaign-{}-{stamp}", sanitize(circuit))
}

/// An in-progress campaign file.
///
/// Built with [`Campaign::create`] or [`Campaign::append_to`]; records
/// other than checkpoints and the summary wait in memory until the next
/// of those carries them to disk (see the module docs).
#[derive(Debug)]
pub struct Campaign {
    sink: Option<CampaignFile>,
    /// Rendered records not yet on disk, in order.
    pending: Vec<String>,
}

impl Campaign {
    /// Starts a campaign file under `dir`; the header is on disk when
    /// this returns. `fingerprint` is the campaign's config fingerprint —
    /// it stamps the file name (via the `rls-obs` run id) so distinct
    /// configurations are tellable apart on disk and repeated runs never
    /// collide.
    pub fn create(dir: &Path, circuit: &str, fingerprint: u64) -> Result<Self, DispatchError> {
        let stem = file_stem(circuit, &rls_obs::run_id(fingerprint));
        let file = CampaignFile::create(dir, &stem, &seam_line("campaign", circuit))?;
        Ok(Campaign {
            sink: Some(file),
            pending: Vec::new(),
        })
    }

    /// Resumes recording onto an existing campaign file: cuts it back to
    /// the end of its last checkpoint — the one `rls_core::resume` loads —
    /// dropping the records a killed run wrote after it, and marks the
    /// seam with a `resume` record, written with the next checkpoint.
    pub fn append_to(path: &Path, circuit: &str) -> Result<Self, DispatchError> {
        Ok(Campaign {
            sink: Some(CampaignFile::append_to(path)?),
            pending: vec![seam_line("resume", circuit)],
        })
    }

    /// Whether records still reach disk (no append has failed).
    pub fn has_sink(&self) -> bool {
        self.sink.is_some()
    }

    /// The file records go to, while they still reach it.
    pub fn path(&self) -> Option<&Path> {
        self.sink.as_ref().map(|s| s.0.path())
    }

    /// Buffers a record until the next checkpoint or the summary.
    fn buffer(&mut self, line: String) {
        if self.sink.is_some() {
            self.pending.push(line);
        }
    }

    /// Writes a rendered checkpoint (from `rls_core::resume`) together
    /// with every record buffered before it, in one synced append; on
    /// failure warns once and disables the sink — persistence trouble
    /// must never abort a campaign.
    pub fn record_checkpoint(&mut self, line: String) {
        let Some(sink) = self.sink.as_mut() else {
            return;
        };
        self.pending.push(line);
        let records = std::mem::take(&mut self.pending);
        if let Err(e) = sink.append(&records) {
            eprintln!("warning: campaign persistence disabled: {e}");
            self.sink = None;
            rls_obs::counter!("campaign.sink_errors", 1);
        } else {
            rls_obs::counter!("campaign.records", records.len() as u64);
        }
    }

    /// Records the `TS0` phase.
    pub fn record_initial(&mut self, tests: usize, detected: usize) {
        self.buffer(
            JsonObject::new()
                .str("type", "initial")
                .num("ts0_tests", tests as u64)
                .num("ts0_detected", detected as u64)
                .render(),
        );
    }

    /// Records one `(I, D1)` trial.
    pub fn record_trial(&mut self, t: TrialRecord) {
        self.buffer(
            JsonObject::new()
                .str("type", "trial")
                .num("i", t.i)
                .num("d1", u64::from(t.d1))
                .num("tests", t.tests as u64)
                .num("newly_detected", t.newly_detected as u64)
                .bool("kept", t.kept)
                .num("live_after", t.live_after as u64)
                .render(),
        );
    }

    /// Records that the campaign gave up its pool at trial `(i, d1)`.
    pub fn record_degrade(&mut self, i: u64, d1: u32) {
        self.buffer(
            JsonObject::new()
                .str("type", "degrade")
                .num("i", i)
                .num("d1", u64::from(d1))
                .render(),
        );
    }

    /// Writes the outcome summary the way [`Campaign::record_checkpoint`]
    /// writes a checkpoint.
    pub fn record_summary(&mut self, s: CampaignSummary) {
        self.record_checkpoint(
            JsonObject::new()
                .str("type", "summary")
                .num("detected", s.detected as u64)
                .num("target_faults", s.target_faults as u64)
                .num("pairs", s.pairs as u64)
                .num("total_cycles", s.total_cycles)
                .bool("complete", s.complete)
                .num("iterations", s.iterations)
                .render(),
        );
    }
}

/// The `campaign` header ([`Campaign::create`]'s first line) or the
/// `resume` seam ([`Campaign::append_to`]'s first record): the record
/// `kind` and the circuit.
fn seam_line(kind: &str, circuit: &str) -> String {
    JsonObject::new()
        .str("type", kind)
        .str("circuit", circuit)
        .render()
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
        Ok(CampaignLog { records })
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
    use std::path::PathBuf;

    fn scratch_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("rls-dispatch-test-{tag}-{}", std::process::id()))
    }

    fn trial(i: u64, kept: bool) -> TrialRecord {
        TrialRecord {
            i,
            d1: 2,
            tests: 16,
            newly_detected: usize::from(kept) * 3,
            kept,
            live_after: 1,
        }
    }

    #[test]
    fn records_reach_disk_with_the_next_checkpoint() {
        // The header is on disk at once; every other record waits for the
        // next checkpoint or the summary, which carries it in one append,
        // so a file killed between appends ends at its last checkpoint.
        let dir = scratch_dir("stream");
        let mut c = Campaign::create(&dir, "s27", 0xfeed).unwrap();
        let path = c.path().unwrap().to_path_buf();
        let on_disk = || std::fs::read_to_string(&path).unwrap();
        let header = "{\"type\":\"campaign\",\"circuit\":\"s27\"}\n";
        assert_eq!(on_disk(), header);
        c.record_initial(16, 28);
        c.record_trial(trial(1, true));
        assert_eq!(on_disk(), header, "trials wait for their checkpoint");
        c.record_checkpoint(r#"{"type":"checkpoint","iteration":1}"#.to_string());
        let checkpointed = format!(
            "{header}{}\n{}\n{}\n",
            r#"{"type":"initial","ts0_tests":16,"ts0_detected":28}"#,
            r#"{"type":"trial","i":1,"d1":2,"tests":16,"newly_detected":3,"kept":true,"live_after":1}"#,
            r#"{"type":"checkpoint","iteration":1}"#,
        );
        assert_eq!(on_disk(), checkpointed);
        c.record_trial(trial(2, false));
        c.record_degrade(2, 3);
        assert_eq!(on_disk(), checkpointed);
        c.record_summary(CampaignSummary {
            detected: 31,
            target_faults: 32,
            pairs: 1,
            total_cycles: 420,
            complete: false,
            iterations: 2,
        });
        assert_eq!(
            on_disk(),
            format!(
                "{checkpointed}{}\n{}\n{}\n",
                r#"{"type":"trial","i":2,"d1":2,"tests":16,"newly_detected":0,"kept":false,"live_after":1}"#,
                r#"{"type":"degrade","i":2,"d1":3}"#,
                r#"{"type":"summary","detected":31,"target_faults":32,"pairs":1,"total_cycles":420,"complete":false,"iterations":2}"#,
            )
        );
        drop(c);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn same_stamp_campaigns_get_distinct_names() {
        // Two campaigns reserving the same stamp (a run id left by
        // another process, mocked here) must get distinct files, not
        // overwrite.
        let dir = scratch_dir("collide");
        let stem = file_stem("s27", "12345");
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
                "campaign-s27-12345.jsonl",
                "campaign-s27-12345-1.jsonl",
                "campaign-s27-12345-2.jsonl"
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
        let tmp = ".campaign-s27-12345.jsonl.tmp";
        std::fs::create_dir_all(dir.join(tmp)).unwrap();
        let err = CampaignFile::create(&dir, &file_stem("s27", "12345"), "{}").unwrap_err();
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
        let a = Campaign::create(&dir, "s27", 0xabcd).unwrap();
        let b = Campaign::create(&dir, "s27", 0xabcd).unwrap();
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
            name(&a).starts_with("campaign-s27-000000000000abcd-r"),
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
    fn append_to_repairs_a_torn_tail() {
        use std::io::Write as _;
        let dir = scratch_dir("torn-tail");
        let c = Campaign::create(&dir, "s27", 0xfeed).unwrap();
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
        let mut r = Campaign::append_to(&path, "s27").unwrap();
        r.record_checkpoint(r#"{"type":"checkpoint","iteration":1}"#.to_string());
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
        let c = Campaign::create(&dir, "s27", 0xfeed).unwrap();
        let path = c.path().unwrap().to_path_buf();
        drop(c);
        let mut r = Campaign::append_to(&path, "s27").unwrap();
        r.record_trial(trial(1, true));
        r.record_checkpoint(r#"{"type":"checkpoint","iteration":1}"#.to_string());
        let log = CampaignLog::read(&path).unwrap();
        let kinds: Vec<&str> = log
            .records()
            .iter()
            .filter_map(|r| r.str_field("type"))
            .collect();
        assert_eq!(kinds, ["campaign", "resume", "trial", "checkpoint"]);
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
            "{\"type\":\"campaign\",\"circuit\":\"s27\"}\n{\"type\":\"tri",
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
