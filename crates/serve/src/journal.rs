//! Crash-recovery journal: the server's durable record of in-flight
//! campaigns.
//!
//! One JSONL file (`serve-journal.jsonl` under the campaign directory)
//! holds `begin` / `end` entry pairs. A `begin` is appended — and fsynced
//! — before a campaign's first frame reaches the client; the matching
//! `end` is appended when the campaign finishes (`done`), is deliberately
//! stopped (`interrupted`), or fails. After a crash, every `begin`
//! without an `end` names a campaign the server died owning: on startup
//! [`Journal::open`] returns those entries and the server resumes each
//! one from its last checkpoint through the ordinary
//! `Procedure2::resume` machinery.
//!
//! Persistence follows the `dispatch::jsonl` campaign-file idiom exactly:
//! the compacted file is written to a hidden temp name, fsynced, and
//! renamed into place; appends are `write_all` + `sync_data`; the reader
//! tolerates a torn final line (a crash mid-append) but treats mid-file
//! garbage as corruption. A `begin` carries everything recovery needs —
//! run id, circuit, config fingerprint, campaign file path, and the raw
//! request line — so the server can rebuild the exact configuration and
//! refuse to resume under a fingerprint that no longer matches.

use std::fs::{File, OpenOptions};
use std::io::{ErrorKind, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

use rls_dispatch::inject;
use rls_dispatch::jsonl::{self, JsonObject, JsonValue};

/// The journal's file name under the campaign directory.
pub const JOURNAL_FILE: &str = "serve-journal.jsonl";

/// One in-flight campaign as journaled at `begin`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEntry {
    /// The client-visible run id (kept stable across recovery).
    pub run_id: String,
    /// Circuit name (label for uploads).
    pub circuit: String,
    /// Config fingerprint — must match the rebuilt config at recovery.
    pub fingerprint: u64,
    /// The campaign file the run checkpoints into.
    pub path: PathBuf,
    /// Worker threads the campaign was admitted with.
    pub threads: usize,
    /// The raw request line, replayed to rebuild the configuration.
    pub request: String,
}

impl JournalEntry {
    fn render(&self) -> String {
        JsonObject::new()
            .str("type", "begin")
            .str("run_id", &self.run_id)
            .str("circuit", &self.circuit)
            .str("fingerprint", &format!("{:016x}", self.fingerprint))
            .str("path", &self.path.display().to_string())
            .num("threads", self.threads as u64)
            .str("request", &self.request)
            .render()
    }

    fn from_value(v: &JsonValue) -> Result<JournalEntry, String> {
        let field = |k: &str| {
            v.str_field(k)
                .map(str::to_string)
                .ok_or_else(|| format!("begin entry missing `{k}`"))
        };
        let fingerprint = u64::from_str_radix(&field("fingerprint")?, 16)
            .map_err(|_| "begin entry has a non-hex fingerprint".to_string())?;
        Ok(JournalEntry {
            run_id: field("run_id")?,
            circuit: field("circuit")?,
            fingerprint,
            path: PathBuf::from(field("path")?),
            threads: v.u64_field("threads").unwrap_or(1) as usize,
            request: field("request")?,
        })
    }
}

/// The open journal: an append handle shared by every session thread.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: Mutex<File>,
}

impl Journal {
    /// Opens (creating if absent) the journal under `dir`, compacts it,
    /// and returns the in-flight entries a previous process left behind.
    ///
    /// Compaction rewrites the file to hold only those in-flight `begin`
    /// entries — temp file, fsync, atomic rename — so the journal stays
    /// bounded by the number of concurrently admitted campaigns rather
    /// than growing with server lifetime. A corrupt journal (garbage
    /// before the final line) is quarantined to `serve-journal.corrupt`
    /// and recovery starts empty: a crash can tear only the tail, so
    /// mid-file damage means something other than us wrote the file, and
    /// refusing to serve would turn one bad line into a dead service.
    pub fn open(dir: &Path) -> std::io::Result<(Journal, Vec<JournalEntry>)> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(JOURNAL_FILE);
        let inflight = match read(&path) {
            Ok(records) => inflight(&records),
            Err(err) => {
                let quarantine = dir.join("serve-journal.corrupt");
                eprintln!(
                    "rls-serve: journal {} is corrupt ({err}); quarantining to {} and starting empty",
                    path.display(),
                    quarantine.display()
                );
                std::fs::rename(&path, &quarantine)?;
                Vec::new()
            }
        };
        // Compact: rewrite only the surviving begins via temp + rename.
        let tmp = dir.join(format!(".{JOURNAL_FILE}.tmp"));
        {
            let mut f = File::create(&tmp)?; // lint: persist-ok(hidden temp for the compaction rewrite; fsynced and renamed over the journal below)
            for entry in &inflight {
                f.write_all(entry.render().as_bytes())?;
                f.write_all(b"\n")?;
            }
            f.sync_all()?;
        }
        std::fs::rename(&tmp, &path)?;
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
        let file = OpenOptions::new().append(true).open(&path)?;
        Ok((
            Journal {
                path,
                file: Mutex::new(file),
            },
            inflight,
        ))
    }

    /// The journal file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Journals a campaign as in-flight. Durable before it returns.
    pub fn begin(&self, entry: &JournalEntry) -> std::io::Result<()> {
        self.append(&entry.render())
    }

    /// Journals a campaign's outcome (`done`, `interrupted`, `failed`,
    /// `rejected`), closing its `begin`.
    pub fn end(&self, run_id: &str, outcome: &str) -> std::io::Result<()> {
        let line = JsonObject::new()
            .str("type", "end")
            .str("run_id", run_id)
            .str("outcome", outcome)
            .render();
        self.append(&line)
    }

    fn append(&self, line: &str) -> std::io::Result<()> {
        let mut file = self.file.lock().unwrap_or_else(PoisonError::into_inner);
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        // Chaos fault point: die exactly like a power cut would, either
        // mid-append (torn tail, fsync never ran) or just after the entry
        // became durable. Recovery must converge from both states.
        match inject::on_journal_append() {
            inject::JournalCrash::None => {}
            inject::JournalCrash::Torn => {
                // lint: block-ok(the mutex IS the append serializer; a torn-crash fault point)
                let _ = file.write_all(&bytes[..bytes.len() / 2]); // lint: panic-ok(len/2 <= len)
                let _ = file.flush(); // lint: block-ok(the mutex IS the append serializer)
                std::process::exit(86);
            }
            inject::JournalCrash::Durable => {
                let _ = file.write_all(&bytes); // lint: block-ok(the mutex IS the append serializer)
                let _ = file.sync_data(); // lint: block-ok(durable-crash fault point; mutex serializes appends)
                std::process::exit(86);
            }
        }
        file.write_all(&bytes)?; // lint: block-ok(appends must be exclusive; the Mutex<File> is the whole protocol)
        file.sync_data() // lint: block-ok(durability barrier before begin/end returns; serialized by design)
    }
}

/// Reads every journal record, tolerating a torn final line (the record
/// being appended when the process died) but not mid-file garbage —
/// the same contract as `CampaignLog::read`.
pub fn read(path: &Path) -> Result<Vec<JsonValue>, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
    };
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    let mut records = Vec::with_capacity(lines.len());
    for (i, line) in lines.iter().enumerate() {
        match jsonl::parse(line) {
            Ok(v) if v.str_field("type").is_some() => records.push(v),
            _ if i + 1 == lines.len() => break, // torn tail: crash mid-append
            Ok(_) => return Err(format!("{}: record {} has no type", path.display(), i + 1)),
            Err(e) => return Err(format!("{}: record {}: {e}", path.display(), i + 1)),
        }
    }
    Ok(records)
}

/// The `begin` entries without a matching `end`, in journal order.
/// Malformed begins are skipped (with a warning) rather than wedging
/// startup: recovery of the others must not hinge on the worst entry.
pub fn inflight(records: &[JsonValue]) -> Vec<JournalEntry> {
    let mut open: Vec<JournalEntry> = Vec::new();
    for record in records {
        match record.str_field("type") {
            Some("begin") => match JournalEntry::from_value(record) {
                Ok(entry) => open.push(entry),
                Err(err) => eprintln!("rls-serve: skipping malformed journal begin: {err}"),
            },
            Some("end") => {
                if let Some(run_id) = record.str_field("run_id") {
                    open.retain(|e| e.run_id != run_id);
                }
            }
            _ => {}
        }
    }
    open
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("rls-serve-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn entry(run_id: &str) -> JournalEntry {
        JournalEntry {
            run_id: run_id.to_string(),
            circuit: "s27".to_string(),
            fingerprint: 0xdead_beef_0042_0001,
            path: PathBuf::from("/tmp/campaign-s27.jsonl"),
            threads: 2,
            request: r#"{"type":"run","circuit":"s27","la":4,"lb":8,"n":8}"#.to_string(),
        }
    }

    #[test]
    fn begin_end_round_trips_and_inflight_tracks_open_begins() {
        let dir = scratch("roundtrip");
        let (journal, recovered) = Journal::open(&dir).unwrap();
        assert!(recovered.is_empty());
        journal.begin(&entry("r1")).unwrap();
        journal.begin(&entry("r2")).unwrap();
        journal.end("r1", "done").unwrap();
        let records = read(journal.path()).unwrap();
        assert_eq!(records.len(), 3);
        let open = inflight(&records);
        assert_eq!(open.len(), 1);
        assert_eq!(open[0], entry("r2"), "fields survive the round trip");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_compacts_to_inflight_only_and_reports_them() {
        let dir = scratch("compact");
        {
            let (journal, _) = Journal::open(&dir).unwrap();
            journal.begin(&entry("r1")).unwrap();
            journal.end("r1", "done").unwrap();
            journal.begin(&entry("r2")).unwrap();
        }
        let (journal, recovered) = Journal::open(&dir).unwrap();
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].run_id, "r2");
        let records = read(journal.path()).unwrap();
        assert_eq!(records.len(), 1, "closed pairs are compacted away");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_tolerated_but_midfile_garbage_is_not() {
        let dir = scratch("torn");
        {
            let (journal, _) = Journal::open(&dir).unwrap();
            journal.begin(&entry("r1")).unwrap();
            journal.begin(&entry("r2")).unwrap();
        }
        let path = dir.join(JOURNAL_FILE);
        // A torn tail — the crash happened mid-append of r2's `end`.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"type\":\"end\",\"run_id\":\"r2\",\"outco");
        std::fs::write(&path, &text).unwrap();
        let records = read(&path).unwrap();
        assert_eq!(records.len(), 2, "the torn line is ignored");
        assert_eq!(
            inflight(&records).len(),
            2,
            "r2 stays in-flight: its end never landed"
        );
        // The same bytes mid-file are corruption, not a crash artifact.
        let torn_then_more = format!("{text}\n{}\n", entry("r3").render());
        std::fs::write(&path, torn_then_more).unwrap();
        let err = read(&path).unwrap_err();
        assert!(err.contains("record 3"), "{err}");
        // open() quarantines the corrupt journal instead of dying.
        let (_, recovered) = Journal::open(&dir).unwrap();
        assert!(recovered.is_empty());
        assert!(dir.join("serve-journal.corrupt").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn malformed_begin_is_skipped_not_fatal() {
        let dir = scratch("malformed");
        {
            let (journal, _) = Journal::open(&dir).unwrap();
            journal.begin(&entry("r1")).unwrap();
        }
        let path = dir.join(JOURNAL_FILE);
        let mut text = String::from("{\"type\":\"begin\",\"run_id\":\"half\"}\n");
        text.push_str(&std::fs::read_to_string(&path).unwrap());
        std::fs::write(&path, text).unwrap();
        let (_, recovered) = Journal::open(&dir).unwrap();
        assert_eq!(recovered.len(), 1, "the complete begin still recovers");
        assert_eq!(recovered[0].run_id, "r1");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
