//! The durable-JSONL reader contract, checked on every kind of file the
//! workspace persists: campaign records, obs metrics streams and flight
//! recorder dumps.
//!
//! Each kind is written by its real writer and read back the way its
//! production consumer reads it (`CampaignLog`, which `rls-report` and
//! resume load through). All of them sit on `rls_obs::jsonl`, so one
//! table pins one contract:
//!
//! - a torn final line is dropped;
//! - garbage before the final line is an error carrying its 1-based line
//!   number (blank lines counted);
//! - blank lines are skipped wherever they appear;
//! - reopening after a torn tail does not glue the next record onto the
//!   torn bytes;
//! - a name collision takes the `-k` suffix, and no temp file is left.

use std::path::{Path, PathBuf};

use rls_dispatch::{Campaign, CampaignLog, DispatchError, TrialRecord};
use rls_obs::jsonl::{JsonValue, JsonlFile};
use rls_obs::{Event, JsonlSink, MetricKind, MetricRecord, Sink};

/// One persisted file kind.
struct Kind {
    name: &'static str,
    /// Writes a file of at least two records under `dir` through the real
    /// writer and returns its path.
    write: fn(&Path) -> PathBuf,
    /// Reads a file back as its consumer does; `Err` carries the line
    /// number of mid-file garbage.
    read: fn(&Path) -> Result<Vec<JsonValue>, usize>,
    /// Reopens the file after a crash and appends a record whose
    /// `run_id` is `"reopened"`.
    reopen: fn(&Path),
}

const REOPENED: &str = r#"{"type":"reopened","run_id":"reopened"}"#;

fn campaign_log(path: &Path) -> Result<Vec<JsonValue>, usize> {
    match CampaignLog::read(path) {
        Ok(log) => Ok(log.records().to_vec()),
        Err(DispatchError::Parse { line, .. }) => Err(line),
        Err(e) => panic!("{e}"),
    }
}

fn reopen_any(path: &Path) {
    JsonlFile::append_to(path, |_| true)
        .unwrap()
        .append(&[REOPENED])
        .unwrap();
}

fn write_campaign(dir: &Path) -> PathBuf {
    let mut c = Campaign::create(dir, "s27", 0xc0ffee).unwrap();
    c.record_initial(16, 28);
    c.record_trial(TrialRecord {
        i: 1,
        d1: 1,
        tests: 16,
        newly_detected: 2,
        kept: true,
        live_after: 2,
    });
    c.record_checkpoint(r#"{"type":"checkpoint","iteration":1}"#.to_string());
    c.path().unwrap().to_path_buf()
}

fn reopen_campaign(path: &Path) {
    let mut c = Campaign::append_to(path, "s27").unwrap();
    c.record_checkpoint(REOPENED.to_string());
}

fn write_obs_stream(dir: &Path) -> PathBuf {
    let sink = JsonlSink::create(dir, "contract").unwrap();
    sink.event(&Event::Metric(MetricRecord {
        kind: MetricKind::Counter,
        name: "fsim.batches",
        value: 4,
        fields: Vec::new(),
    }));
    sink.finish(123);
    sink.path().to_path_buf()
}

fn write_recorder_dump(dir: &Path) -> PathBuf {
    assert!(rls_obs::recorder::start(64), "the recorder must arm");
    rls_obs::recorder::set_dump_dir(dir);
    rls_obs::mark!("dispatch.degrade");
    let path = rls_obs::recorder::dump("contract").expect("an armed recorder dumps");
    rls_obs::recorder::stop();
    path
}

const KINDS: &[Kind] = &[
    Kind {
        name: "campaign file",
        write: write_campaign,
        read: campaign_log,
        reopen: reopen_campaign,
    },
    Kind {
        name: "obs stream",
        write: write_obs_stream,
        read: campaign_log,
        reopen: reopen_any,
    },
    Kind {
        name: "recorder dump",
        write: write_recorder_dump,
        read: campaign_log,
        reopen: reopen_any,
    },
];

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "rls-jsonl-contract-{}-{}",
        name.replace(' ', "-"),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn listing(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

#[test]
fn every_persisted_kind_obeys_the_reader_contract() {
    const TORN: &str = r#"{"type":"torn","i":"#;
    for kind in KINDS {
        let dir = scratch(kind.name);
        let path = (kind.write)(&dir);
        let name = kind.name;
        assert!(
            !listing(&dir).iter().any(|n| n.ends_with(".tmp")),
            "{name}: temp file left behind: {:?}",
            listing(&dir)
        );
        let text = std::fs::read_to_string(&path).unwrap();
        let intact = (kind.read)(&path).unwrap();
        assert!(intact.len() >= 2, "{name}: {intact:?}");
        let rewrite = |t: &str| std::fs::write(&path, t).unwrap();

        // A torn final line is dropped.
        for torn in [TORN, r#"{"a":1} extra"#] {
            rewrite(&format!("{text}{torn}"));
            assert_eq!((kind.read)(&path).unwrap(), intact, "{name}: {torn:?}");
        }

        // Blank lines are skipped wherever they appear.
        let (first, rest) = text.split_once('\n').unwrap();
        rewrite(&format!("\n{first}\n\n{rest}\n"));
        assert_eq!((kind.read)(&path).unwrap(), intact, "{name}: blank lines");

        // Garbage before the final line is an error at its own line.
        rewrite(&format!("{first}\n\nGARBAGE\n{rest}"));
        assert_eq!((kind.read)(&path), Err(3), "{name}: mid-file garbage");

        // Reopening after a torn tail starts a fresh line.
        rewrite(&format!("{text}{TORN}"));
        (kind.reopen)(&path);
        let reopened = (kind.read)(&path).unwrap();
        let last = reopened.last().unwrap();
        assert_eq!(last.str_field("run_id"), Some("reopened"), "{name}");
        let after = std::fs::read_to_string(&path).unwrap();
        assert!(
            !after.contains(TORN),
            "{name}: torn bytes survived:\n{after}"
        );
        assert!(after.ends_with('\n'), "{name}");

        // A name collision takes the `-k` suffix.
        let file_name = path.file_name().unwrap().to_str().unwrap();
        let stem = file_name.strip_suffix(".jsonl").unwrap();
        let twin = JsonlFile::create(&dir, stem, &["{}"]).unwrap();
        assert_eq!(
            twin.path().file_name().unwrap().to_str().unwrap(),
            format!("{stem}-1.jsonl"),
            "{name}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
