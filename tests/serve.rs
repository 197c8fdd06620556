//! Campaign-server integration: a served campaign is byte-identical to a
//! direct run, concurrent clients are isolated, the wire protocol rejects
//! garbage without falling over, and drain leaves every accepted request
//! finished or resumably checkpointed.
//!
//! Every test runs its own server on its own socket in a private temp
//! directory — nothing here touches `results/`.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

use random_limited_scan::core::{Procedure2, RlsConfig};
use rls_serve::{normalize_line, ServeConfig, Server};

/// A fresh private directory for one test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rls-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Starts a server; returns its socket path and join handle.
fn start_server(
    dir: &Path,
    threads: usize,
    max_inflight: usize,
) -> (PathBuf, std::thread::JoinHandle<std::io::Result<()>>) {
    let socket = dir.join("rls.sock");
    let mut cfg = ServeConfig::new(socket.clone(), dir.join("served"));
    cfg.threads = threads;
    cfg.max_inflight = max_inflight;
    let server = Server::bind(cfg).expect("bind");
    let handle = std::thread::spawn(move || server.run());
    (socket, handle)
}

fn connect(socket: &Path) -> UnixStream {
    // The listener is up as soon as `bind` returns, so connect directly.
    UnixStream::connect(socket).expect("connect")
}

/// Sends one request line and collects the whole response stream.
fn roundtrip(socket: &Path, request: &str) -> Vec<String> {
    let mut stream = connect(socket);
    stream.write_all(request.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    BufReader::new(stream)
        .lines()
        .map_while(Result::ok)
        .filter(|l| !l.is_empty())
        .collect()
}

fn shutdown(socket: &Path) {
    let lines = roundtrip(socket, r#"{"type":"shutdown"}"#);
    assert_eq!(lines, vec![r#"{"type":"draining"}"#.to_string()]);
}

/// Normalizes a served response stream: control frames dropped, record
/// lines normalized exactly as the byte-compare requires.
fn normalize_stream(lines: &[String]) -> Vec<String> {
    lines
        .iter()
        .filter(|l| {
            let v = rls_obs::jsonl::parse(l).expect("served line parses");
            !rls_serve::protocol::is_control(&v)
        })
        .filter_map(|l| normalize_line(l).expect("served record normalizes"))
        .collect()
}

/// Runs the configuration directly into `dir` and returns the campaign
/// file's normalized lines — the reference bytes.
fn direct_reference(circuit: &rls_netlist::Circuit, cfg: RlsConfig, dir: &Path) -> Vec<String> {
    Procedure2::new(circuit, cfg.with_campaign_dir(dir)).run();
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    assert_eq!(files.len(), 1, "one campaign file per direct run");
    let text = std::fs::read_to_string(files.pop().unwrap()).unwrap();
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .filter_map(|l| normalize_line(l).expect("direct record normalizes"))
        .collect()
}

#[test]
fn served_campaign_is_byte_identical_to_a_direct_run() {
    let dir = scratch("exact");
    let (socket, server) = start_server(&dir, 2, 4);
    let lines = roundtrip(
        &socket,
        r#"{"type":"run","circuit":"s27","la":4,"lb":8,"n":8,"threads":2}"#,
    );
    assert!(
        lines.first().is_some_and(|l| l.contains("\"accepted\"")),
        "{lines:?}"
    );
    assert!(
        lines.last().is_some_and(|l| l.contains("\"done\"")),
        "{lines:?}"
    );
    let direct = direct_reference(
        &random_limited_scan::benchmarks::s27(),
        RlsConfig::new(4, 8, 8).with_threads(2),
        &dir.join("direct"),
    );
    assert_eq!(
        normalize_stream(&lines),
        direct,
        "served ≡ direct, byte for byte"
    );
    // The served campaign file holds the same records as the stream.
    let accepted = rls_obs::jsonl::parse(&lines[0]).unwrap();
    let path = accepted
        .str_field("path")
        .expect("accepted carries the file path");
    let file_text = std::fs::read_to_string(path).unwrap();
    let from_file: Vec<String> = file_text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .filter_map(|l| normalize_line(l).unwrap())
        .collect();
    assert_eq!(from_file, direct, "stream and file carry the same records");
    shutdown(&socket);
    server.join().unwrap().unwrap();
}

#[test]
fn concurrent_clients_are_isolated_and_exact() {
    let dir = scratch("concurrent");
    let (socket, server) = start_server(&dir, 3, 4);
    let sock_a = socket.clone();
    let sock_b = socket.clone();
    let a = std::thread::spawn(move || {
        roundtrip(
            &sock_a,
            r#"{"type":"run","circuit":"s27","la":4,"lb":8,"n":8,"threads":2,"seed":7}"#,
        )
    });
    let b = std::thread::spawn(move || {
        roundtrip(
            &sock_b,
            r#"{"type":"run","circuit":"s208","la":2,"lb":3,"n":2,"threads":2,"max_iterations":2}"#,
        )
    });
    let lines_a = a.join().unwrap();
    let lines_b = b.join().unwrap();
    for (lines, what) in [(&lines_a, "s27"), (&lines_b, "s208")] {
        assert!(
            lines.last().is_some_and(|l| l.contains("\"done\"")),
            "{what}: {lines:?}"
        );
    }
    let direct_a = direct_reference(
        &random_limited_scan::benchmarks::s27(),
        RlsConfig::new(4, 8, 8)
            .with_seeds(rls_lfsr::SeedSequence::new(7))
            .with_threads(2),
        &dir.join("direct-a"),
    );
    let mut cfg_b = RlsConfig::new(2, 3, 2).with_threads(2);
    cfg_b.max_iterations = 2;
    let direct_b = direct_reference(
        &random_limited_scan::benchmarks::by_name("s208").unwrap(),
        cfg_b,
        &dir.join("direct-b"),
    );
    assert_eq!(
        normalize_stream(&lines_a),
        direct_a,
        "client A unpolluted by B"
    );
    assert_eq!(
        normalize_stream(&lines_b),
        direct_b,
        "client B unpolluted by A"
    );
    shutdown(&socket);
    server.join().unwrap().unwrap();
}

#[test]
fn malformed_and_unservable_requests_get_structured_frames() {
    let dir = scratch("reject");
    let (socket, server) = start_server(&dir, 1, 4);
    for (request, expect) in [
        ("not json at all", "\"error\""),
        (r#"{"type":"frobnicate"}"#, "\"error\""),
        (r#"{"type":"run","circuit":"s27"}"#, "\"error\""),
        (
            r#"{"type":"run","circuit":"no-such-circuit","la":4,"lb":8,"n":8}"#,
            "\"rejected\"",
        ),
        (
            r#"{"type":"run","netlist":"y = NOT(","name":"bad","la":1,"lb":2,"n":1}"#,
            "\"rejected\"",
        ),
        (
            r#"{"type":"run","circuit":"s27","la":9,"lb":3,"n":8}"#,
            "\"rejected\"",
        ),
    ] {
        let lines = roundtrip(&socket, request);
        assert_eq!(lines.len(), 1, "{request} → {lines:?}");
        assert!(lines[0].contains(expect), "{request} → {lines:?}");
    }
    // The server is still perfectly serviceable afterwards.
    let lines = roundtrip(
        &socket,
        r#"{"type":"run","circuit":"s27","la":4,"lb":8,"n":8}"#,
    );
    assert!(lines.last().is_some_and(|l| l.contains("\"done\"")));
    shutdown(&socket);
    server.join().unwrap().unwrap();
}

#[test]
fn oversized_netlist_uploads_are_refused() {
    let dir = scratch("oversize");
    let (socket, server) = start_server(&dir, 1, 4);
    // A request line just over the limit; the trailing unread kilobyte
    // fits in the socket buffer, so the write never wedges.
    let filler = "a".repeat(rls_serve::MAX_REQUEST_BYTES + 1000);
    let request =
        format!(r#"{{"type":"run","netlist":"{filler}","name":"big","la":1,"lb":2,"n":1}}"#);
    let mut stream = connect(&socket);
    // The server may close the socket after reading its bounded prefix;
    // a late EPIPE on our remaining bytes is expected, not a failure.
    let _ = stream.write_all(request.as_bytes());
    let _ = stream.write_all(b"\n");
    let mut reply = String::new();
    let _ = BufReader::new(&stream).read_line(&mut reply);
    assert!(
        reply.contains("\"error\"") && reply.contains("exceeds"),
        "{reply:?}"
    );
    // A normal request right after proves the server shrugged it off.
    let lines = roundtrip(
        &socket,
        r#"{"type":"run","circuit":"s27","la":4,"lb":8,"n":8}"#,
    );
    assert!(lines.last().is_some_and(|l| l.contains("\"done\"")));
    shutdown(&socket);
    server.join().unwrap().unwrap();
}

#[test]
fn mid_request_disconnect_leaves_the_server_healthy() {
    let dir = scratch("disconnect");
    let (socket, server) = start_server(&dir, 2, 4);
    {
        let mut stream = connect(&socket);
        stream
            .write_all(
                b"{\"type\":\"run\",\"circuit\":\"s208\",\"la\":2,\"lb\":3,\"n\":2,\"threads\":2}\n",
            )
            .unwrap();
        let mut first = String::new();
        BufReader::new(&stream).read_line(&mut first).unwrap();
        assert!(first.contains("\"accepted\""), "{first:?}");
        // Drop the connection while the campaign runs (or just finished —
        // either way the server must not care).
    }
    // Give the abandoned session a moment to hit the dead socket.
    std::thread::sleep(Duration::from_millis(100));
    let lines = roundtrip(
        &socket,
        r#"{"type":"run","circuit":"s27","la":4,"lb":8,"n":8,"threads":2}"#,
    );
    let direct = direct_reference(
        &random_limited_scan::benchmarks::s27(),
        RlsConfig::new(4, 8, 8).with_threads(2),
        &dir.join("direct"),
    );
    assert_eq!(
        normalize_stream(&lines),
        direct,
        "a later campaign is still exact after an abandoned one"
    );
    shutdown(&socket);
    server.join().unwrap().unwrap();
}

#[test]
fn drained_campaign_checkpoints_and_a_served_resume_completes_it() {
    // A drain must leave every accepted campaign finished *or* resumable.
    // Build the drained half directly with the server's own executor (a
    // pre-set drain flag is the deterministic stand-in for "shutdown
    // arrived mid-campaign"), then hand the checkpointed file to a real
    // server and let a `resume` request finish it.
    let dir = scratch("drain-resume");
    let circuit = random_limited_scan::benchmarks::by_name("s208").unwrap();
    let cfg = RlsConfig::new(2, 3, 2); // TS0 alone does not reach coverage
    let uninterrupted = Procedure2::new(&circuit, cfg.clone()).run();
    assert!(
        !uninterrupted.pairs.is_empty(),
        "needs pairs, else resume is trivial"
    );

    let compiled = Arc::new(rls_fsim::CompiledCircuit::compile(circuit.clone()).unwrap());
    let pool = rls_dispatch::SharedPool::new(2);
    let procedure = Procedure2::new(&circuit, cfg.clone());
    let pooled = random_limited_scan::core::CampaignExecutor::new(
        &compiled,
        procedure.chains(),
        &cfg,
        Some(pool.register(1)),
    );
    let drain = AtomicBool::new(true); // drained before the first trial
    let mut exec = rls_serve::ServedExecutor::new(pooled, &drain, Arc::new(AtomicBool::new(false)));
    let print = procedure.fingerprint();
    let mut campaign =
        rls_dispatch::Campaign::create(&dir.join("served"), circuit.name(), 1, print).unwrap();
    let outcome = procedure.run_on(&mut exec, Some(&mut campaign), None);
    assert!(!outcome.complete, "the drain stopped it early");
    let path = campaign
        .path()
        .expect("campaign streamed to disk")
        .to_path_buf();
    drop(campaign);
    pool.shutdown();

    let (socket, server) = start_server(&dir, 2, 4);
    let request = format!(
        r#"{{"type":"run","circuit":"s208","la":2,"lb":3,"n":2,"resume":"{}"}}"#,
        path.display()
    );
    let lines = roundtrip(&socket, &request);
    let done = lines.last().expect("resume produced a stream");
    assert!(done.contains("\"done\""), "{lines:?}");
    let v = rls_obs::jsonl::parse(done).unwrap();
    assert_eq!(
        v.u64_field("detected"),
        Some(uninterrupted.total_detected as u64)
    );
    assert_eq!(v.u64_field("pairs"), Some(uninterrupted.pairs.len() as u64));
    assert_eq!(
        v.bool_field("complete"),
        Some(uninterrupted.complete),
        "resumed run converges to the uninterrupted outcome"
    );
    // The stream replays the resume seam so clients see the whole story.
    assert!(
        lines.iter().any(|l| l.contains("\"type\":\"resume\"")),
        "{lines:?}"
    );
    // And the file now ends in a summary matching that outcome.
    let text = std::fs::read_to_string(&path).unwrap();
    let last = text.lines().rfind(|l| !l.trim().is_empty()).unwrap();
    assert!(last.contains("\"type\":\"summary\""), "{last}");
    assert!(
        last.contains(&format!("\"detected\":{}", uninterrupted.total_detected)),
        "{last}"
    );

    // A resume against a mismatched configuration is a clean reject.
    let bad = format!(
        r#"{{"type":"run","circuit":"s208","la":2,"lb":3,"n":4,"resume":"{}"}}"#,
        path.display()
    );
    let lines = roundtrip(&socket, &bad);
    assert_eq!(lines.len(), 1);
    assert!(
        lines[0].contains("\"rejected\"") && lines[0].contains("cannot resume"),
        "{lines:?}"
    );
    shutdown(&socket);
    server.join().unwrap().unwrap();
}

#[test]
fn attach_replays_a_finished_run_and_rejects_unknown_ids() {
    let dir = scratch("attach");
    let (socket, server) = start_server(&dir, 2, 4);
    let lines = roundtrip(
        &socket,
        r#"{"type":"run","circuit":"s27","la":4,"lb":8,"n":8,"threads":2}"#,
    );
    assert!(
        lines.last().is_some_and(|l| l.contains("\"done\"")),
        "{lines:?}"
    );
    let accepted = rls_obs::jsonl::parse(&lines[0]).unwrap();
    let run_id = accepted
        .str_field("run_id")
        .expect("accepted carries run_id")
        .to_string();

    // Attaching to the finished run replays the campaign file behind a
    // `recovered` frame and ends with the stored final frame.
    let replay = roundtrip(
        &socket,
        &format!(r#"{{"type":"attach","run_id":"{run_id}"}}"#),
    );
    assert!(
        replay
            .first()
            .is_some_and(|l| l.contains("\"recovered\"") && l.contains("\"done\"")),
        "{replay:?}"
    );
    assert!(
        replay
            .last()
            .is_some_and(|l| l.contains("\"type\":\"done\"")),
        "{replay:?}"
    );
    let direct = direct_reference(
        &random_limited_scan::benchmarks::s27(),
        RlsConfig::new(4, 8, 8).with_threads(2),
        &dir.join("direct"),
    );
    let replayed = rls_serve::normalize_recovered(replay.iter().map(String::as_str))
        .expect("replay normalizes");
    assert_eq!(replayed, direct, "attach replay ≡ direct, byte for byte");

    // Unknown run ids are a structured rejection, not a hang.
    let unknown = roundtrip(&socket, r#"{"type":"attach","run_id":"no-such-run"}"#);
    assert_eq!(unknown.len(), 1, "{unknown:?}");
    assert!(
        unknown[0].contains("\"rejected\"") && unknown[0].contains("unknown run id"),
        "{unknown:?}"
    );
    shutdown(&socket);
    server.join().unwrap().unwrap();
}

#[test]
fn a_clean_run_leaves_no_journal_backlog() {
    // Every admitted campaign journals a begin; a finished one must pair
    // it with an end, so a restart after a clean run recovers nothing.
    let dir = scratch("journal-clean");
    let (socket, server) = start_server(&dir, 1, 4);
    let lines = roundtrip(
        &socket,
        r#"{"type":"run","circuit":"s27","la":4,"lb":8,"n":8}"#,
    );
    assert!(
        lines.last().is_some_and(|l| l.contains("\"done\"")),
        "{lines:?}"
    );
    shutdown(&socket);
    server.join().unwrap().unwrap();
    let (journal, orphans) = rls_serve::Journal::open(&dir.join("served")).unwrap();
    drop(journal);
    assert!(
        orphans.is_empty(),
        "clean runs leave nothing in flight: {orphans:?}"
    );
}

/// Builds a checkpointed-but-unfinished s208 campaign in `dir`/served —
/// the on-disk state a crashed server leaves behind — and returns its
/// file plus the config fingerprint a correct recovery must match.
fn interrupted_campaign(dir: &Path) -> (RlsConfig, PathBuf, u64) {
    let circuit = random_limited_scan::benchmarks::by_name("s208").unwrap();
    let cfg = RlsConfig::new(2, 3, 2); // TS0 alone does not reach coverage
    let compiled = Arc::new(rls_fsim::CompiledCircuit::compile(circuit.clone()).unwrap());
    let pool = rls_dispatch::SharedPool::new(2);
    let procedure = Procedure2::new(&circuit, cfg.clone());
    let pooled = random_limited_scan::core::CampaignExecutor::new(
        &compiled,
        procedure.chains(),
        &cfg,
        Some(pool.register(1)),
    );
    let drain = AtomicBool::new(true); // cancelled before the first trial
    let mut exec = rls_serve::ServedExecutor::new(pooled, &drain, Arc::new(AtomicBool::new(false)));
    let print = procedure.fingerprint();
    let mut campaign =
        rls_dispatch::Campaign::create(&dir.join("served"), circuit.name(), 1, print).unwrap();
    let outcome = procedure.run_on(&mut exec, Some(&mut campaign), None);
    assert!(!outcome.complete, "the campaign must be left unfinished");
    let path = campaign
        .path()
        .expect("campaign streamed to disk")
        .to_path_buf();
    drop(campaign);
    pool.shutdown();
    (cfg, path, print)
}

#[test]
fn a_journaled_orphan_is_auto_recovered_and_attach_collects_the_result() {
    // The deterministic heart of crash recovery, no fault injection
    // needed: a journal `begin` without an `end` plus a checkpointed
    // campaign file is exactly what a dead server leaves behind. A fresh
    // server over that directory must finish the campaign unprompted,
    // under the original run id, to the direct run's exact bytes.
    let dir = scratch("auto-recovery");
    let (cfg, path, print) = interrupted_campaign(&dir);
    let request = r#"{"type":"run","circuit":"s208","la":2,"lb":3,"n":2}"#;
    let (journal, orphans) = rls_serve::Journal::open(&dir.join("served")).unwrap();
    assert!(orphans.is_empty());
    journal
        .begin(&rls_serve::journal::JournalEntry {
            run_id: "restart-owes-me".to_string(),
            circuit: "s208".to_string(),
            fingerprint: print,
            path: path.clone(),
            threads: 1,
            request: request.to_string(),
        })
        .unwrap();
    drop(journal);

    let (socket, server) = start_server(&dir, 2, 4);
    // Attach blocks while the recovery runs, then replays the result.
    let replay = roundtrip(&socket, r#"{"type":"attach","run_id":"restart-owes-me"}"#);
    assert!(
        replay.first().is_some_and(|l| l.contains("\"recovered\"")),
        "{replay:?}"
    );
    assert!(
        replay
            .last()
            .is_some_and(|l| l.contains("\"type\":\"done\"")),
        "{replay:?}"
    );
    let direct = direct_reference(
        &random_limited_scan::benchmarks::by_name("s208").unwrap(),
        cfg,
        &dir.join("direct"),
    );
    let replayed = rls_serve::normalize_recovered(replay.iter().map(String::as_str))
        .expect("replay normalizes");
    assert_eq!(replayed, direct, "auto-recovery ≡ direct, byte for byte");
    shutdown(&socket);
    server.join().unwrap().unwrap();
    // The recovery closed the journal entry it was owed.
    let (journal, orphans) = rls_serve::Journal::open(&dir.join("served")).unwrap();
    drop(journal);
    assert!(orphans.is_empty(), "{orphans:?}");
}

#[test]
fn recovery_rejects_a_journal_entry_whose_fingerprint_no_longer_matches() {
    // If the rebuilt configuration no longer hashes to what the journal
    // recorded (changed defaults, edited file), recovery must refuse to
    // resume — silently computing different science under the old run id
    // would be worse than failing — and must close the entry as rejected.
    let dir = scratch("fingerprint-reject");
    let (journal, orphans) = rls_serve::Journal::open(&dir.join("served")).unwrap();
    assert!(orphans.is_empty());
    journal
        .begin(&rls_serve::journal::JournalEntry {
            run_id: "stale-config".to_string(),
            circuit: "s208".to_string(),
            fingerprint: 0xdead_beef, // not what the request rebuilds to
            path: dir.join("served").join("never-loaded.jsonl"),
            threads: 1,
            request: r#"{"type":"run","circuit":"s208","la":2,"lb":3,"n":2}"#.to_string(),
        })
        .unwrap();
    drop(journal);

    let (socket, server) = start_server(&dir, 2, 4);
    let reply = roundtrip(&socket, r#"{"type":"attach","run_id":"stale-config"}"#);
    assert_eq!(reply.len(), 1, "{reply:?}");
    assert!(
        reply[0].contains("\"error\"") && reply[0].contains("fingerprint"),
        "{reply:?}"
    );
    shutdown(&socket);
    server.join().unwrap().unwrap();
    // The reject closed the begin: a second restart owes nothing.
    let (journal, orphans) = rls_serve::Journal::open(&dir.join("served")).unwrap();
    drop(journal);
    assert!(orphans.is_empty(), "{orphans:?}");
}

#[test]
fn stats_snapshot_matches_the_campaign_summary_record() {
    // The introspection acceptance claim: once a campaign finishes, the
    // `stats` snapshot's entry for it agrees field-for-field with the
    // summary record its JSONL file ends in — the live figures are parsed
    // from the very lines the file holds, so they cannot drift.
    let dir = scratch("stats");
    let (socket, server) = start_server(&dir, 2, 4);
    let lines = roundtrip(
        &socket,
        r#"{"type":"run","circuit":"s27","la":4,"lb":8,"n":8,"threads":2}"#,
    );
    assert!(
        lines.last().is_some_and(|l| l.contains("\"done\"")),
        "{lines:?}"
    );
    let accepted = rls_obs::jsonl::parse(&lines[0]).unwrap();
    let run_id = accepted
        .str_field("run_id")
        .expect("accepted carries run_id")
        .to_string();
    let path = PathBuf::from(
        accepted
            .str_field("path")
            .expect("accepted carries the file path"),
    );

    let stats = roundtrip(&socket, r#"{"type":"stats"}"#);
    assert_eq!(stats.len(), 1, "{stats:?}");
    let v = rls_obs::jsonl::parse(&stats[0]).unwrap();
    assert!(
        rls_serve::protocol::is_control(&v),
        "stats frames are control frames"
    );
    assert_eq!(v.str_field("type"), Some("stats"));
    assert!(v.u64_field("max_inflight").is_some(), "{stats:?}");
    assert!(
        v.u64_field("stats_requests").is_some_and(|n| n >= 1),
        "{stats:?}"
    );
    let campaigns = v
        .get("campaigns")
        .and_then(|c| c.as_array())
        .expect("campaigns array");
    let entry = campaigns
        .iter()
        .find(|c| c.str_field("run_id") == Some(run_id.as_str()))
        .expect("the finished run is listed");
    assert_eq!(entry.str_field("state"), Some("done"), "{stats:?}");
    assert_eq!(entry.str_field("circuit"), Some("s27"), "{stats:?}");

    let log = rls_dispatch::CampaignLog::read(&path).unwrap();
    let summary = log
        .summary()
        .expect("a finished campaign ends in a summary");
    for field in [
        "detected",
        "target_faults",
        "pairs",
        "total_cycles",
        "iterations",
    ] {
        assert_eq!(
            entry.u64_field(field),
            summary.u64_field(field),
            "stats `{field}` diverged from the summary record: {stats:?}"
        );
    }
    assert_eq!(
        entry.bool_field("complete"),
        summary.bool_field("complete"),
        "{stats:?}"
    );
    shutdown(&socket);
    server.join().unwrap().unwrap();
}

#[test]
fn watch_streams_progress_frames_and_closes_with_the_final_frame() {
    let dir = scratch("watch");
    let (socket, server) = start_server(&dir, 2, 4);
    // Unknown ids answer a structured rejection, not a hang.
    let unknown = roundtrip(&socket, r#"{"type":"watch","run_id":"no-such-run"}"#);
    assert_eq!(unknown.len(), 1, "{unknown:?}");
    assert!(
        unknown[0].contains("\"rejected\"") && unknown[0].contains("unknown run id"),
        "{unknown:?}"
    );

    // Start a campaign on one connection and watch it from another. The
    // watcher may attach mid-run (several frames) or after it finished
    // (one final frame) — either way the stream is `progress` frames
    // followed by the run's stored `done` frame, never a hang.
    let mut run_stream = connect(&socket);
    run_stream
        .write_all(
            b"{\"type\":\"run\",\"circuit\":\"s27\",\"la\":4,\"lb\":8,\"n\":8,\"threads\":2}\n",
        )
        .unwrap();
    let mut reader = BufReader::new(run_stream);
    let mut accepted = String::new();
    reader.read_line(&mut accepted).unwrap();
    assert!(accepted.contains("\"accepted\""), "{accepted:?}");
    let run_id = rls_obs::jsonl::parse(&accepted)
        .unwrap()
        .str_field("run_id")
        .unwrap()
        .to_string();

    let frames = roundtrip(
        &socket,
        &format!(r#"{{"type":"watch","run_id":"{run_id}"}}"#),
    );
    assert!(
        frames.len() >= 2,
        "at least one progress frame and the final frame: {frames:?}"
    );
    assert!(
        frames
            .last()
            .is_some_and(|l| l.contains("\"type\":\"done\"")),
        "{frames:?}"
    );
    for frame in &frames[..frames.len() - 1] {
        let v = rls_obs::jsonl::parse(frame).unwrap();
        assert_eq!(v.str_field("type"), Some("progress"), "{frames:?}");
        assert_eq!(v.str_field("run_id"), Some(run_id.as_str()), "{frames:?}");
        assert!(
            rls_serve::protocol::is_control(&v),
            "progress frames are control frames"
        );
    }
    // The last progress frame published the finished state before close.
    let final_progress = rls_obs::jsonl::parse(&frames[frames.len() - 2]).unwrap();
    assert_eq!(
        final_progress.str_field("state"),
        Some("done"),
        "{frames:?}"
    );
    // The run's own stream still completes normally under a watcher.
    let rest: Vec<String> = reader.lines().map_while(Result::ok).collect();
    assert!(
        rest.last().is_some_and(|l| l.contains("\"done\"")),
        "{rest:?}"
    );
    shutdown(&socket);
    server.join().unwrap().unwrap();
}

#[test]
fn shutdown_drains_and_removes_the_socket() {
    let dir = scratch("shutdown");
    let (socket, server) = start_server(&dir, 1, 4);
    assert!(socket.exists());
    shutdown(&socket);
    server.join().unwrap().unwrap();
    assert!(!socket.exists(), "drained server removes its socket file");
    // New campaigns can no longer connect.
    assert!(UnixStream::connect(&socket).is_err());
}
