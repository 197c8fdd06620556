//! Serve-layer chaos harness (`--features fault-inject` only): proves
//! the campaign server is crash-only and self-healing under a seeded,
//! deterministic fault schedule.
//!
//! Three kinds of test live here:
//!
//! - **Crash tests** re-exec this binary as a real server process (the
//!   `chaos_child_server_process` entry below), arm its injection from
//!   `RLS_CHAOS`, and kill it — with SIGKILL mid-campaign, or with the
//!   injected `exit(86)` inside a journal-append crash window. A
//!   restarted server over the same directory must recover what the
//!   journal owes and nothing more, and an `attach` by the original run
//!   id must collect bytes identical to an uninterrupted direct run.
//! - **Watchdog / deadline tests** run the server in-process and wedge
//!   the pool (delayed jobs) or bound the request (`deadline_ms`),
//!   asserting the requeue/degrade and interrupt/resume paths converge
//!   to the exact direct outcome.
//! - **The soak** runs concurrent clients against a server whose stream
//!   writes are taxed by four fault classes on a seeded schedule; every
//!   client must converge to a campaign file byte-identical (normalized)
//!   to its direct reference, with at least three distinct fault classes
//!   having actually fired.
//!
//! Injection state is process-global, so every test here serializes on
//! one lock and disarms before releasing it (child processes have their
//! own state, armed from their own `RLS_CHAOS`).

#![cfg(feature = "fault-inject")]

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use random_limited_scan::core::{Procedure2, RlsConfig};
use rls_dispatch::inject;
use rls_serve::{normalize_recovered, ServeConfig, Server};

static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

const REQ_S208: &str = r#"{"type":"run","circuit":"s208","la":2,"lb":3,"n":2,"threads":2}"#;
const REQ_S27: &str = r#"{"type":"run","circuit":"s27","la":4,"lb":8,"n":8,"threads":2}"#;

/// A fresh private directory for one test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rls-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Starts an in-process server; `tune` adjusts the default config.
fn start_server(
    dir: &Path,
    tune: impl FnOnce(&mut ServeConfig),
) -> (PathBuf, JoinHandle<std::io::Result<()>>) {
    let socket = dir.join("rls.sock");
    let mut cfg = ServeConfig::new(socket.clone(), dir.join("served"));
    tune(&mut cfg);
    let server = Server::bind(cfg).expect("bind");
    (socket, std::thread::spawn(move || server.run()))
}

/// Sends one request line and collects the whole response stream.
fn roundtrip(socket: &Path, request: &str) -> Vec<String> {
    let mut stream = UnixStream::connect(socket).expect("connect");
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

/// Runs the configuration directly into `dir` and returns the campaign
/// file's lines collapsed through `normalize_recovered` — the reference
/// any surviving chaos trajectory must match byte for byte.
fn direct_reference(circuit: &rls_netlist::Circuit, cfg: RlsConfig, dir: &Path) -> Vec<String> {
    Procedure2::new(circuit, cfg.with_campaign_dir(dir)).run();
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    assert_eq!(files.len(), 1, "one campaign file per direct run");
    let text = std::fs::read_to_string(files.pop().unwrap()).unwrap();
    normalize_recovered(text.lines()).expect("direct record normalizes")
}

/// Not a real test: the server process the crash tests re-exec. The
/// parent spawns this binary filtered to exactly this "test" with
/// `RLS_CHAOS_SERVER_DIR` (and optionally `RLS_CHAOS`) set; without the
/// environment it is an immediate no-op in normal suite runs.
#[test]
fn chaos_child_server_process() {
    let Ok(dir) = std::env::var("RLS_CHAOS_SERVER_DIR") else {
        return;
    };
    if let Ok(spec) = std::env::var("RLS_CHAOS") {
        if !spec.is_empty() {
            inject::arm_from_spec(&spec).expect("chaos spec");
        }
    }
    let dir = PathBuf::from(dir);
    let mut cfg = ServeConfig::new(dir.join("rls.sock"), dir.join("served"));
    cfg.threads = 2;
    let server = Server::bind(cfg).expect("child bind");
    // Runs until SIGKILLed, crashed by an injected journal fault, or
    // drained by a shutdown request.
    server.run().expect("child run");
}

/// Spawns this test binary as a chaos server over `dir`.
fn spawn_server(dir: &Path, chaos: &str) -> Child {
    Command::new(std::env::current_exe().expect("current_exe"))
        .args([
            "chaos_child_server_process",
            "--exact",
            "--nocapture",
            "--test-threads=1",
        ])
        .env("RLS_CHAOS_SERVER_DIR", dir)
        .env("RLS_CHAOS", chaos)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn chaos server child")
}

/// Connects to a child server's socket, waiting for it to come up.
fn await_socket(socket: &Path) -> UnixStream {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(stream) = UnixStream::connect(socket) {
            return stream;
        }
        assert!(Instant::now() < deadline, "server socket never came up");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Sends `request` on a fresh connection and reads just the first reply
/// line, handing back the buffered reader for the rest of the stream.
fn open_stream(socket: &Path, request: &str) -> (String, BufReader<UnixStream>) {
    let mut stream = await_socket(socket);
    stream.write_all(request.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    let mut reader = BufReader::new(stream);
    let mut first = String::new();
    reader.read_line(&mut first).unwrap();
    (first.trim().to_string(), reader)
}

#[test]
fn kill9_mid_campaign_is_recovered_on_restart_and_attach_matches_direct() {
    let _g = lock();
    inject::disarm();
    let dir = scratch("kill9");
    // Delayed pool jobs keep the campaign in flight long enough to kill
    // it well after its first checkpoint and well before its summary.
    let mut child = spawn_server(&dir, "job_delay=1:60");
    let socket = dir.join("rls.sock");
    let (accepted, reader) = open_stream(&socket, REQ_S208);
    assert!(accepted.contains("\"accepted\""), "{accepted}");
    let v = rls_dispatch::jsonl::parse(&accepted).unwrap();
    let run_id = v.str_field("run_id").expect("run id").to_string();
    let path = PathBuf::from(v.str_field("path").expect("path"));
    let deadline = Instant::now() + Duration::from_secs(30);
    while !std::fs::read_to_string(&path)
        .unwrap_or_default()
        .contains("\"type\":\"checkpoint\"")
    {
        assert!(
            Instant::now() < deadline,
            "no checkpoint appeared in {}",
            path.display()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    child.kill().expect("SIGKILL the server");
    let _ = child.wait();
    drop(reader);

    // Restart over the same directory: the dead socket file is replaced,
    // the journal names the orphaned campaign, and recovery finishes it
    // under the original run id — collectable by attach.
    let (socket, server) = start_server(&dir, |c| c.threads = 2);
    let replay = roundtrip(
        &socket,
        &format!(r#"{{"type":"attach","run_id":"{run_id}"}}"#),
    );
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
    let got = normalize_recovered(replay.iter().map(String::as_str)).unwrap();
    let direct = direct_reference(
        &random_limited_scan::benchmarks::by_name("s208").unwrap(),
        RlsConfig::new(2, 3, 2).with_threads(2),
        &dir.join("direct"),
    );
    assert_eq!(
        got, direct,
        "kill -9 + restart + recovery ≡ direct, byte for byte"
    );
    shutdown(&socket);
    server.join().unwrap().unwrap();
}

#[test]
fn torn_journal_begin_recovers_nothing_and_the_restart_serves() {
    let _g = lock();
    inject::disarm();
    let dir = scratch("journal-torn");
    // Append #1 is this campaign's `begin`: die mid-append, fsync never
    // runs. The client was never told `accepted`, so nothing is owed.
    let mut child = spawn_server(&dir, "journal_crash=1:torn");
    let socket = dir.join("rls.sock");
    let mut stream = await_socket(&socket);
    stream.write_all(REQ_S208.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    let lines: Vec<String> = BufReader::new(stream)
        .lines()
        .map_while(Result::ok)
        .filter(|l| !l.is_empty())
        .collect();
    assert!(
        lines.is_empty(),
        "crash precedes the accepted frame: {lines:?}"
    );
    assert_eq!(
        child.wait().unwrap().code(),
        Some(86),
        "the injected crash exit"
    );
    let journal_path = dir.join("served").join(rls_serve::journal::JOURNAL_FILE);
    let records = rls_serve::journal::read(&journal_path).unwrap();
    assert!(
        rls_serve::journal::inflight(&records).is_empty(),
        "a torn begin never became durable: {records:?}"
    );
    // The restarted server owes nothing and serves new campaigns.
    let (socket, server) = start_server(&dir, |c| c.threads = 2);
    let lines = roundtrip(&socket, REQ_S27);
    assert!(
        lines
            .last()
            .is_some_and(|l| l.contains("\"type\":\"done\"")),
        "{lines:?}"
    );
    shutdown(&socket);
    server.join().unwrap().unwrap();
}

#[test]
fn durable_begin_with_no_checkpoint_fails_closed_on_restart() {
    let _g = lock();
    inject::disarm();
    let dir = scratch("journal-durable-begin");
    // Append #1 again, but *after* the fsync: the begin is durable, yet
    // the campaign file holds no checkpoint (nothing ever ran). Recovery
    // must close the entry as failed, not wedge or invent a result.
    let mut child = spawn_server(&dir, "journal_crash=1:durable");
    let socket = dir.join("rls.sock");
    let mut stream = await_socket(&socket);
    stream.write_all(REQ_S208.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    let lines: Vec<String> = BufReader::new(stream)
        .lines()
        .map_while(Result::ok)
        .filter(|l| !l.is_empty())
        .collect();
    assert!(
        lines.is_empty(),
        "crash precedes the accepted frame: {lines:?}"
    );
    assert_eq!(child.wait().unwrap().code(), Some(86));
    let journal_path = dir.join("served").join(rls_serve::journal::JOURNAL_FILE);
    let owed = rls_serve::journal::inflight(&rls_serve::journal::read(&journal_path).unwrap());
    assert_eq!(owed.len(), 1, "the durable begin is owed");
    let run_id = owed[0].run_id.clone();

    let (socket, server) = start_server(&dir, |c| c.threads = 2);
    let reply = roundtrip(
        &socket,
        &format!(r#"{{"type":"attach","run_id":"{run_id}"}}"#),
    );
    assert_eq!(reply.len(), 1, "{reply:?}");
    assert!(
        reply[0].contains("\"error\"") && reply[0].contains("checkpoint"),
        "{reply:?}"
    );
    shutdown(&socket);
    server.join().unwrap().unwrap();
    // The failed recovery closed its journal entry: nothing stays owed.
    let owed = rls_serve::journal::inflight(&rls_serve::journal::read(&journal_path).unwrap());
    assert!(owed.is_empty(), "{owed:?}");
}

#[test]
fn torn_journal_end_auto_resumes_under_the_original_run_id() {
    let _g = lock();
    inject::disarm();
    let dir = scratch("journal-torn-end");
    // Append #2 is the campaign's `end`: the campaign completed (its
    // file ends in a summary), but the process dies before the outcome
    // becomes durable — the worst-timed crash. The restart must replay
    // the begin, resume from the final checkpoint, and converge to the
    // same bytes.
    let mut child = spawn_server(&dir, "journal_crash=2:torn");
    let socket = dir.join("rls.sock");
    let (accepted, reader) = open_stream(&socket, REQ_S208);
    assert!(accepted.contains("\"accepted\""), "{accepted}");
    let run_id = rls_dispatch::jsonl::parse(&accepted)
        .unwrap()
        .str_field("run_id")
        .expect("run id")
        .to_string();
    // Drain the stream: every record arrives, but the crash beats the
    // final `done` frame.
    let lines: Vec<String> = reader
        .lines()
        .map_while(Result::ok)
        .filter(|l| !l.is_empty())
        .collect();
    assert!(
        !lines.iter().any(|l| l.contains("\"type\":\"done\"")),
        "the crash precedes the done frame: {lines:?}"
    );
    assert_eq!(child.wait().unwrap().code(), Some(86));

    let (socket, server) = start_server(&dir, |c| c.threads = 2);
    let replay = roundtrip(
        &socket,
        &format!(r#"{{"type":"attach","run_id":"{run_id}"}}"#),
    );
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
    let got = normalize_recovered(replay.iter().map(String::as_str)).unwrap();
    let direct = direct_reference(
        &random_limited_scan::benchmarks::by_name("s208").unwrap(),
        RlsConfig::new(2, 3, 2).with_threads(2),
        &dir.join("direct"),
    );
    assert_eq!(got, direct, "crash-after-summary recovery ≡ direct");
    shutdown(&socket);
    server.join().unwrap().unwrap();
}

#[test]
fn watchdog_requeues_a_stalled_campaign_and_the_outcome_is_exact() {
    let _g = lock();
    // Two-phase schedule. A mild 2ms-per-job delay from the start keeps
    // the campaign alive long enough to interfere with (a direct s208
    // run finishes in milliseconds) while every wave — TS0's included —
    // stays far inside the wave timeout. Once the TS0 checkpoint lands,
    // the schedule counts jobs instead: every 40th job sleeps 160ms. A
    // set here is one wave of at most 8 test-block jobs (4 blocks per
    // unit of the 2-thread budget), so a set holds at most one sleeping
    // job, and that one job alone keeps the set from beating for 160ms
    // whatever the set's job count — past the 100ms deadline plus its
    // 25ms scan period, still under the 200ms wave timeout. So the *stall* path (requeue from checkpoint, then
    // force-degrade) is what runs, not the coarse inline wave-failure
    // fallback, and it runs within the first few trial sets.
    inject::arm_from_spec("job_delay=1:2").unwrap();
    let dir = scratch("watchdog");
    let (socket, server) = start_server(&dir, |c| {
        c.threads = 2;
        c.watchdog_deadline = Duration::from_millis(100);
        c.watchdog_retries = 1;
    });
    let (accepted, reader) = open_stream(&socket, REQ_S208);
    assert!(accepted.contains("\"accepted\""), "{accepted}");
    let path = PathBuf::from(
        rls_dispatch::jsonl::parse(&accepted)
            .unwrap()
            .str_field("path")
            .expect("path"),
    );
    let deadline = Instant::now() + Duration::from_secs(30);
    while !std::fs::read_to_string(&path)
        .unwrap_or_default()
        .contains("\"type\":\"checkpoint\"")
    {
        assert!(Instant::now() < deadline, "no TS0 checkpoint appeared");
        std::thread::sleep(Duration::from_millis(2));
    }
    inject::arm_from_spec("job_delay=40:160").unwrap();
    let lines: Vec<String> = reader
        .lines()
        .map_while(Result::ok)
        .filter(|l| !l.is_empty())
        .collect();
    inject::disarm();
    assert!(
        lines
            .last()
            .is_some_and(|l| l.contains("\"type\":\"done\"")),
        "the campaign still finishes: {lines:?}"
    );
    assert!(
        lines.iter().any(|l| l.contains("\"type\":\"resume\"")),
        "requeues mark their seams: {lines:?}"
    );
    let got = normalize_recovered(lines.iter().map(String::as_str)).unwrap();
    let direct = direct_reference(
        &random_limited_scan::benchmarks::by_name("s208").unwrap(),
        RlsConfig::new(2, 3, 2).with_threads(2),
        &dir.join("direct"),
    );
    assert_eq!(
        got, direct,
        "stall + requeue + degrade ≡ direct, byte for byte"
    );
    shutdown(&socket);
    server.join().unwrap().unwrap();
}

#[test]
fn deadlines_interrupt_resumably_and_overload_sheds_with_a_hint() {
    let _g = lock();
    inject::arm_from_spec("job_delay=1:50").unwrap();
    let dir = scratch("deadline");
    let (socket, server) = start_server(&dir, |c| {
        c.threads = 2;
        c.max_inflight = 1;
    });
    // Client A: a slowed campaign bounded to 150ms of wall time.
    let (accepted, reader) = open_stream(
        &socket,
        r#"{"type":"run","circuit":"s208","la":2,"lb":3,"n":2,"threads":2,"deadline_ms":150}"#,
    );
    assert!(accepted.contains("\"accepted\""), "{accepted}");
    let path = PathBuf::from(
        rls_dispatch::jsonl::parse(&accepted)
            .unwrap()
            .str_field("path")
            .expect("path"),
    );
    // Client B is shed while A holds the only slot — with a retry hint.
    let shed = roundtrip(&socket, REQ_S27);
    assert_eq!(shed.len(), 1, "{shed:?}");
    assert!(
        shed[0].contains("\"rejected\"") && shed[0].contains("retry_after_ms"),
        "{shed:?}"
    );
    // A's deadline lapses at a trial boundary: interrupted, checkpointed.
    let rest: Vec<String> = reader
        .lines()
        .map_while(Result::ok)
        .filter(|l| !l.is_empty())
        .collect();
    let last = rest.last().expect("a terminal frame");
    assert!(
        last.contains("\"interrupted\"") && last.contains("\"deadline\""),
        "{rest:?}"
    );
    inject::disarm();
    // The interrupted campaign resumes to the exact direct outcome.
    let resumed = roundtrip(
        &socket,
        &format!(
            r#"{{"type":"run","circuit":"s208","la":2,"lb":3,"n":2,"threads":2,"resume":"{}"}}"#,
            path.display()
        ),
    );
    assert!(
        resumed
            .last()
            .is_some_and(|l| l.contains("\"type\":\"done\"")),
        "{resumed:?}"
    );
    let text = std::fs::read_to_string(&path).unwrap();
    let got = normalize_recovered(text.lines()).unwrap();
    let direct = direct_reference(
        &random_limited_scan::benchmarks::by_name("s208").unwrap(),
        RlsConfig::new(2, 3, 2).with_threads(2),
        &dir.join("direct"),
    );
    assert_eq!(
        got, direct,
        "deadline interrupt + resume ≡ direct, byte for byte"
    );
    shutdown(&socket);
    server.join().unwrap().unwrap();
}

/// One soak client: runs its campaign to `done` through any number of
/// faulted streams, resuming from the last checkpoint after each break.
/// Returns the campaign file that holds the finished record.
fn chaos_client(socket: PathBuf, base: String) -> PathBuf {
    let mut path: Option<PathBuf> = None;
    for _ in 0..60 {
        let request = match &path {
            Some(p)
                if std::fs::read_to_string(p)
                    .is_ok_and(|t| t.contains("\"type\":\"checkpoint\"")) =>
            {
                format!(
                    "{},\"resume\":\"{}\"}}",
                    &base[..base.len() - 1],
                    p.display()
                )
            }
            _ => base.clone(),
        };
        let Ok(mut stream) = UnixStream::connect(&socket) else {
            std::thread::sleep(Duration::from_millis(50));
            continue;
        };
        if stream
            .write_all(request.as_bytes())
            .and_then(|()| stream.write_all(b"\n"))
            .is_err()
        {
            continue;
        }
        let lines: Vec<String> = BufReader::new(stream)
            .lines()
            .map_while(Result::ok)
            .filter(|l| !l.is_empty())
            .collect();
        if let Some(Ok(v)) = lines.first().map(|l| rls_dispatch::jsonl::parse(l)) {
            if v.str_field("type") == Some("accepted") {
                if let Some(p) = v.str_field("path") {
                    path = Some(PathBuf::from(p));
                }
            }
        }
        if lines
            .last()
            .is_some_and(|l| l.contains("\"type\":\"done\""))
        {
            return path.expect("a done stream carried its accepted frame");
        }
        // A faulted stream: give the abandoned session a beat to cancel
        // at its trial boundary and conclude, then resume its checkpoint.
        std::thread::sleep(Duration::from_millis(150));
    }
    panic!("chaos client never converged: {base}");
}

#[test]
fn chaos_soak_concurrent_clients_converge_byte_exactly_under_stream_faults() {
    let _g = lock();
    // Four fault classes on coprime schedules over the shared write
    // counter: delays, torn frames, dropped frames, socket kills. The
    // storm is bounded: once every class has fired (or a time cap
    // lapses), injection is disarmed and the survivors stream out in
    // calm — destructive faults every ~6 writes would otherwise outpace
    // the s208 campaign's sparse checkpoints forever.
    inject::arm_from_spec("stream_delay=7:10,stream_drop=11,stream_short=13,stream_kill=17")
        .unwrap();
    let dir = scratch("soak");
    let (socket, server) = start_server(&dir, |c| c.threads = 3);
    let configs: Vec<(String, RlsConfig, &str)> = vec![
        (
            r#"{"type":"run","circuit":"s27","la":4,"lb":8,"n":8,"threads":1,"seed":7}"#.into(),
            RlsConfig::new(4, 8, 8).with_seeds(rls_lfsr::SeedSequence::new(7)),
            "s27",
        ),
        (
            r#"{"type":"run","circuit":"s27","la":4,"lb":8,"n":8,"threads":1,"seed":99}"#.into(),
            RlsConfig::new(4, 8, 8).with_seeds(rls_lfsr::SeedSequence::new(99)),
            "s27",
        ),
        (
            r#"{"type":"run","circuit":"s208","la":2,"lb":3,"n":2,"threads":1,"max_iterations":2}"#
                .into(),
            {
                let mut cfg = RlsConfig::new(2, 3, 2);
                cfg.max_iterations = 2;
                cfg
            },
            "s208",
        ),
    ];
    let workers: Vec<JoinHandle<PathBuf>> = configs
        .iter()
        .map(|(base, _, _)| {
            let socket = socket.clone();
            let base = base.clone();
            std::thread::spawn(move || chaos_client(socket, base))
        })
        .collect();
    // Ride the storm until every fault class has drawn blood, then
    // snapshot what fired and let the clients converge in calm.
    let cap = Instant::now() + Duration::from_secs(10);
    loop {
        let f = inject::stream_fired();
        if (f.delays > 0 && f.shorts > 0 && f.drops > 0 && f.kills > 0) || Instant::now() > cap {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let fired = inject::stream_fired();
    inject::disarm();
    let files: Vec<PathBuf> = workers.into_iter().map(|h| h.join().unwrap()).collect();
    let classes = [fired.delays, fired.shorts, fired.drops, fired.kills]
        .iter()
        .filter(|&&c| c > 0)
        .count();
    assert!(
        classes >= 3,
        "the schedule exercised the fault points: {fired:?}"
    );
    for (i, ((_, cfg, circuit), file)) in configs.into_iter().zip(files).enumerate() {
        let text = std::fs::read_to_string(&file).unwrap();
        let got = normalize_recovered(text.lines()).unwrap();
        let direct = direct_reference(
            &random_limited_scan::benchmarks::by_name(circuit).unwrap(),
            cfg,
            &dir.join(format!("direct-{i}")),
        );
        assert_eq!(got, direct, "client {i} survived chaos byte-exactly");
    }
    shutdown(&socket);
    server.join().unwrap().unwrap();
    // Every interruption along the way closed its journal entry.
    let journal_path = dir.join("served").join(rls_serve::journal::JOURNAL_FILE);
    let owed = rls_serve::journal::inflight(&rls_serve::journal::read(&journal_path).unwrap());
    assert!(owed.is_empty(), "{owed:?}");
}
