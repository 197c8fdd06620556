//! The campaign server: accept loop, sessions, admission, drain — and
//! the self-healing machinery that makes it crash-only.
//!
//! One [`Server`] owns one [`SharedPool`] and one [`CircuitCache`] for
//! its whole life. Each accepted connection is a *session* on its own
//! thread: it reads exactly one request line (bounded, with a read
//! timeout), and either runs a campaign — streaming the campaign's
//! record lines back as they are written — or reattaches to a run by
//! id, or flips the drain flag.
//!
//! # Lifecycle
//!
//! - **Admission**: at most `max_inflight` campaigns run concurrently;
//!   excess requests get a structured `rejected` frame immediately —
//!   with a deterministic `retry_after_ms` hint — instead of queueing
//!   invisibly.
//! - **Execution**: the session registers a slot on the shared pool with
//!   the request's thread budget and drives `Procedure2::run_on` with a
//!   [`ServedExecutor`]. Records stream to the campaign file *and* the
//!   client through the same writer, so the stream is byte-for-byte the
//!   file's content.
//! - **Disconnect**: a failed client write sets the session's disconnect
//!   flag; the executor reports `cancelled()` and the loop stops at the
//!   next trial boundary. Writes carry a bounded timeout, so a client
//!   that stops draining its socket is treated the same as one that
//!   vanished. The campaign file keeps its checkpoints — the work is
//!   resumable (or collectable via `attach`), and the server is
//!   unaffected.
//! - **Drain**: a `shutdown` request flips the global drain flag. The
//!   accept loop stops, every in-flight campaign stops at its next trial
//!   boundary (writing its summary; its last checkpoint makes it
//!   resumable), sessions are joined, the socket file is removed, and
//!   the pool drains its queues before the workers exit. A restarted
//!   server continues any interrupted campaign via a `resume` request.
//!   (Pure-std processes cannot trap SIGTERM; supervisors drain by
//!   sending the `shutdown` request — see `rls_client shutdown`.)
//!
//! # Self-healing
//!
//! - **Crash recovery**: every admitted campaign is journaled (`begin`
//!   before the client learns its run id, `end` with the outcome). A
//!   server that dies uncleanly leaves `begin` entries behind; the next
//!   start replays them — rebuild the config from the journaled request,
//!   verify its fingerprint, resume from the last checkpoint — on
//!   recovery threads, under the *same* run ids. Clients reconnect with
//!   `attach` and collect the finished record behind a `recovered`
//!   frame. See [`crate::journal`].
//! - **Watchdog**: campaigns that stop making trial progress within the
//!   configured deadline are cancelled at a trial boundary, requeued
//!   from their checkpoint (bounded retries), and finally degraded to
//!   the sequential path, which cannot stall on the pool. Resume is
//!   bit-exact, so the reduced outcome is identical however many times
//!   the pool wedged along the way. See [`crate::watchdog`].
//! - **Deadlines**: a request may carry `deadline_ms`; a campaign still
//!   running when it lapses is checkpointed and answered with
//!   `interrupted` (`reason:"deadline"`), resumable like any other
//!   interruption.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rls_core::{
    load_checkpoint, CampaignExecutor, Procedure2, Procedure2Outcome, ResumeState, RlsConfig,
};
use rls_dispatch::inject::{self, StreamFault};
use rls_dispatch::{Campaign, CampaignSummary, SharedPool};
use rls_fsim::CompiledCircuit;
use rls_lfsr::SeedSequence;

use crate::cache::CircuitCache;
use crate::exec::{CancelCause, ServedExecutor};
use crate::journal::{Journal, JournalEntry};
use crate::protocol::{
    accepted_line, done_line, draining_line, error_line, fnv1a, interrupted_line, parse_request,
    recovered_line, rejected_line, rejected_retry_line, retry_after_hint, Request, RunRequest,
    MAX_REQUEST_BYTES,
};
use crate::stats::{progress_line, stats_line, CampaignProgress, RunPhase, RunRow, ServerCounters};
use crate::watchdog::Watchdog;

/// How long a session waits for the client's request line.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Accept-loop poll interval while idle.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// How often `attach` re-checks a still-running campaign.
const ATTACH_POLL: Duration = Duration::from_millis(25);

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The Unix-domain socket path to listen on (a *dead* leftover file
    /// is replaced; a live server's socket is refused).
    pub socket: PathBuf,
    /// Worker threads in the shared pool (clamped to at least one).
    pub threads: usize,
    /// Maximum concurrently running campaigns (clamped to at least one).
    pub max_inflight: usize,
    /// Directory campaign records (and the recovery journal) are written
    /// under.
    pub campaign_dir: PathBuf,
    /// Watchdog stall deadline: a campaign with no trial progress for
    /// this long is requeued from its checkpoint. Zero disables the
    /// watchdog.
    pub watchdog_deadline: Duration,
    /// Checkpoint requeues a stalled campaign gets before it is degraded
    /// to the sequential path (which cannot stall on the pool).
    pub watchdog_retries: u32,
    /// Bound on any single client write; a client that cannot drain its
    /// socket within it is disconnected (the campaign checkpoints and
    /// stays collectable). Zero means unbounded.
    pub write_timeout: Duration,
}

impl ServeConfig {
    /// A configuration with the server's defaults: two pool threads,
    /// four in-flight campaigns, watchdog disabled, ten-second write
    /// timeout.
    pub fn new(socket: PathBuf, campaign_dir: PathBuf) -> ServeConfig {
        ServeConfig {
            socket,
            threads: 2,
            max_inflight: 4,
            campaign_dir,
            watchdog_deadline: Duration::ZERO,
            watchdog_retries: 2,
            write_timeout: Duration::from_secs(10),
        }
    }
}

/// What `attach` can learn about a run the server knows of.
#[derive(Debug, Clone)]
enum RunState {
    /// Still executing (a live session or a crash recovery).
    Running,
    /// Finished; the stored final frame closes an attach replay.
    Done {
        /// The exact `done`/`interrupted` frame the run ended with.
        frame: String,
        /// `"done"` or `"interrupted"` — echoed in the `recovered` frame.
        outcome: &'static str,
    },
    /// Could not run (or finish); attach answers with this message.
    Failed(String),
}

/// One run the server knows of, looked up by `attach`/`watch`/`stats`.
struct RegEntry {
    run_id: String,
    circuit: String,
    path: PathBuf,
    state: RunState,
    /// Live progress, fed by the run's campaign-record observer and read
    /// by `stats` snapshots and `watch` streams.
    progress: Arc<CampaignProgress>,
}

/// State shared by the accept loop and every session.
struct Shared {
    pool: SharedPool,
    cache: CircuitCache,
    inflight: AtomicUsize,
    drain: AtomicBool,
    journal: Journal,
    watchdog: Watchdog,
    registry: Mutex<Vec<RegEntry>>,
    counters: ServerCounters,
    cfg: ServeConfig,
}

impl Shared {
    fn registry(&self) -> std::sync::MutexGuard<'_, Vec<RegEntry>> {
        self.registry.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Records a run as in flight so `attach`/`watch` can find it. Returns
/// the entry's progress cell for the run's record observer to feed.
fn registry_insert(
    shared: &Shared,
    run_id: &str,
    circuit: &str,
    path: &Path,
) -> Arc<CampaignProgress> {
    let progress = Arc::new(CampaignProgress::new());
    shared.registry().push(RegEntry {
        run_id: run_id.to_string(),
        circuit: circuit.to_string(),
        path: path.to_path_buf(),
        state: RunState::Running,
        progress: Arc::clone(&progress),
    });
    progress
}

/// Publishes a run's final state. Resumes and recoveries reuse run ids
/// across entries, so the *latest* matching entry is the live one.
fn registry_set(shared: &Shared, run_id: &str, state: RunState) {
    let mut reg = shared.registry();
    if let Some(entry) = reg.iter_mut().rev().find(|e| e.run_id == run_id) {
        entry.progress.set_phase(match &state {
            RunState::Running => RunPhase::Running,
            RunState::Done { outcome, .. } if *outcome == "interrupted" => RunPhase::Interrupted,
            RunState::Done { .. } => RunPhase::Done,
            RunState::Failed(_) => RunPhase::Failed,
        });
        entry.state = state;
    }
}

/// The latest registered progress cell for a run id.
fn registry_progress(shared: &Shared, run_id: &str) -> Option<(String, Arc<CampaignProgress>)> {
    shared
        .registry()
        .iter()
        .rev()
        .find(|e| e.run_id == run_id)
        .map(|e| (e.circuit.clone(), Arc::clone(&e.progress)))
}

/// A bound, not-yet-running campaign server.
pub struct Server {
    listener: UnixListener,
    shared: Arc<Shared>,
    /// In-flight journal entries a previous process left behind; `run`
    /// recovers them before accepting connections.
    orphans: Vec<JournalEntry>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("socket", &self.shared.cfg.socket)
            .field("threads", &self.shared.cfg.threads)
            .field("orphans", &self.orphans.len())
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Binds the socket, opens the recovery journal, and spawns the
    /// shared pool. A socket file left behind by a crashed server is
    /// probed with a connect attempt: refused means nobody is listening
    /// and the file is replaced; accepted means a live server owns the
    /// path and binding fails instead of stealing its clients.
    pub fn bind(cfg: ServeConfig) -> std::io::Result<Server> {
        if cfg.socket.exists() {
            match UnixStream::connect(&cfg.socket) {
                Ok(_) => {
                    return Err(std::io::Error::new(
                        ErrorKind::AddrInUse,
                        format!("{} is already being served", cfg.socket.display()),
                    ));
                }
                Err(_) => std::fs::remove_file(&cfg.socket)?,
            }
        }
        let listener = UnixListener::bind(&cfg.socket)?;
        listener.set_nonblocking(true)?;
        let pool = SharedPool::new(cfg.threads.max(1));
        let (journal, orphans) = Journal::open(&cfg.campaign_dir)?;
        let watchdog = Watchdog::start(cfg.watchdog_deadline);
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                pool,
                cache: CircuitCache::new(),
                inflight: AtomicUsize::new(0),
                drain: AtomicBool::new(false),
                journal,
                watchdog,
                registry: Mutex::new(Vec::new()),
                counters: ServerCounters::default(),
                cfg,
            }),
            orphans,
        })
    }

    /// Serves until a `shutdown` request arrives, then drains: in-flight
    /// campaigns finish or checkpoint, sessions join, the socket file is
    /// removed, and the pool's queues drain before its workers exit.
    ///
    /// Before the first accept, campaigns a previous process left in
    /// flight (journal `begin` without an `end`) start recovering on
    /// their own threads, under their original run ids; clients collect
    /// them with `attach`.
    pub fn run(mut self) -> std::io::Result<()> {
        let mut sessions: Vec<JoinHandle<()>> = Vec::new();
        for entry in std::mem::take(&mut self.orphans) {
            // Register before the thread starts so an attach that races
            // recovery sees `Running`, not `unknown run id`.
            registry_insert(&self.shared, &entry.run_id, &entry.circuit, &entry.path);
            let shared = Arc::clone(&self.shared);
            sessions.push(std::thread::spawn(move || recover_one(&shared, &entry)));
        }
        while !self.shared.drain.load(Ordering::Acquire) {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let shared = Arc::clone(&self.shared);
                    sessions.push(std::thread::spawn(move || session(&stream, &shared)));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(ACCEPT_POLL);
                }
                Err(e) => {
                    let _ = std::fs::remove_file(&self.shared.cfg.socket);
                    return Err(e);
                }
            }
            // Reap finished sessions so a long-lived server does not
            // accumulate handles (their threads have already exited).
            sessions.retain(|h| !h.is_finished());
        }
        for h in sessions {
            let _ = h.join();
        }
        let _ = std::fs::remove_file(&self.shared.cfg.socket);
        // `self.shared` drops here; the pool's Drop drains and joins.
        Ok(())
    }
}

/// Writes one response line. Fault injection (`fault-inject` builds)
/// taxes exactly this seam — delays, short writes, dropped frames,
/// socket kills — and every destructive fault also breaks the stream,
/// so a served stream either ends with its final control frame or the
/// client knows it is incomplete; there are never silent holes.
fn write_line(stream: &UnixStream, line: &str) -> std::io::Result<()> {
    let mut w = stream;
    match inject::on_stream_write() {
        StreamFault::None => {}
        StreamFault::Delay(ms) => std::thread::sleep(Duration::from_millis(ms)),
        StreamFault::Short => {
            let _ = w.write_all(&line.as_bytes()[..line.len() / 2]); // lint: panic-ok(len/2 <= len)
            let _ = stream.shutdown(std::net::Shutdown::Both);
            return Err(std::io::Error::other("injected short write"));
        }
        StreamFault::Drop => {
            let _ = stream.shutdown(std::net::Shutdown::Both);
            return Err(std::io::Error::other("injected dropped frame"));
        }
        StreamFault::Kill => {
            let _ = stream.shutdown(std::net::Shutdown::Both);
            return Err(std::io::Error::other("injected socket kill"));
        }
    }
    w.write_all(line.as_bytes())?;
    w.write_all(b"\n")
}

/// Writes one response line; false when the client is gone.
fn send(stream: &UnixStream, line: &str) -> bool {
    write_line(stream, line).is_ok()
}

/// Reads the session's single request line, bounded by
/// [`MAX_REQUEST_BYTES`]. `Ok(None)` when the client closed without
/// sending one.
fn read_request(stream: &UnixStream) -> Result<Option<String>, String> {
    let mut reader = BufReader::new(stream.take(MAX_REQUEST_BYTES as u64 + 1));
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) => Ok(None),
        Ok(_) => {
            if !line.ends_with('\n') && line.len() > MAX_REQUEST_BYTES {
                return Err(format!(
                    "request line exceeds the {MAX_REQUEST_BYTES}-byte limit"
                ));
            }
            let trimmed = line.trim();
            if trimmed.is_empty() {
                Ok(None)
            } else {
                Ok(Some(trimmed.to_string()))
            }
        }
        Err(e) => Err(format!("could not read request: {e}")),
    }
}

/// One connection: read a request, act, respond.
fn session(stream: &UnixStream, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    if !shared.cfg.write_timeout.is_zero() {
        let _ = stream.set_write_timeout(Some(shared.cfg.write_timeout));
    }
    let line = match read_request(stream) {
        Ok(Some(line)) => line,
        Ok(None) => return,
        Err(message) => {
            rls_obs::counter!("serve.requests_rejected", 1);
            send(stream, &error_line(&message));
            return;
        }
    };
    match parse_request(&line) {
        Err(message) => {
            rls_obs::counter!("serve.requests_rejected", 1);
            send(stream, &error_line(&message));
        }
        Ok(Request::Shutdown) => {
            shared.drain.store(true, Ordering::Release);
            send(stream, &draining_line());
        }
        Ok(Request::Attach(run_id)) => attach(stream, shared, &run_id),
        Ok(Request::Stats) => stats(stream, shared),
        Ok(Request::Watch(run_id)) => watch(stream, shared, &run_id),
        Ok(Request::Run(req)) => run_campaign(stream, shared, &req, &line),
    }
}

/// Answers one server-wide `stats` snapshot: admission state plus the
/// live progress of every registered run (latest entry per run id).
fn stats(stream: &UnixStream, shared: &Shared) {
    shared
        .counters
        .stats_requests
        .fetch_add(1, Ordering::Relaxed); // lint: ordering-ok(advisory introspection counter)
    rls_obs::counter!("serve.stats.requests", 1);
    let reg = shared.registry();
    let mut seen = std::collections::BTreeSet::new();
    let mut rows: Vec<RunRow<'_>> = Vec::new();
    for e in reg.iter().rev() {
        if seen.insert(e.run_id.as_str()) {
            rows.push(RunRow {
                run_id: &e.run_id,
                circuit: &e.circuit,
                progress: &e.progress,
            });
        }
    }
    rows.reverse(); // registration order reads naturally
    let line = stats_line(
        shared.inflight.load(Ordering::Acquire),
        shared.cfg.max_inflight.max(1),
        shared.drain.load(Ordering::Acquire),
        shared.watchdog.monitored(),
        &shared.counters,
        &rows,
    );
    drop(reg);
    send(stream, &line);
}

/// Streams `progress` frames for one run until it finishes, then closes
/// the stream with the run's final control frame (or its failure). The
/// progress cell's version counter moves once per campaign record, so
/// frames fire at trial boundaries; between changes the session polls at
/// [`ATTACH_POLL`].
fn watch(stream: &UnixStream, shared: &Shared, run_id: &str) {
    let Some((circuit, progress)) = registry_progress(shared, run_id) else {
        rls_obs::counter!("serve.requests_rejected", 1);
        send(
            stream,
            &rejected_line(&format!("unknown run id `{run_id}`")),
        );
        return;
    };
    let watchers = shared.counters.watchers.fetch_add(1, Ordering::Relaxed) + 1; // lint: ordering-ok(advisory introspection counter)
    rls_obs::gauge!("serve.stats.watchers", watchers);
    // Decrement on every exit path, client disconnects included.
    struct WatcherSlot<'a>(&'a ServerCounters);
    impl Drop for WatcherSlot<'_> {
        fn drop(&mut self) {
            let left = self.0.watchers.fetch_sub(1, Ordering::Relaxed) - 1; // lint: ordering-ok(advisory introspection counter)
            rls_obs::gauge!("serve.stats.watchers", left);
        }
    }
    let _slot = WatcherSlot(&shared.counters);
    let mut last = None;
    loop {
        // Phase before version: a `Done` observed here means the final
        // version bump already landed, so the frame below is the final
        // snapshot and the loop can close the stream.
        let phase = progress.phase();
        let version = progress.version();
        if last != Some(version) {
            last = Some(version);
            shared.counters.watch_frames.fetch_add(1, Ordering::Relaxed); // lint: ordering-ok(advisory introspection counter)
            rls_obs::counter!("serve.stats.frames", 1);
            if !send(stream, &progress_line(run_id, &circuit, &progress)) {
                return;
            }
        }
        if phase != RunPhase::Running {
            break;
        }
        std::thread::sleep(ATTACH_POLL);
    }
    let state = shared
        .registry()
        .iter()
        .rev()
        .find(|e| e.run_id == run_id)
        .map(|e| e.state.clone());
    match state {
        Some(RunState::Done { frame, .. }) => {
            send(stream, &frame);
        }
        Some(RunState::Failed(message)) => {
            send(stream, &error_line(&message));
        }
        _ => {}
    }
}

/// Reattaches a client to a run by id: waits for the run to finish (a
/// live session or a crash recovery), then replays its campaign file
/// behind a `recovered` frame and closes with the run's stored final
/// frame — so a client that lost its stream still collects the exact
/// record lines the file holds.
fn attach(stream: &UnixStream, shared: &Shared, run_id: &str) {
    loop {
        let snapshot = shared
            .registry()
            .iter()
            .rev()
            .find(|e| e.run_id == run_id)
            .map(|e| (e.path.clone(), e.state.clone()));
        match snapshot {
            None => {
                rls_obs::counter!("serve.requests_rejected", 1);
                send(
                    stream,
                    &rejected_line(&format!("unknown run id `{run_id}`")),
                );
                return;
            }
            Some((_, RunState::Running)) => std::thread::sleep(ATTACH_POLL),
            Some((path, RunState::Done { frame, outcome })) => {
                rls_obs::counter!("serve.attach_replays", 1);
                if !send(
                    stream,
                    &recovered_line(run_id, &path.display().to_string(), outcome),
                ) {
                    return;
                }
                let text = match std::fs::read_to_string(&path) {
                    Ok(text) => text,
                    Err(e) => {
                        send(
                            stream,
                            &error_line(&format!("campaign file unreadable: {e}")),
                        );
                        return;
                    }
                };
                for record in text.lines().filter(|l| !l.trim().is_empty()) {
                    if !send(stream, record) {
                        return;
                    }
                }
                send(stream, &frame);
                return;
            }
            Some((_, RunState::Failed(message))) => {
                send(stream, &error_line(&message));
                return;
            }
        }
    }
}

/// An admitted in-flight slot; releases on drop, so every exit path —
/// reject, disconnect, panic unwound by the session thread — frees it.
struct Admission<'a>(&'a AtomicUsize);

impl Drop for Admission<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

fn admit(shared: &Shared) -> Option<Admission<'_>> {
    let max = shared.cfg.max_inflight.max(1);
    let mut current = shared.inflight.load(Ordering::Acquire);
    loop {
        if current >= max {
            return None;
        }
        match shared.inflight.compare_exchange(
            current,
            current + 1,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => return Some(Admission(&shared.inflight)),
            Err(now) => current = now,
        }
    }
}

/// Builds the campaign configuration a request describes. The reply is a
/// reject reason on failure.
fn build_config(req: &RunRequest, pool_threads: usize) -> Result<RlsConfig, String> {
    let mut cfg = RlsConfig::try_new(req.la, req.lb, req.n).map_err(|e| e.to_string())?;
    if let Some(seed) = req.seed {
        cfg = cfg.with_seeds(SeedSequence::new(seed));
    }
    if let Some(max_iterations) = req.max_iterations {
        cfg.max_iterations = max_iterations;
    }
    Ok(cfg.with_threads(req.threads.clamp(1, pool_threads)))
}

/// Runs one admitted campaign, streaming its records to the client.
/// `line` is the raw request — journaled for crash recovery and hashed
/// for the deterministic retry-after hint.
fn run_campaign(stream: &UnixStream, shared: &Shared, req: &RunRequest, line: &str) {
    let request_seed = fnv1a(line.as_bytes());
    if shared.drain.load(Ordering::Acquire) {
        rls_obs::counter!("serve.requests_rejected", 1);
        send(
            stream,
            &rejected_retry_line("server is draining", retry_after_hint(request_seed)),
        );
        return;
    }
    let Some(_slot) = admit(shared) else {
        rls_obs::counter!("serve.requests_rejected", 1);
        rls_obs::counter!("serve.load_shed", 1);
        send(
            stream,
            &rejected_retry_line(
                &format!(
                    "server is at its in-flight campaign limit ({})",
                    shared.cfg.max_inflight.max(1)
                ),
                retry_after_hint(request_seed),
            ),
        );
        return;
    };
    let compiled = match shared.cache.resolve(&req.circuit) {
        Ok(c) => c,
        Err(reason) => {
            rls_obs::counter!("serve.requests_rejected", 1);
            send(stream, &rejected_line(&reason));
            return;
        }
    };
    let cfg = match build_config(req, shared.pool.threads()) {
        Ok(cfg) => cfg,
        Err(reason) => {
            rls_obs::counter!("serve.requests_rejected", 1);
            send(stream, &rejected_line(&reason));
            return;
        }
    };
    let threads = cfg.threads;
    let name = compiled.circuit().name().to_string();
    let procedure = Procedure2::new(compiled.circuit(), cfg.clone());
    let print = procedure.fingerprint();

    // Resume: load and validate before touching any file.
    let resume: Option<ResumeState> = match &req.resume {
        Some(path) => match load_checkpoint(path)
            .and_then(|state| procedure.validate_resume(&state).map(|()| state))
        {
            Ok(state) => Some(state),
            Err(e) => {
                rls_obs::counter!("serve.requests_rejected", 1);
                send(stream, &rejected_line(&format!("cannot resume: {e}")));
                return;
            }
        },
        None => None,
    };
    drop(procedure);

    // The sink: append to the resumed file, else create a fresh one.
    // Unlike a direct run, a server does not degrade to in-memory
    // recording — the file is the durable artifact drain/resume relies
    // on, so no sink means reject.
    let mut campaign = match resume.as_ref().and_then(|s| s.source.clone()) {
        Some(source) => match Campaign::append_to(&source, &name, threads) {
            Ok(c) => c,
            Err(e) => {
                rls_obs::counter!("serve.requests_rejected", 1);
                send(
                    stream,
                    &rejected_line(&format!("cannot reopen campaign file: {e}")),
                );
                return;
            }
        },
        None => match Campaign::create(&shared.cfg.campaign_dir, &name, threads, print) {
            Ok(c) => c,
            Err(e) => {
                rls_obs::counter!("serve.requests_rejected", 1);
                send(
                    stream,
                    &rejected_line(&format!("cannot create campaign file: {e}")),
                );
                return;
            }
        },
    };
    rls_obs::counter!("serve.requests_accepted", 1);
    rls_obs::gauge!(
        "serve.queue_depth",
        shared.inflight.load(Ordering::Acquire) as u64
    );
    let run_id = rls_obs::run_id(print);
    let path = campaign.path().map(Path::to_path_buf).unwrap_or_default();

    // Journal the run before the client learns its id: from here on, a
    // process death leaves a `begin` entry a restarted server replays —
    // resuming this campaign under this same run id.
    if let Err(e) = shared.journal.begin(&JournalEntry {
        run_id: run_id.clone(),
        circuit: name.clone(),
        fingerprint: print,
        path: path.clone(),
        threads,
        request: line.to_string(),
    }) {
        rls_obs::counter!("serve.journal_errors", 1);
        eprintln!("warning: could not journal run {run_id}: {e}");
    }
    let progress = registry_insert(shared, &run_id, &name, &path);

    // The observer replays neither the header nor a resume seam; send
    // them ourselves so the stream mirrors the file from its first line.
    if !send(stream, &accepted_line(&run_id, &path.display().to_string()))
        || !send(stream, &campaign.header_line())
        || (resume.is_some() && !send(stream, &campaign.resume_line()))
    {
        // Client left before the campaign started: nothing ran, so close
        // the journal entry instead of "recovering" a no-op later.
        if let Err(e) = shared.journal.end(&run_id, "abandoned") {
            rls_obs::counter!("serve.journal_errors", 1);
            eprintln!("warning: could not journal outcome of {run_id}: {e}");
        }
        registry_set(
            shared,
            &run_id,
            RunState::Failed("client left before the campaign started".to_string()),
        );
        return;
    }

    let disconnect = Arc::new(AtomicBool::new(false));
    let out = stream.try_clone().ok();
    if out.is_none() {
        disconnect.store(true, Ordering::Release);
    }
    {
        let flag = Arc::clone(&disconnect);
        let progress = Arc::clone(&progress);
        // Progress updates first, unconditionally: `stats`/`watch` track
        // the run even after its own client vanishes.
        campaign.set_observer(move |record| {
            progress.observe_record(record);
            if flag.load(Ordering::Acquire) {
                return;
            }
            let Some(out) = &out else { return };
            if let Err(e) = write_line(out, record) {
                // EPIPE = the client vanished (Rust ignores SIGPIPE);
                // a timeout = the client is alive but not draining
                // its socket. Either way the campaign stops at the
                // next trial boundary, checkpointed and collectable.
                if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) {
                    rls_obs::counter!("serve.slow_client_disconnects", 1);
                }
                flag.store(true, Ordering::Release);
            }
        });
    }

    let deadline = req
        .deadline_ms
        .map(|ms| Instant::now() + Duration::from_millis(ms)); // lint: det-ok(bounds the request only; a lapsed deadline checkpoints at a trial boundary and resume is bit-exact)
    let watch = rls_obs::Stopwatch::start();
    let (outcome, cancel) = execute_campaign(
        shared,
        &compiled,
        &cfg,
        &mut campaign,
        resume,
        &disconnect,
        deadline,
    );
    rls_obs::histogram!("serve.campaign_nanos", watch.elapsed_nanos());
    let frame = conclude(shared, &run_id, &outcome, cancel);
    send(stream, &frame);
}

/// Drives one admitted campaign to its end through the watchdog's
/// requeue policy:
///
/// attempt → stall? → requeue from the last checkpoint (bounded retries)
/// → force-degrade to the sequential path (which cannot stall).
///
/// Every attempt replays from a checkpoint via the same bit-exact resume
/// machinery a client-visible `resume` uses, so the reduced outcome is
/// identical however many times the pool wedged along the way. The
/// `workers` and `summary` records are written once, at the end.
fn execute_campaign(
    shared: &Shared,
    compiled: &Arc<CompiledCircuit>,
    cfg: &RlsConfig,
    campaign: &mut Campaign,
    mut resume: Option<ResumeState>,
    disconnect: &Arc<AtomicBool>,
    deadline: Option<Instant>,
) -> (Procedure2Outcome, Option<CancelCause>) {
    let procedure = Procedure2::new(compiled.circuit(), cfg.clone());
    let mut retries = shared.cfg.watchdog_retries;
    let mut degrade = false;
    let (outcome, cancel, snapshot) = loop {
        // A degraded attempt runs sequentially on this thread — the pool
        // cannot stall it — so it runs unmonitored (a stall verdict
        // against it could only be spurious).
        let guard = if degrade {
            None
        } else {
            shared.watchdog.register()
        };
        let mut pooled = CampaignExecutor::new(
            compiled,
            procedure.chains(),
            cfg,
            Some(shared.pool.register(cfg.threads)),
        );
        if guard.is_some() {
            // Bound wave barriers too: a worker wedged *inside* a wave
            // would otherwise block `apply_set` forever, beyond the
            // stall flag's reach (it is polled at trial boundaries). A
            // timed-out wave fails the set, which degrades that set to
            // the sequential oracle — same detections either way.
            let wave = shared.watchdog.deadline().max(Duration::from_millis(50)) * 2;
            pooled.set_wave_timeout(Some(wave));
        }
        let mut exec = ServedExecutor::new(pooled, &shared.drain, Arc::clone(disconnect))
            .with_deadline(deadline);
        if let Some(guard) = &guard {
            exec = exec.with_progress(Arc::clone(guard.cell()));
        }
        if degrade {
            exec.force_degrade();
        }
        let outcome = procedure.run_on(&mut exec, Some(campaign), resume.take());
        let cancel = (exec.was_cancelled() && !outcome.complete)
            .then(|| exec.cancel_cause())
            .flatten();
        if cancel == Some(CancelCause::Stall) {
            let state = campaign.path().map(Path::to_path_buf).and_then(|path| {
                match load_checkpoint(&path).and_then(|s| procedure.validate_resume(&s).map(|()| s))
                {
                    Ok(state) => Some(state),
                    Err(e) => {
                        eprintln!(
                            "warning: stalled campaign has no usable checkpoint ({e}); \
                             reporting it interrupted"
                        );
                        None
                    }
                }
            });
            if let Some(state) = state {
                if retries > 0 {
                    retries -= 1;
                    rls_obs::counter!("serve.watchdog.requeues", 1);
                } else {
                    degrade = true;
                    rls_obs::counter!("serve.watchdog.degrades", 1);
                }
                // Mark the seam in the file and stream, exactly like a
                // client-visible resume (normalization drops it).
                campaign.record_raw(&campaign.resume_line());
                resume = Some(state);
                continue;
            }
        }
        let snapshot = (cfg.threads > 1).then(|| exec.snapshot()).flatten();
        break (outcome, cancel, snapshot);
    };
    // End-of-run bookkeeping, mirroring a direct run: a workers record
    // only on the parallel path, then the summary.
    if let Some(snap) = snapshot {
        campaign.record_workers(snap);
    }
    campaign.record_summary(CampaignSummary {
        detected: outcome.total_detected,
        target_faults: outcome.target_faults,
        pairs: outcome.pairs.len(),
        total_cycles: outcome.total_cycles,
        complete: outcome.complete,
        iterations: outcome.iterations,
    });
    (outcome, cancel)
}

/// Closes out a finished (or interrupted) run: journals the outcome,
/// publishes the final frame to the attach registry, and returns that
/// frame for the caller to send (recoveries have nobody to send it to;
/// attach replays it later).
fn conclude(
    shared: &Shared,
    run_id: &str,
    outcome: &Procedure2Outcome,
    cancel: Option<CancelCause>,
) -> String {
    let (frame, label) = match cancel {
        Some(cause) => {
            if cause == CancelCause::Deadline {
                rls_obs::counter!("serve.deadline_cancels", 1);
            }
            (interrupted_line(run_id, cause.label()), "interrupted")
        }
        None => (
            done_line(
                run_id,
                outcome.total_detected,
                outcome.target_faults,
                outcome.pairs.len(),
                outcome.complete,
                outcome.iterations,
            ),
            "done",
        ),
    };
    if let Err(e) = shared.journal.end(run_id, label) {
        rls_obs::counter!("serve.journal_errors", 1);
        eprintln!("warning: could not journal outcome of {run_id}: {e}");
    }
    registry_set(
        shared,
        run_id,
        RunState::Done {
            frame: frame.clone(),
            outcome: label,
        },
    );
    frame
}

/// Replays one journaled in-flight campaign after a crash: rebuilds the
/// configuration from the journaled request line, verifies it against
/// the journaled fingerprint (a changed benchmark registry or request
/// semantics must not silently compute something different under the old
/// run id), loads the last checkpoint, and drives the campaign to its
/// end with no client attached. Clients collect the result via `attach`
/// with the original run id.
fn recover_one(shared: &Shared, entry: &JournalEntry) {
    let fail = |outcome: &'static str, message: String| {
        eprintln!("warning: could not recover run {}: {message}", entry.run_id);
        if let Err(e) = shared.journal.end(&entry.run_id, outcome) {
            rls_obs::counter!("serve.journal_errors", 1);
            eprintln!(
                "warning: could not journal outcome of {}: {e}",
                entry.run_id
            );
        }
        registry_set(shared, &entry.run_id, RunState::Failed(message));
    };
    let req = match parse_request(&entry.request) {
        Ok(Request::Run(req)) => req,
        Ok(_) => {
            return fail(
                "failed",
                "journaled request is not a run request".to_string(),
            )
        }
        Err(e) => return fail("failed", format!("journaled request no longer parses: {e}")),
    };
    let compiled = match shared.cache.resolve(&req.circuit) {
        Ok(c) => c,
        Err(reason) => return fail("failed", reason),
    };
    let cfg = match build_config(&req, shared.pool.threads()) {
        Ok(cfg) => cfg,
        Err(reason) => return fail("failed", reason),
    };
    let name = compiled.circuit().name().to_string();
    let procedure = Procedure2::new(compiled.circuit(), cfg.clone());
    let print = procedure.fingerprint();
    if print != entry.fingerprint {
        rls_obs::counter!("serve.journal_rejects", 1);
        return fail(
            "rejected",
            format!(
                "config fingerprint changed across restart \
                 (journal {:016x}, rebuilt {print:016x})",
                entry.fingerprint
            ),
        );
    }
    let state = match load_checkpoint(&entry.path)
        .and_then(|s| procedure.validate_resume(&s).map(|()| s))
    {
        Ok(state) => state,
        Err(e) => return fail("failed", format!("no usable checkpoint: {e}")),
    };
    drop(procedure);
    // Recovery respects admission like any session, but polls instead of
    // shedding: the journal entry stays owed until the campaign runs.
    let _slot = loop {
        if shared.drain.load(Ordering::Acquire) {
            // No journal `end`: the begin entry stays, and the *next*
            // start owes this recovery.
            registry_set(
                shared,
                &entry.run_id,
                RunState::Failed("server drained before recovery could run".to_string()),
            );
            return;
        }
        if let Some(slot) = admit(shared) {
            break slot;
        }
        std::thread::sleep(ACCEPT_POLL);
    };
    let mut campaign = match Campaign::append_to(&entry.path, &name, cfg.threads) {
        Ok(c) => c,
        Err(e) => return fail("failed", format!("cannot reopen campaign file: {e}")),
    };
    rls_obs::counter!("serve.recovered", 1);
    if let Some((_, progress)) = registry_progress(shared, &entry.run_id) {
        // No client is attached, but `watch`/`stats` still follow the
        // recovery through its record stream.
        campaign.set_observer(move |record| progress.observe_record(record));
    }
    let disconnect = Arc::new(AtomicBool::new(false));
    let watch = rls_obs::Stopwatch::start();
    let (outcome, cancel) = execute_campaign(
        shared,
        &compiled,
        &cfg,
        &mut campaign,
        Some(state),
        &disconnect,
        None,
    );
    rls_obs::histogram!("serve.campaign_nanos", watch.elapsed_nanos());
    conclude(shared, &entry.run_id, &outcome, cancel);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::CircuitRef;

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("rls-serve-server-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn test_shared(dir: &Path, max_inflight: usize) -> Shared {
        let mut cfg = ServeConfig::new(dir.join("unused.sock"), dir.to_path_buf());
        cfg.threads = 1;
        cfg.max_inflight = max_inflight;
        Shared {
            pool: SharedPool::new(1),
            cache: CircuitCache::new(),
            inflight: AtomicUsize::new(0),
            drain: AtomicBool::new(false),
            journal: Journal::open(dir).unwrap().0,
            watchdog: Watchdog::start(Duration::ZERO),
            registry: Mutex::new(Vec::new()),
            counters: ServerCounters::default(),
            cfg,
        }
    }

    #[test]
    fn admission_is_bounded_and_released_on_drop() {
        let dir = scratch("admission");
        let shared = test_shared(&dir, 2);
        let a = admit(&shared).expect("first fits");
        let b = admit(&shared).expect("second fits");
        assert!(admit(&shared).is_none(), "third is over the limit");
        drop(a);
        let c = admit(&shared).expect("slot freed");
        drop((b, c));
        assert_eq!(shared.inflight.load(Ordering::Acquire), 0);
    }

    #[test]
    fn build_config_applies_request_knobs_and_clamps_threads() {
        let req = RunRequest {
            circuit: CircuitRef::Named("s27".to_string()),
            la: 4,
            lb: 8,
            n: 8,
            seed: Some(99),
            threads: 64,
            max_iterations: Some(7),
            resume: None,
            deadline_ms: None,
        };
        let cfg = build_config(&req, 4).unwrap();
        assert_eq!(cfg.seeds.base(), 99);
        assert_eq!(cfg.threads, 4, "clamped to the pool width");
        assert_eq!(cfg.max_iterations, 7);
        let bad = RunRequest {
            la: 9,
            lb: 3,
            ..req
        };
        let e = build_config(&bad, 4).unwrap_err();
        assert!(e.contains("L_A <= L_B"), "{e}");
    }

    #[test]
    fn registry_prefers_the_latest_entry_for_a_run_id() {
        let dir = scratch("registry");
        let shared = test_shared(&dir, 1);
        registry_insert(&shared, "r1", "s27", Path::new("/tmp/a.jsonl"));
        registry_set(
            &shared,
            "r1",
            RunState::Done {
                frame: "old".to_string(),
                outcome: "interrupted",
            },
        );
        // A recovery under the same run id registers a fresh entry; the
        // lookup must see *it*, not the superseded one.
        registry_insert(&shared, "r1", "s27", Path::new("/tmp/a.jsonl"));
        registry_set(
            &shared,
            "r1",
            RunState::Done {
                frame: "new".to_string(),
                outcome: "done",
            },
        );
        let reg = shared.registry();
        let latest = reg.iter().rev().find(|e| e.run_id == "r1").unwrap();
        match &latest.state {
            RunState::Done { frame, outcome } => {
                assert_eq!(frame, "new");
                assert_eq!(*outcome, "done");
            }
            other => panic!("unexpected state {other:?}"),
        }
    }

    #[test]
    fn bind_refuses_a_live_socket_and_replaces_a_dead_one() {
        let dir = scratch("stale-socket");
        let socket = dir.join("rls.sock");
        // A dead leftover file: bind must replace it.
        drop(UnixListener::bind(&socket).unwrap()); // listener gone, file stays
        assert!(socket.exists(), "dropping a listener leaves the file");
        let mut cfg = ServeConfig::new(socket.clone(), dir.join("campaigns"));
        cfg.threads = 1;
        let server = Server::bind(cfg.clone()).expect("dead socket file is replaced");
        // A live server on the path: a second bind must refuse.
        let e = Server::bind(cfg).expect_err("live socket must not be stolen");
        assert_eq!(e.kind(), ErrorKind::AddrInUse, "{e}");
        drop(server);
    }
}
