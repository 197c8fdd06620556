//! `rls-serve` — the campaign server binary.
//!
//! ```text
//! rls-serve --socket /tmp/rls.sock [--threads N] [--max-inflight N]
//!           [--campaign-dir DIR] [--watchdog-ms MS]
//!           [--watchdog-retries N] [--write-timeout-ms MS]
//! ```
//!
//! Listens on a Unix-domain socket for newline-delimited JSON campaign
//! requests and serves them over one persistent shared worker pool. Set
//! `RLS_OBS=1` (and optionally `RLS_OBS_SINK=stderr|jsonl|both`) to
//! record server metrics (`serve.*`) alongside the campaign records, and
//! `RLS_RECORD=1` (or a per-thread event capacity) to arm the flight
//! recorder, whose crash dumps land in the campaign directory when a
//! campaign panics, degrades, or trips the watchdog.
//!
//! A running server answers `stats` requests with a one-line snapshot of
//! its admission state and every registered campaign's live progress,
//! and `watch` requests with a stream of per-campaign `progress` frames
//! at trial boundaries (see `rls_client stats` / `rls_client watch`).
//!
//! The server is crash-only: admitted campaigns are journaled under the
//! campaign directory, and a restarted server resumes any the previous
//! process left in flight (clients reattach with `rls_client attach`).
//! `--watchdog-ms` bounds how long a campaign may go without trial
//! progress before it is requeued from its checkpoint; zero (the
//! default) disables the watchdog. `--write-timeout-ms` bounds any
//! single client write (zero = unbounded); a client that cannot drain
//! its socket is disconnected and the campaign stays collectable.
//!
//! The server exits after a `{"type":"shutdown"}` request drains every
//! in-flight campaign (see `rls_client shutdown`). Pure-std binaries
//! cannot trap SIGTERM, so supervisors should drain via that request.
//! A SIGKILL (or power cut) is recovered from the journal instead.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use rls_serve::{ServeConfig, Server};

fn usage() -> ! {
    eprintln!(
        "usage: rls-serve --socket PATH [--threads N] [--max-inflight N] [--campaign-dir DIR]\n\
         \x20                [--watchdog-ms MS] [--watchdog-retries N] [--write-timeout-ms MS]"
    );
    std::process::exit(2);
}

fn parse_args() -> ServeConfig {
    let mut socket: Option<PathBuf> = None;
    let mut threads = std::thread::available_parallelism().map_or(2, std::num::NonZero::get);
    let mut max_inflight = 4;
    let mut campaign_dir = PathBuf::from("results");
    let mut watchdog_ms: u64 = 0;
    let mut watchdog_retries: u32 = 2;
    let mut write_timeout_ms: u64 = 10_000;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{what} needs a value");
                usage();
            })
        };
        match arg.as_str() {
            "--socket" => socket = Some(PathBuf::from(value("--socket"))),
            "--threads" => {
                threads = value("--threads").parse().unwrap_or_else(|_| usage());
            }
            "--max-inflight" => {
                max_inflight = value("--max-inflight").parse().unwrap_or_else(|_| usage());
            }
            "--campaign-dir" => campaign_dir = PathBuf::from(value("--campaign-dir")),
            "--watchdog-ms" => {
                watchdog_ms = value("--watchdog-ms").parse().unwrap_or_else(|_| usage());
            }
            "--watchdog-retries" => {
                watchdog_retries = value("--watchdog-retries")
                    .parse()
                    .unwrap_or_else(|_| usage());
            }
            "--write-timeout-ms" => {
                write_timeout_ms = value("--write-timeout-ms")
                    .parse()
                    .unwrap_or_else(|_| usage());
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument `{other}`");
                usage();
            }
        }
    }
    let Some(socket) = socket else {
        eprintln!("--socket is required");
        usage();
    };
    let mut cfg = ServeConfig::new(socket, campaign_dir);
    cfg.threads = threads;
    cfg.max_inflight = max_inflight;
    cfg.watchdog_deadline = Duration::from_millis(watchdog_ms);
    cfg.watchdog_retries = watchdog_retries;
    cfg.write_timeout = Duration::from_millis(write_timeout_ms);
    cfg
}

/// Flight-recorder capacity from `RLS_RECORD`, mirroring the table
/// binaries' grammar: unset/`0`/`false`/`off` → disabled, `1`/`true`/
/// `on` → the default per-thread capacity, an integer → that capacity.
fn record_capacity() -> Option<usize> {
    let raw = std::env::var("RLS_RECORD").ok()?;
    match raw.trim().to_ascii_lowercase().as_str() {
        "" | "0" | "false" | "off" => None,
        "1" | "true" | "on" => Some(rls_obs::recorder::DEFAULT_CAPACITY),
        other => match other.parse::<usize>() {
            Ok(n) => Some(n),
            Err(_) => {
                eprintln!("rls-serve: bad RLS_RECORD value `{raw}`");
                std::process::exit(2);
            }
        },
    }
}

/// Arms the chaos schedule from `RLS_CHAOS` (fault-inject builds only);
/// see `rls_dispatch::inject::arm_from_spec` for the spec grammar.
#[cfg(feature = "fault-inject")]
fn arm_chaos() {
    if let Ok(spec) = std::env::var("RLS_CHAOS") {
        if !spec.is_empty() {
            match rls_dispatch::inject::arm_from_spec(&spec) {
                Ok(()) => eprintln!("rls-serve: chaos schedule armed: {spec}"),
                Err(e) => {
                    eprintln!("rls-serve: bad RLS_CHAOS spec: {e}");
                    std::process::exit(2);
                }
            }
        }
    }
}

#[cfg(not(feature = "fault-inject"))]
fn arm_chaos() {}

fn main() -> ExitCode {
    let cfg = parse_args();
    arm_chaos();
    if std::env::var_os("RLS_OBS").is_some_and(|v| v != "0") {
        let mode = std::env::var("RLS_OBS_SINK")
            .ok()
            .and_then(|v| rls_obs::SinkMode::parse(&v))
            .unwrap_or_default();
        if let Err(e) = rls_obs::install_standard(mode, &cfg.campaign_dir, 0) {
            eprintln!("rls-serve: cannot install observability sinks: {e}");
        }
    }
    if let Some(capacity) = record_capacity() {
        rls_obs::recorder::set_dump_dir(&cfg.campaign_dir);
        if rls_obs::recorder::start(capacity) {
            eprintln!(
                "rls-serve: flight recorder armed ({capacity} events/thread; dumps under {})",
                cfg.campaign_dir.display()
            );
        }
    }
    let server = match Server::bind(cfg.clone()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("rls-serve: cannot bind {}: {e}", cfg.socket.display());
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "rls-serve: listening on {} ({} workers, {} in-flight max)",
        cfg.socket.display(),
        cfg.threads.max(1),
        cfg.max_inflight.max(1)
    );
    match server.run() {
        Ok(()) => {
            eprintln!("rls-serve: drained, exiting");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("rls-serve: accept loop failed: {e}");
            ExitCode::FAILURE
        }
    }
}
