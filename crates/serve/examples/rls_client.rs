//! `rls_client` — submit campaigns to a running `rls-serve` and tail the
//! record stream.
//!
//! ```text
//! cargo run -p rls-serve --example rls_client -- run \
//!     --socket /tmp/rls.sock --circuit s27 --la 4 --lb 8 --n 8 --threads 2
//! cargo run -p rls-serve --example rls_client -- attach \
//!     --socket /tmp/rls.sock --run-id 00c0ffee-r0 --normalize
//! cargo run -p rls-serve --example rls_client -- stats --socket /tmp/rls.sock
//! cargo run -p rls-serve --example rls_client -- watch \
//!     --socket /tmp/rls.sock --run-id 00c0ffee-r0
//! cargo run -p rls-serve --example rls_client -- shutdown --socket /tmp/rls.sock
//! cargo run -p rls-serve --example rls_client -- direct \
//!     --circuit s27 --la 4 --lb 8 --n 8 --threads 2 --campaign-dir /tmp/direct
//! ```
//!
//! `run` connects, submits one request, and prints the response stream;
//! with `--normalize` it prints only campaign record lines, wall-clock
//! fields stripped (control frames go to stderr) — the exact bytes a
//! `direct` invocation of the same configuration prints, which is how
//! `ci.sh` byte-compares served against direct campaigns.
//!
//! `attach` reconnects to a run by id (after a dropped stream or a
//! server crash) and replays its finished record; with `--normalize` the
//! replay is collapsed through `normalize_recovered`, which erases
//! resume seams and replayed trials, so even a crash-recovered run
//! byte-compares against `direct`.
//!
//! `stats` prints the server's one-line introspection snapshot (admission
//! state plus every registered campaign's live progress). `watch` streams
//! a run's `progress` frames — one per campaign record, so they move at
//! trial boundaries — until the run closes with its final control frame.
//!
//! Connection failures and `rejected` answers are retried up to
//! `--retries` times with deterministic jittered exponential backoff —
//! seeded from the request bytes, no wall clock — honouring the server's
//! `retry_after_ms` hint when one is given. `--timeout` bounds every
//! socket read/write so a dead server cannot hang the client.

use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use rls_core::{Procedure2, RlsConfig};
use rls_lfsr::SeedSequence;
use rls_obs::jsonl::JsonObject;
use rls_serve::{backoff_ms, fnv1a, normalize_line, normalize_recovered};

#[derive(Default)]
struct Opts {
    socket: Option<PathBuf>,
    circuit: Option<String>,
    netlist_file: Option<PathBuf>,
    name: Option<String>,
    la: Option<u64>,
    lb: Option<u64>,
    n: Option<u64>,
    threads: u64,
    seed: Option<u64>,
    max_iterations: Option<u64>,
    resume: Option<PathBuf>,
    deadline_ms: Option<u64>,
    campaign_dir: Option<PathBuf>,
    run_id: Option<String>,
    timeout: Option<u64>,
    retries: u32,
    normalize: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: rls_client run --socket PATH (--circuit NAME | --netlist-file F --name LABEL)\n\
         \x20                  --la A --lb B --n N [--threads T] [--seed S]\n\
         \x20                  [--max-iterations M] [--resume FILE] [--deadline-ms MS]\n\
         \x20                  [--timeout SECS] [--retries N] [--normalize]\n\
         \x20      rls_client attach --socket PATH --run-id ID [--timeout SECS] [--retries N]\n\
         \x20                  [--normalize]\n\
         \x20      rls_client stats --socket PATH [--timeout SECS]\n\
         \x20      rls_client watch --socket PATH --run-id ID [--timeout SECS] [--retries N]\n\
         \x20      rls_client shutdown --socket PATH [--timeout SECS]\n\
         \x20      rls_client direct --campaign-dir DIR (--circuit NAME | --netlist-file F --name LABEL)\n\
         \x20                  --la A --lb B --n N [--threads T] [--seed S]\n\
         \x20                  [--max-iterations M]"
    );
    std::process::exit(2);
}

fn parse_opts(args: &mut std::env::Args) -> Opts {
    let mut o = Opts {
        threads: 1,
        retries: 3,
        ..Opts::default()
    };
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{what} needs a value");
                usage();
            })
        };
        match arg.as_str() {
            "--socket" => o.socket = Some(PathBuf::from(value("--socket"))),
            "--circuit" => o.circuit = Some(value("--circuit")),
            "--netlist-file" => o.netlist_file = Some(PathBuf::from(value("--netlist-file"))),
            "--name" => o.name = Some(value("--name")),
            "--la" => o.la = value("--la").parse().ok(),
            "--lb" => o.lb = value("--lb").parse().ok(),
            "--n" => o.n = value("--n").parse().ok(),
            "--threads" => o.threads = value("--threads").parse().unwrap_or_else(|_| usage()),
            "--seed" => o.seed = value("--seed").parse().ok(),
            "--max-iterations" => o.max_iterations = value("--max-iterations").parse().ok(),
            "--resume" => o.resume = Some(PathBuf::from(value("--resume"))),
            "--deadline-ms" => o.deadline_ms = value("--deadline-ms").parse().ok(),
            "--campaign-dir" => o.campaign_dir = Some(PathBuf::from(value("--campaign-dir"))),
            "--run-id" => o.run_id = Some(value("--run-id")),
            "--timeout" => o.timeout = value("--timeout").parse().ok(),
            "--retries" => o.retries = value("--retries").parse().unwrap_or_else(|_| usage()),
            "--normalize" => o.normalize = true,
            _ => {
                eprintln!("unknown argument `{arg}`");
                usage();
            }
        }
    }
    o
}

fn request_json(o: &Opts) -> Result<String, String> {
    let (Some(la), Some(lb), Some(n)) = (o.la, o.lb, o.n) else {
        return Err("--la, --lb and --n are required".to_string());
    };
    let mut obj = JsonObject::new().str("type", "run");
    match (&o.circuit, &o.netlist_file) {
        (Some(name), None) => obj = obj.str("circuit", name),
        (None, Some(path)) => {
            let source = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let name = o
                .name
                .clone()
                .ok_or("--netlist-file needs --name".to_string())?;
            obj = obj.str("netlist", &source).str("name", &name);
        }
        _ => return Err("give exactly one of --circuit or --netlist-file".to_string()),
    }
    obj = obj
        .num("la", la)
        .num("lb", lb)
        .num("n", n)
        .num("threads", o.threads);
    if let Some(seed) = o.seed {
        obj = obj.num("seed", seed);
    }
    if let Some(m) = o.max_iterations {
        obj = obj.num("max_iterations", m);
    }
    if let Some(r) = &o.resume {
        obj = obj.str("resume", &r.display().to_string());
    }
    if let Some(d) = o.deadline_ms {
        obj = obj.num("deadline_ms", d);
    }
    Ok(obj.render())
}

/// How one response stream ended.
enum StreamEnd {
    /// `done`, `interrupted`, or `draining` — the stream is complete.
    Ok,
    /// A `rejected` frame, with the server's retry-after hint if it gave
    /// one. Retryable.
    Rejected(Option<u64>),
    /// An `error` frame, an unparsable record, or EOF before a terminal
    /// frame. Not retried.
    Error,
}

/// Connects with the configured read/write timeouts applied.
fn connect(o: &Opts, socket: &Path) -> Result<UnixStream, String> {
    let stream = UnixStream::connect(socket)
        .map_err(|e| format!("cannot connect to {}: {e}", socket.display()))?;
    if let Some(secs) = o.timeout.filter(|&s| s > 0) {
        let t = Duration::from_secs(secs);
        stream
            .set_read_timeout(Some(t))
            .and_then(|()| stream.set_write_timeout(Some(t)))
            .map_err(|e| format!("cannot set socket timeouts: {e}"))?;
    }
    Ok(stream)
}

/// Runs `attempt` under the retry policy: connection failures and
/// `rejected` answers back off deterministically (seeded by the request
/// bytes, honouring any server hint) and try again, up to `retries`.
fn with_retries(
    o: &Opts,
    request: &str,
    mut attempt_stream: impl FnMut() -> Result<StreamEnd, String>,
) -> Result<bool, String> {
    let seed = fnv1a(request.as_bytes());
    let mut attempt: u32 = 0;
    loop {
        let hint = match attempt_stream() {
            Ok(StreamEnd::Ok) => return Ok(true),
            Ok(StreamEnd::Error) => return Ok(false),
            Ok(StreamEnd::Rejected(hint)) => hint,
            Err(e) => {
                if attempt >= o.retries {
                    return Err(e);
                }
                eprintln!("rls_client: {e}");
                None
            }
        };
        if attempt >= o.retries {
            return Ok(false);
        }
        let delay = backoff_ms(seed, attempt).max(hint.unwrap_or(0));
        eprintln!(
            "rls_client: retrying in {delay}ms (attempt {}/{})",
            attempt + 1,
            o.retries
        );
        std::thread::sleep(Duration::from_millis(delay));
        attempt += 1;
    }
}

/// Classifies a control frame line into how the stream ends, if it does.
fn control_end(kind: &str, line: &str) -> Option<StreamEnd> {
    match kind {
        "done" | "interrupted" | "draining" => Some(StreamEnd::Ok),
        "rejected" => Some(StreamEnd::Rejected(
            rls_obs::jsonl::parse(line)
                .ok()
                .and_then(|v| v.u64_field("retry_after_ms")),
        )),
        "error" => Some(StreamEnd::Error),
        _ => None, // accepted / recovered: the stream continues
    }
}

/// Streams the server's response lines as they arrive.
fn tail(stream: UnixStream, normalize: bool) -> StreamEnd {
    let reader = BufReader::new(stream);
    let mut end = StreamEnd::Error; // EOF before a terminal frame
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if line.is_empty() {
            continue;
        }
        let kind = rls_obs::jsonl::parse(&line)
            .ok()
            .and_then(|v| v.str_field("type").map(str::to_string))
            .unwrap_or_default();
        if rls_serve::protocol::CONTROL_TYPES.contains(&kind.as_str()) {
            if normalize {
                eprintln!("{line}");
            } else {
                println!("{line}");
            }
            if let Some(e) = control_end(&kind, &line) {
                end = e;
                break;
            }
            continue;
        }
        if normalize {
            match normalize_line(&line) {
                Ok(Some(n)) => println!("{n}"),
                Ok(None) => {}
                Err(e) => {
                    eprintln!("rls_client: unparsable record line ({e}): {line}");
                    return StreamEnd::Error;
                }
            }
        } else {
            println!("{line}");
        }
    }
    end
}

/// Collects a whole replayed stream, then prints it collapsed through
/// `normalize_recovered` — seams, replayed trials, and interim summaries
/// erased — so the output byte-compares against a direct run.
fn tail_recovered(stream: UnixStream) -> Result<StreamEnd, String> {
    let reader = BufReader::new(stream);
    let mut records: Vec<String> = Vec::new();
    let mut end = StreamEnd::Error;
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if line.is_empty() {
            continue;
        }
        let kind = rls_obs::jsonl::parse(&line)
            .ok()
            .and_then(|v| v.str_field("type").map(str::to_string))
            .unwrap_or_default();
        if rls_serve::protocol::CONTROL_TYPES.contains(&kind.as_str()) {
            eprintln!("{line}");
            if let Some(e) = control_end(&kind, &line) {
                end = e;
                break;
            }
            continue;
        }
        records.push(line);
    }
    if matches!(end, StreamEnd::Ok) {
        for n in normalize_recovered(records.iter().map(String::as_str))
            .map_err(|e| format!("bad record line in replay: {e}"))?
        {
            println!("{n}");
        }
    }
    Ok(end)
}

fn cmd_run(o: &Opts) -> Result<bool, String> {
    let socket = o.socket.as_ref().ok_or("--socket is required")?;
    let request = request_json(o)?;
    with_retries(o, &request, || {
        let mut stream = connect(o, socket)?;
        stream
            .write_all(request.as_bytes())
            .and_then(|()| stream.write_all(b"\n"))
            .map_err(|e| format!("cannot send request: {e}"))?;
        Ok(tail(stream, o.normalize))
    })
}

fn cmd_attach(o: &Opts) -> Result<bool, String> {
    let socket = o.socket.as_ref().ok_or("--socket is required")?;
    let run_id = o.run_id.as_ref().ok_or("attach needs --run-id")?;
    let request = JsonObject::new()
        .str("type", "attach")
        .str("run_id", run_id)
        .render();
    with_retries(o, &request, || {
        let mut stream = connect(o, socket)?;
        stream
            .write_all(request.as_bytes())
            .and_then(|()| stream.write_all(b"\n"))
            .map_err(|e| format!("cannot send request: {e}"))?;
        if o.normalize {
            tail_recovered(stream)
        } else {
            Ok(tail(stream, false))
        }
    })
}

fn cmd_stats(o: &Opts) -> Result<bool, String> {
    let socket = o.socket.as_ref().ok_or("--socket is required")?;
    let mut stream = connect(o, socket)?;
    stream
        .write_all(b"{\"type\":\"stats\"}\n")
        .map_err(|e| format!("cannot send request: {e}"))?;
    let mut reply = String::new();
    let _ = BufReader::new(&stream).read_line(&mut reply);
    if reply.trim().is_empty() {
        return Err("server closed the connection without answering".to_string());
    }
    print!("{reply}");
    Ok(true)
}

fn cmd_watch(o: &Opts) -> Result<bool, String> {
    let socket = o.socket.as_ref().ok_or("--socket is required")?;
    let run_id = o.run_id.as_ref().ok_or("watch needs --run-id")?;
    let request = JsonObject::new()
        .str("type", "watch")
        .str("run_id", run_id)
        .render();
    with_retries(o, &request, || {
        let mut stream = connect(o, socket)?;
        stream
            .write_all(request.as_bytes())
            .and_then(|()| stream.write_all(b"\n"))
            .map_err(|e| format!("cannot send request: {e}"))?;
        Ok(tail(stream, false))
    })
}

fn cmd_shutdown(o: &Opts) -> Result<bool, String> {
    let socket = o.socket.as_ref().ok_or("--socket is required")?;
    let mut stream = connect(o, socket)?;
    stream
        .write_all(b"{\"type\":\"shutdown\"}\n")
        .map_err(|e| format!("cannot send request: {e}"))?;
    let mut reply = String::new();
    let _ = BufReader::new(&stream).read_line(&mut reply);
    print!("{reply}");
    Ok(true)
}

/// Runs the same configuration directly (no server) and prints the
/// campaign file's lines, normalized — the byte-compare reference.
fn cmd_direct(o: &Opts) -> Result<bool, String> {
    let dir = o
        .campaign_dir
        .as_ref()
        .ok_or("direct needs --campaign-dir (a fresh directory)")?;
    let (Some(la), Some(lb), Some(n)) = (o.la, o.lb, o.n) else {
        return Err("--la, --lb and --n are required".to_string());
    };
    let circuit = match (&o.circuit, &o.netlist_file) {
        (Some(name), None) => {
            rls_benchmarks::by_name(name).ok_or_else(|| format!("unknown circuit `{name}`"))?
        }
        (None, Some(path)) => {
            let source = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let name = o
                .name
                .clone()
                .ok_or("--netlist-file needs --name".to_string())?;
            rls_netlist::parse_bench(&name, &source).map_err(|e| format!("bad netlist: {e}"))?
        }
        _ => return Err("give exactly one of --circuit or --netlist-file".to_string()),
    };
    let mut cfg =
        RlsConfig::try_new(la as usize, lb as usize, n as usize).map_err(|e| e.to_string())?;
    if let Some(seed) = o.seed {
        cfg = cfg.with_seeds(SeedSequence::new(seed));
    }
    if let Some(m) = o.max_iterations {
        cfg.max_iterations = u32::try_from(m).map_err(|_| "max-iterations out of range")?;
    }
    cfg = cfg.with_threads(o.threads as usize).with_campaign_dir(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Procedure2::new(&circuit, cfg).run();
    // The fresh directory holds exactly one campaign file.
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot list {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "jsonl"))
        .collect();
    files.sort();
    let file = files
        .pop()
        .ok_or_else(|| format!("no campaign file appeared under {}", dir.display()))?;
    let mut text = String::new();
    std::fs::File::open(&file)
        .and_then(|mut f| f.read_to_string(&mut text))
        .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        if let Some(n) = normalize_line(line).map_err(|e| format!("bad record line: {e}"))? {
            println!("{n}");
        }
    }
    Ok(true)
}

fn main() -> ExitCode {
    let mut args = std::env::args();
    let _ = args.next();
    let Some(cmd) = args.next() else { usage() };
    let opts = parse_opts(&mut args);
    let result = match cmd.as_str() {
        "run" => cmd_run(&opts),
        "attach" => cmd_attach(&opts),
        "stats" => cmd_stats(&opts),
        "watch" => cmd_watch(&opts),
        "shutdown" => cmd_shutdown(&opts),
        "direct" => cmd_direct(&opts),
        _ => {
            eprintln!("unknown subcommand `{cmd}`");
            usage();
        }
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("rls_client: {e}");
            ExitCode::FAILURE
        }
    }
}
