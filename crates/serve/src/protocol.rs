//! The wire protocol: newline-delimited JSON over a Unix-domain socket.
//!
//! One connection carries one request line and its response stream:
//!
//! - `{"type":"run", …}` → `accepted`, then the campaign's JSONL record
//!   lines exactly as the campaign file holds them (header, `initial`,
//!   `trial`, `checkpoint`, …, `summary`), then a final `done` or
//!   `interrupted` control frame;
//! - `{"type":"stats"}` → one `stats` frame: a server-wide snapshot of
//!   admission state and every registered campaign's live progress;
//! - `{"type":"watch","run_id":…}` → a stream of `progress` frames at
//!   trial boundaries, closed by the run's final control frame;
//! - `{"type":"shutdown"}` → `draining`, and the server stops accepting,
//!   finishes (or checkpoints) every in-flight campaign, and exits;
//! - anything unparsable → one `error` frame;
//! - a well-formed but unservable request (unknown circuit, bad netlist,
//!   admission limit) → one `rejected` frame.
//!
//! Record lines and control frames share the stream; clients tell them
//! apart by the `type` field ([`is_control`]). Because the record lines
//! come from the same writer the campaign file uses, `rls-report` works
//! on a served stream unchanged.
//!
//! [`normalize_line`] strips the only nondeterministic content — wall
//! clock fields and the scheduling-dependent `workers` record — so a
//! served stream can be byte-compared against a direct run's file.

use std::path::PathBuf;

use rls_dispatch::jsonl::JsonObject;
use rls_dispatch::jsonl::{escape, parse, JsonValue};

/// Upper bound on one request line (netlist uploads included).
pub const MAX_REQUEST_BYTES: usize = 4 * 1024 * 1024;

/// Which circuit a campaign request targets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CircuitRef {
    /// A registry name (`rls_benchmarks::by_name`, which honours
    /// `RLS_BENCH_DIR` for real ISCAS-89 netlists).
    Named(String),
    /// An uploaded `.bench` netlist with a client-chosen label.
    Upload {
        /// The circuit label (used in records and file names).
        name: String,
        /// The `.bench` source text.
        source: String,
    },
}

impl CircuitRef {
    /// The circuit label requests and records refer to.
    pub fn name(&self) -> &str {
        match self {
            CircuitRef::Named(name) => name,
            CircuitRef::Upload { name, .. } => name,
        }
    }
}

/// A parsed `run` request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunRequest {
    /// The target circuit.
    pub circuit: CircuitRef,
    /// Shorter test length `L_A`.
    pub la: usize,
    /// Longer test length `L_B`.
    pub lb: usize,
    /// Tests per length in `TS0`.
    pub n: usize,
    /// Base seed for the campaign's seed family (default family if
    /// absent).
    pub seed: Option<u64>,
    /// Requested parallelism (clamped to the pool width; 1 = budget of
    /// one worker, still bit-identical).
    pub threads: usize,
    /// Override for the iteration safety cap.
    pub max_iterations: Option<u32>,
    /// Campaign file to resume from (its last checkpoint is loaded and
    /// validated against this request's configuration).
    pub resume: Option<PathBuf>,
    /// Per-request deadline in milliseconds: a campaign still running
    /// when it lapses is checkpointed and answered with `interrupted`
    /// (`reason:"deadline"`); absent means no deadline.
    pub deadline_ms: Option<u64>,
}

/// One request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Run (or resume) a campaign.
    Run(Box<RunRequest>),
    /// Reattach to a run by id (after a crash or dropped connection):
    /// waits for it to finish, then replays its campaign file behind a
    /// `recovered` frame.
    Attach(String),
    /// Answer one server-wide `stats` snapshot frame and close.
    Stats,
    /// Stream `progress` frames for a run by id until it finishes, then
    /// close with its final control frame.
    Watch(String),
    /// Drain and exit.
    Shutdown,
}

/// Parses one request line. Errors are client-facing messages.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = parse(line).map_err(|e| format!("malformed request: {e}"))?;
    match v.str_field("type") {
        Some("shutdown") => Ok(Request::Shutdown),
        Some("run") => parse_run(&v).map(|r| Request::Run(Box::new(r))),
        Some("attach") => v
            .str_field("run_id")
            .map(|id| Request::Attach(id.to_string()))
            .ok_or("attach requests need a string `run_id` field".to_string()),
        Some("stats") => Ok(Request::Stats),
        Some("watch") => v
            .str_field("run_id")
            .map(|id| Request::Watch(id.to_string()))
            .ok_or("watch requests need a string `run_id` field".to_string()),
        Some(other) => Err(format!("unknown request type `{other}`")),
        None => Err("request has no string `type` field".to_string()),
    }
}

fn parse_run(v: &JsonValue) -> Result<RunRequest, String> {
    let circuit = match (v.str_field("circuit"), v.str_field("netlist")) {
        (Some(_), Some(_)) => {
            return Err("give either `circuit` or `netlist`, not both".to_string());
        }
        (Some(name), None) => CircuitRef::Named(name.to_string()),
        (None, Some(source)) => CircuitRef::Upload {
            name: v
                .str_field("name")
                .ok_or("netlist uploads need a `name` field")?
                .to_string(),
            source: source.to_string(),
        },
        (None, None) => return Err("run requests need `circuit` or `netlist`".to_string()),
    };
    let usize_field = |key: &str| -> Result<usize, String> {
        let raw = v
            .u64_field(key)
            .ok_or_else(|| format!("run requests need an unsigned integer `{key}` field"))?;
        usize::try_from(raw).map_err(|_| format!("`{key}` is out of range"))
    };
    let la = usize_field("la")?;
    let lb = usize_field("lb")?;
    let n = usize_field("n")?;
    let max_iterations = match v.get("max_iterations") {
        Some(x) => Some(
            x.as_u64()
                .and_then(|m| u32::try_from(m).ok())
                .ok_or("`max_iterations` must be an unsigned 32-bit integer")?,
        ),
        None => None,
    };
    Ok(RunRequest {
        circuit,
        la,
        lb,
        n,
        seed: v.u64_field("seed"),
        threads: usize::try_from(v.u64_field("threads").unwrap_or(1)).unwrap_or(1),
        max_iterations,
        resume: v.str_field("resume").map(PathBuf::from),
        deadline_ms: match v.get("deadline_ms") {
            Some(x) => Some(
                x.as_u64()
                    .ok_or("`deadline_ms` must be an unsigned integer")?,
            ),
            None => None,
        },
    })
}

/// The control-frame `type` values (everything else on a response stream
/// is a campaign record line).
pub const CONTROL_TYPES: &[&str] = &[
    "accepted",
    "rejected",
    "error",
    "draining",
    "done",
    "interrupted",
    "recovered",
    "stats",
    "progress",
];

/// True when a parsed response line is a control frame rather than a
/// campaign record.
pub fn is_control(v: &JsonValue) -> bool {
    v.str_field("type")
        .is_some_and(|t| CONTROL_TYPES.contains(&t))
}

/// The `accepted` frame: the request was admitted; record lines follow.
pub fn accepted_line(run_id: &str, path: &str) -> String {
    JsonObject::new()
        .str("type", "accepted")
        .str("run_id", run_id)
        .str("path", path)
        .render()
}

/// The `rejected` frame: well-formed request the server will not run.
pub fn rejected_line(reason: &str) -> String {
    JsonObject::new()
        .str("type", "rejected")
        .str("reason", reason)
        .render()
}

/// The `rejected` frame for load shedding: carries a deterministic
/// retry-after hint (milliseconds) derived from the request fingerprint,
/// so a fleet of identical clients retrying the same rejected request
/// spreads out instead of stampeding in lockstep.
pub fn rejected_retry_line(reason: &str, retry_after_ms: u64) -> String {
    JsonObject::new()
        .str("type", "rejected")
        .str("reason", reason)
        .num("retry_after_ms", retry_after_ms)
        .render()
}

/// The `recovered` frame: an `attach` is about to replay the campaign
/// file of a finished (possibly crash-recovered) run.
pub fn recovered_line(run_id: &str, path: &str, outcome: &str) -> String {
    JsonObject::new()
        .str("type", "recovered")
        .str("run_id", run_id)
        .str("path", path)
        .str("outcome", outcome)
        .render()
}

/// The `error` frame: the request line itself was unusable.
pub fn error_line(message: &str) -> String {
    JsonObject::new()
        .str("type", "error")
        .str("message", message)
        .render()
}

/// The `draining` frame: shutdown acknowledged.
pub fn draining_line() -> String {
    JsonObject::new().str("type", "draining").render()
}

/// The `done` frame closing a completed campaign stream.
pub fn done_line(
    run_id: &str,
    detected: usize,
    target_faults: usize,
    pairs: usize,
    complete: bool,
    iterations: u64,
) -> String {
    JsonObject::new()
        .str("type", "done")
        .str("run_id", run_id)
        .num("detected", detected as u64)
        .num("target_faults", target_faults as u64)
        .num("pairs", pairs as u64)
        .bool("complete", complete)
        .num("iterations", iterations)
        .render()
}

/// The `interrupted` frame: the campaign stopped at a trial boundary;
/// `reason` says why (`drain`, `disconnect`, `deadline`, `stall`). The
/// campaign file's last checkpoint makes it resumable either way.
pub fn interrupted_line(run_id: &str, reason: &str) -> String {
    JsonObject::new()
        .str("type", "interrupted")
        .str("run_id", run_id)
        .str("reason", reason)
        .render()
}

/// Top-level record fields that carry wall-clock observations; they are
/// metadata by the campaign-record contract, never part of the outcome.
const VOLATILE_FIELDS: &[&str] = &["wall_nanos", "ts0_wall_nanos"];

/// Renders a parsed [`JsonValue`] back to one line, preserving field
/// order and raw number tokens (lossless round-trip for records our own
/// writer produced).
pub fn render_value(v: &JsonValue) -> String {
    match v {
        JsonValue::Null => "null".to_string(),
        JsonValue::Bool(b) => b.to_string(),
        JsonValue::Number(raw) => raw.clone(),
        JsonValue::Str(s) => format!("\"{}\"", escape(s)),
        JsonValue::Array(items) => {
            let parts: Vec<String> = items.iter().map(render_value).collect();
            format!("[{}]", parts.join(","))
        }
        JsonValue::Object(fields) => {
            let parts: Vec<String> = fields
                .iter()
                .map(|(k, x)| format!("\"{}\":{}", escape(k), render_value(x)))
                .collect();
            format!("{{{}}}", parts.join(","))
        }
    }
}

/// Normalizes one campaign record line for byte comparison between a
/// served stream and a direct run's file:
///
/// - `workers` records are dropped entirely (`Ok(None)`) — per-worker
///   counters depend on scheduling and pool width;
/// - top-level wall-clock fields are removed;
/// - everything else re-renders byte-identically (field order and number
///   tokens are preserved by the parser).
pub fn normalize_line(line: &str) -> Result<Option<String>, String> {
    let v = parse(line)?;
    if v.str_field("type") == Some("workers") {
        return Ok(None);
    }
    let stripped = match &v {
        JsonValue::Object(fields) => JsonValue::Object(
            fields
                .iter()
                .filter(|(k, _)| !VOLATILE_FIELDS.contains(&k.as_str()))
                .cloned()
                .collect(),
        ),
        other => other.clone(),
    };
    Ok(Some(render_value(&stripped)))
}

/// Normalizes a *recovered* trajectory — stream lines or a campaign file
/// that went through any number of crash/resume/requeue cycles — down to
/// the exact normalized lines an uninterrupted direct run produces:
///
/// - control frames, `resume` seams, and operational `degrade` records
///   are dropped (a direct run has none);
/// - each remaining line is [`normalize_line`]d (volatile fields and
///   `workers` records go away);
/// - duplicates are dropped, keeping first occurrences in order — a
///   resumed attempt replays the rejected trials since the last
///   checkpoint, producing byte-identical lines *because* resume is
///   bit-exact (every normalized line of a direct run is unique, so
///   dedup can erase only replay);
/// - only the final `summary` survives, at the end — interim summaries
///   written at each interruption are superseded by it.
pub fn normalize_recovered<'a, I>(lines: I) -> Result<Vec<String>, String>
where
    I: IntoIterator<Item = &'a str>,
{
    let mut out: Vec<String> = Vec::new();
    let mut seen: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    let mut last_summary: Option<String> = None;
    for line in lines {
        if line.trim().is_empty() {
            continue;
        }
        let v = parse(line)?;
        if is_control(&v) || matches!(v.str_field("type"), Some("resume") | Some("degrade")) {
            continue;
        }
        let Some(normalized) = normalize_line(line)? else {
            continue;
        };
        if v.str_field("type") == Some("summary") {
            last_summary = Some(normalized);
            continue;
        }
        if seen.insert(normalized.clone()) {
            out.push(normalized);
        }
    }
    out.extend(last_summary);
    Ok(out)
}

/// FNV-1a over `bytes` — the deterministic seed for retry-after hints
/// and client backoff jitter (no wall clock anywhere in the schedule).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The deterministic retry-after hint (milliseconds) the server attaches
/// to load-shed rejections: 100–499ms, spread by the request fingerprint.
pub fn retry_after_hint(request_seed: u64) -> u64 {
    100 + request_seed % 400
}

/// Deterministic jittered exponential backoff for client retries:
/// attempt 0, 1, 2, … map to ~100ms, ~200ms, ~400ms, … capped at 5s,
/// plus a jitter in `[0, 100)`ms drawn from the seed and attempt only.
/// Same request + same attempt → same delay, different requests spread.
pub fn backoff_ms(seed: u64, attempt: u32) -> u64 {
    let base = 100u64 << attempt.min(6);
    let mut x = seed ^ (u64::from(attempt).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    // xorshift64* keeps the jitter well-mixed without any RNG dependency.
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    let jitter = x.wrapping_mul(0x2545_f491_4f6c_dd1d) % 100;
    base.min(5_000) + jitter
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_requests_parse_with_defaults_and_options() {
        let r = parse_request(r#"{"type":"run","circuit":"s27","la":4,"lb":8,"n":8}"#).unwrap();
        let Request::Run(req) = r else {
            panic!("not a run request");
        };
        assert_eq!(req.circuit, CircuitRef::Named("s27".to_string()));
        assert_eq!((req.la, req.lb, req.n), (4, 8, 8));
        assert_eq!(req.threads, 1);
        assert!(req.seed.is_none() && req.resume.is_none());

        // `lane_width` is a removed field: like any unknown field it is
        // ignored (the kernel has one width, so results cannot change).
        let r = parse_request(
            r#"{"type":"run","circuit":"s27","la":4,"lb":8,"n":8,"threads":3,"seed":7,"lane_width":"512","max_iterations":4,"resume":"/tmp/c.jsonl"}"#,
        )
        .unwrap();
        let Request::Run(req) = r else {
            panic!("not a run request");
        };
        assert_eq!(req.threads, 3);
        assert_eq!(req.seed, Some(7));
        assert_eq!(req.max_iterations, Some(4));
        assert_eq!(
            req.resume.as_deref(),
            Some(std::path::Path::new("/tmp/c.jsonl"))
        );
    }

    #[test]
    fn netlist_uploads_need_a_name_and_exclude_circuit() {
        let ok = parse_request(
            r#"{"type":"run","netlist":"INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n","name":"tiny","la":1,"lb":2,"n":1}"#,
        )
        .unwrap();
        let Request::Run(req) = ok else {
            panic!("not a run request");
        };
        assert_eq!(req.circuit.name(), "tiny");
        let e = parse_request(r#"{"type":"run","netlist":"x","la":1,"lb":2,"n":1}"#).unwrap_err();
        assert!(e.contains("`name`"), "{e}");
        let e = parse_request(
            r#"{"type":"run","circuit":"s27","netlist":"x","name":"t","la":1,"lb":2,"n":1}"#,
        )
        .unwrap_err();
        assert!(e.contains("not both"), "{e}");
    }

    #[test]
    fn malformed_requests_are_reported_not_panicked() {
        for bad in [
            "not json",
            "{}",
            r#"{"type":"frobnicate"}"#,
            r#"{"type":"run","circuit":"s27"}"#,
            r#"{"type":"run","la":4,"lb":8,"n":8}"#,
            r#"{"type":"run","circuit":"s27","la":4,"lb":8,"n":8,"max_iterations":"x"}"#,
        ] {
            assert!(parse_request(bad).is_err(), "{bad}");
        }
        assert_eq!(
            parse_request(r#"{"type":"shutdown"}"#).unwrap(),
            Request::Shutdown
        );
    }

    #[test]
    fn control_frames_are_distinguishable_from_records() {
        for line in [
            accepted_line("id", "/tmp/x.jsonl"),
            rejected_line("no"),
            rejected_retry_line("busy", 137),
            error_line("bad"),
            draining_line(),
            done_line("id", 32, 32, 3, true, 2),
            interrupted_line("id", "drain"),
            recovered_line("id", "/tmp/x.jsonl", "done"),
        ] {
            assert!(is_control(&parse(&line).unwrap()), "{line}");
        }
        let record = r#"{"type":"trial","i":1,"d1":2}"#;
        assert!(!is_control(&parse(record).unwrap()));
    }

    #[test]
    fn stats_and_watch_parse() {
        assert_eq!(
            parse_request(r#"{"type":"stats"}"#).unwrap(),
            Request::Stats
        );
        assert_eq!(
            parse_request(r#"{"type":"watch","run_id":"abc-r0"}"#).unwrap(),
            Request::Watch("abc-r0".to_string())
        );
        let e = parse_request(r#"{"type":"watch"}"#).unwrap_err();
        assert!(e.contains("run_id"), "{e}");
    }

    #[test]
    fn attach_and_deadline_parse() {
        assert_eq!(
            parse_request(r#"{"type":"attach","run_id":"abc-r0"}"#).unwrap(),
            Request::Attach("abc-r0".to_string())
        );
        assert!(parse_request(r#"{"type":"attach"}"#).is_err());
        let r = parse_request(
            r#"{"type":"run","circuit":"s27","la":4,"lb":8,"n":8,"deadline_ms":250}"#,
        )
        .unwrap();
        let Request::Run(req) = r else {
            panic!("not a run request")
        };
        assert_eq!(req.deadline_ms, Some(250));
        assert!(parse_request(
            r#"{"type":"run","circuit":"s27","la":4,"lb":8,"n":8,"deadline_ms":"soon"}"#
        )
        .is_err());
    }

    #[test]
    fn retry_hints_and_backoff_are_deterministic_and_bounded() {
        let seed = fnv1a(br#"{"type":"run","circuit":"s27"}"#);
        assert_eq!(fnv1a(br#"{"type":"run","circuit":"s27"}"#), seed);
        let hint = retry_after_hint(seed);
        assert!((100..500).contains(&hint));
        for attempt in 0..10 {
            let d = backoff_ms(seed, attempt);
            assert_eq!(d, backoff_ms(seed, attempt), "same inputs, same delay");
            assert!(d < 5_100, "capped: attempt {attempt} gave {d}");
        }
        assert!(
            backoff_ms(seed, 4) > backoff_ms(seed, 0),
            "grows with attempts"
        );
        assert_ne!(
            backoff_ms(seed, 1),
            backoff_ms(seed ^ 1, 1),
            "different requests spread"
        );
    }

    #[test]
    fn recovered_normalization_collapses_a_crash_resume_trajectory() {
        // A direct run's trajectory…
        let direct = [
            r#"{"type":"campaign","circuit":"s27","threads":2}"#,
            r#"{"type":"initial","ts0_tests":16,"ts0_detected":28,"ts0_wall_nanos":5}"#,
            r#"{"type":"checkpoint","iteration":0,"live":[3,5]}"#,
            r#"{"type":"trial","i":1,"d1":2,"kept":false,"wall_nanos":10}"#,
            r#"{"type":"trial","i":1,"d1":3,"kept":true,"wall_nanos":11}"#,
            r#"{"type":"checkpoint","iteration":1,"live":[5]}"#,
            r#"{"type":"workers","threads":2,"workers":[]}"#,
            r#"{"type":"summary","detected":31,"complete":true}"#,
        ];
        // …and the same campaign interrupted after the first checkpoint,
        // then resumed: seam, replayed rejected trial, interim summary.
        let recovered = [
            direct[0],
            direct[1],
            direct[2],
            r#"{"type":"trial","i":1,"d1":2,"kept":false,"wall_nanos":77}"#,
            r#"{"type":"workers","threads":2,"workers":[]}"#,
            r#"{"type":"summary","detected":28,"complete":false}"#,
            r#"{"type":"resume","from_iteration":0}"#,
            r#"{"type":"trial","i":1,"d1":2,"kept":false,"wall_nanos":99}"#,
            direct[4],
            direct[5],
            r#"{"type":"degrade","reason":"watchdog"}"#,
            direct[6],
            direct[7],
        ];
        let want = normalize_recovered(direct.iter().copied()).unwrap();
        let got = normalize_recovered(recovered.iter().copied()).unwrap();
        assert_eq!(got, want);
        assert_eq!(
            want.last().map(String::as_str),
            Some(r#"{"type":"summary","detected":31,"complete":true}"#)
        );
    }

    #[test]
    fn normalize_drops_workers_and_wall_clock_only() {
        assert_eq!(
            normalize_line(r#"{"type":"workers","threads":2,"workers":[]}"#).unwrap(),
            None
        );
        let n = normalize_line(
            r#"{"type":"trial","i":1,"d1":2,"tests":16,"newly_detected":3,"kept":true,"live_after":1,"wall_nanos":99}"#,
        )
        .unwrap()
        .unwrap();
        assert_eq!(
            n,
            r#"{"type":"trial","i":1,"d1":2,"tests":16,"newly_detected":3,"kept":true,"live_after":1}"#
        );
        let n = normalize_line(
            r#"{"type":"initial","ts0_tests":16,"ts0_detected":28,"ts0_wall_nanos":5}"#,
        )
        .unwrap()
        .unwrap();
        assert_eq!(n, r#"{"type":"initial","ts0_tests":16,"ts0_detected":28}"#);
        // Untouched lines round-trip byte-identically, nesting included.
        let line = r#"{"type":"checkpoint","live":[3,5,8],"pairs":[{"i":1,"d1":2}],"big":18446744073709551615,"f":0.25,"x":null}"#;
        assert_eq!(normalize_line(line).unwrap().unwrap(), line);
    }
}
