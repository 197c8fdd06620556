//! `rls-report` — compares two campaign or obs-metrics JSONL records.
//!
//! ```text
//! rls-report <baseline.jsonl> <candidate.jsonl>
//! rls-report --lanes <BENCH_fsim_lanes.json> [--gate]
//! rls-report --flamegraph <obs.jsonl> [--svg <out.svg>]
//! rls-report --trace <obs.jsonl|rec-dump.jsonl>
//! rls-report --gate <obs.jsonl> <BENCH_phase_profile.json>
//! rls-report --phase-profile <obs.jsonl> [circuit]
//! ```
//!
//! With two campaign records (written by the table binaries under
//! `RLS_CAMPAIGN_DIR`), prints a side-by-side table of the headline
//! metrics (fault coverage, accepted pairs, cycle and wall-clock cost,
//! worker counters) and the coverage curve divergence point.
//!
//! With two obs metrics streams (written by `RLS_OBS=1`, named
//! `obs-<run_id>.jsonl`), prints a per-phase wall-time breakdown — every
//! span name with its count and total duration, side by side — the share
//! of wall time covered by top-level spans, and the coverage-trajectory
//! divergence point from the `procedure2.coverage` gauges.
//!
//! With `--lanes` and one `fsim_lanes` record (written by
//! `bench_fsim_lanes`), prints each workload's (lane word × tile height)
//! `fsim.test_nanos` rows beside its fill-rule row. Adding `--gate`
//! checks the production fill rule against the record's own history:
//! every workload must hold a fill row, and that row must be within
//! 1.25× (a noise allowance) of the workload's fastest row.
//!
//! The profiling modes consume one obs metrics stream (see
//! `rls_bench::profile`): `--flamegraph` prints collapsed stacks
//! (`a;b;c <self-nanos>`, `flamegraph.pl`/speedscope-compatible) and
//! with `--svg` also writes a self-contained flamegraph SVG; `--trace`
//! prints Chrome trace-event JSON (also renders `rec_event` lines of a
//! flight-recorder crash dump); `--phase-profile` emits a committable
//! per-phase self-time profile; and `--gate` compares a run's phase
//! shares against the committed `BENCH_phase_profile.json` the same way
//! `--lanes` gates the production fill rule.
//!
//! Exit codes make every mode usable as a CI gate:
//!
//! * `0` — candidate coverage is at least the baseline's (or the fill
//!   rule holds up)
//! * `1` — coverage regression (fewer faults detected, or a complete
//!   campaign turned incomplete), a workload's fill row missing from its
//!   record or slower than 1.25× its fastest row, or a
//!   phase share outside its committed tolerance
//! * `2` — a file could not be read, is not a campaign/obs record, or the
//!   two files are of different kinds

use std::path::Path;
use std::process::ExitCode;

use rls_core::report::TextTable;
use rls_dispatch::CampaignLog;

/// Headline metrics extracted from one campaign record.
#[derive(Debug, Clone, PartialEq, Eq)]
struct CampaignStats {
    circuit: String,
    threads: u64,
    ts0_detected: u64,
    detected: u64,
    target_faults: u64,
    pairs: u64,
    total_cycles: u64,
    complete: bool,
    iterations: u64,
    wall_nanos: u64,
    trials: u64,
    kept: u64,
    respawns: u64,
    faults_dropped: u64,
    /// Cumulative detected count after each *kept* trial (the coverage
    /// curve of Procedure 2, excluding TS0).
    curve: Vec<u64>,
}

fn stats_from(log: &CampaignLog) -> Result<CampaignStats, String> {
    let header = log.header().ok_or("no `campaign` header record")?;
    let summary = log
        .summary()
        .ok_or("no `summary` record (campaign unfinished?)")?;
    let ts0_detected = log
        .of_type("initial")
        .last()
        .and_then(|r| r.u64_field("ts0_detected"))
        .unwrap_or(0);
    let mut trials = 0;
    let mut kept = 0;
    let mut curve = Vec::new();
    let mut cumulative = ts0_detected;
    for t in log.of_type("trial") {
        trials += 1;
        if t.bool_field("kept") == Some(true) {
            kept += 1;
            cumulative += t.u64_field("newly_detected").unwrap_or(0);
            curve.push(cumulative);
        }
    }
    let mut respawns = 0;
    let mut faults_dropped = 0;
    for w in log.of_type("workers") {
        if let Some(items) = w.get("workers").and_then(|v| v.as_array()) {
            for worker in items {
                respawns += worker.u64_field("respawns").unwrap_or(0);
                faults_dropped += worker.u64_field("faults_dropped").unwrap_or(0);
            }
        }
    }
    Ok(CampaignStats {
        circuit: header.str_field("circuit").unwrap_or("?").to_string(),
        threads: header.u64_field("threads").unwrap_or(1),
        ts0_detected,
        detected: summary.u64_field("detected").unwrap_or(0),
        target_faults: summary.u64_field("target_faults").unwrap_or(0),
        pairs: summary.u64_field("pairs").unwrap_or(0),
        total_cycles: summary.u64_field("total_cycles").unwrap_or(0),
        complete: summary.bool_field("complete").unwrap_or(false),
        iterations: summary.u64_field("iterations").unwrap_or(0),
        wall_nanos: summary.u64_field("wall_nanos").unwrap_or(0),
        trials,
        kept,
        respawns,
        faults_dropped,
        curve,
    })
}

/// Aggregated timings of one span name inside an obs metrics stream.
#[derive(Debug, Clone, PartialEq, Eq)]
struct PhaseStats {
    count: u64,
    nanos: u64,
}

/// Headline metrics extracted from one obs metrics stream.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ObsStats {
    run_id: String,
    wall_nanos: u64,
    /// Per-span-name aggregates, keyed by the registered span name.
    phases: std::collections::BTreeMap<String, PhaseStats>,
    /// Total duration of top-level spans (no parent) — the numerator of
    /// the "spans cover N% of the wall" figure.
    root_nanos: u64,
    /// `procedure2.coverage` gauge values in emission order (the coverage
    /// trajectory across trials).
    coverage: Vec<u64>,
}

fn obs_stats_from(log: &CampaignLog) -> Result<ObsStats, String> {
    let header = log.of_type("obs").next().ok_or("no `obs` header record")?;
    let mut phases: std::collections::BTreeMap<String, PhaseStats> =
        std::collections::BTreeMap::new();
    let mut root_nanos = 0;
    let mut span_end = 0u64;
    for s in log.of_type("span") {
        let name = s.str_field("name").unwrap_or("?").to_string();
        let nanos = s.u64_field("nanos").unwrap_or(0);
        let agg = phases
            .entry(name)
            .or_insert(PhaseStats { count: 0, nanos: 0 });
        agg.count += 1;
        agg.nanos += nanos;
        if s.u64_field("parent") == Some(0) {
            root_nanos += nanos;
        }
        span_end = span_end.max(s.u64_field("start_nanos").unwrap_or(0) + nanos);
    }
    // A killed run has no summary line; the last span end is the best
    // wall-clock estimate then.
    let wall_nanos = log
        .of_type("obs_summary")
        .last()
        .and_then(|r| r.u64_field("wall_nanos"))
        .unwrap_or(span_end);
    let coverage = log
        .of_type("metric")
        .filter(|m| m.str_field("name") == Some("procedure2.coverage"))
        .filter_map(|m| m.u64_field("value"))
        .collect();
    Ok(ObsStats {
        run_id: header.str_field("run_id").unwrap_or("?").to_string(),
        wall_nanos,
        phases,
        root_nanos,
        coverage,
    })
}

/// `true` when the candidate loses coverage relative to the baseline.
fn regressed(base: &CampaignStats, cand: &CampaignStats) -> bool {
    cand.detected < base.detected || (base.complete && !cand.complete)
}

/// First index where two coverage curves differ, if any.
fn curve_divergence(base: &[u64], cand: &[u64]) -> Option<usize> {
    let shared = base.len().min(cand.len());
    (0..shared)
        .find(|&i| base[i] != cand[i])
        .or((base.len() != cand.len()).then_some(shared))
}

fn millis(nanos: u64) -> String {
    format!("{:.1}ms", nanos as f64 / 1e6)
}

fn render(base: &CampaignStats, cand: &CampaignStats) -> String {
    let mut t = TextTable::new(vec!["metric", "baseline", "candidate"]);
    let mut row = |m: &str, a: String, b: String| t.row(vec![m.to_string(), a, b]);
    row("circuit", base.circuit.clone(), cand.circuit.clone());
    row(
        "threads",
        base.threads.to_string(),
        cand.threads.to_string(),
    );
    let cov = |s: &CampaignStats| format!("{}/{}", s.detected, s.target_faults);
    row("detected/target", cov(base), cov(cand));
    row(
        "ts0 detected",
        base.ts0_detected.to_string(),
        cand.ts0_detected.to_string(),
    );
    let comp = |s: &CampaignStats| if s.complete { "yes" } else { "NO" }.to_string();
    row("complete", comp(base), comp(cand));
    row("pairs kept", base.pairs.to_string(), cand.pairs.to_string());
    row("trials", base.trials.to_string(), cand.trials.to_string());
    row(
        "iterations",
        base.iterations.to_string(),
        cand.iterations.to_string(),
    );
    row(
        "total cycles",
        base.total_cycles.to_string(),
        cand.total_cycles.to_string(),
    );
    row(
        "wall time",
        millis(base.wall_nanos),
        millis(cand.wall_nanos),
    );
    row(
        "worker respawns",
        base.respawns.to_string(),
        cand.respawns.to_string(),
    );
    row(
        "faults dropped",
        base.faults_dropped.to_string(),
        cand.faults_dropped.to_string(),
    );
    let mut out = t.render();
    match curve_divergence(&base.curve, &cand.curve) {
        None => out.push_str("\ncoverage curves: identical\n"),
        Some(i) => out.push_str(&format!(
            "\ncoverage curves: diverge at kept trial {} (baseline {:?}, candidate {:?})\n",
            i + 1,
            base.curve.get(i),
            cand.curve.get(i),
        )),
    }
    out
}

/// Side-by-side per-phase wall-time breakdown of two obs metrics streams,
/// plus the coverage-trajectory divergence point.
fn render_obs(base: &ObsStats, cand: &ObsStats) -> String {
    let mut out = format!(
        "obs runs: baseline {} ({}), candidate {} ({})\n\n",
        base.run_id,
        millis(base.wall_nanos),
        cand.run_id,
        millis(cand.wall_nanos),
    );
    let mut t = TextTable::new(vec![
        "phase",
        "base n",
        "base time",
        "cand n",
        "cand time",
        "delta",
    ]);
    // Every phase either run saw, heaviest candidate phases first.
    let mut names: Vec<&String> = base.phases.keys().chain(cand.phases.keys()).collect();
    names.sort_by_key(|n| {
        std::cmp::Reverse(
            cand.phases
                .get(*n)
                .or_else(|| base.phases.get(*n))
                .map_or(0, |p| p.nanos),
        )
    });
    names.dedup();
    let zero = PhaseStats { count: 0, nanos: 0 };
    for name in names {
        let b = base.phases.get(name).unwrap_or(&zero);
        let c = cand.phases.get(name).unwrap_or(&zero);
        let delta = c.nanos as i64 - b.nanos as i64;
        t.row(vec![
            name.clone(),
            b.count.to_string(),
            millis(b.nanos),
            c.count.to_string(),
            millis(c.nanos),
            format!(
                "{}{}",
                if delta >= 0 { "+" } else { "-" },
                millis(delta.unsigned_abs())
            ),
        ]);
    }
    out.push_str(&t.render());
    let share = |s: &ObsStats| {
        if s.wall_nanos == 0 {
            0.0
        } else {
            100.0 * s.root_nanos.min(s.wall_nanos) as f64 / s.wall_nanos as f64
        }
    };
    out.push_str(&format!(
        "\nspan coverage of wall time: baseline {:.1}%, candidate {:.1}%\n",
        share(base),
        share(cand),
    ));
    match curve_divergence(&base.coverage, &cand.coverage) {
        None => out.push_str("coverage trajectories: identical\n"),
        Some(i) => out.push_str(&format!(
            "coverage trajectories: diverge at trial {} (baseline {:?}, candidate {:?})\n",
            i + 1,
            base.coverage.get(i),
            cand.coverage.get(i),
        )),
    }
    out
}

/// One measured (workload, width, tiling) configuration from a
/// `fsim_lanes` bench record.
#[derive(Debug, Clone, PartialEq, Eq)]
struct LaneRow {
    /// Which test set against which live list (`ts0`, `campaign`).
    workload: String,
    /// Whether the row runs the production fill rule (heights from the
    /// live count) rather than one fixed height.
    fill: bool,
    lanes: u64,
    pattern_lanes: u64,
    test_nanos: u64,
    batches: u64,
}

/// The `bench_fsim_lanes` record: per-configuration kernel timings.
#[derive(Debug, Clone, PartialEq, Eq)]
struct LaneStats {
    circuit: String,
    tests: u64,
    detected: u64,
    rows: Vec<LaneRow>,
}

fn lane_stats_from(log: &CampaignLog) -> Result<LaneStats, String> {
    let header = log
        .of_type("fsim_lanes")
        .next()
        .ok_or("no `fsim_lanes` header record (not a bench_fsim_lanes file?)")?;
    let rows: Vec<LaneRow> = log
        .of_type("lane_width")
        .map(|r| LaneRow {
            workload: r.str_field("workload").unwrap_or("ts0").to_string(),
            fill: r.str_field("tiling") == Some("fill"),
            lanes: r.u64_field("lanes").unwrap_or(0),
            pattern_lanes: r.u64_field("pattern_lanes").unwrap_or(1),
            test_nanos: r.u64_field("test_nanos").unwrap_or(0),
            batches: r.u64_field("batches").unwrap_or(0),
        })
        .collect();
    if rows.is_empty() {
        return Err("no `lane_width` records".into());
    }
    Ok(LaneStats {
        circuit: header.str_field("circuit").unwrap_or("?").to_string(),
        tests: header.u64_field("tests").unwrap_or(0),
        detected: header.u64_field("detected").unwrap_or(0),
        rows,
    })
}

/// The record's workloads, in first-appearance order.
fn lane_workloads(stats: &LaneStats) -> Vec<&str> {
    let mut out: Vec<&str> = Vec::new();
    for r in &stats.rows {
        if !out.contains(&r.workload.as_str()) {
            out.push(&r.workload);
        }
    }
    out
}

/// The fill-rule row of `workload`, if measured.
fn fill_row<'a>(stats: &'a LaneStats, workload: &str) -> Option<&'a LaneRow> {
    stats.rows.iter().find(|r| r.workload == workload && r.fill)
}

/// The fastest measured row of `workload`.
fn fastest_row<'a>(stats: &'a LaneStats, workload: &str) -> Option<&'a LaneRow> {
    stats
        .rows
        .iter()
        .filter(|r| r.workload == workload)
        .min_by_key(|r| r.test_nanos)
}

fn render_lanes(stats: &LaneStats) -> String {
    let mut out = format!(
        "fault-simulation kernel on {} ({} TS0 tests, {} faults detected by every \
         ts0 configuration; production: {} lanes, tile heights by the fill rule)\n\n",
        stats.circuit,
        stats.tests,
        stats.detected,
        <rls_fsim::KernelWord as rls_fsim::LaneWord>::LANES,
    );
    let mut t = TextTable::new(vec![
        "workload",
        "lanes",
        "patterns",
        "test time",
        "batches",
        "vs fastest",
    ]);
    for workload in lane_workloads(stats) {
        let fastest = fastest_row(stats, workload).map(|r| r.test_nanos);
        for r in stats.rows.iter().filter(|r| r.workload == workload) {
            let vs = match fastest {
                Some(f) if f > 0 => format!("{:.2}x", r.test_nanos as f64 / f as f64),
                _ => "?".into(),
            };
            let patterns = if r.fill {
                "fill *".to_string()
            } else {
                r.pattern_lanes.to_string()
            };
            t.row(vec![
                workload.to_string(),
                r.lanes.to_string(),
                patterns,
                millis(r.test_nanos),
                r.batches.to_string(),
                vs,
            ]);
        }
    }
    out.push_str(&t.render());
    out.push_str("(* = the production fill rule)\n");
    out
}

/// Gate allowance: the fill row may be at most this many times its
/// workload's fastest row's time (measurement noise between neighbouring
/// configurations).
const DEFAULT_SLOWDOWN_LIMIT: f64 = 1.25;

/// Per workload, the fill row's time over the workload's fastest row's,
/// or `None` when the workload lacks a fill row.
fn fill_vs_fastest(stats: &LaneStats) -> Vec<(&str, Option<f64>)> {
    lane_workloads(stats)
        .into_iter()
        .map(|workload| {
            let ratio = fill_row(stats, workload).and_then(|fill| {
                let fastest = fastest_row(stats, workload)?;
                Some(fill.test_nanos as f64 / fastest.test_nanos.max(1) as f64)
            });
            (workload, ratio)
        })
        .collect()
}

/// One parsed input file: a campaign record or an obs metrics stream.
#[derive(Debug)]
enum Loaded {
    Campaign(CampaignStats),
    Obs(ObsStats),
}

fn load(path: &Path) -> Result<Loaded, String> {
    let log = CampaignLog::read(path).map_err(|e| e.to_string())?;
    let stats = if log.of_type("obs").next().is_some() {
        Loaded::Obs(obs_stats_from(&log).map_err(|e| format!("{}: {e}", path.display()))?)
    } else {
        Loaded::Campaign(stats_from(&log).map_err(|e| format!("{}: {e}", path.display()))?)
    };
    Ok(stats)
}

/// Reads an obs metrics stream and collapses its span tree, exiting
/// with code 2 on any failure.
fn frames_or_exit(path: &str) -> Result<Vec<rls_bench::profile::Frame>, ExitCode> {
    CampaignLog::read(Path::new(path))
        .map_err(|e| e.to_string())
        .and_then(|log| rls_bench::profile::spans_from(&log))
        .map(|spans| rls_bench::profile::collapse(&spans))
        .map_err(|e| {
            eprintln!("rls-report: {path}: {e}");
            ExitCode::from(2)
        })
}

/// `--flamegraph`: collapsed stacks to stdout, optional SVG to a file.
fn run_flamegraph(obs_path: &str, svg_path: Option<&str>) -> ExitCode {
    use rls_bench::profile;
    let frames = match frames_or_exit(obs_path) {
        Ok(f) => f,
        Err(code) => return code,
    };
    print!("{}", profile::collapsed_text(&frames));
    if let Some(out) = svg_path {
        let title = Path::new(obs_path).file_stem().map_or_else(
            || obs_path.to_string(),
            |s| s.to_string_lossy().into_owned(),
        );
        let svg = profile::render_svg(&frames, &title);
        if let Err(e) = std::fs::write(out, svg) {
            eprintln!("rls-report: cannot write {out}: {e}");
            return ExitCode::from(2);
        }
        let (selfs, roots) = (profile::self_total(&frames), profile::root_total(&frames));
        eprintln!(
            "rls-report: {out}: {} frames, self-time sum {:.3}ms vs root total {:.3}ms",
            frames.len(),
            selfs as f64 / 1e6,
            roots as f64 / 1e6,
        );
    }
    ExitCode::SUCCESS
}

/// `--trace`: Chrome trace-event JSON to stdout.
fn run_trace(path: &str) -> ExitCode {
    let trace = match CampaignLog::read(Path::new(path))
        .map_err(|e| e.to_string())
        .and_then(|log| rls_bench::profile::chrome_trace(&log))
    {
        Ok(t) => t,
        Err(e) => {
            eprintln!("rls-report: {path}: {e}");
            return ExitCode::from(2);
        }
    };
    print!("{trace}");
    ExitCode::SUCCESS
}

/// `--phase-profile`: committable per-phase self-time profile to stdout.
fn run_phase_profile(obs_path: &str, circuit: &str) -> ExitCode {
    use rls_bench::profile;
    let frames = match frames_or_exit(obs_path) {
        Ok(f) => f,
        Err(code) => return code,
    };
    let shares = profile::self_shares(&frames);
    print!(
        "{}",
        profile::render_phase_profile(circuit, profile::DEFAULT_TOLERANCE, &shares)
    );
    ExitCode::SUCCESS
}

/// `--gate`: compare a run's phase shares against the committed profile.
fn run_gate(obs_path: &str, profile_path: &str) -> ExitCode {
    use rls_bench::profile;
    let frames = match frames_or_exit(obs_path) {
        Ok(f) => f,
        Err(code) => return code,
    };
    let committed = match CampaignLog::read(Path::new(profile_path))
        .map_err(|e| e.to_string())
        .and_then(|log| profile::phase_profile_from(&log))
    {
        Ok(p) => p,
        Err(e) => {
            eprintln!("rls-report: {profile_path}: {e}");
            return ExitCode::from(2);
        }
    };
    let shares = profile::self_shares(&frames);
    print!("{}", profile::render_gate(&shares, &committed));
    let breaches = profile::gate_breaches(&shares, &committed);
    if breaches.is_empty() {
        println!("\nphase profile holds");
        return ExitCode::SUCCESS;
    }
    for b in &breaches {
        eprintln!("rls-report: PHASE PROFILE BREACH: {b}");
    }
    ExitCode::from(1)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--flamegraph") => {
            return match args.get(1..) {
                Some([obs]) => run_flamegraph(obs, None),
                Some([obs, flag, svg]) if flag == "--svg" => run_flamegraph(obs, Some(svg)),
                _ => {
                    eprintln!("usage: rls-report --flamegraph <obs.jsonl> [--svg <out.svg>]");
                    ExitCode::from(2)
                }
            };
        }
        Some("--trace") => {
            return match args.get(1..) {
                Some([path]) => run_trace(path),
                _ => {
                    eprintln!("usage: rls-report --trace <obs.jsonl|rec-dump.jsonl>");
                    ExitCode::from(2)
                }
            };
        }
        Some("--phase-profile") => {
            return match args.get(1..) {
                Some([obs]) => run_phase_profile(obs, "?"),
                Some([obs, circuit]) => run_phase_profile(obs, circuit),
                _ => {
                    eprintln!("usage: rls-report --phase-profile <obs.jsonl> [circuit]");
                    ExitCode::from(2)
                }
            };
        }
        Some("--gate") => {
            return match args.get(1..) {
                Some([obs, profile]) => run_gate(obs, profile),
                _ => {
                    eprintln!("usage: rls-report --gate <obs.jsonl> <BENCH_phase_profile.json>");
                    ExitCode::from(2)
                }
            };
        }
        _ => {}
    }
    if args.first().map(String::as_str) == Some("--lanes") {
        let rest = &args[1..];
        let gate = rest.iter().any(|a| a == "--gate");
        let paths: Vec<&String> = rest.iter().filter(|a| *a != "--gate").collect();
        let [lanes_path] = paths.as_slice() else {
            eprintln!("usage: rls-report --lanes <BENCH_fsim_lanes.json> [--gate]");
            return ExitCode::from(2);
        };
        let stats = match CampaignLog::read(Path::new(lanes_path))
            .map_err(|e| e.to_string())
            .and_then(|log| lane_stats_from(&log))
        {
            Ok(s) => s,
            Err(e) => {
                eprintln!("rls-report: {lanes_path}: {e}");
                return ExitCode::from(2);
            }
        };
        print!("{}", render_lanes(&stats));
        if gate {
            let mut failed = false;
            for (workload, ratio) in fill_vs_fastest(&stats) {
                match ratio {
                    Some(r) if r <= DEFAULT_SLOWDOWN_LIMIT => {
                        println!(
                            "lane gate: the {workload} fill row is {r:.2}x the fastest row \
                             (limit {DEFAULT_SLOWDOWN_LIMIT:.2}x) — ok"
                        );
                    }
                    Some(r) => {
                        eprintln!(
                            "rls-report: LANE FILL REGRESSION: the {workload} fill row is \
                             {r:.2}x the fastest row, above the {DEFAULT_SLOWDOWN_LIMIT:.2}x limit"
                        );
                        failed = true;
                    }
                    None => {
                        eprintln!(
                            "rls-report: LANE GATE: the record has no {workload} fill row; \
                             regenerate BENCH_fsim_lanes.json"
                        );
                        failed = true;
                    }
                }
            }
            if failed {
                return ExitCode::from(1);
            }
        }
        return ExitCode::SUCCESS;
    }
    let [base_path, cand_path] = args.as_slice() else {
        eprintln!(
            "usage: rls-report <baseline.jsonl> <candidate.jsonl>\n       \
             rls-report --lanes <BENCH_fsim_lanes.json> [--gate]\n       \
             rls-report --flamegraph <obs.jsonl> [--svg <out.svg>]\n       \
             rls-report --trace <obs.jsonl|rec-dump.jsonl>\n       \
             rls-report --gate <obs.jsonl> <BENCH_phase_profile.json>\n       \
             rls-report --phase-profile <obs.jsonl> [circuit]"
        );
        return ExitCode::from(2);
    };
    let (base, cand) = match (load(Path::new(base_path)), load(Path::new(cand_path))) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("rls-report: {e}");
            return ExitCode::from(2);
        }
    };
    match (base, cand) {
        (Loaded::Campaign(base), Loaded::Campaign(cand)) => {
            print!("{}", render(&base, &cand));
            if regressed(&base, &cand) {
                eprintln!(
                    "rls-report: COVERAGE REGRESSION: {} -> {} detected (complete: {} -> {})",
                    base.detected, cand.detected, base.complete, cand.complete
                );
                return ExitCode::from(1);
            }
        }
        (Loaded::Obs(base), Loaded::Obs(cand)) => {
            print!("{}", render_obs(&base, &cand));
            let (b, c) = (base.coverage.last(), cand.coverage.last());
            if c < b {
                eprintln!("rls-report: COVERAGE REGRESSION: {b:?} -> {c:?} detected");
                return ExitCode::from(1);
            }
        }
        _ => {
            eprintln!(
                "rls-report: cannot compare a campaign record with an obs metrics \
                 stream; pass two files of the same kind"
            );
            return ExitCode::from(2);
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn write_log(tag: &str, lines: &[&str]) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rls-report-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{tag}.jsonl"));
        std::fs::write(&path, lines.join("\n")).unwrap();
        path
    }

    fn sample(detected: u64, complete: bool, kept_newly: &[u64]) -> Vec<String> {
        let mut lines = vec![
            r#"{"type":"campaign","circuit":"s27","threads":4}"#.to_string(),
            r#"{"type":"initial","ts0_tests":16,"ts0_detected":28,"ts0_wall_nanos":10}"#.into(),
        ];
        for (i, n) in kept_newly.iter().enumerate() {
            lines.push(format!(
                r#"{{"type":"trial","i":{i},"d1":4,"tests":32,"newly_detected":{n},"kept":true,"live_after":0,"wall_nanos":5}}"#
            ));
        }
        lines.push(format!(
            r#"{{"type":"summary","detected":{detected},"target_faults":32,"pairs":{},"total_cycles":900,"complete":{complete},"iterations":3,"wall_nanos":123456789}}"#,
            kept_newly.len(),
        ));
        lines
    }

    fn load_campaign(path: &Path) -> CampaignStats {
        match load(path).unwrap() {
            Loaded::Campaign(s) => s,
            Loaded::Obs(_) => panic!("expected a campaign record"),
        }
    }

    #[test]
    fn stats_extract_curve_and_totals() {
        let lines = sample(32, true, &[3, 1]);
        let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
        let path = write_log("extract", &refs);
        let stats = load_campaign(&path);
        assert_eq!(stats.circuit, "s27");
        assert_eq!(stats.detected, 32);
        assert_eq!(stats.curve, vec![31, 32]);
        assert_eq!(stats.kept, 2);
        assert!(stats.complete);
    }

    #[test]
    fn regression_is_fewer_detected_or_lost_completeness() {
        let mk = |detected, complete| {
            let lines = sample(detected, complete, &[2]);
            let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
            load_campaign(&write_log(&format!("reg-{detected}-{complete}"), &refs))
        };
        let base = mk(32, true);
        assert!(!regressed(&base, &mk(32, true)));
        assert!(regressed(&base, &mk(31, true)));
        assert!(regressed(&base, &mk(32, false)));
        // An incomplete baseline does not gate completeness.
        assert!(!regressed(&mk(30, false), &mk(30, false)));
    }

    #[test]
    fn divergence_points_at_first_difference() {
        let a = [10u64, 20, 30];
        assert_eq!(curve_divergence(&a, &[10, 20, 30]), None);
        assert_eq!(curve_divergence(&a, &[10, 21, 30]), Some(1));
        assert_eq!(curve_divergence(&a, &[10, 20]), Some(2));
    }

    #[test]
    fn unreadable_and_summaryless_files_are_errors() {
        assert!(load(Path::new("/nonexistent/x.jsonl")).is_err());
        let path = write_log(
            "nosummary",
            &[r#"{"type":"campaign","circuit":"s27","threads":1}"#],
        );
        let err = load(&path).unwrap_err();
        assert!(err.contains("summary"), "{err}");
    }

    /// A `fsim_lanes` record with one row per `(workload, tiling, nanos)`.
    fn lane_record(tag: &str, rows: &[(&str, &str, u64)]) -> LaneStats {
        let mut lines = vec![r#"{"type":"fsim_lanes","circuit":"s953","tests":1}"#.to_string()];
        for &(workload, tiling, nanos) in rows {
            lines.push(format!(
                r#"{{"type":"lane_width","workload":"{workload}","tiling":"{tiling}","lanes":512,"pattern_lanes":4,"test_nanos":{nanos}}}"#
            ));
        }
        let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
        let log = CampaignLog::read(&write_log(tag, &refs)).unwrap();
        lane_stats_from(&log).unwrap()
    }

    #[test]
    fn lane_gate_holds_each_fill_row_within_its_workloads_fastest_row() {
        let fastest = lane_record("lanes-ok", &[("ts0", "fixed", 900), ("ts0", "fill", 100)]);
        assert_eq!(fill_vs_fastest(&fastest), vec![("ts0", Some(1.0))]);
        let near = lane_record("lanes-near", &[("ts0", "fixed", 100), ("ts0", "fill", 120)]);
        assert!(fill_vs_fastest(&near)[0].1.unwrap() <= DEFAULT_SLOWDOWN_LIMIT);
        let slow = lane_record("lanes-slow", &[("ts0", "fixed", 100), ("ts0", "fill", 130)]);
        assert!(fill_vs_fastest(&slow)[0].1.unwrap() > DEFAULT_SLOWDOWN_LIMIT);
        let missing = lane_record("lanes-missing", &[("ts0", "fixed", 100)]);
        assert_eq!(fill_vs_fastest(&missing), vec![("ts0", None)]);
        // Each workload is gated against its own rows only: a slow
        // campaign row does not excuse a slow ts0 fill row, nor the other
        // way round.
        let two = lane_record(
            "lanes-two",
            &[
                ("ts0", "fixed", 100),
                ("ts0", "fill", 110),
                ("campaign", "fixed", 50),
                ("campaign", "fill", 40),
            ],
        );
        let ratios = fill_vs_fastest(&two);
        assert_eq!(ratios.len(), 2);
        assert_eq!(ratios[0].0, "ts0");
        assert!((ratios[0].1.unwrap() - 1.1).abs() < 1e-9);
        assert_eq!(ratios[1], ("campaign", Some(1.0)));
    }

    fn obs_sample(tag: &str, trial_nanos: u64, coverage: &[u64]) -> PathBuf {
        let mut lines = vec![
            format!(r#"{{"type":"obs","version":1,"run_id":"{tag}"}}"#),
            format!(
                r#"{{"type":"span","name":"procedure2.trial","path":"procedure2.run/procedure2.trial","id":2,"parent":1,"start_nanos":100,"nanos":{trial_nanos},"fields":{{"i":1,"d1":4}}}}"#
            ),
            r#"{"type":"span","name":"procedure2.run","path":"procedure2.run","id":1,"parent":0,"start_nanos":0,"nanos":9500,"fields":{}}"#.to_string(),
        ];
        for (i, c) in coverage.iter().enumerate() {
            lines.push(format!(
                r#"{{"type":"metric","kind":"gauge","name":"procedure2.coverage","value":{c},"fields":{{"i":1,"d1":{i}}}}}"#
            ));
        }
        lines.push(r#"{"type":"obs_summary","wall_nanos":10000}"#.to_string());
        let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
        write_log(tag, &refs)
    }

    #[test]
    fn obs_stats_extract_phases_wall_and_trajectory() {
        let path = obs_sample("obs-a", 4000, &[28, 30, 32]);
        let stats = match load(&path).unwrap() {
            Loaded::Obs(s) => s,
            Loaded::Campaign(_) => panic!("expected an obs stream"),
        };
        assert_eq!(stats.run_id, "obs-a");
        assert_eq!(stats.wall_nanos, 10_000);
        assert_eq!(stats.root_nanos, 9_500);
        assert_eq!(stats.coverage, vec![28, 30, 32]);
        let trial = &stats.phases["procedure2.trial"];
        assert_eq!((trial.count, trial.nanos), (1, 4_000));
    }

    #[test]
    fn obs_report_diffs_phases_and_trajectories() {
        let a = match load(&obs_sample("obs-base", 4000, &[28, 32])).unwrap() {
            Loaded::Obs(s) => s,
            Loaded::Campaign(_) => unreachable!(),
        };
        let b = match load(&obs_sample("obs-cand", 6000, &[28, 30, 32])).unwrap() {
            Loaded::Obs(s) => s,
            Loaded::Campaign(_) => unreachable!(),
        };
        let out = render_obs(&a, &b);
        assert!(out.contains("procedure2.trial"), "{out}");
        assert!(out.contains("+0.0ms"), "{out}"); // 2000ns delta renders as ms
        assert!(
            out.contains("span coverage of wall time: baseline 95.0%"),
            "{out}"
        );
        assert!(out.contains("diverge at trial 2"), "{out}");
    }
}
