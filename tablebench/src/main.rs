//! Table-run benchmark.
//!
//! Runs one workload of the paper's table path from outside the program,
//! calling its public functions and timing each call, checks every output,
//! and prints one JSON object as the last line of standard output:
//!
//! ```text
//! tablebench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! `--trace 0` (the default) reports the end-to-end metrics: the workload's
//! timed phase is repeated until `--seconds` have passed and `wall_s` is
//! the median pass. `--trace 1` runs one untraced and one traced pass and
//! reports the per-layer metrics, from the benchmark's own spans, the
//! program's `rls-obs` events and a per-fault PODEM probe. See README.md
//! for the workloads and the layer map.
//!
//! Exit codes: 0 when every output check passed, 1 when one failed (the
//! JSON line is still printed), 2 on a usage error.

mod check;
mod trace;
mod workload;

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rls_atpg::{Podem, PodemOutcome};
use rls_core::CoverageTarget;
use rls_fsim::{CollapsedFaults, FaultUniverse};
use rls_netlist::Circuit;

use check::{Checks, ABORTED, DETECTABLE, REDUNDANT};
use trace::{Facts, Metric, ProbeTimes, Tracer};
use workload::{Inputs, Row, RowKind, Workload, DEFAULT_SEED};

/// Set-up builds the circuits repeatedly, at least this many times and for
/// at least [`SETUP_SECONDS`]; `setup_s` is the median build. One build
/// takes well under a millisecond, so a short window would sample only
/// one moment of a noisy machine.
const SETUP_REPEATS: usize = 21;
/// See [`SETUP_REPEATS`].
const SETUP_SECONDS: f64 = 0.5;

/// Every how many Procedure 2 rows of a grid pass one is re-run with the
/// other thread count (the Table 6 ladder re-runs all of its rows).
const CROSS_CHECK_STRIDE: usize = 9;

const USAGE: &str =
    "usage: tablebench --workload <table6-s953|grid-t2|grid-t1|scan-variants> [--seed <n>] [--seconds <s>] [--trace <0|1>]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (DEFAULT_SEED, 10, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("tablebench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let (correct, attempted, failed, metrics) = run(&args);
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

fn run(args: &Args) -> (bool, usize, usize, Vec<Metric>) {
    let w = args.workload;
    let mut tracer = Tracer::new(args.trace);

    // Set-up: build the workload's circuits several times; report the median.
    let mut builds = Vec::new();
    let mut circuits = Vec::new();
    let setup_start = Instant::now();
    while builds.len() < SETUP_REPEATS || setup_start.elapsed().as_secs_f64() < SETUP_SECONDS {
        tracer.open("benchmarks.build", None);
        let t = Instant::now();
        let built = std::hint::black_box(workload::build_circuits(w));
        builds.push(t.elapsed().as_secs_f64());
        tracer.close();
        circuits = built;
    }
    let setup_s = median(&builds);
    let inputs = Inputs {
        seed: args.seed,
        circuits,
    };

    let mut checks = Checks::default();
    let mut walls = Vec::new();
    let rows;
    let mut probe = ProbeTimes::default();
    let mut verdicts: Vec<(&'static str, String)> = Vec::new();
    let peak_rss_mb;
    if args.trace {
        let untraced = timed_pass(w, &inputs, &mut Tracer::new(false));
        walls.push(untraced.1);
        let sink = Arc::new(rls_obs::MemorySink::new());
        if !rls_obs::install(sink.clone()) {
            eprintln!("tablebench: an obs collector is already installed");
            std::process::exit(2);
        }
        tracer.attach(sink);
        tracer.open("bench.pass", None);
        let traced = timed_pass(w, &inputs, &mut tracer);
        tracer.close();
        let _ = rls_obs::finish();
        tracer.detach();
        walls.push(traced.1);
        agree(&mut checks, &untraced.0, &traced.0);
        rows = traced.0;
        if w.has_atpg() {
            for (name, c) in &inputs.circuits {
                tracer.open("atpg.probe", None);
                verdicts.push((name, podem_probe(c, &mut probe)));
                tracer.close();
            }
        }
        peak_rss_mb = 0.0;
    } else {
        let budget = Duration::from_secs(args.seconds);
        let start = Instant::now();
        let (first, wall) = timed_pass(w, &inputs, &mut tracer);
        walls.push(wall);
        // One pass's high-water mark: later passes only add chances for
        // allocator fragmentation to raise it, and their number varies.
        peak_rss_mb = vm_hwm_mb();
        while start.elapsed() < budget {
            let (again, wall) = timed_pass(w, &inputs, &mut tracer);
            walls.push(wall);
            agree(&mut checks, &first, &again);
        }
        rows = first;
    }

    tracer.open("bench.verify", None);
    let verify_start = Instant::now();
    verify(w, &inputs, &rows, &verdicts, &mut checks);
    let verify_s = verify_start.elapsed().as_secs_f64();
    tracer.close();

    for failure in checks.report() {
        eprintln!("tablebench: check failed: {failure}");
    }
    let failed = checks.failed_rows();
    write_outputs(args, &rows, &verdicts, &tracer);

    let metrics = if args.trace {
        let mut facts = Facts {
            target_delta: checks.target_delta,
            rows: rows.len() as u64,
            rows_failed: failed as u64,
            verify_s,
            untraced_wall_s: walls[0],
            traced_wall_s: walls[1],
            ..Facts::default()
        };
        for row in &rows {
            match &row.kind {
                RowKind::Target(info) => {
                    facts.detectable += info.detectable as u64;
                    facts.redundant += info.redundant as u64;
                    facts.aborted += info.aborted as u64;
                }
                RowKind::P2 { out, .. } => {
                    facts.p2_rows += 1;
                    facts.pairs += out.pairs.len() as u64;
                    facts.iterations += out.iterations;
                }
                RowKind::Partial { .. } | RowKind::Multi { .. } => {}
            }
        }
        trace::per_layer(tracer.spans(), tracer.obs(), &probe, &facts)
    } else {
        vec![
            Metric {
                name: "wall_s",
                unit: "s",
                value: median(&walls),
            },
            Metric {
                name: "setup_s",
                unit: "s",
                value: setup_s,
            },
            Metric {
                name: "peak_rss_mb",
                unit: "MB",
                value: peak_rss_mb,
            },
        ]
    };
    (failed == 0, rows.len(), failed, metrics)
}

fn timed_pass(w: Workload, inputs: &Inputs, tracer: &mut Tracer) -> (Vec<Row>, f64) {
    let t = Instant::now();
    let rows = workload::run_pass(w, inputs, tracer);
    (rows, t.elapsed().as_secs_f64())
}

/// Every pass must repeat the first pass's rows exactly.
fn agree(checks: &mut Checks, first: &[Row], again: &[Row]) {
    if first.len() != again.len() {
        let key = first.first().map_or("pass", |r| r.key.as_str());
        checks.fail(
            key,
            format!(
                "a pass produced {} rows, the first {}",
                again.len(),
                first.len()
            ),
        );
    }
    for (a, b) in first.iter().zip(again) {
        checks.note(&a.key, check::check_same("passes", a, b));
    }
}

fn verify(
    w: Workload,
    inputs: &Inputs,
    rows: &[Row],
    verdicts: &[(&'static str, String)],
    checks: &mut Checks,
) {
    let expected = check::recorded();
    let circuit = |name: &str| -> &Circuit {
        &inputs
            .circuits
            .iter()
            .find(|(n, _)| *n == name)
            .expect("every row runs on a workload circuit")
            .1
    };

    // ATPG verdicts against the recorded classification (the circuits are
    // the registry circuits on every seed).
    for row in rows {
        let RowKind::Target(info) = &row.kind else {
            continue;
        };
        let Some(recorded) = expected.classes.get(row.circuit) else {
            checks.fail(&row.key, "no recorded classification".into());
            continue;
        };
        let c = circuit(row.circuit);
        let universe = FaultUniverse::enumerate(c);
        let reps = CollapsedFaults::build(c, &universe)
            .representatives()
            .to_vec();
        let CoverageTarget::Faults(detectable) = &info.target else {
            checks.fail(&row.key, "target_for returned no fault list".into());
            continue;
        };
        match check::check_target(&reps, recorded, detectable, info.redundant, info.aborted) {
            Ok(delta) => {
                checks.target_delta += delta;
                if delta > 0 {
                    checks.moved_targets.insert(row.circuit.to_string());
                }
            }
            Err(why) => checks.fail(&row.key, why),
        }
        if let Some((_, now)) = verdicts.iter().find(|(n, _)| *n == row.circuit) {
            checks.note(&row.key, check::check_verdicts(recorded, now).map(|_| ()));
        }
    }

    // Recorded rows, whenever the rows ran on the committed inputs.
    if inputs.seed == DEFAULT_SEED || !w.seeded() {
        for row in rows {
            if checks.moved_targets.contains(row.circuit) {
                continue;
            }
            checks.note(
                &row.key,
                check::check_recorded(&row.line(), expected.rows.get(&row.key)),
            );
        }
    }

    // Re-simulation, on every seed.
    let all: Vec<&Row> = rows.iter().collect();
    for (row, result) in all.iter().zip(on_two_threads(&all, |row| {
        check::resimulate(circuit(row.circuit), row)
    })) {
        checks.note(&row.key, result);
    }

    // t1 ≡ t2: re-run Procedure 2 rows with the other thread count.
    if let Some(threads) = w.cross_threads() {
        let stride = if w == Workload::Table6S953 {
            1
        } else {
            CROSS_CHECK_STRIDE
        };
        let sample: Vec<&Row> = rows
            .iter()
            .filter(|r| matches!(r.kind, RowKind::P2 { .. }))
            .step_by(stride)
            .collect();
        let rerun = |row: &&Row| workload::rerun_with_threads(row, circuit(row.circuit), threads);
        for (row, other) in sample.iter().zip(on_two_threads(&sample, rerun)) {
            if let Some(other) = other {
                checks.note(&row.key, check::check_same("thread counts", row, &other));
            }
        }
    }
}

/// Maps `f` over `items` on two threads, keeping item order. Checks run
/// after the timed phase, so they may use both cores.
fn on_two_threads<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let f = &f;
    let (even, odd) = std::thread::scope(|s| {
        let odd = s.spawn(move || items.iter().skip(1).step_by(2).map(f).collect::<Vec<R>>());
        let even: Vec<R> = items.iter().step_by(2).map(f).collect();
        (even, odd.join().expect("a verification thread panicked"))
    });
    let mut out = Vec::with_capacity(items.len());
    let mut odd = odd.into_iter();
    for e in even {
        out.push(e);
        out.extend(odd.next());
    }
    out
}

/// Calls `Podem::generate` once per collapsed fault, timing each call, and
/// returns the verdict string. The limit is `target_for`'s for circuits of
/// this size.
fn podem_probe(c: &Circuit, probe: &mut ProbeTimes) -> String {
    let universe = FaultUniverse::enumerate(c);
    let collapsed = CollapsedFaults::build(c, &universe);
    let podem = Podem::new(c, rls_bench::DEFAULT_BACKTRACK_LIMIT);
    let mut verdicts = String::with_capacity(collapsed.len());
    for &id in collapsed.representatives() {
        let t = Instant::now();
        let outcome = podem.generate(universe.fault(id));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        probe.fault_ms.push(ms);
        verdicts.push(match outcome {
            PodemOutcome::Detected(_) => DETECTABLE,
            PodemOutcome::Redundant => REDUNDANT,
            PodemOutcome::Aborted => {
                probe.aborted_ms += ms;
                ABORTED
            }
        });
    }
    verdicts
}

/// Writes the run's rows (in the recorded format, so a default-seed traced
/// run reproduces `expected/default.txt`) and, traced, its spans.
fn write_outputs(args: &Args, rows: &[Row], verdicts: &[(&'static str, String)], tracer: &Tracer) {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    let stem = format!("{}-seed{}", args.workload.name(), args.seed);
    let mut e = check::Expected::default();
    for (c, v) in verdicts {
        e.classes.insert(c.to_string(), v.clone());
    }
    for row in rows {
        e.rows.insert(row.key.clone(), row.line());
    }
    let mut files = vec![(format!("rows-{stem}.txt"), e.render())];
    if args.trace {
        files.push((format!("trace-{stem}.jsonl"), tracer.to_jsonl()));
    }
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        files
            .iter()
            .try_for_each(|(name, text)| std::fs::write(dir.join(name), text))
    });
    if let Err(e) = written {
        eprintln!("tablebench: cannot write under {}: {e}", dir.display());
    }
}

/// The process's peak resident set (`VmHWM`) in MiB.
fn vm_hwm_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    match kb {
        Some(kb) => kb / 1024.0,
        None => {
            eprintln!("tablebench: no VmHWM in /proc/self/status");
            std::process::exit(2);
        }
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arguments_parse_and_reject_junk() {
        let a = args(&[
            "--workload",
            "grid-t1",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Workload::GridT1);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3, true));
        assert!(args(&["--seed", "1"]).is_err(), "workload required");
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "grid-t1", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "grid-t1", "--seed"]).is_err());
        assert!(args(&["--workload", "grid-t1", "--seed", "-1"]).is_err());
    }

    #[test]
    fn two_thread_map_keeps_order() {
        let items: Vec<u32> = (0..7).collect();
        assert_eq!(
            on_two_threads(&items, |x| x * 10),
            vec![0, 10, 20, 30, 40, 50, 60]
        );
        assert!(on_two_threads(&[] as &[u32], |x| *x).is_empty());
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn every_reported_metric_is_declared_in_benchmark_json() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        let empty = trace::per_layer(
            &[],
            &Default::default(),
            &ProbeTimes::default(),
            &Facts::default(),
        );
        let names = ["wall_s", "setup_s", "peak_rss_mb"];
        let units = ["s", "s", "MB"];
        let end_to_end = names.iter().zip(units);
        let per_layer = empty.iter().map(|m| (&m.name, m.unit));
        for (name, unit) in end_to_end.chain(per_layer) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = json.matches("\"unit\":").count();
        assert_eq!(
            declared,
            names.len() + empty.len(),
            "BENCHMARK.json declares other metrics"
        );
        for w in Workload::ALL {
            assert!(
                json.contains(&format!("\"name\": \"{}\"", w.name())),
                "{}",
                w.name()
            );
        }
    }
}
