//! Observability integration: the `rls-obs` layer wired through the
//! dispatch pool and Procedure 2.
//!
//! Covers the job shape (a set is one job per thread-sized test block,
//! visible in the pool's job counters) and the metric contract:
//! every name emitted during a real parallel campaign is a registered
//! lowercase dot-separated literal from `rls_obs::names`.
//!
//! Tests that install a collector serialize on `OBS_LOCK` — the collector
//! slot is process-global.

use std::sync::{Arc, Mutex};

use random_limited_scan::core::{generate_ts0, RlsConfig};
use random_limited_scan::dispatch::{test_blocks, SharedPool, SharedSetRunner};
use random_limited_scan::obs;
use random_limited_scan::obs::record::Event;
use rls_fsim::{ChainMap, CompiledCircuit, FaultId, KernelWord, ScanTest, SimOptions};
use rls_netlist::Circuit;

static OBS_LOCK: Mutex<()> = Mutex::new(());

/// A runner for `c` on a fresh `threads`-wide pool, and the full
/// collapsed fault list to run it against.
fn runner(c: &Circuit, threads: usize) -> (SharedSetRunner, Vec<FaultId>) {
    let compiled = Arc::new(CompiledCircuit::compile(c.clone()).expect("acyclic"));
    let live = compiled.collapsed().representatives().to_vec();
    let chains = ChainMap::full(c.num_dffs());
    let runner = SharedSetRunner::new(
        compiled,
        chains,
        SimOptions::default(),
        SharedPool::new(threads),
    );
    (runner, live)
}

/// Runs one set on a fresh `threads`-wide pool; the pool retires
/// (emitting its metrics) before this returns.
fn run_one_set(c: &Circuit, tests: &[ScanTest], threads: usize) {
    let (runner, live) = runner(c, threads);
    runner.try_run_set(&live, tests).expect("no job fails");
}

#[test]
fn test_block_jobs_cut_submit_overhead_on_large_circuits() {
    // Serialized with the collector tests: a retiring campaign emits pool
    // metrics into whatever collector is installed.
    let _guard = OBS_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    // A set is one wave of contiguous test-block jobs sized by the
    // pool's threads alone: on s953, whose live list spans many
    // kernel chunks, the job count is the block count, not tiles x fault
    // chunks.
    let c = random_limited_scan::benchmarks::by_name("s953").expect("s953 exists");
    let cfg = RlsConfig::new(8, 16, 8);
    let tests = generate_ts0(&c, &cfg);
    for threads in [1, 2] {
        let (runner, live) = runner(&c, threads);
        runner.try_run_set(&live, &tests).expect("no job fails");
        let live = live.len();
        let snap = runner.pool().snapshot();
        let jobs: u64 = snap.workers.iter().map(|w| w.jobs).sum();
        let blocks = test_blocks(tests.len(), threads).len() as u64;
        assert_eq!(jobs, blocks, "one job per test block at {threads} threads");
        // Fixed 64-fault chunks of 1-tall tiles would need one job per
        // (test, chunk).
        let fixed = (tests.len() * live.div_ceil(64)) as u64;
        assert!(jobs < fixed, "{jobs} block jobs vs {fixed} fixed chunks");
        // Each job split the live list into tile-capacity sub-batches,
        // each accounted at the full kernel word.
        assert!(
            snap.total_batches() > jobs,
            "blocks run several kernel passes"
        );
        assert_eq!(
            snap.total_lanes_capacity(),
            snap.total_batches() * KernelWord::LANES as u64
        );
        assert!(snap.total_lanes_used() <= snap.total_lanes_capacity());
    }
}

#[test]
fn parallel_campaign_emits_only_registered_metric_names() {
    let _guard = OBS_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let sink = Arc::new(obs::MemorySink::new());
    assert!(
        obs::install(sink.clone() as Arc<dyn obs::Sink>),
        "no other collector may be installed"
    );
    let c = random_limited_scan::benchmarks::s27();
    let cfg = RlsConfig::new(4, 8, 8);
    let tests = generate_ts0(&c, &cfg);
    let threads = 4;
    run_one_set(&c, &tests, threads);
    obs::finish().expect("the collector installed above");
    let events = sink.take();
    assert!(!events.is_empty(), "an enabled run emits events");
    for e in &events {
        assert!(
            obs::names::is_registered(e.name()),
            "unregistered metric name `{}`",
            e.name()
        );
    }
    let gauge = |name: &str| {
        events.iter().find_map(|e| match e {
            Event::Metric(m) if m.name == name => Some(m.value),
            _ => None,
        })
    };
    // The executor reported its queue depth and the jobs their tile
    // heights…
    assert!(gauge("dispatch.queue_depth").is_some());
    assert!(events.iter().any(|e| e.name() == "fsim.tile_height"));
    // …and the retired pool its per-worker busy/idle profile.
    let busy = events
        .iter()
        .filter(|e| e.name() == "pool.worker.busy_nanos")
        .count();
    assert_eq!(busy, threads, "one busy gauge per worker");
    assert!(events.iter().any(|e| e.name() == "pool.worker.idle_nanos"));
    assert!(events.iter().any(|e| e.name() == "dispatch.set"));
}

#[test]
fn flight_recorder_dump_survives_a_parallel_campaign() {
    let _guard = OBS_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let dir = std::env::temp_dir().join(format!("rls-obs-recdump-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    obs::recorder::set_dump_dir(&dir);
    assert!(obs::recorder::start(256), "the recorder must arm");
    let c = random_limited_scan::benchmarks::s27();
    let cfg = RlsConfig::new(4, 8, 8);
    let tests = generate_ts0(&c, &cfg);
    run_one_set(&c, &tests, 2);
    // The sequential engine's kernel-batch marks ride along in the same
    // window (the pool path batches below the mark's granularity).
    let mut sim = rls_fsim::FaultSimulator::new(&c);
    let first = tests.first().expect("TS0 is non-empty");
    let _ = sim.run_test(first);
    let path = obs::recorder::dump("integration test!").expect("an armed recorder dumps");
    obs::recorder::stop();
    // The dump is readable through the same torn-tail-tolerant reader the
    // metrics stream uses, and every event line carries a registered (or
    // placeholder) name the report layer can rely on.
    let records = obs::jsonl::read(&path).expect("dump parses as JSONL records");
    let (header, events) = records.split_first().expect("dump holds a header at least");
    assert_eq!(header.str_field("type"), Some("rec_dump"), "{header:?}");
    assert_eq!(
        header.str_field("reason"),
        Some("integration test!"),
        "{header:?}"
    );
    assert!(!events.is_empty(), "the campaign recorded events");
    for event in events {
        assert_eq!(event.str_field("type"), Some("rec_event"), "{event:?}");
    }
    // The dispatch spans land in the rings as enter/exit pairs, and the
    // kernel-batch marks from inside `fsim.test` ride along.
    let any = |key: &str, value: &str| events.iter().any(|e| e.str_field(key) == Some(value));
    assert!(any("kind", "enter"), "no span enters");
    assert!(any("kind", "exit"), "no span exits");
    assert!(any("name", "fsim.batch"), "no kernel batch marks");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn disabled_obs_emits_nothing() {
    let _guard = OBS_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    assert!(!obs::enabled());
    // A full parallel set with obs disabled: the macros must not observe
    // anything (there is no collector to receive events anyway, but the
    // enabled() gate is the contract being pinned here).
    let c = random_limited_scan::benchmarks::s27();
    let cfg = RlsConfig::new(4, 8, 8);
    let tests = generate_ts0(&c, &cfg);
    run_one_set(&c, &tests, 2);
    assert!(obs::finish().is_none(), "nothing was installed");
}
