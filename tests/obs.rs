//! Observability integration: the `rls-obs` layer wired through the
//! dispatch pool and Procedure 2.
//!
//! Covers the adaptive-chunk satellite (submit overhead drops on large
//! circuits, visible in the pool's job counters) and the metric contract:
//! every name emitted during a real parallel campaign is a registered
//! lowercase dot-separated literal from `rls_obs::names`.
//!
//! Tests that install a collector serialize on `OBS_LOCK` — the collector
//! slot is process-global.

use std::sync::{Arc, Mutex};

use random_limited_scan::core::{generate_ts0, RlsConfig};
use random_limited_scan::dispatch::{
    chunk_size, CompiledCircuit, SharedPool, SharedSetRunner, SharedSimContext,
};
use random_limited_scan::obs;
use random_limited_scan::obs::record::Event;
use rls_fsim::{LaneWidth, ScanTest, SimOptions};
use rls_netlist::Circuit;

static OBS_LOCK: Mutex<()> = Mutex::new(());

/// A runner for `c` registered with budget `threads` on `pool`.
fn runner(pool: &SharedPool, c: &Circuit, width: LaneWidth, threads: usize) -> SharedSetRunner {
    let compiled = Arc::new(CompiledCircuit::compile(c.clone()).expect("acyclic"));
    let ctx = SharedSimContext::new(compiled, SimOptions::default()).with_lane_width(width);
    SharedSetRunner::new(Arc::new(ctx), pool.register(threads))
}

/// Runs one set on a fresh `threads`-wide pool; the campaign retires
/// (emitting its pool metrics) before this returns.
fn run_one_set(c: &Circuit, tests: &[ScanTest], threads: usize) {
    let pool = SharedPool::new(threads);
    let mut runner = runner(&pool, c, LaneWidth::DEFAULT, threads);
    runner.try_run_set(tests).expect("no job fails");
}

#[test]
fn adaptive_chunks_cut_submit_overhead_on_large_circuits() {
    // Serialized with the collector tests: a retiring campaign emits pool
    // metrics into whatever collector is installed.
    let _guard = OBS_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    // s953 is large enough that the adaptive chunk (live / (threads * 8))
    // exceeds the 64-lane kernel width, so fewer jobs cross the queues
    // than fixed 64-fault chunks would need.
    let c = random_limited_scan::benchmarks::by_name("s953").expect("s953 exists");
    let cfg = RlsConfig::new(8, 16, 8);
    let tests = generate_ts0(&c, &cfg);
    let threads = 2;
    // Pin the kernel to 64 lanes: this test is specifically about adaptive
    // chunks versus fixed 64-fault chunks, independent of the default width.
    let pool = SharedPool::new(threads);
    let mut runner = runner(&pool, &c, LaneWidth::W64, threads);
    let live = runner.live_count();
    let size = chunk_size(live, threads);
    let lanes = LaneWidth::W64.lanes();
    assert!(size > lanes, "s953 must exercise the oversized-chunk path");
    runner.try_run_set(&tests).expect("no job fails");
    let snap = runner.handle().snapshot();
    let ctx = runner.context();
    // A set is one wave of (tile, chunk) jobs.
    let jobs: u64 = snap.workers.iter().map(|w| w.jobs).sum();
    // TS0 tests all share one shape (same length, no shifts), so tiling
    // packs them `pattern_lanes` tall and batch jobs are (tile, chunk).
    let tiles = tests.len().div_ceil(ctx.pattern_lanes());
    let adaptive = (tiles * live.div_ceil(size)) as u64;
    let fixed = (tiles * live.div_ceil(lanes)) as u64;
    assert_eq!(jobs, adaptive, "one job per (tile, adaptive chunk)");
    assert!(
        jobs < fixed,
        "adaptive chunks must submit fewer jobs than fixed 64-wide ones \
         ({jobs} vs {fixed})"
    );
    // The kernel still ran at the configured width: oversized chunks were
    // split into width-lane sub-batches, each accounted at full lane
    // capacity. (Jobs whose candidates were all dropped run zero
    // batches, so no job/batch inequality holds in either direction.)
    assert!(snap.total_batches() > 0);
    assert_eq!(
        snap.total_lanes_capacity(),
        snap.total_batches() * ctx.lane_width().lanes() as u64
    );
}

#[test]
fn parallel_campaign_emits_only_registered_metric_names() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
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
    // The executor reported its chunk sizing and queue depth…
    assert_eq!(
        gauge("dispatch.chunk_size"),
        Some(chunk_size(rls_fsim::FaultSimulator::new(&c).live_count(), threads) as u64)
    );
    assert!(gauge("dispatch.queue_depth").is_some());
    // …and the retired campaign its per-worker busy/idle profile.
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
    let _guard = OBS_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
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
    let log = obs::MetricsLog::read(&path).expect("dump parses as a metrics log");
    assert!(!log.is_empty(), "dump holds a header at least");
    let header = &log.lines()[0];
    assert!(header.contains(r#""type":"rec_dump""#), "{header}");
    assert!(header.contains(r#""reason":"integration test!""#), "{header}");
    let events: Vec<&String> = log.lines()[1..].iter().collect();
    assert!(!events.is_empty(), "the campaign recorded events");
    for line in &events {
        assert!(line.contains(r#""type":"rec_event""#), "{line}");
    }
    // The dispatch spans land in the rings as enter/exit pairs, and the
    // kernel-batch marks from inside `fsim.test` ride along.
    assert!(events.iter().any(|l| l.contains(r#""kind":"enter""#)), "no span enters");
    assert!(events.iter().any(|l| l.contains(r#""kind":"exit""#)), "no span exits");
    assert!(
        events.iter().any(|l| l.contains(r#""name":"fsim.batch""#)),
        "no kernel batch marks"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn disabled_obs_emits_nothing() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
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
