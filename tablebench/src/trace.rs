//! Tracing for the traced run: the benchmark's own spans around each
//! public call, the program's existing `rls-obs` events (collected through
//! a `MemorySink`), and the per-layer metrics derived from both.
//!
//! Nothing here is active in an untraced run: a disabled [`Tracer`] records
//! nothing and no obs collector is installed.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use rls_obs::{Event, MemorySink, MetricKind};

/// One benchmark span: a timed call into one layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchSpan {
    /// Run-unique id (from 1).
    pub id: u64,
    /// The enclosing benchmark span, `0` for a root.
    pub parent: u64,
    /// Layer name, e.g. `core.procedure2`.
    pub name: &'static str,
    /// The row the call belongs to; spans of one row share it.
    pub row: Option<u32>,
    /// Start, in nanoseconds from the tracer's creation.
    pub start_ns: u64,
    /// End, in nanoseconds from the tracer's creation.
    pub end_ns: u64,
}

impl BenchSpan {
    /// Duration in nanoseconds.
    pub fn nanos(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    fn to_json(&self) -> String {
        let row = self
            .row
            .map_or_else(|| "null".to_string(), |r| r.to_string());
        format!(
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"row\":{row},\"start_ns\":{},\"end_ns\":{}}}",
            self.name, self.id, self.parent, self.start_ns, self.end_ns
        )
    }
}

/// Records benchmark spans in memory and, when an obs sink is attached,
/// folds the program's events into [`ObsTotals`] after every closed span
/// so the buffer never holds more than one row's events.
pub struct Tracer {
    on: bool,
    origin: Instant,
    open: Vec<BenchSpan>,
    done: Vec<BenchSpan>,
    sink: Option<Arc<MemorySink>>,
    obs: ObsTotals,
}

impl Tracer {
    /// A tracer that records (`on`) or ignores every call.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            open: Vec::new(),
            done: Vec::new(),
            sink: None,
            obs: ObsTotals::default(),
        }
    }

    /// Attaches the obs sink whose events are drained at each span close.
    pub fn attach(&mut self, sink: Arc<MemorySink>) {
        self.sink = Some(sink);
    }

    /// Drains the obs sink once more and detaches it.
    pub fn detach(&mut self) {
        self.drain();
        self.sink = None;
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str, row: Option<u32>) {
        if !self.on {
            return;
        }
        let id = (self.done.len() + self.open.len()) as u64 + 1;
        let parent = self.open.last().map_or(0, |s| s.id);
        let now = self.now();
        self.open.push(BenchSpan {
            id,
            parent,
            name,
            row,
            start_ns: now,
            end_ns: now,
        });
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if !self.on {
            return;
        }
        let now = self.now();
        if let Some(mut span) = self.open.pop() {
            span.end_ns = now;
            self.done.push(span);
        }
        self.drain();
    }

    /// Closed spans, in closing order.
    pub fn spans(&self) -> &[BenchSpan] {
        &self.done
    }

    /// The obs totals absorbed so far.
    pub fn obs(&self) -> &ObsTotals {
        &self.obs
    }

    /// The closed spans as JSON lines, one span a line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.done {
            out.push_str(&s.to_json());
            out.push('\n');
        }
        out
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn drain(&mut self) {
        if let Some(sink) = &self.sink {
            self.obs.absorb(&sink.take());
        }
    }
}

/// Running sums over the program's obs events.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct ObsTotals {
    span_ns: BTreeMap<&'static str, u64>,
    /// Simulation spans (`fsim.test`, `dispatch.set`) inside a
    /// `procedure2.iter`, i.e. the part of the trial loop that simulates.
    sim_in_iter_ns: u64,
    set_ns: Vec<u64>,
    counters: BTreeMap<&'static str, u64>,
    gauge_sums: BTreeMap<&'static str, u64>,
    hist_sums: BTreeMap<&'static str, u64>,
}

impl ObsTotals {
    /// Folds a batch of events in.
    pub fn absorb(&mut self, events: &[Event]) {
        for e in events {
            match e {
                Event::Span(s) => {
                    *self.span_ns.entry(s.name).or_default() += s.nanos;
                    let sim = s.name == "fsim.test" || s.name == "dispatch.set";
                    if sim && s.path.split('/').any(|p| p == "procedure2.iter") {
                        self.sim_in_iter_ns += s.nanos;
                    }
                    if s.name == "dispatch.set" {
                        self.set_ns.push(s.nanos);
                    }
                }
                Event::Metric(m) => {
                    let map = match m.kind {
                        MetricKind::Counter => &mut self.counters,
                        MetricKind::Gauge => &mut self.gauge_sums,
                        MetricKind::Histogram => &mut self.hist_sums,
                    };
                    *map.entry(m.name).or_default() += m.value;
                }
            }
        }
    }

    fn span_s(&self, name: &str) -> f64 {
        secs(self.span_ns.get(name).copied().unwrap_or(0))
    }

    fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    fn gauge_sum(&self, name: &str) -> u64 {
        self.gauge_sums.get(name).copied().unwrap_or(0)
    }

    fn hist_sum(&self, name: &str) -> u64 {
        self.hist_sums.get(name).copied().unwrap_or(0)
    }
}

fn secs(nanos: u64) -> f64 {
    nanos as f64 / 1e9
}

/// Nearest-rank percentile of `values` (`p` in `0..=1`); `0` when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// `num / den`, or `0` when the base is empty.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-fault PODEM timings from the traced run's probe.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct ProbeTimes {
    /// Milliseconds per collapsed fault, all circuits pooled.
    pub fault_ms: Vec<f64>,
    /// Milliseconds spent on faults the probe aborted.
    pub aborted_ms: f64,
}

/// Figures the run computes outside the trace: classification counts,
/// row tallies and the timings around the traced pass.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Facts {
    pub detectable: u64,
    pub redundant: u64,
    pub aborted: u64,
    pub target_delta: u64,
    pub p2_rows: u64,
    pub pairs: u64,
    pub iterations: u64,
    pub rows: u64,
    pub rows_failed: u64,
    pub verify_s: f64,
    pub traced_wall_s: f64,
    pub untraced_wall_s: f64,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Derives every per-layer metric from the benchmark spans, the obs totals,
/// the PODEM probe and the run's facts. Layers a workload does not reach
/// report zero.
pub fn per_layer(
    spans: &[BenchSpan],
    obs: &ObsTotals,
    probe: &ProbeTimes,
    f: &Facts,
) -> Vec<Metric> {
    let durations = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| secs(s.nanos()))
            .collect()
    };
    let bench_s = |name: &str| durations(name).iter().fold(0.0, |a, b| a + b);
    // Set-up builds the circuits several times; the layer's figure is the
    // median build, like `setup_s`.
    let build_s = percentile(&durations("benchmarks.build"), 0.5);
    let faults = f.detectable + f.redundant + f.aborted;
    let probe_s = probe.fault_ms.iter().fold(0.0, |a, b| a + b) / 1e3;
    let set_ms: Vec<f64> = obs.set_ns.iter().map(|&n| n as f64 / 1e6).collect();
    let busy = obs.gauge_sum("pool.worker.busy_nanos");
    let idle = obs.gauge_sum("pool.worker.idle_nanos");
    let used = obs.counter("fsim.lanes_used");
    let capacity = obs.counter("fsim.lanes_capacity");
    let iter_s = obs.span_s("procedure2.iter");
    let m = |name, unit, value| Metric { name, unit, value };
    vec![
        m("benchmarks.build_s", "s", build_s),
        m("atpg.target_s", "s", bench_s("atpg.target")),
        m("atpg.faults", "count", faults as f64),
        m("atpg.detectable", "count", f.detectable as f64),
        m("atpg.redundant", "count", f.redundant as f64),
        m("atpg.aborted", "count", f.aborted as f64),
        m(
            "atpg.decided_ratio",
            "ratio",
            ratio((f.detectable + f.redundant) as f64, faults as f64),
        ),
        m("atpg.decided_ratio.base", "count", faults as f64),
        m("atpg.target_delta", "count", f.target_delta as f64),
        m("atpg.fault_ms.p50", "ms", percentile(&probe.fault_ms, 0.50)),
        m("atpg.fault_ms.p99", "ms", percentile(&probe.fault_ms, 0.99)),
        m("atpg.fault_ms.n", "count", probe.fault_ms.len() as f64),
        m(
            "atpg.aborted_time_share",
            "ratio",
            ratio(probe.aborted_ms / 1e3, probe_s),
        ),
        m("atpg.aborted_time_share.base_s", "s", probe_s),
        m("core.procedure2_s", "s", bench_s("core.procedure2")),
        m("core.rows", "count", f.p2_rows as f64),
        m(
            "core.trials",
            "count",
            obs.counter("procedure2.trials") as f64,
        ),
        m("core.pairs", "count", f.pairs as f64),
        m("core.iterations", "count", f.iterations as f64),
        m("core.ts0_s", "s", obs.span_s("procedure2.ts0")),
        m("core.trial_s", "s", obs.span_s("procedure2.trial")),
        m(
            "core.trial_self_s",
            "s",
            (iter_s - secs(obs.sim_in_iter_ns)).max(0.0),
        ),
        m("dispatch.set_s", "s", obs.span_s("dispatch.set")),
        m("dispatch.set_ms.p50", "ms", percentile(&set_ms, 0.50)),
        m("dispatch.set_ms.p90", "ms", percentile(&set_ms, 0.90)),
        m("dispatch.set_ms.n", "count", set_ms.len() as f64),
        m(
            "dispatch.busy_share",
            "ratio",
            ratio(busy as f64, (busy + idle) as f64),
        ),
        m("dispatch.busy_share.base_s", "s", secs(busy + idle)),
        m("dispatch.idle_s", "s", secs(idle)),
        m(
            "dispatch.jobs",
            "count",
            obs.counter("pool.worker.jobs") as f64,
        ),
        m(
            "dispatch.chunks",
            "count",
            obs.counter("dispatch.chunks") as f64,
        ),
        m(
            "dispatch.steals",
            "count",
            obs.counter("dispatch.steals") as f64,
        ),
        m(
            "dispatch.respawns",
            "count",
            obs.counter("dispatch.respawns") as f64,
        ),
        m(
            "fsim.lane_occupancy",
            "ratio",
            ratio(used as f64, capacity as f64),
        ),
        m("fsim.lane_occupancy.base", "lanes", capacity as f64),
        m("fsim.tiles", "count", obs.counter("fsim.tiles") as f64),
        m(
            "fsim.batches",
            "count",
            (obs.counter("fsim.batches") + obs.counter("dispatch.batches")) as f64,
        ),
        m("fsim.test_s", "s", obs.span_s("fsim.test")),
        m(
            "fsim.kernel_s",
            "s",
            secs(obs.hist_sum("fsim.test_nanos") + busy),
        ),
        m("extension.partial_s", "s", bench_s("extension.partial")),
        m(
            "extension.multichain_s",
            "s",
            bench_s("extension.multichain"),
        ),
        m(
            "obs.trace_overhead_frac",
            "ratio",
            ratio(f.traced_wall_s, f.untraced_wall_s) - 1.0,
        ),
        m("obs.trace_overhead_frac.base_s", "s", f.untraced_wall_s),
        m("bench.traced_wall_s", "s", f.traced_wall_s),
        m("bench.verify_s", "s", f.verify_s),
        m("bench.rows", "count", f.rows as f64),
        m(
            "bench.rows_failed_frac",
            "ratio",
            ratio(f.rows_failed as f64, f.rows as f64),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rls_obs::{FieldValue, MetricRecord, SpanRecord};

    fn span(name: &'static str, path: &str, nanos: u64) -> Event {
        Event::Span(SpanRecord {
            name,
            id: 0,
            parent: 0,
            tid: 1,
            path: path.to_string(),
            start_nanos: 0,
            nanos,
            fields: Vec::new(),
        })
    }

    fn metric(kind: MetricKind, name: &'static str, value: u64) -> Event {
        Event::Metric(MetricRecord {
            kind,
            name,
            value,
            fields: vec![("worker", FieldValue::U64(0))],
        })
    }

    fn bench(
        id: u64,
        parent: u64,
        name: &'static str,
        row: Option<u32>,
        start: u64,
        end: u64,
    ) -> BenchSpan {
        BenchSpan {
            id,
            parent,
            name,
            row,
            start_ns: start,
            end_ns: end,
        }
    }

    fn get(metrics: &[Metric], name: &str) -> f64 {
        metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name} missing"))
            .value
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn derivations_on_a_hand_built_event_list() {
        const MS: u64 = 1_000_000;
        let events = vec![
            span("procedure2.ts0", "procedure2.run/procedure2.ts0", 40 * MS),
            span(
                "fsim.test",
                "procedure2.run/procedure2.ts0/fsim.test",
                30 * MS,
            ),
            span(
                "fsim.test",
                "procedure2.run/procedure2.iter/procedure2.trial/fsim.test",
                20 * MS,
            ),
            span(
                "procedure2.trial",
                "procedure2.run/procedure2.iter/procedure2.trial",
                25 * MS,
            ),
            span(
                "dispatch.set",
                "procedure2.run/procedure2.iter/procedure2.trial/dispatch.set",
                10 * MS,
            ),
            span(
                "dispatch.set",
                "procedure2.run/procedure2.iter/procedure2.trial/dispatch.set",
                30 * MS,
            ),
            span(
                "procedure2.iter",
                "procedure2.run/procedure2.iter",
                100 * MS,
            ),
            metric(MetricKind::Counter, "procedure2.trials", 3),
            metric(MetricKind::Counter, "procedure2.trials", 4),
            metric(MetricKind::Counter, "fsim.lanes_used", 100),
            metric(MetricKind::Counter, "fsim.lanes_capacity", 400),
            metric(MetricKind::Counter, "fsim.batches", 2),
            metric(MetricKind::Counter, "dispatch.batches", 5),
            metric(MetricKind::Histogram, "fsim.test_nanos", 15 * MS),
            metric(MetricKind::Gauge, "pool.worker.busy_nanos", 30 * MS),
            metric(MetricKind::Gauge, "pool.worker.busy_nanos", 30 * MS),
            metric(MetricKind::Gauge, "pool.worker.idle_nanos", 20 * MS),
            metric(MetricKind::Gauge, "pool.worker.idle_nanos", 20 * MS),
            metric(MetricKind::Counter, "pool.worker.jobs", 6),
            metric(MetricKind::Counter, "pool.worker.jobs", 7),
        ];
        let mut obs = ObsTotals::default();
        // Absorbing in two batches must equal absorbing at once.
        obs.absorb(&events[..5]);
        obs.absorb(&events[5..]);
        let mut whole = ObsTotals::default();
        whole.absorb(&events);
        assert_eq!(obs, whole);

        let spans = vec![
            bench(2, 1, "atpg.target", Some(0), 0, 500 * MS),
            bench(3, 1, "core.procedure2", Some(1), 500 * MS, 700 * MS),
            bench(4, 1, "core.procedure2", Some(2), 700 * MS, 1000 * MS),
            bench(5, 0, "benchmarks.build", None, 0, 2 * MS),
            bench(6, 0, "benchmarks.build", None, 2 * MS, 3 * MS),
            bench(7, 0, "benchmarks.build", None, 3 * MS, 6 * MS),
        ];
        let probe = ProbeTimes {
            fault_ms: vec![1.0, 2.0, 3.0, 4.0, 90.0],
            aborted_ms: 90.0,
        };
        let facts = Facts {
            detectable: 90,
            redundant: 6,
            aborted: 4,
            rows: 3,
            rows_failed: 0,
            traced_wall_s: 1.1,
            untraced_wall_s: 1.0,
            ..Facts::default()
        };
        let m = per_layer(&spans, &obs, &probe, &facts);
        assert!(close(get(&m, "atpg.target_s"), 0.5));
        assert!(close(get(&m, "core.procedure2_s"), 0.5));
        assert!(close(get(&m, "benchmarks.build_s"), 0.002));
        assert!(close(get(&m, "atpg.decided_ratio"), 0.96));
        assert!(close(get(&m, "atpg.decided_ratio.base"), 100.0));
        assert!(close(get(&m, "atpg.fault_ms.p50"), 3.0));
        assert!(close(get(&m, "atpg.fault_ms.p99"), 90.0));
        assert!(close(get(&m, "atpg.fault_ms.n"), 5.0));
        assert!(close(get(&m, "atpg.aborted_time_share"), 0.9));
        assert!(close(get(&m, "atpg.aborted_time_share.base_s"), 0.1));
        assert!(close(get(&m, "core.trials"), 7.0));
        assert!(close(get(&m, "core.ts0_s"), 0.04));
        assert!(close(get(&m, "core.trial_s"), 0.025));
        // The iteration minus the simulation nested in it: 100 − 20 − 10 − 30.
        assert!(close(get(&m, "core.trial_self_s"), 0.04));
        assert!(close(get(&m, "dispatch.set_s"), 0.04));
        assert!(close(get(&m, "dispatch.set_ms.p50"), 10.0));
        assert!(close(get(&m, "dispatch.set_ms.p90"), 30.0));
        assert!(close(get(&m, "dispatch.set_ms.n"), 2.0));
        assert!(close(get(&m, "dispatch.busy_share"), 0.6));
        assert!(close(get(&m, "dispatch.busy_share.base_s"), 0.1));
        assert!(close(get(&m, "dispatch.idle_s"), 0.04));
        assert!(close(get(&m, "dispatch.jobs"), 13.0));
        assert!(close(get(&m, "fsim.lane_occupancy"), 0.25));
        assert!(close(get(&m, "fsim.lane_occupancy.base"), 400.0));
        assert!(close(get(&m, "fsim.batches"), 7.0));
        assert!(close(get(&m, "fsim.test_s"), 0.05));
        assert!(close(get(&m, "fsim.kernel_s"), 0.075));
        assert!(close(get(&m, "obs.trace_overhead_frac"), 0.1));
        assert!(close(get(&m, "bench.rows_failed_frac"), 0.0));
        assert!(close(get(&m, "extension.partial_s"), 0.0));
    }

    #[test]
    fn empty_bases_report_zero_not_nan() {
        let m = per_layer(
            &[],
            &ObsTotals::default(),
            &ProbeTimes::default(),
            &Facts::default(),
        );
        for metric in &m {
            assert!(
                metric.value.is_finite(),
                "{} is {}",
                metric.name,
                metric.value
            );
        }
        assert_eq!(get(&m, "dispatch.busy_share"), 0.0);
        assert_eq!(get(&m, "atpg.fault_ms.p99"), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn tracer_nests_spans_and_keeps_row_ids() {
        let mut t = Tracer::new(true);
        t.open("bench.pass", None);
        t.open("core.procedure2", Some(4));
        t.close();
        t.close();
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let (inner, outer) = (&spans[0], &spans[1]);
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.row, Some(4));
        assert!(inner.start_ns >= outer.start_ns && inner.end_ns <= outer.end_ns);
        assert_eq!(t.to_jsonl().lines().count(), 2);

        let mut off = Tracer::new(false);
        off.open("bench.pass", None);
        off.close();
        assert!(off.spans().is_empty());
    }
}
