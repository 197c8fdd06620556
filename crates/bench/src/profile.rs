//! Span-tree profiling: collapsed stacks, flamegraph SVG, Chrome trace
//! export, and the committed phase-profile gate.
//!
//! All four consumers start from the same aggregation: the `span`
//! records of an obs metrics stream (or flight-recorder dump) are
//! grouped by their slash-separated `path`, giving one [`Frame`] per
//! distinct stack with total, self, and call-count figures. Self time
//! is total minus the time of direct children, so over a properly
//! nested (single-threaded) tree the self times sum exactly to the
//! root totals — the invariant `rls-report --flamegraph` is gated on.
//!
//! The phase profile is a committed JSONL file (`BENCH_phase_profile.json`)
//! listing each span name's expected share of total self time plus a
//! tolerance. Shares are machine-robust where absolute times are not:
//! a faster box shrinks every phase together, but a regression that
//! moves work between phases shifts the shares and trips the gate —
//! the same philosophy as the `--lanes` width gate.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use rls_dispatch::CampaignLog;

/// One span record resolved from a metrics stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Slash-separated stack of registered span names.
    pub path: String,
    /// Thread that recorded the span (0 in pre-recorder streams).
    pub tid: u64,
    /// Nanoseconds since the obs epoch at enter.
    pub start_nanos: u64,
    /// Span duration in nanoseconds.
    pub nanos: u64,
}

/// Extracts the span records of an obs metrics stream.
pub fn spans_from(log: &CampaignLog) -> Result<Vec<Span>, String> {
    let spans: Vec<Span> = log
        .of_type("span")
        .map(|s| Span {
            path: s.str_field("path").unwrap_or("?").to_string(),
            tid: s.u64_field("tid").unwrap_or(0),
            start_nanos: s.u64_field("start_nanos").unwrap_or(0),
            nanos: s.u64_field("nanos").unwrap_or(0),
        })
        .collect();
    if spans.is_empty() {
        return Err("no `span` records (not an RLS_OBS=1 metrics stream?)".into());
    }
    Ok(spans)
}

/// Aggregated timings of one distinct stack (one collapsed-stack line,
/// one flamegraph rectangle).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Slash-separated stack of span names.
    pub path: String,
    /// Total duration of every span on this stack.
    pub total_nanos: u64,
    /// Total minus direct children — time spent in this frame itself.
    pub self_nanos: u64,
    /// Number of spans aggregated into the frame.
    pub count: u64,
    /// Earliest enter time, used for stable left-to-right layout.
    pub first_start: u64,
}

impl Frame {
    /// The innermost span name of the stack.
    pub fn name(&self) -> &str {
        self.path.rsplit('/').next().unwrap_or(&self.path)
    }

    /// Stack depth (0 for a root frame).
    pub fn depth(&self) -> usize {
        self.path.matches('/').count()
    }

    fn parent(&self) -> Option<&str> {
        self.path.rsplit_once('/').map(|(p, _)| p)
    }
}

/// Groups spans by stack and computes total/self/count per frame.
/// Frames come back sorted by path. Self time saturates at zero when
/// concurrent children (a sharded run) overlap their parent.
pub fn collapse(spans: &[Span]) -> Vec<Frame> {
    let mut agg: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let e = agg.entry(s.path.as_str()).or_insert((0, 0, u64::MAX));
        e.0 += s.nanos;
        e.1 += 1;
        e.2 = e.2.min(s.start_nanos);
    }
    let mut child_sums: BTreeMap<&str, u64> = BTreeMap::new();
    for (path, (total, _, _)) in &agg {
        if let Some((parent, _)) = path.rsplit_once('/') {
            *child_sums.entry(parent).or_insert(0) += total;
        }
    }
    agg.iter()
        .map(|(path, (total, count, first))| Frame {
            path: path.to_string(),
            total_nanos: *total,
            self_nanos: total.saturating_sub(child_sums.get(path).copied().unwrap_or(0)),
            count: *count,
            first_start: *first,
        })
        .collect()
}

/// Collapsed-stack text: one `a;b;c <self-nanos>` line per frame with
/// nonzero self time, the format `flamegraph.pl` and speedscope read.
pub fn collapsed_text(frames: &[Frame]) -> String {
    let mut out = String::new();
    for f in frames {
        if f.self_nanos > 0 {
            let _ = writeln!(out, "{} {}", f.path.replace('/', ";"), f.self_nanos);
        }
    }
    out
}

/// Total duration of root frames — the denominator for shares and the
/// figure the summed self times must reproduce.
pub fn root_total(frames: &[Frame]) -> u64 {
    frames
        .iter()
        .filter(|f| f.depth() == 0)
        .map(|f| f.total_nanos)
        .sum()
}

/// Sum of self time over every frame.
pub fn self_total(frames: &[Frame]) -> u64 {
    frames.iter().map(|f| f.self_nanos).sum()
}

/// Per-span-name share of total self time, heaviest first. This is the
/// "phase" figure the profile gate compares: `fsim.test` appearing at
/// several stack positions contributes one aggregate share.
pub fn self_shares(frames: &[Frame]) -> Vec<(String, f64)> {
    let total = self_total(frames).max(1) as f64;
    let mut by_name: BTreeMap<&str, u64> = BTreeMap::new();
    for f in frames {
        *by_name.entry(f.name()).or_insert(0) += f.self_nanos;
    }
    let mut shares: Vec<(String, f64)> = by_name
        .into_iter()
        .filter(|(_, nanos)| *nanos > 0)
        .map(|(name, nanos)| (name.to_string(), nanos as f64 / total))
        .collect();
    shares.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    shares
}

fn xml_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

/// Deterministic warm fill colour for a span name.
fn fill(name: &str) -> String {
    let mut h: u32 = 2166136261;
    for b in name.bytes() {
        h = (h ^ u32::from(b)).wrapping_mul(16777619);
    }
    let r = 200 + (h % 56);
    let g = 70 + ((h >> 8) % 110);
    let b = 30 + ((h >> 16) % 40);
    format!("rgb({r},{g},{b})")
}

const SVG_WIDTH: f64 = 1200.0;
const ROW_H: f64 = 18.0;
const PAD: f64 = 10.0;

/// Renders the frames as a self-contained flamegraph SVG (no external
/// scripts or stylesheets; hover titles carry the exact figures).
/// Root frames sit at the top, children below, width proportional to
/// total time, siblings ordered by first enter time.
pub fn render_svg(frames: &[Frame], title: &str) -> String {
    let total = root_total(frames).max(1);
    let depth = frames.iter().map(Frame::depth).max().unwrap_or(0);
    let height = PAD * 2.0 + 24.0 + ROW_H * (depth + 1) as f64;
    let px_per_nano = (SVG_WIDTH - PAD * 2.0) / total as f64;

    // Left-to-right layout: each frame starts where its earlier-started
    // siblings (under the same parent) end; roots start at the pad.
    let mut ordered: Vec<&Frame> = frames.iter().collect();
    ordered.sort_by_key(|f| (f.depth(), f.first_start, f.path.clone()));
    let mut x_at: BTreeMap<&str, f64> = BTreeMap::new(); // next free x per parent
    let mut rects = String::new();
    for f in &ordered {
        let parent_key = f.parent().unwrap_or("");
        let x = *x_at.entry(parent_key).or_insert(PAD);
        // A child begins at its parent's left edge, after earlier siblings.
        let w = f.total_nanos as f64 * px_per_nano;
        let y = PAD + 24.0 + f.depth() as f64 * ROW_H;
        x_at.insert(f.path.as_str(), x);
        x_at.insert(parent_key, x + w);
        let pct = 100.0 * f.total_nanos as f64 / total as f64;
        let tip = format!(
            "{} — total {:.3}ms ({pct:.1}%), self {:.3}ms, n={} [{}]",
            f.name(),
            f.total_nanos as f64 / 1e6,
            f.self_nanos as f64 / 1e6,
            f.count,
            f.path,
        );
        let _ = write!(
            rects,
            "<g><title>{}</title><rect x=\"{x:.2}\" y=\"{y:.2}\" width=\"{:.2}\" \
             height=\"{:.2}\" fill=\"{}\" rx=\"1\"/>",
            xml_escape(&tip),
            w.max(0.5),
            ROW_H - 1.0,
            fill(f.name()),
        );
        let chars = ((w - 6.0) / 6.7) as usize;
        if chars >= 3 {
            let label: String = f.name().chars().take(chars).collect();
            let _ = write!(
                rects,
                "<text x=\"{:.2}\" y=\"{:.2}\" font-size=\"11\" \
                 font-family=\"monospace\" fill=\"#000\">{}</text>",
                x + 3.0,
                y + ROW_H - 5.5,
                xml_escape(&label),
            );
        }
        rects.push_str("</g>\n");
    }
    format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{SVG_WIDTH}\" height=\"{height}\" \
         viewBox=\"0 0 {SVG_WIDTH} {height}\">\n\
         <rect width=\"100%\" height=\"100%\" fill=\"#fdf6e3\"/>\n\
         <text x=\"{PAD}\" y=\"{}\" font-size=\"14\" font-family=\"monospace\">{} \
         — {:.3}ms total, hover for figures</text>\n{rects}</svg>\n",
        PAD + 14.0,
        xml_escape(title),
        total as f64 / 1e6,
    )
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto) from a
/// metrics stream and/or a flight-recorder dump. Spans become complete
/// (`ph:"X"`) events on their recording thread; recorder events become
/// begin/end pairs, instants, and counter samples.
pub fn chrome_trace(log: &CampaignLog) -> Result<String, String> {
    let mut events: Vec<String> = Vec::new();
    for s in log.of_type("span") {
        events.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":1,\"tid\":{},\"args\":{{\"path\":\"{}\"}}}}",
            s.str_field("name").unwrap_or("?"),
            s.u64_field("start_nanos").unwrap_or(0) as f64 / 1e3,
            s.u64_field("nanos").unwrap_or(0) as f64 / 1e3,
            s.u64_field("tid").unwrap_or(0),
            s.str_field("path").unwrap_or("?"),
        ));
    }
    for e in log.of_type("rec_event") {
        let name = e.str_field("name").unwrap_or("?");
        let ts = e.u64_field("t_nanos").unwrap_or(0) as f64 / 1e3;
        let tid = e.u64_field("tid").unwrap_or(0);
        let value = e.u64_field("value").unwrap_or(0);
        let line = match e.str_field("kind") {
            Some("enter") => format!(
                "{{\"name\":\"{name}\",\"cat\":\"rec\",\"ph\":\"B\",\"ts\":{ts:.3},\
                 \"pid\":1,\"tid\":{tid}}}"
            ),
            Some("exit") => format!(
                "{{\"name\":\"{name}\",\"cat\":\"rec\",\"ph\":\"E\",\"ts\":{ts:.3},\
                 \"pid\":1,\"tid\":{tid}}}"
            ),
            Some("mark") => format!(
                "{{\"name\":\"{name}\",\"cat\":\"rec\",\"ph\":\"i\",\"s\":\"t\",\
                 \"ts\":{ts:.3},\"pid\":1,\"tid\":{tid},\"args\":{{\"value\":{value}}}}}"
            ),
            Some("counter" | "gauge" | "histogram") => format!(
                "{{\"name\":\"{name}\",\"ph\":\"C\",\"ts\":{ts:.3},\"pid\":1,\
                 \"args\":{{\"value\":{value}}}}}"
            ),
            _ => continue,
        };
        events.push(line);
    }
    if events.is_empty() {
        return Err("no `span` or `rec_event` records to trace".into());
    }
    Ok(format!(
        "{{\"traceEvents\":[\n{}\n],\"displayTimeUnit\":\"ms\"}}\n",
        events.join(",\n")
    ))
}

/// Default absolute share tolerance for generated profiles.
pub const DEFAULT_TOLERANCE: f64 = 0.10;

/// One committed phase expectation.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    /// Registered span name.
    pub name: String,
    /// Expected share of total self time, 0..=1.
    pub self_share: f64,
    /// Per-phase tolerance override (absolute share points).
    pub tolerance: Option<f64>,
}

/// The committed `BENCH_phase_profile.json` contents.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseProfile {
    /// Circuit the profile was recorded on.
    pub circuit: String,
    /// Default absolute share tolerance.
    pub tolerance: f64,
    /// Expected phases, heaviest first.
    pub phases: Vec<Phase>,
}

/// Parses a committed phase profile.
pub fn phase_profile_from(log: &CampaignLog) -> Result<PhaseProfile, String> {
    let header = log
        .of_type("phase_profile")
        .next()
        .ok_or("no `phase_profile` header record (not a phase profile file?)")?;
    let tolerance = header
        .get("tolerance")
        .and_then(rls_dispatch::jsonl::JsonValue::as_f64)
        .unwrap_or(DEFAULT_TOLERANCE);
    let phases: Vec<Phase> = log
        .of_type("phase")
        .map(|p| Phase {
            name: p.str_field("name").unwrap_or("?").to_string(),
            self_share: p
                .get("self_share")
                .and_then(rls_dispatch::jsonl::JsonValue::as_f64)
                .unwrap_or(0.0),
            tolerance: p
                .get("tolerance")
                .and_then(rls_dispatch::jsonl::JsonValue::as_f64),
        })
        .collect();
    if phases.is_empty() {
        return Err("no `phase` records".into());
    }
    Ok(PhaseProfile {
        circuit: header.str_field("circuit").unwrap_or("?").to_string(),
        tolerance,
        phases,
    })
}

/// Renders a phase profile for committing, from measured shares.
pub fn render_phase_profile(circuit: &str, tolerance: f64, shares: &[(String, f64)]) -> String {
    let mut out = format!(
        "{{\"type\":\"phase_profile\",\"version\":1,\"circuit\":\"{circuit}\",\
         \"tolerance\":{tolerance}}}\n"
    );
    for (name, share) in shares {
        let _ = writeln!(
            out,
            "{{\"type\":\"phase\",\"name\":\"{name}\",\"self_share\":{share:.4}}}"
        );
    }
    out
}

/// Compares measured shares against a committed profile. Returns one
/// message per breach: a committed phase whose share moved beyond its
/// tolerance, or a new phase heavy enough that the profile should have
/// mentioned it.
pub fn gate_breaches(shares: &[(String, f64)], profile: &PhaseProfile) -> Vec<String> {
    let mut breaches = Vec::new();
    for phase in &profile.phases {
        let tol = phase.tolerance.unwrap_or(profile.tolerance);
        let measured = shares
            .iter()
            .find(|(n, _)| n == &phase.name)
            .map_or(0.0, |(_, s)| *s);
        if (measured - phase.self_share).abs() > tol {
            breaches.push(format!(
                "phase `{}`: self-time share {:.1}% is outside {:.1}% ± {:.0} share points",
                phase.name,
                100.0 * measured,
                100.0 * phase.self_share,
                100.0 * tol,
            ));
        }
    }
    for (name, share) in shares {
        if *share > profile.tolerance && !profile.phases.iter().any(|p| &p.name == name) {
            breaches.push(format!(
                "phase `{name}`: {:.1}% of self time but absent from the committed profile",
                100.0 * share,
            ));
        }
    }
    breaches
}

/// Human-readable gate report (printed before the verdict).
pub fn render_gate(shares: &[(String, f64)], profile: &PhaseProfile) -> String {
    let mut out = format!(
        "phase gate vs committed profile ({}, ±{:.0} share points default)\n\n",
        profile.circuit,
        100.0 * profile.tolerance,
    );
    for phase in &profile.phases {
        let measured = shares
            .iter()
            .find(|(n, _)| n == &phase.name)
            .map_or(0.0, |(_, s)| *s);
        let _ = writeln!(
            out,
            "  {:28} committed {:5.1}%   measured {:5.1}%",
            phase.name,
            100.0 * phase.self_share,
            100.0 * measured,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(path: &str, start: u64, nanos: u64) -> Span {
        Span {
            path: path.into(),
            tid: 1,
            start_nanos: start,
            nanos,
        }
    }

    /// A nested single-threaded tree: run(1000) → trial(700) → fsim
    /// (400 across two calls), plus a second root-level run.
    fn sample() -> Vec<Span> {
        vec![
            span("run/trial/fsim.test", 120, 300),
            span("run/trial/fsim.test", 450, 100),
            span("run/trial", 100, 700),
            span("run", 0, 1000),
            span("other", 2000, 50),
        ]
    }

    #[test]
    fn collapse_computes_total_self_and_count() {
        let frames = collapse(&sample());
        let by_path: BTreeMap<&str, &Frame> = frames.iter().map(|f| (f.path.as_str(), f)).collect();
        let fsim = by_path["run/trial/fsim.test"];
        assert_eq!(
            (fsim.total_nanos, fsim.self_nanos, fsim.count),
            (400, 400, 2)
        );
        assert_eq!(fsim.first_start, 120);
        let trial = by_path["run/trial"];
        assert_eq!((trial.total_nanos, trial.self_nanos), (700, 300));
        let run = by_path["run"];
        assert_eq!((run.total_nanos, run.self_nanos), (1000, 300));
        assert_eq!(by_path["other"].self_nanos, 50);
    }

    #[test]
    fn self_times_sum_to_root_totals_on_a_nested_tree() {
        let frames = collapse(&sample());
        assert_eq!(self_total(&frames), root_total(&frames));
        assert_eq!(root_total(&frames), 1050);
    }

    #[test]
    fn overlapping_children_saturate_instead_of_underflowing() {
        // Two concurrent 600ns children under a 1000ns parent (sharded
        // fsim): parent self clamps to 0 rather than wrapping.
        let spans = vec![
            span("run", 0, 1000),
            span("run/fsim.test", 10, 600),
            span("run/fsim.test", 10, 600),
        ];
        let frames = collapse(&spans);
        let parent = frames.iter().find(|f| f.path == "run").unwrap();
        assert_eq!(parent.self_nanos, 0);
    }

    #[test]
    fn collapsed_text_uses_semicolons_and_skips_zero_frames() {
        let text = collapsed_text(&collapse(&sample()));
        assert!(text.contains("run;trial;fsim.test 400"), "{text}");
        assert!(text.contains("run;trial 300"), "{text}");
        assert!(text.contains("run 300"), "{text}");
        assert!(text.contains("other 50"), "{text}");
    }

    #[test]
    fn shares_aggregate_by_name_across_stacks() {
        let spans = vec![
            span("a", 0, 100),
            span("a/hot", 0, 60),
            span("b", 200, 100),
            span("b/hot", 200, 80),
        ];
        let shares = self_shares(&collapse(&spans));
        assert_eq!(shares[0].0, "hot");
        assert!((shares[0].1 - 0.7).abs() < 1e-9, "{shares:?}");
        let total: f64 = shares.iter().map(|(_, s)| s).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn svg_is_self_contained_with_tooltips_and_labels() {
        let svg = render_svg(&collapse(&sample()), "obs-test");
        assert!(svg.starts_with("<svg xmlns="));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert!(svg.contains("<title>"), "hover tooltips present");
        assert!(svg.contains("fsim.test"), "{svg}");
        assert!(!svg.contains("href"), "no external references");
        assert!(!svg.contains("<script"), "no scripts");
        // Every frame renders exactly one rect (plus the background).
        assert_eq!(svg.matches("<rect").count(), collapse(&sample()).len() + 1);
    }

    #[test]
    fn profile_round_trips_and_gates_shifted_shares() {
        let shares = vec![("fsim.test".to_string(), 0.62), ("atpg".to_string(), 0.38)];
        let rendered = render_phase_profile("s953", 0.10, &shares);
        let dir = std::env::temp_dir().join(format!("rls-profile-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("profile.json");
        std::fs::write(&path, &rendered).unwrap();
        let profile = phase_profile_from(&CampaignLog::read(&path).unwrap()).unwrap();
        assert_eq!(profile.circuit, "s953");
        assert_eq!(profile.phases.len(), 2);
        assert!(gate_breaches(&shares, &profile).is_empty());
        // Within tolerance: fine. Beyond: breach names the phase.
        let drifted = vec![("fsim.test".to_string(), 0.55), ("atpg".to_string(), 0.45)];
        assert!(gate_breaches(&drifted, &profile).is_empty());
        let shifted = vec![("fsim.test".to_string(), 0.30), ("atpg".to_string(), 0.70)];
        let breaches = gate_breaches(&shifted, &profile);
        assert_eq!(breaches.len(), 2, "{breaches:?}");
        assert!(breaches[0].contains("fsim.test"), "{breaches:?}");
        // A heavy phase the profile never mentioned is also a breach.
        let novel = vec![
            ("fsim.test".to_string(), 0.60),
            ("atpg".to_string(), 0.25),
            ("mystery".to_string(), 0.15),
        ];
        let breaches = gate_breaches(&novel, &profile);
        assert!(
            breaches.iter().any(|b| b.contains("mystery")),
            "{breaches:?}"
        );
    }

    #[test]
    fn chrome_trace_maps_spans_and_recorder_events() {
        let dir = std::env::temp_dir().join(format!("rls-trace-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mixed.jsonl");
        std::fs::write(
            &path,
            concat!(
                "{\"type\":\"obs\",\"version\":1,\"run_id\":\"t\"}\n",
                "{\"type\":\"span\",\"name\":\"fsim.test\",\"path\":\"fsim.test\",\"id\":1,\
                 \"parent\":0,\"tid\":2,\"start_nanos\":1500,\"nanos\":2500,\"fields\":{}}\n",
                "{\"type\":\"rec_event\",\"kind\":\"mark\",\"name\":\"fsim.batch\",\"tid\":2,\
                 \"seq\":0,\"t_nanos\":1600,\"value\":64}\n",
                "{\"type\":\"rec_event\",\"kind\":\"enter\",\"name\":\"fsim.test\",\"tid\":2,\
                 \"seq\":1,\"t_nanos\":1500,\"value\":1}\n",
                "{\"type\":\"rec_event\",\"kind\":\"exit\",\"name\":\"fsim.test\",\"tid\":2,\
                 \"seq\":2,\"t_nanos\":4000,\"value\":1}\n",
                "{\"type\":\"rec_event\",\"kind\":\"counter\",\"name\":\"fsim.tests\",\"tid\":2,\
                 \"seq\":3,\"t_nanos\":4000,\"value\":7}\n",
            ),
        )
        .unwrap();
        let trace = chrome_trace(&CampaignLog::read(&path).unwrap()).unwrap();
        assert!(trace.contains("\"ph\":\"X\""), "{trace}");
        assert!(trace.contains("\"dur\":2.500"), "{trace}");
        assert!(trace.contains("\"ph\":\"i\""), "{trace}");
        assert!(trace.contains("\"ph\":\"B\""), "{trace}");
        assert!(trace.contains("\"ph\":\"E\""), "{trace}");
        assert!(trace.contains("\"ph\":\"C\""), "{trace}");
        // The whole document is one valid JSON value.
        assert!(rls_dispatch::jsonl::parse(&trace).is_ok());
    }
}
