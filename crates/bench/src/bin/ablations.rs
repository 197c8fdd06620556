//! Ablation study of the design choices the paper fixes silently
//! (DESIGN.md §4): for each knob, run Procedure 2 with everything else at
//! the paper's setting and compare coverage / pairs / cycles.
//!
//! Knobs:
//! - `D2` (maximum shift + 1): the paper's `N_SV + 1` vs. tighter caps;
//! - schedule seeding: per-test re-seed with `seed(I)` (paper-literal) vs.
//!   a free-running stream;
//! - limited-scan fill: random bits (paper) vs. zeros;
//! - observation points: full (paper) vs. disabling the mid-test scan-out
//!   observation or the state-change effect in isolation — the two
//!   detection mechanisms of the paper's Section 2.
//!
//! Usage: `ablations [circuit...]` (default: s298).
//!
//! Execution: `RLS_THREADS=n` runs trials n at a time, `RLS_CAMPAIGN_DIR=dir`
//! persists JSONL campaign records, and `--resume <file>` (or `RLS_RESUME`)
//! restarts an interrupted campaign from its last checkpoint.

use rls_core::experiment::detectable_target;
use rls_core::report::{kilo, TextTable};
use rls_core::{FillMode, Procedure2, RlsConfig, SeedMode};
use rls_fsim::SimOptions;

struct Variant {
    label: &'static str,
    tweak: fn(&mut RlsConfig, usize),
}

fn variants() -> Vec<Variant> {
    vec![
        Variant {
            label: "paper defaults",
            tweak: |_, _| {},
        },
        Variant {
            label: "D2 = N_SV/4 + 1",
            tweak: |cfg, n_sv| cfg.d2_override = Some(n_sv as u32 / 4 + 1),
        },
        Variant {
            label: "D2 = 2 (single-bit shifts)",
            tweak: |cfg, _| cfg.d2_override = Some(2),
        },
        Variant {
            label: "free-running schedule seed",
            tweak: |cfg, _| cfg.seed_mode = SeedMode::FreeRunning,
        },
        Variant {
            label: "zero fill",
            tweak: |cfg, _| cfg.fill_mode = FillMode::Zero,
        },
        Variant {
            label: "no limited-scan-out observation",
            tweak: |cfg, _| {
                cfg.observe = SimOptions {
                    observe_limited_scan_out: false,
                    ..SimOptions::default()
                }
            },
        },
        Variant {
            label: "no state randomization (zero fill + no scan-out)",
            tweak: |cfg, _| {
                cfg.fill_mode = FillMode::Zero;
                cfg.observe = SimOptions {
                    observe_limited_scan_out: false,
                    ..SimOptions::default()
                }
            },
        },
    ]
}

fn main() {
    let names = rls_bench::circuits_from_args(&["s298"]);
    let exec = rls_bench::exec_profile();
    let table = rls_bench::table_span("ablations");
    for name in &names {
        let _circuit = rls_bench::circuit_span(name);
        let c = rls_bench::circuit(name);
        let info = detectable_target(&c, rls_bench::DEFAULT_BACKTRACK_LIMIT);
        println!(
            "Ablations on {name} ({} detectable faults), base combo (8,16,64):\n",
            info.detectable
        );
        let mut t = TextTable::new(vec!["variant", "app", "det", "cycles", "ls", "complete"]);
        for v in variants() {
            let mut cfg = RlsConfig::new(8, 16, 64).with_target(info.target.clone());
            (v.tweak)(&mut cfg, c.num_dffs());
            let out = Procedure2::new(&c, exec.configure(cfg)).run();
            t.row(vec![
                v.label.to_string(),
                out.pairs.len().to_string(),
                format!("{}/{}", out.total_detected, out.target_faults),
                kilo(out.total_cycles),
                out.ls_average()
                    .map(|l| format!("{:.2}", l.value()))
                    .unwrap_or_default(),
                if out.complete { "yes" } else { "NO" }.to_string(),
            ]);
        }
        println!("{}", t.render());
    }
    rls_bench::finish_obs(table);
}
