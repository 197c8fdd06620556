//! Real ISCAS-89 netlists via `RLS_BENCH_DIR`.
//!
//! The registry ships a real s27 plus profile-matched synthetic stand-ins
//! for the paper's other circuits (the true ISCAS-89/ITC-99 sources are
//! not redistributable here). Pointing `RLS_BENCH_DIR` at a directory of
//! real `<name>.bench` files swaps them in everywhere — Procedure 2
//! runs and table reproduction all go through `rls_benchmarks::by_name`.
//!
//! The cross-check against real netlists is `#[ignore]`d by default (the
//! repo has no netlist directory to point at); run it where one exists:
//!
//! ```text
//! RLS_BENCH_DIR=/path/to/iscas89 cargo test --test bench_dir -- --ignored
//! ```
//!
//! Environment mutation is process-global, so the env-touching test and
//! the env-reading cross-check serialize on one lock.

use std::path::PathBuf;
use std::sync::{Mutex, PoisonError};

static ENV_LOCK: Mutex<()> = Mutex::new(());

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rls-bench-dir-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A deliberately-distinguishable s27 stand-in: one input where the real
/// s27 has four, so an override is impossible to confuse with the
/// registry circuit.
const OVERRIDE_S27: &str = "INPUT(G0)\nOUTPUT(G17)\nG5 = DFF(G17)\nG17 = NOR(G0, G5)\n";

#[test]
fn bench_dir_overrides_reach_every_by_name_consumer() {
    let _guard = ENV_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let dir = scratch("override");
    std::fs::write(dir.join("s27.bench"), OVERRIDE_S27).unwrap();

    assert_eq!(
        rls_benchmarks::s27().num_inputs(),
        4,
        "embedded s27 untouched"
    );
    std::env::set_var(rls_benchmarks::BENCH_DIR_VAR, &dir);
    let overridden = rls_benchmarks::by_name("s27").expect("s27 resolves");
    assert_eq!(
        overridden.num_inputs(),
        1,
        "RLS_BENCH_DIR wins over the registry"
    );
    // Names that try to escape the directory fall back to the registry
    // rather than touching the filesystem.
    assert!(rls_benchmarks::by_name("../s27").is_none());
    std::env::remove_var(rls_benchmarks::BENCH_DIR_VAR);
    assert_eq!(
        rls_benchmarks::by_name("s27")
            .expect("s27 resolves")
            .num_inputs(),
        4,
        "without the variable the registry is back"
    );
}

/// Cross-checks real ISCAS-89 netlists against the registry's paper
/// profiles: every `<name>.bench` present under `RLS_BENCH_DIR` must
/// parse, and its structural counts must match Table 6's row (the
/// synthetic stand-ins were built from exactly these counts).
#[test]
#[ignore = "needs RLS_BENCH_DIR pointing at real ISCAS-89 .bench files"]
fn real_netlists_match_the_paper_profiles() {
    let _guard = ENV_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let Some(dir) = std::env::var_os(rls_benchmarks::BENCH_DIR_VAR) else {
        panic!("set RLS_BENCH_DIR to run this cross-check");
    };
    let dir = PathBuf::from(dir);
    let mut checked = 0usize;
    for name in rls_benchmarks::all_names() {
        let Some(real) = rls_benchmarks::load_bench_from(&dir, name) else {
            continue; // not provided; the registry stand-in covers it
        };
        let profile = rls_benchmarks::profile(name).expect("registered profile");
        assert_eq!(real.num_inputs(), profile.inputs, "{name}: primary inputs");
        assert_eq!(
            real.num_outputs(),
            profile.outputs,
            "{name}: primary outputs"
        );
        assert_eq!(real.num_dffs(), profile.dffs, "{name}: flip-flops");
        checked += 1;
    }
    assert!(
        checked > 0,
        "RLS_BENCH_DIR is set but holds no recognized netlists"
    );
    eprintln!("cross-checked {checked} real netlists against paper profiles");
}
