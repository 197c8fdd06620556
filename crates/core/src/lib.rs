//! Random limited-scan test generation — the method of Pomeranz,
//! *"Random Limited-Scan to Improve Random Pattern Testing of Scan
//! Circuits"*, DAC 2001.
//!
//! # The method
//!
//! 1. A reproducible random base test set `TS0` ([`ts0`]) holds `N` tests
//!    of length `L_A` and `N` tests of length `L_B`; each test scans in a
//!    random state, applies its vectors at speed, and scans out.
//! 2. **Procedure 1** ([`procedure1`]) derives `TS(I, D1)` from `TS0` by
//!    randomly inserting *limited scan operations*: at each interior time
//!    unit, with probability `1/D1`, the state is shifted right by
//!    `r2 mod D2` positions (`D2 = N_SV + 1`), scanning out the shifted
//!    bits and scanning in fresh random bits.
//! 3. **Procedure 2** ([`procedure2`]) greedily accumulates `(I, D1)` pairs
//!    — simulating each derived set against the remaining faults and
//!    keeping the pairs that detect something — until the coverage target
//!    is reached or `N_SAME_FC` iterations bring no improvement.
//! 4. Parameter selection ([`params`]) ranks `(L_A, L_B, N)` combinations
//!    by the base cost `N_cyc0 = (2N+1)·N_SV + N(L_A+L_B)` and takes the
//!    first that reaches complete coverage (the paper's Table 5 order).
//!
//! Costs are measured in clock cycles ([`cycles`]); the quality metrics of
//! the paper's tables (detected faults, cycle totals, the average number of
//! limited-scan time units `n̄_ls`) come from [`metrics`] and the experiment
//! drivers in [`experiment`].
//!
//! # Example
//!
//! ```
//! use rls_core::{Procedure2, RlsConfig};
//!
//! let circuit = rls_benchmarks::s27();
//! let cfg = RlsConfig::new(4, 8, 8);
//! let outcome = Procedure2::new(&circuit, cfg).run();
//! assert!(outcome.final_coverage().detected > 0);
//! ```

pub mod baseline;
pub mod config;
pub mod cycles;
pub mod experiment;
pub mod extension;
pub mod metrics;
pub mod params;
pub mod procedure1;
pub mod procedure2;
pub mod report;
pub mod resume;
pub mod ts0;

pub use config::{ConfigError, CoverageTarget, D1Order, FillMode, RlsConfig, SeedMode};
pub use cycles::ncyc0;
pub use experiment::{CircuitResult, ComboOutcome, ExecProfile};
pub use extension::{run_multichain, run_partial, MultiChainOutcome, PartialOutcome};
pub use metrics::LsAverage;
pub use params::{rank_combinations, Combo, PAPER_LA_GRID, PAPER_LB_GRID, PAPER_N_GRID};
pub use procedure1::{derive_test_set, derive_test_set_on};
pub use procedure2::{Procedure2, Procedure2Outcome, SelectedPair};
pub use resume::{fingerprint, load_checkpoint, ResumeError, ResumeState};
pub use ts0::{generate_ts0, generate_ts0_on};
