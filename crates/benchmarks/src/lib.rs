//! Benchmark circuits for the random limited-scan experiments.
//!
//! The paper evaluates on ISCAS-89 and ITC-99 circuits. Those netlists are
//! not distributable with this repository, so this crate provides:
//!
//! - [`s27()`]: the one circuit whose netlist is fully pinned down by the
//!   paper's own worked example (Section 2 / Table 1), embedded verbatim;
//! - [`profiles`]: the published size profiles (PI/PO/FF/gate counts) of
//!   every circuit in the paper's result tables;
//! - [`synth`]: a deterministic, profile-matched synthetic circuit
//!   generator producing stand-ins with the same interface sizes and with
//!   injected random-pattern-resistant structure, so the *shape* of every
//!   experiment is preserved (see DESIGN.md for the substitution argument);
//! - [`parametric`]: small hand-written families (counters, shift
//!   registers) used by unit and property tests;
//! - [`registry`]: name-based lookup — `s27` resolves to the real netlist,
//!   every other paper circuit resolves to its synthetic stand-in.
//!
//! # Example
//!
//! ```
//! let c = rls_benchmarks::by_name("s27").unwrap();
//! assert_eq!(c.num_dffs(), 3);
//! let stand_in = rls_benchmarks::by_name("s208").unwrap();
//! assert_eq!(stand_in.num_dffs(), 8); // N_SV matches the paper
//! ```

pub mod parametric;
pub mod profiles;
pub mod registry;
pub mod s27;
pub mod synth;

pub use profiles::{profile, Profile, PAPER_PROFILES};
pub use registry::{all_names, by_name, load_bench_from, table6_names, BENCH_DIR_VAR};
pub use s27::s27;
pub use synth::SynthConfig;
