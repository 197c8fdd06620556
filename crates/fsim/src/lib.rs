//! Stuck-at fault simulation for scan tests with limited scan
//! operations.
//!
//! This crate is the evaluation engine of the reproduction: it applies a
//! [`ScanTest`] — scan-in, at-speed primary-input vectors, optional limited
//! scans, final scan-out — to a circuit and reports which collapsed
//! stuck-at faults are detected, at which of the paper's three observation
//! points:
//!
//! 1. primary outputs after each vector,
//! 2. the bits scanned out during a limited scan operation,
//! 3. the final complete scan-out.
//!
//! # Architecture
//!
//! - [`fault`]: the single-stuck-at fault universe — stem faults on every
//!   net plus branch faults on fanout input pins;
//! - [`collapse`]: classic structural equivalence collapsing (union-find
//!   over gate-local equivalence rules);
//! - [`good`]: scalar one-fault-at-a-time simulation — the fault-free
//!   trace that reproduces the paper's Table 1/Table 2 worked example,
//!   and the faulty traces that, compared by [`good::traces_differ`], are
//!   the serial reference oracle of the kernel;
//! - [`soa`]: the one stuck-at kernel — levelized SoA tiles over
//!   [`rls_netlist::LevelizedCircuit`], generic over the lane word but
//!   run in production on one word, [`KernelWord`] (512 lanes), split
//!   into (fault × pattern) axes, the fault-free machine in one reference
//!   lane per pattern, and scan style (full, partial, multichain) read
//!   from a [`ChainMap`]; each tile's height comes from the live fault
//!   count through one fill rule ([`fill_height`] over a
//!   [`compatible_run`]);
//! - [`engine`]: the [`CompiledCircuit`] (circuit, SoA lowering, fault
//!   universe and collapsed list, compiled once and shared behind an
//!   `Arc`), the one tile walk [`simulate_block`], which re-plans a tile
//!   from the live count before every kernel pass, and the
//!   [`FaultSimulator`], the owner of a campaign's fault list. The
//!   simulator runs its sets through the walk itself, or applies the
//!   detections of a set that `rls-dispatch`'s pool jobs computed with
//!   the same walk;
//! - [`partial_sim`] / [`multichain_sim`]: drivers for the partial-scan
//!   and multiple-chain extensions over the same engine;
//! - [`transition`]: the transition (delay) fault model's own 64-lane
//!   simulator;
//! - [`coverage`]: fault-coverage bookkeeping.
//!
//! # Modeling notes (see DESIGN.md)
//!
//! - Scan transport is fault-free: a fault on a flip-flop's output net
//!   forces the value the flip-flop presents (functionally and into the
//!   scan shift), but the shift path itself is not separately faulted.
//! - Scanned-in fill values are fault-independent (they come from the
//!   pattern generator).
//!
//! # Example
//!
//! ```
//! use rls_fsim::{FaultSimulator, ScanTest};
//!
//! let c = rls_benchmarks::s27();
//! let mut sim = FaultSimulator::new(&c);
//! let test = ScanTest::from_strings("001", &["0111", "1001"]).unwrap();
//! let detected = sim.run_test(&test);
//! assert!(!detected.is_empty());
//! ```

pub mod collapse;
pub mod coverage;
pub mod engine;
pub mod fault;
pub mod good;
pub mod multichain_sim;
pub mod partial_sim;
pub mod soa;
pub mod test;
pub mod transition;

pub use collapse::CollapsedFaults;
pub use coverage::Coverage;
pub use engine::{simulate_block, CompiledCircuit, FaultSimulator, LaneStats};
pub use fault::{Fault, FaultId, FaultSite, FaultUniverse};
pub use good::{GoodSim, TestTrace};
pub use multichain_sim::{run_tests_multichain, McScanTest, McShiftOp};
pub use partial_sim::run_tests_partial;
pub use rls_scan::{ChainMap, LaneWord};
pub use soa::{
    compatible_run, fill_height, max_tile_height, simulate_tile_lanes, tile_compatible,
    tile_fault_capacity, KernelWord, SimOptions, SoaBatch,
};
pub use test::{ScanTest, ShiftOp, TestError};
pub use transition::{
    enumerate_transition_faults, simulate_batch_transition, transition_coverage, TransitionFault,
};
