//! Combinational ATPG (PODEM) and redundancy identification on the
//! scan-expanded circuit.
//!
//! With full scan, a stuck-at fault is detectable if and only if it is
//! detectable in the scan-expanded combinational view ([`rls_netlist::CombView`]):
//! flip-flop outputs are freely controllable (scan-in) and flip-flop data
//! inputs are freely observable (scan-out). The paper declares "complete
//! fault coverage" over exactly these detectable faults; this crate
//! computes that reference set:
//!
//! - [`podem::Podem`] — the classic PODEM algorithm over a two-plane
//!   (good/faulty) three-valued simulation, with a backtrack limit.
//!   Implication is event-driven: a decision re-evaluates only the gates
//!   whose inputs changed, level by level, and logs the old values on an
//!   undo trail that a backtrack rewinds. Gates are evaluated in place
//!   over flat per-net arrays, in both planes only inside the fault's
//!   cone, and success is checked only at ports an implication wrote.
//!   The D-frontier is searched only in the fault's cone. The search
//!   makes the same decisions as a
//!   full-recompute engine, which the workspace's `tests/podem_oracle.rs`
//!   keeps as its differential reference;
//! - [`DetectableSet`] — per-fault classification
//!   (detectable / redundant / aborted) for a whole collapsed fault list,
//!   with a [`rls_fsim::ScanTest`] witness for every detectable fault. The list is
//!   classified on every core of the host and merged back in input
//!   order, so the set never depends on the width. Each call is traced
//!   as an `atpg.classify` span (with the width as its `workers` field)
//!   with summed `atpg.*` effort and verdict counters (see
//!   `rls_obs::names`).
//!
//! # Example
//!
//! ```
//! use rls_atpg::DetectableSet;
//!
//! let c = rls_benchmarks::s27();
//! let set = DetectableSet::compute(&c, 1000);
//! // Every collapsed fault of s27 is detectable.
//! assert_eq!(set.detectable().len(), 32);
//! assert!(set.redundant().is_empty());
//! ```

pub mod podem;
pub mod reference;
pub mod v3;

pub use podem::{Podem, PodemOutcome};
pub use reference::DetectableSet;
pub use v3::V3;
