//! Scan-chain machinery: full and limited scan operations and their cycle
//! costs.
//!
//! The paper's tests interleave three kinds of activity on a full-scan
//! circuit:
//!
//! 1. **Full scan** (`N_SV` clock cycles): writes all flip-flops while the
//!    previous state shifts out and is observed.
//! 2. **At-speed functional clocks** (1 cycle per primary-input vector).
//! 3. **Limited scan** (`k < N_SV` cycles, the paper's contribution): the
//!    state shifts right by `k` positions; the `k` bits that fall off the
//!    end are observed (extra fault-detection opportunity) and the `k`
//!    vacated leftmost positions take fresh random values.
//!
//! This crate implements those operations on plain `bool` state vectors,
//! plus cycle accounting, the multiple scan chain and partial scan
//! extensions, and the [`ChainMap`] that describes all three scan styles
//! as data for the fault simulator. [`LaneWord`] is the fault simulator's
//! bit-parallel word.
//!
//! # Example
//!
//! ```
//! use rls_scan::ops;
//!
//! // The paper's s27 example: state 010 shifted right by one, fill 0.
//! let mut state = vec![false, true, false];
//! let out = ops::limited_scan_bools(&mut state, 1, &[false]);
//! assert_eq!(state, vec![false, false, true]); // 001
//! assert_eq!(out, vec![false]);                // bit scanned out
//! ```

pub mod chain;
pub mod chain_map;
pub mod cost;
pub mod lanes;
pub mod multichain;
pub mod ops;
pub mod partial;

pub use chain::ChainConfig;
pub use chain_map::ChainMap;
pub use cost::{CycleCounter, OpCost};
pub use lanes::{LaneWord, WideWord, W128, W256, W512};
pub use multichain::MultiChain;
pub use partial::PartialScan;
