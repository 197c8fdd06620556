//! Scan-chain machinery: full, partial and multichain scan as one
//! [`ChainMap`].
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
//! [`ChainMap`] implements the scan-in load, the limited scan and the
//! concluding scan-out for every scan style; [`PartialScan`] and
//! [`MultiChain`] describe the partial scan and multiple scan chain
//! extensions and convert into a map.
//!
//! # Example
//!
//! ```
//! use rls_scan::ChainMap;
//!
//! // The paper's s27 example: state 010 shifted right by one, fill 0.
//! let mut state = vec![false, true, false];
//! let out = ChainMap::full(3).limited_scan(&mut state, 1, &[false]);
//! assert_eq!(state, vec![false, false, true]); // 001
//! assert_eq!(out, vec![false]);                // bit scanned out
//! ```

pub mod chain_map;
pub mod multichain;
pub mod partial;

pub use chain_map::ChainMap;
pub use multichain::MultiChain;
pub use partial::PartialScan;
