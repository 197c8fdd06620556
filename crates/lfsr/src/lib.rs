//! Reproducible random sources and the MISR's primitive tap table.
//!
//! The paper's test generator must be realizable as "a random pattern
//! generator with simple control logic". This crate provides:
//!
//! - the [`RandomSource`] trait, the single abstraction every procedure in
//!   `rls-core` and the BIST controller model of `rls-bist` draws
//!   randomness through, with word-at-a-time draws
//!   ([`RandomSource::next_bits`]) that return exactly the bits as many
//!   single-bit draws would;
//! - the software generators [`XorShift64`] (test stimulus and schedules)
//!   and [`SplitMix64`] (seed derivation);
//! - the paper's `r mod D` draw ([`RandomSource::draw_mod`]): a number that
//!   is zero with probability `1/D`;
//! - deterministic seed derivation ([`derive_seed`]) implementing the
//!   paper's `seed(I)` family;
//! - the primitive-polynomial tap table ([`primitive_taps`]) the MISR of
//!   `rls-bist` compacts responses with.
//!
//! # Example
//!
//! ```
//! use rls_lfsr::{RandomSource, XorShift64};
//!
//! let mut rng = XorShift64::new(0xACE1);
//! let r1 = rng.draw_mod(5); // zero with probability ~1/5
//! assert!(r1 < 5);
//! ```

pub mod seed;
pub mod source;
pub mod taps;

pub use seed::{derive_seed, SeedSequence};
pub use source::{RandomSource, SplitMix64, XorShift64};
pub use taps::{primitive_taps, LfsrError, MAX_DEGREE, MIN_DEGREE};
