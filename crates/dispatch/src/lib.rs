//! Multi-threaded campaign execution for random limited-scan testing.
//!
//! Procedure 2 fault-simulates one derived test set per `(I, D1)` trial;
//! on large circuits that inner loop dominates the wall clock. This crate
//! shards those simulations across one persistent pool of worker threads —
//! std-only (`std::thread`, mutex/condvar, atomics), no external
//! dependencies — while keeping the result *bit-identical* to the
//! sequential oracle.
//!
//! # Architecture
//!
//! - [`shared`]: the [`SharedPool`] — owned supervised workers serving
//!   any number of registered campaigns with fair round-robin budgets —
//!   plus [`SharedSetRunner`], which computes one test set's detections
//!   against a live list its caller owns: it fans the set out as
//!   contiguous test-block jobs, each running `rls_fsim`'s one tile walk,
//!   and reduces detections in live-list order at the set barrier. The
//!   runner keeps no fault list; `rls_core`'s executor keeps it in a
//!   `FaultSimulator` and applies what the runner returns. Direct runs
//!   register one campaign on a private pool; the `rls-serve` campaign
//!   server shares one pool across requests;
//! - [`executor`]: the wave protocol underneath the runner — the
//!   budget-sized [`test_blocks`] whose indices tag the jobs, the retry
//!   budget, and [`SetFailure`];
//! - [`pool`]: per-worker atomic counters ([`WorkerCounters`]), their
//!   [`PoolSnapshot`], and classified [`JobFailure`]s;
//! - [`bitset`]: the [`AtomicBitset`] fault-drop state of one set —
//!   workers publish detections with `fetch_or`, so a fault detected
//!   anywhere is dropped everywhere mid-test-set;
//! - [`campaign`]: [`Campaign`] JSONL records — header, per-trial lines,
//!   checkpoints, per-worker counters, summary — appended crash-safely
//!   under `results/` through `rls_obs::jsonl`'s durable file and read
//!   back by [`CampaignLog`];
//! - [`error`]: structured [`DispatchError`] for persistence and parsing;
//! - [`inject`]: deterministic fault injection behind the `fault-inject`
//!   feature (no-op inlines otherwise), driving `tests/resilience.rs`.
//!
//! # Resilience
//!
//! Workers are supervised: a panicking job is caught, recorded as a
//! classified [`JobFailure`] under the tag it was submitted with, and the
//! worker carries on. [`SharedSetRunner`] retries failed jobs for a
//! bounded number of waves; if a job keeps failing, the caller drops the
//! runner and runs the set, and every later one, on its own sequential
//! `FaultSimulator` — the bit-identical oracle — rather than aborting.
//!
//! # Determinism guarantee
//!
//! Within a set, detection of a fault by a test is independent of batch
//! composition and scheduling (kernel lanes are independent), and the
//! set's bitset is monotone, so the detected *set* at a barrier is the
//! same union a sequential run computes. Reductions merge in live-list
//! order; across sets the campaign is driven sequentially (the paper's
//! greedy selection is order-sensitive by design). Hence `threads = N`
//! yields byte-for-byte the same outcome as `threads = 1` — the
//! sequential path is preserved as the oracle and CI asserts equality.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//!
//! use rls_dispatch::{SharedPool, SharedSetRunner};
//! use rls_fsim::{ChainMap, CompiledCircuit, FaultSimulator, ScanTest, SimOptions};
//!
//! let compiled = Arc::new(CompiledCircuit::compile(rls_benchmarks::s27()).unwrap());
//! let mut sim = FaultSimulator::on(Arc::clone(&compiled));
//! let pool = SharedPool::new(2);
//! let chains = ChainMap::full(3);
//! let runner = SharedSetRunner::new(compiled, chains, SimOptions::default(), pool.register(2));
//! let test = ScanTest::from_strings("001", &["0111", "1001"]).unwrap();
//! let newly = runner.try_run_set(sim.live(), &[test]).unwrap();
//! assert!(!newly.is_empty());
//! sim.apply_detections(&newly);
//! assert_eq!(sim.detected(), &newly[..]);
//! ```

pub mod bitset;
pub mod campaign;
pub mod error;
pub mod executor;
pub mod inject;
pub mod pool;
pub mod shared;

pub use bitset::AtomicBitset;
pub use campaign::{Campaign, CampaignLog, CampaignSummary, TrialRecord};
pub use error::DispatchError;
pub use executor::{test_blocks, SetFailure};
pub use pool::{FailureClass, JobFailure, PoolSnapshot, WorkerCounters, WorkerSnapshot};
pub use shared::{CampaignHandle, SharedPool, SharedSetRunner};
