//! Multi-threaded campaign execution for random limited-scan testing.
//!
//! Procedure 2 fault-simulates one derived test set per `(I, D1)` trial;
//! on large circuits that inner loop dominates the wall clock. The `D1`
//! trials of one iteration all simulate against the same fault list, so
//! whole trials are independent work. This crate runs them on one
//! persistent pool of worker threads — std-only (`std::thread`,
//! mutex/condvar, atomics), no external dependencies — while keeping the
//! result *bit-identical* to the sequential oracle.
//!
//! # Architecture
//!
//! - [`shared`]: the [`SharedPool`] — one campaign's owned, supervised
//!   workers on one FIFO queue — plus [`SharedSetRunner`], which hands
//!   whole test sets to the pool as one tagged job each, every job
//!   running `rls_fsim`'s one tile walk against the live list its caller
//!   passed in, and collects each set's detections (with the retry waves
//!   and [`SetFailure`]). The runner keeps no fault list; `rls_core`'s
//!   executor keeps it in a `FaultSimulator` and applies what the runner
//!   returns;
//! - [`pool`]: per-worker atomic counters ([`WorkerCounters`]), their
//!   [`PoolSnapshot`], and [`JobFailure`]s;
//! - [`campaign`]: [`Campaign`] JSONL records — header, per-trial lines,
//!   checkpoints, summary, each a function of code, circuit,
//!   configuration and seed — appended crash-safely under `results/`
//!   through `rls_obs::jsonl`'s durable file and read back by
//!   [`CampaignLog`];
//! - [`error`]: structured [`DispatchError`] for persistence and parsing;
//! - [`inject`]: deterministic fault injection behind the `fault-inject`
//!   feature (no-op inlines otherwise), driving `tests/resilience.rs`.
//!
//! # Resilience
//!
//! Workers are supervised: a panicking job is caught, recorded as a
//! [`JobFailure`] under the tag it was submitted with, and the worker
//! carries on. [`SharedSetRunner`] retries failed jobs for a
//! bounded number of waves; if a set's job keeps failing, the caller runs
//! that set on its own sequential `FaultSimulator` — the bit-identical
//! oracle — and every later set there too, rather than aborting.
//!
//! # Determinism guarantee
//!
//! A set's detections against a given live list depend only on the set
//! and the list: kernel lanes are independent, and a job walks its whole
//! set exactly as the sequential engine does. The caller applies the
//! detections of a window's trials in `D1` order, ignoring faults an
//! earlier trial already dropped, which is exactly the live list each
//! trial sees when trials run one at a time (the paper's greedy selection
//! is order-sensitive by design). Hence `threads = N` yields byte-for-byte
//! the same outcome as `threads = 1` — the sequential path is preserved
//! as the oracle and CI asserts equality.
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
//! let chains = ChainMap::full(3);
//! let runner = SharedSetRunner::new(compiled, chains, SimOptions::default(), SharedPool::new(2));
//! let test = ScanTest::from_strings("001", &["0111", "1001"]).unwrap();
//! let newly = runner.try_run_set(sim.live(), &[test]).unwrap();
//! assert!(!newly.is_empty());
//! sim.apply_detections(&newly);
//! assert_eq!(sim.detected(), &newly[..]);
//! ```

pub mod campaign;
pub mod error;
pub mod inject;
pub mod pool;
pub mod shared;

pub use campaign::{Campaign, CampaignLog, CampaignSummary, TrialRecord};
pub use error::DispatchError;
pub use pool::{JobFailure, PoolSnapshot, WorkerCounters, WorkerSnapshot};
pub use shared::{SetFailure, SharedPool, SharedSetRunner, Submitted};
