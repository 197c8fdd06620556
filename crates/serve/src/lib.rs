//! `rls-serve` — a long-running campaign server for random limited-scan
//! testing.
//!
//! A direct `Procedure2::run` owns its worker pool for the life of one
//! campaign. This crate turns that inside out: one **persistent shared
//! executor** ([`rls_dispatch::SharedPool`]) outlives every campaign, and
//! clients submit campaign requests over a Unix-domain socket speaking
//! newline-delimited JSON. Many campaigns run concurrently over the same
//! worker threads with fair round-robin scheduling, a shared
//! compiled-circuit cache, and admission control.
//!
//! # Modules
//!
//! - [`protocol`]: the wire grammar — request parsing, response frames,
//!   and the [`protocol::normalize_line`] helper the byte-compare tests
//!   and `rls_client` use to strip volatile timing fields;
//! - [`cache`]: the [`cache::CircuitCache`] — compiled circuits plus
//!   collapsed fault lists keyed by config fingerprint, compiled once and
//!   shared across concurrent campaigns;
//! - [`exec`]: the [`exec::ServedExecutor`] — the `TrialExecutor` that
//!   wraps the same `rls_core::CampaignExecutor` a direct run drives
//!   (shared pool, sequential degrade on poisoned jobs) and stops at trial
//!   boundaries when the server drains, the client disconnects, the
//!   watchdog flags a stall, or a deadline lapses;
//! - [`server`]: the accept loop, per-connection sessions, admission
//!   control, and graceful drain;
//! - [`stats`]: live introspection — the per-campaign
//!   [`stats::CampaignProgress`] atomics every run's record observer
//!   updates, and the `stats`/`progress` frames answered to the `stats`
//!   and `watch` requests (see `rls_client stats` / `rls_client watch`);
//! - [`journal`]: the crash-recovery journal — every admitted campaign
//!   is journaled before its run id is announced, and a restarted server
//!   replays the in-flight entries under the same run ids;
//! - [`watchdog`]: the liveness heartbeat — campaigns with no trial
//!   progress within the deadline are requeued from their checkpoints
//!   and, after bounded retries, degraded to the sequential path.
//!
//! # Determinism
//!
//! A served campaign is **bit-identical** to a direct run of the same
//! configuration: it runs the very same `rls_core::CampaignExecutor` on the
//! same pool type a direct run starts (see `rls_dispatch::shared`), the
//! campaign records stream through the very same `Campaign` writer, and
//! the integration suite byte-compares served record lines (volatile
//! wall-clock fields normalized away) against a direct run's campaign
//! file — including under concurrent clients sharing the executor.
//!
//! See DESIGN.md §11 for the protocol grammar, executor lifecycle, cache
//! keying, and drain semantics, and §12 for the self-healing service:
//! journal format, watchdog state machine, and deadline semantics.

pub mod cache;
pub mod exec;
pub mod journal;
pub mod protocol;
pub mod server;
pub mod stats;
pub mod watchdog;

pub use cache::CircuitCache;
pub use exec::{CancelCause, ServedExecutor};
pub use journal::Journal;
pub use protocol::{
    backoff_ms, fnv1a, normalize_line, normalize_recovered, retry_after_hint, CircuitRef, Request,
    RunRequest, MAX_REQUEST_BYTES,
};
pub use server::{ServeConfig, Server};
pub use stats::{CampaignProgress, RunPhase, ServerCounters};
pub use watchdog::Watchdog;
