//! Deterministic fault injection for the resilience test suite.
//!
//! Behind the `fault-inject` feature this module lets tests inject worker
//! panics, delayed jobs, and IO errors at seeded points: the pool calls
//! [`on_job_start`] before running every job, and campaign persistence
//! calls [`on_io`] before every file operation. Injection decisions are a
//! pure function of a global call counter and the armed [`InjectionPlan`],
//! so a given plan fires at the same *logical* points on every run —
//! which jobs those are may vary with scheduling, but the dispatch layer
//! is built so that outcomes are invariant under exactly that kind of
//! perturbation (that invariance is what the suite verifies).
//!
//! With the feature disabled every hook compiles to an empty inline
//! function; production builds pay nothing.
//!
//! The plan is process-global: tests that arm it must serialize on a lock
//! (see `tests/resilience.rs`) and [`disarm`] when done.

/// What [`on_stream_write`] tells a serving layer to do to the next
/// frame. Always defined (the disarmed hook returns [`StreamFault::None`])
/// so callers need no feature gates of their own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamFault {
    /// Write the frame normally.
    None,
    /// Sleep this many milliseconds, then write normally (slow client).
    Delay(u64),
    /// Write only a prefix of the frame and treat the write as failed
    /// (torn line on the wire — the stream analogue of a torn file tail).
    Short,
    /// Skip the frame entirely and treat the write as failed (lost frame;
    /// the connection is considered broken so the client knows).
    Drop,
    /// Shut the socket down mid-stream and treat the write as failed.
    Kill,
}

/// What [`on_journal_append`] tells the journal to do to the next entry.
/// `Torn` crashes the process after writing half the entry (a torn tail
/// on disk — crash before the fsync); `Durable` crashes after the entry
/// is fully written and fsynced (crash after the fsync).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalCrash {
    /// Append normally.
    None,
    /// Write half the entry, then `process::exit` — the fsync never runs.
    Torn,
    /// Write and fsync the whole entry, then `process::exit`.
    Durable,
}

/// What to inject, and how often.
#[derive(Debug, Clone, Default)]
#[cfg(feature = "fault-inject")]
pub struct InjectionPlan {
    /// Panic at every `n`-th job start (1-based count over all jobs).
    pub panic_every: Option<u64>,
    /// Always panic jobs carrying this tag — a "poisoned job" that
    /// exhausts the retry budget and forces the degrade path.
    pub poison_tag: Option<u64>,
    /// Sleep `millis` at every `n`-th job start: `(n, millis)`.
    pub delay_every: Option<(u64, u64)>,
    /// Fail every `n`-th campaign IO operation with `ErrorKind::Other`.
    pub io_error_every: Option<u64>,
    /// Delay every `n`-th served stream write by `millis`: `(n, millis)`.
    pub stream_delay_every: Option<(u64, u64)>,
    /// Short-write (torn frame) every `n`-th served stream write.
    pub stream_short_every: Option<u64>,
    /// Drop every `n`-th served stream frame (and break the connection).
    pub stream_drop_every: Option<u64>,
    /// Kill the socket at every `n`-th served stream write.
    pub stream_kill_every: Option<u64>,
    /// Crash the process at the `n`-th journal append: `(n, kind)`.
    pub journal_crash_at: Option<(u64, JournalCrash)>,
    /// Perturb thread scheduling at every [`on_sched_point`] call, with
    /// the perturbation chosen by [`sched_verdict`] of this seed and the
    /// point's 1-based index. Two seeds give two different interleavings;
    /// the same seed replays the same perturbation schedule.
    pub sched_seed: Option<u64>,
}

/// The pure decision function behind [`on_sched_point`]: a splitmix64
/// mix of the armed seed and the 1-based call index. Exposed (and always
/// compiled) so the schedule-exploration harness can fingerprint a
/// seed's perturbation schedule without arming anything.
pub fn sched_verdict(seed: u64, call: u64) -> u64 {
    let mut z = seed ^ call.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Per-class fired counts for the stream fault points, reset by `arm`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamFired {
    /// Delayed writes.
    pub delays: u64,
    /// Short (torn) writes.
    pub shorts: u64,
    /// Dropped frames.
    pub drops: u64,
    /// Mid-stream socket kills.
    pub kills: u64,
}

#[cfg(feature = "fault-inject")]
mod armed {
    use super::{InjectionPlan, JournalCrash, StreamFault, StreamFired};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Mutex, PoisonError};

    struct State {
        plan: InjectionPlan,
        job_calls: u64,
        io_calls: u64,
        stream_calls: u64,
        journal_calls: u64,
        sched_calls: u64,
        stream_fired: StreamFired,
    }

    static STATE: Mutex<Option<State>> = Mutex::new(None);
    static FIRED: AtomicU64 = AtomicU64::new(0);

    /// Arms the plan and resets call/fired counters.
    pub fn arm(plan: InjectionPlan) {
        let mut st = STATE.lock().unwrap_or_else(PoisonError::into_inner);
        *st = Some(State {
            plan,
            job_calls: 0,
            io_calls: 0,
            stream_calls: 0,
            journal_calls: 0,
            sched_calls: 0,
            stream_fired: StreamFired::default(),
        });
        FIRED.store(0, Ordering::Relaxed); // lint: ordering-ok(test-only telemetry counter; asserted after the campaign joins, never read mid-run)
    }

    /// Disarms injection; hooks become no-ops again.
    pub fn disarm() {
        *STATE.lock().unwrap_or_else(PoisonError::into_inner) = None;
    }

    /// Number of faults injected since the last [`arm`].
    pub fn fired() -> u64 {
        FIRED.load(Ordering::Relaxed) // lint: ordering-ok(test-only telemetry counter; asserted after the campaign joins, never read mid-run)
    }

    /// Pool hook: runs before every job. May panic or sleep.
    pub fn on_job_start(tag: u64) {
        let mut delay = None;
        let mut boom: Option<String> = None;
        {
            let mut st = STATE.lock().unwrap_or_else(PoisonError::into_inner);
            let Some(state) = st.as_mut() else { return };
            state.job_calls += 1;
            let n = state.job_calls;
            if state.plan.poison_tag == Some(tag) {
                FIRED.fetch_add(1, Ordering::Relaxed); // lint: ordering-ok(test-only telemetry counter; asserted after the campaign joins)
                boom = Some(format!("injected panic: poisoned job tag {tag:#x}"));
            } else if state.plan.panic_every.is_some_and(|k| n % k == 0) {
                FIRED.fetch_add(1, Ordering::Relaxed); // lint: ordering-ok(test-only telemetry counter; asserted after the campaign joins)
                boom = Some(format!("injected panic: job call #{n}"));
            } else if let Some((k, millis)) = state.plan.delay_every {
                if n % k == 0 {
                    FIRED.fetch_add(1, Ordering::Relaxed); // lint: ordering-ok(test-only telemetry counter; asserted after the campaign joins)
                    delay = Some(millis);
                }
            }
            // Lock dropped before panicking or sleeping: a panic while
            // holding it would poison every later hook call.
        }
        if let Some(message) = boom {
            panic!("{message}"); // lint: panic-ok(the injected fault IS the panic; the supervisor under test must catch it)
        }
        if let Some(millis) = delay {
            std::thread::sleep(std::time::Duration::from_millis(millis));
        }
    }

    /// IO hook: runs before every campaign file operation.
    pub fn on_io(site: &str) -> std::io::Result<()> {
        let mut st = STATE.lock().unwrap_or_else(PoisonError::into_inner);
        let Some(state) = st.as_mut() else {
            return Ok(());
        };
        state.io_calls += 1;
        if state
            .plan
            .io_error_every
            .is_some_and(|k| state.io_calls % k == 0)
        {
            FIRED.fetch_add(1, Ordering::Relaxed); // lint: ordering-ok(test-only telemetry counter; asserted after the campaign joins)
            return Err(std::io::Error::other(format!(
                "injected io error at {site} (op #{})",
                state.io_calls
            )));
        }
        Ok(())
    }

    /// Stream hook: runs before every served frame write. The decision is
    /// a pure function of the armed plan and a global write counter; when
    /// several classes match the same write the most destructive wins.
    pub fn on_stream_write() -> StreamFault {
        let mut st = STATE.lock().unwrap_or_else(PoisonError::into_inner);
        let Some(state) = st.as_mut() else {
            return StreamFault::None;
        };
        state.stream_calls += 1;
        let n = state.stream_calls;
        let hit = |every: Option<u64>| every.is_some_and(|k| n % k == 0);
        let fault = if hit(state.plan.stream_kill_every) {
            state.stream_fired.kills += 1;
            StreamFault::Kill
        } else if hit(state.plan.stream_drop_every) {
            state.stream_fired.drops += 1;
            StreamFault::Drop
        } else if hit(state.plan.stream_short_every) {
            state.stream_fired.shorts += 1;
            StreamFault::Short
        } else if let Some((k, millis)) = state.plan.stream_delay_every {
            if n % k == 0 {
                state.stream_fired.delays += 1;
                StreamFault::Delay(millis)
            } else {
                StreamFault::None
            }
        } else {
            StreamFault::None
        };
        if fault != StreamFault::None {
            FIRED.fetch_add(1, Ordering::Relaxed); // lint: ordering-ok(test-only telemetry counter; asserted after the campaign joins)
        }
        fault
    }

    /// Per-class stream fault counts since the last [`arm`].
    pub fn stream_fired() -> StreamFired {
        let st = STATE.lock().unwrap_or_else(PoisonError::into_inner);
        st.as_ref().map(|s| s.stream_fired).unwrap_or_default()
    }

    /// Journal hook: runs before every journal append. A non-`None`
    /// verdict instructs the journal to crash the whole process at that
    /// append — before the fsync (`Torn`) or after it (`Durable`).
    pub fn on_journal_append() -> JournalCrash {
        let mut st = STATE.lock().unwrap_or_else(PoisonError::into_inner);
        let Some(state) = st.as_mut() else {
            return JournalCrash::None;
        };
        state.journal_calls += 1;
        match state.plan.journal_crash_at {
            Some((n, kind)) if state.journal_calls == n => {
                FIRED.fetch_add(1, Ordering::Relaxed); // lint: ordering-ok(test-only telemetry counter; the process is about to exit anyway)
                kind
            }
            _ => JournalCrash::None,
        }
    }

    /// Schedule hook: a seeded scheduling perturbation at a named yield
    /// point (`_site` is for debugging only — the decision depends purely
    /// on the armed seed and the global point counter, never the site).
    /// Dispatch inserts these at lock-free points of the shared pool so a
    /// seed explores one adversarial interleaving of submit / claim /
    /// drain / settle; the disarmed hook costs one mutex probe in test
    /// builds and nothing in production builds.
    pub fn on_sched_point(_site: &'static str) {
        let verdict = {
            let mut st = STATE.lock().unwrap_or_else(PoisonError::into_inner);
            let Some(state) = st.as_mut() else { return };
            let Some(seed) = state.plan.sched_seed else {
                return;
            };
            state.sched_calls += 1;
            super::sched_verdict(seed, state.sched_calls)
            // Lock dropped before perturbing: sleeping or spinning while
            // holding it would serialize every other hook call behind us,
            // collapsing the very interleavings the seed is exploring.
        };
        match verdict % 4 {
            0 => {} // run on undisturbed
            1 => std::thread::yield_now(),
            2 => {
                // A short spin: long enough to shift claim order, short
                // enough to keep 100+ seeded runs cheap.
                for _ in 0..(verdict >> 2) % 256 {
                    std::hint::spin_loop();
                }
            }
            _ => std::thread::sleep(std::time::Duration::from_micros((verdict >> 2) % 40)),
        }
    }

    /// Number of schedule points perturbed since the last [`arm`].
    pub fn sched_points() -> u64 {
        let st = STATE.lock().unwrap_or_else(PoisonError::into_inner);
        st.as_ref().map_or(0, |s| s.sched_calls)
    }

    /// Parses a chaos plan from a compact spec string and arms it —
    /// `key=value` pairs joined by commas, e.g.
    /// `"job_delay=1:40,stream_kill=17,journal_crash=2:durable"`.
    /// This is how the `rls-serve` binary (and re-exec'd chaos children)
    /// arm injection from the `RLS_CHAOS` environment variable.
    pub fn arm_from_spec(spec: &str) -> Result<(), String> {
        let mut plan = InjectionPlan::default();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("bad chaos spec `{part}` (want key=value)"))?;
            let num = |v: &str| {
                v.parse::<u64>()
                    .map_err(|_| format!("bad number `{v}` in chaos spec `{part}`"))
            };
            let pair = |v: &str| -> Result<(u64, u64), String> {
                let (a, b) = v
                    .split_once(':')
                    .ok_or_else(|| format!("`{part}` wants N:M"))?;
                Ok((num(a)?, num(b)?))
            };
            match key {
                "panic_every" => plan.panic_every = Some(num(value)?),
                "poison_tag" => plan.poison_tag = Some(num(value)?),
                "job_delay" => plan.delay_every = Some(pair(value)?),
                "io_error" => plan.io_error_every = Some(num(value)?),
                "stream_delay" => plan.stream_delay_every = Some(pair(value)?),
                "stream_short" => plan.stream_short_every = Some(num(value)?),
                "stream_drop" => plan.stream_drop_every = Some(num(value)?),
                "stream_kill" => plan.stream_kill_every = Some(num(value)?),
                "sched_seed" => plan.sched_seed = Some(num(value)?),
                "journal_crash" => {
                    let (n, kind) = value
                        .split_once(':')
                        .ok_or_else(|| format!("`{part}` wants N:torn|durable"))?;
                    let kind = match kind {
                        "torn" => JournalCrash::Torn,
                        "durable" => JournalCrash::Durable,
                        other => return Err(format!("bad journal crash kind `{other}`")),
                    };
                    plan.journal_crash_at = Some((num(n)?, kind));
                }
                other => return Err(format!("unknown chaos key `{other}`")),
            }
        }
        arm(plan);
        Ok(())
    }
}

#[cfg(feature = "fault-inject")]
pub use armed::{
    arm, arm_from_spec, disarm, fired, on_io, on_job_start, on_journal_append, on_sched_point,
    on_stream_write, sched_points, stream_fired,
};

/// No-op hook (fault injection compiled out).
#[cfg(not(feature = "fault-inject"))]
#[inline(always)]
pub fn on_job_start(_tag: u64) {}

/// No-op hook (fault injection compiled out).
#[cfg(not(feature = "fault-inject"))]
#[inline(always)]
pub fn on_io(_site: &str) -> std::io::Result<()> {
    Ok(())
}

/// No-op hook (fault injection compiled out).
#[cfg(not(feature = "fault-inject"))]
#[inline(always)]
pub fn on_stream_write() -> StreamFault {
    StreamFault::None
}

/// No-op hook (fault injection compiled out).
#[cfg(not(feature = "fault-inject"))]
#[inline(always)]
pub fn on_journal_append() -> JournalCrash {
    JournalCrash::None
}

/// No-op hook (fault injection compiled out).
#[cfg(not(feature = "fault-inject"))]
#[inline(always)]
pub fn on_sched_point(_site: &'static str) {}

#[cfg(all(test, feature = "fault-inject"))]
mod tests {
    use super::*;

    // Injection state is process-global; these unit tests serialize on a
    // local lock (the e2e suite in tests/resilience.rs has its own).
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn panic_every_fires_on_schedule() {
        let _g = LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        arm(InjectionPlan {
            panic_every: Some(2),
            ..InjectionPlan::default()
        });
        on_job_start(0); // #1: no fire
        let err = std::panic::catch_unwind(|| on_job_start(0)).unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("injected panic"), "{msg}");
        assert_eq!(fired(), 1);
        disarm();
        on_job_start(0); // disarmed: no fire
        assert_eq!(fired(), 1);
    }

    #[test]
    fn io_errors_fire_on_schedule() {
        let _g = LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        arm(InjectionPlan {
            io_error_every: Some(3),
            ..InjectionPlan::default()
        });
        assert!(on_io("t").is_ok());
        assert!(on_io("t").is_ok());
        let e = on_io("t").unwrap_err();
        assert!(e.to_string().contains("injected io error"), "{e}");
        disarm();
    }

    #[test]
    fn poison_tag_only_hits_its_tag() {
        let _g = LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        arm(InjectionPlan {
            poison_tag: Some(7),
            ..InjectionPlan::default()
        });
        on_job_start(3);
        assert!(std::panic::catch_unwind(|| on_job_start(7)).is_err());
        assert!(
            std::panic::catch_unwind(|| on_job_start(7)).is_err(),
            "persistent"
        );
        disarm();
    }

    #[test]
    fn stream_faults_fire_on_schedule_with_destructive_priority() {
        let _g = LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        arm(InjectionPlan {
            stream_delay_every: Some((2, 5)),
            stream_short_every: Some(3),
            stream_kill_every: Some(6),
            ..InjectionPlan::default()
        });
        let got: Vec<StreamFault> = (0..6).map(|_| on_stream_write()).collect();
        assert_eq!(
            got,
            [
                StreamFault::None,     // #1
                StreamFault::Delay(5), // #2
                StreamFault::Short,    // #3
                StreamFault::Delay(5), // #4
                StreamFault::None,     // #5
                StreamFault::Kill,     // #6: kill outranks delay and short
            ]
        );
        let counts = stream_fired();
        assert_eq!((counts.delays, counts.shorts, counts.kills), (2, 1, 1));
        disarm();
        assert_eq!(on_stream_write(), StreamFault::None);
    }

    #[test]
    fn journal_crash_hook_reports_exactly_one_op() {
        let _g = LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        arm(InjectionPlan {
            journal_crash_at: Some((2, JournalCrash::Torn)),
            ..InjectionPlan::default()
        });
        assert_eq!(on_journal_append(), JournalCrash::None);
        assert_eq!(on_journal_append(), JournalCrash::Torn);
        assert_eq!(
            on_journal_append(),
            JournalCrash::None,
            "fires once, not every 2nd"
        );
        disarm();
    }

    #[test]
    fn sched_points_count_only_while_a_seed_is_armed() {
        let _g = LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        arm(InjectionPlan::default());
        on_sched_point("a");
        assert_eq!(
            sched_points(),
            0,
            "no seed armed: points pass through uncounted"
        );
        arm_from_spec("sched_seed=42").unwrap();
        for _ in 0..5 {
            on_sched_point("b");
        }
        assert_eq!(sched_points(), 5);
        assert_eq!(fired(), 0, "schedule perturbations are not faults");
        disarm();
        on_sched_point("c");
        assert_eq!(sched_points(), 0);
    }

    #[test]
    fn sched_verdicts_are_pure_and_seed_sensitive() {
        let a: Vec<u64> = (1..=16).map(|n| sched_verdict(7, n)).collect();
        let b: Vec<u64> = (1..=16).map(|n| sched_verdict(7, n)).collect();
        let c: Vec<u64> = (1..=16).map(|n| sched_verdict(8, n)).collect();
        assert_eq!(a, b, "same seed, same schedule");
        assert_ne!(a, c, "different seed, different schedule");
    }

    #[test]
    fn spec_strings_arm_real_plans_and_reject_garbage() {
        let _g = LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        arm_from_spec("stream_drop=1, journal_crash=9:durable").unwrap();
        assert_eq!(on_stream_write(), StreamFault::Drop);
        disarm();
        assert!(arm_from_spec("stream_drop").is_err(), "missing value");
        assert!(arm_from_spec("warp_factor=9").is_err(), "unknown key");
        assert!(
            arm_from_spec("journal_crash=1:sideways").is_err(),
            "bad kind"
        );
        disarm();
    }
}
