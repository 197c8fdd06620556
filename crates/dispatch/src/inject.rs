//! Deterministic fault injection for the resilience test suite.
//!
//! Behind the `fault-inject` feature this module lets tests inject worker
//! panics, delayed jobs, and IO errors at seeded points: the pool calls
//! [`on_job_start`] before running every job, and campaign persistence
//! calls [`on_io`] before every file operation. Injection decisions are a
//! pure function of a global call counter and the armed `InjectionPlan`,
//! so a given plan fires at the same *logical* points on every run —
//! which jobs those are may vary with scheduling, but the dispatch layer
//! is built so that outcomes are invariant under exactly that kind of
//! perturbation (that invariance is what the suite verifies).
//!
//! With the feature disabled every hook compiles to an empty inline
//! function; production builds pay nothing.
//!
//! The plan is process-global: tests that arm it must serialize on a lock
//! (see `tests/resilience.rs`) and `disarm` when done.

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

#[cfg(feature = "fault-inject")]
mod armed {
    use super::InjectionPlan;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Mutex, PoisonError};

    struct State {
        plan: InjectionPlan,
        job_calls: u64,
        io_calls: u64,
        sched_calls: u64,
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
            sched_calls: 0,
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
}

#[cfg(feature = "fault-inject")]
pub use armed::{arm, disarm, fired, on_io, on_job_start, on_sched_point, sched_points};

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
        arm(InjectionPlan {
            sched_seed: Some(42),
            ..InjectionPlan::default()
        });
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
}
