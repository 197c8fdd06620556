//! quickprop: a miniature, std-only property-testing harness.
//!
//! The property-test harness of `tests/properties_std.rs`. It runs in
//! the default offline CI with no external dependencies: deterministic seeded
//! generation on the workspace's own [`XorShift64`] plus greedy
//! shrinking.
//!
//! A property is checked over `cases` independently generated inputs
//! (each case derives its own seed from the property seed, so any case is
//! replayable in isolation). On the first failure the harness greedily
//! walks the user-supplied shrink candidates — re-testing each and
//! descending into the first candidate that still fails — and panics with
//! the minimal failing input, its case seed, and the property's error.
//!
//! Included from test binaries via `#[path = "support/quickprop.rs"]`;
//! Cargo does not compile `tests/` subdirectories as test crates.

use std::fmt::Debug;

use random_limited_scan::lfsr::{RandomSource, XorShift64};

/// Hard cap on greedy shrink descents, so a pathological shrinker (one
/// that cycles or regrows its input) cannot hang a failing test.
const MAX_SHRINK_STEPS: u32 = 1_000;

/// A deterministic input generator: thin, test-friendly draws over the
/// workspace PRNG.
pub struct Gen {
    rng: XorShift64,
}

impl Gen {
    pub fn new(seed: u64) -> Self {
        Gen {
            rng: XorShift64::new(seed),
        }
    }

    /// A full random word.
    pub fn word(&mut self) -> u64 {
        self.rng.next_bits(64)
    }

    /// A value in `lo..hi` (half-open; `hi > lo` required).
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "empty range {lo}..{hi}");
        assert!(hi - lo <= u32::MAX as usize, "range too wide for one draw");
        lo + self.rng.draw_mod((hi - lo) as u32) as usize
    }

    /// A boolean vector of the given length.
    pub fn bools(&mut self, len: usize) -> Vec<bool> {
        let mut v = vec![false; len];
        self.rng.fill_bits(&mut v);
        v
    }
}

/// Checks `prop` over `cases` generated inputs, shrinking the first
/// failure to a (locally) minimal one.
///
/// `generate` builds an input from a case-seeded [`Gen`]; `shrink`
/// proposes strictly-simpler candidates for a failing input (return an
/// empty vector for atomic inputs); `prop` returns `Err(reason)` on
/// violation.
///
/// # Panics
///
/// Panics — failing the enclosing test — if any case violates the
/// property, reporting the minimal input found.
pub fn check<T, G, S, P>(name: &str, seed: u64, cases: u32, generate: G, shrink: S, prop: P)
where
    T: Debug,
    G: Fn(&mut Gen) -> T,
    S: Fn(&T) -> Vec<T>,
    P: Fn(&T) -> Result<(), String>,
{
    for case in 0..cases {
        // SplitMix-style spread so consecutive case seeds are decorrelated.
        let case_seed = seed ^ u64::from(case + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let input = generate(&mut Gen::new(case_seed));
        if let Err(err) = prop(&input) {
            let (minimal, minimal_err, steps) = shrink_failure(input, err, &shrink, &prop);
            panic!(
                "property `{name}` failed at case {case} (seed {case_seed:#018x}, \
                 {steps} shrink step(s))\n  error: {minimal_err}\n  minimal input: {minimal:?}"
            );
        }
    }
}

/// Greedy descent: repeatedly replace the failing input with its first
/// shrink candidate that still fails, until none fails (local minimum)
/// or the step budget runs out.
fn shrink_failure<T, S, P>(
    mut current: T,
    mut error: String,
    shrink: &S,
    prop: &P,
) -> (T, String, u32)
where
    S: Fn(&T) -> Vec<T>,
    P: Fn(&T) -> Result<(), String>,
{
    let mut steps = 0;
    'descend: while steps < MAX_SHRINK_STEPS {
        for candidate in shrink(&current) {
            if let Err(e) = prop(&candidate) {
                current = candidate;
                error = e;
                steps += 1;
                continue 'descend;
            }
        }
        break;
    }
    (current, error, steps)
}

/// Standard shrink candidates for an integer: zero first (the simplest),
/// then halving, then the predecessor.
pub fn shrink_usize(n: usize) -> Vec<usize> {
    let mut out = Vec::new();
    for candidate in [0, n / 2, n.saturating_sub(1)] {
        if candidate != n && !out.contains(&candidate) {
            out.push(candidate);
        }
    }
    out
}

/// Like [`shrink_usize`] but bounded below: candidates never drop
/// under `min`.
pub fn shrink_usize_min(n: usize, min: usize) -> Vec<usize> {
    shrink_usize(n).into_iter().filter(|&c| c >= min).collect()
}

/// For inputs with nothing simpler (seeds, atomic choices).
pub fn no_shrink<T>(_: &T) -> Vec<T> {
    Vec::new()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let mut a = Gen::new(42);
        let mut b = Gen::new(42);
        assert_eq!(a.word(), b.word());
        assert_eq!(a.usize_in(3, 99), b.usize_in(3, 99));
        assert_eq!(a.bools(17), b.bools(17));
    }

    #[test]
    fn passing_property_runs_every_case() {
        let mut seen = 0u32;
        // A property with interior mutability only to count cases.
        let counter = std::cell::Cell::new(0u32);
        check(
            "tautology",
            7,
            25,
            |g| g.usize_in(0, 1000),
            |&n| shrink_usize(n),
            |_| {
                counter.set(counter.get() + 1);
                Ok(())
            },
        );
        seen += counter.get();
        assert_eq!(seen, 25);
    }

    #[test]
    fn failures_shrink_to_the_boundary() {
        // `n < 10` fails for most draws from 0..1000; greedy shrinking
        // must land exactly on the boundary counterexample 10.
        let failure = std::panic::catch_unwind(|| {
            check(
                "n < 10",
                1,
                50,
                |g| g.usize_in(0, 1000),
                |&n| shrink_usize(n),
                |&n| {
                    if n < 10 {
                        Ok(())
                    } else {
                        Err(format!("{n} >= 10"))
                    }
                },
            );
        })
        .expect_err("the property must fail");
        let message = failure
            .downcast_ref::<String>()
            .expect("panic carries a formatted report");
        assert!(message.contains("minimal input: 10"), "got: {message}");
        assert!(message.contains("error: 10 >= 10"), "got: {message}");
    }

    #[test]
    fn shrink_usize_proposes_strictly_new_candidates() {
        assert_eq!(shrink_usize(0), Vec::<usize>::new());
        assert_eq!(shrink_usize(1), vec![0]);
        assert_eq!(shrink_usize(10), vec![0, 5, 9]);
        assert_eq!(shrink_usize_min(10, 2), vec![5, 9]);
    }
}
