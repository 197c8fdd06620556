//! Procedure 1: deriving `TS(I, D1)` from `TS0`.
//!
//! For every test `τ_i ∈ TS0` the schedule generator is initialized with
//! `seed(I)` (the paper's literal reading; see [`SeedMode`]) and, for every
//! interior time unit `0 < u < L_i`:
//!
//! - draw `r1`; if `r1 mod D1 = 0`, draw `r2` and set
//!   `shift(i, u) = r2 mod D2`;
//! - otherwise `shift(i, u) = 0`.
//!
//! A nonzero shift becomes a limited scan operation of that many positions;
//! its scanned-in fill bits are drawn from the same stream, keeping the
//! whole derivation replayable from the pair `(I, D1)` alone. Each shift
//! cycle scans one fill bit into every chain of the `ChainMap`, so a
//! shift of `k` draws `k × chains` bits, cycle-major as the kernel reads
//! them: one bit per cycle under full and partial scan.

use std::collections::BTreeMap;
use std::sync::Arc;

use rls_fsim::{ScanTest, ShiftOp};
use rls_lfsr::{RandomSource, XorShift64};

use crate::config::{FillMode, RlsConfig, SeedMode};

/// Derives the test set `TS(I, D1)` under full scan.
///
/// `d2` is the shift-count modulus (the paper's `D2 = N_SV + 1`; see
/// [`RlsConfig::d2`]).
///
/// # Panics
///
/// Panics if `d1 == 0` or `d2 == 0`.
pub fn derive_test_set(
    ts0: &[ScanTest],
    cfg: &RlsConfig,
    iteration: u64,
    d1: u32,
    d2: u32,
) -> Vec<ScanTest> {
    derive_test_set_on(ts0, cfg, 1, iteration, d1, d2)
}

/// Derives the test set `TS(I, D1)` for `chains` scan chains
/// ([`rls_fsim::ChainMap::chains`]): every shift cycle draws one fill
/// bit per chain.
///
/// Every derived test shares its `TS0` test's scan-in and vectors; only
/// the schedule is new. Under [`SeedMode::PerTest`] every test restarts
/// the stream at `seed(I)`, and a schedule reads nothing of its test but
/// the length, so each distinct length is derived once and all tests of
/// that length share its one schedule allocation.
/// [`SeedMode::FreeRunning`] draws test after test from one stream, so
/// each test owns its schedule.
///
/// # Panics
///
/// Panics if `d1 == 0` or `d2 == 0`.
pub fn derive_test_set_on(
    ts0: &[ScanTest],
    cfg: &RlsConfig,
    chains: usize,
    iteration: u64,
    d1: u32,
    d2: u32,
) -> Vec<ScanTest> {
    assert!(d1 > 0, "D1 must be positive");
    assert!(d2 > 0, "D2 must be positive");
    let seed = cfg.seeds.seed(iteration);
    let mut free_running = XorShift64::new(seed);
    let mut per_length: BTreeMap<usize, Arc<[ShiftOp]>> = BTreeMap::new();
    let schedule = |len: usize, rng: &mut XorShift64| -> Arc<[ShiftOp]> {
        let shifts = derive_schedule(len, rng, chains, d1, d2);
        match cfg.fill_mode {
            FillMode::Random => shifts.into(),
            FillMode::Zero => zero_fills(shifts).into(),
        }
    };
    ts0.iter()
        .map(|test| {
            let shifts = match cfg.seed_mode {
                SeedMode::PerTest => Arc::clone(
                    per_length
                        .entry(test.len())
                        .or_insert_with(|| schedule(test.len(), &mut XorShift64::new(seed))),
                ),
                SeedMode::FreeRunning => schedule(test.len(), &mut free_running),
            };
            with_schedule(test, shifts)
        })
        .collect()
}

/// Replaces every fill bit with zero (the [`FillMode::Zero`] ablation).
/// The schedule stream still *draws* the fill bits so that insertion
/// positions and shift amounts are identical to the random-fill run.
fn zero_fills(mut shifts: Vec<ShiftOp>) -> Vec<ShiftOp> {
    for op in &mut shifts {
        op.fill.iter_mut().for_each(|b| *b = false);
    }
    shifts
}

/// The limited-scan schedule of a test of length `len`: one draw per
/// interior time unit, plus the amount and the `amount × chains` fill
/// draws of each insertion.
fn derive_schedule<R: RandomSource>(
    len: usize,
    rng: &mut R,
    chains: usize,
    d1: u32,
    d2: u32,
) -> Vec<ShiftOp> {
    let mut shifts = Vec::new();
    for u in 1..len {
        let r1 = rng.next_u32();
        if !r1.is_multiple_of(d1) {
            continue;
        }
        let r2 = rng.next_u32();
        let amount = (r2 % d2) as usize;
        if amount == 0 {
            continue;
        }
        let mut fill = vec![false; amount * chains];
        rng.fill_bits(&mut fill);
        shifts.push(ShiftOp {
            at: u,
            amount,
            fill,
        });
    }
    shifts
}

/// `test` with `shifts` (derived for its length) as its schedule, sharing
/// `test`'s scan-in and vectors.
fn with_schedule(test: &ScanTest, shifts: impl Into<Arc<[ShiftOp]>>) -> ScanTest {
    test.clone()
        .with_shifts(shifts)
        .expect("derived schedule is valid by construction") // lint: panic-ok(derive_schedule emits ordered interior units with nonzero amounts and matching fills)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ts0::generate_ts0;

    fn setup() -> (Vec<ScanTest>, RlsConfig) {
        let c = rls_benchmarks::s27();
        let cfg = RlsConfig::new(8, 16, 32);
        let ts0 = generate_ts0(&c, &cfg);
        (ts0, cfg)
    }

    #[test]
    fn derived_tests_keep_vectors_and_scan_in() {
        let (ts0, cfg) = setup();
        let derived = derive_test_set(&ts0, &cfg, 1, 2, 4);
        assert_eq!(derived.len(), ts0.len());
        for (d, o) in derived.iter().zip(ts0.iter()) {
            assert_eq!(d.scan_in, o.scan_in);
            assert_eq!(d.vectors, o.vectors);
        }
    }

    #[test]
    fn derived_tests_share_stimulus_and_per_length_schedules() {
        // A derived test reads its TS0 test's scan-in and vectors in
        // place. Under PerTest the tests of one length share one schedule
        // allocation; under FreeRunning every test owns its own.
        let (ts0, mut cfg) = setup();
        for seed_mode in [SeedMode::PerTest, SeedMode::FreeRunning] {
            cfg.seed_mode = seed_mode;
            let derived = derive_test_set(&ts0, &cfg, 1, 1, 4);
            for (d, o) in derived.iter().zip(&ts0) {
                assert!(Arc::ptr_eq(&d.scan_in, &o.scan_in), "{seed_mode:?}");
                assert!(d.vectors.ptr_eq(&o.vectors), "{seed_mode:?}");
            }
            for (i, a) in derived.iter().enumerate() {
                for b in &derived[i + 1..] {
                    let shared = Arc::ptr_eq(&a.shifts, &b.shifts);
                    let expect = seed_mode == SeedMode::PerTest && a.len() == b.len();
                    assert_eq!(shared, expect, "{seed_mode:?}");
                }
            }
        }
    }

    #[test]
    fn derivation_is_replayable_from_the_pair() {
        let (ts0, cfg) = setup();
        let a = derive_test_set(&ts0, &cfg, 3, 5, 4);
        let b = derive_test_set(&ts0, &cfg, 3, 5, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn different_iterations_give_different_schedules() {
        let (ts0, cfg) = setup();
        let a = derive_test_set(&ts0, &cfg, 1, 1, 4);
        let b = derive_test_set(&ts0, &cfg, 2, 1, 4);
        assert_ne!(a, b);
    }

    #[test]
    fn shift_amounts_bounded_by_d2() {
        let (ts0, cfg) = setup();
        let derived = derive_test_set(&ts0, &cfg, 1, 1, 4);
        for t in &derived {
            for s in t.shifts.iter() {
                assert!(s.amount >= 1 && s.amount <= 3);
                assert_eq!(s.fill.len(), s.amount);
            }
        }
    }

    #[test]
    fn d1_one_inserts_often_d1_large_rarely() {
        let (ts0, cfg) = setup();
        let frequent: usize = derive_test_set(&ts0, &cfg, 1, 1, 4)
            .iter()
            .map(ScanTest::limited_scan_units)
            .sum();
        let rare: usize = derive_test_set(&ts0, &cfg, 1, 50, 4)
            .iter()
            .map(ScanTest::limited_scan_units)
            .sum();
        assert!(
            frequent > 4 * rare.max(1),
            "frequent={frequent}, rare={rare}"
        );
    }

    #[test]
    fn per_test_seeding_repeats_schedule_prefix_across_tests() {
        // The paper's literal Procedure 1: every test re-seeds with
        // seed(I), so two tests of the same length get identical schedules.
        let (ts0, cfg) = setup();
        assert_eq!(cfg.seed_mode, SeedMode::PerTest);
        let derived = derive_test_set(&ts0, &cfg, 1, 2, 4);
        let (a, b) = (&derived[0], &derived[1]);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.shifts, b.shifts);
    }

    #[test]
    fn free_running_seeding_differs_across_tests() {
        let (ts0, mut cfg) = setup();
        cfg.seed_mode = SeedMode::FreeRunning;
        let derived = derive_test_set(&ts0, &cfg, 1, 1, 4);
        // With D1 = 1 nearly every unit draws; identical schedules across
        // all same-length tests would be astronomically unlikely.
        let all_same = derived[..32].windows(2).all(|w| w[0].shifts == w[1].shifts);
        assert!(!all_same);
    }

    #[test]
    fn probability_of_insertion_scales_like_one_over_d1() {
        let (ts0, mut cfg) = setup();
        // Free-running mode gives independent draws across tests, which the
        // statistics below assume.
        cfg.seed_mode = SeedMode::FreeRunning;
        let d2 = 4u32;
        // With D2 = 4, a unit hosts an op with probability (1/D1) * (3/4).
        for d1 in [2u32, 5] {
            let derived = derive_test_set(&ts0, &cfg, 7, d1, d2);
            let units: usize = derived.iter().map(|t| t.len() - 1).sum();
            let ops: usize = derived.iter().map(ScanTest::limited_scan_units).sum();
            let expected = units as f64 / d1 as f64 * 0.75;
            let got = ops as f64;
            assert!(
                (got - expected).abs() < expected * 0.5,
                "d1={d1}: got {got}, expected≈{expected}"
            );
        }
    }

    /// The per-test derivation: every test draws its own schedule, from a
    /// fresh `seed(I)` stream or from the one free-running stream, and the
    /// zero-fill ablation clears the fills afterwards.
    fn derive_per_test(
        ts0: &[ScanTest],
        cfg: &RlsConfig,
        i: u64,
        d1: u32,
        d2: u32,
    ) -> Vec<ScanTest> {
        let seed = cfg.seeds.seed(i);
        let mut free_running = XorShift64::new(seed);
        ts0.iter()
            .map(|test| {
                let mut per_test = XorShift64::new(seed);
                let rng: &mut XorShift64 = match cfg.seed_mode {
                    SeedMode::PerTest => &mut per_test,
                    SeedMode::FreeRunning => &mut free_running,
                };
                let mut derived = with_schedule(test, derive_schedule(test.len(), rng, 1, d1, d2));
                if cfg.fill_mode == FillMode::Zero {
                    derived.shifts = zero_fills(derived.shifts.to_vec()).into();
                }
                derived
            })
            .collect()
    }

    #[test]
    fn one_schedule_per_length_equals_the_per_test_derivation() {
        for c in [
            rls_benchmarks::s27(),
            rls_benchmarks::by_name("s298").unwrap(),
        ] {
            let d2 = RlsConfig::new(4, 8, 8).d2(c.num_dffs());
            for seed_mode in [SeedMode::PerTest, SeedMode::FreeRunning] {
                for fill_mode in [FillMode::Random, FillMode::Zero] {
                    let mut cfg = RlsConfig::new(4, 8, 8);
                    cfg.seed_mode = seed_mode;
                    cfg.fill_mode = fill_mode;
                    let ts0 = generate_ts0(&c, &cfg);
                    for (i, d1) in [(1, 1), (1, 2), (3, 5), (7, 10)] {
                        assert_eq!(
                            derive_test_set(&ts0, &cfg, i, d1, d2),
                            derive_per_test(&ts0, &cfg, i, d1, d2),
                            "{} {seed_mode:?} {fill_mode:?} I={i} D1={d1}",
                            c.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "D1 must be positive")]
    fn zero_d1_rejected() {
        let (ts0, cfg) = setup();
        derive_test_set(&ts0, &cfg, 1, 0, 4);
    }
}
