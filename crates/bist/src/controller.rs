//! The BIST controller finite-state machine.
//!
//! An independent, clock-stepped re-implementation of the paper's on-chip
//! test generator: a pattern generator for `TS0` content, a schedule
//! generator re-seeded with `seed(I)` per test, counters for `L_A`, `L_B`,
//! `N` and the shift count, and the two modulo comparators (`r1 mod D1`,
//! `r2 mod D2`). One [`Event`] is emitted per clock cycle, so the cycle
//! count of a session is simply the number of events — which the tests
//! prove equal to the closed-form `N_cyc` of `rls-core`, while the applied
//! test content is proven equal to `generate_ts0` + `derive_test_set`.
//!
//! The controller stores exactly what the paper says must be stored:
//! `L_A`, `L_B`, `N`, the seed family, and the selected `(I, D1)` pairs.

use rls_fsim::{ScanTest, ShiftOp};
use rls_lfsr::{RandomSource, SeedSequence, XorShift64};

/// Configuration of a controller session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ControllerConfig {
    /// Scan chain length (`N_SV`).
    pub n_sv: usize,
    /// Number of primary inputs.
    pub n_pi: usize,
    /// Shorter test length `L_A`.
    pub la: usize,
    /// Longer test length `L_B`.
    pub lb: usize,
    /// Tests per length (`TS0` holds `2N`).
    pub n: usize,
    /// Selected `(I, D1)` pairs, applied after the plain `TS0` pass.
    pub pairs: Vec<(u64, u32)>,
    /// Shift modulus `D2` (the paper's `N_SV + 1`).
    pub d2: u32,
    /// Seed family.
    pub seeds: SeedSequence,
}

/// One clock cycle of controller activity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A complete-scan boundary cycle: one bit scanned in (one scanned
    /// out).
    ScanCycle {
        /// Which test set (0 = the plain `TS0` pass).
        set: usize,
        /// The bit entering the chain head.
        bit_in: bool,
    },
    /// An at-speed functional cycle applying one primary-input vector.
    Vector {
        /// Which test set.
        set: usize,
        /// Test index within the set.
        test: usize,
        /// Time unit within the test.
        unit: usize,
        /// The vector bits.
        bits: Vec<bool>,
    },
    /// One cycle of a limited scan operation.
    LimitedScanCycle {
        /// Which test set.
        set: usize,
        /// Test index within the set.
        test: usize,
        /// Time unit the operation precedes.
        unit: usize,
        /// The fill bit entering the chain head.
        bit_in: bool,
    },
}

/// Aggregate counts of a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Summary {
    /// Total clock cycles (= number of events).
    pub cycles: u64,
    /// Cycles spent in complete scan operations.
    pub scan_cycles: u64,
    /// Cycles spent applying vectors.
    pub vector_cycles: u64,
    /// Cycles spent shifting in limited scans.
    pub limited_scan_cycles: u64,
}

/// The controller.
#[derive(Debug, Clone)]
pub struct BistController {
    cfg: ControllerConfig,
}

impl BistController {
    /// Creates a controller.
    ///
    /// # Panics
    ///
    /// Panics on degenerate configurations (`n == 0`, zero lengths,
    /// `d2 == 0`).
    pub fn new(cfg: ControllerConfig) -> Self {
        assert!(cfg.n > 0, "N must be positive");
        assert!(cfg.la > 0 && cfg.lb > 0, "test lengths must be positive");
        assert!(cfg.d2 > 0, "D2 must be positive");
        BistController { cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &ControllerConfig {
        &self.cfg
    }

    /// Runs the whole session — the plain `TS0` pass followed by one pass
    /// per selected pair — emitting one event per clock cycle.
    pub fn run(&self, mut on_event: impl FnMut(&Event)) -> Summary {
        let mut summary = Summary::default();
        let sets: Vec<Option<(u64, u32)>> = std::iter::once(None)
            .chain(self.cfg.pairs.iter().copied().map(Some))
            .collect();
        for (set_idx, pair) in sets.into_iter().enumerate() {
            self.run_set(set_idx, pair, &mut summary, &mut on_event);
        }
        summary
    }

    fn run_set(
        &self,
        set_idx: usize,
        pair: Option<(u64, u32)>,
        summary: &mut Summary,
        on_event: &mut impl FnMut(&Event),
    ) {
        let cfg = &self.cfg;
        // The pattern generator restarts from the TS0 seed for every set:
        // the paper requires the same TS0 content under every TS(I, D1).
        let mut pattern = XorShift64::new(cfg.seeds.ts0_seed());
        let schedule_seed = pair.map(|(i, _)| cfg.seeds.seed(i));
        for test_idx in 0..2 * cfg.n {
            let length = if test_idx < cfg.n { cfg.la } else { cfg.lb };
            // Complete scan boundary: N_SV cycles, one scan-in bit each
            // (the previous test's state scans out simultaneously).
            for _ in 0..cfg.n_sv {
                let bit_in = pattern.next_bit();
                summary.cycles += 1;
                summary.scan_cycles += 1;
                on_event(&Event::ScanCycle {
                    set: set_idx,
                    bit_in,
                });
            }
            // Schedule generator re-seeded per test (the paper's literal
            // Procedure 1).
            let mut schedule = schedule_seed.map(XorShift64::new);
            for unit in 0..length {
                if unit > 0 {
                    if let (Some(rng), Some((_, d1))) = (schedule.as_mut(), pair) {
                        let r1 = rng.next_u32();
                        if r1 % d1 == 0 {
                            let r2 = rng.next_u32();
                            let amount = (r2 % cfg.d2) as usize;
                            for _ in 0..amount {
                                let bit_in = rng.next_bit();
                                summary.cycles += 1;
                                summary.limited_scan_cycles += 1;
                                on_event(&Event::LimitedScanCycle {
                                    set: set_idx,
                                    test: test_idx,
                                    unit,
                                    bit_in,
                                });
                            }
                        }
                    }
                }
                let mut bits = vec![false; cfg.n_pi];
                pattern.fill_bits(&mut bits);
                summary.cycles += 1;
                summary.vector_cycles += 1;
                on_event(&Event::Vector {
                    set: set_idx,
                    test: test_idx,
                    unit,
                    bits,
                });
            }
        }
        // Trailing complete scan-out of the last test (no new test behind
        // it): the "+1" of the paper's (2N+1) scan operations.
        for _ in 0..cfg.n_sv {
            let bit_in = pattern.next_bit();
            summary.cycles += 1;
            summary.scan_cycles += 1;
            on_event(&Event::ScanCycle {
                set: set_idx,
                bit_in,
            });
        }
    }

    /// Reconstructs the applied test sets from the event stream: element 0
    /// is `TS0`, element `k > 0` the set of pair `k - 1`.
    pub fn collect_tests(&self) -> Vec<Vec<ScanTest>> {
        let cfg = &self.cfg;
        let n_sv = cfg.n_sv;
        let num_sets = cfg.pairs.len() + 1;
        let mut sets: Vec<Vec<ScanTest>> = vec![Vec::new(); num_sets];
        /// A test being assembled: its owning set, its scan-in and the
        /// vectors seen so far. The `ScanTest` is built once the test ends.
        struct Assembly {
            set: usize,
            scan_in: Vec<bool>,
            vectors: Vec<Vec<bool>>,
        }
        // Assembly state: scan bits seen since the last vector, the test
        // being assembled, and its shift schedule.
        let mut scan_buf: Vec<bool> = Vec::new();
        let mut current: Option<Assembly> = None;
        let mut pending_shift: Vec<(usize, Vec<bool>)> = Vec::new();
        fn finish(
            current: &mut Option<Assembly>,
            pending: &mut Vec<(usize, Vec<bool>)>,
            sets: &mut [Vec<ScanTest>],
        ) {
            if let Some(Assembly {
                set,
                scan_in,
                vectors,
            }) = current.take()
            {
                let shifts: Vec<ShiftOp> = pending
                    .drain(..)
                    .map(|(at, fill)| ShiftOp {
                        at,
                        amount: fill.len(),
                        fill,
                    })
                    .collect();
                let test = ScanTest::new(scan_in, vectors)
                    .with_shifts(shifts)
                    .expect("controller schedules are valid");
                sets[set].push(test);
            }
        }
        self.run(|event| match event {
            Event::ScanCycle { bit_in, .. } => {
                scan_buf.push(*bit_in);
            }
            Event::Vector {
                set, unit, bits, ..
            } => {
                if *unit == 0 {
                    finish(&mut current, &mut pending_shift, &mut sets);
                    // The last N_SV buffered bits are this test's scan-in
                    // (earlier ones were the previous set's trailing
                    // scan-out filler). The first bit shifted in ends at
                    // the chain tail, so the state is their reverse.
                    let scan_in: Vec<bool> = scan_buf[scan_buf.len() - n_sv..]
                        .iter()
                        .rev()
                        .copied()
                        .collect();
                    scan_buf.clear();
                    current = Some(Assembly {
                        set: *set,
                        scan_in,
                        vectors: Vec::new(),
                    });
                }
                current
                    .as_mut()
                    .expect("vector outside a test")
                    .vectors
                    .push(bits.clone());
            }
            Event::LimitedScanCycle { unit, bit_in, .. } => {
                if let Some((at, fill)) = pending_shift.last_mut() {
                    if *at == *unit {
                        fill.push(*bit_in);
                        return;
                    }
                }
                pending_shift.push((*unit, vec![*bit_in]));
            }
        });
        finish(&mut current, &mut pending_shift, &mut sets);
        sets
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rls_core::{derive_test_set, generate_ts0, ncyc0, RlsConfig};

    fn controller_for(c: &rls_netlist::Circuit, la: usize, lb: usize, n: usize) -> BistController {
        BistController::new(ControllerConfig {
            n_sv: c.num_dffs(),
            n_pi: c.num_inputs(),
            la,
            lb,
            n,
            pairs: vec![],
            d2: c.num_dffs() as u32 + 1,
            seeds: SeedSequence::default(),
        })
    }

    #[test]
    fn plain_session_cycle_count_matches_ncyc0() {
        let c = rls_benchmarks::s27();
        let ctl = controller_for(&c, 4, 8, 16);
        let summary = ctl.run(|_| {});
        assert_eq!(summary.cycles, ncyc0(3, 4, 8, 16));
        assert_eq!(summary.limited_scan_cycles, 0);
        assert_eq!(
            summary.scan_cycles,
            (2 * 16 + 1) * 3,
            "(2N+1) * N_SV scan cycles"
        );
        assert_eq!(summary.vector_cycles, 16 * (4 + 8));
    }

    #[test]
    fn controller_ts0_matches_software_ts0() {
        let c = rls_benchmarks::s27();
        let ctl = controller_for(&c, 4, 8, 16);
        let sets = ctl.collect_tests();
        assert_eq!(sets.len(), 1);
        let software = generate_ts0(&c, &RlsConfig::new(4, 8, 16));
        assert_eq!(sets[0], software);
    }

    #[test]
    fn controller_pairs_match_procedure1() {
        let c = rls_benchmarks::s27();
        let mut cfg = controller_for(&c, 4, 8, 16).config().clone();
        cfg.pairs = vec![(1, 2), (3, 1), (7, 10)];
        let ctl = BistController::new(cfg);
        let sets = ctl.collect_tests();
        assert_eq!(sets.len(), 4);
        let rls = RlsConfig::new(4, 8, 16);
        let ts0 = generate_ts0(&c, &rls);
        assert_eq!(sets[0], ts0);
        for (k, &(i, d1)) in [(1u64, 2u32), (3, 1), (7, 10)].iter().enumerate() {
            let software = derive_test_set(&ts0, &rls, i, d1, 4);
            assert_eq!(sets[k + 1], software, "pair ({i},{d1})");
        }
    }

    #[test]
    fn session_cycles_match_core_cost_model() {
        let c = rls_benchmarks::s27();
        let mut cfg = controller_for(&c, 4, 8, 16).config().clone();
        cfg.pairs = vec![(1, 1), (2, 3)];
        let ctl = BistController::new(cfg);
        let summary = ctl.run(|_| {});
        let rls = RlsConfig::new(4, 8, 16);
        let ts0 = generate_ts0(&c, &rls);
        let base = ncyc0(3, 4, 8, 16);
        let expected: u64 = base
            + [(1u64, 1u32), (2, 3)]
                .iter()
                .map(|&(i, d1)| {
                    let derived = derive_test_set(&ts0, &rls, i, d1, 4);
                    base + rls_core::cycles::nsh(&derived)
                })
                .sum::<u64>();
        assert_eq!(summary.cycles, expected);
    }

    #[test]
    fn event_stream_length_equals_cycle_count() {
        let c = rls_benchmarks::s27();
        let ctl = controller_for(&c, 4, 8, 8);
        let mut events = 0u64;
        let summary = ctl.run(|_| events += 1);
        assert_eq!(events, summary.cycles);
    }

    #[test]
    #[should_panic(expected = "N must be positive")]
    fn zero_n_rejected() {
        let c = rls_benchmarks::s27();
        let mut cfg = controller_for(&c, 4, 8, 8).config().clone();
        cfg.n = 0;
        BistController::new(cfg);
    }
}
