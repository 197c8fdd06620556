//! Extensions beyond the paper's evaluation.
//!
//! The concluding remark of the paper: *"limited scan can be used to
//! improve the fault coverage for partial scan circuits as well."* This
//! module carries that claim out on a [`PartialScan`] architecture, where
//! only a subset of the flip-flops is scannable, and pairs limited scan
//! with the multiple short chains of refs \[5\]/\[6\] ([`MultiChain`]).
//!
//! Neither needs a flow of its own. Each builds the architecture's
//! [`ChainMap`], runs [`Procedure2`] on it, and reports the
//! [`Procedure2Outcome`] in its own terms; `TS0`, Procedure 1 and the
//! greedy loop read the scan-in width, the fill bits per shift cycle and
//! the scan cost from the map (see [`crate::procedure2`]). `D2` is
//! therefore bounded by the longest chain instead of `N_SV`.
//!
//! Because sequential (partial-scan) detectability has no cheap exact
//! reference — the combinational argument behind [`crate::experiment::detectable_target`]
//! needs full scan — these experiments report achieved coverage over all
//! collapsed faults rather than claiming completeness.

use rls_fsim::{ChainMap, McScanTest, ScanTest};
use rls_netlist::Circuit;
use rls_scan::{MultiChain, PartialScan};

use crate::config::RlsConfig;
use crate::procedure1::derive_test_set_on;
use crate::procedure2::{Procedure2, Procedure2Outcome};
use crate::ts0::generate_ts0_on;

/// The outcome of a partial-scan limited-scan session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartialOutcome {
    /// Chain length (scanned flip-flops).
    pub chain_len: usize,
    /// Faults detected by the base test set alone.
    pub initial_detected: usize,
    /// Faults detected after the selected pairs.
    pub total_detected: usize,
    /// Size of the coverage target (all collapsed faults by default).
    pub total_faults: usize,
    /// Selected `(I, D1)` pairs.
    pub pairs: Vec<(u64, u32)>,
    /// Session cycles (the `N_cyc` analogue with the chain length as the
    /// scan cost).
    pub total_cycles: u64,
}

/// Generates the base test set for a partial-scan architecture: `TS0`
/// with scan-in words covering only the chain.
pub fn generate_ts0_partial(circuit: &Circuit, ps: &PartialScan, cfg: &RlsConfig) -> Vec<ScanTest> {
    generate_ts0_on(circuit, &ChainMap::from(ps), cfg)
}

/// Runs the limited-scan flow on a partial-scan architecture.
///
/// # Panics
///
/// Panics if `ps` does not match the circuit.
pub fn run_partial(circuit: &Circuit, ps: &PartialScan, cfg: &RlsConfig) -> PartialOutcome {
    let out = run_on(circuit, ChainMap::from(ps), cfg);
    PartialOutcome {
        chain_len: ps.chain_len(),
        initial_detected: out.initial_detected,
        total_detected: out.total_detected,
        total_faults: out.target_faults,
        pairs: selected(&out),
        total_cycles: out.total_cycles,
    }
}

/// The outcome of a multichain limited-scan session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiChainOutcome {
    /// Number of chains.
    pub chains: usize,
    /// Cycles of one complete scan operation (`max_chain_len`).
    pub scan_op_cycles: u64,
    /// Faults detected by the base test set alone.
    pub initial_detected: usize,
    /// Faults detected after the selected pairs.
    pub total_detected: usize,
    /// Size of the coverage target (all collapsed faults by default).
    pub total_faults: usize,
    /// Selected `(I, D1)` pairs.
    pub pairs: Vec<(u64, u32)>,
    /// Session cycles with the multichain boundary cost.
    pub total_cycles: u64,
}

/// Derives the multichain variant of `TS(I, D1)`: Procedure 1's schedule
/// draws, with each shift cycle scanning one fresh bit into *every*
/// chain (`amount × chains` fill bits).
pub fn derive_mc_test_set(
    ts0: &[ScanTest],
    cfg: &RlsConfig,
    mc: &MultiChain,
    iteration: u64,
    d1: u32,
    d2: u32,
) -> Vec<McScanTest> {
    derive_test_set_on(ts0, cfg, mc.chains(), iteration, d1, d2)
}

/// Runs the limited-scan flow on a multiple-scan-chain architecture (the
/// \[5\]/\[6\] setting combined with the paper's method). `D2` is bounded by
/// the longest chain.
///
/// # Panics
///
/// Panics if `mc` does not match the circuit.
pub fn run_multichain(circuit: &Circuit, mc: &MultiChain, cfg: &RlsConfig) -> MultiChainOutcome {
    let out = run_on(circuit, ChainMap::from(mc), cfg);
    MultiChainOutcome {
        chains: mc.chains(),
        scan_op_cycles: mc.full_scan_cycles(),
        initial_detected: out.initial_detected,
        total_detected: out.total_detected,
        total_faults: out.target_faults,
        pairs: selected(&out),
        total_cycles: out.total_cycles,
    }
}

/// Procedure 2 on the scan chains of `chains`.
fn run_on(circuit: &Circuit, chains: ChainMap, cfg: &RlsConfig) -> Procedure2Outcome {
    Procedure2::new(circuit, cfg.clone())
        .with_chains(chains)
        .run()
}

/// The selected `(I, D1)` pairs of an outcome, in selection order.
fn selected(out: &Procedure2Outcome) -> Vec<(u64, u32)> {
    out.pairs.iter().map(|p| (p.i, p.d1)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_fraction(c: &Circuit, percent: usize) -> PartialScan {
        let n = c.num_dffs();
        let take = (n * percent).div_ceil(100).max(1).min(n);
        PartialScan::new(n, (0..take).collect())
    }

    #[test]
    fn full_chain_matches_full_scan_procedure2() {
        let c = rls_benchmarks::s27();
        let cfg = RlsConfig::new(4, 8, 8);
        let full_arch = PartialScan::full(3);
        let partial = run_partial(&c, &full_arch, &cfg);
        let standard = Procedure2::new(&c, cfg).run();
        // Same TS0 stream, same procedures: identical counts and cycles.
        assert_eq!(partial.initial_detected, standard.initial_detected);
        assert_eq!(partial.total_detected, standard.total_detected);
        assert_eq!(partial.total_cycles, standard.total_cycles);
        assert_eq!(
            partial.pairs,
            standard
                .pairs
                .iter()
                .map(|p| (p.i, p.d1))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn limited_scan_helps_partial_scan_too() {
        // The concluding remark, demonstrated: on a half-scanned stand-in,
        // the pairs add detections beyond the base set.
        let c = rls_benchmarks::by_name("b01").unwrap();
        let ps = chain_fraction(&c, 50);
        let cfg = RlsConfig::new(8, 16, 32);
        let out = run_partial(&c, &ps, &cfg);
        assert!(out.total_detected >= out.initial_detected);
        assert!(out.total_detected <= out.total_faults);
    }

    #[test]
    fn more_scan_means_more_coverage() {
        let c = rls_benchmarks::by_name("b06").unwrap();
        let cfg = RlsConfig::new(8, 16, 32);
        let quarter = run_partial(&c, &chain_fraction(&c, 25), &cfg);
        let full = run_partial(&c, &PartialScan::full(c.num_dffs()), &cfg);
        assert!(full.total_detected >= quarter.total_detected);
    }

    #[test]
    fn single_chain_multichain_matches_procedure2() {
        // One chain over every flip-flop is full scan: the same TS0, the
        // same schedules and fills, the same outcome.
        let c = rls_benchmarks::s27();
        let cfg = RlsConfig::new(2, 3, 2); // tiny: forces several pairs
        let mc = MultiChain::new(3, 1);
        let standard = Procedure2::new(&c, cfg.clone()).run();
        let on_chain = Procedure2::new(&c, cfg.clone())
            .with_chains(ChainMap::from(&mc))
            .run();
        assert_eq!(on_chain, standard);
        assert!(!standard.pairs.is_empty(), "the comparison covers pairs");
        assert_eq!(
            run_multichain(&c, &mc, &cfg),
            MultiChainOutcome {
                chains: 1,
                scan_op_cycles: 3,
                initial_detected: standard.initial_detected,
                total_detected: standard.total_detected,
                total_faults: standard.target_faults,
                pairs: selected(&standard),
                total_cycles: standard.total_cycles,
            }
        );
    }

    #[test]
    fn short_chains_cut_cycles_dramatically() {
        let c = rls_benchmarks::by_name("b03").unwrap(); // 30 FFs
        let cfg = RlsConfig::new(8, 16, 32);
        let single = run_multichain(&c, &MultiChain::new(30, 1), &cfg);
        let multi = run_multichain(&c, &MultiChain::with_max_length(30, 10), &cfg);
        assert_eq!(multi.scan_op_cycles, 10);
        // Boundary cost drops 3x; totals must reflect it when pair counts
        // are comparable.
        assert!(multi.total_cycles < single.total_cycles * 2);
        assert!(multi.total_detected >= single.total_detected * 9 / 10);
    }

    #[test]
    fn partial_ts0_widths() {
        let c = rls_benchmarks::s27();
        let ps = PartialScan::new(3, vec![0, 2]);
        let cfg = RlsConfig::new(4, 8, 4);
        let ts0 = generate_ts0_partial(&c, &ps, &cfg);
        assert_eq!(ts0.len(), 8);
        for t in &ts0 {
            assert_eq!(t.scan_in.len(), 2);
        }
        assert_eq!(ts0[0].len(), 4);
    }
}
