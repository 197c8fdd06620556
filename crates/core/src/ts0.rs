//! Generation of the base random test set `TS0`.
//!
//! `TS0 = {τ_1 … τ_N, τ_{N+1} … τ_{2N}}`: `N` tests of length `L_A`
//! followed by `N` tests of length `L_B`. Scan-in states and primary-input
//! vectors are drawn from a dedicated generator seeded with the
//! configuration's `ts0` seed, so the set is bit-reproducible — the paper's
//! requirement for applying the same `TS0` under every `TS(I, D1)`.
//!
//! Draw order (pinned, part of the reproducibility contract): for each test
//! in sequence, first the `N_SV` scan-in bits in *shift order* — the first
//! bit drawn is the first bit shifted into the chain, which ends at the
//! chain *tail* — then the `L × N_PI` vector bits (time-unit major, input
//! order within a vector). The shift-order convention is what a hardware
//! scan-in does, so the BIST controller of `rls-bist` reproduces this
//! stream bit for bit.

use rls_fsim::ScanTest;
use rls_lfsr::{RandomSource, XorShift64};
use rls_netlist::Circuit;

use crate::config::RlsConfig;

/// Generates `TS0` for a circuit.
///
/// The same configuration always yields the same test set.
///
/// # Example
///
/// ```
/// let c = rls_benchmarks::s27();
/// let cfg = rls_core::RlsConfig::new(4, 8, 16);
/// let ts0 = rls_core::generate_ts0(&c, &cfg);
/// assert_eq!(ts0.len(), 32); // 2N
/// assert_eq!(ts0[0].len(), 4); // L_A
/// assert_eq!(ts0[16].len(), 8); // L_B
/// ```
pub fn generate_ts0(circuit: &Circuit, cfg: &RlsConfig) -> Vec<ScanTest> {
    let mut rng = XorShift64::new(cfg.seeds.ts0_seed());
    generate_with_source(circuit, cfg, &mut rng)
}

/// Generates `TS0` drawing from an arbitrary source (used by the BIST
/// controller equivalence tests, which substitute a hardware LFSR).
pub fn generate_with_source<R: RandomSource>(
    circuit: &Circuit,
    cfg: &RlsConfig,
    rng: &mut R,
) -> Vec<ScanTest> {
    let n_sv = circuit.num_dffs();
    let n_pi = circuit.num_inputs();
    let mut tests = Vec::with_capacity(2 * cfg.n);
    for index in 0..2 * cfg.n {
        let length = if index < cfg.n { cfg.la } else { cfg.lb };
        // Shift order: the first bit drawn is shifted in first and ends at
        // the chain tail (the highest index).
        let mut scan_in = vec![false; n_sv];
        for slot in scan_in.iter_mut().rev() {
            *slot = rng.next_bit();
        }
        let vectors: Vec<Vec<bool>> = (0..length)
            .map(|_| {
                let mut v = vec![false; n_pi];
                rng.fill_bits(&mut v);
                v
            })
            .collect();
        tests.push(ScanTest::new(scan_in, vectors));
    }
    tests
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RlsConfig;

    fn cfg() -> RlsConfig {
        RlsConfig::new(8, 16, 64)
    }

    #[test]
    fn shape_is_2n_with_two_lengths() {
        let c = rls_benchmarks::s27();
        let ts0 = generate_ts0(&c, &cfg());
        assert_eq!(ts0.len(), 128);
        for t in &ts0[..64] {
            assert_eq!(t.len(), 8);
        }
        for t in &ts0[64..] {
            assert_eq!(t.len(), 16);
        }
    }

    #[test]
    fn widths_match_circuit() {
        let c = rls_benchmarks::s27();
        let ts0 = generate_ts0(&c, &cfg());
        for t in &ts0 {
            assert_eq!(t.scan_in.len(), 3);
            for v in t.vectors.iter() {
                assert_eq!(v.len(), 4);
            }
            assert!(t.shifts.is_empty(), "TS0 has no limited scans");
        }
    }

    #[test]
    fn generation_is_reproducible() {
        let c = rls_benchmarks::s27();
        assert_eq!(generate_ts0(&c, &cfg()), generate_ts0(&c, &cfg()));
    }

    #[test]
    fn different_seeds_differ() {
        let c = rls_benchmarks::s27();
        let a = generate_ts0(&c, &cfg());
        let other = cfg().with_seeds(rls_lfsr::SeedSequence::new(42));
        let b = generate_ts0(&c, &other);
        assert_ne!(a, b);
    }

    #[test]
    fn bits_look_random() {
        let c = rls_benchmarks::s27();
        let ts0 = generate_ts0(&c, &cfg());
        let ones: usize = ts0
            .iter()
            .flat_map(|t| t.vectors.iter())
            .flat_map(|v| v.iter())
            .filter(|&&b| b)
            .count();
        let total: usize = ts0.iter().map(|t| t.len() * 4).sum();
        let frac = ones as f64 / total as f64;
        assert!((0.45..0.55).contains(&frac), "bias {frac}");
    }

    #[test]
    fn lfsr_source_is_also_reproducible() {
        let c = rls_benchmarks::s27();
        let config = cfg();
        let mut l1 = rls_lfsr::GaloisLfsr::max_length(32, 0xACE1).unwrap();
        let mut l2 = rls_lfsr::GaloisLfsr::max_length(32, 0xACE1).unwrap();
        let a = generate_with_source(&c, &config, &mut l1);
        let b = generate_with_source(&c, &config, &mut l2);
        assert_eq!(a, b);
    }
}
