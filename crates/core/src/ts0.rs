//! Generation of the base random test set `TS0`.
//!
//! `TS0 = {τ_1 … τ_N, τ_{N+1} … τ_{2N}}`: `N` tests of length `L_A`
//! followed by `N` tests of length `L_B`. Scan-in states and primary-input
//! vectors are drawn from a dedicated generator seeded with the
//! configuration's `ts0` seed, so the set is bit-reproducible — the paper's
//! requirement for applying the same `TS0` under every `TS(I, D1)`.
//!
//! Draw order (pinned, part of the reproducibility contract): for each test
//! in sequence, first the scan-in bits in *shift order* — the first bit
//! drawn is the first bit shifted into the chain, which ends at the chain
//! *tail* — then the `L × N_PI` vector bits (time-unit major, input order
//! within a vector). The shift-order convention is what a hardware scan-in
//! does, so the BIST controller of `rls-bist` reproduces this stream bit
//! for bit.
//!
//! A scan-in word has one bit per position the [`ChainMap`] loads: `N_SV`
//! under full and multichain scan, the chain length under partial scan.
//!
//! The vectors are drawn straight into their packed words
//! ([`TestVectors::draw`]): each row takes `N_PI` bits in draws of up to
//! 64, and a [`RandomSource::next_bits`] draw is by contract the same bits,
//! LSB first, as that many single-bit draws — so the packed rows hold
//! exactly the bit stream above.

use rls_fsim::{ChainMap, ScanTest, TestVectors};
use rls_lfsr::{RandomSource, XorShift64};
use rls_netlist::Circuit;

use crate::config::RlsConfig;

/// Generates `TS0` for a circuit under full scan.
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
    generate_ts0_on(circuit, &ChainMap::full(circuit.num_dffs()), cfg)
}

/// Generates `TS0` for a circuit whose scan-in loads the positions of
/// `chains`.
pub fn generate_ts0_on(circuit: &Circuit, chains: &ChainMap, cfg: &RlsConfig) -> Vec<ScanTest> {
    let mut rng = XorShift64::new(cfg.seeds.ts0_seed());
    generate_with_source(circuit, chains, cfg, &mut rng)
}

/// Generates `TS0` drawing from an arbitrary source (a second generator
/// in the tests below).
fn generate_with_source<R: RandomSource>(
    circuit: &Circuit,
    chains: &ChainMap,
    cfg: &RlsConfig,
    rng: &mut R,
) -> Vec<ScanTest> {
    let width = chains.load().len();
    let n_pi = circuit.num_inputs();
    let mut tests = Vec::with_capacity(2 * cfg.n);
    for index in 0..2 * cfg.n {
        let length = if index < cfg.n { cfg.la } else { cfg.lb };
        // Shift order: the first bit drawn is shifted in first and ends at
        // the chain tail (the highest index).
        let mut scan_in = vec![false; width];
        for slot in scan_in.iter_mut().rev() {
            *slot = rng.next_bit();
        }
        // Time-unit major; within a row, input `i` is the `i`-th draw.
        tests.push(ScanTest::new(
            scan_in,
            TestVectors::draw(length, n_pi, &mut *rng),
        ));
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
            assert_eq!(t.vectors.width(), 4);
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
            .filter(|&b| b)
            .count();
        let total: usize = ts0.iter().map(|t| t.len() * 4).sum();
        let frac = ones as f64 / total as f64;
        assert!((0.45..0.55).contains(&frac), "bias {frac}");
    }

    #[test]
    fn second_source_is_also_reproducible() {
        let c = rls_benchmarks::s27();
        let config = cfg();
        let mut s1 = rls_lfsr::SplitMix64::new(0xACE1);
        let mut s2 = rls_lfsr::SplitMix64::new(0xACE1);
        let full = ChainMap::full(c.num_dffs());
        let a = generate_with_source(&c, &full, &config, &mut s1);
        let b = generate_with_source(&c, &full, &config, &mut s2);
        assert_eq!(a, b);
        assert_ne!(a, generate_ts0(&c, &config), "a different source");
        assert_eq!(
            a,
            reference_ts0(&c, &config, rls_lfsr::SplitMix64::new(0xACE1))
        );
    }

    /// The per-bit reference generator: one `next_bit` per stimulus bit,
    /// scan-in in shift order, then vectors time-unit major as rows of
    /// bits.
    fn reference_ts0(c: &Circuit, cfg: &RlsConfig, mut rng: impl RandomSource) -> Vec<ScanTest> {
        (0..2 * cfg.n)
            .map(|index| {
                let length = if index < cfg.n { cfg.la } else { cfg.lb };
                let mut scan_in: Vec<bool> = (0..c.num_dffs()).map(|_| rng.next_bit()).collect();
                scan_in.reverse();
                let vectors: Vec<Vec<bool>> = (0..length)
                    .map(|_| (0..c.num_inputs()).map(|_| rng.next_bit()).collect())
                    .collect();
                ScanTest::new(scan_in, vectors)
            })
            .collect()
    }

    /// A synthetic circuit with 70 primary inputs: every vector row spans
    /// two words, the second one padded.
    fn wide_circuit() -> Circuit {
        rls_benchmarks::synth::SynthConfig {
            name: "wide70".to_string(),
            inputs: 70,
            outputs: 6,
            dffs: 5,
            gates: 90,
            seed: 7,
            resistant_gates: 1,
            resistant_width: 4,
        }
        .build()
    }

    #[test]
    fn packed_ts0_is_the_per_bit_stream() {
        let circuits = [
            rls_benchmarks::s27(),
            rls_benchmarks::by_name("s208").expect("s208 exists"),
            wide_circuit(),
        ];
        assert_eq!(circuits[2].num_inputs(), 70);
        for c in &circuits {
            for config in [RlsConfig::new(3, 7, 5), RlsConfig::new(1, 64, 2)] {
                let packed = generate_ts0(c, &config);
                let rng = XorShift64::new(config.seeds.ts0_seed());
                assert_eq!(packed, reference_ts0(c, &config, rng), "{}", c.name());
            }
        }
    }
}
