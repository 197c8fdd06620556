//! Primitive-polynomial tap table for maximal-length LFSRs.
//!
//! One primitive polynomial per degree 2–64, from the classic
//! maximal-length tap tables (Xilinx XAPP052 and Alfke's list). A degree-`n`
//! LFSR built on these taps cycles through all `2^n - 1` nonzero states.

use std::error::Error;
use std::fmt;

/// Smallest supported LFSR degree.
pub const MIN_DEGREE: u32 = 2;
/// Largest supported LFSR degree.
pub const MAX_DEGREE: u32 = 64;

/// Errors looking up a tap mask.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LfsrError {
    /// Degree outside `MIN_DEGREE..=MAX_DEGREE`.
    UnsupportedDegree(u32),
}

impl fmt::Display for LfsrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LfsrError::UnsupportedDegree(d) => {
                write!(f, "unsupported LFSR degree {d} (supported: 2..=64)")
            }
        }
    }
}

impl Error for LfsrError {}

/// Tap positions (1-indexed bit numbers, MSB = degree) per degree.
/// `TAPS[d - 2]` lists the taps of the degree-`d` polynomial.
const TAPS: [&[u32]; 63] = [
    &[2, 1],              // 2
    &[3, 2],              // 3
    &[4, 3],              // 4
    &[5, 3],              // 5
    &[6, 5],              // 6
    &[7, 6],              // 7
    &[8, 6, 5, 4],        // 8
    &[9, 5],              // 9
    &[10, 7],             // 10
    &[11, 9],             // 11
    &[12, 6, 4, 1],       // 12
    &[13, 4, 3, 1],       // 13
    &[14, 5, 3, 1],       // 14
    &[15, 14],            // 15
    &[16, 15, 13, 4],     // 16
    &[17, 14],            // 17
    &[18, 11],            // 18
    &[19, 6, 2, 1],       // 19
    &[20, 17],            // 20
    &[21, 19],            // 21
    &[22, 21],            // 22
    &[23, 18],            // 23
    &[24, 23, 22, 17],    // 24
    &[25, 22],            // 25
    &[26, 6, 2, 1],       // 26
    &[27, 5, 2, 1],       // 27
    &[28, 25],            // 28
    &[29, 27],            // 29
    &[30, 6, 4, 1],       // 30
    &[31, 28],            // 31
    &[32, 22, 2, 1],      // 32
    &[33, 20],            // 33
    &[34, 27, 2, 1],      // 34
    &[35, 33],            // 35
    &[36, 25],            // 36
    &[37, 5, 4, 3, 2, 1], // 37
    &[38, 6, 5, 1],       // 38
    &[39, 35],            // 39
    &[40, 38, 21, 19],    // 40
    &[41, 38],            // 41
    &[42, 41, 20, 19],    // 42
    &[43, 42, 38, 37],    // 43
    &[44, 43, 18, 17],    // 44
    &[45, 44, 42, 41],    // 45
    &[46, 45, 26, 25],    // 46
    &[47, 42],            // 47
    &[48, 47, 21, 20],    // 48
    &[49, 40],            // 49
    &[50, 49, 24, 23],    // 50
    &[51, 50, 36, 35],    // 51
    &[52, 49],            // 52
    &[53, 52, 38, 37],    // 53
    &[54, 53, 18, 17],    // 54
    &[55, 31],            // 55
    &[56, 55, 35, 34],    // 56
    &[57, 50],            // 57
    &[58, 39],            // 58
    &[59, 58, 38, 37],    // 59
    &[60, 59],            // 60
    &[61, 60, 46, 45],    // 61
    &[62, 61, 6, 5],      // 62
    &[63, 62],            // 63
    &[64, 63, 61, 60],    // 64
];

/// Returns the primitive tap mask for a maximal-length LFSR of `degree`.
///
/// Bit `t - 1` of the mask is set for each tap position `t`; the top tap
/// (`degree`) is always included.
///
/// # Errors
///
/// Returns [`LfsrError::UnsupportedDegree`] outside 2–64.
///
/// # Example
///
/// ```
/// let taps = rls_lfsr::primitive_taps(4).unwrap();
/// assert_eq!(taps, 0b1100); // taps at positions 4 and 3
/// ```
pub fn primitive_taps(degree: u32) -> Result<u64, LfsrError> {
    if !(MIN_DEGREE..=MAX_DEGREE).contains(&degree) {
        return Err(LfsrError::UnsupportedDegree(degree));
    }
    let mut mask = 0u64;
    for &t in TAPS[(degree - 2) as usize] {
        mask |= 1u64 << (t - 1);
    }
    Ok(mask)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All-ones mask of `degree` bits.
    fn state_mask(degree: u32) -> u64 {
        if degree == 64 {
            !0u64
        } else {
            (1u64 << degree) - 1
        }
    }

    #[test]
    fn taps_cover_all_degrees() {
        for d in MIN_DEGREE..=MAX_DEGREE {
            let taps = primitive_taps(d).unwrap();
            assert_ne!(taps, 0);
            // Top tap always present.
            assert_ne!(taps & (1u64 << (d - 1)), 0, "degree {d}");
            // No taps above the degree.
            assert_eq!(taps & !state_mask(d), 0, "degree {d}");
            // Even number of taps => odd number of feedback terms + x^0:
            // all primitive polynomials have an even tap count here.
            assert_eq!(TAPS[(d - 2) as usize].len() % 2, 0, "degree {d}");
        }
    }

    /// One clock of the right-shift Galois register the MISR runs: the
    /// bottom bit shifts out and, when set, the tap mask is XORed in.
    fn galois_step(state: u64, taps: u64) -> u64 {
        let out = state & 1;
        (state >> 1) ^ (taps & out.wrapping_neg())
    }

    /// A square GF(2) matrix of at most 64 rows; bit `j` of `rows[i]` is
    /// entry `(i, j)`, so the parity of `rows[i] & state` is bit `i` of
    /// the next state.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Gf2Matrix {
        rows: Vec<u64>,
    }

    impl Gf2Matrix {
        fn identity(n: usize) -> Self {
            Gf2Matrix {
                rows: (0..n).map(|i| 1u64 << i).collect(),
            }
        }

        /// The transition matrix of `galois_step` with `taps` on an
        /// `n`-bit register: column `j` is the step applied to bit `j`.
        fn galois(n: usize, taps: u64) -> Self {
            let mut rows = vec![0u64; n];
            for j in 0..n {
                let next = galois_step(1u64 << j, taps);
                for (i, row) in rows.iter_mut().enumerate() {
                    *row |= (next >> i & 1) << j;
                }
            }
            Gf2Matrix { rows }
        }

        fn mul(&self, other: &Gf2Matrix) -> Gf2Matrix {
            let rows = self
                .rows
                .iter()
                .map(|&row| {
                    let (mut acc, mut bits) = (0u64, row);
                    while bits != 0 {
                        acc ^= other.rows[bits.trailing_zeros() as usize];
                        bits &= bits - 1;
                    }
                    acc
                })
                .collect();
            Gf2Matrix { rows }
        }

        fn pow(&self, mut k: u128) -> Gf2Matrix {
            let mut result = Gf2Matrix::identity(self.rows.len());
            let mut base = self.clone();
            while k > 0 {
                if k & 1 == 1 {
                    result = result.mul(&base);
                }
                base = base.mul(&base);
                k >>= 1;
            }
            result
        }
    }

    #[test]
    fn galois_matrix_matches_stepping() {
        let taps = primitive_taps(12).unwrap();
        let m = Gf2Matrix::galois(12, taps);
        let (mut state, mut via_matrix) = (0x5A5u64, 0x5A5u64);
        for _ in 0..100 {
            state = galois_step(state, taps);
            via_matrix = m.rows.iter().enumerate().fold(0, |y, (i, &row)| {
                y | u64::from((row & via_matrix).count_ones() & 1) << i
            });
            assert_eq!(via_matrix, state);
        }
    }

    /// Exhaustive: for degrees 2–16 the register visits every nonzero
    /// state once before returning to its seed.
    #[test]
    fn maximal_period_small_degrees() {
        for degree in 2..=16u32 {
            let taps = primitive_taps(degree).unwrap();
            let period = (1usize << degree) - 1;
            let mut seen = vec![false; period + 1];
            let mut state = 1u64;
            for _ in 0..period {
                assert!(!seen[state as usize], "degree {degree} repeated early");
                seen[state as usize] = true;
                state = galois_step(state, taps);
            }
            assert_eq!(state, 1, "degree {degree} did not close the cycle");
        }
    }

    /// For every degree 2–64 the transition matrix `M` satisfies
    /// `M^(2^n - 1) = I`, so the period divides `2^n - 1`, including
    /// degrees far beyond exhaustive reach.
    #[test]
    fn tap_table_period_divides_maximal_for_all_degrees() {
        for degree in MIN_DEGREE..=MAX_DEGREE {
            let m = Gf2Matrix::galois(degree as usize, primitive_taps(degree).unwrap());
            let period = u128::from(state_mask(degree));
            assert_eq!(
                m.pow(period),
                Gf2Matrix::identity(degree as usize),
                "degree {degree}"
            );
        }
    }

    /// No tap-table polynomial repeats within 16 steps, which would mark a
    /// grossly composite polynomial.
    #[test]
    fn tap_table_has_no_tiny_period() {
        for degree in MIN_DEGREE..=MAX_DEGREE {
            let m = Gf2Matrix::galois(degree as usize, primitive_taps(degree).unwrap());
            let identity = Gf2Matrix::identity(degree as usize);
            for k in 1..=16u128.min(u128::from(state_mask(degree)) - 1) {
                assert_ne!(m.pow(k), identity, "degree {degree} repeats at power {k}");
            }
        }
    }

    #[test]
    fn out_of_range_degrees_rejected() {
        assert_eq!(primitive_taps(0), Err(LfsrError::UnsupportedDegree(0)));
        assert_eq!(primitive_taps(1), Err(LfsrError::UnsupportedDegree(1)));
        assert_eq!(primitive_taps(65), Err(LfsrError::UnsupportedDegree(65)));
    }

    #[test]
    fn degree_four_taps() {
        assert_eq!(primitive_taps(4).unwrap(), 0b1100);
    }

    #[test]
    fn error_display() {
        assert!(LfsrError::UnsupportedDegree(1)
            .to_string()
            .contains("degree 1"));
    }
}
