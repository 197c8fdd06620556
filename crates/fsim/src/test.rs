//! Test representation: scan-in state, at-speed vectors, limited scans.
//!
//! A [`ScanTest`] is the paper's `τ = (SI, T)` plus the limited-scan
//! schedule `shift(u)` of a derived test `τ̂ ∈ TS(I, D1)`: at time unit `u`
//! (for `0 < u < L`), the state is first shifted by `shift(u)` positions
//! (with given fill bits), then the vector `T(u)` is applied at speed.
//!
//! A test's stimulus and schedule are shared and immutable: cloning a
//! [`ScanTest`] copies three reference counts, not bits. A derived test
//! reads its `TS0` test's scan-in and vectors in place, and tests may
//! share one schedule.

use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// A limited scan operation within a test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShiftOp {
    /// The time unit before whose vector the shift happens (`0 < at < L`).
    pub at: usize,
    /// Number of shift positions (`1..=N_SV`).
    pub amount: usize,
    /// Bits scanned in at the chain head, one per shift cycle.
    pub fill: Vec<bool>,
}

/// A complete scan test: scan-in, vectors, optional limited scans, final
/// scan-out (implicit).
///
/// The three parts are shared slices, so a clone shares them with the
/// original; equality compares contents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanTest {
    /// The scan-in state `SI` (one bit per flip-flop, chain order).
    pub scan_in: Arc<[bool]>,
    /// The at-speed primary input sequence `T` (each inner vector has one
    /// bit per primary input).
    pub vectors: Arc<[Vec<bool>]>,
    /// Limited scan operations, strictly ascending by `at`.
    pub shifts: Arc<[ShiftOp]>,
}

/// Errors constructing a [`ScanTest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TestError {
    /// A character other than `0`/`1` in a bit-string literal.
    BadBitChar(char),
    /// A shift op is out of the valid `0 < at < L` range.
    ShiftOutOfRange { at: usize, len: usize },
    /// Shift ops are not strictly ascending by time unit.
    ShiftsUnordered,
    /// A shift's fill length does not equal its amount.
    FillLengthMismatch { at: usize },
    /// A shift amount of zero (zero-shift draws are simply omitted).
    ZeroShift { at: usize },
}

impl fmt::Display for TestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TestError::BadBitChar(c) => write!(f, "invalid bit character {c:?}"),
            TestError::ShiftOutOfRange { at, len } => {
                write!(f, "shift at time unit {at} outside 1..{len}")
            }
            TestError::ShiftsUnordered => write!(f, "shift operations must be ascending"),
            TestError::FillLengthMismatch { at } => {
                write!(f, "fill length mismatch for shift at time unit {at}")
            }
            TestError::ZeroShift { at } => {
                write!(f, "zero-amount shift at time unit {at}")
            }
        }
    }
}

impl Error for TestError {}

fn parse_bits(s: &str) -> Result<Vec<bool>, TestError> {
    s.chars()
        .map(|c| match c {
            '0' => Ok(false),
            '1' => Ok(true),
            other => Err(TestError::BadBitChar(other)),
        })
        .collect()
}

impl ScanTest {
    /// A test without limited scans. Passing `Arc`s shares them; a `Vec`
    /// is copied into a new shared allocation.
    pub fn new(scan_in: impl Into<Arc<[bool]>>, vectors: impl Into<Arc<[Vec<bool>]>>) -> Self {
        ScanTest {
            scan_in: scan_in.into(),
            vectors: vectors.into(),
            shifts: Arc::from([]),
        }
    }

    /// Builds a test from bit-string literals, e.g.
    /// `ScanTest::from_strings("001", &["0111", "1001"])` — handy for
    /// transcribing the paper's examples.
    ///
    /// # Errors
    ///
    /// Returns [`TestError::BadBitChar`] on non-binary characters.
    pub fn from_strings(scan_in: &str, vectors: &[&str]) -> Result<Self, TestError> {
        Ok(ScanTest::new(
            parse_bits(scan_in)?,
            vectors
                .iter()
                .map(|v| parse_bits(v))
                .collect::<Result<Vec<_>, _>>()?,
        ))
    }

    /// Adds limited scan operations (replacing any existing schedule).
    /// Passing an `Arc` shares one schedule among tests.
    ///
    /// # Errors
    ///
    /// Validates the schedule: ascending time units within `0 < at < L`,
    /// nonzero amounts, and matching fill lengths.
    pub fn with_shifts(mut self, shifts: impl Into<Arc<[ShiftOp]>>) -> Result<Self, TestError> {
        let shifts = shifts.into();
        let len = self.vectors.len();
        let mut prev: Option<usize> = None;
        for s in shifts.iter() {
            if s.at == 0 || s.at >= len {
                return Err(TestError::ShiftOutOfRange { at: s.at, len });
            }
            if let Some(p) = prev {
                if s.at <= p {
                    return Err(TestError::ShiftsUnordered);
                }
            }
            if s.amount == 0 {
                return Err(TestError::ZeroShift { at: s.at });
            }
            if s.fill.len() != s.amount {
                return Err(TestError::FillLengthMismatch { at: s.at });
            }
            prev = Some(s.at);
        }
        self.shifts = shifts;
        Ok(self)
    }

    /// The test length `L` (number of at-speed vectors).
    pub fn len(&self) -> usize {
        self.vectors.len()
    }

    /// Whether the test applies no vectors.
    pub fn is_empty(&self) -> bool {
        self.vectors.is_empty()
    }

    /// Each time unit in order: the limited scan that precedes its vector,
    /// if any, and the vector. One cursor walks the ascending schedule, so
    /// a full walk costs `O(L)`.
    pub fn units(&self) -> impl Iterator<Item = (Option<&ShiftOp>, &[bool])> {
        let mut shifts = self.shifts.iter().peekable();
        self.vectors
            .iter()
            .enumerate()
            .map(move |(u, v)| (shifts.next_if(|s| s.at == u), v.as_slice()))
    }

    /// Total limited-scan shift cycles (the test's contribution to the
    /// paper's `N_SH`).
    pub fn shift_cycles(&self) -> u64 {
        self.shifts.iter().map(|s| s.amount as u64).sum()
    }

    /// Number of time units with a limited scan operation (the `n_ls` of
    /// the paper's average).
    pub fn limited_scan_units(&self) -> usize {
        self.shifts.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_strings_parses_paper_test() {
        let t = ScanTest::from_strings("001", &["0111", "1001", "0111", "1001", "0100"]).unwrap();
        assert_eq!(*t.scan_in, [false, false, true]);
        assert_eq!(t.len(), 5);
        assert_eq!(t.vectors[0], vec![false, true, true, true]);
        assert_eq!(t.shift_cycles(), 0);
    }

    #[test]
    fn bad_bit_char_rejected() {
        assert_eq!(
            ScanTest::from_strings("0x1", &[]).unwrap_err(),
            TestError::BadBitChar('x')
        );
    }

    #[test]
    fn with_shifts_validates_range() {
        let t = ScanTest::from_strings("00", &["0", "1", "0"]).unwrap();
        let bad = t.clone().with_shifts(vec![ShiftOp {
            at: 0,
            amount: 1,
            fill: vec![false],
        }]);
        assert!(matches!(bad, Err(TestError::ShiftOutOfRange { .. })));
        let bad = t.clone().with_shifts(vec![ShiftOp {
            at: 3,
            amount: 1,
            fill: vec![false],
        }]);
        assert!(matches!(bad, Err(TestError::ShiftOutOfRange { .. })));
        let ok = t.with_shifts(vec![ShiftOp {
            at: 2,
            amount: 1,
            fill: vec![true],
        }]);
        assert!(ok.is_ok());
    }

    #[test]
    fn with_shifts_validates_order_and_fill() {
        let t = ScanTest::from_strings("00", &["0", "1", "0", "1"]).unwrap();
        let unordered = t.clone().with_shifts(vec![
            ShiftOp {
                at: 2,
                amount: 1,
                fill: vec![false],
            },
            ShiftOp {
                at: 1,
                amount: 1,
                fill: vec![false],
            },
        ]);
        assert_eq!(unordered.unwrap_err(), TestError::ShiftsUnordered);
        let mismatch = t.clone().with_shifts(vec![ShiftOp {
            at: 1,
            amount: 2,
            fill: vec![false],
        }]);
        assert!(matches!(
            mismatch,
            Err(TestError::FillLengthMismatch { .. })
        ));
        let zero = t.with_shifts(vec![ShiftOp {
            at: 1,
            amount: 0,
            fill: vec![],
        }]);
        assert!(matches!(zero, Err(TestError::ZeroShift { .. })));
    }

    #[test]
    fn accounting_helpers() {
        let t = ScanTest::from_strings("0000", &["0", "1", "0", "1", "1"])
            .unwrap()
            .with_shifts(vec![
                ShiftOp {
                    at: 1,
                    amount: 2,
                    fill: vec![true, false],
                },
                ShiftOp {
                    at: 3,
                    amount: 3,
                    fill: vec![false, false, true],
                },
            ])
            .unwrap();
        assert_eq!(t.shift_cycles(), 5);
        assert_eq!(t.limited_scan_units(), 2);
    }

    #[test]
    fn units_pair_each_vector_with_its_shift() {
        let t = ScanTest::from_strings("0000", &["0", "1", "0", "1", "1"])
            .unwrap()
            .with_shifts(vec![
                ShiftOp {
                    at: 1,
                    amount: 1,
                    fill: vec![true],
                },
                ShiftOp {
                    at: 4,
                    amount: 2,
                    fill: vec![false, true],
                },
            ])
            .unwrap();
        let walk: Vec<(Option<usize>, bool)> = t
            .units()
            .map(|(op, v)| (op.map(|s| s.amount), v[0]))
            .collect();
        assert_eq!(
            walk,
            [
                (None, false),
                (Some(1), true),
                (None, false),
                (None, true),
                (Some(2), true)
            ]
        );
    }
}
