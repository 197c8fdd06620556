//! Test representation: scan-in state, at-speed vectors, limited scans.
//!
//! A [`ScanTest`] is the paper's `τ = (SI, T)` plus the limited-scan
//! schedule `shift(u)` of a derived test `τ̂ ∈ TS(I, D1)`: at time unit `u`
//! (for `0 < u < L`), the state is first shifted by `shift(u)` positions
//! (with given fill bits), then the vector `T(u)` is applied at speed.
//!
//! The vectors are bit-packed ([`TestVectors`]): one shared `u64` array
//! holding `L` rows of `N_PI` bits, each row padded to whole words, with
//! input `i` of time unit `u` in bit `i % 64` of the row's word `i / 64`.
//! Random stimulus is drawn straight into the words
//! ([`TestVectors::draw`]), and the SoA kernel reads them a word at a
//! time; [`ScanTest::units`] hands out one [`VectorRow`] view per time
//! unit.
//!
//! A test's stimulus and schedule are shared and immutable: cloning a
//! [`ScanTest`] copies three reference counts, not bits. A derived test
//! reads its `TS0` test's scan-in and vectors in place, and tests may
//! share one schedule.

use std::error::Error;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use rls_lfsr::RandomSource;

/// Bits per storage word of [`TestVectors`].
const WORD_BITS: usize = u64::BITS as usize;

/// A test's at-speed vectors `T(0) … T(L-1)`, bit-packed.
///
/// Row `u` occupies `width.div_ceil(64)` consecutive words of one shared
/// array; bit `i` of the row is bit `i % 64` of its word `i / 64`, and the
/// padding above `width` is always zero. A clone shares the array, and
/// equality compares contents.
#[derive(Clone, PartialEq, Eq)]
pub struct TestVectors {
    words: Arc<[u64]>,
    len: usize,
    width: usize,
}

impl TestVectors {
    /// `len` rows of `width` bits from their packed words, row-major,
    /// `width.div_ceil(64)` words per row.
    ///
    /// # Panics
    ///
    /// Panics if `words` does not hold exactly `len` rows or a row has a
    /// bit set above `width`.
    pub fn from_words(len: usize, width: usize, words: impl Into<Arc<[u64]>>) -> Self {
        let words = words.into();
        let stride = width.div_ceil(WORD_BITS);
        assert_eq!(words.len(), len * stride, "packed vector length mismatch");
        if !width.is_multiple_of(WORD_BITS) {
            let padding = !0u64 << (width % WORD_BITS);
            assert!(
                words
                    .chunks_exact(stride)
                    .all(|row| row.last().is_none_or(|w| w & padding == 0)),
                "packed vector rows must be zero above their width"
            );
        }
        TestVectors { words, len, width }
    }

    /// `len` random rows of `width` bits: row after row, input `i` of a row
    /// is the `i`-th bit drawn for it. Each row is drawn in
    /// [`RandomSource::next_bits`] calls of up to 64 bits, which by that
    /// method's contract yield the same bits as `width` single-bit draws.
    pub fn draw(len: usize, width: usize, rng: &mut impl RandomSource) -> Self {
        let mut words = Vec::with_capacity(len * width.div_ceil(WORD_BITS));
        for _ in 0..len {
            let mut left = width;
            while left > 0 {
                let take = left.min(WORD_BITS);
                words.push(rng.next_bits(take as u32));
                left -= take;
            }
        }
        TestVectors::from_words(len, width, words)
    }

    /// Number of time units `L`.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there are no time units.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bits per vector (the circuit's primary inputs).
    pub fn width(&self) -> usize {
        self.width
    }

    /// The vector of time unit `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u >= self.len()`.
    pub fn row(&self, u: usize) -> VectorRow<'_> {
        assert!(u < self.len, "time unit {u} outside 0..{}", self.len);
        let stride = self.width.div_ceil(WORD_BITS);
        VectorRow {
            // lint: panic-ok(u < len asserted above, and the array holds len rows of stride words)
            words: &self.words[u * stride..(u + 1) * stride],
            width: self.width,
        }
    }

    /// The packed words of time units `units`, row after row
    /// (`width.div_ceil(64)` words per row).
    ///
    /// # Panics
    ///
    /// Panics if `units` reaches past `self.len()`.
    pub(crate) fn rows_words(&self, units: Range<usize>) -> &[u64] {
        let stride = self.width.div_ceil(WORD_BITS);
        // lint: panic-ok(documented contract: units lie inside 0..len, and the array holds len rows of stride words)
        &self.words[units.start * stride..units.end * stride]
    }

    /// The vectors in time order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = VectorRow<'_>> + '_ {
        (0..self.len).map(|u| self.row(u))
    }

    /// Whether both share one packed array (a derived test and its `TS0`
    /// test do).
    pub fn ptr_eq(&self, other: &TestVectors) -> bool {
        Arc::ptr_eq(&self.words, &other.words)
    }
}

impl From<Vec<Vec<bool>>> for TestVectors {
    /// Packs rows of bits. The width is the first row's length, so an
    /// empty list of rows has width 0.
    ///
    /// # Panics
    ///
    /// Panics if the rows differ in width.
    fn from(rows: Vec<Vec<bool>>) -> Self {
        let width = rows.first().map_or(0, Vec::len);
        let mut words = Vec::with_capacity(rows.len() * width.div_ceil(WORD_BITS));
        for row in &rows {
            assert_eq!(row.len(), width, "vector width mismatch");
            words.extend(row.chunks(WORD_BITS).map(|chunk| {
                chunk
                    .iter()
                    .enumerate()
                    .fold(0u64, |w, (i, &bit)| w | u64::from(bit) << i)
            }));
        }
        TestVectors::from_words(rows.len(), width, words)
    }
}

impl fmt::Debug for TestVectors {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// One packed vector: a borrowed row of a [`TestVectors`].
#[derive(Clone, Copy)]
pub struct VectorRow<'a> {
    words: &'a [u64],
    width: usize,
}

impl<'a> VectorRow<'a> {
    /// Bits in the vector.
    pub fn len(&self) -> usize {
        self.width
    }

    /// Whether the vector has no bits.
    pub fn is_empty(&self) -> bool {
        self.width == 0
    }

    /// Bit `i` (the value of primary input `i`).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.width, "input {i} outside 0..{}", self.width);
        // lint: panic-ok(i < width asserted above, and the row holds width.div_ceil(64) words)
        self.words[i / WORD_BITS] >> (i % WORD_BITS) & 1 == 1
    }

    /// The bits in input order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = bool> + 'a {
        let row = *self;
        (0..self.width).map(move |i| row.get(i))
    }

    /// The packed words: bit `i` is bit `i % 64` of word `i / 64`, and the
    /// bits above `len()` are zero.
    pub fn words(&self) -> &'a [u64] {
        self.words
    }

    /// The bits as a vector.
    pub fn to_vec(&self) -> Vec<bool> {
        self.iter().collect()
    }
}

impl fmt::Debug for VectorRow<'_> {
    /// The paper's notation: input 0 first, e.g. `0111`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let bits: String = self.iter().map(|b| if b { '1' } else { '0' }).collect();
        write!(f, "{bits}")
    }
}

/// A limited scan operation within a test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShiftOp {
    /// The time unit before whose vector the shift happens (`0 < at < L`).
    pub at: usize,
    /// Number of shift positions (`1..=N_SV`).
    pub amount: usize,
    /// Bits scanned in at the chain heads, one per chain per shift
    /// cycle, cycle-major (`fill[cycle * chains + chain]`): `amount` bits
    /// on a single chain.
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
    /// The at-speed primary input sequence `T`, one packed row of one bit
    /// per primary input per time unit.
    pub vectors: TestVectors,
    /// Limited scan operations, strictly ascending by `at`.
    pub shifts: Arc<[ShiftOp]>,
}

/// Errors constructing a [`ScanTest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TestError {
    /// A character other than `0`/`1` in a bit-string literal.
    BadBitChar(char),
    /// A vector whose width differs from the first vector's.
    VectorWidthMismatch {
        unit: usize,
        expected: usize,
        found: usize,
    },
    /// A shift op is out of the valid `0 < at < L` range.
    ShiftOutOfRange { at: usize, len: usize },
    /// Shift ops are not strictly ascending by time unit.
    ShiftsUnordered,
    /// A shift's fill is not a whole, nonzero number of bits per shift
    /// cycle.
    FillLengthMismatch { at: usize },
    /// A shift amount of zero (zero-shift draws are simply omitted).
    ZeroShift { at: usize },
}

impl fmt::Display for TestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TestError::BadBitChar(c) => write!(f, "invalid bit character {c:?}"),
            TestError::VectorWidthMismatch {
                unit,
                expected,
                found,
            } => write!(
                f,
                "vector of time unit {unit} has {found} bits, expected {expected}"
            ),
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
    /// A test without limited scans. Passing an `Arc` or [`TestVectors`]
    /// shares it; a `Vec` is copied (and rows of bits packed) into a new
    /// shared allocation.
    ///
    /// # Panics
    ///
    /// Panics if `vectors` are rows of bits that differ in width.
    pub fn new(scan_in: impl Into<Arc<[bool]>>, vectors: impl Into<TestVectors>) -> Self {
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
    /// Returns [`TestError::BadBitChar`] on non-binary characters and
    /// [`TestError::VectorWidthMismatch`] when the vectors differ in width.
    pub fn from_strings(scan_in: &str, vectors: &[&str]) -> Result<Self, TestError> {
        let rows = vectors
            .iter()
            .map(|v| parse_bits(v))
            .collect::<Result<Vec<_>, _>>()?;
        let expected = rows.first().map_or(0, Vec::len);
        if let Some((unit, row)) = rows.iter().enumerate().find(|(_, r)| r.len() != expected) {
            return Err(TestError::VectorWidthMismatch {
                unit,
                expected,
                found: row.len(),
            });
        }
        Ok(ScanTest::new(parse_bits(scan_in)?, rows))
    }

    /// Adds limited scan operations (replacing any existing schedule).
    /// Passing an `Arc` shares one schedule among tests.
    ///
    /// # Errors
    ///
    /// Validates the schedule: ascending time units within `0 < at < L`,
    /// nonzero amounts, and fills of a whole, nonzero number of bits per
    /// shift cycle (the kernel checks one bit per chain).
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
            if s.fill.is_empty() || s.fill.len() % s.amount != 0 {
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
    pub fn units(&self) -> impl Iterator<Item = (Option<&ShiftOp>, VectorRow<'_>)> {
        let mut shifts = self.shifts.iter().peekable();
        self.vectors
            .iter()
            .enumerate()
            .map(move |(u, v)| (shifts.next_if(|s| s.at == u), v))
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
        assert_eq!(t.vectors.row(0).to_vec(), [false, true, true, true]);
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
    fn ragged_strings_rejected() {
        assert_eq!(
            ScanTest::from_strings("0", &["01", "01", "1"]).unwrap_err(),
            TestError::VectorWidthMismatch {
                unit: 2,
                expected: 2,
                found: 1
            }
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
        // Two bits per cycle is a whole row on two chains.
        let rows = t.clone().with_shifts(vec![ShiftOp {
            at: 1,
            amount: 2,
            fill: vec![false; 4],
        }]);
        assert!(rows.is_ok());
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
            .map(|(op, v)| (op.map(|s| s.amount), v.get(0)))
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

    #[test]
    fn vectors_round_trip_through_the_packed_rows() {
        // Widths below, at and above one word: 70 bits put each row in two
        // words, the second half-padded.
        for width in [0usize, 1, 3, 63, 64, 65, 70, 128] {
            let rows: Vec<Vec<bool>> = (0..5)
                .map(|u| (0..width).map(|i| (i * 7 + u * 3) % 5 < 2).collect())
                .collect();
            let packed = TestVectors::from(rows.clone());
            assert_eq!(packed.len(), 5);
            assert_eq!(packed.width(), width);
            let back: Vec<Vec<bool>> = packed.iter().map(|r| r.to_vec()).collect();
            assert_eq!(back, rows, "width {width}");
            for (u, row) in rows.iter().enumerate() {
                let view = packed.row(u);
                assert_eq!(view.len(), width);
                assert_eq!(view.words().len(), width.div_ceil(64));
                for (i, &bit) in row.iter().enumerate() {
                    assert_eq!(view.get(i), bit, "width {width}, unit {u}, input {i}");
                }
            }
            let rebuilt = TestVectors::from_words(5, width, packed.words.to_vec());
            assert_eq!(rebuilt, packed);
            assert!(!rebuilt.ptr_eq(&packed));
            assert!(packed.clone().ptr_eq(&packed));
        }
    }

    #[test]
    fn draw_matches_single_bit_draws() {
        use rls_lfsr::XorShift64;
        for width in [0usize, 1, 4, 63, 64, 65, 130] {
            let drawn = TestVectors::draw(7, width, &mut XorShift64::new(99));
            let mut rng = XorShift64::new(99);
            let rows: Vec<Vec<bool>> = (0..7)
                .map(|_| (0..width).map(|_| rng.next_bit()).collect())
                .collect();
            assert_eq!(drawn, TestVectors::from(rows), "width {width}");
            assert_eq!(drawn.width(), width);
        }
    }

    #[test]
    fn vector_equality_compares_contents() {
        let a = TestVectors::from(vec![vec![true, false, true], vec![false; 3]]);
        let b = TestVectors::from(vec![vec![true, false, true], vec![false; 3]]);
        assert_eq!(a, b);
        assert!(!a.ptr_eq(&b));
        assert_ne!(
            a,
            TestVectors::from(vec![vec![true, false, false], vec![false; 3]])
        );
        // Same bits, different shape.
        assert_ne!(
            a,
            TestVectors::from(vec![vec![true, false, true, false, false, false]])
        );
        assert_eq!(format!("{a:?}"), "[101, 000]");
    }

    #[test]
    #[should_panic(expected = "vector width mismatch")]
    fn ragged_vectors_are_rejected() {
        let _ = TestVectors::from(vec![vec![true, false], vec![true]]);
    }

    #[test]
    #[should_panic(expected = "zero above their width")]
    fn set_padding_is_rejected() {
        let _ = TestVectors::from_words(1, 3, vec![0b1000u64]);
    }
}
