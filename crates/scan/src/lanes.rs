//! Lane words: the bit-parallel machine word the fault simulator is
//! generic over.
//!
//! A lane word holds one circuit net's value across `LANES` independent
//! faulty machines — bit `i` belongs to machine `i`. The classic kernel
//! uses a bare `u64` (64 lanes); [`WideWord`] chunks `N` such words into
//! one logical word of `64 * N` lanes so a single batch carries up to 512
//! faults with identical semantics. All operations are plain scalar
//! bitwise ops on the underlying `u64`s: the compiler auto-vectorises the
//! fixed-length array loops, and every width is bit-identical to running
//! the 64-lane kernel on each sub-word (the equivalence suite proves it).
//!
//! # Example
//!
//! ```
//! use rls_scan::lanes::{LaneWord, W256};
//!
//! let mut w = W256::ZERO;
//! w.set_lane(200, true);
//! assert!(w.lane(200));
//! assert_eq!(W256::LANES, 256);
//! assert_eq!(W256::low_mask(256), W256::ONES);
//! ```

use std::fmt::Debug;
use std::ops::{BitAnd, BitAndAssign, BitOr, BitOrAssign, BitXor, BitXorAssign, Not};

/// A fixed-width machine word of `LANES` one-bit lanes.
///
/// Implemented by `u64` (64 lanes) and by [`WideWord<N>`] (`64 * N`
/// lanes). The bounds are exactly what the bit-parallel kernel needs:
/// value semantics plus the four bitwise operators.
pub trait LaneWord:
    Copy
    + Eq
    + Debug
    + Send
    + Sync
    + 'static
    + BitAnd<Output = Self>
    + BitOr<Output = Self>
    + BitXor<Output = Self>
    + Not<Output = Self>
    + BitAndAssign
    + BitOrAssign
    + BitXorAssign
{
    /// Number of one-bit lanes in the word.
    const LANES: usize;
    /// All lanes clear.
    const ZERO: Self;
    /// All lanes set.
    const ONES: Self;

    /// Broadcasts one bit to every lane.
    #[inline]
    fn splat(bit: bool) -> Self {
        if bit {
            Self::ONES
        } else {
            Self::ZERO
        }
    }

    /// Sets or clears lane `lane`.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= Self::LANES`.
    fn set_lane(&mut self, lane: usize, bit: bool);

    /// Reads lane `lane`.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= Self::LANES`.
    fn lane(&self, lane: usize) -> bool;

    /// A word with the low `n` lanes set and the rest clear.
    ///
    /// # Panics
    ///
    /// Panics if `n > Self::LANES`.
    fn low_mask(n: usize) -> Self;
}

impl LaneWord for u64 {
    const LANES: usize = 64;
    const ZERO: Self = 0;
    const ONES: Self = !0;

    #[inline]
    fn set_lane(&mut self, lane: usize, bit: bool) {
        assert!(lane < 64, "lane {lane} out of range for a 64-lane word");
        if bit {
            *self |= 1u64 << lane;
        } else {
            *self &= !(1u64 << lane);
        }
    }

    #[inline]
    fn lane(&self, lane: usize) -> bool {
        assert!(lane < 64, "lane {lane} out of range for a 64-lane word");
        *self >> lane & 1 == 1
    }

    #[inline]
    fn low_mask(n: usize) -> Self {
        assert!(n <= 64, "mask of {n} lanes exceeds a 64-lane word");
        if n == 64 {
            !0
        } else {
            (1u64 << n) - 1
        }
    }
}

/// `N` chunked `u64`s acting as one `64 * N`-lane word.
///
/// Lane `i` lives in bit `i % 64` of element `i / 64`, so lane order is
/// element-major: element 0 holds lanes `0..64`, element 1 lanes
/// `64..128`, and so on. A newtype (not a bare `[u64; N]`) so the bitwise
/// operator traits can be implemented here.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct WideWord<const N: usize>(pub [u64; N]);

/// 128 lanes (two chunked `u64`s).
pub type W128 = WideWord<2>;
/// 256 lanes (four chunked `u64`s).
pub type W256 = WideWord<4>;
/// 512 lanes (eight chunked `u64`s).
pub type W512 = WideWord<8>;

/// Expands `$body` once per lane word, narrowest first (`u64`, [`W128`],
/// [`W256`], [`W512`]), with `$W` naming that word — for the tests and
/// benches that sweep a width-generic kernel across every width.
///
/// ```
/// use rls_scan::lanes::LaneWord;
///
/// let mut lanes = Vec::new();
/// rls_scan::for_each_lane_word!(W => { lanes.push(W::LANES) });
/// assert_eq!(lanes, [64, 128, 256, 512]);
/// ```
#[macro_export]
macro_rules! for_each_lane_word {
    ($W:ident => $body:block) => {{
        {
            type $W = u64;
            $body
        }
        {
            type $W = $crate::W128;
            $body
        }
        {
            type $W = $crate::W256;
            $body
        }
        {
            type $W = $crate::W512;
            $body
        }
    }};
}

impl<const N: usize> BitAnd for WideWord<N> {
    type Output = Self;
    #[inline]
    fn bitand(mut self, rhs: Self) -> Self {
        for i in 0..N {
            self.0[i] &= rhs.0[i];
        }
        self
    }
}

impl<const N: usize> BitOr for WideWord<N> {
    type Output = Self;
    #[inline]
    fn bitor(mut self, rhs: Self) -> Self {
        for i in 0..N {
            self.0[i] |= rhs.0[i];
        }
        self
    }
}

impl<const N: usize> BitXor for WideWord<N> {
    type Output = Self;
    #[inline]
    fn bitxor(mut self, rhs: Self) -> Self {
        for i in 0..N {
            self.0[i] ^= rhs.0[i];
        }
        self
    }
}

impl<const N: usize> Not for WideWord<N> {
    type Output = Self;
    #[inline]
    fn not(mut self) -> Self {
        for i in 0..N {
            self.0[i] = !self.0[i];
        }
        self
    }
}

impl<const N: usize> BitAndAssign for WideWord<N> {
    #[inline]
    fn bitand_assign(&mut self, rhs: Self) {
        for i in 0..N {
            self.0[i] &= rhs.0[i];
        }
    }
}

impl<const N: usize> BitOrAssign for WideWord<N> {
    #[inline]
    fn bitor_assign(&mut self, rhs: Self) {
        for i in 0..N {
            self.0[i] |= rhs.0[i];
        }
    }
}

impl<const N: usize> BitXorAssign for WideWord<N> {
    #[inline]
    fn bitxor_assign(&mut self, rhs: Self) {
        for i in 0..N {
            self.0[i] ^= rhs.0[i];
        }
    }
}

impl<const N: usize> LaneWord for WideWord<N> {
    const LANES: usize = 64 * N;
    const ZERO: Self = WideWord([0; N]);
    const ONES: Self = WideWord([!0; N]);

    #[inline]
    fn set_lane(&mut self, lane: usize, bit: bool) {
        assert!(
            lane < Self::LANES,
            "lane {lane} out of range for a {}-lane word",
            Self::LANES
        );
        // In range: lane / 64 < N by the assertion above.
        self.0[lane / 64].set_lane(lane % 64, bit);
    }

    #[inline]
    fn lane(&self, lane: usize) -> bool {
        assert!(
            lane < Self::LANES,
            "lane {lane} out of range for a {}-lane word",
            Self::LANES
        );
        self.0[lane / 64].lane(lane % 64)
    }

    #[inline]
    fn low_mask(n: usize) -> Self {
        assert!(
            n <= Self::LANES,
            "mask of {n} lanes exceeds a {}-lane word",
            Self::LANES
        );
        let mut out = [0u64; N];
        for (i, w) in out.iter_mut().enumerate() {
            let lo = i * 64;
            *w = u64::low_mask(n.saturating_sub(lo).min(64));
        }
        WideWord(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_word_basics<W: LaneWord>() {
        assert_eq!(W::splat(false), W::ZERO);
        assert_eq!(W::splat(true), W::ONES);
        assert_eq!(!W::ZERO, W::ONES);
        assert_eq!(W::low_mask(0), W::ZERO);
        assert_eq!(W::low_mask(W::LANES), W::ONES);
        for lane in [0, 1, W::LANES / 2, W::LANES - 1] {
            let mut w = W::ZERO;
            assert!(!w.lane(lane));
            w.set_lane(lane, true);
            assert!(w.lane(lane));
            // Only this lane changed.
            for other in 0..W::LANES {
                assert_eq!(w.lane(other), other == lane, "lane {other}");
            }
            w.set_lane(lane, false);
            assert_eq!(w, W::ZERO);
        }
        // low_mask(n) sets exactly the low n lanes.
        for n in [1, 63, 64, 65, W::LANES - 1] {
            if n > W::LANES {
                continue;
            }
            let m = W::low_mask(n);
            for lane in 0..W::LANES {
                assert_eq!(m.lane(lane), lane < n, "mask {n} lane {lane}");
            }
        }
    }

    #[test]
    fn u64_basics() {
        check_word_basics::<u64>();
    }

    #[test]
    fn wide_word_basics_all_widths() {
        check_word_basics::<W128>();
        check_word_basics::<W256>();
        check_word_basics::<W512>();
    }

    #[test]
    fn wide_ops_match_u64_elementwise() {
        let a = WideWord([0xF0F0_F0F0_F0F0_F0F0u64, 0x1234_5678_9ABC_DEF0]);
        let b = WideWord([0x0FF0_0FF0_0FF0_0FF0u64, 0xFFFF_0000_FFFF_0000]);
        for i in 0..2 {
            assert_eq!((a & b).0[i], a.0[i] & b.0[i]);
            assert_eq!((a | b).0[i], a.0[i] | b.0[i]);
            assert_eq!((a ^ b).0[i], a.0[i] ^ b.0[i]);
            assert_eq!((!a).0[i], !a.0[i]);
        }
        let mut c = a;
        c &= b;
        assert_eq!(c, a & b);
        let mut c = a;
        c |= b;
        assert_eq!(c, a | b);
        let mut c = a;
        c ^= b;
        assert_eq!(c, a ^ b);
    }

    #[test]
    fn lanes_span_element_boundary() {
        let mut w = W128::ZERO;
        w.set_lane(63, true);
        w.set_lane(64, true);
        assert_eq!(w.0[0], 1u64 << 63);
        assert_eq!(w.0[1], 1);
    }

    #[test]
    fn low_mask_partial_element() {
        let m = W256::low_mask(130);
        assert_eq!(m.0, [!0u64, !0u64, 0b11, 0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_lane_out_of_range_panics() {
        let mut w = W128::ZERO;
        w.set_lane(128, true);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn low_mask_out_of_range_panics() {
        let _ = u64::low_mask(65);
    }
}
