//! The kernel word: one net's value across the 512 lanes of a SoA tile.
//!
//! Lane `i` lives in bit `i % 64` of limb `i / 64`, so lane order is
//! limb-major: limb 0 holds lanes `0..64`, limb 1 lanes `64..128`, and so
//! on. All operations are plain scalar bitwise ops on the eight `u64`
//! limbs; the compiler auto-vectorises the fixed-length loops. Only
//! [`KernelWord::LANES`] is public: the format stays inside this crate.

use std::ops::{BitAnd, BitAndAssign, BitOr, BitOrAssign, BitXor, BitXorAssign, Not};

/// `u64` limbs per word.
const LIMBS: usize = 8;

/// Lanes per limb: lane `i` is bit `i % LIMB_LANES` of limb
/// `i / LIMB_LANES`.
pub(crate) const LIMB_LANES: usize = u64::BITS as usize;

/// The production kernel word: 512 one-bit lanes in eight `u64` limbs.
///
/// Chosen from the measured s953 TS0 campaign when the kernel still swept
/// 64- to 512-lane words (EXPERIMENTS.md): wider words amortise per-tile
/// setup, and [`crate::fill_height`] fills the lanes a thin fault tail
/// would otherwise waste with extra test patterns.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct KernelWord([u64; LIMBS]);

impl KernelWord {
    /// Number of one-bit lanes in the word.
    pub const LANES: usize = 64 * LIMBS;
    /// All lanes clear.
    pub(crate) const ZERO: Self = KernelWord([0; LIMBS]);
    /// All lanes set.
    pub(crate) const ONES: Self = KernelWord([!0; LIMBS]);

    /// Broadcasts one bit to every lane.
    #[inline]
    pub(crate) fn splat(bit: bool) -> Self {
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
    #[inline]
    pub(crate) fn set_lane(&mut self, lane: usize, bit: bool) {
        assert!(
            lane < Self::LANES,
            "lane {lane} out of range for a {}-lane word",
            Self::LANES
        );
        let m = 1u64 << (lane % 64);
        if bit {
            self.0[lane / 64] |= m;
        } else {
            self.0[lane / 64] &= !m;
        }
    }

    /// Reads lane `lane`.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= Self::LANES`.
    #[inline]
    pub(crate) fn lane(&self, lane: usize) -> bool {
        assert!(
            lane < Self::LANES,
            "lane {lane} out of range for a {}-lane word",
            Self::LANES
        );
        self.0[lane / 64] >> (lane % 64) & 1 == 1
    }

    /// ORs `bits` into limb `limb`: bit `b` of `bits` sets lane
    /// `LIMB_LANES * limb + b`.
    ///
    /// # Panics
    ///
    /// Panics if `limb >= LIMBS`.
    #[inline]
    pub(crate) fn or_limb(&mut self, limb: usize, bits: u64) {
        self.0[limb] |= bits;
    }

    /// A word with the low `n` lanes set and the rest clear.
    ///
    /// # Panics
    ///
    /// Panics if `n > Self::LANES`.
    #[inline]
    pub(crate) fn low_mask(n: usize) -> Self {
        assert!(
            n <= Self::LANES,
            "mask of {n} lanes exceeds a {}-lane word",
            Self::LANES
        );
        let mut out = [0u64; LIMBS];
        for (i, w) in out.iter_mut().enumerate() {
            let k = n.saturating_sub(i * 64).min(64);
            *w = if k == 64 { !0 } else { (1u64 << k) - 1 };
        }
        KernelWord(out)
    }

    /// Lane `i` moves to lane `i + n`: the low `n` lanes clear and lanes
    /// moved past the top are lost (`n >= LANES` clears the word).
    #[inline]
    pub(crate) fn shift_up(self, n: usize) -> Self {
        let (limbs, bits) = (n / 64, n % 64);
        let mut out = [0u64; LIMBS];
        for (i, w) in out.iter_mut().enumerate().skip(limbs) {
            // In range: limbs <= i < LIMBS, so i - limbs and i - limbs - 1
            // (when positive) index the source.
            let src = i - limbs;
            *w = self.0[src] << bits;
            if bits > 0 && src > 0 {
                *w |= self.0[src - 1] >> (64 - bits);
            }
        }
        KernelWord(out)
    }

    /// The word minus `rhs`, both read as `LANES`-bit unsigned integers
    /// (lane `i` is bit `i`), modulo `2^LANES`.
    #[inline]
    pub(crate) fn wrapping_sub(mut self, rhs: Self) -> Self {
        let mut borrow = false;
        for (a, b) in self.0.iter_mut().zip(rhs.0) {
            let (d, b1) = a.overflowing_sub(b);
            let (d, b2) = d.overflowing_sub(u64::from(borrow));
            *a = d;
            borrow = b1 || b2;
        }
        self
    }

    /// Fills `stride` lanes upward from every set lane: set lane `i`
    /// covers `[i, i + stride)`, cut at the top of the word. Set lanes
    /// must be at least `stride` apart; then the ranges are disjoint and
    /// `(self << stride) - self` is exactly their union, whatever the
    /// number of set lanes.
    #[inline]
    pub(crate) fn spread(self, stride: usize) -> Self {
        self.shift_up(stride).wrapping_sub(self)
    }
}

/// Implements a binary bitwise operator and its assigning form limb by
/// limb.
macro_rules! limbwise {
    ($($Op:ident $op:ident, $OpAssign:ident $op_assign:ident;)*) => {$(
        impl $Op for KernelWord {
            type Output = Self;
            #[inline]
            fn $op(mut self, rhs: Self) -> Self {
                self.$op_assign(rhs);
                self
            }
        }

        impl $OpAssign for KernelWord {
            #[inline]
            fn $op_assign(&mut self, rhs: Self) {
                for i in 0..LIMBS {
                    self.0[i].$op_assign(rhs.0[i]);
                }
            }
        }
    )*};
}

limbwise! {
    BitAnd bitand, BitAndAssign bitand_assign;
    BitOr bitor, BitOrAssign bitor_assign;
    BitXor bitxor, BitXorAssign bitxor_assign;
}

impl Not for KernelWord {
    type Output = Self;
    #[inline]
    fn not(mut self) -> Self {
        for i in 0..LIMBS {
            self.0[i] = !self.0[i];
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type W = KernelWord;

    #[test]
    fn word_basics() {
        assert_eq!(W::splat(false), W::ZERO);
        assert_eq!(W::splat(true), W::ONES);
        assert_eq!(!W::ZERO, W::ONES);
        assert_eq!(W::low_mask(0), W::ZERO);
        assert_eq!(W::low_mask(W::LANES), W::ONES);
        for lane in [0, 1, 63, 64, W::LANES / 2, W::LANES - 1] {
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
        for n in [1, 63, 64, 65, 130, W::LANES - 1] {
            let m = W::low_mask(n);
            for lane in 0..W::LANES {
                assert_eq!(m.lane(lane), lane < n, "mask {n} lane {lane}");
            }
        }
    }

    #[test]
    fn ops_match_u64_limbwise() {
        let a = KernelWord(std::array::from_fn(|i| {
            0xF0F0_F0F0u64.rotate_left(7 * i as u32)
        }));
        let b = KernelWord(std::array::from_fn(|i| {
            0x1234_9ABCu64.rotate_left(5 * i as u32)
        }));
        for i in 0..LIMBS {
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

    /// `spread` against the lane-by-lane definition: every set lane `i`
    /// fills `[i, i + stride)`, cut at the top — including the strides of
    /// non-power-of-two tile heights, whose ranges start mid-limb.
    #[test]
    fn spread_fills_each_range() {
        for stride in [1, 2, 3, 7, 31, 63, 64, 65, 100, 170, W::LANES / 2, W::LANES] {
            for offset in [0, 1, stride / 2] {
                // Every other pattern start set, plus the last one, which
                // may run past the top of the word.
                let starts: Vec<usize> = (0..)
                    .map(|p| offset + p * stride)
                    .take_while(|&i| i < W::LANES)
                    .collect();
                let mut w = W::ZERO;
                for (k, &i) in starts.iter().enumerate() {
                    if k % 2 == 0 || k + 1 == starts.len() {
                        w.set_lane(i, true);
                    }
                }
                let spread = w.spread(stride);
                for lane in 0..W::LANES {
                    let covered = starts
                        .iter()
                        .any(|&i| w.lane(i) && (i..i + stride).contains(&lane));
                    assert_eq!(spread.lane(lane), covered, "stride {stride} lane {lane}");
                }
            }
        }
        assert_eq!(W::ONES.shift_up(W::LANES), W::ZERO);
        assert_eq!(W::ZERO.wrapping_sub(W::low_mask(1)), W::ONES);
    }

    #[test]
    fn lanes_span_element_boundary() {
        let mut w = W::ZERO;
        w.set_lane(63, true);
        w.set_lane(64, true);
        w.set_lane(447, true);
        w.set_lane(448, true);
        assert_eq!(w.0, [1u64 << 63, 1, 0, 0, 0, 0, 1u64 << 63, 1]);
    }

    #[test]
    fn low_mask_partial_element() {
        let m = W::low_mask(130);
        assert_eq!(m.0, [!0u64, !0u64, 0b11, 0, 0, 0, 0, 0]);
        let m = W::low_mask(449);
        assert_eq!(m.0, [!0u64, !0, !0, !0, !0, !0, !0, 1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_lane_out_of_range_panics() {
        let mut w = W::ZERO;
        w.set_lane(W::LANES, true);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn low_mask_out_of_range_panics() {
        let _ = W::low_mask(W::LANES + 1);
    }
}
