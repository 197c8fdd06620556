//! The [`RandomSource`] abstraction and software pseudo-random generators.
//!
//! Every random decision in the reproduction — test vectors, scan-in states,
//! the `r1 mod D1` limited-scan insertion coin, the `r2 mod D2` shift count,
//! and the fill bits scanned in during a limited scan — is drawn through
//! [`RandomSource`]. The BIST controller model of `rls-bist` draws through
//! the same trait from the same generators, which is what lets its tests
//! check it against the software procedures bit for bit.
//!
//! Both generators here produce 64-bit words and hand them out LSB-first:
//! [`RandomSource::next_bits`] takes a whole run of bits out of the buffered
//! word (and the next one, when the run crosses a word boundary) with a
//! mask and a shift, and returns exactly the bits that as many
//! [`RandomSource::next_bit`] calls would.

/// A deterministic stream of random bits.
///
/// Implementors only need [`RandomSource::next_bit`]; everything else has
/// default implementations layered on it so that two sources producing the
/// same bit stream produce identical derived draws. A source that
/// overrides [`RandomSource::next_bits`] must keep that contract: the
/// `n`-bit draw is the next `n` single-bit draws, packed LSB-first.
pub trait RandomSource {
    /// The next pseudo-random bit.
    fn next_bit(&mut self) -> bool;

    /// The next `n` bits packed little-endian (first bit drawn is bit 0).
    ///
    /// # Panics
    ///
    /// Panics if `n > 64`.
    fn next_bits(&mut self, n: u32) -> u64 {
        assert!(n <= 64, "at most 64 bits per draw");
        let mut word = 0u64;
        for i in 0..n {
            word |= u64::from(self.next_bit()) << i;
        }
        word
    }

    /// The next 32-bit draw.
    fn next_u32(&mut self) -> u32 {
        self.next_bits(32) as u32
    }

    /// The paper's `r mod D` draw: a 32-bit random number reduced modulo
    /// `d`, which is zero with probability approximately `1/d`.
    ///
    /// The paper requires the raw range `R >> D`; a 32-bit draw satisfies
    /// that for every `D` the procedures use (`D1 ≤ 10`, `D2 = N_SV + 1`).
    ///
    /// # Panics
    ///
    /// Panics if `d == 0`.
    fn draw_mod(&mut self, d: u32) -> u32 {
        assert!(d > 0, "modulus must be positive");
        self.next_u32() % d
    }

    /// Fills a boolean slice with fresh bits.
    fn fill_bits(&mut self, out: &mut [bool]) {
        for slot in out {
            *slot = self.next_bit();
        }
    }
}

impl<T: RandomSource + ?Sized> RandomSource for &mut T {
    fn next_bit(&mut self) -> bool {
        (**self).next_bit()
    }

    fn next_bits(&mut self, n: u32) -> u64 {
        (**self).next_bits(n)
    }
}

/// The unread bits of a generator's current 64-bit output word, consumed
/// LSB-first; bits above `remaining` are zero.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct WordBits {
    buffer: u64,
    remaining: u32,
}

/// The low `n` bits set (`n <= 64`).
fn low_bits(n: u32) -> u64 {
    u64::MAX.checked_shr(64 - n).unwrap_or(0)
}

impl WordBits {
    /// The next bit, calling `refill` for a fresh word when this one is
    /// used up.
    #[inline]
    fn bit(&mut self, refill: impl FnOnce() -> u64) -> bool {
        if self.remaining == 0 {
            self.buffer = refill();
            self.remaining = 64;
        }
        let bit = self.buffer & 1 == 1;
        self.buffer >>= 1;
        self.remaining -= 1;
        bit
    }

    /// The next `n` bits packed LSB-first: the same bits, and the same
    /// buffer afterwards, as `n` calls of [`WordBits::bit`].
    #[inline]
    fn bits(&mut self, n: u32, refill: impl FnOnce() -> u64) -> u64 {
        assert!(n <= 64, "at most 64 bits per draw");
        if n <= self.remaining {
            let out = self.buffer & low_bits(n);
            self.buffer = self.buffer.checked_shr(n).unwrap_or(0);
            self.remaining -= n;
            return out;
        }
        // The run crosses into the next word: the `have < 64` buffered
        // bits are its low end, the next word's low `need` bits the rest.
        let have = self.remaining;
        let need = n - have;
        let word = refill();
        let out = self.buffer | (word & low_bits(need)) << have;
        self.buffer = word.checked_shr(need).unwrap_or(0);
        self.remaining = 64 - need;
        out
    }
}

/// The xorshift64* generator: the fast software PRNG behind `TS0`, the
/// limited-scan schedules, synthetic circuit generation and the reference
/// models in tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XorShift64 {
    state: u64,
    bits: WordBits,
}

impl XorShift64 {
    /// Creates a generator; a zero seed is remapped to a fixed nonzero
    /// constant (xorshift has an all-zero fixed point).
    pub fn new(seed: u64) -> Self {
        XorShift64 {
            state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
            bits: WordBits::default(),
        }
    }
}

/// One xorshift64* step: advances `state` and returns the output word.
fn xorshift_word(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

impl RandomSource for XorShift64 {
    fn next_bit(&mut self) -> bool {
        let state = &mut self.state;
        self.bits.bit(|| xorshift_word(state))
    }

    fn next_bits(&mut self, n: u32) -> u64 {
        let state = &mut self.state;
        self.bits.bits(n, || xorshift_word(state))
    }
}

/// The splitmix64 generator: used for seed derivation because every output
/// is a bijective mix of the counter, so derived seeds never collide.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
    bits: WordBits,
}

/// One splitmix64 step: advances `state` and returns the output word.
fn splitmix_word(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SplitMix64 {
    /// Creates a generator from any seed (zero is fine for splitmix).
    pub fn new(seed: u64) -> Self {
        SplitMix64 {
            state: seed,
            bits: WordBits::default(),
        }
    }

    /// The next full 64-bit output.
    pub fn next_word(&mut self) -> u64 {
        splitmix_word(&mut self.state)
    }
}

impl RandomSource for SplitMix64 {
    fn next_bit(&mut self) -> bool {
        let state = &mut self.state;
        self.bits.bit(|| splitmix_word(state))
    }

    fn next_bits(&mut self, n: u32) -> u64 {
        let state = &mut self.state;
        self.bits.bits(n, || splitmix_word(state))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_bits_packs_lsb_first() {
        // A source that emits 1,0,1,1,...
        struct Fixed(Vec<bool>, usize);
        impl RandomSource for Fixed {
            fn next_bit(&mut self) -> bool {
                let b = self.0[self.1 % self.0.len()];
                self.1 += 1;
                b
            }
        }
        let mut s = Fixed(vec![true, false, true, true], 0);
        assert_eq!(s.next_bits(4), 0b1101);
    }

    #[test]
    #[should_panic(expected = "at most 64 bits")]
    fn next_bits_rejects_wide_draws() {
        XorShift64::new(1).next_bits(65);
    }

    #[test]
    #[should_panic(expected = "modulus must be positive")]
    fn draw_mod_zero_panics() {
        XorShift64::new(1).draw_mod(0);
    }

    #[test]
    fn draw_mod_stays_in_range() {
        let mut s = XorShift64::new(42);
        for d in 1..20 {
            for _ in 0..100 {
                assert!(s.draw_mod(d) < d);
            }
        }
    }

    #[test]
    fn draw_mod_hits_zero_about_one_in_d() {
        let mut s = XorShift64::new(7);
        let d = 5u32;
        let trials = 50_000;
        let zeros = (0..trials).filter(|_| s.draw_mod(d) == 0).count();
        let expected = trials / d as usize;
        let slack = expected / 5; // 20% tolerance
        assert!(
            (expected - slack..=expected + slack).contains(&zeros),
            "zeros={zeros}, expected≈{expected}"
        );
    }

    #[test]
    fn xorshift_is_reproducible() {
        let mut a = XorShift64::new(123);
        let mut b = XorShift64::new(123);
        for _ in 0..1000 {
            assert_eq!(a.next_bit(), b.next_bit());
        }
    }

    #[test]
    fn xorshift_zero_seed_remapped() {
        let mut s = XorShift64::new(0);
        // Must not get stuck emitting zeros.
        let any_one = (0..128).any(|_| s.next_bit());
        assert!(any_one);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = XorShift64::new(1);
        let mut b = XorShift64::new(2);
        let wa: u64 = a.next_bits(64);
        let wb: u64 = b.next_bits(64);
        assert_ne!(wa, wb);
    }

    #[test]
    fn splitmix_known_vector() {
        // Reference value of splitmix64 with seed 0: first output.
        let mut s = SplitMix64::new(0);
        assert_eq!(s.next_word(), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn fill_bits_covers_slice() {
        let mut s = XorShift64::new(9);
        let mut buf = [false; 257];
        s.fill_bits(&mut buf);
        // With 257 random bits, both values must appear.
        assert!(buf.iter().any(|&b| b));
        assert!(buf.iter().any(|&b| !b));
    }

    #[test]
    fn bit_bias_is_small() {
        let mut s = XorShift64::new(3);
        let ones = (0..100_000).filter(|_| s.next_bit()).count();
        assert!((48_000..52_000).contains(&ones), "ones={ones}");
    }

    #[test]
    fn trait_object_usable_via_mut_ref() {
        fn draw(source: &mut dyn RandomSource) -> u32 {
            source.next_u32()
        }
        let mut s = XorShift64::new(5);
        let _ = draw(&mut s);
    }

    /// The per-bit reference: only `next_bit` is implemented, so every
    /// wider draw goes through the trait's bit-by-bit defaults.
    struct PerBit<R>(R);

    impl<R: RandomSource> RandomSource for PerBit<R> {
        fn next_bit(&mut self) -> bool {
            self.0.next_bit()
        }
    }

    /// One draw of an interleaving, applied to any source.
    #[derive(Debug, Clone, Copy)]
    enum Draw {
        Bit,
        Bits(u32),
        U32,
    }

    impl Draw {
        fn apply(self, rng: &mut impl RandomSource) -> u64 {
            match self {
                Draw::Bit => u64::from(rng.next_bit()),
                Draw::Bits(n) => rng.next_bits(n),
                Draw::U32 => u64::from(rng.next_u32()),
            }
        }
    }

    /// Seeded interleavings of single bits, `next_bits(1..=64)` and
    /// `next_u32`; with buffer phases drifting by odd widths, reads cross
    /// the 64-bit word boundary at every offset.
    fn interleavings() -> impl Iterator<Item = Vec<Draw>> {
        (0..64u64).map(|case| {
            let mut pick = SplitMix64::new(case);
            (0..300)
                .map(|_| match pick.next_word() % 4 {
                    0 => Draw::Bit,
                    1 => Draw::U32,
                    _ => Draw::Bits(1 + (pick.next_word() % 64) as u32),
                })
                .collect()
        })
    }

    /// Every interleaving, drawn directly, through `&mut` and through
    /// `&mut dyn`, returns the per-bit reference's values and leaves the
    /// generator in the reference's state.
    fn word_draws_match_per_bit<R>(make: impl Fn(u64) -> R)
    where
        R: RandomSource + Clone + PartialEq + std::fmt::Debug,
    {
        for (case, draws) in interleavings().enumerate() {
            let seed = case as u64 * 0x9E37 + 1;
            let mut reference = PerBit(make(seed));
            let mut direct = make(seed);
            let mut owner = make(seed);
            let mut by_ref = &mut owner;
            let mut dyn_owner = make(seed);
            let by_dyn: &mut dyn RandomSource = &mut dyn_owner;
            for (k, &d) in draws.iter().enumerate() {
                let want = d.apply(&mut reference);
                assert_eq!(d.apply(&mut direct), want, "case {case}, draw {k}: {d:?}");
                assert_eq!(d.apply(&mut by_ref), want, "case {case}, draw {k} via &mut");
                let got = match d {
                    Draw::Bit => u64::from(by_dyn.next_bit()),
                    Draw::Bits(n) => by_dyn.next_bits(n),
                    Draw::U32 => u64::from(by_dyn.next_u32()),
                };
                assert_eq!(got, want, "case {case}, draw {k} via &mut dyn");
            }
            assert_eq!(direct, reference.0, "case {case}: generator state");
            assert_eq!(owner, reference.0, "case {case}: generator state via &mut");
            assert_eq!(dyn_owner, reference.0, "case {case}: state via &mut dyn");
        }
    }

    #[test]
    fn prop_xorshift_word_draws_match_per_bit_draws() {
        word_draws_match_per_bit(XorShift64::new);
    }

    #[test]
    fn prop_splitmix_word_draws_match_per_bit_draws() {
        word_draws_match_per_bit(SplitMix64::new);
    }

    #[test]
    fn word_draws_cross_the_buffer_boundary() {
        // 63 bits leave one buffered bit; the 64-bit draw takes it as bit
        // 0 and the next word's low 63 bits above it.
        let mut fast = XorShift64::new(11);
        let mut slow = PerBit(XorShift64::new(11));
        assert_eq!(fast.next_bits(63), slow.next_bits(63));
        assert_eq!(fast.next_bits(64), slow.next_bits(64));
        assert_eq!(fast.next_bits(0), 0);
        assert_eq!(fast.next_bits(1), slow.next_bits(1));
        assert_eq!(fast, slow.0);
    }
}
