//! Primitive scan-shift operations on state vectors.
//!
//! State vectors are indexed in scan-chain order: position 0 is the chain
//! head (scan input side), the last position is the chain tail (scan output
//! side). A shift moves every bit one position toward the tail; the tail bit
//! is scanned out and observed, and the head takes a fill bit.
//!
//! The paper writes states as bit strings and "always shifts to the right":
//! position 0 is the leftmost character.
//!
//! The 64-lane `_words` variants serve the transition-fault simulator;
//! the stuck-at kernel shifts its own lane words along a
//! [`crate::ChainMap`].

/// Shifts `state` right by `k` positions (a limited scan of `k` cycles).
///
/// `fill[i]` enters the head on the `i`-th shift cycle, so after the
/// operation `state[0..k]` holds `fill` in reverse order. The returned
/// vector holds the observed (scanned-out) bits in shift order: the original
/// tail first.
///
/// `k == state.len()` is a complete scan operation; `k == 0` is a no-op.
///
/// # Panics
///
/// Panics if `k > state.len()` or `fill.len() != k`.
///
/// # Example
///
/// ```
/// let mut state = vec![true, false, true, true]; // 1011
/// let out = rls_scan::ops::limited_scan_bools(&mut state, 2, &[false, true]);
/// assert_eq!(state, vec![true, false, true, false]); // 1010
/// assert_eq!(out, vec![true, true]); // original tail bits, tail-first
/// ```
pub fn limited_scan_bools(state: &mut [bool], k: usize, fill: &[bool]) -> Vec<bool> {
    assert!(
        k <= state.len(),
        "cannot shift by more than the chain length"
    );
    assert_eq!(fill.len(), k, "need exactly one fill bit per shift");
    let n = state.len();
    let mut out = Vec::with_capacity(k);
    for &f in fill.iter() {
        out.push(state[n - 1]);
        for i in (1..n).rev() {
            state[i] = state[i - 1];
        }
        state[0] = f;
    }
    out
}

/// Word-parallel version of [`limited_scan_bools`]: each `u64` holds the
/// state bit of one flip-flop across 64 independent machines.
///
/// The fill bits are broadcast: machine lanes all receive the same fill bit
/// per cycle (the scanned-in values come from the pattern generator and do
/// not depend on the fault).
///
/// # Panics
///
/// Panics if `k > state.len()` or `fill.len() != k`.
pub fn limited_scan_words(state: &mut [u64], k: usize, fill: &[bool]) -> Vec<u64> {
    assert!(
        k <= state.len(),
        "cannot shift by more than the chain length"
    );
    assert_eq!(fill.len(), k, "need exactly one fill bit per shift");
    let n = state.len();
    let mut out = Vec::with_capacity(k);
    for &f in fill.iter() {
        out.push(state[n - 1]); // lint: panic-ok(one fill bit implies k >= 1, so n >= k >= 1)
        for i in (1..n).rev() {
            state[i] = state[i - 1]; // lint: panic-ok(1 <= i < n indexes within the chain)
        }
        state[0] = if f { !0 } else { 0 }; // lint: panic-ok(state is non-empty: k <= state.len() and one shift implies len >= 1)
    }
    out
}

/// A complete scan operation: scans in `new` while the old state shifts out.
///
/// Returns the observed bits in shift order (original tail first), exactly
/// as [`limited_scan_bools`] with `k == state.len()` would, and leaves
/// `state == new`.
///
/// # Panics
///
/// Panics if `new.len() != state.len()`.
pub fn full_scan_bools(state: &mut [bool], new: &[bool]) -> Vec<bool> {
    assert_eq!(new.len(), state.len(), "scan-in must cover the whole chain");
    // Scanning in `new` head-first means new[0] is shifted in last (it ends
    // at the head); the fill sequence is therefore `new` reversed.
    let fill: Vec<bool> = new.iter().rev().copied().collect();
    let out = limited_scan_bools(state, state.len(), &fill);
    debug_assert_eq!(state, new);
    out
}

/// Broadcasts a boolean state vector into word lanes (all 64 machines get
/// the same state).
pub fn broadcast(state: &[bool]) -> Vec<u64> {
    state.iter().map(|&b| if b { !0 } else { 0 }).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_state_shift() {
        // Section 2: "Shifting the state 010 ... and assigning the value 0
        // to the leftmost bit, we obtain the state 001."
        let mut state = vec![false, true, false];
        let out = limited_scan_bools(&mut state, 1, &[false]);
        assert_eq!(state, vec![false, false, true]);
        assert_eq!(out, vec![false]);
    }

    #[test]
    fn paper_example_scan_out_detection() {
        // Section 2: fault-free state 00000, faulty 00010, shifted by two:
        // good scans out 00, faulty scans out 10 (tail-first order: the
        // faulty bit at position 3 comes out on the second shift).
        let mut good = vec![false; 5];
        let mut faulty = vec![false, false, false, true, false];
        let out_good = limited_scan_bools(&mut good, 2, &[false, false]);
        let out_faulty = limited_scan_bools(&mut faulty, 2, &[false, false]);
        assert_eq!(out_good, vec![false, false]);
        assert_eq!(out_faulty, vec![false, true]);
        assert_ne!(out_good, out_faulty, "fault detected during scan-out");
    }

    #[test]
    fn zero_shift_is_noop() {
        let mut state = vec![true, false, true];
        let orig = state.clone();
        let out = limited_scan_bools(&mut state, 0, &[]);
        assert_eq!(state, orig);
        assert!(out.is_empty());
    }

    #[test]
    fn full_length_shift_replaces_state() {
        let mut state = vec![true, true, false];
        let fill = vec![true, false, true];
        let out = limited_scan_bools(&mut state, 3, &fill);
        // Fill enters head-first: after 3 shifts state = reverse(fill).
        assert_eq!(state, vec![true, false, true]);
        assert_eq!(out, vec![false, true, true]);
    }

    #[test]
    fn full_scan_sets_exact_state() {
        let mut state = vec![false, false, false, false];
        let new = vec![true, false, true, true];
        let out = full_scan_bools(&mut state, &new);
        assert_eq!(state, new);
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn full_scan_observes_old_state_tail_first() {
        let mut state = vec![true, false, false, true];
        let out = full_scan_bools(&mut state, &[false; 4]);
        assert_eq!(out, vec![true, false, false, true]);
    }

    #[test]
    #[should_panic(expected = "more than the chain length")]
    fn overshift_panics() {
        let mut state = vec![false; 3];
        limited_scan_bools(&mut state, 4, &[false; 4]);
    }

    #[test]
    #[should_panic(expected = "one fill bit per shift")]
    fn fill_length_mismatch_panics() {
        let mut state = vec![false; 3];
        limited_scan_bools(&mut state, 2, &[false]);
    }

    #[test]
    fn words_match_bools_lanewise() {
        // Three machines with different states; shift all by 2.
        let lanes: [Vec<bool>; 3] = [
            vec![true, false, true, false, true],
            vec![false; 5],
            vec![true; 5],
        ];
        let mut words = vec![0u64; 5];
        for (lane, bits) in lanes.iter().enumerate() {
            for (i, &b) in bits.iter().enumerate() {
                words[i] |= u64::from(b) << lane;
            }
        }
        let fill = [true, false];
        let out_words = limited_scan_words(&mut words, 2, &fill);
        for (lane, bits) in lanes.iter().enumerate() {
            let mut expect = bits.clone();
            let expect_out = limited_scan_bools(&mut expect, 2, &fill);
            let got: Vec<bool> = words.iter().map(|&w| w >> lane & 1 == 1).collect();
            assert_eq!(got, expect, "lane {lane}");
            let got_out: Vec<bool> = out_words.iter().map(|&w| w >> lane & 1 == 1).collect();
            assert_eq!(got_out, expect_out, "lane {lane}");
        }
    }

    #[test]
    fn broadcast_fills_every_lane() {
        assert_eq!(broadcast(&[true, false, true]), vec![!0u64, 0, !0u64]);
    }

    #[test]
    fn empty_chain_full_scan() {
        let mut state: Vec<bool> = vec![];
        let out = full_scan_bools(&mut state, &[]);
        assert!(out.is_empty());
    }
}
