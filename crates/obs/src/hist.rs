//! Log-scaled (HDR-style) histogram aggregation.
//!
//! The workspace's histogram metrics are heavy-tailed: `fsim.test_nanos`
//! spans several orders of magnitude between an s27 test and an s953
//! test, and `procedure2.trial_cycles` grows with `(I, D1)`. A count +
//! mean summary (what the stderr sink reported before this module)
//! resolves none of that tail — the mean of a bimodal distribution lands
//! where no observation ever was.
//!
//! [`HdrHistogram`] buckets observations the way HDR histograms do:
//! power-of-two major buckets, each split into `2^3 = 8` linear
//! sub-buckets keyed by the bits after the leading one. Every bucket's
//! width is at most 1/8 of its lower bound, so any reported quantile is
//! within 12.5% of the true value — at any magnitude — in 496 fixed
//! `u64` counters, no allocation after construction.
//!
//! Consumers: the [`crate::StderrSink`] metric table (live aggregation)
//! and `rls-report`'s obs mode (offline aggregation of raw JSONL
//! observations — the per-observation schema is unchanged, so
//! [`crate::jsonl::read`] still reads every stream).

/// Bits of linear sub-bucketing per power-of-two bucket.
const SUB_BITS: u32 = 3;
/// Sub-buckets per major bucket.
const SUB: usize = 1 << SUB_BITS;
/// Total bucket count: values below `SUB` get exact buckets, every
/// leading-bit position above that gets `SUB` linear sub-buckets.
const BUCKETS: usize = SUB + (64 - SUB_BITS as usize) * SUB;

/// A fixed-size log-scaled histogram of `u64` observations.
#[derive(Clone)]
pub struct HdrHistogram {
    counts: Box<[u64; BUCKETS]>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for HdrHistogram {
    fn default() -> HdrHistogram {
        HdrHistogram::new()
    }
}

impl std::fmt::Debug for HdrHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HdrHistogram")
            .field("count", &self.count)
            .field("mean", &self.mean())
            .field("p50", &self.quantile(0.50))
            .field("p99", &self.quantile(0.99))
            .field("max", &self.max)
            .finish()
    }
}

/// The bucket index of `v`: exact below [`SUB`], then
/// `(leading bit, next SUB_BITS bits)`.
fn index(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let shift = msb - SUB_BITS;
    let sub = ((v >> shift) & ((SUB as u64) - 1)) as usize;
    SUB + (shift as usize) * SUB + sub
}

/// The inclusive value range `[lo, hi]` covered by bucket `i`.
fn bounds(i: usize) -> (u64, u64) {
    if i < SUB {
        return (i as u64, i as u64);
    }
    let shift = ((i - SUB) / SUB) as u32;
    let sub = ((i - SUB) % SUB) as u64;
    let lo = (SUB as u64 + sub) << shift;
    let width = 1u64 << shift;
    (lo, lo + (width - 1))
}

impl HdrHistogram {
    /// An empty histogram.
    pub fn new() -> HdrHistogram {
        HdrHistogram {
            counts: Box::new([0; BUCKETS]),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, v: u64) {
        self.counts[index(v)] += 1; // lint: panic-ok(index maps every u64 into 0..BUCKETS)
        self.count += 1;
        self.sum += u128::from(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &HdrHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += *b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Smallest observation (`0` when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest observation (`0` when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Integer mean (`0` when empty).
    pub fn mean(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            (self.sum / u128::from(self.count)) as u64
        }
    }

    /// The value at quantile `q` in `[0, 1]`: the midpoint of the bucket
    /// holding the `ceil(q * count)`-th observation, clamped to the
    /// observed `[min, max]`. Within 12.5% of the true order statistic by
    /// construction; `0` when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (lo, hi) = bounds(i);
                return (lo + (hi - lo) / 2).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// One-line human summary used by the stderr sink's metric table.
    pub fn render(&self) -> String {
        format!(
            "n {}  mean {}  p50 {}  p90 {}  p99 {}  max {}",
            self.count,
            self.mean(),
            self.quantile(0.50),
            self.quantile(0.90),
            self.quantile(0.99),
            self.max()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_u64_without_gaps_or_overlap() {
        // Walking buckets in order must tile [0, u64::MAX].
        let mut next = 0u64;
        for i in 0..BUCKETS {
            let (lo, hi) = bounds(i);
            assert_eq!(lo, next, "bucket {i} starts where {} ended", i.max(1) - 1);
            assert!(hi >= lo);
            assert_eq!(index(lo), i, "lower bound maps back");
            assert_eq!(index(hi), i, "upper bound maps back");
            if hi == u64::MAX {
                assert_eq!(i, BUCKETS - 1);
                return;
            }
            next = hi + 1;
        }
        panic!("buckets did not reach u64::MAX");
    }

    #[test]
    fn relative_error_is_bounded_by_an_eighth() {
        for v in [9u64, 100, 1_000, 65_537, 1 << 40, u64::MAX / 3] {
            let (lo, hi) = bounds(index(v));
            assert!(lo <= v && v <= hi);
            // Bucket width ≤ lo / 8 for every value at or above SUB.
            assert!(hi - lo <= lo / SUB as u64, "bucket [{lo}, {hi}] too wide");
        }
    }

    #[test]
    fn quantiles_resolve_a_heavy_tail_the_mean_hides() {
        let mut h = HdrHistogram::new();
        // 99 fast observations around 1k, one slow outlier at 1M.
        for _ in 0..99 {
            h.record(1_000);
        }
        h.record(1_000_000);
        assert_eq!(h.count(), 100);
        let mean = h.mean();
        assert!(mean > 10_000, "mean is dragged: {mean}");
        let p50 = h.quantile(0.50);
        assert!((900..=1100).contains(&p50), "p50 stays at the mode: {p50}");
        let p99 = h.quantile(0.99);
        assert!((900..=1100).contains(&p99), "99 of 100 are fast: {p99}");
        let p999 = h.quantile(0.999);
        assert!(p999 > 900_000, "the tail is visible at p99.9: {p999}");
        assert_eq!(h.max(), 1_000_000);
    }

    #[test]
    fn exact_low_values_and_empty_edges() {
        let mut h = HdrHistogram::new();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0);
        assert_eq!(h.min(), 0);
        for v in 0..8u64 {
            h.record(v);
        }
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 7);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), 7);
        // Values below SUB are exact.
        assert_eq!(h.quantile(0.5), 3);
    }

    #[test]
    fn merge_equals_recording_everything_in_one() {
        let mut a = HdrHistogram::new();
        let mut b = HdrHistogram::new();
        let mut all = HdrHistogram::new();
        for v in [3u64, 700, 12_345, 9_999_999] {
            a.record(v);
            all.record(v);
        }
        for v in [1u64, 800_000] {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.sum(), all.sum());
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(a.quantile(q), all.quantile(q));
        }
    }
}
