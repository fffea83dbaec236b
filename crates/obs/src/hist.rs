//! A fixed-bucket log-scale histogram with purely integer bucketing.
//!
//! Every recorded quantity in the observability layer must merge
//! bit-identically regardless of how the samples were grouped into shards,
//! so the histogram stores **only integers and order-independent floats**:
//! per-bucket counts (`u64`, addition is associative), a total count, and
//! running min/max (`f64::min`/`f64::max` are commutative and associative
//! for the non-NaN inputs this histogram accepts).  There is deliberately no
//! running *sum* — summing `f64`s shard-by-shard would round differently
//! for different shard splits and break the cross-thread-count identity the
//! determinism suite pins.
//!
//! Buckets are log-scale with [`SUB_BUCKETS`] subdivisions per power of two,
//! derived from the sample's raw IEEE-754 bits (exponent plus the top
//! mantissa bits) — no `log2` call, so bucketing is exact, platform
//! independent, and pins bucket edges to exact powers of two:
//!
//! ```
//! use mars_obs::{metrics_json, Recorder};
//!
//! let rec = Recorder::enabled();
//! for v in [1.0, 1.999, 2.0, 2.1] {
//!     rec.observe("h", v);
//! }
//! // 1.999 shares 1.0's power of two but sits in its top quarter, and an
//! // exact bucket edge (2.0) lands *in* the bucket it opens, next to 2.1.
//! let json = metrics_json(&rec.snapshot());
//! assert!(json.contains("\"buckets\": [[1, 1], [1.75, 1], [2, 2]]"));
//! ```

/// Log-scale subdivisions per power of two (top two mantissa bits).
pub(crate) const SUB_BUCKETS: u32 = 4;

/// Smallest binary exponent with its own bucket; values below
/// `2^MIN_EXP` (≈ 9.3e-10) fall into the underflow bucket.
pub(crate) const MIN_EXP: i32 = -30;

/// Largest binary exponent with its own bucket; values at or above
/// `2^(MAX_EXP + 1)` (≈ 8.6e9) fall into the overflow bucket.
pub(crate) const MAX_EXP: i32 = 32;

/// Number of regular (non-under/overflow) buckets.
pub(crate) const BUCKETS: usize = ((MAX_EXP - MIN_EXP + 1) as usize) * SUB_BUCKETS as usize;

/// A fixed-bucket log-scale histogram (see the module docs for the
/// determinism contract).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
    count: u64,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub(crate) fn new() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            underflow: 0,
            overflow: 0,
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// The regular bucket index a positive finite `value` maps to, or `None`
    /// for under/overflow.  Bucketing is pure integer arithmetic on the
    /// value's IEEE-754 bits: the unbiased exponent selects the octave and
    /// the top two mantissa bits the sub-bucket, so a value exactly on a
    /// bucket's lower edge is always counted in that bucket.
    pub(crate) fn bucket_index(&self, value: f64) -> Option<usize> {
        if value <= 0.0 || !value.is_finite() {
            return None;
        }
        let bits = value.to_bits();
        let raw_exp = ((bits >> 52) & 0x7ff) as i32;
        if raw_exp == 0 {
            // Subnormals are far below MIN_EXP.
            return None;
        }
        let exp = raw_exp - 1023;
        if !(MIN_EXP..=MAX_EXP).contains(&exp) {
            return None;
        }
        let sub = ((bits >> 50) & 0b11) as usize;
        Some(((exp - MIN_EXP) as usize) * SUB_BUCKETS as usize + sub)
    }

    /// The inclusive lower edge of regular bucket `i`.
    pub(crate) fn bucket_edge(i: usize) -> f64 {
        let exp = MIN_EXP + (i / SUB_BUCKETS as usize) as i32;
        let sub = (i % SUB_BUCKETS as usize) as f64;
        (exp as f64).exp2() * (1.0 + sub / SUB_BUCKETS as f64)
    }

    /// Records one sample; every sample adds to `count`.  Samples at or
    /// above the bucketed range, `+inf` included, and NaN are counted in the
    /// overflow bucket; samples below it, zero, negatives and `-inf`
    /// included, in the underflow bucket.  Every sample but NaN updates
    /// min/max, so an infinite sample makes them infinite.
    pub(crate) fn record(&mut self, value: f64) {
        self.count += 1;
        match self.bucket_index(value) {
            Some(i) => self.counts[i] += 1,
            None => {
                let upper = ((MAX_EXP + 1) as f64).exp2();
                if value.is_nan() || value >= upper {
                    self.overflow += 1;
                } else {
                    self.underflow += 1;
                }
            }
        }
        if !value.is_nan() {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
    }

    /// Total samples recorded (regular buckets plus under/overflow).
    pub(crate) fn count(&self) -> u64 {
        self.count
    }

    /// Samples below the bucketed range (including zero, negatives and
    /// `-inf`).
    pub(crate) fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Samples at or above the bucketed range (including `+inf`), and NaN
    /// samples.
    pub(crate) fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Smallest non-NaN sample (`+inf` when empty).
    pub(crate) fn min(&self) -> f64 {
        self.min
    }

    /// Largest non-NaN sample (`-inf` when empty).
    pub(crate) fn max(&self) -> f64 {
        self.max
    }

    /// Folds `other` into `self`.  Pure integer addition plus min/max, so
    /// merging is commutative and associative: any shard grouping of the
    /// same samples produces a bit-identical merged histogram.
    pub(crate) fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The non-empty buckets as `(lower_edge, count)` pairs, in edge order
    /// (what the flat-JSON exporter prints).
    pub(crate) fn nonzero_buckets(&self) -> Vec<(f64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::bucket_edge(i), c))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn edges_are_powers_of_two_times_quarters() {
        let base = (MIN_EXP as f64).exp2();
        assert_eq!(Histogram::bucket_edge(0), base);
        assert_eq!(Histogram::bucket_edge(1), base * 1.25);
        assert_eq!(Histogram::bucket_edge(4), base * 2.0);
        let one = ((-MIN_EXP) as usize) * SUB_BUCKETS as usize;
        assert_eq!(Histogram::bucket_edge(one), 1.0);
    }

    #[test]
    fn exact_edges_land_in_their_own_bucket() {
        let h = Histogram::new();
        for i in 0..BUCKETS {
            let edge = Histogram::bucket_edge(i);
            assert_eq!(h.bucket_index(edge), Some(i), "edge of bucket {i}");
            // A hair below the edge is the previous bucket (or underflow
            // for bucket 0).
            let below = edge * (1.0 - 1e-12);
            if i > 0 {
                assert_eq!(h.bucket_index(below), Some(i - 1), "below edge {i}");
            }
        }
    }

    #[test]
    fn out_of_range_and_degenerate_samples_are_classified() {
        let mut h = Histogram::new();
        h.record(0.0);
        h.record(-3.0);
        h.record(1e-30); // positive but far below 2^MIN_EXP: underflow
        h.record(f64::INFINITY);
        h.record(1e12);
        h.record(f64::NAN);
        assert_eq!(h.count(), 6);
        assert_eq!(h.underflow(), 3);
        assert_eq!(h.overflow(), 3);
        assert_eq!(h.min(), -3.0);
        assert_eq!(h.max(), f64::INFINITY);
        assert!(h.nonzero_buckets().is_empty());
    }

    proptest! {
        /// Every recorded sample is in exactly one bucket class: underflow,
        /// a regular bucket or overflow.
        #[test]
        fn buckets_account_for_every_sample(
            samples in proptest::collection::vec(1e-12f64..1e12, 0..200)
        ) {
            let mut h = Histogram::new();
            for &s in &samples {
                h.record(s);
            }
            prop_assert_eq!(h.count(), samples.len() as u64);
            let in_buckets: u64 = h.nonzero_buckets().iter().map(|&(_, c)| c).sum();
            prop_assert_eq!(h.underflow() + in_buckets + h.overflow(), h.count());
        }

        /// Merging any two-way split of a sample stream is bit-identical to
        /// recording the stream into one histogram.
        #[test]
        fn any_shard_split_merges_bit_identically(
            samples in proptest::collection::vec(1e-9f64..1e9, 1..200),
            pivot in 0usize..200
        ) {
            let pivot = pivot % samples.len();
            let mut whole = Histogram::new();
            for &s in &samples {
                whole.record(s);
            }
            let (mut a, mut b) = (Histogram::new(), Histogram::new());
            for &s in &samples[..pivot] {
                a.record(s);
            }
            for &s in &samples[pivot..] {
                b.record(s);
            }
            // Merge in both orders: commutativity is part of the contract.
            let mut ab = a.clone();
            ab.merge(&b);
            let mut ba = b;
            ba.merge(&a);
            prop_assert_eq!(&ab, &whole);
            prop_assert_eq!(ab.min().to_bits(), whole.min().to_bits());
            prop_assert_eq!(ab.max().to_bits(), whole.max().to_bits());
            prop_assert_eq!(&ba, &whole);
        }

        /// Every in-range sample lands in the bucket whose edge interval
        /// contains it.
        #[test]
        fn samples_land_between_their_bucket_edges(value in 1e-8f64..1e8) {
            let h = Histogram::new();
            let i = h.bucket_index(value).expect("in range");
            let lo = Histogram::bucket_edge(i);
            prop_assert!(lo <= value, "edge {lo} above sample {value}");
            if i + 1 < BUCKETS {
                let hi = Histogram::bucket_edge(i + 1);
                prop_assert!(value < hi, "sample {value} at or past next edge {hi}");
            }
        }
    }
}
