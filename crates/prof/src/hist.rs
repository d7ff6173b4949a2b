//! Mergeable log-bucketed latency histograms.
//!
//! Buckets are exact below 8 ps and then 8 sub-buckets per octave
//! (≤ 12.5 % relative width), HdrHistogram-style but with a fixed
//! 496-bucket layout so two histograms merge by adding count arrays —
//! the property that makes per-device profiles of a fleet fold into
//! exactly the fleet-wide aggregate, bucket by bucket.
//!
//! Quantiles are nearest-rank over bucket counts and return the bucket
//! *lower bound*, so a quantile computed after any sequence of merges
//! equals the quantile of one recording of all the samples: merging only
//! ever adds integer counts to identical bucket positions.

use serde::{Deserialize, Serialize};

/// Sub-buckets per octave. 8 keeps relative error ≤ 1/8 while fitting
/// u64's full range in [`BUCKETS`] slots.
const SUB: u64 = 8;
/// Total bucket count: 8 exact singletons + 61 octaves × 8 sub-buckets.
pub const BUCKETS: usize = 8 + 61 * 8;

/// Index of the bucket holding `v`.
fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let m = 63 - v.leading_zeros() as u64; // m >= 3
    let sub = (v >> (m - 3)) & (SUB - 1);
    (SUB + (m - 3) * SUB + sub) as usize
}

/// Smallest value that lands in bucket `b` (the reported quantile
/// value).
fn lower_bound(b: usize) -> u64 {
    let b = b as u64;
    if b < SUB {
        return b;
    }
    let oct = (b - SUB) / SUB;
    let sub = (b - SUB) % SUB;
    (SUB + sub) << oct
}

/// A log-bucketed histogram of u64 samples (picoseconds, here).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHist {
    counts: Vec<u64>,
    total: u64,
    sum: u64,
    max: u64,
}

impl Default for LogHist {
    fn default() -> Self {
        LogHist {
            counts: vec![0; BUCKETS],
            total: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl LogHist {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.total += 1;
        self.sum += v;
        self.max = self.max.max(v);
    }

    /// Adds every bucket of `other` into `self`. Associative and
    /// commutative, so the order groups are merged in does not matter.
    pub fn merge(&mut self, other: &LogHist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Exact sum of all recorded samples (not bucket-quantized).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact maximum recorded sample, 0 if empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded samples, rounded down; 0 if empty.
    pub fn mean(&self) -> u64 {
        self.sum / self.total.max(1)
    }

    /// Nearest-rank quantile (`q` in parts-per-million): the lower bound
    /// of the bucket holding the ⌈q·n⌉-th smallest sample. 0 if empty.
    pub fn quantile_ppm(&self, q_ppm: u64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = (self.total * q_ppm).div_ceil(1_000_000).max(1);
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return lower_bound(b);
            }
        }
        lower_bound(BUCKETS - 1)
    }

    /// p50 / p95 / p99 as a convenience triple.
    pub fn p50_p95_p99(&self) -> (u64, u64, u64) {
        (
            self.quantile_ppm(500_000),
            self.quantile_ppm(950_000),
            self.quantile_ppm(990_000),
        )
    }
}

/// Serialized as the compact nonzero-bucket list (the vendored serde has
/// no `[T; N]`/tuple support, and full 496-slot arrays would bloat every
/// report).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HistSummary {
    /// Sample count.
    pub count: u64,
    /// Mean sample, rounded down.
    pub mean_ps: u64,
    /// Exact max sample.
    pub max_ps: u64,
    /// Bucket lower bound of the median.
    pub p50_ps: u64,
    /// Bucket lower bound of the 95th percentile.
    pub p95_ps: u64,
    /// Bucket lower bound of the 99th percentile.
    pub p99_ps: u64,
}

impl HistSummary {
    /// Snapshot of `h`'s headline statistics.
    pub fn of(h: &LogHist) -> HistSummary {
        let (p50, p95, p99) = h.p50_p95_p99();
        HistSummary {
            count: h.count(),
            mean_ps: h.mean(),
            max_ps: h.max(),
            p50_ps: p50,
            p95_ps: p95,
            p99_ps: p99,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_partition_the_u64_line() {
        // Every boundary value maps into a bucket whose lower bound is
        // <= it, and bucket indices are monotone in the value.
        let mut prev = 0usize;
        for v in (0..1000u64).chain([1 << 20, u64::MAX / 2, u64::MAX]) {
            let b = bucket_of(v);
            assert!(b < BUCKETS, "bucket {b} out of range for {v}");
            assert!(lower_bound(b) <= v, "lb({b}) > {v}");
            assert!(b >= prev || v < 1000, "non-monotone at {v}");
            prev = b;
        }
        // Exact singletons below 8.
        for v in 0..8u64 {
            assert_eq!(lower_bound(bucket_of(v)), v);
        }
    }

    #[test]
    fn relative_error_bounded() {
        for v in [100u64, 1_000, 123_456, 1 << 30, (1 << 40) + 12345] {
            let lb = lower_bound(bucket_of(v));
            assert!(lb <= v);
            // Bucket width is lb/8 at most, so error < 12.5%.
            assert!(v - lb <= lb / 8 + 1, "error too big for {v}: lb={lb}");
        }
    }

    #[test]
    fn merge_equals_serial_recording() {
        let samples: Vec<u64> = (0..500).map(|i| i * i * 37 + 13).collect();
        let mut serial = LogHist::new();
        for &s in &samples {
            serial.record(s);
        }
        let mut a = LogHist::new();
        let mut b = LogHist::new();
        for (i, &s) in samples.iter().enumerate() {
            if i % 2 == 0 {
                a.record(s)
            } else {
                b.record(s)
            }
        }
        a.merge(&b);
        assert_eq!(a, serial);
        assert_eq!(a.p50_p95_p99(), serial.p50_p95_p99());
    }

    #[test]
    fn quantiles_nearest_rank() {
        let mut h = LogHist::new();
        for v in 0..8u64 {
            h.record(v); // exact buckets
        }
        assert_eq!(h.quantile_ppm(500_000), 3); // 4th of 8
        assert_eq!(h.quantile_ppm(1_000_000), 7);
        assert_eq!(h.quantile_ppm(1), 0);
        assert_eq!(h.mean(), 3);
        assert_eq!(h.max(), 7);
    }

    #[test]
    fn empty_hist_is_all_zeros() {
        let h = LogHist::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile_ppm(990_000), 0);
        assert_eq!(HistSummary::of(&h).p99_ps, 0);
    }
}
