//! Order statistics for small host-time samples and large simulated
//! latency samples.

/// Sorts a copy of `v` ascending.
///
/// # Panics
/// Panics on NaN — a NaN measurement is a benchmark bug.
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("measurements are finite"));
    s
}

/// Median (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty sample.
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of an empty sample");
    let s = sorted(v);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The three quartile cut points as Python's
/// `statistics.quantiles(v, n=4)` computes them (the default
/// "exclusive" method) — the definition the acceptance driver uses for
/// run-to-run spread, so the quartiles printed here are its quartiles.
///
/// # Panics
/// Panics on fewer than two samples (as Python does).
pub fn quartiles(v: &[f64]) -> [f64; 3] {
    assert!(v.len() >= 2, "quartiles need at least two samples");
    let s = sorted(v);
    let ld = s.len();
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

/// Five-number summary plus count for a handful of host-time reps. No
/// tail percentile is claimed from so few samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// First quartile (equal to `median` when `n < 2`).
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile (equal to `median` when `n < 2`).
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarises a non-empty sample.
    pub fn of(v: &[f64]) -> Summary {
        let s = sorted(v);
        let med = median(v);
        let (q1, q3) = if v.len() >= 2 {
            let q = quartiles(v);
            (q[0], q[2])
        } else {
            (med, med)
        };
        Summary {
            n: s.len(),
            min: s[0],
            q1,
            median: med,
            q3,
            max: s[s.len() - 1],
        }
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "median {:.6} [q1 {:.6}, q3 {:.6}] min {:.6} max {:.6} (n={})",
            self.median, self.q1, self.q3, self.min, self.max, self.n
        )
    }
}

/// Nearest-rank percentile of an ascending sample (`q` in 0..=100);
/// 0.0 for an empty one.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), q) - 1]
}

/// 1-based nearest rank of percentile `q` among `n` samples. The small
/// slack keeps a product that is a whole number on paper (99.9 % of
/// 10 000) from being pushed up a rank by `q`'s binary representation.
fn rank(n: usize, q: f64) -> usize {
    (((q / 100.0) * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// How many of `n` samples lie strictly beyond the nearest-rank
/// percentile `q`.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// Whether percentile `q` may be reported from `n` samples: at least ten
/// must lie beyond it, or the figure is one outlier's position.
pub fn percentile_supported(n: usize, q: f64) -> bool {
    samples_beyond(n, q) >= 10
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn summary_orders_its_fields() {
        let s = Summary::of(&[5.0, 1.0, 9.0, 3.0, 7.0]);
        assert_eq!((s.n, s.min, s.median, s.max), (5, 1.0, 5.0, 9.0));
        assert!(s.min <= s.q1 && s.q1 <= s.median && s.median <= s.q3 && s.q3 <= s.max);
        let one = Summary::of(&[2.0]);
        assert_eq!((one.q1, one.median, one.q3), (2.0, 2.0, 2.0));
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p99 of 1000 samples is rank 990: exactly ten lie beyond it.
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert!(percentile_supported(1000, 99.0));
        assert!(!percentile_supported(999, 99.0));
        // p99.9 needs ten thousand.
        assert!(percentile_supported(10_000, 99.9));
        assert!(!percentile_supported(9_000, 99.9));
        assert_eq!(samples_beyond(0, 99.0), 0);
    }
}
