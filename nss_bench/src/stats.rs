//! Order statistics used by every report: the median, Python's
//! `statistics.quantiles(n=4)` quartiles (so `agree` and any outside
//! check read the same spread), and the tail rule "the highest percentile
//! that still has at least ten samples beyond it".

/// Percentiles tried by [`tail`], highest first.
const TAIL_LADDER: [f64; 5] = [0.99, 0.95, 0.90, 0.75, 0.50];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle values for even counts);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile, computed exactly as
/// Python's `statistics.quantiles(values, n=4)` (the default
/// `method='exclusive'`). Needs at least two values; a single value is
/// returned as all three quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let data = sorted(values);
    let ld = data.len();
    if ld < 2 {
        let v = data.first().copied().unwrap_or(0.0);
        return (v, v, v);
    }
    let (m, n) = (ld + 1, 4usize);
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
    };
    (cut(1), cut(2), cut(3))
}

/// Nearest-rank `q`-quantile of an ascending slice (`q` in (0, 1]).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank `q`-quantile of `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    n.saturating_sub((q * n as f64).ceil() as usize)
}

/// The tail to report for an ascending sample: the highest of p99, p95,
/// p90, p75 and p50 with at least [`TAIL_MIN_BEYOND`] samples beyond it,
/// or the maximum (`q = 1`) when the sample is too small for any of them.
/// Returns `(q, value)`.
pub fn tail(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    TAIL_LADDER
        .iter()
        .find(|&&q| beyond(n, q) >= TAIL_MIN_BEYOND)
        .map_or((1.0, sorted.last().copied().unwrap_or(0.0)), |&q| {
            (q, percentile(sorted, q))
        })
}

/// An ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Sub-buckets per power of two of [`Histogram`]: bucket width at most
/// 1/128 of the value.
const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;

/// Values at or above 2^40 ns (about 18 minutes) land in the top bucket.
const MAX_VALUE: u64 = (1 << 40) - 1;

/// A log-linear histogram of nanosecond latencies. Its memory is the same
/// however many samples it holds, so the benchmark's own footprint does
/// not grow with the throughput it measures.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; bucket(MAX_VALUE) + 1],
            total: 0,
        }
    }
}

fn bucket(v: u64) -> usize {
    let v = v.min(MAX_VALUE);
    if v < SUB {
        v as usize
    } else {
        let shift = 63 - v.leading_zeros() - SUB_BITS;
        ((u64::from(shift) + 1) * SUB + ((v >> shift) - SUB)) as usize
    }
}

/// `(lowest value, width)` of bucket `b`.
fn bucket_range(b: usize) -> (f64, f64) {
    let b = b as u64;
    if b < SUB {
        (b as f64, 1.0)
    } else {
        let shift = b / SUB - 1;
        (((SUB + b % SUB) << shift) as f64, (1u64 << shift) as f64)
    }
}

impl Histogram {
    /// Records one value.
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket(ns)] += 1;
        self.total += 1;
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The nearest-rank `q`-quantile, placed linearly inside its bucket;
    /// 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut below = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            if below + c >= rank {
                let (lo, width) = bucket_range(b);
                return lo + width * ((rank - below) as f64 - 0.5) / c as f64;
            }
            below += c;
        }
        unreachable!("rank {rank} is within the {} samples", self.total)
    }

    /// [`tail`] of the recorded samples: `(q, value)`.
    pub fn tail(&self) -> (f64, f64) {
        let n = self.total as usize;
        let q = TAIL_LADDER
            .iter()
            .copied()
            .find(|&q| beyond(n, q) >= TAIL_MIN_BEYOND)
            .unwrap_or(1.0);
        (q, self.quantile(q))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn tail_is_highest_percentile_with_ten_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond it.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(tail(&v), (0.99, 990.0));
        // 999 samples: p99 leaves 9, so p95 (49 beyond) is reported.
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail(&v).0, 0.95);
        // 140 samples (the sim_sweep cells): p90 leaves 14, p95 only 7.
        let v: Vec<f64> = (1..=140).map(f64::from).collect();
        assert_eq!(tail(&v), (0.90, 126.0));
        // Too few samples for any ladder step: the maximum.
        assert_eq!(tail(&[1.0, 2.0, 3.0]), (1.0, 3.0));
        assert_eq!(tail(&[]), (1.0, 0.0));
    }

    #[test]
    fn histogram_quantiles_within_one_percent() {
        let mut h = Histogram::default();
        let values: Vec<u64> = (1..=10_000).map(|i| i * 997).collect();
        for &v in &values {
            h.record(v);
        }
        assert_eq!(h.count(), 10_000);
        let exact: Vec<f64> = values.iter().map(|&v| v as f64).collect();
        for q in [0.01, 0.5, 0.9, 0.99, 1.0] {
            let want = percentile(&exact, q);
            let got = h.quantile(q);
            assert!((got - want).abs() <= want / 128.0, "q={q}: {got} vs {want}");
        }
        assert_eq!(h.tail().0, 0.99);
        // Small values get unit buckets; empty is 0; huge values clamp.
        let mut small = Histogram::default();
        small.record(5);
        assert_eq!(small.quantile(0.5), 5.5);
        assert_eq!(Histogram::default().quantile(0.5), 0.0);
        small.record(u64::MAX);
        assert!(small.quantile(1.0) <= MAX_VALUE as f64);
    }

    #[test]
    fn histogram_merge_adds_samples() {
        let (mut a, mut b) = (Histogram::default(), Histogram::default());
        (0..100).for_each(|v| a.record(v));
        (100..200).for_each(|v| b.record(v));
        a.merge(&b);
        assert_eq!(a.count(), 200);
        assert_eq!(a.quantile(0.5), 99.5);
    }

    #[test]
    fn buckets_tile_the_value_range() {
        let mut next = 0.0;
        for b in 0..bucket(MAX_VALUE) {
            let (lo, width) = bucket_range(b);
            assert_eq!(lo, next, "bucket {b}");
            assert_eq!(bucket(lo as u64), b);
            assert_eq!(bucket((lo + width) as u64 - 1), b);
            next = lo + width;
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&v, 0.5), 20.0);
        assert_eq!(percentile(&v, 0.51), 30.0);
        assert_eq!(percentile(&v, 1.0), 40.0);
    }
}
