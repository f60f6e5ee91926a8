//! Statistics helpers for experiments: online accumulators, a
//! log-bucketed latency histogram and the least-squares fits the paper
//! uses to report latency (e.g. the "55.9 ns + 34.2 ns/hop" line of
//! Figure 5).

/// Online mean/min/max/variance accumulator.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Accumulator {
    n: u64,
    sum: f64,
    sumsq: f64,
    min: f64,
    max: f64,
}

impl Accumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Accumulator {
            n: 0,
            sum: 0.0,
            sumsq: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one sample.
    pub fn add(&mut self, v: f64) {
        self.n += 1;
        self.sum += v;
        self.sumsq += v * v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Mean of the samples.
    ///
    /// # Panics
    /// Panics if no samples have been added.
    pub fn mean(&self) -> f64 {
        assert!(self.n > 0, "mean of empty accumulator");
        self.sum / self.n as f64
    }

    /// Smallest sample, or `None` if empty.
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest sample, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Population variance of the samples (zero for a single sample).
    ///
    /// # Panics
    /// Panics if no samples have been added.
    pub fn variance(&self) -> f64 {
        assert!(self.n > 0, "variance of empty accumulator");
        let mean = self.sum / self.n as f64;
        // Catastrophic cancellation can push the difference slightly
        // negative; clamp so stddev never goes NaN.
        (self.sumsq / self.n as f64 - mean * mean).max(0.0)
    }

    /// Population standard deviation of the samples.
    ///
    /// # Panics
    /// Panics if no samples have been added.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Folds another accumulator's samples into this one, as if every
    /// sample it saw had been [`Accumulator::add`]ed here — the merge
    /// path for per-worker statistics in threaded harnesses.
    pub fn merge(&mut self, other: &Accumulator) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        self.n += other.n;
        self.sum += other.sum;
        self.sumsq += other.sumsq;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Result of a simple linear regression `y = intercept + slope * x`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinearFit {
    /// The y-intercept.
    pub intercept: f64,
    /// The slope.
    pub slope: f64,
    /// Coefficient of determination (R²).
    pub r2: f64,
}

/// Least-squares fit over `(x, y)` points.
///
/// # Panics
/// Panics with fewer than two points or when all x are identical.
///
/// ```
/// use anton_sim::stats::linear_fit;
/// let fit = linear_fit(&[(1.0, 90.1), (2.0, 124.3), (3.0, 158.5)]);
/// assert!((fit.slope - 34.2).abs() < 1e-9);
/// assert!((fit.intercept - 55.9).abs() < 1e-9);
/// ```
pub fn linear_fit(points: &[(f64, f64)]) -> LinearFit {
    assert!(points.len() >= 2, "need at least two points to fit a line");
    let n = points.len() as f64;
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    assert!(denom.abs() > 1e-12, "degenerate x values in linear fit");
    let slope = (n * sxy - sx * sy) / denom;
    let intercept = (sy - slope * sx) / n;
    let mean_y = sy / n;
    let ss_tot: f64 = points.iter().map(|p| (p.1 - mean_y).powi(2)).sum();
    let ss_res: f64 = points
        .iter()
        .map(|p| (p.1 - (intercept + slope * p.0)).powi(2))
        .sum();
    let r2 = if ss_tot > 0.0 {
        1.0 - ss_res / ss_tot
    } else {
        1.0
    };
    LinearFit {
        intercept,
        slope,
        r2,
    }
}

/// Log-bucketed histogram over `u64` samples, built for cheap recording
/// and exact merging across workers.
///
/// Values below 64 land in exact unit buckets; above that, each octave
/// is split into 32 sub-buckets (HdrHistogram-style, `2^5` sub-buckets
/// per power of two), so bucket width stays within ~3% of the value.
/// Quantiles report the **inclusive upper bound** of the bucket holding
/// the target sample, so a histogram-derived percentile is always within
/// one bucket width above the exact order-statistic. Merging is
/// element-wise count addition: merging per-worker histograms is
/// bit-identical to recording every sample into one histogram, in any
/// order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LogHistogram {
    counts: Vec<u64>,
    samples: u64,
    min: u64,
    max: u64,
}

/// Sub-bucket resolution: 2^5 = 32 sub-buckets per octave.
const LOG_SUB_BITS: u32 = 5;
/// Values below this are bucketed exactly (width-1 buckets).
const LOG_EXACT_LIMIT: u64 = 1 << (LOG_SUB_BITS + 1);

impl LogHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LogHistogram::default()
    }

    /// The bucket index holding `v`.
    fn index(v: u64) -> usize {
        if v < LOG_EXACT_LIMIT {
            v as usize
        } else {
            let msb = 63 - v.leading_zeros();
            let shift = msb - LOG_SUB_BITS;
            ((shift as usize + 1) << LOG_SUB_BITS)
                + ((v >> shift) as usize & ((1 << LOG_SUB_BITS) - 1))
        }
    }

    /// The smallest value bucket `i` can hold.
    fn lower(i: usize) -> u64 {
        if i < LOG_EXACT_LIMIT as usize {
            i as u64
        } else {
            let shift = (i >> LOG_SUB_BITS) as u32 - 1;
            let sub = (i & ((1 << LOG_SUB_BITS) - 1)) as u64;
            ((1 << LOG_SUB_BITS) + sub) << shift
        }
    }

    /// The largest value bucket `i` can hold (inclusive).
    fn upper(i: usize) -> u64 {
        if i < LOG_EXACT_LIMIT as usize {
            i as u64
        } else {
            let shift = (i >> LOG_SUB_BITS) as u32 - 1;
            let sub = (i & ((1 << LOG_SUB_BITS) - 1)) as u64;
            (((1 << LOG_SUB_BITS) + sub + 1) << shift) - 1
        }
    }

    /// Width of the bucket that holds `v` (1 in the exact range, then
    /// doubling every octave — the "one bucket width" quantile error
    /// bound).
    pub fn bucket_width(v: u64) -> u64 {
        let i = Self::index(v);
        Self::upper(i) - Self::lower(i) + 1
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        let i = Self::index(v);
        if i >= self.counts.len() {
            self.counts.resize(i + 1, 0);
        }
        self.counts[i] += 1;
        if self.samples == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.samples += 1;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.samples
    }

    /// Smallest recorded sample (exact), or `None` if empty.
    pub fn min(&self) -> Option<u64> {
        (self.samples > 0).then_some(self.min)
    }

    /// Largest recorded sample (exact), or `None` if empty.
    pub fn max(&self) -> Option<u64> {
        (self.samples > 0).then_some(self.max)
    }

    /// Folds another histogram into this one (element-wise count
    /// addition) — order-independent, so per-worker histograms merge to
    /// the same result as single-threaded recording.
    pub fn merge(&mut self, other: &LogHistogram) {
        if other.samples == 0 {
            return;
        }
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (dst, &src) in self.counts.iter_mut().zip(&other.counts) {
            *dst += src;
        }
        if self.samples == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.samples += other.samples;
    }

    /// The value below which a fraction `q` (0..=1) of samples fall,
    /// reported as the inclusive upper bound of the bucket holding the
    /// target order-statistic. Returns 0 when empty.
    ///
    /// # Panics
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        if self.samples == 0 {
            return 0;
        }
        let target = ((q * self.samples as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                // Never report beyond the exact observed maximum.
                return Self::upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Non-empty buckets as `(lower, upper_inclusive, count)`, in
    /// increasing value order — the export surface for JSON summaries.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::lower(i), Self::upper(i), c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulator_tracks_moments() {
        let mut a = Accumulator::new();
        for v in [1.0, 2.0, 3.0, 10.0] {
            a.add(v);
        }
        assert_eq!(a.count(), 4);
        assert!((a.mean() - 4.0).abs() < 1e-12);
        assert_eq!(a.min(), Some(1.0));
        assert_eq!(a.max(), Some(10.0));
    }

    #[test]
    #[should_panic(expected = "mean of empty")]
    fn empty_mean_panics() {
        Accumulator::new().mean();
    }

    #[test]
    fn fit_recovers_exact_line() {
        let pts: Vec<(f64, f64)> = (0..10)
            .map(|i| (i as f64, 91.2 + 51.8 * i as f64))
            .collect();
        let fit = linear_fit(&pts);
        assert!((fit.slope - 51.8).abs() < 1e-9);
        assert!((fit.intercept - 91.2).abs() < 1e-9);
        assert!((fit.r2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fit_r2_below_one_with_noise() {
        let pts = [(0.0, 0.0), (1.0, 2.0), (2.0, 1.0), (3.0, 4.0)];
        let fit = linear_fit(&pts);
        assert!(fit.r2 < 1.0 && fit.r2 > 0.0);
    }

    #[test]
    #[should_panic(expected = "at least two points")]
    fn fit_requires_points() {
        let _ = linear_fit(&[(1.0, 1.0)]);
    }

    #[test]
    fn accumulator_variance_and_merge() {
        let mut a = Accumulator::new();
        let mut b = Accumulator::new();
        let mut whole = Accumulator::new();
        for (i, v) in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0].iter().enumerate() {
            if i % 2 == 0 { &mut a } else { &mut b }.add(*v);
            whole.add(*v);
        }
        assert!((whole.mean() - 5.0).abs() < 1e-12);
        assert!((whole.variance() - 4.0).abs() < 1e-12);
        assert!((whole.stddev() - 2.0).abs() < 1e-12);
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-12);
        assert!((a.variance() - whole.variance()).abs() < 1e-12);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn accumulator_merge_handles_empty_sides() {
        let mut empty = Accumulator::new();
        let mut one = Accumulator::new();
        one.add(3.0);
        empty.merge(&one);
        assert_eq!(empty.count(), 1);
        assert_eq!(empty.min(), Some(3.0));
        let before = one.clone();
        one.merge(&Accumulator::new());
        assert_eq!(one, before);
    }

    #[test]
    fn single_sample_variance_is_zero() {
        let mut a = Accumulator::new();
        a.add(42.0);
        assert_eq!(a.variance(), 0.0);
        assert_eq!(a.stddev(), 0.0);
    }

    #[test]
    fn log_histogram_is_exact_below_64() {
        let mut h = LogHistogram::new();
        for v in 0..64u64 {
            h.record(v);
        }
        for q in [0.0f64, 0.25, 0.5, 0.99, 1.0] {
            let exact = ((q * 64.0).ceil() as u64).max(1) - 1;
            assert_eq!(h.quantile(q), exact, "q={q}");
        }
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(63));
        assert_eq!(LogHistogram::bucket_width(10), 1);
    }

    #[test]
    fn log_histogram_quantile_within_one_bucket_width() {
        let mut h = LogHistogram::new();
        let mut sorted: Vec<u64> = (0..5000u64).map(|i| (i * i * 31) % 200_000).collect();
        for &v in &sorted {
            h.record(v);
        }
        sorted.sort_unstable();
        for q in [0.1, 0.5, 0.9, 0.99] {
            let rank = ((sorted.len() - 1) as f64 * q).round() as usize;
            let exact = sorted[rank];
            let est = h.quantile(q);
            assert!(
                est >= exact && est - exact < LogHistogram::bucket_width(exact),
                "q={q}: est {est} vs exact {exact}"
            );
        }
    }

    #[test]
    fn log_histogram_merge_matches_single_recording() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut whole = LogHistogram::new();
        for i in 0..1000u64 {
            let v = (i * 7919) % 100_000;
            if i % 2 == 0 { &mut a } else { &mut b }.record(v);
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a, whole);
        let empty = LogHistogram::new();
        let mut c = whole.clone();
        c.merge(&empty);
        assert_eq!(c, whole);
    }

    #[test]
    fn log_histogram_buckets_partition_values() {
        // Every value maps into exactly one bucket whose bounds hold it.
        let mut h = LogHistogram::new();
        for v in [0u64, 1, 63, 64, 65, 100, 1 << 20, u64::from(u32::MAX)] {
            h.record(v);
        }
        let mut seen = 0;
        let mut prev_upper: Option<u64> = None;
        for (lo, hi, c) in h.nonzero_buckets() {
            assert!(lo <= hi);
            if let Some(p) = prev_upper {
                assert!(lo > p, "buckets must be increasing");
            }
            prev_upper = Some(hi);
            seen += c;
        }
        assert_eq!(seen, h.count());
        assert_eq!(h.quantile(1.0), u64::from(u32::MAX));
    }
}
