//! Fixed-width binned histograms with CDF and quantile queries.
//!
//! The simulation engine accumulates the largest-connected-component
//! size as a step function of the transmitting range onto an `r`-grid;
//! a [`Histogram`] over `[0, diameter]` is exactly that grid.

use crate::StatsError;

/// A histogram over `[lo, hi)` with equally wide bins.
///
/// Observations outside the interval are clamped into the first/last
/// bin and counted in [`Histogram::underflow`]/[`Histogram::overflow`]
/// so no data is silently dropped.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), manet_stats::StatsError> {
/// use manet_stats::Histogram;
///
/// let mut h = Histogram::new(0.0, 10.0, 10)?;
/// for x in [0.5, 1.5, 1.6, 9.9] {
///     h.record(x);
/// }
/// assert_eq!(h.count(), 4);
/// assert_eq!(h.bin_count(1), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
    total: u64,
}

impl Histogram {
    /// Creates a histogram over `[lo, hi)` with `bins` bins.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptyInterval`] when `lo >= hi`,
    /// [`StatsError::NonFinite`] when a bound is not finite, and
    /// [`StatsError::NonPositive`] when `bins == 0`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Result<Self, StatsError> {
        if !lo.is_finite() || !hi.is_finite() {
            return Err(StatsError::NonFinite { name: "lo/hi" });
        }
        if lo >= hi {
            return Err(StatsError::EmptyInterval { lo, hi });
        }
        if bins == 0 {
            return Err(StatsError::NonPositive {
                name: "bins",
                value: 0.0,
            });
        }
        Ok(Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            underflow: 0,
            overflow: 0,
            total: 0,
        })
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Lower bound of the histogram domain.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper bound of the histogram domain.
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Width of each bin.
    pub fn bin_width(&self) -> f64 {
        (self.hi - self.lo) / self.bins() as f64
    }

    /// Index of the bin containing `x` (clamped to valid range).
    pub fn bin_index(&self, x: f64) -> usize {
        let raw = ((x - self.lo) / self.bin_width()).floor();
        (raw.max(0.0) as usize).min(self.bins() - 1)
    }

    /// Left edge of bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= bins()`.
    pub fn bin_left(&self, i: usize) -> f64 {
        assert!(i < self.bins(), "bin index {i} out of range");
        self.lo + i as f64 * self.bin_width()
    }

    /// Right edge of bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= bins()`.
    pub fn bin_right(&self, i: usize) -> f64 {
        self.bin_left(i) + self.bin_width()
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        }
        let idx = self.bin_index(x);
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Count in bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= bins()`.
    pub fn bin_count(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// Total number of recorded observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Observations clamped up into the first bin.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations clamped down into the last bin.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Iterator over `(bin_center, count)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        let w = self.bin_width();
        self.counts
            .iter()
            .enumerate()
            .map(move |(i, &c)| (self.lo + (i as f64 + 0.5) * w, c))
    }

    /// Empirical CDF evaluated at the right edge of the bin containing
    /// `x`: fraction of observations in bins up to and including it.
    pub fn cdf(&self, x: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        if x < self.lo {
            return 0.0;
        }
        let idx = self.bin_index(x);
        let cum: u64 = self.counts[..=idx].iter().sum();
        cum as f64 / self.total as f64
    }

    /// Empirical survival function `S(x) = 1 - cdf(x)`: the fraction
    /// of observations in bins strictly beyond the one containing `x`.
    ///
    /// The temporal-connectivity subsystem reads link-lifetime and
    /// inter-contact survival curves off histograms with this; an
    /// empty histogram reports `S(x) = 1` everywhere (nothing has been
    /// observed to die).
    pub fn survival(&self, x: f64) -> f64 {
        if self.total == 0 {
            return 1.0;
        }
        1.0 - self.cdf(x)
    }

    /// Approximate `q`-quantile: the left edge of the first bin whose
    /// cumulative fraction reaches `q`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptySample`] when no observation has been
    /// recorded and [`StatsError::InvalidProbability`] for `q` outside
    /// `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Result<f64, StatsError> {
        if self.total == 0 {
            return Err(StatsError::EmptySample);
        }
        if !(0.0..=1.0).contains(&q) || q.is_nan() {
            return Err(StatsError::InvalidProbability(q));
        }
        let target = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut cum = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                return Ok(self.bin_left(i));
            }
        }
        Ok(self.hi)
    }

    /// Merges another histogram with identical geometry into this one.
    ///
    /// # Panics
    ///
    /// Panics when bounds or bin counts differ — merging histograms of
    /// different geometry is a logic error, not a runtime condition.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.lo, other.lo, "histogram lower bounds differ");
        assert_eq!(self.hi, other.hi, "histogram upper bounds differ");
        assert_eq!(self.bins(), other.bins(), "histogram bin counts differ");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        self.total += other.total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        assert!(Histogram::new(1.0, 1.0, 4).is_err());
        assert!(Histogram::new(2.0, 1.0, 4).is_err());
        assert!(Histogram::new(0.0, 1.0, 0).is_err());
        assert!(Histogram::new(f64::NAN, 1.0, 4).is_err());
    }

    #[test]
    fn records_land_in_expected_bins() {
        let mut h = Histogram::new(0.0, 1.0, 4).unwrap();
        h.record(0.0);
        h.record(0.24);
        h.record(0.25);
        h.record(0.99);
        assert_eq!(h.bin_count(0), 2);
        assert_eq!(h.bin_count(1), 1);
        assert_eq!(h.bin_count(3), 1);
        assert_eq!(h.count(), 4);
    }

    #[test]
    fn out_of_range_is_clamped_and_tracked() {
        let mut h = Histogram::new(0.0, 1.0, 2).unwrap();
        h.record(-5.0);
        h.record(7.0);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.bin_count(0), 1);
        assert_eq!(h.bin_count(1), 1);
    }

    #[test]
    fn cdf_is_monotone_and_bounded() {
        let mut h = Histogram::new(0.0, 10.0, 10).unwrap();
        for i in 0..100 {
            h.record(i as f64 / 10.0);
        }
        let mut prev = 0.0;
        for x in [0.0, 1.0, 3.0, 5.0, 9.0, 9.9] {
            let c = h.cdf(x);
            assert!(c >= prev);
            assert!((0.0..=1.0).contains(&c));
            prev = c;
        }
        assert_eq!(h.cdf(-1.0), 0.0);
        assert_eq!(h.cdf(100.0), 1.0);
    }

    #[test]
    fn survival_complements_cdf() {
        let mut h = Histogram::new(0.0, 10.0, 10).unwrap();
        for i in 0..100 {
            h.record(i as f64 / 10.0);
        }
        for x in [-1.0, 0.0, 3.3, 9.9, 50.0] {
            assert!((h.survival(x) - (1.0 - h.cdf(x))).abs() < 1e-15);
        }
        assert_eq!(h.survival(-1.0), 1.0);
        assert_eq!(h.survival(100.0), 0.0);
        // Empty histogram: everything survives.
        let empty = Histogram::new(0.0, 1.0, 2).unwrap();
        assert_eq!(empty.survival(0.5), 1.0);
    }

    #[test]
    fn quantile_finds_bin_edges() {
        let mut h = Histogram::new(0.0, 4.0, 4).unwrap();
        // 1 observation in bin 0, 3 in bin 3
        h.record(0.5);
        h.record(3.5);
        h.record(3.5);
        h.record(3.5);
        assert_eq!(h.quantile(0.25).unwrap(), 0.0);
        assert_eq!(h.quantile(0.5).unwrap(), 3.0);
        assert_eq!(h.quantile(1.0).unwrap(), 3.0);
    }

    #[test]
    fn quantile_errors() {
        let h = Histogram::new(0.0, 1.0, 2).unwrap();
        assert_eq!(h.quantile(0.5), Err(StatsError::EmptySample));
        let mut h2 = h.clone();
        h2.record(0.5);
        assert!(h2.quantile(1.5).is_err());
    }

    #[test]
    fn merge_accumulates() {
        let mut a = Histogram::new(0.0, 1.0, 2).unwrap();
        let mut b = a.clone();
        a.record(0.1);
        b.record(0.9);
        b.record(2.0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.bin_count(0), 1);
        assert_eq!(a.bin_count(1), 2);
        assert_eq!(a.overflow(), 1);
    }

    #[test]
    #[should_panic(expected = "bin counts differ")]
    fn merge_rejects_mismatched_geometry() {
        let mut a = Histogram::new(0.0, 1.0, 2).unwrap();
        let b = Histogram::new(0.0, 1.0, 3).unwrap();
        a.merge(&b);
    }

    #[test]
    fn iter_yields_bin_centers() {
        let mut h = Histogram::new(0.0, 2.0, 2).unwrap();
        h.record(0.5);
        let pairs: Vec<_> = h.iter().collect();
        assert_eq!(pairs, vec![(0.5, 1), (1.5, 0)]);
    }
}
