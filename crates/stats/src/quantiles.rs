//! Exact quantiles of finite samples.
//!
//! The reproduction reads the paper's transmitting ranges directly off
//! sample quantiles of the per-step critical range series: `r100` is the
//! maximum (1.0-quantile), `r90` the 0.90-quantile, `r10` the
//! 0.10-quantile and `r0` the minimum. [`FrozenSeries`] sorts a sample
//! once and then answers arbitrarily many quantile queries in O(1).

use crate::StatsError;

/// Returns the `q`-quantile of a **sorted** slice using linear
/// interpolation between closest ranks (type-7 / NumPy default).
///
/// For `q = 0` this is the minimum, for `q = 1` the maximum.
///
/// # Errors
///
/// Returns [`StatsError::EmptySample`] when `sorted` is empty and
/// [`StatsError::InvalidProbability`] when `q` is outside `[0, 1]`.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), manet_stats::StatsError> {
/// let xs = [1.0, 2.0, 3.0, 4.0];
/// assert_eq!(manet_stats::quantile(&xs, 0.0)?, 1.0);
/// assert_eq!(manet_stats::quantile(&xs, 1.0)?, 4.0);
/// assert_eq!(manet_stats::quantile(&xs, 0.5)?, 2.5);
/// # Ok(())
/// # }
/// ```
pub fn quantile(sorted: &[f64], q: f64) -> Result<f64, StatsError> {
    if sorted.is_empty() {
        return Err(StatsError::EmptySample);
    }
    if !(0.0..=1.0).contains(&q) || q.is_nan() {
        return Err(StatsError::InvalidProbability(q));
    }
    let n = sorted.len();
    if n == 1 {
        return Ok(sorted[0]);
    }
    let pos = q * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        return Ok(sorted[lo]);
    }
    let frac = pos - lo as f64;
    Ok(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// A sample sorted once, answering quantile and tail queries.
///
/// This is the workhorse behind the `r_f` extraction: connectivity at
/// fixed node positions is monotone in the range, so the fraction of
/// time the network is connected at range `r` equals the fraction of
/// per-step critical ranges that are `<= r`, which a sorted series
/// answers by binary search.
///
/// # Example
///
/// ```
/// use manet_stats::FrozenSeries;
///
/// let s = FrozenSeries::new(vec![3.0, 1.0, 2.0, 4.0]).unwrap();
/// assert_eq!(s.min(), 1.0);
/// assert_eq!(s.max(), 4.0);
/// // fraction of observations <= 2.5
/// assert_eq!(s.fraction_at_most(2.5), 0.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct FrozenSeries {
    sorted: Vec<f64>,
}

impl FrozenSeries {
    /// Sorts `values` and freezes them.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptySample`] when `values` is empty and
    /// [`StatsError::NonFinite`] when any value is NaN or infinite.
    pub fn new(mut values: Vec<f64>) -> Result<Self, StatsError> {
        if values.is_empty() {
            return Err(StatsError::EmptySample);
        }
        if values.iter().any(|v| !v.is_finite()) {
            return Err(StatsError::NonFinite { name: "values" });
        }
        #[expect(
            clippy::expect_used,
            reason = "values checked finite before sorting, comparator is total"
        )]
        values.sort_by(|a, b| a.partial_cmp(b).expect("values checked finite"));
        Ok(FrozenSeries { sorted: values })
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Always `false`: construction rejects empty samples.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The sorted observations.
    pub fn as_sorted(&self) -> &[f64] {
        &self.sorted
    }

    /// Minimum observation.
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Maximum observation.
    #[expect(clippy::expect_used, reason = "non-empty by construction")]
    pub fn max(&self) -> f64 {
        *self.sorted.last().expect("non-empty by construction")
    }

    /// Mean of the observations.
    pub fn mean(&self) -> f64 {
        self.sorted.iter().sum::<f64>() / self.len() as f64
    }

    /// The `q`-quantile (interpolated).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidProbability`] when `q` is outside
    /// `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Result<f64, StatsError> {
        quantile(&self.sorted, q)
    }

    /// Fraction of observations `<= x` (the empirical CDF at `x`).
    pub fn fraction_at_most(&self, x: f64) -> f64 {
        self.sorted.partition_point(|&v| v <= x) as f64 / self.len() as f64
    }

    /// Smallest observation `y` such that at least a `fraction` of
    /// observations are `<= y`.
    ///
    /// This is the *non-interpolated* inverse CDF: it always returns an
    /// actual observation, which matches the semantics "the smallest
    /// range keeping the network connected for at least `fraction` of
    /// the time".
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidProbability`] when `fraction` is
    /// outside `[0, 1]`.
    pub fn smallest_covering(&self, fraction: f64) -> Result<f64, StatsError> {
        if !(0.0..=1.0).contains(&fraction) || fraction.is_nan() {
            return Err(StatsError::InvalidProbability(fraction));
        }
        if fraction == 0.0 {
            return Ok(self.min());
        }
        let need = (fraction * self.len() as f64).ceil() as usize;
        let idx = need.clamp(1, self.len()) - 1;
        Ok(self.sorted[idx])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_rejects_empty() {
        assert_eq!(quantile(&[], 0.5), Err(StatsError::EmptySample));
    }

    #[test]
    fn quantile_rejects_bad_probability() {
        let xs = [1.0];
        assert!(matches!(
            quantile(&xs, -0.1),
            Err(StatsError::InvalidProbability(_))
        ));
        assert!(matches!(
            quantile(&xs, 1.1),
            Err(StatsError::InvalidProbability(_))
        ));
        assert!(matches!(
            quantile(&xs, f64::NAN),
            Err(StatsError::InvalidProbability(_))
        ));
    }

    #[test]
    fn quantile_endpoints_are_extrema() {
        let xs = [2.0, 3.0, 5.0, 7.0, 11.0];
        assert_eq!(quantile(&xs, 0.0).unwrap(), 2.0);
        assert_eq!(quantile(&xs, 1.0).unwrap(), 11.0);
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [0.0, 10.0];
        assert_eq!(quantile(&xs, 0.25).unwrap(), 2.5);
        assert_eq!(quantile(&xs, 0.75).unwrap(), 7.5);
    }

    #[test]
    fn quantile_single_element() {
        assert_eq!(quantile(&[42.0], 0.3).unwrap(), 42.0);
    }

    #[test]
    fn frozen_series_sorts() {
        let s = FrozenSeries::new(vec![5.0, 1.0, 3.0]).unwrap();
        assert_eq!(s.as_sorted(), &[1.0, 3.0, 5.0]);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn frozen_series_rejects_nan() {
        assert!(matches!(
            FrozenSeries::new(vec![1.0, f64::NAN]),
            Err(StatsError::NonFinite { .. })
        ));
    }

    #[test]
    fn frozen_series_rejects_empty() {
        assert_eq!(FrozenSeries::new(vec![]), Err(StatsError::EmptySample));
    }

    #[test]
    fn fraction_at_most_matches_manual_count() {
        let s = FrozenSeries::new(vec![1.0, 2.0, 2.0, 3.0]).unwrap();
        assert_eq!(s.fraction_at_most(0.5), 0.0);
        assert_eq!(s.fraction_at_most(2.0), 0.75);
        assert_eq!(s.fraction_at_most(10.0), 1.0);
    }

    #[test]
    fn smallest_covering_returns_actual_observations() {
        let s = FrozenSeries::new(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]).unwrap();
        // 90% of 10 observations -> 9th smallest
        assert_eq!(s.smallest_covering(0.9).unwrap(), 9.0);
        assert_eq!(s.smallest_covering(1.0).unwrap(), 10.0);
        assert_eq!(s.smallest_covering(0.1).unwrap(), 1.0);
        assert_eq!(s.smallest_covering(0.0).unwrap(), 1.0);
    }

    #[test]
    fn smallest_covering_fraction_is_satisfied() {
        let s = FrozenSeries::new(vec![4.0, 1.0, 3.0, 2.0, 5.0]).unwrap();
        for f in [0.1, 0.3, 0.5, 0.77, 0.9, 1.0] {
            let y = s.smallest_covering(f).unwrap();
            assert!(
                s.fraction_at_most(y) >= f,
                "covering fraction violated for f={f}"
            );
        }
    }

    #[test]
    fn mean_matches_arithmetic() {
        let s = FrozenSeries::new(vec![1.0, 2.0, 3.0]).unwrap();
        assert!((s.mean() - 2.0).abs() < 1e-15);
    }
}
