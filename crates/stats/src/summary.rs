//! One-stop descriptive summary of a sample.

use crate::moments::RunningMoments;
use crate::quantiles::quantile;
use crate::StatsError;

/// Descriptive statistics of a finite sample: moments plus the
/// quantiles the paper's evaluation reads off.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), manet_stats::StatsError> {
/// use manet_stats::Summary;
///
/// let s = Summary::from_values(vec![4.0, 1.0, 3.0, 2.0])?;
/// assert_eq!(s.min, 1.0);
/// assert_eq!(s.max, 4.0);
/// assert_eq!(s.median, 2.5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Summary {
    /// Number of observations.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (`NaN` when `count < 2`).
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Summarizes `values` (consumed; they are sorted internally).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptySample`] when `values` is empty and
    /// [`StatsError::NonFinite`] when any value is NaN or infinite.
    pub fn from_values(mut values: Vec<f64>) -> Result<Self, StatsError> {
        if values.is_empty() {
            return Err(StatsError::EmptySample);
        }
        if values.iter().any(|v| !v.is_finite()) {
            return Err(StatsError::NonFinite { name: "values" });
        }
        #[expect(
            clippy::expect_used,
            reason = "values validated finite, comparator is total"
        )]
        values.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let moments: RunningMoments = values.iter().copied().collect();
        Ok(Summary {
            count: values.len(),
            mean: moments.mean(),
            std_dev: moments.sample_std_dev(),
            min: values[0],
            q1: quantile(&values, 0.25)?,
            median: quantile(&values, 0.5)?,
            q3: quantile(&values, 0.75)?,
            #[expect(clippy::expect_used, reason = "non-empty checked at entry")]
            max: *values.last().expect("non-empty"),
        })
    }
}

impl core::fmt::Display for Summary {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "n={} mean={:.6} sd={:.6} min={:.6} q1={:.6} med={:.6} q3={:.6} max={:.6}",
            self.count, self.mean, self.std_dev, self.min, self.q1, self.median, self.q3, self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_sample() {
        let s = Summary::from_values(vec![1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(s.count, 5);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.q1, 2.0);
        assert_eq!(s.q3, 4.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
    }

    #[test]
    fn rejects_empty_and_nan() {
        assert!(Summary::from_values(vec![]).is_err());
        assert!(Summary::from_values(vec![1.0, f64::NAN]).is_err());
        assert!(Summary::from_values(vec![f64::INFINITY]).is_err());
    }

    #[test]
    fn single_observation() {
        let s = Summary::from_values(vec![9.0]).unwrap();
        assert_eq!(s.count, 1);
        assert_eq!(s.mean, 9.0);
        assert_eq!(s.median, 9.0);
        assert!(s.std_dev.is_nan());
    }

    #[test]
    fn display_contains_fields() {
        let s = Summary::from_values(vec![1.0, 2.0]).unwrap();
        let text = s.to_string();
        assert!(text.contains("n=2"));
        assert!(text.contains("mean="));
    }
}
