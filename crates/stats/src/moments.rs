//! Single-pass running moments (Welford's algorithm).
//!
//! [`RunningMoments`] accumulates count, mean, variance, minimum and
//! maximum of a stream of observations without storing them. Two
//! accumulators can be [merged][RunningMoments::merge], which the
//! simulation engine uses to combine per-thread partial results
//! deterministically.

/// Streaming mean/variance/extrema accumulator.
///
/// Uses Welford's numerically stable update. The accumulator is `Copy`
/// so it can be freely passed around and merged.
///
/// # Example
///
/// ```
/// use manet_stats::moments::RunningMoments;
///
/// let mut a = RunningMoments::new();
/// a.extend([1.0, 2.0]);
/// let mut b = RunningMoments::new();
/// b.extend([3.0, 4.0]);
/// a.merge(&b);
/// assert_eq!(a.count(), 4);
/// assert_eq!(a.mean(), 2.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct RunningMoments {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for RunningMoments {
    fn default() -> Self {
        Self::new()
    }
}

impl RunningMoments {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RunningMoments {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Adds every observation from an iterator.
    pub fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }

    /// Merges another accumulator into this one (Chan et al. update).
    ///
    /// The result is identical (up to floating-point rounding) to having
    /// pushed all observations into a single accumulator.
    pub fn merge(&mut self, other: &RunningMoments) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let nf = self.count as f64;
        let mf = other.count as f64;
        let tf = total as f64;
        self.mean += delta * mf / tf;
        self.m2 += other.m2 + delta * delta * nf * mf / tf;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations seen so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean. Returns `NaN` for an empty accumulator.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    /// Sample variance (dividing by `n - 1`). `NaN` when `n < 2`.
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            f64::NAN
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation. `NaN` when `n < 2`.
    pub fn sample_std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Standard error of the mean (`s / sqrt(n)`). `NaN` when `n < 2`.
    pub fn standard_error(&self) -> f64 {
        self.sample_std_dev() / (self.count as f64).sqrt()
    }

    /// Smallest observation. `+inf` when empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation. `-inf` when empty.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Returns `true` when no observation has been pushed.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

impl FromIterator<f64> for RunningMoments {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut m = RunningMoments::new();
        m.extend(iter);
        m
    }
}

impl Extend<f64> for RunningMoments {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        RunningMoments::extend(self, iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_mean_var(xs: &[f64]) -> (f64, f64) {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0);
        (mean, var)
    }

    #[test]
    fn empty_accumulator_reports_nan() {
        let m = RunningMoments::new();
        assert!(m.mean().is_nan());
        assert!(m.sample_variance().is_nan());
        assert_eq!(m.count(), 0);
        assert!(m.is_empty());
    }

    #[test]
    fn single_observation() {
        let m: RunningMoments = [7.5].into_iter().collect();
        assert_eq!(m.mean(), 7.5);
        assert_eq!(m.min(), 7.5);
        assert_eq!(m.max(), 7.5);
        assert!(m.sample_variance().is_nan());
    }

    #[test]
    fn matches_naive_two_pass() {
        let xs = [3.1, -2.7, 11.0, 0.04, 5.5, 5.5, -9.2];
        let m: RunningMoments = xs.iter().copied().collect();
        let (mean, var) = naive_mean_var(&xs);
        assert!((m.mean() - mean).abs() < 1e-12);
        assert!((m.sample_variance() - var).abs() < 1e-12);
        assert_eq!(m.min(), -9.2);
        assert_eq!(m.max(), 11.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs = [1.0, 4.0, 2.0, 8.0, 5.0, 7.0];
        let (left, right) = xs.split_at(2);
        let mut a: RunningMoments = left.iter().copied().collect();
        let b: RunningMoments = right.iter().copied().collect();
        a.merge(&b);
        let whole: RunningMoments = xs.iter().copied().collect();
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-12);
        assert!((a.sample_variance() - whole.sample_variance()).abs() < 1e-12);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a: RunningMoments = [1.0, 2.0].into_iter().collect();
        let before = a;
        a.merge(&RunningMoments::new());
        assert_eq!(a, before);

        let mut empty = RunningMoments::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn constant_stream_has_zero_variance() {
        let m: RunningMoments = std::iter::repeat_n(3.25, 100).collect();
        assert_eq!(m.mean(), 3.25);
        assert!(m.sample_variance().abs() < 1e-15);
    }

    #[test]
    fn standard_error_shrinks_with_n() {
        let small: RunningMoments = (0..10).map(|i| i as f64).collect();
        let large: RunningMoments = (0..1000).map(|i| (i % 10) as f64).collect();
        assert!(large.standard_error() < small.standard_error());
    }
}
