//! Normal and Poisson distributions.
//!
//! Theorem 2 of the paper states that the number of empty cells
//! `µ(n, C)` converges to a **Normal** law in the central and
//! intermediate occupancy domains, and to a **Poisson** law in the
//! right-hand (and, shifted, left-hand) domains. These two laws, with
//! pdf/pmf, cdf and quantiles, are all the probability machinery the
//! reproduction needs.

use crate::special::{erf, erfc, gamma_q, ln_factorial};
use crate::StatsError;
use std::f64::consts::PI;

/// Normal (Gaussian) distribution `N(mean, sd^2)`.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), manet_stats::StatsError> {
/// use manet_stats::Normal;
///
/// let n = Normal::new(0.0, 1.0)?;
/// assert!((n.cdf(0.0) - 0.5).abs() < 1e-15);
/// assert!((n.quantile(0.975)? - 1.959964).abs() < 1e-5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Normal {
    mean: f64,
    sd: f64,
}

impl Normal {
    /// Creates a Normal law with the given mean and standard deviation.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::NonPositive`] when `sd <= 0` and
    /// [`StatsError::NonFinite`] when either parameter is not finite.
    pub fn new(mean: f64, sd: f64) -> Result<Self, StatsError> {
        if !mean.is_finite() {
            return Err(StatsError::NonFinite { name: "mean" });
        }
        if !sd.is_finite() {
            return Err(StatsError::NonFinite { name: "sd" });
        }
        if sd <= 0.0 {
            return Err(StatsError::NonPositive {
                name: "sd",
                value: sd,
            });
        }
        Ok(Normal { mean, sd })
    }

    /// The standard normal `N(0, 1)`.
    pub fn standard() -> Self {
        Normal { mean: 0.0, sd: 1.0 }
    }

    /// Mean of the distribution.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Standard deviation of the distribution.
    pub fn sd(&self) -> f64 {
        self.sd
    }

    /// Probability density at `x`.
    pub fn pdf(&self, x: f64) -> f64 {
        let z = (x - self.mean) / self.sd;
        (-0.5 * z * z).exp() / (self.sd * (2.0 * PI).sqrt())
    }

    /// Cumulative distribution function `P(X <= x)`.
    pub fn cdf(&self, x: f64) -> f64 {
        let z = (x - self.mean) / (self.sd * std::f64::consts::SQRT_2);
        0.5 * (1.0 + erf(z))
    }

    /// Right tail `P(X > x)`, computed without cancellation.
    pub fn sf(&self, x: f64) -> f64 {
        let z = (x - self.mean) / (self.sd * std::f64::consts::SQRT_2);
        0.5 * erfc(z)
    }

    /// Quantile (inverse CDF) via Acklam's rational approximation
    /// refined with one Halley step; absolute error below `1e-9`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidProbability`] unless `0 < p < 1`.
    pub fn quantile(&self, p: f64) -> Result<f64, StatsError> {
        if !(p > 0.0 && p < 1.0) {
            return Err(StatsError::InvalidProbability(p));
        }
        Ok(self.mean + self.sd * standard_normal_quantile(p))
    }
}

/// Acklam's inverse standard-normal CDF with one Halley refinement.
fn standard_normal_quantile(p: f64) -> f64 {
    // Coefficients for the central and tail rational approximations.
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };

    // One step of Halley's method against the accurate CDF.
    let std = Normal::standard();
    let e = std.cdf(x) - p;
    let u = e * (2.0 * PI).sqrt() * (x * x / 2.0).exp();
    x - u / (1.0 + x * u / 2.0)
}

/// Poisson distribution with rate `lambda`.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), manet_stats::StatsError> {
/// use manet_stats::Poisson;
///
/// let p = Poisson::new(2.0)?;
/// assert!((p.pmf(0) - (-2.0f64).exp()).abs() < 1e-12);
/// assert!((p.mean() - 2.0).abs() < 1e-15);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Poisson {
    lambda: f64,
}

impl Poisson {
    /// Creates a Poisson law with rate `lambda > 0`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::NonPositive`] when `lambda <= 0` and
    /// [`StatsError::NonFinite`] when it is not finite.
    pub fn new(lambda: f64) -> Result<Self, StatsError> {
        if !lambda.is_finite() {
            return Err(StatsError::NonFinite { name: "lambda" });
        }
        if lambda <= 0.0 {
            return Err(StatsError::NonPositive {
                name: "lambda",
                value: lambda,
            });
        }
        Ok(Poisson { lambda })
    }

    /// The rate parameter.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Mean (equal to `lambda`).
    pub fn mean(&self) -> f64 {
        self.lambda
    }

    /// Variance (equal to `lambda`).
    pub fn variance(&self) -> f64 {
        self.lambda
    }

    /// Probability mass `P(X = k)`, evaluated in log space.
    pub fn pmf(&self, k: u64) -> f64 {
        self.ln_pmf(k).exp()
    }

    /// `ln P(X = k)`.
    pub fn ln_pmf(&self, k: u64) -> f64 {
        k as f64 * self.lambda.ln() - self.lambda - ln_factorial(k)
    }

    /// Cumulative distribution `P(X <= k)` via the regularized upper
    /// incomplete gamma identity `P(X <= k) = Q(k + 1, lambda)`.
    pub fn cdf(&self, k: u64) -> f64 {
        gamma_q(k as f64 + 1.0, self.lambda)
    }

    /// Right tail `P(X > k) = 1 - cdf(k)` computed from the lower
    /// incomplete gamma to avoid cancellation.
    pub fn sf(&self, k: u64) -> f64 {
        crate::special::gamma_p(k as f64 + 1.0, self.lambda)
    }

    /// Smallest `k` with `P(X <= k) >= p`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidProbability`] unless `0 < p < 1`.
    pub fn quantile(&self, p: f64) -> Result<u64, StatsError> {
        if !(p > 0.0 && p < 1.0) {
            return Err(StatsError::InvalidProbability(p));
        }
        // Start near mean + z * sd and walk; lambda is modest in all
        // occupancy uses so the walk terminates quickly.
        let start = (self.lambda + standard_normal_quantile(p) * self.lambda.sqrt())
            .floor()
            .max(0.0) as u64;
        let mut k = start;
        if self.cdf(k) >= p {
            while k > 0 && self.cdf(k - 1) >= p {
                k -= 1;
            }
        } else {
            while self.cdf(k) < p {
                k += 1;
            }
        }
        Ok(k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normal_rejects_bad_parameters() {
        assert!(Normal::new(0.0, 0.0).is_err());
        assert!(Normal::new(0.0, -1.0).is_err());
        assert!(Normal::new(f64::NAN, 1.0).is_err());
        assert!(Normal::new(0.0, f64::INFINITY).is_err());
    }

    #[test]
    fn normal_pdf_symmetry_and_peak() {
        let n = Normal::new(2.0, 3.0).unwrap();
        assert!((n.pdf(1.0) - n.pdf(3.0)).abs() < 1e-15);
        assert!(n.pdf(2.0) > n.pdf(2.5));
        // peak height = 1/(sd*sqrt(2π))
        assert!((n.pdf(2.0) - 1.0 / (3.0 * (2.0 * PI).sqrt())).abs() < 1e-15);
    }

    #[test]
    fn normal_cdf_reference_values() {
        let n = Normal::standard();
        let cases = [
            (0.0, 0.5),
            (1.0, 0.8413447460685429),
            (-1.0, 0.15865525393145705),
            (1.959963984540054, 0.975),
        ];
        for (x, want) in cases {
            assert!((n.cdf(x) - want).abs() < 1e-10, "cdf({x})");
        }
    }

    #[test]
    fn normal_cdf_sf_complement() {
        let n = Normal::new(-1.0, 0.5).unwrap();
        for x in [-3.0, -1.0, 0.0, 2.0] {
            assert!((n.cdf(x) + n.sf(x) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn normal_quantile_inverts_cdf() {
        let n = Normal::new(5.0, 2.0).unwrap();
        for p in [0.001, 0.025, 0.1, 0.5, 0.9, 0.975, 0.999] {
            let x = n.quantile(p).unwrap();
            assert!((n.cdf(x) - p).abs() < 1e-9, "quantile round-trip at {p}");
        }
    }

    #[test]
    fn normal_quantile_rejects_extremes() {
        let n = Normal::standard();
        assert!(n.quantile(0.0).is_err());
        assert!(n.quantile(1.0).is_err());
        assert!(n.quantile(-0.2).is_err());
    }

    #[test]
    fn poisson_rejects_bad_lambda() {
        assert!(Poisson::new(0.0).is_err());
        assert!(Poisson::new(-2.0).is_err());
        assert!(Poisson::new(f64::NAN).is_err());
    }

    #[test]
    fn poisson_pmf_sums_to_one() {
        let p = Poisson::new(4.2).unwrap();
        let total: f64 = (0..200).map(|k| p.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn poisson_cdf_matches_pmf_sum() {
        let p = Poisson::new(7.5).unwrap();
        let mut acc = 0.0;
        for k in 0..30u64 {
            acc += p.pmf(k);
            assert!((p.cdf(k) - acc).abs() < 1e-10, "cdf({k})");
        }
    }

    #[test]
    fn poisson_cdf_sf_complement() {
        let p = Poisson::new(3.0).unwrap();
        for k in [0, 1, 5, 20] {
            assert!((p.cdf(k) + p.sf(k) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn poisson_quantile_is_smallest_covering() {
        let p = Poisson::new(6.0).unwrap();
        for prob in [0.01, 0.25, 0.5, 0.9, 0.99] {
            let k = p.quantile(prob).unwrap();
            assert!(p.cdf(k) >= prob);
            if k > 0 {
                assert!(p.cdf(k - 1) < prob);
            }
        }
    }

    #[test]
    fn poisson_mean_variance() {
        let p = Poisson::new(11.0).unwrap();
        assert_eq!(p.mean(), 11.0);
        assert_eq!(p.variance(), 11.0);
        assert_eq!(p.lambda(), 11.0);
    }
}

/// Student's t distribution with `dof` degrees of freedom.
///
/// Used by [`crate::LinearFit::fit_with_slope_ci`] for honest
/// small-sample intervals (a handful of sweep points), where the
/// normal approximation is anti-conservative.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), manet_stats::StatsError> {
/// use manet_stats::distributions::StudentT;
///
/// let t = StudentT::new(2.0)?;
/// // Classic table value: t_{0.975, 2} = 4.30265...
/// assert!((t.quantile(0.975)? - 4.30265).abs() < 1e-4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct StudentT {
    dof: f64,
}

impl StudentT {
    /// Creates the distribution with `dof > 0` degrees of freedom.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::NonPositive`] when `dof <= 0` and
    /// [`StatsError::NonFinite`] when it is not finite.
    pub fn new(dof: f64) -> Result<Self, StatsError> {
        if !dof.is_finite() {
            return Err(StatsError::NonFinite { name: "dof" });
        }
        if dof <= 0.0 {
            return Err(StatsError::NonPositive {
                name: "dof",
                value: dof,
            });
        }
        Ok(StudentT { dof })
    }

    /// Degrees of freedom.
    pub fn dof(&self) -> f64 {
        self.dof
    }

    /// CDF via the incomplete-beta identity
    /// `P(T <= t) = 1 − I_{ν/(ν+t²)}(ν/2, 1/2) / 2` for `t >= 0`,
    /// extended by symmetry.
    pub fn cdf(&self, t: f64) -> f64 {
        let x = self.dof / (self.dof + t * t);
        let tail = 0.5 * crate::special::beta_inc(self.dof / 2.0, 0.5, x);
        if t >= 0.0 {
            1.0 - tail
        } else {
            tail
        }
    }

    /// Quantile via bisection on the CDF (the CDF is smooth and
    /// strictly increasing; 200 iterations reach ~1e-12).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidProbability`] unless `0 < p < 1`.
    pub fn quantile(&self, p: f64) -> Result<f64, StatsError> {
        if !(p > 0.0 && p < 1.0) {
            return Err(StatsError::InvalidProbability(p));
        }
        if (p - 0.5).abs() < 1e-16 {
            return Ok(0.0);
        }
        // Bracket: expand until the CDF straddles p.
        let mut hi = 1.0;
        while self.cdf(hi) < p {
            hi *= 2.0;
            if hi > 1e12 {
                break;
            }
        }
        let mut lo = -1.0;
        while self.cdf(lo) > p {
            lo *= 2.0;
            if lo < -1e12 {
                break;
            }
        }
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if self.cdf(mid) < p {
                lo = mid;
            } else {
                hi = mid;
            }
            if hi - lo < 1e-12 * (1.0 + hi.abs()) {
                break;
            }
        }
        Ok(0.5 * (lo + hi))
    }
}

#[cfg(test)]
mod student_t_tests {
    use super::*;

    #[test]
    fn validates_dof() {
        assert!(StudentT::new(0.0).is_err());
        assert!(StudentT::new(-1.0).is_err());
        assert!(StudentT::new(f64::NAN).is_err());
        assert!(StudentT::new(5.0).is_ok());
    }

    #[test]
    fn cdf_symmetry_and_median() {
        let t = StudentT::new(7.0).unwrap();
        assert!((t.cdf(0.0) - 0.5).abs() < 1e-12);
        for x in [0.5, 1.0, 2.5] {
            assert!((t.cdf(x) + t.cdf(-x) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn dof_one_is_cauchy() {
        // t(1) = Cauchy: CDF(t) = 1/2 + atan(t)/π.
        let t = StudentT::new(1.0).unwrap();
        for x in [-3.0f64, -1.0, 0.5, 2.0] {
            let want = 0.5 + x.atan() / std::f64::consts::PI;
            assert!((t.cdf(x) - want).abs() < 1e-10, "x = {x}");
        }
    }

    #[test]
    fn classic_table_values() {
        // Two-sided 95% critical values.
        let cases = [
            (1.0, 12.7062),
            (2.0, 4.30265),
            (5.0, 2.57058),
            (10.0, 2.22814),
            (30.0, 2.04227),
        ];
        for (dof, want) in cases {
            let t = StudentT::new(dof).unwrap();
            let got = t.quantile(0.975).unwrap();
            assert!((got - want).abs() < 1e-3, "dof {dof}: {got} vs {want}");
        }
    }

    #[test]
    fn converges_to_normal_for_large_dof() {
        let t = StudentT::new(1e6).unwrap();
        let n = Normal::standard();
        for p in [0.05, 0.25, 0.9, 0.975] {
            let tq = t.quantile(p).unwrap();
            let nq = n.quantile(p).unwrap();
            assert!((tq - nq).abs() < 1e-3, "p = {p}: {tq} vs {nq}");
        }
    }

    #[test]
    fn quantile_roundtrip() {
        let t = StudentT::new(4.0).unwrap();
        for p in [0.01, 0.2, 0.5, 0.8, 0.99] {
            let x = t.quantile(p).unwrap();
            assert!((t.cdf(x) - p).abs() < 1e-9, "p = {p}");
        }
        assert!(t.quantile(0.0).is_err());
        assert!(t.quantile(1.0).is_err());
    }
}
