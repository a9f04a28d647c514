//! Goodness-of-fit tests: Kolmogorov–Smirnov and chi-squared.
//!
//! Used by the occupancy theory-validation experiments to test
//! empirical distributions of the number of empty cells against the
//! Normal/Poisson limit laws of Theorem 2.

use crate::special::gamma_p;
use crate::StatsError;

/// Result of a goodness-of-fit test.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct GofResult {
    /// Test statistic (D for KS, X² for chi-squared).
    pub statistic: f64,
    /// Asymptotic p-value of the statistic under the null.
    pub p_value: f64,
}

/// One-sample Kolmogorov–Smirnov test of `sample` against a continuous
/// CDF.
///
/// The p-value uses the asymptotic Kolmogorov distribution with the
/// Stephens small-sample correction, accurate enough for the sample
/// sizes used here (hundreds and up).
///
/// # Errors
///
/// Returns [`StatsError::EmptySample`] when `sample` is empty and
/// [`StatsError::NonFinite`] when it contains non-finite values.
pub fn ks_test<F: Fn(f64) -> f64>(sample: &[f64], cdf: F) -> Result<GofResult, StatsError> {
    if sample.is_empty() {
        return Err(StatsError::EmptySample);
    }
    if sample.iter().any(|v| !v.is_finite()) {
        return Err(StatsError::NonFinite { name: "sample" });
    }
    let mut xs = sample.to_vec();
    #[expect(
        clippy::expect_used,
        reason = "samples validated finite at entry, comparator is total"
    )]
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let n = xs.len() as f64;
    let mut d: f64 = 0.0;
    for (i, &x) in xs.iter().enumerate() {
        let f = cdf(x).clamp(0.0, 1.0);
        let ecdf_hi = (i as f64 + 1.0) / n;
        let ecdf_lo = i as f64 / n;
        d = d.max((ecdf_hi - f).abs()).max((f - ecdf_lo).abs());
    }
    let lambda = (n.sqrt() + 0.12 + 0.11 / n.sqrt()) * d;
    Ok(GofResult {
        statistic: d,
        p_value: kolmogorov_sf(lambda),
    })
}

/// Survival function of the Kolmogorov distribution,
/// `Q(λ) = 2 Σ_{j>=1} (-1)^{j-1} e^{-2 j² λ²}`.
fn kolmogorov_sf(lambda: f64) -> f64 {
    if lambda < 1e-8 {
        return 1.0;
    }
    let mut sum = 0.0;
    let mut sign = 1.0;
    for j in 1..=100 {
        let term = (-2.0 * (j as f64) * (j as f64) * lambda * lambda).exp();
        sum += sign * term;
        sign = -sign;
        if term < 1e-16 {
            break;
        }
    }
    (2.0 * sum).clamp(0.0, 1.0)
}

/// Pearson chi-squared test on binned counts against expected counts.
///
/// `dof_reduction` is the number of parameters estimated from the data
/// (plus one for the total-count constraint); degrees of freedom are
/// `bins - dof_reduction`.
///
/// Bins with expected count below 5 should be pooled by the caller
/// before invoking this function; the function does not pool.
///
/// # Errors
///
/// Returns [`StatsError::EmptySample`] when fewer than two bins remain
/// after the dof reduction, and [`StatsError::NonPositive`] when any
/// expected count is not strictly positive.
pub fn chi_squared_test(
    observed: &[f64],
    expected: &[f64],
    dof_reduction: usize,
) -> Result<GofResult, StatsError> {
    if observed.len() != expected.len() || observed.len() <= dof_reduction + 1 {
        return Err(StatsError::EmptySample);
    }
    let mut x2 = 0.0;
    for (&o, &e) in observed.iter().zip(expected) {
        if e <= 0.0 {
            return Err(StatsError::NonPositive {
                name: "expected",
                value: e,
            });
        }
        x2 += (o - e) * (o - e) / e;
    }
    let dof = (observed.len() - dof_reduction - 1) as f64;
    // p = P(X² > x2) = Q(dof/2, x2/2) = 1 - P(dof/2, x2/2)
    let p_value = 1.0 - gamma_p(dof / 2.0, x2 / 2.0);
    Ok(GofResult {
        statistic: x2,
        p_value: p_value.clamp(0.0, 1.0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributions::Normal;

    #[test]
    fn ks_accepts_its_own_distribution() {
        // Deterministic "sample" from the uniform CDF: plug in the
        // quantiles themselves so the ECDF tracks the CDF closely.
        let n = 1000;
        let sample: Vec<f64> = (0..n).map(|i| (i as f64 + 0.5) / n as f64).collect();
        let res = ks_test(&sample, |x| x.clamp(0.0, 1.0)).unwrap();
        assert!(res.p_value > 0.9, "p = {}", res.p_value);
    }

    #[test]
    fn ks_rejects_wrong_distribution() {
        // Uniform sample tested against a standard normal CDF.
        let n = 500;
        let sample: Vec<f64> = (0..n).map(|i| (i as f64 + 0.5) / n as f64).collect();
        let normal = Normal::standard();
        let res = ks_test(&sample, |x| normal.cdf(x)).unwrap();
        assert!(res.p_value < 1e-6, "p = {}", res.p_value);
    }

    #[test]
    fn ks_statistic_bounds() {
        let sample = [0.1, 0.2, 0.3];
        let res = ks_test(&sample, |x| x).unwrap();
        assert!(res.statistic >= 0.0 && res.statistic <= 1.0);
    }

    #[test]
    fn ks_rejects_empty_and_nan() {
        assert!(ks_test(&[], |x| x).is_err());
        assert!(ks_test(&[f64::NAN], |x| x).is_err());
    }

    #[test]
    fn chi_squared_perfect_fit_high_p() {
        let observed = [10.0, 20.0, 30.0, 40.0];
        let res = chi_squared_test(&observed, &observed, 0).unwrap();
        assert_eq!(res.statistic, 0.0);
        assert!((res.p_value - 1.0).abs() < 1e-12);
    }

    #[test]
    fn chi_squared_gross_misfit_low_p() {
        let observed = [100.0, 0.0, 0.0, 0.0];
        let expected = [25.0, 25.0, 25.0, 25.0];
        let res = chi_squared_test(&observed, &expected, 0).unwrap();
        assert!(res.p_value < 1e-10);
    }

    #[test]
    fn chi_squared_validates() {
        assert!(chi_squared_test(&[1.0], &[1.0], 0).is_err());
        assert!(chi_squared_test(&[1.0, 2.0], &[1.0], 0).is_err());
        assert!(chi_squared_test(&[1.0, 2.0, 3.0], &[1.0, 0.0, 3.0], 0).is_err());
        // dof_reduction eats all dof
        assert!(chi_squared_test(&[1.0, 2.0, 3.0], &[1.0, 2.0, 3.0], 2).is_err());
    }

    #[test]
    fn kolmogorov_sf_monotone() {
        let mut prev = 1.0;
        for i in 1..40 {
            let lambda = i as f64 * 0.1;
            let q = kolmogorov_sf(lambda);
            assert!(q <= prev + 1e-12);
            assert!((0.0..=1.0).contains(&q));
            prev = q;
        }
    }
}
