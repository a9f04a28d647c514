//! Two-sided confidence intervals.
//!
//! The regression slope ([`crate::SlopeInference`]) and the
//! critical-range scaling exponent carry one, so paper-vs-measured
//! comparisons are honest about Monte-Carlo noise.

/// A two-sided confidence interval `[lo, hi]` around a point estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ConfidenceInterval {
    /// Point estimate.
    pub estimate: f64,
    /// Lower bound of the interval.
    pub lo: f64,
    /// Upper bound of the interval.
    pub hi: f64,
    /// Confidence level used, e.g. `0.95`.
    pub level: f64,
}

impl ConfidenceInterval {
    /// Width of the interval, `hi - lo`.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// Whether `value` lies inside the interval (inclusive).
    pub fn contains(&self, value: f64) -> bool {
        value >= self.lo && value <= self.hi
    }
}

impl core::fmt::Display for ConfidenceInterval {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{:.6} [{:.6}, {:.6}] @{:.0}%",
            self.estimate,
            self.lo,
            self.hi,
            self.level * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_readable() {
        let ci = ConfidenceInterval {
            estimate: 0.3,
            lo: 0.22,
            hi: 0.39,
            level: 0.95,
        };
        let s = ci.to_string();
        assert!(s.contains("95%"), "got {s}");
        assert!(ci.contains(ci.estimate));
        assert!((ci.width() - 0.17).abs() < 1e-12);
    }
}
