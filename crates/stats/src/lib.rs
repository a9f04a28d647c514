//! Statistics substrate for the MANET connectivity workspace.
//!
//! This crate collects every piece of numerical statistics the
//! reproduction of Santi & Blough (DSN 2002) needs, implemented from
//! scratch on top of `std`:
//!
//! * [`moments`] — single-pass running mean/variance (Welford) with
//!   merging, used to aggregate per-iteration simulation results.
//! * [`quantiles`] — exact quantiles of finite samples, the device by
//!   which the transmitting ranges `r100`, `r90`, `r10` and `r0` are read
//!   off a critical-range time series.
//! * [`histogram`] — fixed-width binned counts with CDF/quantile
//!   queries, used for component-size profiles and distribution checks.
//! * [`special`] — special functions: `ln Γ`, regularized incomplete
//!   gamma and beta, `erf`, log-binomials; foundation for the
//!   distributions.
//! * [`distributions`] — Normal and Poisson laws (the two limit laws
//!   of occupancy theory, Theorem 2) plus Student's t for small-sample
//!   intervals.
//! * [`ci`] — the two-sided confidence interval of fitted slopes.
//! * [`regression`] — least-squares lines, used to fit the `r·n` vs
//!   `l log l` scaling law of Theorem 5.
//! * [`seeds`] — SplitMix64 seed derivation so that parallel simulation
//!   iterations are deterministic functions of one master seed.
//!
//! # Example
//!
//! ```
//! use manet_stats::moments::RunningMoments;
//!
//! let mut m = RunningMoments::new();
//! for x in [1.0, 2.0, 3.0, 4.0] {
//!     m.push(x);
//! }
//! assert_eq!(m.mean(), 2.5);
//! assert!((m.sample_variance() - 5.0 / 3.0).abs() < 1e-12);
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod ci;
pub mod distributions;
pub mod histogram;
pub mod moments;
pub mod quantiles;
pub mod regression;
pub mod seeds;
pub mod special;

pub use ci::ConfidenceInterval;
pub use distributions::{Normal, Poisson, StudentT};
pub use histogram::Histogram;
pub use moments::RunningMoments;
pub use quantiles::{quantile, FrozenSeries};
pub use regression::{LinearFit, SlopeInference};
pub use seeds::SeedSequence;

/// Errors produced by statistics routines.
///
/// All constructors in this crate validate their arguments
/// (per C-VALIDATE) and report failures through this type.
#[derive(Debug, Clone, PartialEq)]
pub enum StatsError {
    /// The operation requires a non-empty sample.
    EmptySample,
    /// A probability-like argument was outside `[0, 1]`.
    InvalidProbability(f64),
    /// A parameter that must be strictly positive was not.
    NonPositive {
        /// Name of the offending parameter.
        name: &'static str,
        /// Value supplied by the caller.
        value: f64,
    },
    /// A parameter that must be finite was NaN or infinite.
    NonFinite {
        /// Name of the offending parameter.
        name: &'static str,
    },
    /// An interval `[lo, hi]` had `lo >= hi`.
    EmptyInterval {
        /// Lower bound supplied.
        lo: f64,
        /// Upper bound supplied.
        hi: f64,
    },
}

impl core::fmt::Display for StatsError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            StatsError::EmptySample => write!(f, "sample is empty"),
            StatsError::InvalidProbability(p) => {
                write!(f, "probability {p} is outside [0, 1]")
            }
            StatsError::NonPositive { name, value } => {
                write!(f, "parameter `{name}` must be positive, got {value}")
            }
            StatsError::NonFinite { name } => {
                write!(f, "parameter `{name}` must be finite")
            }
            StatsError::EmptyInterval { lo, hi } => {
                write!(f, "interval [{lo}, {hi}] is empty")
            }
        }
    }
}

impl std::error::Error for StatsError {}

#[cfg(test)]
mod lib_tests {
    use super::*;

    #[test]
    fn error_display_is_nonempty() {
        let variants = [
            StatsError::EmptySample,
            StatsError::InvalidProbability(1.5),
            StatsError::NonPositive {
                name: "lambda",
                value: -1.0,
            },
            StatsError::NonFinite { name: "x" },
            StatsError::EmptyInterval { lo: 1.0, hi: 0.0 },
        ];
        for v in variants {
            assert!(!v.to_string().is_empty());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<StatsError>();
    }
}
