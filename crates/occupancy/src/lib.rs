//! Occupancy theory (random allocations of balls into cells).
//!
//! Section 3 of Santi & Blough (DSN 2002) proves the tight `r·n =
//! Θ(l log l)` connectivity threshold for 1-dimensional ad hoc networks
//! by an occupancy argument: subdivide the line `[0, l]` into
//! `C = l/r` cells of width `r`, regard the `n` uniformly placed nodes
//! as balls thrown uniformly into the `C` cells, and observe (Lemma 1)
//! that an empty cell strictly between two occupied cells — a `{10*1}`
//! pattern in the occupancy bit string — disconnects the communication
//! graph.
//!
//! This crate implements the occupancy machinery end to end, after
//! Kolchin, Sevast'yanov & Chistyakov, *Random Allocations* (1978):
//!
//! * [`Occupancy`] — exact distribution of the number of empty cells
//!   `µ(n, C)`: mean, variance, and the full pmf via a numerically
//!   stable Stirling-number dynamic program (with the textbook
//!   inclusion–exclusion form as a cross-check);
//! * [`asymptotic`] — the Theorem 1 asymptotic expansions of
//!   `E[µ]` and `Var[µ]`;
//! * [`domains`] — the five asymptotic domains (central, right/left,
//!   right/left-intermediate) that govern the limit law;
//! * [`limits`] — the Theorem 2 limit distributions (Normal or
//!   Poisson, shifted Poisson in the left-hand domain);
//! * [`montecarlo`] — ball-throwing simulation for empirical checks;
//! * [`patterns`] — occupancy bit strings of 1-D placements, the
//!   `{10*1}` disconnection witness of Lemma 1, the conditional
//!   probability of Lemma 2, and the Theorem 4 lower bound on the
//!   disconnection probability.
//!
//! # Example
//!
//! ```
//! use manet_occupancy::Occupancy;
//!
//! // 100 balls into 50 cells.
//! let occ = Occupancy::new(100, 50)?;
//! let e = occ.expected_empty();
//! // E[µ] = C (1 - 1/C)^n
//! assert!((e - 50.0 * (1.0 - 1.0 / 50.0f64).powi(100)).abs() < 1e-9);
//! // The pmf sums to 1.
//! let pmf = occ.distribution();
//! let total: f64 = pmf.iter().sum();
//! assert!((total - 1.0).abs() < 1e-9);
//! # Ok::<(), manet_occupancy::OccupancyError>(())
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod asymptotic;
pub mod domains;
pub mod exact;
pub mod limits;
pub mod montecarlo;
pub mod patterns;

pub use domains::OccupancyDomain;
pub use exact::Occupancy;
pub use limits::LimitLaw;

/// Errors produced by occupancy-theory routines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OccupancyError {
    /// The number of cells must be at least one.
    NoCells,
    /// An index `k` exceeded the number of cells.
    EmptyCountOutOfRange {
        /// Requested number of empty cells.
        k: u64,
        /// Number of cells available.
        cells: u64,
    },
    /// The requested exact computation is too large to be practical
    /// (the Stirling DP is `O(n·C)`).
    ProblemTooLarge {
        /// Number of balls requested.
        balls: u64,
        /// Number of cells requested.
        cells: u64,
    },
}

impl core::fmt::Display for OccupancyError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            OccupancyError::NoCells => write!(f, "at least one cell is required"),
            OccupancyError::EmptyCountOutOfRange { k, cells } => {
                write!(f, "empty-cell count {k} exceeds cell count {cells}")
            }
            OccupancyError::ProblemTooLarge { balls, cells } => write!(
                f,
                "exact computation for {balls} balls and {cells} cells exceeds the O(n*C) practicality bound"
            ),
        }
    }
}

impl std::error::Error for OccupancyError {}

#[cfg(test)]
mod lib_tests {
    use super::*;

    #[test]
    fn error_display_nonempty() {
        for e in [
            OccupancyError::NoCells,
            OccupancyError::EmptyCountOutOfRange { k: 5, cells: 3 },
            OccupancyError::ProblemTooLarge {
                balls: 1 << 40,
                cells: 1 << 40,
            },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<OccupancyError>();
    }
}
