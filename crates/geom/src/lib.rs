//! Geometry substrate for d-dimensional ad hoc network models.
//!
//! The paper places `n` nodes in the cube `[0, l]^d` (`d ∈ {1, 2, 3}` in
//! practice; the theory of Section 3 uses `d = 1`, the simulations of
//! Section 4 use `d = 2`). This crate provides:
//!
//! * [`Point`] — a `d`-dimensional point with distance arithmetic,
//!   generic over the dimension via const generics;
//! * [`Region`] — the deployment region `[0, l]^d` with uniform
//!   sampling, containment and boundary policies;
//! * [`sampling`] — uniform sampling in balls and on spheres (the
//!   drunkard model's jump distribution);
//! * [`MovingCellGrid`] — the one uniform-grid spatial index: its
//!   forward half-neighborhood scan builds communication graphs
//!   without the `O(n²)` distance matrix, and it is maintained
//!   *incrementally* across mobility steps (only nodes that crossed a
//!   cell boundary relocate) while measuring the moved set and maximum
//!   displacement for the step kernels. Every caller sizes its cells
//!   with one lattice rule, [`MovingCellGrid::lattice_cell_size`].
//!
//! # Example
//!
//! ```
//! use manet_geom::{Point, Region};
//! use rand::SeedableRng;
//!
//! let region: Region<2> = Region::new(100.0)?;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let p = region.sample_uniform(&mut rng);
//! assert!(region.contains(&p));
//! # Ok::<(), manet_geom::GeomError>(())
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod cells;
pub mod moving_grid;
pub mod point;
pub mod region;
pub mod sampling;

pub use moving_grid::MovingCellGrid;
pub use point::Point;
pub use region::{BoundaryPolicy, Region};

/// Errors produced by geometry routines.
#[derive(Debug, Clone, PartialEq)]
pub enum GeomError {
    /// A length parameter (side, radius) must be strictly positive.
    NonPositive {
        /// Name of the offending parameter.
        name: &'static str,
        /// Value supplied by the caller.
        value: f64,
    },
    /// A parameter must be finite.
    NonFinite {
        /// Name of the offending parameter.
        name: &'static str,
    },
    /// The dimension `D` is unsupported by this routine.
    UnsupportedDimension(usize),
}

impl core::fmt::Display for GeomError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            GeomError::NonPositive { name, value } => {
                write!(f, "parameter `{name}` must be positive, got {value}")
            }
            GeomError::NonFinite { name } => write!(f, "parameter `{name}` must be finite"),
            GeomError::UnsupportedDimension(d) => write!(f, "dimension {d} is not supported"),
        }
    }
}

impl std::error::Error for GeomError {}

#[cfg(test)]
mod lib_tests {
    use super::*;

    #[test]
    fn error_display_nonempty() {
        for e in [
            GeomError::NonPositive {
                name: "side",
                value: -1.0,
            },
            GeomError::NonFinite { name: "radius" },
            GeomError::UnsupportedDimension(9),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GeomError>();
    }
}
