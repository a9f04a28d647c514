//! Mobility models for ad hoc network simulation — the scenario zoo.
//!
//! Every model implements the [`Mobility`] trait and is resolved by
//! name through the [`ModelRegistry`]: an extensible name →
//! validated-constructor table with paper-scale defaults, so new
//! families reach every simulation pipeline and every `manet-repro
//! --models` sweep without an enum edit. [`AnyModel`] is the
//! type-erased handle the registry hands out; it still satisfies the
//! `Clone + Send + Sync` bounds the parallel engines require.
//!
//! The zoo spans three kinds of motion:
//!
//! * **Per-node, paper §4.1** — [`RandomWaypoint`] (*intentional*
//!   travel toward uniform destinations with pauses) and [`Drunkard`]
//!   (*non-intentional* uniform jumps in a ball of radius `m`), plus
//!   the classical extensions [`RandomWalk`] and [`RandomDirection`]
//!   and the degenerate [`StationaryModel`];
//! * **Velocity-correlated** — [`GaussMarkov`], a stationary
//!   autoregression on node velocity with tunable memory `α`: smooth,
//!   turn-averse trajectories between the waypoint's straight legs and
//!   the drunkard's scatter;
//! * **Group-structured** — [`ReferencePointGroup`] (RPGM): waypoint
//!   leaders with members tethered within a radius, producing the
//!   clustered/partitioned regimes no per-node model reaches.
//!
//! Free-moving families additionally take a boundary treatment via the
//! [`Bounded`] wrapper and [`BoundaryMode`]: specular reflection,
//! torus wrap-around, or stop-and-reverse bouncing.
//!
//! All models are deterministic functions of the RNG handed to them,
//! `Clone` (so parallel simulation iterations can each own a fresh
//! copy), region-safe, and validated at construction.
//!
//! # Example
//!
//! ```
//! use manet_geom::Region;
//! use manet_mobility::{Mobility, ModelRegistry, PaperScale};
//! use rand::SeedableRng;
//!
//! let region: Region<2> = Region::new(100.0).unwrap();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(9);
//! let mut positions = region.place_uniform(16, &mut rng);
//!
//! let registry = ModelRegistry::<2>::with_builtins();
//! let mut model = registry.build("rpgm", &PaperScale::new(100.0).with_pause(20))?;
//! model.init(&positions, &region, &mut rng);
//! for _ in 0..100 {
//!     model.step(&mut positions, &region, &mut rng);
//! }
//! assert!(positions.iter().all(|p| region.contains(p)));
//! # Ok::<(), manet_mobility::ModelError>(())
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod boundary;
pub mod direction;
pub mod drunkard;
pub mod gauss_markov;
pub mod group;
pub mod registry;
pub mod stationary;
pub mod walk;
pub mod waypoint;

pub use boundary::{BoundaryMode, Bounded, FreeMobility};
pub use direction::RandomDirection;
pub use drunkard::Drunkard;
pub use gauss_markov::GaussMarkov;
pub use group::ReferencePointGroup;
pub use registry::{AnyModel, ModelRegistry, PaperScale};
pub use stationary::StationaryModel;
pub use walk::RandomWalk;
pub use waypoint::RandomWaypoint;

use manet_geom::{Point, Region};
use rand::Rng;

/// A mobility model: per-node state evolving in discrete steps.
///
/// Usage protocol: call [`Mobility::init`] once with the initial
/// placement, then [`Mobility::step`] once per mobility step. Models
/// must keep every node inside the region.
///
/// Models draw all randomness from the `rng` argument, so a model clone
/// driven by an identically seeded RNG reproduces the same trajectory.
pub trait Mobility<const D: usize> {
    /// Initializes per-node state for `positions.len()` nodes.
    fn init(&mut self, positions: &[Point<D>], region: &Region<D>, rng: &mut dyn Rng);

    /// Advances all nodes by one mobility step, updating `positions`
    /// in place.
    ///
    /// # Panics
    ///
    /// Implementations may panic when `positions.len()` differs from
    /// the length passed to `init` (a logic error in the driver).
    fn step(&mut self, positions: &mut [Point<D>], region: &Region<D>, rng: &mut dyn Rng);

    /// Short human-readable model name for reports.
    fn name(&self) -> &'static str;

    /// An upper bound on any single node's Euclidean displacement in
    /// one [`Mobility::step`], when the model can declare one.
    ///
    /// This is the contract the incremental step kernel
    /// (`DynamicGraph` in `manet-graph`) polices: it measures the true
    /// per-step maximum displacement and falls back to a full
    /// rebuild-and-diff for any step on which a declared bound is
    /// exceeded, so a misdeclaring model costs throughput, never
    /// correctness. Return `None` when displacement is unbounded
    /// (Gaussian velocities) or not meaningful as a Euclidean bound
    /// (torus wrap-around teleports a node across the region).
    ///
    /// The bound is the model's *steady-state* guarantee: a model may
    /// exceed it on rare, structurally special steps (e.g.
    /// [`ReferencePointGroup`]'s first step gathers uniformly-placed
    /// members onto their leaders) — those steps simply take the
    /// kernel's exact fallback path.
    fn max_step_displacement(&self) -> Option<f64> {
        None
    }
}

/// Errors from mobility-model construction.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// A probability parameter was outside `[0, 1]`.
    InvalidProbability {
        /// Parameter name.
        name: &'static str,
        /// Offending value.
        value: f64,
    },
    /// A speed/radius parameter was not strictly positive.
    NonPositive {
        /// Parameter name.
        name: &'static str,
        /// Offending value.
        value: f64,
    },
    /// `v_min > v_max`.
    EmptySpeedRange {
        /// Minimum speed requested.
        v_min: f64,
        /// Maximum speed requested.
        v_max: f64,
    },
    /// A parameter was NaN or infinite.
    NonFinite {
        /// Parameter name.
        name: &'static str,
    },
    /// A model name was not found in the registry.
    UnknownModel {
        /// The unresolved name.
        name: String,
    },
    /// A model name was registered twice.
    DuplicateModel {
        /// The colliding name.
        name: String,
    },
    /// A boundary-mode name was not `reflect`, `wrap`, or `bounce`.
    UnknownBoundaryMode {
        /// The unresolved name.
        name: String,
    },
}

impl core::fmt::Display for ModelError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ModelError::InvalidProbability { name, value } => {
                write!(f, "probability `{name}` must be in [0, 1], got {value}")
            }
            ModelError::NonPositive { name, value } => {
                write!(f, "parameter `{name}` must be positive, got {value}")
            }
            ModelError::EmptySpeedRange { v_min, v_max } => {
                write!(f, "speed range [{v_min}, {v_max}] is empty")
            }
            ModelError::NonFinite { name } => write!(f, "parameter `{name}` must be finite"),
            ModelError::UnknownModel { name } => {
                write!(f, "unknown mobility model `{name}` (not in the registry)")
            }
            ModelError::DuplicateModel { name } => {
                write!(f, "mobility model `{name}` is already registered")
            }
            ModelError::UnknownBoundaryMode { name } => {
                write!(
                    f,
                    "unknown boundary mode `{name}` (valid: reflect, wrap, bounce)"
                )
            }
        }
    }
}

impl std::error::Error for ModelError {}

pub(crate) fn validate_probability(name: &'static str, value: f64) -> Result<(), ModelError> {
    if !value.is_finite() {
        return Err(ModelError::NonFinite { name });
    }
    if !(0.0..=1.0).contains(&value) {
        return Err(ModelError::InvalidProbability { name, value });
    }
    Ok(())
}

pub(crate) fn validate_positive(name: &'static str, value: f64) -> Result<(), ModelError> {
    if !value.is_finite() {
        return Err(ModelError::NonFinite { name });
    }
    if value <= 0.0 {
        return Err(ModelError::NonPositive { name, value });
    }
    Ok(())
}

#[cfg(test)]
mod lib_tests {
    use super::*;

    #[test]
    fn error_display_nonempty() {
        for e in [
            ModelError::InvalidProbability {
                name: "p",
                value: 2.0,
            },
            ModelError::NonPositive {
                name: "m",
                value: 0.0,
            },
            ModelError::EmptySpeedRange {
                v_min: 2.0,
                v_max: 1.0,
            },
            ModelError::NonFinite { name: "v" },
            ModelError::UnknownModel { name: "x".into() },
            ModelError::DuplicateModel { name: "x".into() },
            ModelError::UnknownBoundaryMode { name: "x".into() },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn validators() {
        assert!(validate_probability("p", 0.0).is_ok());
        assert!(validate_probability("p", 1.0).is_ok());
        assert!(validate_probability("p", -0.1).is_err());
        assert!(validate_probability("p", f64::NAN).is_err());
        assert!(validate_positive("x", 0.1).is_ok());
        assert!(validate_positive("x", 0.0).is_err());
        assert!(validate_positive("x", f64::INFINITY).is_err());
    }

    #[test]
    fn trait_is_object_safe() {
        fn _takes_dyn<const D: usize>(_m: &mut dyn Mobility<D>) {}
    }
}
