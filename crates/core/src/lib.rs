//! # manet-core — connectivity of (mobile) wireless ad hoc networks
//!
//! A production-grade reproduction of *"An Evaluation of Connectivity
//! in Mobile Wireless Ad Hoc Networks"* (Paolo Santi & Douglas M.
//! Blough, DSN 2002). The paper asks: given `n` nodes with common
//! transmitting range `r` in the region `[0, l]^d`, how large must `r`
//! be for the communication graph to be connected — initially (the
//! **MTR** problem) and, under mobility, during a required fraction of
//! the operational time (the **MTRM** problem)?
//!
//! This crate is the facade over the workspace:
//!
//! * [`MtrProblem`] — the stationary minimum-transmitting-range
//!   problem: exact solutions for known placements (via the Euclidean
//!   MST bottleneck), probabilistic solutions for random placements,
//!   and worst/best-case baselines;
//! * [`theorems`] — the paper's analytical results for `d = 1`:
//!   the `r·n = Θ(l log l)` threshold (Theorems 3–5) and regime
//!   classification;
//! * [`one_dim`] — fast 1-D specializations (max-gap critical range)
//!   and the occupancy/Lemma-1 machinery;
//! * [`MtrmProblem`] — the mobile problem, one validated [`SimConfig`]
//!   plus one mobility model: `r100/r90/r10/r0`,
//!   component-size targets `rl90/rl75/rl50`, and availability
//!   estimates, over any mobility model from the scenario zoo — a
//!   concrete type or a name resolved through the
//!   [`ModelRegistry`]/[`AnyModel`] pair. `solve()` runs one
//!   critical-range pass and `campaign()` one fused pass that adds the
//!   component profiles ([`MtrmCampaign`]); every metric is an accessor
//!   on their results, so no query re-simulates. Every campaign runs
//!   on one positions-only step driver (`run_connectivity_stream`,
//!   see [`sim::stream`]): range queries read one spanning tree per
//!   step, and only the temporal trace runs the incremental step
//!   kernel (`DynamicGraph → DynamicComponents`, see [`graph`]),
//!   whose component summary is maintained under edge deltas instead
//!   of relabeled from scratch;
//! * [`energy`] — the transmit-power model that turns range reductions
//!   into the paper's energy-savings headline numbers;
//! * sub-crates re-exported as modules: [`geom`], [`graph`], [`stats`],
//!   [`occupancy`], [`mobility`], [`sim`], [`trace`], [`obs`].
//!
//! ## Quickstart
//!
//! ```
//! use manet_core::mobility::RandomWaypoint;
//! use manet_core::{MtrmProblem, SimConfig};
//!
//! // 16 nodes in a 256x256 region, random waypoint mobility.
//! let config = SimConfig::<2>::builder()
//!     .nodes(16)
//!     .side(256.0)
//!     .iterations(5)
//!     .steps(100)
//!     .seed(42)
//!     .build()?;
//! let problem = MtrmProblem::new(config, RandomWaypoint::new(0.1, 2.56, 20, 0.0)?);
//! let solution = problem.solve()?;
//! // Always-connected needs at least as much range as 90%-connected.
//! assert!(solution.ranges.r100.mean() >= solution.ranges.r90.mean());
//! # Ok::<(), manet_core::CoreError>(())
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod availability;
pub mod energy;
pub mod mtr;
pub mod mtrm;
pub mod one_dim;
pub mod range_assignment;
pub mod theorems;

pub use manet_mobility::{AnyModel, ModelRegistry, PaperScale};
pub use manet_sim::SimConfig;
pub use mtr::MtrProblem;
pub use mtrm::{MtrmCampaign, MtrmProblem, MtrmSolution};
pub use range_assignment::RangeAssignment;
pub use theorems::ConnectivityRegime;

/// Geometry substrate (re-export of `manet-geom`).
pub use manet_geom as geom;
/// Graph algorithms (re-export of `manet-graph`).
pub use manet_graph as graph;
/// Mobility models (re-export of `manet-mobility`).
pub use manet_mobility as mobility;
/// Two-plane telemetry (re-export of `manet-obs`).
pub use manet_obs as obs;
/// Occupancy theory (re-export of `manet-occupancy`).
pub use manet_occupancy as occupancy;
/// Simulation engine (re-export of `manet-sim`).
pub use manet_sim as sim;
/// Statistics substrate (re-export of `manet-stats`).
pub use manet_stats as stats;
/// Temporal connectivity (re-export of `manet-trace`).
pub use manet_trace as trace;

/// The cargo features (and build profile) compiled into this facade,
/// sorted — the provenance list a
/// [`RunManifest`](manet_obs::RunManifest) records so any artifact can
/// be traced to the exact build configuration that produced it.
/// `debug-assertions` is included because it changes which invariant
/// checkers run, not any simulated value.
pub fn compiled_features() -> Vec<&'static str> {
    let mut features = Vec::new();
    if cfg!(feature = "serde") {
        features.push("serde");
    }
    if cfg!(feature = "strict-invariants") {
        features.push("strict-invariants");
    }
    if cfg!(debug_assertions) {
        features.push("debug-assertions");
    }
    features.sort_unstable();
    features
}

/// Unified error type of the facade.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// Error from the geometry substrate.
    Geom(manet_geom::GeomError),
    /// Error from the statistics substrate.
    Stats(manet_stats::StatsError),
    /// Error from occupancy theory.
    Occupancy(manet_occupancy::OccupancyError),
    /// Error from a mobility model.
    Model(manet_mobility::ModelError),
    /// Error from the simulation engine.
    Sim(manet_sim::SimError),
    /// A facade-level validation failure.
    Invalid {
        /// Explanation of the failed validation.
        reason: String,
    },
}

impl core::fmt::Display for CoreError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CoreError::Geom(e) => write!(f, "geometry: {e}"),
            CoreError::Stats(e) => write!(f, "statistics: {e}"),
            CoreError::Occupancy(e) => write!(f, "occupancy: {e}"),
            CoreError::Model(e) => write!(f, "mobility model: {e}"),
            CoreError::Sim(e) => write!(f, "simulation: {e}"),
            CoreError::Invalid { reason } => write!(f, "invalid argument: {reason}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Geom(e) => Some(e),
            CoreError::Stats(e) => Some(e),
            CoreError::Occupancy(e) => Some(e),
            CoreError::Model(e) => Some(e),
            CoreError::Sim(e) => Some(e),
            CoreError::Invalid { .. } => None,
        }
    }
}

impl From<manet_geom::GeomError> for CoreError {
    fn from(e: manet_geom::GeomError) -> Self {
        CoreError::Geom(e)
    }
}

impl From<manet_stats::StatsError> for CoreError {
    fn from(e: manet_stats::StatsError) -> Self {
        CoreError::Stats(e)
    }
}

impl From<manet_occupancy::OccupancyError> for CoreError {
    fn from(e: manet_occupancy::OccupancyError) -> Self {
        CoreError::Occupancy(e)
    }
}

impl From<manet_mobility::ModelError> for CoreError {
    fn from(e: manet_mobility::ModelError) -> Self {
        CoreError::Model(e)
    }
}

impl From<manet_sim::SimError> for CoreError {
    fn from(e: manet_sim::SimError) -> Self {
        CoreError::Sim(e)
    }
}

#[cfg(test)]
mod lib_tests {
    use super::*;

    #[test]
    fn error_conversions_and_display() {
        let e: CoreError = manet_geom::GeomError::NonFinite { name: "side" }.into();
        assert!(e.to_string().contains("geometry"));
        let e: CoreError = manet_stats::StatsError::EmptySample.into();
        assert!(e.to_string().contains("statistics"));
        let e: CoreError = manet_occupancy::OccupancyError::NoCells.into();
        assert!(e.to_string().contains("occupancy"));
        let e: CoreError = manet_mobility::ModelError::NonFinite { name: "v" }.into();
        assert!(e.to_string().contains("mobility"));
        let e: CoreError = manet_sim::SimError::InvalidConfig { reason: "x".into() }.into();
        assert!(e.to_string().contains("simulation"));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoreError>();
    }
}
