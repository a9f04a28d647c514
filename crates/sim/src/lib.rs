//! Simulation engine for connectivity of (mobile) wireless ad hoc
//! networks.
//!
//! This crate re-implements — and substantially accelerates — the
//! simulator described in §4.1 of Santi & Blough (DSN 2002). The
//! paper's simulator takes `r`, `n`, `l`, `d`, a number of iterations
//! and a number of mobility steps, and reports the percentage of
//! connected communication graphs plus the average and minimum size of
//! the largest connected component. That literal interface is
//! [`simulate_fixed_ranges`]: one spanning tree per step, thresholded
//! at every requested range.
//!
//! The accelerated interface exploits a monotonicity observation (see
//! DESIGN.md): for fixed node positions, connectivity is monotone in
//! the transmitting range, and the per-step **critical range** `c_t`
//! (longest MST edge, [`manet_graph::critical_range`]) determines
//! connectivity at *every* range simultaneously: the graph at step `t`
//! is connected at range `r` iff `c_t <= r`. One pass over a trajectory
//! therefore yields:
//!
//! * `r100 = max_t c_t`, `r90 = Q_{0.90}(c_t)`, `r10 = Q_{0.10}(c_t)`,
//!   `r0 = min_t c_t` — the paper's Figures 2–3 ([`RangeQuantiles`]);
//! * the average largest-component size at any range, and its inverses
//!   `rl90/rl75/rl50` — Figures 4–6 ([`profile::RangeSizeProfile`]);
//! * the availability (fraction of connected steps) at any fixed `r`,
//!   and, read off the series *in time order*, its up/down run
//!   structure (MTBF, MTTR, longest outage; [`UptimeSummary`]).
//!
//! [`simulate_campaign`] records the time-ordered series and the
//! profiles from one pass; [`simulate_raw_critical_series`] records the
//! series alone. Every range-free metric above is a pure function of
//! those outputs, so no metric re-simulates. [`simulate_max_critical_ranges`]
//! records only each iteration's `r100` (Figures 7–9), certifying only
//! the steps that could raise it.
//!
//! [`bisect_critical_range`] recomputes a critical range the slow way
//! the paper did: [`search::bisect_monotone`] (the [`search`] module's
//! one function) over fresh fixed-range campaigns, one per candidate
//! range. It is a test oracle only; tests hold it equal to the
//! quantile path of [`critical`] and to [`find_critical_range`].
//!
//! Beyond the paper's snapshot metrics, the [`trace`] module drives the
//! `manet-trace` temporal subsystem from the same observer machinery:
//! [`simulate_trace`] streams per-step edge deltas
//! ([`manet_graph::DynamicGraph`]) into link-lifetime, inter-contact,
//! isolation and outage/repair distributions.
//!
//! Every pipeline above runs through one step-driver, the [`stream`]
//! module's [`run_connectivity_stream`]: it moves the nodes and hands
//! each [`ConnectivityObserver`] a [`StepView`] of the positions. The
//! trace observer is the one consumer of edge deltas, so it owns the
//! step kernel (`DynamicGraph::step` + `DynamicComponents::apply`);
//! every other observer reads positions only.
//!
//! Iterations run in parallel ([`parallel::run_indexed`]) with
//! deterministic per-iteration seeds
//! ([`manet_stats::SeedSequence`]), so results are bit-identical for a
//! given master seed regardless of thread count.
//!
//! # Example
//!
//! ```
//! use manet_mobility::RandomWaypoint;
//! use manet_sim::{simulate_critical_ranges, SimConfig};
//!
//! let config = SimConfig::<2>::builder()
//!     .nodes(16)
//!     .side(256.0)
//!     .iterations(4)
//!     .steps(50)
//!     .seed(7)
//!     .build()?;
//! let model = RandomWaypoint::new(0.1, 2.56, 20, 0.0).unwrap();
//! let results = simulate_critical_ranges(&config, &model)?;
//! let summary = results.summary()?;
//! assert!(summary.r100.mean() >= summary.r90.mean());
//! assert!(summary.r90.mean() >= summary.r10.mean());
//! # Ok::<(), manet_sim::SimError>(())
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod campaign;
pub mod config;
pub mod critical;
pub mod fixed;
pub mod parallel;
pub mod profile;
pub mod quantity;
pub mod scaling;
pub mod search;
pub mod stationary;
pub mod stream;
pub mod sweep;
pub mod trace;
pub mod uptime;

pub use campaign::simulate_campaign;
pub use config::SimConfig;
pub use critical::{
    simulate_critical_ranges, simulate_max_critical_ranges, simulate_raw_critical_series,
    CriticalRangeResults, MobileRangeSummary, RangeQuantiles,
};
pub use fixed::{simulate_fixed_ranges, FixedRangeReport, IterationStats};
pub use manet_graph::Skin;
pub use profile::{simulate_profiles, ProfileResults, RangeSizeProfile};
pub use quantity::{measure_mobility_quantity, MobilityQuantity};
pub use scaling::{
    bisect_critical_range, find_critical_range, fit_scaling_exponent, ConnectivityMetric,
    CriticalPoint, CriticalRangeSearch, ScalingExponent,
};
pub use stationary::StationaryAnalysis;
pub use stream::{run_connectivity_stream, ConnectivityObserver, StepView};
pub use sweep::{SweepRun, SweepScheduler};
pub use trace::simulate_trace;
pub use uptime::{UptimeReport, UptimeSummary};

use manet_geom::GeomError;
use manet_stats::StatsError;

/// Errors produced by the simulation engine.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A configuration parameter was invalid.
    InvalidConfig {
        /// Explanation of the failed validation.
        reason: String,
    },
    /// A geometry error surfaced while building the deployment region.
    Geometry(GeomError),
    /// A statistics error surfaced while summarizing results.
    Stats(StatsError),
    /// A temporal-trace error surfaced while pooling records.
    Trace(manet_trace::TraceError),
}

impl core::fmt::Display for SimError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SimError::InvalidConfig { reason } => write!(f, "invalid configuration: {reason}"),
            SimError::Geometry(e) => write!(f, "geometry error: {e}"),
            SimError::Stats(e) => write!(f, "statistics error: {e}"),
            SimError::Trace(e) => write!(f, "trace error: {e}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Geometry(e) => Some(e),
            SimError::Stats(e) => Some(e),
            SimError::Trace(e) => Some(e),
            SimError::InvalidConfig { .. } => None,
        }
    }
}

impl From<GeomError> for SimError {
    fn from(e: GeomError) -> Self {
        SimError::Geometry(e)
    }
}

impl From<StatsError> for SimError {
    fn from(e: StatsError) -> Self {
        SimError::Stats(e)
    }
}

impl From<manet_trace::TraceError> for SimError {
    fn from(e: manet_trace::TraceError) -> Self {
        SimError::Trace(e)
    }
}

#[cfg(test)]
mod lib_tests {
    use super::*;

    #[test]
    fn error_display_and_source() {
        let e = SimError::InvalidConfig {
            reason: "nodes must be positive".into(),
        };
        assert!(e.to_string().contains("nodes"));
        let g: SimError = GeomError::NonFinite { name: "side" }.into();
        assert!(std::error::Error::source(&g).is_some());
        let s: SimError = StatsError::EmptySample.into();
        assert!(s.to_string().contains("statistics"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimError>();
    }
}
