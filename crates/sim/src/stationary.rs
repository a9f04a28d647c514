//! Stationary-case analysis: the distribution of the critical
//! transmitting range over random placements, and `r_stationary`.
//!
//! The paper's mobile results are all reported as ratios to
//! `r_stationary`, "the value of the transmitting range ensuring
//! connected graphs in the stationary case" (quoted there from the
//! companion simulations of [1, 11], which were never released). The
//! reproduction recomputes it: draw many placements, compute each
//! placement's critical range, and report a high quantile of that
//! distribution (default 0.99 — the range connecting 99% of random
//! placements). See DESIGN.md "Substitutions".
//!
//! Each placement is a one-step campaign iteration whose
//! positions-only observer calls [`critical_range`] once. A warm-start
//! tracker would reseed on every placement and build a spanning tree
//! that no later step reads. From
//! [`GRID_MST_MIN_NODES`](manet_graph::mst::GRID_MST_MIN_NODES) nodes
//! up, [`critical_range`] builds no tree at all: it runs the
//! bottleneck kernel of [`manet_graph::mst`], bit-identical to the
//! longest MST edge.

use crate::{
    config::SimConfig,
    stream::{run_connectivity_stream, ConnectivityObserver, StepView},
    SimError,
};
use manet_graph::critical_range;
use manet_mobility::StationaryModel;
use manet_stats::FrozenSeries;

/// Positions-only observer of a one-step iteration: its placement's
/// critical range.
struct PlacementRange(f64);

impl<const D: usize> ConnectivityObserver<D> for PlacementRange {
    type Output = f64;

    fn observe(&mut self, view: &StepView<'_, D>) {
        self.0 = critical_range(view.positions());
    }

    fn finish(self) -> f64 {
        self.0
    }
}

/// Distribution of the stationary critical transmitting range.
#[derive(Debug, Clone)]
pub struct StationaryAnalysis {
    ctr: FrozenSeries,
    nodes: usize,
    side: f64,
}

impl StationaryAnalysis {
    /// Samples `placements` stationary deployments of `nodes` nodes in
    /// `[0, side]^D` and records each critical range, spread over
    /// `threads` workers (`None`: one per available CPU). The
    /// distribution is the same at every thread count.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from configuration validation, and
    /// [`SimError::Stats`] when a critical range is not finite (a
    /// squared distance overflowed).
    pub fn run<const D: usize>(
        nodes: usize,
        side: f64,
        placements: usize,
        seed: u64,
        threads: Option<usize>,
    ) -> Result<Self, SimError> {
        let mut builder = SimConfig::<D>::builder();
        builder
            .nodes(nodes)
            .side(side)
            .iterations(placements)
            .steps(1)
            .seed(seed);
        if let Some(threads) = threads {
            builder.threads(threads);
        }
        let config = builder.build()?;
        let ranges = run_connectivity_stream(&config, &StationaryModel::new(), |_| {
            PlacementRange(f64::NAN)
        });
        Ok(StationaryAnalysis {
            ctr: FrozenSeries::new(ranges)?,
            nodes,
            side,
        })
    }

    /// The sampled critical-range distribution.
    pub fn ctr_distribution(&self) -> &FrozenSeries {
        &self.ctr
    }

    /// Number of nodes per placement.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Region side `l`.
    pub fn side(&self) -> f64 {
        self.side
    }

    /// `r_stationary` at connection probability `quantile` — the
    /// smallest sampled range connecting at least that fraction of
    /// placements. The reproduction's headline value uses `0.99`.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError::Stats`] for `quantile` outside `[0, 1]`.
    pub fn r_stationary(&self, quantile: f64) -> Result<f64, SimError> {
        Ok(self.ctr.smallest_covering(quantile)?)
    }

    /// Estimated probability that a fresh random placement is connected
    /// at range `r` (the empirical CDF of the CTR distribution).
    pub fn connectivity_probability(&self, r: f64) -> f64 {
        self.ctr.fraction_at_most(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distribution_has_requested_placements() {
        let a = StationaryAnalysis::run::<2>(10, 100.0, 50, 7, None).unwrap();
        assert_eq!(a.ctr_distribution().len(), 50);
        assert_eq!(a.nodes(), 10);
        assert_eq!(a.side(), 100.0);
    }

    #[test]
    fn overflowing_ranges_are_an_error_not_a_hang() {
        // On side 1e200 squared distances overflow to +∞.
        let err = StationaryAnalysis::run::<2>(4, 1e200, 3, 1, None).unwrap_err();
        assert!(matches!(err, SimError::Stats(_)), "{err:?}");
    }

    #[test]
    fn r_stationary_monotone_in_quantile() {
        let a = StationaryAnalysis::run::<2>(12, 150.0, 80, 3, None).unwrap();
        let r50 = a.r_stationary(0.5).unwrap();
        let r90 = a.r_stationary(0.9).unwrap();
        let r99 = a.r_stationary(0.99).unwrap();
        assert!(r50 <= r90);
        assert!(r90 <= r99);
        assert!(a.r_stationary(1.5).is_err());
    }

    #[test]
    fn connectivity_probability_is_cdf() {
        let a = StationaryAnalysis::run::<2>(10, 100.0, 60, 11, None).unwrap();
        let r = a.r_stationary(0.9).unwrap();
        assert!(a.connectivity_probability(r) >= 0.9);
        assert!(a.connectivity_probability(0.0) == 0.0);
        assert!(a.connectivity_probability(1e9) == 1.0);
    }

    #[test]
    fn more_nodes_reduce_ctr_at_fixed_side() {
        // Denser networks connect at shorter ranges (law of large
        // numbers over 60 placements keeps this stable).
        let sparse = StationaryAnalysis::run::<2>(8, 200.0, 60, 5, None).unwrap();
        let dense = StationaryAnalysis::run::<2>(64, 200.0, 60, 5, None).unwrap();
        assert!(
            dense.r_stationary(0.9).unwrap() < sparse.r_stationary(0.9).unwrap(),
            "denser placements should connect at smaller ranges"
        );
    }

    #[test]
    fn one_dimensional_ctr_is_max_gap() {
        // In 1-D the CTR of a placement equals its largest inter-node
        // gap, which is at most l.
        let a = StationaryAnalysis::run::<1>(5, 100.0, 40, 9, None).unwrap();
        assert!(a.ctr_distribution().max() <= 100.0);
        assert!(a.ctr_distribution().min() > 0.0);
    }

    #[test]
    fn deterministic_in_seed() {
        let a = StationaryAnalysis::run::<2>(10, 100.0, 30, 21, None).unwrap();
        let b = StationaryAnalysis::run::<2>(10, 100.0, 30, 21, None).unwrap();
        assert_eq!(
            a.ctr_distribution().as_sorted(),
            b.ctr_distribution().as_sorted()
        );
    }
}
