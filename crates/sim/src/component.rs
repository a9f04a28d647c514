//! Per-step ranges for **partial** connectivity targets.
//!
//! The paper's introduction frames availability two ways: the fraction
//! of time the whole network is connected, and — "since, in some
//! applications, the network might be functional if at least a given
//! fraction of nodes are connected" — the fraction of time the largest
//! component reaches a target size. The critical-range series answers
//! the first; this module answers the second by recording, per step,
//! the smallest range at which the largest component reaches
//! `ceil(fraction · n)` nodes (an order statistic of the Kruskal merge
//! process, exact, no grid).

use crate::{
    config::SimConfig,
    critical::{mean_covering_range, mean_fraction_at_most},
    stream::{run_connectivity_stream, ConnectivityObserver, StepView},
    SimError,
};
use manet_graph::MergeProfile;
use manet_mobility::Mobility;
use manet_stats::FrozenSeries;

/// Observer recording the per-step range needed for a component of
/// `target` nodes (positions-only stream lane: the Kruskal merge
/// process answers for every range at once).
struct ComponentRangeObserver {
    target: usize,
    series: Vec<f64>,
}

impl<const D: usize> ConnectivityObserver<D> for ComponentRangeObserver {
    type Output = Vec<f64>;

    fn observe(&mut self, view: &StepView<'_, D>) {
        let profile = MergeProfile::of(view.positions());
        #[expect(
            clippy::expect_used,
            reason = "target validated against n at config time"
        )]
        let r = profile
            .range_for_size(self.target)
            .expect("target validated against n at config time");
        self.series.push(r);
    }

    fn finish(self) -> Vec<f64> {
        self.series
    }
}

/// Per-iteration series of "range needed for a component of
/// `fraction·n` nodes".
#[derive(Debug, Clone)]
pub struct ComponentRangeResults {
    per_iteration: Vec<FrozenSeries>,
    target: usize,
}

impl ComponentRangeResults {
    /// Per-iteration sorted series.
    pub fn per_iteration(&self) -> &[FrozenSeries] {
        &self.per_iteration
    }

    /// The absolute component-size target `ceil(fraction · n)`.
    pub fn target(&self) -> usize {
        self.target
    }

    /// Fraction of steps (averaged over iterations) in which the
    /// largest component reaches the target at range `r` — the
    /// introduction's partial-connectivity availability estimate.
    pub fn availability_at(&self, r: f64) -> f64 {
        mean_fraction_at_most(&self.per_iteration, r)
    }

    /// Mean (across iterations) of the smallest range achieving the
    /// target during at least `time_fraction` of the steps.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError::Stats`] for an invalid fraction or an
    /// empty campaign.
    pub fn mean_range_for_time_fraction(&self, time_fraction: f64) -> Result<f64, SimError> {
        mean_covering_range(&self.per_iteration, time_fraction)
    }
}

/// Runs the campaign recording, per step, the smallest range at which
/// the largest component reaches `ceil(fraction · n)` nodes.
///
/// # Errors
///
/// Returns [`SimError::InvalidConfig`] when `fraction` is outside
/// `(0, 1]`, and propagates engine errors.
pub fn simulate_component_ranges<const D: usize, M>(
    config: &SimConfig<D>,
    model: &M,
    fraction: f64,
) -> Result<ComponentRangeResults, SimError>
where
    M: Mobility<D> + Clone + Send + Sync,
{
    if !(fraction > 0.0 && fraction <= 1.0) {
        return Err(SimError::InvalidConfig {
            reason: format!("component fraction must be in (0, 1], got {fraction}"),
        });
    }
    let target = ((fraction * config.nodes() as f64).ceil() as usize).clamp(1, config.nodes());
    let raw = run_connectivity_stream(config, model, None, |_| ComponentRangeObserver {
        target,
        series: Vec::with_capacity(config.steps()),
    })?;
    let per_iteration = raw
        .into_iter()
        .map(FrozenSeries::new)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(ComponentRangeResults {
        per_iteration,
        target,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_mobility::{RandomWaypoint, StationaryModel};

    fn config(nodes: usize, side: f64, iterations: usize, steps: usize) -> SimConfig<2> {
        let mut b = SimConfig::<2>::builder();
        b.nodes(nodes)
            .side(side)
            .iterations(iterations)
            .steps(steps)
            .seed(1001);
        b.build().unwrap()
    }

    #[test]
    fn fraction_validation() {
        let cfg = config(10, 100.0, 1, 1);
        let m = StationaryModel::new();
        assert!(simulate_component_ranges(&cfg, &m, 0.0).is_err());
        assert!(simulate_component_ranges(&cfg, &m, 1.1).is_err());
        assert!(simulate_component_ranges(&cfg, &m, 0.5).is_ok());
    }

    #[test]
    fn full_fraction_equals_critical_range() {
        let cfg = config(10, 100.0, 3, 10);
        let model = RandomWaypoint::new(0.5, 2.0, 0, 0.0).unwrap();
        let comp = simulate_component_ranges(&cfg, &model, 1.0).unwrap();
        let crit = crate::critical::simulate_critical_ranges(&cfg, &model).unwrap();
        for (a, b) in comp.per_iteration().iter().zip(crit.per_iteration()) {
            for (x, y) in a.as_sorted().iter().zip(b.as_sorted()) {
                assert!((x - y).abs() < 1e-9, "target n must equal the CTR");
            }
        }
    }

    #[test]
    fn partial_targets_need_smaller_ranges() {
        let cfg = config(16, 200.0, 3, 15);
        let model = RandomWaypoint::new(0.5, 2.0, 0, 0.0).unwrap();
        let half = simulate_component_ranges(&cfg, &model, 0.5).unwrap();
        let full = simulate_component_ranges(&cfg, &model, 1.0).unwrap();
        let r_half = half.mean_range_for_time_fraction(0.9).unwrap();
        let r_full = full.mean_range_for_time_fraction(0.9).unwrap();
        assert!(
            r_half < r_full,
            "half-network target should need less range: {r_half} vs {r_full}"
        );
        assert_eq!(half.target(), 8);
        assert_eq!(full.target(), 16);
    }

    #[test]
    fn availability_monotone_in_range() {
        let cfg = config(12, 150.0, 3, 20);
        let model = RandomWaypoint::new(0.5, 2.0, 0, 0.0).unwrap();
        let res = simulate_component_ranges(&cfg, &model, 0.75).unwrap();
        let mut prev = -1.0;
        for r in [5.0, 20.0, 40.0, 80.0, 160.0] {
            let a = res.availability_at(r);
            assert!(a >= prev);
            prev = a;
        }
        assert_eq!(res.availability_at(1000.0), 1.0);
    }

    #[test]
    fn singleton_target_is_free() {
        let cfg = config(10, 100.0, 2, 5);
        // fraction small enough that target = 1 node.
        let res = simulate_component_ranges(&cfg, &StationaryModel::new(), 0.05).unwrap();
        assert_eq!(res.target(), 1);
        for s in res.per_iteration() {
            assert!(s.max() <= 0.0 + 1e-12, "a single node needs no range");
        }
    }
}
