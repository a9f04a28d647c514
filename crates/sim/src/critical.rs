//! Critical-range time series and the `r100/r90/r10/r0` metrics.
//!
//! The paper defines `r_f` as the minimum transmitting range keeping
//! the network connected during a fraction `f` of the operational time,
//! and `r0` as the largest range that yields *no* connected graphs.
//! With the per-step critical range `c_t` in hand these are order
//! statistics of `{c_t}`:
//!
//! * connected at step `t` and range `r` ⟺ `c_t <= r`;
//! * `r_f` = the `f`-th order statistic ([`manet_stats::FrozenSeries::smallest_covering`]);
//! * `r100 = max_t c_t`, `r0 = min_t c_t` (at any `r < min c_t` no
//!   step is connected, and `min c_t` is the supremum of such ranges).
//!
//! Each iteration keeps one [`CriticalRangeTracker`]. Consecutive steps
//! differ by one mobility step, so the tracker certifies each step's
//! bottleneck against the previous step's spanning tree instead of
//! building a cold MST, bit-identical to
//! [`manet_graph::critical_range`]. Two passes read it:
//!
//! * [`simulate_raw_critical_series`] records every `c_t`, which the
//!   quantiles, the availability and the up/down runs need.
//! * [`simulate_max_critical_ranges`] records only each iteration's
//!   `r100`, which is all the paper's Figures 7–9 plot. It passes the
//!   running maximum to
//!   [`critical_range_above`](CriticalRangeTracker::critical_range_above)
//!   as a ceiling. A step whose kept tree has every edge within the
//!   maximum cannot raise it, since no spanning tree's longest edge is
//!   shorter than the bottleneck, so that step costs one pass over the
//!   tree and no cut scan. The other steps repair only the edges above
//!   the maximum, and each new maximum is certified exactly, so the
//!   result is bit for bit the maximum of the series.
//!
//! Every iteration builds its own observer, so no tracker state
//! crosses iterations and neither pass depends on the thread count.

use crate::{
    config::SimConfig,
    stream::{run_connectivity_stream, ConnectivityObserver, StepView},
    SimError,
};
use manet_graph::CriticalRangeTracker;
use manet_mobility::Mobility;
use manet_stats::{FrozenSeries, RunningMoments};

/// Observer recording the critical transmitting range of every step in
/// time order (the MST bottleneck needs no fixed-range snapshot).
pub(crate) struct CriticalRangeObserver {
    series: Vec<f64>,
    tracker: CriticalRangeTracker,
}

impl CriticalRangeObserver {
    /// A fresh observer for one iteration of `steps` steps.
    pub(crate) fn new(steps: usize) -> Self {
        CriticalRangeObserver {
            series: Vec::with_capacity(steps),
            tracker: CriticalRangeTracker::new(),
        }
    }
}

impl<const D: usize> ConnectivityObserver<D> for CriticalRangeObserver {
    type Output = Vec<f64>;

    fn observe(&mut self, view: &StepView<'_, D>) {
        self.series
            .push(self.tracker.critical_range(view.positions()));
    }

    fn finish(self) -> Vec<f64> {
        self.series
    }
}

/// Observer keeping one iteration's running maximum critical range,
/// which is also the tracker's ceiling.
struct MaxCriticalRangeObserver {
    max: f64,
    tracker: CriticalRangeTracker,
}

impl<const D: usize> ConnectivityObserver<D> for MaxCriticalRangeObserver {
    type Output = f64;

    fn observe(&mut self, view: &StepView<'_, D>) {
        if let Some(c) = self
            .tracker
            .critical_range_above(view.positions(), self.max)
        {
            self.max = c;
        }
    }

    fn finish(self) -> f64 {
        self.max
    }
}

/// Runs the campaign and returns each iteration's critical-range
/// series **in time order** (the input of
/// [`UptimeSummary::from_series`](crate::UptimeSummary::from_series)'s
/// up/down run analysis).
pub fn simulate_raw_critical_series<const D: usize, M>(
    config: &SimConfig<D>,
    model: &M,
) -> Vec<Vec<f64>>
where
    M: Mobility<D> + Clone + Send + Sync,
{
    run_connectivity_stream(config, model, |_| {
        CriticalRangeObserver::new(config.steps())
    })
}

/// Runs the campaign and returns each iteration's `r100`, the largest
/// critical range over its steps: bit for bit the maximum of each of
/// [`simulate_raw_critical_series`]'s series, with no cut scan on the
/// steps that stay within the running maximum.
pub fn simulate_max_critical_ranges<const D: usize, M>(config: &SimConfig<D>, model: &M) -> Vec<f64>
where
    M: Mobility<D> + Clone + Send + Sync,
{
    run_connectivity_stream(config, model, |_| MaxCriticalRangeObserver {
        max: f64::NEG_INFINITY,
        tracker: CriticalRangeTracker::new(),
    })
}

/// Runs the campaign and records the critical range of every step of
/// every iteration, frozen into sorted series for quantile queries.
///
/// # Errors
///
/// Propagates [`SimError`] from series construction (a critical range
/// is always finite, so this is defensive).
pub fn simulate_critical_ranges<const D: usize, M>(
    config: &SimConfig<D>,
    model: &M,
) -> Result<CriticalRangeResults, SimError>
where
    M: Mobility<D> + Clone + Send + Sync,
{
    CriticalRangeResults::freeze(simulate_raw_critical_series(config, model))
}

/// Critical-range series of a whole campaign, one frozen series per
/// iteration.
#[derive(Debug, Clone)]
pub struct CriticalRangeResults {
    per_iteration: Vec<FrozenSeries>,
}

impl CriticalRangeResults {
    /// Builds results from pre-computed per-iteration series (exposed
    /// for tests and tools; [`simulate_critical_ranges`] is the normal
    /// entry point).
    pub fn from_series(per_iteration: Vec<FrozenSeries>) -> Self {
        CriticalRangeResults { per_iteration }
    }

    /// Freezes each iteration's time-ordered series (as returned by
    /// [`simulate_raw_critical_series`]) into sorted series.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Stats`] for an empty series or one holding
    /// a non-finite value.
    pub fn freeze(raw: Vec<Vec<f64>>) -> Result<Self, SimError> {
        let per_iteration = raw
            .into_iter()
            .map(FrozenSeries::new)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(CriticalRangeResults { per_iteration })
    }

    /// Per-iteration sorted critical-range series.
    pub fn per_iteration(&self) -> &[FrozenSeries] {
        &self.per_iteration
    }

    /// The paper's range metrics for each iteration.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError::Stats`] (defensive; fractions are valid).
    pub fn quantiles_per_iteration(&self) -> Result<Vec<RangeQuantiles>, SimError> {
        self.per_iteration
            .iter()
            .map(RangeQuantiles::from_series)
            .collect()
    }

    /// Mean/spread of each range metric across iterations — the
    /// paper's "averaged over 50 simulations" aggregation.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError::Stats`] when there are no iterations.
    pub fn summary(&self) -> Result<MobileRangeSummary, SimError> {
        if self.per_iteration.is_empty() {
            return Err(SimError::Stats(manet_stats::StatsError::EmptySample));
        }
        let mut r100 = RunningMoments::new();
        let mut r90 = RunningMoments::new();
        let mut r10 = RunningMoments::new();
        let mut r0 = RunningMoments::new();
        for q in self.quantiles_per_iteration()? {
            r100.push(q.r100);
            r90.push(q.r90);
            r10.push(q.r10);
            r0.push(q.r0);
        }
        Ok(MobileRangeSummary { r100, r90, r10, r0 })
    }

    /// The smallest range keeping the network connected for at least
    /// `fraction` of the steps, averaged across iterations.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Stats`] for `fraction` outside `[0, 1]` or
    /// an empty campaign.
    pub fn mean_range_for_fraction(&self, fraction: f64) -> Result<f64, SimError> {
        if self.per_iteration.is_empty() {
            return Err(SimError::Stats(manet_stats::StatsError::EmptySample));
        }
        let mut acc = RunningMoments::new();
        for s in &self.per_iteration {
            acc.push(s.smallest_covering(fraction)?);
        }
        Ok(acc.mean())
    }

    /// Fraction of steps connected at range `r`, averaged across
    /// iterations (the availability estimate of the introduction; NaN
    /// for an empty campaign).
    pub fn connectivity_fraction_at(&self, r: f64) -> f64 {
        if self.per_iteration.is_empty() {
            return f64::NAN;
        }
        self.per_iteration
            .iter()
            .map(|s| s.fraction_at_most(r))
            .sum::<f64>()
            / self.per_iteration.len() as f64
    }

    /// All steps of all iterations pooled into one series (the
    /// alternative aggregation ablated in DESIGN.md §6).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Stats`] for an empty campaign.
    pub fn pooled(&self) -> Result<FrozenSeries, SimError> {
        let mut all = Vec::new();
        for s in &self.per_iteration {
            all.extend_from_slice(s.as_sorted());
        }
        Ok(FrozenSeries::new(all)?)
    }
}

/// The paper's four range metrics for one iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct RangeQuantiles {
    /// Minimum range connected during 100% of the time (max `c_t`).
    pub r100: f64,
    /// Minimum range connected during 90% of the time.
    pub r90: f64,
    /// Minimum range connected during 10% of the time.
    pub r10: f64,
    /// Largest range with **no** connected step (min `c_t`).
    pub r0: f64,
}

impl RangeQuantiles {
    /// Extracts the metrics from a sorted critical-range series.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError::Stats`] (defensive; the fractions used
    /// are valid constants).
    pub fn from_series(series: &FrozenSeries) -> Result<Self, SimError> {
        Ok(RangeQuantiles {
            r100: series.max(),
            r90: series.smallest_covering(0.9)?,
            r10: series.smallest_covering(0.1)?,
            r0: series.min(),
        })
    }
}

/// Across-iteration aggregation of [`RangeQuantiles`].
#[derive(Debug, Clone, Copy)]
pub struct MobileRangeSummary {
    /// Moments of `r100` across iterations.
    pub r100: RunningMoments,
    /// Moments of `r90` across iterations.
    pub r90: RunningMoments,
    /// Moments of `r10` across iterations.
    pub r10: RunningMoments,
    /// Moments of `r0` across iterations.
    pub r0: RunningMoments,
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
            .seed(42);
        b.build().unwrap()
    }

    #[test]
    fn quantiles_are_ordered() {
        let cfg = config(12, 200.0, 5, 60);
        let model = RandomWaypoint::new(0.5, 2.0, 3, 0.0).unwrap();
        let res = simulate_critical_ranges(&cfg, &model).unwrap();
        for q in res.quantiles_per_iteration().unwrap() {
            assert!(q.r100 >= q.r90, "{q:?}");
            assert!(q.r90 >= q.r10, "{q:?}");
            assert!(q.r10 >= q.r0, "{q:?}");
            assert!(q.r0 > 0.0);
        }
    }

    #[test]
    fn stationary_series_is_constant() {
        let cfg = config(10, 100.0, 3, 20);
        let res = simulate_critical_ranges(&cfg, &StationaryModel::new()).unwrap();
        for (i, s) in res.per_iteration().iter().enumerate() {
            assert!(
                (s.max() - s.min()).abs() < 1e-12,
                "iteration {i}: stationary CTR must not vary"
            );
        }
        // And the quantile metrics all coincide.
        for q in res.quantiles_per_iteration().unwrap() {
            assert!((q.r100 - q.r0).abs() < 1e-12);
        }
    }

    #[test]
    fn connectivity_fraction_is_monotone_in_r() {
        let cfg = config(12, 200.0, 4, 50);
        let model = RandomWaypoint::new(0.5, 2.0, 0, 0.0).unwrap();
        let res = simulate_critical_ranges(&cfg, &model).unwrap();
        let q = res.summary().unwrap();
        let probe = [
            q.r0.mean() * 0.5,
            q.r0.mean(),
            q.r10.mean(),
            q.r90.mean(),
            q.r100.mean(),
            q.r100.mean() * 2.0,
        ];
        let mut prev = -1.0;
        for r in probe {
            let f = res.connectivity_fraction_at(r);
            assert!(f >= prev - 1e-12, "fraction dropped at r={r}");
            prev = f;
        }
        assert_eq!(res.connectivity_fraction_at(q.r100.max() * 2.0), 1.0);
        assert_eq!(res.connectivity_fraction_at(0.0), 0.0);
    }

    #[test]
    fn fraction_definition_matches_quantile() {
        let cfg = config(10, 150.0, 3, 40);
        let model = RandomWaypoint::new(0.3, 1.5, 2, 0.0).unwrap();
        let res = simulate_critical_ranges(&cfg, &model).unwrap();
        for s in res.per_iteration() {
            let r90 = s.smallest_covering(0.9).unwrap();
            // At r90, at least 90% of steps are connected...
            assert!(s.fraction_at_most(r90) >= 0.9);
            // ...and this is the smallest such observed range.
            let idx = s.as_sorted().partition_point(|&v| v < r90);
            if idx > 0 {
                let below = s.as_sorted()[idx - 1];
                assert!(s.fraction_at_most(below) < 0.9 || below == r90);
            }
        }
    }

    #[test]
    fn pooled_has_all_observations() {
        let cfg = config(8, 100.0, 4, 25);
        let res = simulate_critical_ranges(&cfg, &StationaryModel::new()).unwrap();
        assert_eq!(res.pooled().unwrap().len(), 4 * 25);
    }

    #[test]
    fn summary_counts_iterations() {
        let cfg = config(8, 100.0, 7, 10);
        let model = RandomWaypoint::new(0.5, 2.0, 0, 0.0).unwrap();
        let res = simulate_critical_ranges(&cfg, &model).unwrap();
        let sum = res.summary().unwrap();
        assert_eq!(sum.r100.count(), 7);
        assert!(sum.r100.mean() >= sum.r90.mean());
        assert!(sum.r90.mean() >= sum.r10.mean());
        assert!(sum.r10.mean() >= sum.r0.mean());
    }

    #[test]
    fn mean_range_for_fraction_interpolates_between_metrics() {
        let cfg = config(10, 150.0, 3, 50);
        let model = RandomWaypoint::new(0.3, 2.0, 0, 0.0).unwrap();
        let res = simulate_critical_ranges(&cfg, &model).unwrap();
        let r50 = res.mean_range_for_fraction(0.5).unwrap();
        let s = res.summary().unwrap();
        assert!(r50 <= s.r90.mean() + 1e-12);
        assert!(r50 >= s.r10.mean() - 1e-12);
        assert!(res.mean_range_for_fraction(1.5).is_err());
    }

    #[test]
    fn empty_results_error() {
        let res = CriticalRangeResults::from_series(vec![]);
        assert!(res.summary().is_err());
        assert!(res.mean_range_for_fraction(0.5).is_err());
        assert!(res.connectivity_fraction_at(1.0).is_nan());
    }
}
