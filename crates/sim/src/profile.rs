//! Largest-component-size profiles over the transmitting range.
//!
//! For each observed step, the Kruskal merge process
//! ([`manet_graph::MergeProfile`]) gives the largest-component size as
//! an exact step function of the range. [`RangeSizeProfile`]
//! accumulates those step functions on a uniform range grid, so that
//! after a campaign the **average largest-component size at any range**
//! (paper Figures 4–5) and its inverses `rl90/rl75/rl50` (Figure 6)
//! are grid lookups.
//!
//! Accumulation uses difference arrays: a merge event "size grows from
//! `s` to `s'` at range `x`" adds `s' - s` to the first grid boundary
//! `>= x`. The average at boundary `r_j` is then exact for the
//! quantized event ranges; quantization error is bounded by one bin
//! width (`profile_max_range / profile_bins`).

use crate::{
    config::SimConfig,
    stream::{run_connectivity_stream, ConnectivityObserver, StepView},
    SimError,
};
use manet_graph::MergeProfile;
use manet_mobility::Mobility;
use manet_stats::RunningMoments;

/// Average largest-component size as a function of the range, on a
/// uniform grid over `[0, max_range]`.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct RangeSizeProfile {
    max_range: f64,
    bins: usize,
    /// `diff[j]` = total size increase attributed to boundary `j`
    /// (events with range in `((j-1)·w, j·w]`).
    diff: Vec<f64>,
    /// Events beyond `max_range` (clamped into the last boundary).
    overflow_events: u64,
    samples: usize,
    nodes: usize,
}

impl RangeSizeProfile {
    /// Creates an empty profile for `nodes` nodes on a grid of `bins`
    /// bins over `[0, max_range]`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for a non-positive
    /// `max_range`, fewer than 2 bins, or zero nodes.
    pub fn new(nodes: usize, max_range: f64, bins: usize) -> Result<Self, SimError> {
        if !(max_range.is_finite() && max_range > 0.0) {
            return Err(SimError::InvalidConfig {
                reason: format!("max_range must be positive, got {max_range}"),
            });
        }
        if bins < 2 {
            return Err(SimError::InvalidConfig {
                reason: "bins must be at least 2".into(),
            });
        }
        if nodes == 0 {
            return Err(SimError::InvalidConfig {
                reason: "nodes must be at least 1".into(),
            });
        }
        Ok(RangeSizeProfile {
            max_range,
            bins,
            diff: vec![0.0; bins + 1],
            overflow_events: 0,
            samples: 0,
            nodes,
        })
    }

    /// Width of one grid bin.
    pub fn bin_width(&self) -> f64 {
        self.max_range / self.bins as f64
    }

    /// Number of step functions accumulated.
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Number of merge events that fell beyond `max_range` (their size
    /// contribution is clamped into the last boundary, so queries below
    /// `max_range` remain exact).
    pub fn overflow_events(&self) -> u64 {
        self.overflow_events
    }

    /// Node count `n` the sizes are measured against.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Accumulates one step's merge profile.
    ///
    /// # Panics
    ///
    /// Panics when the profile's node count differs from this grid's
    /// (a driver logic error).
    pub fn accumulate(&mut self, profile: &MergeProfile) {
        assert_eq!(
            profile.node_count(),
            self.nodes,
            "merge profile node count mismatch"
        );
        self.samples += 1;
        let w = self.bin_width();
        let mut prev = 1u32;
        for &(range, size) in profile.events() {
            let delta = (size - prev) as f64;
            prev = size;
            let mut j = (range / w).ceil() as usize;
            if j > self.bins {
                j = self.bins;
                self.overflow_events += 1;
            }
            self.diff[j] += delta;
        }
    }

    /// Average largest-component size at range `r` (clamped to the
    /// grid; `NaN` when no samples were accumulated).
    ///
    /// The value at `r` uses all events with range `<= ` the greatest
    /// grid boundary `<= r`, making it a (tight) lower bound on the
    /// true average at `r`.
    pub fn average_size_at(&self, r: f64) -> f64 {
        if self.samples == 0 {
            return f64::NAN;
        }
        let j_max = ((r / self.bin_width()).floor() as usize).min(self.bins);
        let total: f64 = self.diff[..=j_max].iter().sum();
        1.0 + total / self.samples as f64
    }

    /// Average size at `r` as a fraction of `n`.
    pub fn average_fraction_at(&self, r: f64) -> f64 {
        self.average_size_at(r) / self.nodes as f64
    }

    /// The smallest grid boundary at which the average size reaches
    /// `target` nodes, or `None` when the target is never reached on
    /// the grid.
    pub fn range_for_average_size(&self, target: f64) -> Option<f64> {
        if self.samples == 0 {
            return None;
        }
        let mut total = 0.0;
        let w = self.bin_width();
        for j in 0..=self.bins {
            total += self.diff[j];
            if 1.0 + total / self.samples as f64 >= target {
                return Some(j as f64 * w);
            }
        }
        None
    }

    /// The smallest grid boundary at which the average size reaches
    /// `fraction * n`.
    pub fn range_for_average_fraction(&self, fraction: f64) -> Option<f64> {
        self.range_for_average_size(fraction * self.nodes as f64)
    }

    /// Merges another profile with identical geometry.
    ///
    /// # Panics
    ///
    /// Panics when geometry (nodes, bins, max range) differs.
    pub fn merge(&mut self, other: &RangeSizeProfile) {
        assert_eq!(self.nodes, other.nodes, "node counts differ");
        assert_eq!(self.bins, other.bins, "bin counts differ");
        assert_eq!(self.max_range, other.max_range, "max ranges differ");
        for (a, b) in self.diff.iter_mut().zip(&other.diff) {
            *a += b;
        }
        self.samples += other.samples;
        self.overflow_events += other.overflow_events;
    }
}

/// Observer accumulating merge profiles every `stride`-th step
/// (positions-only stream lane).
#[derive(Clone)]
pub(crate) struct ProfileObserver {
    stride: usize,
    profile: RangeSizeProfile,
}

impl ProfileObserver {
    /// An empty observer on `config`'s stride and range grid.
    ///
    /// # Errors
    ///
    /// Propagates [`RangeSizeProfile::new`]'s grid validation.
    pub(crate) fn for_config<const D: usize>(config: &SimConfig<D>) -> Result<Self, SimError> {
        Ok(ProfileObserver {
            stride: config.profile_stride(),
            profile: RangeSizeProfile::new(
                config.nodes(),
                config.profile_max_range(),
                config.profile_bins(),
            )?,
        })
    }
}

impl<const D: usize> ConnectivityObserver<D> for ProfileObserver {
    type Output = RangeSizeProfile;

    fn observe(&mut self, view: &StepView<'_, D>) {
        if view.step().is_multiple_of(self.stride) {
            self.profile.accumulate(&MergeProfile::of(view.positions()));
        }
    }

    fn finish(self) -> RangeSizeProfile {
        self.profile
    }
}

/// Per-iteration component-size profiles of a campaign.
#[derive(Debug, Clone)]
pub struct ProfileResults {
    per_iteration: Vec<RangeSizeProfile>,
}

impl ProfileResults {
    /// Builds results from pre-computed profiles (tests/tools).
    pub fn from_profiles(per_iteration: Vec<RangeSizeProfile>) -> Self {
        ProfileResults { per_iteration }
    }

    /// Per-iteration profiles.
    pub fn per_iteration(&self) -> &[RangeSizeProfile] {
        &self.per_iteration
    }

    /// All iterations merged into a single pooled profile.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Stats`] for an empty campaign.
    pub fn pooled(&self) -> Result<RangeSizeProfile, SimError> {
        let mut iter = self.per_iteration.iter();
        let first = iter
            .next()
            .ok_or(SimError::Stats(manet_stats::StatsError::EmptySample))?;
        let mut acc = first.clone();
        for p in iter {
            acc.merge(p);
        }
        Ok(acc)
    }

    /// Mean (across iterations) of the smallest range at which the
    /// average largest component reaches `fraction * n` — the paper's
    /// `rl90/rl75/rl50` for `fraction` 0.9/0.75/0.5.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Stats`] when no iteration reaches the
    /// target on its grid (e.g. `fraction > 1`).
    pub fn mean_range_for_average_fraction(&self, fraction: f64) -> Result<f64, SimError> {
        let mut acc = RunningMoments::new();
        for p in &self.per_iteration {
            if let Some(r) = p.range_for_average_fraction(fraction) {
                acc.push(r);
            }
        }
        if acc.is_empty() {
            return Err(SimError::Stats(manet_stats::StatsError::EmptySample));
        }
        Ok(acc.mean())
    }

    /// Mean (across iterations) of the average largest-component
    /// fraction at range `r` — the paper's Figures 4–5 ordinate.
    pub fn mean_average_fraction_at(&self, r: f64) -> f64 {
        if self.per_iteration.is_empty() {
            return f64::NAN;
        }
        self.per_iteration
            .iter()
            .map(|p| p.average_fraction_at(r))
            .sum::<f64>()
            / self.per_iteration.len() as f64
    }
}

/// Runs the campaign collecting merge profiles (every
/// `config.profile_stride()`-th step) on the configured grid.
///
/// # Errors
///
/// Propagates configuration and engine errors.
pub fn simulate_profiles<const D: usize, M>(
    config: &SimConfig<D>,
    model: &M,
) -> Result<ProfileResults, SimError>
where
    M: Mobility<D> + Clone + Send + Sync,
{
    let empty = ProfileObserver::for_config(config)?;
    let per_iteration = run_connectivity_stream(config, model, None, |_| empty.clone())?;
    Ok(ProfileResults { per_iteration })
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_geom::Point;
    use manet_mobility::{RandomWaypoint, StationaryModel};

    #[test]
    fn grid_validation() {
        assert!(RangeSizeProfile::new(5, 0.0, 10).is_err());
        assert!(RangeSizeProfile::new(5, 10.0, 1).is_err());
        assert!(RangeSizeProfile::new(0, 10.0, 10).is_err());
        assert!(RangeSizeProfile::new(5, f64::NAN, 10).is_err());
    }

    #[test]
    fn single_profile_matches_merge_profile() {
        let pts = vec![
            Point::new([0.0]),
            Point::new([1.0]),
            Point::new([3.0]),
            Point::new([7.0]),
        ];
        let merge = MergeProfile::of(&pts);
        let mut grid = RangeSizeProfile::new(4, 10.0, 1000).unwrap();
        grid.accumulate(&merge);
        assert_eq!(grid.samples(), 1);
        for r in [0.5, 1.0, 2.0, 3.9, 4.0, 5.0, 9.0] {
            let exact = merge.largest_component_at(r) as f64;
            let approx = grid.average_size_at(r);
            // Grid value may lag by at most one bin; probing off
            // event boundaries they agree exactly.
            assert!(
                (approx - exact).abs() <= 1.0 + 1e-12,
                "r={r}: {approx} vs {exact}"
            );
        }
        // Far beyond all events: everyone connected.
        assert_eq!(grid.average_size_at(10.0), 4.0);
    }

    #[test]
    fn average_is_monotone_in_r() {
        let cfg = {
            let mut b = SimConfig::<2>::builder();
            b.nodes(10)
                .side(100.0)
                .iterations(3)
                .steps(20)
                .seed(3)
                .profile_bins(256);
            b.build().unwrap()
        };
        let model = RandomWaypoint::new(0.5, 2.0, 0, 0.0).unwrap();
        let res = simulate_profiles(&cfg, &model).unwrap();
        let pooled = res.pooled().unwrap();
        let mut prev = 0.0;
        for j in 0..=20 {
            let r = j as f64 * 2.5;
            let v = pooled.average_size_at(r);
            assert!(v >= prev - 1e-12, "profile not monotone at r={r}");
            prev = v;
        }
    }

    #[test]
    fn inversion_is_consistent_with_evaluation() {
        let cfg = {
            let mut b = SimConfig::<2>::builder();
            b.nodes(12)
                .side(120.0)
                .iterations(2)
                .steps(15)
                .seed(8)
                .profile_bins(512);
            b.build().unwrap()
        };
        let model = RandomWaypoint::new(0.5, 2.0, 0, 0.0).unwrap();
        let res = simulate_profiles(&cfg, &model).unwrap();
        let pooled = res.pooled().unwrap();
        for frac in [0.5, 0.75, 0.9] {
            let r = pooled.range_for_average_fraction(frac).unwrap();
            assert!(
                pooled.average_fraction_at(r) >= frac - 1e-12,
                "target not met at inverted range"
            );
            if r > pooled.bin_width() {
                assert!(
                    pooled.average_fraction_at(r - pooled.bin_width()) < frac,
                    "inversion not minimal at fraction {frac}"
                );
            }
        }
    }

    #[test]
    fn rl_ordering_matches_paper() {
        // rl50 <= rl75 <= rl90 always.
        let cfg = {
            let mut b = SimConfig::<2>::builder();
            b.nodes(16).side(200.0).iterations(4).steps(25).seed(12);
            b.build().unwrap()
        };
        let model = RandomWaypoint::new(0.5, 2.0, 0, 0.0).unwrap();
        let res = simulate_profiles(&cfg, &model).unwrap();
        let rl50 = res.mean_range_for_average_fraction(0.5).unwrap();
        let rl75 = res.mean_range_for_average_fraction(0.75).unwrap();
        let rl90 = res.mean_range_for_average_fraction(0.9).unwrap();
        assert!(rl50 <= rl75 + 1e-12);
        assert!(rl75 <= rl90 + 1e-12);
    }

    #[test]
    fn stride_reduces_samples() {
        let mk = |stride: usize| {
            let mut b = SimConfig::<2>::builder();
            b.nodes(6)
                .side(60.0)
                .iterations(1)
                .steps(20)
                .seed(1)
                .profile_stride(stride);
            b.build().unwrap()
        };
        let model = StationaryModel::new();
        let full = simulate_profiles(&mk(1), &model).unwrap();
        let strided = simulate_profiles(&mk(5), &model).unwrap();
        assert_eq!(full.per_iteration()[0].samples(), 20);
        assert_eq!(strided.per_iteration()[0].samples(), 4);
    }

    #[test]
    fn overflow_events_are_counted_not_lost() {
        let pts = vec![Point::new([0.0]), Point::new([100.0])];
        let merge = MergeProfile::of(&pts);
        let mut grid = RangeSizeProfile::new(2, 10.0, 10).unwrap();
        grid.accumulate(&merge);
        assert_eq!(grid.overflow_events(), 1);
        // At the top of the grid the clamped event is visible.
        assert_eq!(grid.average_size_at(10.0), 2.0);
        // Below it, not.
        assert_eq!(grid.average_size_at(5.0), 1.0);
    }

    #[test]
    fn merge_requires_identical_geometry() {
        let a = RangeSizeProfile::new(4, 10.0, 16).unwrap();
        let mut b = a.clone();
        b.merge(&a);
        let c = RangeSizeProfile::new(4, 10.0, 32).unwrap();
        let result = std::panic::catch_unwind(move || {
            let mut b2 = b;
            b2.merge(&c);
        });
        assert!(result.is_err());
    }

    #[test]
    fn empty_results_behave() {
        let res = ProfileResults::from_profiles(vec![]);
        assert!(res.pooled().is_err());
        assert!(res.mean_average_fraction_at(1.0).is_nan());
        assert!(res.mean_range_for_average_fraction(0.5).is_err());
    }
}
