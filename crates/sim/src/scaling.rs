//! Critical-range finder and finite-size scaling fits.
//!
//! Wang et al. (PAPERS.md, arXiv:0806.2351) show the critical
//! transmitting range of a mobile network scales as a power law
//! `r_c(n) ~ n^(-beta)`. This module locates the transition for one
//! `(model, n)` cell — the smallest range whose mean connectivity
//! metric reaches a target — and fits the exponent across a
//! density-preserving `n` sweep.
//!
//! # Two exact rules over fixed trajectories
//!
//! The engine's trajectories depend only on `(config, model)`, never
//! on the range, so one seed fixes every placement and step, and over
//! those fixed trajectories both metrics are monotone non-decreasing
//! in `r` (adding edges can only grow the largest component, and can
//! only raise vertex connectivity). [`find_critical_range`] answers
//! each metric exactly, from positions only:
//!
//! * **Giant fraction: two positions-only merge-profile passes.** A
//!   step's largest component at `r` is the step function
//!   [`MergeProfile::largest_component_at`]: 1 plus the size growth of
//!   every profile event at a range `<= r`. The pooled mean is the sum
//!   of those over every step, divided by `iterations · steps · n`.
//!   Pass 1 bins each event's integer size
//!   growth into a histogram of width `rel_tol · side` and picks the
//!   first bin whose cumulative total reaches the target; pass 2
//!   re-runs the same trajectories, keeps only that bin's events, and
//!   applies them in range order. Pass 1 also records the bin of each
//!   step's critical range (its last event), and pass 2 profiles only
//!   the steps whose recorded bin reaches the answer bin: every event
//!   of a step lies at or below its critical range, so the skipped
//!   steps hold no event of that bin. The answer is exact in the
//!   profile's convention, and memory is one histogram per iteration
//!   plus 4 B per step, plus the events of one bin.
//! * **k-connectivity: the pooled quantile.** Step `t` is k-connected
//!   at `r` ⟺ `c_t^(k) <= r`, so the threshold is an order statistic
//!   of the per-step thresholds, from one campaign. For `k = 1`,
//!   `c_t` is the MST bottleneck on the warm-start tracker
//!   ([`simulate_raw_critical_series`]); for `k >= 2` it is
//!   [`critical_range_k`], exact in the graph builders' `d² <= r·r`
//!   convention.
//!
//! [`bisect_critical_range`] — monotone stochastic bisection, one
//! positions-only campaign per probe, converging within
//! `rel_tol · side` — is the test oracle for both rules; the finder
//! never calls it.
//!
//! Every rule answers inside the bisection's bracket
//! `[1e-9, diameter]`, so a cell that meets its target at `r = 0`
//! reports `1e-9` rather than a zero the log-log fit cannot take.
//! Determinism is inherited from the engine, so critical points are
//! bit-identical across thread counts.
//!
//! # Normalization
//!
//! Under the density-preserving scaling the CLI uses (`side ∝ √n`),
//! the *raw* critical range grows slowly with `n` while the
//! *normalized* range `rho_c = r_c / side` falls as a clean power law
//! (for random geometric graphs `rho_c ~ √(log n / n)`, an effective
//! exponent around 0.4–0.5 over practical `n`). [`CriticalPoint`]
//! reports both; [`fit_scaling_exponent`] fits `log rho_c` against
//! `log n` and reports `beta = -slope` with a Student-t confidence
//! interval from [`LinearFit::fit_with_slope_ci`].

use crate::{
    config::SimConfig,
    critical::simulate_raw_critical_series,
    search::bisect_monotone,
    stream::{run_connectivity_stream, ConnectivityObserver, StepView},
    SimError,
};
use manet_graph::kconn::{critical_range_k, is_k_connected};
use manet_graph::{AdjacencyList, ComponentSummary, MergeProfile};
use manet_mobility::Mobility;
use manet_obs::KernelMetrics;
use manet_stats::{ConfidenceInterval, FrozenSeries, LinearFit};

/// The per-step connectivity metric a critical-range search thresholds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum ConnectivityMetric {
    /// Largest-component size as a fraction of `n` (the giant
    /// component), averaged over steps and iterations.
    GiantFraction,
    /// Fraction of steps whose graph is `k`-vertex-connected
    /// ([`is_k_connected`]); `k = 1` is plain connectivity.
    KConnectivity(usize),
}

/// Configuration of one critical-range search (chainable, defaults:
/// giant-component fraction, target 0.99, relative tolerance 1e-3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CriticalRangeSearch {
    metric: ConnectivityMetric,
    target: f64,
    rel_tol: f64,
}

impl Default for CriticalRangeSearch {
    fn default() -> Self {
        CriticalRangeSearch {
            metric: ConnectivityMetric::GiantFraction,
            target: 0.99,
            rel_tol: 1e-3,
        }
    }
}

impl CriticalRangeSearch {
    /// The default search: giant-fraction metric at target 0.99.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the metric (chainable).
    pub fn with_metric(mut self, metric: ConnectivityMetric) -> Self {
        self.metric = metric;
        self
    }

    /// Sets the target level in `(0, 1]` (chainable).
    pub fn with_target(mut self, target: f64) -> Self {
        self.target = target;
        self
    }

    /// Sets the tolerance as a fraction of the region side
    /// (chainable): the bisection's bracket width, and the histogram
    /// bin width of the giant fraction's exact search.
    pub fn with_rel_tol(mut self, rel_tol: f64) -> Self {
        self.rel_tol = rel_tol;
        self
    }

    /// The configured metric.
    pub fn metric(&self) -> ConnectivityMetric {
        self.metric
    }

    /// The configured target level.
    pub fn target(&self) -> f64 {
        self.target
    }

    /// The configured side-relative tolerance.
    pub fn rel_tol(&self) -> f64 {
        self.rel_tol
    }

    fn validate<const D: usize>(&self, config: &SimConfig<D>) -> Result<(), SimError> {
        if !(self.target.is_finite() && self.target > 0.0 && self.target <= 1.0) {
            return Err(SimError::InvalidConfig {
                reason: format!("target must be in (0, 1], got {}", self.target),
            });
        }
        if !(self.rel_tol.is_finite() && self.rel_tol > 0.0) {
            return Err(SimError::InvalidConfig {
                reason: format!("rel_tol must be positive and finite, got {}", self.rel_tol),
            });
        }
        if let ConnectivityMetric::KConnectivity(k) = self.metric {
            if k == 0 || k >= config.nodes() {
                return Err(SimError::InvalidConfig {
                    reason: format!(
                        "k-connectivity target k={k} must satisfy 1 <= k < n (n = {})",
                        config.nodes()
                    ),
                });
            }
        }
        Ok(())
    }
}

/// One located critical point: the threshold range, its normalization
/// by the region side, and the probe work that found it.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct CriticalPoint {
    /// The smallest range whose mean metric reaches the target, exact
    /// for every metric.
    pub range: f64,
    /// `range / side` — the scale-free quantity the power law fits.
    pub normalized: f64,
    /// Seeded campaigns run over the cell's trajectories: 2 for the
    /// giant fraction's merge-profile passes (the second replays every
    /// step but profiles only those reaching the answer bin), 1 for
    /// the k-connectivity quantile, and one per probe from
    /// [`bisect_critical_range`].
    pub probes: usize,
    /// Step-kernel counters, always zero: no path runs the step kernel.
    /// The finder reads positions only, and each bisection probe builds
    /// its graphs from positions. The field stays because the CLI
    /// forwards it to `ObsSession` and the benchmark harness reads it.
    pub kernel: KernelMetrics,
}

/// Observer recording each step's exact k-connectivity threshold
/// ([`critical_range_k`]) in time order.
struct KThresholds {
    k: usize,
    series: Vec<f64>,
}

impl<const D: usize> ConnectivityObserver<D> for KThresholds {
    type Output = Vec<f64>;

    fn observe(&mut self, view: &StepView<'_, D>) {
        self.series.push(critical_range_k(view.positions(), self.k));
    }

    fn finish(self) -> Vec<f64> {
        self.series
    }
}

/// Observer computing one iteration's mean metric at one range for
/// the bisection oracle: each step's graph is built from its positions
/// ([`AdjacencyList::from_points`]).
struct MetricObserver {
    metric: ConnectivityMetric,
    side: f64,
    range: f64,
    sum: f64,
    steps: usize,
}

impl<const D: usize> ConnectivityObserver<D> for MetricObserver {
    type Output = f64;

    fn observe(&mut self, view: &StepView<'_, D>) {
        let positions = view.positions();
        let graph = AdjacencyList::from_points(positions, self.side, self.range);
        let value = match self.metric {
            ConnectivityMetric::GiantFraction => {
                ComponentSummary::of(&graph).largest_size() as f64 / positions.len() as f64
            }
            ConnectivityMetric::KConnectivity(k) => {
                if is_k_connected(&graph, k) {
                    1.0
                } else {
                    0.0
                }
            }
        };
        self.sum += value;
        self.steps += 1;
    }

    fn finish(self) -> f64 {
        self.sum / self.steps as f64
    }
}

/// The mean metric at range `r`, pooled over iterations.
fn evaluate_metric<const D: usize, M>(
    config: &SimConfig<D>,
    model: &M,
    metric: ConnectivityMetric,
    r: f64,
) -> f64
where
    M: Mobility<D> + Clone + Send + Sync,
{
    let outputs = run_connectivity_stream(config, model, |_| MetricObserver {
        metric,
        side: config.side(),
        range: r,
        sum: 0.0,
        steps: 0,
    });
    // Iterations share one step count, so the mean of per-iteration
    // means is the pooled per-step mean.
    outputs.iter().sum::<f64>() / outputs.len() as f64
}

/// Lower end of the search bracket `[BRACKET_LO, diameter]` every path
/// answers in.
const BRACKET_LO: f64 = 1e-9;

/// Upper bound on the giant-fraction histogram's bin count. The bin
/// width only trades pass 1's histogram against pass 2's kept events;
/// the answer does not depend on it, so a tiny `rel_tol` widens the
/// bins instead of allocating billions of them.
const MAX_BINS: usize = 1 << 16;

/// Locates the critical range of one `(config, model)` cell: the
/// smallest range in `[1e-9, diameter]` whose mean metric over the
/// cell's fixed trajectories reaches the target (see the module docs
/// for the two rules).
///
/// # Errors
///
/// Returns [`SimError::InvalidConfig`] for an invalid search
/// (target outside `(0, 1]`, non-positive tolerance, infeasible `k`)
/// and propagates engine errors from the campaigns.
pub fn find_critical_range<const D: usize, M>(
    config: &SimConfig<D>,
    model: &M,
    search: &CriticalRangeSearch,
) -> Result<CriticalPoint, SimError>
where
    M: Mobility<D> + Clone + Send + Sync,
{
    search.validate(config)?;
    let (range, probes) = match search.metric {
        ConnectivityMetric::GiantFraction => {
            (giant_fraction_threshold(config, model, search)?.0, 2)
        }
        ConnectivityMetric::KConnectivity(k) => {
            let series = if k == 1 {
                simulate_raw_critical_series(config, model)
            } else {
                run_connectivity_stream(config, model, |_| KThresholds {
                    k,
                    series: Vec::with_capacity(config.steps()),
                })
            };
            let pooled = FrozenSeries::new(series.concat())?;
            (pooled.smallest_covering(search.target)?, 1)
        }
    };
    let range = range.clamp(BRACKET_LO, config.region().diameter());
    Ok(CriticalPoint {
        range,
        normalized: range / config.side(),
        probes,
        kernel: KernelMetrics::default(),
    })
}

/// Locates the critical range of one `(config, model)` cell by
/// deterministic stochastic bisection over `[1e-9, diameter]`, one
/// fixed-range campaign per probe, within `rel_tol · side` above the
/// threshold. It is the oracle [`find_critical_range`]'s exact rules
/// are tested against.
///
/// # Errors
///
/// Returns [`SimError::InvalidConfig`] for an invalid search and
/// propagates engine errors from the probes.
pub fn bisect_critical_range<const D: usize, M>(
    config: &SimConfig<D>,
    model: &M,
    search: &CriticalRangeSearch,
) -> Result<CriticalPoint, SimError>
where
    M: Mobility<D> + Clone + Send + Sync,
{
    search.validate(config)?;
    let hi = config.region().diameter();
    let tol = search.rel_tol * config.side();
    let mut probes = 0usize;
    let range = bisect_monotone(BRACKET_LO, hi, tol, |r| {
        probes += 1;
        evaluate_metric(config, model, search.metric, r) >= search.target
    });
    Ok(CriticalPoint {
        range,
        normalized: range / config.side(),
        probes,
        kernel: KernelMetrics::default(),
    })
}

/// Histogram bins of width `width` over `[0, diameter]`: bin `j` holds
/// the ranges in `((j − 1)·width, j·width]`, bin 0 the range 0. The
/// index is monotone in the range, so every event of a lower bin has a
/// strictly smaller range than every event of a higher one.
#[derive(Clone, Copy)]
struct Bins {
    width: f64,
    last: usize,
}

impl Bins {
    fn of(&self, range: f64) -> usize {
        ((range / self.width).ceil() as usize).min(self.last)
    }
}

/// Calls `f(range, growth)` for every event of the merge profile of
/// `view`'s positions, `growth` being how much the largest component
/// grows at `range`.
fn for_each_growth<const D: usize>(view: &StepView<'_, D>, mut f: impl FnMut(f64, u64)) {
    let mut size = 1;
    for &(range, s) in MergeProfile::of(view.positions()).events() {
        f(range, u64::from(s - size));
        size = s;
    }
}

/// Pass 1: one iteration's total growth per bin, and the bin of each
/// step's critical range (its last event; bin 0 when it has none).
struct GrowthHistogram {
    bins: Bins,
    totals: Vec<u64>,
    top_bins: Vec<u32>,
}

impl<const D: usize> ConnectivityObserver<D> for GrowthHistogram {
    type Output = (Vec<u64>, Vec<u32>);

    fn observe(&mut self, view: &StepView<'_, D>) {
        let mut top = 0;
        for_each_growth(view, |range, growth| {
            top = self.bins.of(range);
            self.totals[top] += growth;
        });
        self.top_bins.push(top as u32);
    }

    fn finish(self) -> Self::Output {
        (self.totals, self.top_bins)
    }
}

/// Pass 2: one iteration's `(range, growth)` events inside one bin,
/// and how many steps it profiled to find them. Every event of a step
/// lies at or below its critical range, so a step whose critical range
/// falls in a lower bin has none in `bin` and is skipped.
struct GrowthInBin<'a> {
    bins: Bins,
    bin: usize,
    top_bins: &'a [u32],
    events: Vec<(f64, u64)>,
    profiled: u64,
}

impl<const D: usize> ConnectivityObserver<D> for GrowthInBin<'_> {
    type Output = (Vec<(f64, u64)>, u64);

    fn observe(&mut self, view: &StepView<'_, D>) {
        if (self.top_bins[view.step()] as usize) < self.bin {
            return;
        }
        self.profiled += 1;
        for_each_growth(view, |range, growth| {
            if self.bins.of(range) == self.bin {
                self.events.push((range, growth));
            }
        });
    }

    fn finish(self) -> Self::Output {
        (self.events, self.profiled)
    }
}

/// The exact giant-fraction threshold in the merge profile's
/// convention: the smallest `r` with
/// `Σ_steps largest_component_at(r) / (iterations · steps · n) >= target`,
/// from two positions-only passes over the cell's trajectories, and
/// the number of steps pass 2 profiled.
fn giant_fraction_threshold<const D: usize, M>(
    config: &SimConfig<D>,
    model: &M,
    search: &CriticalRangeSearch,
) -> Result<(f64, u64), SimError>
where
    M: Mobility<D> + Clone + Send + Sync,
{
    let hi = config.region().diameter();
    let width = (search.rel_tol * config.side()).max(hi / MAX_BINS as f64);
    let bins = Bins {
        width,
        last: (hi / width).ceil() as usize,
    };
    let step_count = (config.iterations() * config.steps()) as u64;
    let denominator = (step_count * config.nodes() as u64) as f64;
    let reaches = |total: u64| total as f64 / denominator >= search.target;

    // Pool each iteration's histogram as it arrives; only the per-step
    // bins outlive pass 1.
    let mut pooled = vec![0u64; bins.last + 1];
    let mut top_bins = Vec::with_capacity(config.iterations());
    for (totals, tops) in run_connectivity_stream(config, model, |_| GrowthHistogram {
        bins,
        totals: vec![0; bins.last + 1],
        top_bins: Vec::with_capacity(config.steps()),
    }) {
        for (p, t) in pooled.iter_mut().zip(totals) {
            *p += t;
        }
        top_bins.push(tops);
    }
    // Every step starts from singletons: a largest component of 1.
    let mut below = step_count;
    let Some(bin) = pooled.iter().position(|&t| {
        below += t;
        reaches(below)
    }) else {
        // Unreachable for n >= 1: the last bin brings every step to n.
        return Ok((hi, 0));
    };
    below -= pooled[bin];
    if reaches(below) {
        return Ok((0.0, 0));
    }

    let mut events = Vec::new();
    let mut profiled = 0;
    for (e, p) in run_connectivity_stream(config, model, |iteration| GrowthInBin {
        bins,
        bin,
        top_bins: &top_bins[iteration],
        events: Vec::new(),
        profiled: 0,
    }) {
        events.extend(e);
        profiled += p;
    }
    events.sort_by(|a, b| a.0.total_cmp(&b.0));
    let range = events
        .chunk_by(|a, b| a.0 == b.0)
        .find_map(|run| {
            below += run.iter().map(|e| e.1).sum::<u64>();
            reaches(below).then_some(run[0].0)
        })
        .unwrap_or(hi);
    Ok((range, profiled))
}

/// A fitted finite-size scaling exponent `rho_c ~ n^(-beta)` with its
/// confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ScalingExponent {
    /// The exponent `beta = -slope` of the `log rho_c` vs `log n` fit.
    pub beta: f64,
    /// Student-t confidence interval on `beta` (`n - 2` degrees of
    /// freedom).
    pub ci: ConfidenceInterval,
    /// The underlying log-log line (`slope = -beta`; `r_squared`
    /// measures how well the power law holds).
    pub line: LinearFit,
    /// Number of `(n, rho_c)` points fitted.
    pub points: usize,
}

/// Fits `log rho_c = intercept - beta * log n` over `(n, rho_c)`
/// points and reports `beta` with a `level` confidence interval.
///
/// # Errors
///
/// Returns [`SimError::InvalidConfig`] with fewer than three points or
/// any non-positive `rho_c` (the log is undefined), and propagates
/// [`SimError::Stats`] from the regression (e.g. identical `n`).
pub fn fit_scaling_exponent(
    points: &[(usize, f64)],
    level: f64,
) -> Result<ScalingExponent, SimError> {
    if points.len() < 3 {
        return Err(SimError::InvalidConfig {
            reason: format!(
                "scaling fit needs at least 3 (n, rho_c) points for a slope CI, got {}",
                points.len()
            ),
        });
    }
    if let Some((n, rho)) = points
        .iter()
        .find(|(n, rho)| *n == 0 || !(rho.is_finite() && *rho > 0.0))
    {
        return Err(SimError::InvalidConfig {
            reason: format!("scaling fit needs n >= 1 and rho_c > 0, got ({n}, {rho})"),
        });
    }
    let xs: Vec<f64> = points.iter().map(|(n, _)| (*n as f64).ln()).collect();
    let ys: Vec<f64> = points.iter().map(|(_, rho)| rho.ln()).collect();
    let inference = LinearFit::fit_with_slope_ci(&xs, &ys, level)?;
    let slope_ci = inference.slope_ci;
    Ok(ScalingExponent {
        beta: -inference.fit.slope,
        // Negating the slope flips the interval's endpoints.
        ci: ConfidenceInterval {
            estimate: -slope_ci.estimate,
            lo: -slope_ci.hi,
            hi: -slope_ci.lo,
            level: slope_ci.level,
        },
        line: inference.fit,
        points: points.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::critical::simulate_critical_ranges;
    use crate::fixed::simulate_fixed_ranges;
    use manet_geom::{Point, Region};
    use manet_mobility::{RandomWaypoint, StationaryModel};
    use rand::Rng;

    fn config(nodes: usize, side: f64, iterations: usize, steps: usize) -> SimConfig<2> {
        let mut b = SimConfig::<2>::builder();
        b.nodes(nodes)
            .side(side)
            .iterations(iterations)
            .steps(steps)
            .seed(42);
        b.build().unwrap()
    }

    /// Replays fixed layouts in turn from step 1 on; step 0 keeps the
    /// seeded uniform placement.
    #[derive(Clone)]
    struct Script {
        layouts: Vec<Vec<Point<2>>>,
        next: usize,
    }

    impl Script {
        fn new(layouts: Vec<Vec<Point<2>>>) -> Self {
            Script { layouts, next: 0 }
        }
    }

    impl Mobility<2> for Script {
        fn init(&mut self, _: &[Point<2>], _: &Region<2>, _: &mut dyn Rng) {}

        fn step(&mut self, positions: &mut [Point<2>], _: &Region<2>, _: &mut dyn Rng) {
            positions.copy_from_slice(&self.layouts[self.next % self.layouts.len()]);
            self.next += 1;
        }

        fn name(&self) -> &'static str {
            "script"
        }
    }

    /// `n` nodes on a horizontal row at `spacing`: every profile event,
    /// and so the critical range, sits at exactly `spacing`.
    fn row(n: usize, spacing: f64) -> Vec<Point<2>> {
        (0..n)
            .map(|i| Point::new([10.0 + spacing * i as f64, 10.0]))
            .collect()
    }

    /// The single-pass answer the two passes must reproduce bit for
    /// bit: every event of every step, sorted by range.
    fn all_events_threshold<M>(cfg: &SimConfig<2>, model: &M, target: f64) -> f64
    where
        M: Mobility<2> + Clone + Send + Sync,
    {
        struct AllEvents(Vec<(f64, u64)>);
        impl ConnectivityObserver<2> for AllEvents {
            type Output = Vec<(f64, u64)>;
            fn observe(&mut self, view: &StepView<'_, 2>) {
                for_each_growth(view, |range, growth| self.0.push((range, growth)));
            }
            fn finish(self) -> Vec<(f64, u64)> {
                self.0
            }
        }
        let mut events: Vec<(f64, u64)> =
            run_connectivity_stream(cfg, model, |_| AllEvents(Vec::new()))
                .into_iter()
                .flatten()
                .collect();
        events.sort_by(|a, b| a.0.total_cmp(&b.0));
        let steps = (cfg.iterations() * cfg.steps()) as u64;
        let reaches = |total: u64| total as f64 / (steps * cfg.nodes() as u64) as f64 >= target;
        let mut total = steps;
        if reaches(total) {
            return 0.0;
        }
        events
            .into_iter()
            .find_map(|(range, growth)| {
                total += growth;
                reaches(total).then_some(range)
            })
            .unwrap()
    }

    #[test]
    fn pass_two_skips_a_step_whose_critical_range_closes_the_bin_below() {
        // Side 1024 at rel_tol 2^-10 makes the bin width exactly 1.
        // Rows at spacing 3.5 reach the target at r = 3.5, so the
        // answer bin is b* = 4; rows at spacing 3 have a critical range
        // of exactly (b* − 1)·w = 3, every event in bin 3, and must be
        // skipped by pass 2 without moving the answer.
        let cfg = config(4, 1024.0, 1, 21);
        let model = Script::new(vec![row(4, 3.0), row(4, 3.5)]);
        let search = CriticalRangeSearch::new()
            .with_target(0.95)
            .with_rel_tol(1.0 / 1024.0);
        let (range, profiled) = giant_fraction_threshold(&cfg, &model, &search).unwrap();
        assert_eq!(range, 3.5);
        assert_eq!(range, all_events_threshold(&cfg, &model, 0.95));
        // Step 0's uniform placement and the ten 3.5-rows; not the
        // ten 3-rows.
        assert_eq!(profiled, 11);
    }

    #[test]
    fn pass_two_compares_bins_not_raw_ranges() {
        // At side 100 the default bin width is w = 0.1, and 3·w rounds
        // up to 0.30000000000000004, whose bin is ⌈c / w⌉ = 4. Pairs
        // at that distance put b* = 4 although their critical range
        // equals (b* − 1)·w as floats: a raw-range test would skip
        // every step holding the answer's events.
        let cfg = config(2, 100.0, 1, 11);
        let w: f64 = 1e-3 * 100.0;
        let c = 3.0 * w;
        assert_eq!((c / w).ceil(), 4.0);
        let model = Script::new(vec![vec![Point::new([0.0, 50.0]), Point::new([c, 50.0])]]);
        let search = CriticalRangeSearch::new().with_target(0.95);
        let (range, profiled) = giant_fraction_threshold(&cfg, &model, &search).unwrap();
        assert_eq!(range, c);
        assert_eq!(range, all_events_threshold(&cfg, &model, 0.95));
        assert_eq!(profiled, 11, "step 0 and the ten pairs all reach bin 4");
    }

    #[test]
    fn target_one_profiles_only_the_steps_in_the_top_bin() {
        let cfg = config(12, 120.0, 3, 40);
        let model = RandomWaypoint::new(0.5, 2.0, 1, 0.0).unwrap();
        let search = CriticalRangeSearch::new().with_target(1.0);
        let (range, profiled) = giant_fraction_threshold(&cfg, &model, &search).unwrap();
        let r100 = simulate_critical_ranges(&cfg, &model)
            .unwrap()
            .pooled()
            .unwrap()
            .max();
        assert_eq!(range.to_bits(), r100.to_bits());
        assert_eq!(range, all_events_threshold(&cfg, &model, 1.0));
        assert!(0 < profiled && profiled < 120, "profiled {profiled}");

        // Two nodes in opposite corners are a diameter apart: their
        // critical range lands in the clamped last bin.
        let cfg = config(2, 1024.0, 1, 5);
        let corners = Script::new(vec![vec![
            Point::new([0.0, 0.0]),
            Point::new([1024.0, 1024.0]),
        ]]);
        let search = search.with_rel_tol(1.0 / 1024.0);
        let (range, profiled) = giant_fraction_threshold(&cfg, &corners, &search).unwrap();
        assert_eq!(range, cfg.region().diameter());
        assert_eq!(profiled, 4, "the four corner steps, not step 0");
    }

    #[test]
    fn coincident_pairs_answer_in_bin_zero_and_profile_every_step() {
        // Two iterations of step 0 (two singletons) and ten coincident
        // steps (one pair at r = 0): 42 of 44 nodes at r = 0 reach 0.95.
        let cfg = config(2, 100.0, 2, 11);
        let model = Script::new(vec![vec![Point::new([5.0, 5.0]); 2]]);
        let search = CriticalRangeSearch::new().with_target(0.95);
        let (range, profiled) = giant_fraction_threshold(&cfg, &model, &search).unwrap();
        assert_eq!(range, 0.0);
        assert_eq!(range, all_events_threshold(&cfg, &model, 0.95));
        assert_eq!(profiled, 22, "every step reaches bin 0");
        let point = find_critical_range(&cfg, &model, &search).unwrap();
        assert_eq!(point.range, 1e-9);
    }

    #[test]
    fn pass_two_profiles_a_fraction_of_a_quick_cell_and_all_of_a_frozen_one() {
        // The `critical-scaling --quick` shape at n = 16: side 64·√16,
        // paper waypoint with its pause scaled to 500 steps, 5 × 500
        // steps, target 0.99.
        let cfg = config(16, 256.0, 5, 500);
        let model = RandomWaypoint::new(0.1, 2.56, 100, 0.0).unwrap();
        let search = CriticalRangeSearch::new();
        let (range, profiled) = giant_fraction_threshold(&cfg, &model, &search).unwrap();
        assert_eq!(range, all_events_threshold(&cfg, &model, 0.99));
        assert!(0 < profiled && profiled < 2500, "profiled {profiled}");

        // Nothing moves: every step of the one placement shares its
        // critical range, so at target 1 every step reaches the answer
        // bin.
        let cfg = config(16, 256.0, 1, 80);
        let model = StationaryModel::new();
        let search = search.with_target(1.0);
        let (range, profiled) = giant_fraction_threshold(&cfg, &model, &search).unwrap();
        assert_eq!(range, all_events_threshold(&cfg, &model, 1.0));
        assert_eq!(profiled, 80);
    }

    #[test]
    fn search_validation_rejects_bad_parameters() {
        let cfg = config(8, 100.0, 1, 1);
        let m = StationaryModel::new();
        for bad in [
            CriticalRangeSearch::new().with_target(0.0),
            CriticalRangeSearch::new().with_target(1.5),
            CriticalRangeSearch::new().with_target(f64::NAN),
            CriticalRangeSearch::new().with_rel_tol(0.0),
            CriticalRangeSearch::new().with_rel_tol(-1e-3),
            CriticalRangeSearch::new().with_metric(ConnectivityMetric::KConnectivity(0)),
            CriticalRangeSearch::new().with_metric(ConnectivityMetric::KConnectivity(8)),
        ] {
            assert!(
                find_critical_range(&cfg, &m, &bad).is_err(),
                "accepted {bad:?}"
            );
        }
    }

    #[test]
    fn giant_fraction_threshold_brackets_the_target() {
        let cfg = config(12, 120.0, 3, 20);
        let model = RandomWaypoint::new(0.5, 2.0, 1, 0.0).unwrap();
        let search = CriticalRangeSearch::new()
            .with_target(0.95)
            .with_rel_tol(1e-4);
        let point = find_critical_range(&cfg, &model, &search).unwrap();
        assert!(point.range > 0.0 && point.range < cfg.region().diameter());
        assert!((point.normalized - point.range / 120.0).abs() < 1e-15);
        assert_eq!(point.probes, 2, "two merge-profile passes");
        assert_eq!(
            point.kernel,
            KernelMetrics::default(),
            "no step kernel runs"
        );
        let bisected = bisect_critical_range(&cfg, &model, &search).unwrap();
        assert!(bisected.probes > 5, "bisection should take several probes");
        assert_eq!(
            bisected.kernel,
            KernelMetrics::default(),
            "bisection probes build graphs from positions"
        );
        // Oracle: the independent fixed-range path confirms the metric
        // crosses the target at the found range and not below it.
        let below = point.range - 2.0 * 1e-4 * 120.0;
        let reports = simulate_fixed_ranges(&cfg, &model, &[point.range, below]).unwrap();
        assert!(reports[0].avg_largest_fraction() >= 0.95);
        assert!(reports[1].avg_largest_fraction() < 0.95);
    }

    #[test]
    fn exact_giant_fraction_does_not_depend_on_the_bin_width() {
        // The width only splits the work between the two passes; a tiny
        // tolerance must not allocate `diameter / width` bins either.
        let cfg = config(12, 120.0, 2, 15);
        let model = RandomWaypoint::new(0.5, 2.0, 1, 0.0).unwrap();
        let find = |rel_tol: f64| {
            let search = CriticalRangeSearch::new()
                .with_target(0.9)
                .with_rel_tol(rel_tol);
            find_critical_range(&cfg, &model, &search)
                .unwrap()
                .range
                .to_bits()
        };
        let reference = find(1e-3);
        for rel_tol in [1e-12, 1e-5, 0.05, 10.0] {
            assert_eq!(find(rel_tol), reference, "rel_tol {rel_tol}");
        }
    }

    #[test]
    fn target_met_at_zero_reports_the_bracket_floor() {
        // Two nodes start as two singletons: a giant fraction of 1/2
        // at r = 0, so target 0.5 holds before any edge. The answer
        // stays in the bisection's bracket, keeping rho_c > 0 for the
        // log-log fit.
        let cfg = config(2, 100.0, 2, 10);
        let model = RandomWaypoint::new(0.5, 2.0, 1, 0.0).unwrap();
        let search = CriticalRangeSearch::new().with_target(0.5);
        let point = find_critical_range(&cfg, &model, &search).unwrap();
        assert_eq!(point.range, 1e-9);
        assert_eq!(
            point.range,
            bisect_critical_range(&cfg, &model, &search).unwrap().range
        );
    }

    #[test]
    fn k1_connectivity_metric_matches_the_search_module() {
        // k = 1 thresholds the fraction of connected steps: the pooled
        // quantile must land where the bisection oracle does.
        let cfg = config(10, 100.0, 3, 15);
        let model = RandomWaypoint::new(0.5, 2.0, 1, 0.0).unwrap();
        let tol = 1e-4 * 100.0;
        let search = CriticalRangeSearch::new()
            .with_metric(ConnectivityMetric::KConnectivity(1))
            .with_target(0.9)
            .with_rel_tol(1e-4);
        let point = find_critical_range(&cfg, &model, &search).unwrap();
        let reference = bisect_critical_range(&cfg, &model, &search).unwrap().range;
        assert!(
            (point.range - reference).abs() <= 2.0 * tol,
            "k=1 finder {} vs connectivity-fraction bisection {reference}",
            point.range
        );
    }

    #[test]
    fn k_connectivity_is_one_exact_campaign() {
        // The mean of the k-connected indicator reaches the target at
        // the answer and misses it one ulp below, and bisection's
        // bracket holds the answer at its bottom.
        let cfg = config(10, 80.0, 2, 10);
        let model = RandomWaypoint::new(0.5, 2.0, 1, 0.0).unwrap();
        for k in [2, 3] {
            let metric = ConnectivityMetric::KConnectivity(k);
            let search = CriticalRangeSearch::new()
                .with_metric(metric)
                .with_target(0.8);
            let point = find_critical_range(&cfg, &model, &search).unwrap();
            assert_eq!(point.probes, 1);
            assert!(evaluate_metric(&cfg, &model, metric, point.range) >= 0.8);
            assert!(evaluate_metric(&cfg, &model, metric, point.range.next_down()) < 0.8);
            let bisected = bisect_critical_range(&cfg, &model, &search).unwrap().range;
            assert!(point.range <= bisected && bisected - point.range <= 1e-3 * 80.0);
        }
    }

    #[test]
    fn higher_k_costs_more_range() {
        let cfg = config(10, 80.0, 2, 10);
        let model = RandomWaypoint::new(0.5, 2.0, 1, 0.0).unwrap();
        let find = |k: usize| {
            let search = CriticalRangeSearch::new()
                .with_metric(ConnectivityMetric::KConnectivity(k))
                .with_target(1.0)
                .with_rel_tol(1e-4);
            find_critical_range(&cfg, &model, &search).unwrap().range
        };
        let (r1, r2, r3) = (find(1), find(2), find(3));
        assert!(
            r1 <= r2 && r2 <= r3,
            "k-connectivity ranges not monotone: {r1} {r2} {r3}"
        );
        assert!(
            r3 > r1,
            "k=3 should strictly exceed k=1 on sparse placements"
        );
    }

    #[test]
    fn fit_recovers_a_known_exponent() {
        let points: Vec<(usize, f64)> = [16usize, 32, 64, 128, 256]
            .iter()
            .map(|&n| (n, 2.0 * (n as f64).powf(-0.5)))
            .collect();
        let fit = fit_scaling_exponent(&points, 0.95).unwrap();
        assert!((fit.beta - 0.5).abs() < 1e-12);
        assert!((fit.line.r_squared - 1.0).abs() < 1e-12);
        assert_eq!(fit.points, 5);
        // Perfect data: the CI collapses onto the estimate.
        assert!(fit.ci.contains(0.5));
        assert!(fit.ci.width() < 1e-9);
        assert_eq!(fit.ci.level, 0.95);
    }

    #[test]
    fn fit_ci_brackets_noisy_data() {
        // rho = n^-0.4 with +-5% alternating noise.
        let points: Vec<(usize, f64)> = [16usize, 32, 64, 128, 256, 512]
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                let noise = if i % 2 == 0 { 1.05 } else { 0.95 };
                (n, noise * (n as f64).powf(-0.4))
            })
            .collect();
        let fit = fit_scaling_exponent(&points, 0.95).unwrap();
        assert!(fit.ci.lo < fit.beta && fit.beta < fit.ci.hi);
        assert!(fit.ci.contains(0.4), "CI {:?} should cover 0.4", fit.ci);
        assert!(fit.ci.width() > 0.0);
    }

    #[test]
    fn fit_rejects_degenerate_inputs() {
        assert!(fit_scaling_exponent(&[(16, 0.5), (32, 0.4)], 0.95).is_err());
        assert!(fit_scaling_exponent(&[(16, 0.5), (32, 0.4), (64, 0.0)], 0.95).is_err());
        assert!(fit_scaling_exponent(&[(16, 0.5), (32, 0.4), (0, 0.3)], 0.95).is_err());
        assert!(fit_scaling_exponent(&[(16, 0.5), (16, 0.4), (16, 0.3)], 0.95).is_err());
        assert!(fit_scaling_exponent(&[(16, 0.5), (32, 0.4), (64, 0.3)], 1.5).is_err());
    }
}
