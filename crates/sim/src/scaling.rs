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
//! * **Giant fraction: one positions-only merge-profile pass.** A
//!   step's largest component at `r` is the step function
//!   [`MergeProfile::largest_component_at`]: 1 plus the size growth of
//!   every profile event at a range `<= r`. Over `total = iterations ·
//!   steps · n` node slots the pooled mean reaches the target at `r`
//!   exactly when the growth of the events strictly above `r` is at
//!   most `allow`, the largest deficit the target tolerates (found once
//!   by binary search). The answer is the lowest event range whose
//!   pooled growth strictly above it is at most `allow`, or 0 when the
//!   target holds before any event. Pooled growth above an event is at
//!   least its growth above within its own iteration, so an event that
//!   already has more than `allow` above it there can never be the
//!   answer. Each iteration therefore keeps only its top tie groups
//!   while the growth above them is at most `allow`, compacting when
//!   its buffer doubles, and pushes nothing below the lowest kept range
//!   (its floor) once the kept growth exceeds `allow`. Finished
//!   iterations merge into one shared pool compacted by the same rule,
//!   so the answer does not depend on merge order, and an iteration
//!   that starts later takes the pool's floor as its own: every event
//!   below it already has more than `allow` growth above it in the
//!   pool. Each step runs [`FloorProfile`], which skips a step whose
//!   previous tree is still shorter than the floor at the new
//!   positions (its MST bottleneck, the last event, lies below the
//!   floor). Otherwise it grows the step's tree from the previous
//!   tree's edges below the floor, where that costs fewer pairs than a
//!   cold build, and sorts only the tree edges at or above it.
//!   Memory is `O(allow + largest tie group)` pooled events plus one
//!   buffer per worker, and the answer is exact in the graph builders'
//!   `d² <= r·r` convention.
//! * **k-connectivity: the pooled quantile.** Step `t` is k-connected
//!   at `r` ⟺ `c_t^(k) <= r`, so the threshold is an order statistic
//!   of the per-step thresholds, from one campaign. For `k = 1`,
//!   `c_t` is the MST bottleneck on the warm-start tracker
//!   ([`simulate_raw_critical_series`]); for `k >= 2` it is
//!   [`critical_range_k`]. Both are exact in the graph builders'
//!   `d² <= r·r` convention.
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
//!
//! [`MergeProfile::largest_component_at`]: manet_graph::MergeProfile::largest_component_at

use crate::{
    config::SimConfig,
    critical::simulate_raw_critical_series,
    search::bisect_monotone,
    stream::{run_connectivity_stream, ConnectivityObserver, StepView},
    SimError,
};
use manet_graph::kconn::{critical_range_k, is_k_connected};
use manet_graph::{AdjacencyList, ComponentSummary, FloorCounts, FloorProfile};
use manet_mobility::Mobility;
use manet_obs::KernelMetrics;
use manet_stats::{ConfidenceInterval, FrozenSeries, LinearFit};
use std::sync::{Mutex, PoisonError};

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
    /// (chainable): the bracket width of [`bisect_critical_range`].
    /// The exact rules of [`find_critical_range`] do not read it.
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
    /// Seeded campaigns run over the cell's trajectories: 1 for each
    /// exact rule (the giant fraction's merge-profile pass, the
    /// k-connectivity quantile), and one per probe from
    /// [`bisect_critical_range`].
    pub probes: usize,
    /// Step-kernel counters, always zero: no path runs the step kernel.
    /// The finder reads positions only, and each bisection probe builds
    /// its graphs from positions. The field stays because the CLI
    /// forwards it to `ObsSession` and the benchmark harness reads it.
    pub kernel: KernelMetrics,
    /// The giant-fraction rule's [`FloorProfile`] counters, summed
    /// over the cell's iterations; zero for the other rules. An
    /// iteration starts from the pool's floor, so with more than one
    /// engine thread the counts (never the range) depend on the order
    /// the iterations finish in.
    pub finder: FloorCounts,
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

/// The least cap of an iteration's giant-fraction buffer: shorter
/// buffers are compacted only when the iteration ends.
const MIN_RETAIN_CAP: usize = 256;

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
    let (range, finder) = match search.metric {
        ConnectivityMetric::GiantFraction => {
            let (range, _, finder) = giant_fraction_threshold(config, model, search.target);
            (range, finder)
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
            let series = FrozenSeries::new(series.concat())?;
            (
                series.smallest_covering(search.target)?,
                FloorCounts::default(),
            )
        }
    };
    let range = range.clamp(BRACKET_LO, config.region().diameter());
    Ok(CriticalPoint {
        range,
        normalized: range / config.side(),
        probes: 1,
        kernel: KernelMetrics::default(),
        finder,
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
        finder: FloorCounts::default(),
    })
}

/// The largest deficit `allow` the target tolerates: the pooled mean
/// over `total = iterations · steps · n` node slots reaches `target`
/// with `total − allow` slots in largest components, and not with one
/// fewer. The predicate holds at `total` (`target <= 1`) and fails at
/// 0 (`target > 0`), so a binary search finds the boundary.
fn deficit_allowance(total: u64, target: f64) -> u64 {
    let reaches = |filled: u64| filled as f64 / total as f64 >= target;
    // reaches(total − lo) holds and reaches(total − hi) does not.
    let (mut lo, mut hi) = (0, total);
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if reaches(total - mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Keeps the top of `events` (`(range bits, growth)` pairs): whole tie
/// groups, highest range first, while the growth strictly above the
/// group is at most `allow`. Once the kept growth exceeds `allow`,
/// returns the lowest kept range: every dropped event then has more
/// than `allow` growth above it here, and so in any pool holding these
/// events, and can never be the answer.
fn retain_top(events: &mut Vec<(u64, u64)>, allow: u64) -> Option<u64> {
    // Non-negative f64s order as their bit patterns.
    events.sort_unstable_by_key(|e| std::cmp::Reverse(e.0));
    let mut above = 0;
    let mut kept = 0;
    for group in events.chunk_by(|a, b| a.0 == b.0) {
        if above > allow {
            break;
        }
        above += group.iter().map(|e| e.1).sum::<u64>();
        kept += group.len();
    }
    events.truncate(kept);
    events.last().filter(|_| above > allow).map(|e| e.0)
}

/// The cell's kept growth events, the lowest range any compaction of
/// them has kept (0 until one exceeds `allow`), the most events any
/// buffer or the pool held at once, and the iterations' profiler
/// counters.
#[derive(Default)]
struct Pool {
    events: Vec<(u64, u64)>,
    floor: u64,
    peak: usize,
    finder: FloorCounts,
}

/// One iteration's growth events at or above its `floor`, which starts
/// at the pool's: [`FloorProfile`] profiles each step above the floor,
/// the buffer is compacted by [`retain_top`] whenever it passes `cap`,
/// and it merges into the shared pool when the iteration ends.
struct TopGrowth<'a> {
    allow: u64,
    floor: u64,
    cap: usize,
    events: Vec<(u64, u64)>,
    peak: usize,
    profile: FloorProfile,
    pool: &'a Mutex<Pool>,
}

impl TopGrowth<'_> {
    fn compact(&mut self) {
        self.peak = self.peak.max(self.events.len());
        if let Some(floor) = retain_top(&mut self.events, self.allow) {
            self.floor = floor;
        }
        self.cap = (2 * self.events.len()).max(MIN_RETAIN_CAP);
    }
}

impl<const D: usize> ConnectivityObserver<D> for TopGrowth<'_> {
    type Output = ();

    fn observe(&mut self, view: &StepView<'_, D>) {
        let floor = f64::from_bits(self.floor);
        let growth = self.profile.events_at_or_above(view.positions(), floor);
        self.events
            .extend(growth.iter().map(|&(range, g)| (range.to_bits(), g)));
        if self.events.len() > self.cap {
            self.compact();
        }
    }

    fn finish(mut self) {
        self.compact();
        // A poisoned pool is never answered from: `run_indexed`
        // re-raises the panic that poisoned it once the workers stop.
        let mut pool = self.pool.lock().unwrap_or_else(PoisonError::into_inner);
        pool.events.append(&mut self.events);
        pool.peak = pool.peak.max(self.peak).max(pool.events.len());
        pool.finder.merge(&self.profile.counts());
        if let Some(floor) = retain_top(&mut pool.events, self.allow) {
            pool.floor = pool.floor.max(floor);
        }
    }
}

/// The exact giant-fraction threshold in the graph builders'
/// `d² <= r·r` convention: the smallest `r` with
/// `Σ_steps largest_component_at(r) / (iterations · steps · n) >= target`,
/// from one positions-only pass over the cell's trajectories, the most
/// events held at once, and the profilers' counters.
fn giant_fraction_threshold<const D: usize, M>(
    config: &SimConfig<D>,
    model: &M,
    target: f64,
) -> (f64, usize, FloorCounts)
where
    M: Mobility<D> + Clone + Send + Sync,
{
    let total = (config.iterations() * config.steps() * config.nodes()) as u64;
    let allow = deficit_allowance(total, target);
    let pool = Mutex::new(Pool::default());
    run_connectivity_stream(config, model, |_| TopGrowth {
        allow,
        floor: pool.lock().unwrap_or_else(PoisonError::into_inner).floor,
        cap: MIN_RETAIN_CAP,
        events: Vec::new(),
        peak: 0,
        profile: FloorProfile::new(),
        pool: &pool,
    });
    let mut pool = pool.into_inner().unwrap_or_else(PoisonError::into_inner);
    // The lowest group whose growth tips the deficit past `allow` is
    // the answer; when none does, the target holds before any event.
    let range = retain_top(&mut pool.events, allow).map_or(0.0, f64::from_bits);
    (range, pool.peak, pool.finder)
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
    use manet_graph::MergeProfile;
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

    /// Every `(range, growth)` event of every step of the cell, from
    /// [`MergeProfile::of`].
    fn all_events<M>(cfg: &SimConfig<2>, model: &M) -> Vec<(f64, u64)>
    where
        M: Mobility<2> + Clone + Send + Sync,
    {
        struct AllEvents(Vec<(f64, u64)>);
        impl ConnectivityObserver<2> for AllEvents {
            type Output = Vec<(f64, u64)>;
            fn observe(&mut self, view: &StepView<'_, 2>) {
                let mut size = 1;
                for &(range, s) in MergeProfile::of(view.positions()).events() {
                    self.0.push((range, u64::from(s - size)));
                    size = s;
                }
            }
            fn finish(self) -> Vec<(f64, u64)> {
                self.0
            }
        }
        run_connectivity_stream(cfg, model, |_| AllEvents(Vec::new()))
            .into_iter()
            .flatten()
            .collect()
    }

    /// The answer the kept events must reproduce bit for bit: every
    /// event of every step, sorted by range.
    fn all_events_threshold<M>(cfg: &SimConfig<2>, model: &M, target: f64) -> f64
    where
        M: Mobility<2> + Clone + Send + Sync,
    {
        let mut events = all_events(cfg, model);
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

    /// `iterations · steps · n`, the node slots a cell's mean pools.
    fn slots(cfg: &SimConfig<2>) -> u64 {
        (cfg.iterations() * cfg.steps() * cfg.nodes()) as u64
    }

    #[test]
    fn answer_tie_group_straddles_the_floor_and_the_iterations() {
        // Steps 1.. cycle through ten rows of 4 nodes, each one event
        // of growth 3: one row at spacing 5, six at 3, three at 1.
        // Target 0.89 leaves allow = 396 of 3,600 slots. Each
        // iteration's first compaction (257 events) finds more than
        // 396 growth at or above 3, so its floor lands on 3 and its
        // later 3-rows are pushed at the floor. Pooled, the 5-rows and
        // step 0 hold at most 279 growth above 3: the answer is the
        // tie group at 3, gathered from all three iterations.
        let cfg = config(4, 100.0, 3, 300);
        assert_eq!(deficit_allowance(slots(&cfg), 0.89), 396);
        let mut layouts = vec![row(4, 5.0)];
        layouts.extend(std::iter::repeat_n(row(4, 3.0), 6));
        layouts.extend(std::iter::repeat_n(row(4, 1.0), 3));
        let model = Script::new(layouts);
        let (range, peak, _) = giant_fraction_threshold(&cfg, &model, 0.89);
        assert_eq!(range, 3.0);
        assert_eq!(range, all_events_threshold(&cfg, &model, 0.89));
        assert!(peak < all_events(&cfg, &model).len(), "peak {peak}");
    }

    #[test]
    fn script_trajectory_is_screened_after_its_first_step() {
        // From step 1 on, four nodes sit on a row at spacing 1: every
        // spanning tree of it has pairs at most 3 apart, and its
        // profile is one event of growth 3 at range 1.
        struct Screened {
            profile: FloorProfile,
            floor: f64,
            events: Vec<(usize, f64, u64)>,
        }
        impl ConnectivityObserver<2> for Screened {
            type Output = (Vec<(usize, f64, u64)>, u64);
            fn observe(&mut self, view: &StepView<'_, 2>) {
                let step = view.step();
                let events = self
                    .profile
                    .events_at_or_above(view.positions(), self.floor);
                self.events
                    .extend(events.iter().map(|&(r, g)| (step, r, g)));
            }
            fn finish(self) -> Self::Output {
                let counts = self.profile.counts();
                (self.events, counts.steps - counts.screened)
            }
        }
        let cfg = config(4, 100.0, 1, 10);
        let model = Script::new(vec![row(4, 1.0)]);
        let run = |floor: f64| {
            let mut out = run_connectivity_stream(&cfg, &model, |_| Screened {
                profile: FloorProfile::new(),
                floor,
                events: Vec::new(),
            });
            let (mut events, trees) = out.pop().unwrap();
            // Step 0 is the seeded uniform placement: check the row.
            events.retain(|e| e.0 > 0);
            (events, trees)
        };
        // Above 3, step 0's tree already screens step 1: one tree.
        assert_eq!(run(3.5), (vec![], 1));
        // Just above 1, step 1 still has stale pairs up to 3 apart and
        // builds the row's tree (cold or warm), which screens every
        // later step.
        assert_eq!(run(1.0_f64.next_up()), (vec![], 2));
        // At 1 itself the row's tie group is an event on every step.
        let (events, trees) = run(1.0);
        assert_eq!(trees, 10);
        assert_eq!(events, (1..10).map(|s| (s, 1.0, 3)).collect::<Vec<_>>());
    }

    #[test]
    fn target_one_is_the_pooled_r100() {
        // allow = 0: only each iteration's top tie group survives.
        let cfg = config(12, 120.0, 3, 40);
        let model = RandomWaypoint::new(0.5, 2.0, 1, 0.0).unwrap();
        assert_eq!(deficit_allowance(slots(&cfg), 1.0), 0);
        let (range, ..) = giant_fraction_threshold(&cfg, &model, 1.0);
        let r100 = simulate_critical_ranges(&cfg, &model)
            .unwrap()
            .pooled()
            .unwrap()
            .max();
        assert_eq!(range.to_bits(), r100.to_bits());
        assert_eq!(range, all_events_threshold(&cfg, &model, 1.0));

        // Two nodes in opposite corners are a diameter apart.
        let cfg = config(2, 1024.0, 1, 5);
        let corners = Script::new(vec![vec![
            Point::new([0.0, 0.0]),
            Point::new([1024.0, 1024.0]),
        ]]);
        let (range, ..) = giant_fraction_threshold(&cfg, &corners, 1.0);
        assert_eq!(range, cfg.region().diameter());
        assert_eq!(range, all_events_threshold(&cfg, &corners, 1.0));
    }

    #[test]
    fn coincident_pairs_answer_in_bin_zero_and_profile_every_step() {
        // Two iterations of step 0 (two singletons) and ten coincident
        // steps (one pair at r = 0): 42 of 44 nodes at r = 0 reach 0.95.
        let cfg = config(2, 100.0, 2, 11);
        let model = Script::new(vec![vec![Point::new([5.0, 5.0]); 2]]);
        let (range, ..) = giant_fraction_threshold(&cfg, &model, 0.95);
        assert_eq!(range, 0.0);
        assert_eq!(range, all_events_threshold(&cfg, &model, 0.95));
        let search = CriticalRangeSearch::new().with_target(0.95);
        let point = find_critical_range(&cfg, &model, &search).unwrap();
        assert_eq!(point.range, 1e-9);
    }

    #[test]
    fn allowance_is_the_last_deficit_that_reaches_the_target() {
        let reaches = |total: u64, filled: u64, target: f64| filled as f64 / total as f64 >= target;
        for total in [1, 2, 3, 7, 100, 3_600, 40_000, 1_000_003, 50 * 2_000 * 256] {
            for target in [1e-9, 0.3, 0.5, 0.89, 0.9, 0.99, 0.999, 1.0 - 1e-12, 1.0] {
                let allow = deficit_allowance(total, target);
                assert!(allow < total, "{total} {target}");
                assert!(reaches(total, total - allow, target), "{total} {target}");
                assert!(
                    !reaches(total, total - allow - 1, target),
                    "{total} {target}"
                );
            }
        }
    }

    #[test]
    fn answer_moves_up_one_group_when_the_allowance_drops_by_one() {
        // At target (total − D) / total the allowance is exactly D, the
        // pooled growth strictly above some tie group: that group is
        // the answer, and one slot less of allowance moves it to the
        // group above.
        let cfg = config(4, 100.0, 2, 60);
        let model = Script::new(vec![row(4, 1.0), row(4, 2.0), row(4, 4.0), row(4, 3.0)]);
        let total = slots(&cfg);
        let mut events = all_events(&cfg, &model);
        events.sort_by(|a, b| b.0.total_cmp(&a.0));
        let mut above = 0;
        let mut higher = None;
        for group in events.chunk_by(|a, b| a.0 == b.0) {
            let at = (total - above) as f64 / total as f64;
            assert_eq!(deficit_allowance(total, at), above);
            let (range, ..) = giant_fraction_threshold(&cfg, &model, at);
            assert_eq!(range, group[0].0);
            assert_eq!(range, all_events_threshold(&cfg, &model, at));
            if let Some(higher) = higher {
                let tighter = (total - above + 1) as f64 / total as f64;
                let (range, ..) = giant_fraction_threshold(&cfg, &model, tighter);
                assert_eq!(range, higher);
                assert_eq!(range, all_events_threshold(&cfg, &model, tighter));
            }
            above += group.iter().map(|e| e.1).sum::<u64>();
            higher = Some(group[0].0);
        }
    }

    #[test]
    fn kept_events_stay_within_twice_the_allowance_and_ties() {
        // The `critical-scaling --quick` shape at n = 16: side 64·√16,
        // paper waypoint with its pause scaled to 500 steps, 5 × 500
        // steps, target 0.99 (allow = 400 of 40,000 slots).
        let cfg = config(16, 256.0, 5, 500);
        let model = RandomWaypoint::new(0.1, 2.56, 100, 0.0).unwrap();
        let allow = deficit_allowance(slots(&cfg), 0.99) as usize;
        let mut events = all_events(&cfg, &model);
        events.sort_by(|a, b| a.0.total_cmp(&b.0));
        let ties = events
            .chunk_by(|a, b| a.0 == b.0)
            .map(<[_]>::len)
            .max()
            .unwrap();
        let (range, peak, _) = giant_fraction_threshold(&cfg, &model, 0.99);
        assert_eq!(range, all_events_threshold(&cfg, &model, 0.99));
        // A buffer compacts once it passes max(2 · kept, 256), kept
        // being at most allow + ties, so it holds at most that plus one
        // step's n − 1 events; the pool holds at most two kept sets.
        let bound = (2 * (allow + ties)).max(MIN_RETAIN_CAP) + cfg.nodes() - 1;
        assert!(peak <= bound, "peak {peak} over {bound}");
        assert!(peak * 10 < events.len(), "peak {peak} of {}", events.len());
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
        assert_eq!(point.probes, 1, "one merge-profile pass");
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
    fn exact_giant_fraction_does_not_depend_on_rel_tol() {
        // Only the bisection oracle reads the tolerance.
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
