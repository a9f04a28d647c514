//! The paper's literal simulator: fixed transmitting range, per-step
//! connectivity and largest-component statistics.
//!
//! §4.1: "The simulator returns the percentage of connected graphs
//! generated, the average size of the largest connected component
//! (averaged over the runs that yield a disconnected graph) and the
//! minimum size of the largest connected component. All of these
//! parameters are reported with reference both to a single iteration
//! [...] and to all the iterations."

use crate::{
    config::SimConfig,
    stream::{run_connectivity_stream, validate_range, ConnectivityObserver, StepView},
    SimError,
};
use manet_geom::Point;
use manet_graph::{minimum_spanning_tree, UnionFind};
use manet_mobility::Mobility;
use manet_stats::RunningMoments;

/// Per-iteration statistics at a fixed transmitting range.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct IterationStats {
    /// Steps simulated in this iteration.
    pub steps: usize,
    /// Steps whose communication graph was connected.
    pub connected_steps: usize,
    /// Mean largest-component size over the **disconnected** steps
    /// (`None` when every step was connected), per the paper's
    /// reporting convention.
    pub avg_largest_when_disconnected: Option<f64>,
    /// Mean largest-component size over all steps.
    pub avg_largest: f64,
    /// Minimum largest-component size over all steps.
    pub min_largest: usize,
    /// Mean number of isolated (degree-0) nodes per step.
    pub avg_isolated: f64,
    /// Mean number of connected components per step.
    pub avg_components: f64,
}

impl IterationStats {
    /// Fraction of steps with a connected graph.
    pub fn connectivity_fraction(&self) -> f64 {
        self.connected_steps as f64 / self.steps as f64
    }
}

/// Whole-campaign report at a fixed transmitting range.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct FixedRangeReport {
    /// The transmitting range simulated.
    pub range: f64,
    /// Number of nodes.
    pub nodes: usize,
    /// Per-iteration statistics, ordered by iteration index.
    pub iterations: Vec<IterationStats>,
}

impl FixedRangeReport {
    /// Overall fraction of connected steps (pooled over iterations).
    pub fn connectivity_fraction(&self) -> f64 {
        let connected: usize = self.iterations.iter().map(|i| i.connected_steps).sum();
        let steps: usize = self.iterations.iter().map(|i| i.steps).sum();
        connected as f64 / steps as f64
    }

    /// Overall mean largest-component size over disconnected steps,
    /// `None` when every step everywhere was connected. Iterations are
    /// weighted by their number of disconnected steps, so the result
    /// equals the pooled per-step mean.
    pub fn avg_largest_when_disconnected(&self) -> Option<f64> {
        let mut num = 0.0;
        let mut den = 0usize;
        for it in &self.iterations {
            if let Some(avg) = it.avg_largest_when_disconnected {
                let disconnected = it.steps - it.connected_steps;
                num += avg * disconnected as f64;
                den += disconnected;
            }
        }
        if den == 0 {
            None
        } else {
            Some(num / den as f64)
        }
    }

    /// Step-weighted pooled mean of a per-iteration, per-step metric —
    /// equals the mean over all steps of all iterations.
    fn pooled(&self, metric: impl Fn(&IterationStats) -> f64) -> f64 {
        let mut num = 0.0;
        let mut den = 0usize;
        for it in &self.iterations {
            num += metric(it) * it.steps as f64;
            den += it.steps;
        }
        num / den as f64
    }

    /// Overall mean largest-component size over **all** steps.
    pub fn avg_largest(&self) -> f64 {
        self.pooled(|it| it.avg_largest)
    }

    /// Overall mean number of isolated (degree-0) nodes per step,
    /// pooled over iterations (weighted by step count).
    pub fn avg_isolated(&self) -> f64 {
        self.pooled(|it| it.avg_isolated)
    }

    /// Overall mean number of connected components per step, pooled
    /// over iterations (weighted by step count).
    pub fn avg_components(&self) -> f64 {
        self.pooled(|it| it.avg_components)
    }

    /// Overall minimum largest-component size.
    pub fn min_largest(&self) -> usize {
        self.iterations
            .iter()
            .map(|i| i.min_largest)
            .min()
            .unwrap_or(0)
    }

    /// Mean largest-component size as a fraction of `n`.
    pub fn avg_largest_fraction(&self) -> f64 {
        self.avg_largest() / self.nodes as f64
    }
}

impl core::fmt::Display for FixedRangeReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "r={:.4}: {:.2}% connected, avg largest component {:.2} ({:.1}% of n={}), min {}",
            self.range,
            100.0 * self.connectivity_fraction(),
            self.avg_largest(),
            100.0 * self.avg_largest_fraction(),
            self.nodes,
            self.min_largest()
        )
    }
}

/// One step's connectivity at one range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StepStats {
    connected: bool,
    largest: usize,
    isolated: usize,
    components: usize,
}

/// Step `points`' statistics at each of `ranges`, all read off one
/// minimum spanning tree. Each tree edge's `d²` is
/// [`Point::distance_sq`], compared with `r·r` exactly as the graph
/// builders do:
///
/// - components = n − #{edges with `d² <= r·r`}: the tree holds a
///   minimax path between every pair, so its edges up to `r` span the
///   components of the graph at `r`;
/// - largest = the union-find maximum after merging those edges;
/// - isolated = the nodes whose shortest incident tree edge exceeds
///   `r`: the lightest edge leaving `{v}`, which is `v`'s
///   nearest-neighbour distance, lies in every MST (cut property);
/// - connected ⟺ all `n − 1` edges are within `r`.
fn range_stats<'a, const D: usize>(
    points: &[Point<D>],
    ranges: &'a [f64],
) -> impl Iterator<Item = StepStats> + 'a {
    let n = points.len();
    let mut edges: Vec<(f64, u32, u32)> = minimum_spanning_tree(points)
        .into_iter()
        .map(|e| {
            (
                points[e.a as usize].distance_sq(&points[e.b as usize]),
                e.a,
                e.b,
            )
        })
        .collect();
    edges.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut nearest = vec![f64::INFINITY; n];
    // `largest[k]`: the largest component once the `k` shortest edges
    // have merged.
    let mut uf = UnionFind::new(n);
    let mut largest = vec![uf.largest_component()];
    for &(d2, a, b) in &edges {
        for v in [a as usize, b as usize] {
            nearest[v] = nearest[v].min(d2);
        }
        uf.union(a as usize, b as usize);
        largest.push(uf.largest_component());
    }
    ranges.iter().map(move |&r| {
        let r2 = r * r;
        let merged = edges.partition_point(|e| e.0 <= r2);
        StepStats {
            connected: merged == edges.len(),
            largest: largest[merged],
            isolated: nearest.iter().filter(|&&d2| d2 > r2).count(),
            components: n - merged,
        }
    })
}

/// One range's per-step moments; the step count, connected steps and
/// minimum largest component are read off them.
#[derive(Default)]
struct RangeAccumulator {
    largest: RunningMoments,
    largest_disconnected: RunningMoments,
    isolated: RunningMoments,
    components: RunningMoments,
}

impl RangeAccumulator {
    fn push(&mut self, step: StepStats) {
        let largest = step.largest as f64;
        self.largest.push(largest);
        if !step.connected {
            self.largest_disconnected.push(largest);
        }
        self.isolated.push(step.isolated as f64);
        self.components.push(step.components as f64);
    }

    fn finish(&self) -> IterationStats {
        let steps = self.largest.count() as usize;
        IterationStats {
            steps,
            connected_steps: steps - self.largest_disconnected.count() as usize,
            avg_largest_when_disconnected: (!self.largest_disconnected.is_empty())
                .then(|| self.largest_disconnected.mean()),
            avg_largest: self.largest.mean(),
            min_largest: self.largest.min() as usize,
            avg_isolated: self.isolated.mean(),
            avg_components: self.components.mean(),
        }
    }
}

/// Observer accumulating every range's statistics from one spanning
/// tree per step.
struct FixedRangeObserver<'a> {
    ranges: &'a [f64],
    accumulators: Vec<RangeAccumulator>,
}

impl<const D: usize> ConnectivityObserver<D> for FixedRangeObserver<'_> {
    type Output = Vec<IterationStats>;

    fn observe(&mut self, view: &StepView<'_, D>) {
        let stats = range_stats(view.positions(), self.ranges);
        for (acc, step) in self.accumulators.iter_mut().zip(stats) {
            acc.push(step);
        }
    }

    fn finish(self) -> Vec<IterationStats> {
        self.accumulators
            .iter()
            .map(RangeAccumulator::finish)
            .collect()
    }
}

/// Runs the paper's simulator at each of `ranges`: one positions-only
/// campaign whose steps each build one spanning tree and threshold it
/// at every range. Returns one report per range, in the given order.
///
/// # Errors
///
/// Returns [`SimError::InvalidConfig`] when a range is not positive
/// and finite.
pub fn simulate_fixed_ranges<const D: usize, M>(
    config: &SimConfig<D>,
    model: &M,
    ranges: &[f64],
) -> Result<Vec<FixedRangeReport>, SimError>
where
    M: Mobility<D> + Clone + Send + Sync,
{
    for &r in ranges {
        validate_range(r)?;
    }
    let per_iteration = run_connectivity_stream(config, model, |_| FixedRangeObserver {
        ranges,
        accumulators: ranges.iter().map(|_| RangeAccumulator::default()).collect(),
    });
    Ok(ranges
        .iter()
        .enumerate()
        .map(|(i, &range)| FixedRangeReport {
            range,
            nodes: config.nodes(),
            iterations: per_iteration.iter().map(|stats| stats[i]).collect(),
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_graph::{AdjacencyList, ComponentSummary};
    use manet_mobility::{ModelRegistry, PaperScale, RandomWaypoint, StationaryModel};

    fn config(nodes: usize, side: f64, iterations: usize, steps: usize) -> SimConfig<2> {
        let mut b = SimConfig::<2>::builder();
        b.nodes(nodes)
            .side(side)
            .iterations(iterations)
            .steps(steps)
            .seed(5);
        b.build().unwrap()
    }

    #[test]
    fn range_is_validated() {
        let cfg = config(5, 50.0, 1, 1);
        let m = StationaryModel::new();
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(
                simulate_fixed_ranges(&cfg, &m, &[10.0, bad]).is_err(),
                "{bad}"
            );
        }
        assert_eq!(simulate_fixed_ranges(&cfg, &m, &[]).unwrap(), vec![]);
    }

    #[test]
    fn huge_range_always_connected() {
        let cfg = config(10, 50.0, 3, 5);
        let model = RandomWaypoint::new(0.5, 2.0, 0, 0.0).unwrap();
        let report = simulate_fixed_ranges(&cfg, &model, &[1000.0])
            .unwrap()
            .remove(0);
        assert_eq!(report.connectivity_fraction(), 1.0);
        assert_eq!(report.avg_largest(), 10.0);
        assert_eq!(report.min_largest(), 10);
        assert_eq!(report.avg_largest_when_disconnected(), None);
        for it in &report.iterations {
            assert_eq!(it.connectivity_fraction(), 1.0);
            assert_eq!(it.avg_largest_when_disconnected, None);
        }
    }

    #[test]
    fn tiny_range_never_connected() {
        let cfg = config(10, 1000.0, 2, 5);
        let report = simulate_fixed_ranges(&cfg, &StationaryModel::new(), &[1e-6])
            .unwrap()
            .remove(0);
        assert_eq!(report.connectivity_fraction(), 0.0);
        // Nodes essentially isolated: largest component is 1.
        assert_eq!(report.min_largest(), 1);
        assert_eq!(report.avg_largest_when_disconnected(), Some(1.0));
    }

    #[test]
    fn connectivity_fraction_matches_critical_range_series() {
        // Cross-check the fixed-range path against the quantile path.
        let cfg = config(10, 120.0, 4, 30);
        let model = RandomWaypoint::new(0.5, 3.0, 1, 0.0).unwrap();
        let crit = crate::critical::simulate_critical_ranges(&cfg, &model).unwrap();
        let ranges = [10.0, 25.0, 40.0, 70.0];
        let reports = simulate_fixed_ranges(&cfg, &model, &ranges).unwrap();
        for (r, report) in ranges.into_iter().zip(reports) {
            let from_crit = crit.connectivity_fraction_at(r);
            assert!(
                (report.connectivity_fraction() - from_crit).abs() < 1e-12,
                "mismatch at r={r}: fixed={} critical={}",
                report.connectivity_fraction(),
                from_crit
            );
        }
    }

    #[test]
    fn stationary_iterations_are_all_or_nothing() {
        let cfg = config(8, 100.0, 6, 10);
        let report = simulate_fixed_ranges(&cfg, &StationaryModel::new(), &[40.0])
            .unwrap()
            .remove(0);
        for it in &report.iterations {
            // A stationary iteration's graph never changes.
            assert!(
                it.connected_steps == 0 || it.connected_steps == it.steps,
                "stationary iteration partially connected: {it:?}"
            );
        }
    }

    #[test]
    fn display_is_informative() {
        let cfg = config(5, 50.0, 1, 2);
        let report = simulate_fixed_ranges(&cfg, &StationaryModel::new(), &[100.0])
            .unwrap()
            .remove(0);
        let text = report.to_string();
        assert!(text.contains("connected"));
        assert!(text.contains("n=5"));
    }

    #[test]
    fn avg_largest_weighted_over_iterations() {
        let cfg = config(6, 80.0, 3, 7);
        let model = RandomWaypoint::new(0.5, 2.0, 0, 0.0).unwrap();
        let report = simulate_fixed_ranges(&cfg, &model, &[30.0])
            .unwrap()
            .remove(0);
        let manual: f64 = report
            .iterations
            .iter()
            .map(|i| i.avg_largest * i.steps as f64)
            .sum::<f64>()
            / report.iterations.iter().map(|i| i.steps).sum::<usize>() as f64;
        assert!((report.avg_largest() - manual).abs() < 1e-12);
    }

    /// The graph oracle for one step at one range: the brute-force
    /// graph at `r` and its from-scratch component labelling.
    fn brute_force_stats<const D: usize>(points: &[Point<D>], r: f64) -> StepStats {
        let graph = AdjacencyList::from_points_brute_force(points, r);
        let components = ComponentSummary::of(&graph);
        StepStats {
            connected: components.is_connected(),
            largest: components.largest_size(),
            isolated: graph.isolated_nodes().len(),
            components: components.count(),
        }
    }

    /// Checks the spanning-tree statistics of `points` at every range
    /// of `ranges` against [`brute_force_stats`].
    fn assert_thresholds_match_graphs<const D: usize>(
        points: &[Point<D>],
        ranges: &[f64],
        context: &str,
    ) {
        let stats: Vec<StepStats> = range_stats(points, ranges).collect();
        assert_eq!(stats.len(), ranges.len());
        for (&r, step) in ranges.iter().zip(stats) {
            assert_eq!(step, brute_force_stats(points, r), "{context} at r = {r:e}");
        }
    }

    /// Observer checking every step's thresholds against the graph
    /// oracle at fixed ranges, at the tree's own edge lengths (where
    /// `sqrt(d²)·sqrt(d²)` may round either side of `d²`) and just
    /// below them.
    struct ThresholdOracle<'a> {
        name: &'a str,
        ranges: &'a [f64],
    }

    impl<const D: usize> ConnectivityObserver<D> for ThresholdOracle<'_> {
        type Output = usize;

        fn observe(&mut self, view: &StepView<'_, D>) {
            let points = view.positions();
            let mut lengths: Vec<f64> = minimum_spanning_tree(points)
                .iter()
                .map(|e| e.length)
                .collect();
            lengths.sort_by(f64::total_cmp);
            let mut ranges = self.ranges.to_vec();
            for q in [0, lengths.len() / 2, lengths.len() - 1] {
                ranges.extend([lengths[q], lengths[q].next_down()]);
            }
            let context = format!("{} n = {} step {}", self.name, points.len(), view.step());
            assert_thresholds_match_graphs(points, &ranges, &context);
        }

        fn finish(self) -> usize {
            0
        }
    }

    /// Runs [`ThresholdOracle`] over every registry model's
    /// trajectories at `n` nodes, with ranges around the connectivity
    /// radius.
    fn check_registry_thresholds(n: usize, steps: usize) {
        let side = 1000.0;
        let registry = ModelRegistry::<2>::with_builtins();
        let scale = PaperScale::new(side).with_pause(3);
        let base = side * ((n as f64).ln() / (core::f64::consts::PI * n as f64)).sqrt();
        let ranges = [0.5 * base, 0.8 * base, base, 1.3 * base, 2.0 * base];
        for name in registry.names() {
            let model = registry.build(name, &scale).unwrap();
            let mut b = SimConfig::<2>::builder();
            b.nodes(n).side(side).iterations(1).steps(steps).seed(31);
            let cfg = b.build().unwrap();
            run_connectivity_stream(&cfg, &model, |_| ThresholdOracle {
                name,
                ranges: &ranges,
            });
        }
    }

    #[test]
    fn spanning_tree_thresholds_match_graph_oracle_on_every_registry_model() {
        check_registry_thresholds(64, 6);
        check_registry_thresholds(256, 3);
    }

    /// The n = 2000 half, where the spanning tree is grid-Kruskal's
    /// (release-only: the brute-force oracle is O(n²) per range).
    #[test]
    #[ignore = "release-only: brute-force oracle at n = 2000"]
    fn spanning_tree_thresholds_match_graph_oracle_at_scale() {
        check_registry_thresholds(2000, 3);
    }

    /// Ties on the range boundary: a pair at `d² = 13`, where
    /// `sqrt(13)²` rounds below 13, and a lattice whose every tree edge
    /// is exactly 5, each at `r` and `r.next_down()`.
    #[test]
    fn thresholds_compare_squared_lengths_at_ties() {
        let pair = [Point::new([0.0, 0.0]), Point::new([2.0, 3.0])];
        let r = 13f64.sqrt();
        assert!(r * r < 13.0, "the fixture needs sqrt(13)² to round down");
        assert_thresholds_match_graphs(&pair, &[r.next_down(), r], "pair");
        let lattice: Vec<Point<2>> = (0..16)
            .map(|i| Point::new([5.0 * (i % 4) as f64, 5.0 * (i / 4) as f64]))
            .collect();
        assert_thresholds_match_graphs(&lattice, &[5f64.next_down(), 5.0], "lattice");
        let connected: Vec<bool> = range_stats(&lattice, &[5f64.next_down(), 5.0])
            .map(|s| s.connected)
            .collect();
        assert_eq!(connected, [false, true]);
    }

    #[test]
    fn reports_follow_the_callers_range_order() {
        let cfg = config(12, 200.0, 2, 15);
        let model = RandomWaypoint::new(0.5, 3.0, 1, 0.0).unwrap();
        let ranges = [60.0, 20.0, 45.0, 20.0];
        let reports = simulate_fixed_ranges(&cfg, &model, &ranges).unwrap();
        for (r, report) in ranges.into_iter().zip(&reports) {
            assert_eq!(report.range, r);
            assert_eq!(
                report,
                &simulate_fixed_ranges(&cfg, &model, &[r]).unwrap()[0]
            );
        }
    }
}

#[cfg(test)]
mod straggler_tests {
    use super::*;
    use crate::config::SimConfig;
    use manet_mobility::RandomWaypoint;

    /// Paper §4.2 (Figures 4–5 discussion): "on the average
    /// disconnection is caused by only a few isolated nodes" — at a
    /// range near r90 the stragglers outside the giant component are
    /// mostly isolated singletons.
    #[test]
    fn disconnection_near_r90_is_mostly_isolated_singletons() {
        let mut b = SimConfig::<2>::builder();
        b.nodes(32).side(512.0).iterations(5).steps(200).seed(71);
        let cfg = b.build().unwrap();
        let model = RandomWaypoint::new(0.5, 5.12, 40, 0.0).unwrap();
        // Locate r90 from the critical series, then inspect structure.
        let crit = crate::critical::simulate_critical_ranges(&cfg, &model).unwrap();
        let r90 = crit.pooled().unwrap().smallest_covering(0.9).unwrap();
        let report = simulate_fixed_ranges(&cfg, &model, &[r90])
            .unwrap()
            .remove(0);
        let stragglers = 32.0 - report.avg_largest();
        let isolated: f64 = report
            .iterations
            .iter()
            .map(|i| i.avg_isolated * i.steps as f64)
            .sum::<f64>()
            / report.iterations.iter().map(|i| i.steps).sum::<usize>() as f64;
        assert!(
            stragglers < 2.0,
            "near r90 only a couple of nodes should be detached, got {stragglers}"
        );
        // Most detached nodes are singletons: the isolated count
        // accounts for the bulk of the straggler mass.
        assert!(
            isolated >= stragglers * 0.5,
            "stragglers {stragglers} vs isolated {isolated}"
        );
        // Component count stays barely above 1.
        let comps: f64 = report
            .iterations
            .iter()
            .map(|i| i.avg_components * i.steps as f64)
            .sum::<f64>()
            / report.iterations.iter().map(|i| i.steps).sum::<usize>() as f64;
        assert!(comps < 3.0, "avg components {comps}");
    }

    #[test]
    fn isolated_and_component_counts_consistent() {
        let mut b = SimConfig::<2>::builder();
        b.nodes(12).side(400.0).iterations(3).steps(30).seed(72);
        let cfg = b.build().unwrap();
        let model = RandomWaypoint::new(0.5, 4.0, 0, 0.0).unwrap();
        let report = simulate_fixed_ranges(&cfg, &model, &[60.0])
            .unwrap()
            .remove(0);
        for it in &report.iterations {
            // Components at least 1; isolated nodes each form their own
            // component, so components >= isolated (when n > isolated).
            assert!(it.avg_components >= 1.0);
            assert!(it.avg_components >= it.avg_isolated / 12.0);
            assert!(it.avg_isolated >= 0.0 && it.avg_isolated <= 12.0);
        }
    }
}
