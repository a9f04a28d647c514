//! The incremental connectivity spine: one step-driver for every
//! pipeline.
//!
//! [`run_connectivity_stream`] owns the per-step loop: it moves the
//! nodes, drives [`DynamicGraph::step`] and [`DynamicComponents::apply`]
//! per step and hands each [`ConnectivityObserver`] a [`StepView`] with
//! the positions plus (when a transmitting range is given) the snapshot
//! graph, the incrementally-maintained components, and the step's
//! [`EdgeDiff`] — so the hot loop is delta-apply, never
//! rebuild-and-relabel. The kernel rescans only moved nodes over a
//! [`MovingCellGrid`](manet_geom::MovingCellGrid) and reuses every
//! buffer, so a whole iteration runs allocation-free after its first
//! step, with the model's declared displacement bound
//! ([`Mobility::max_step_displacement`]) policed on every step.
//!
//! # Determinism contract
//!
//! Each iteration draws from its own seed
//! ([`SeedSequence::seed_for`]) and keeps no cross-iteration state, so
//! results are bit-identical across thread counts for a fixed master
//! seed. The incremental components are property-tested bit-identical
//! to the [`manet_graph::ComponentSummary::of`] oracle at every step,
//! which is what licenses the byte-identical experiment goldens in
//! `tests/goldens/`.

use crate::{config::SimConfig, SimError};
use manet_geom::Point;
use manet_graph::parallel::{default_threads, run_indexed};
use manet_graph::{AdjacencyList, DynamicComponents, DynamicGraph, EdgeDiff};
use manet_mobility::Mobility;
use manet_obs::KernelMetrics;
use manet_stats::SeedSequence;
use rand::{rngs::StdRng, SeedableRng};

/// Per-step link-layer state maintained by the stream when it runs at
/// a transmitting range.
pub struct LinkView<'a> {
    range: f64,
    graph: &'a AdjacencyList,
    components: &'a DynamicComponents,
    diff: &'a EdgeDiff,
    kernel: KernelMetrics,
}

impl LinkView<'_> {
    /// The transmitting range the snapshot is built at.
    pub fn range(&self) -> f64 {
        self.range
    }

    /// The step's communication-graph snapshot.
    pub fn graph(&self) -> &AdjacencyList {
        self.graph
    }

    /// The incrementally-maintained component summary of the snapshot.
    pub fn components(&self) -> &DynamicComponents {
        self.components
    }

    /// The edge delta from the previous step (step 0 reports every
    /// initial edge as added, per [`DynamicGraph::initial_diff`]).
    pub fn diff(&self) -> &EdgeDiff {
        self.diff
    }

    /// The kernel's deterministic counters, *cumulative since the
    /// iteration's first step* — grid commits, step-kernel path
    /// decisions and rescan volumes, component-tracker rebuild events.
    /// The value at the final step is the iteration's total; observers
    /// that want it fold the latest view (see
    /// `TraceRecorder::set_kernel_metrics`). Pure event counts:
    /// identical across thread counts for a fixed seed.
    pub fn kernel_metrics(&self) -> &KernelMetrics {
        &self.kernel
    }
}

/// Everything a [`ConnectivityObserver`] may consume about one step.
pub struct StepView<'a, const D: usize> {
    step: usize,
    positions: &'a [Point<D>],
    link: Option<LinkView<'a>>,
}

impl<const D: usize> StepView<'_, D> {
    /// The step index (0 is the initial placement).
    pub fn step(&self) -> usize {
        self.step
    }

    /// The node positions at this step.
    pub fn positions(&self) -> &[Point<D>] {
        self.positions
    }

    /// The link-layer state, when the stream runs at a transmitting
    /// range; `None` for positions-only pipelines.
    pub fn link(&self) -> Option<&LinkView<'_>> {
        self.link.as_ref()
    }

    #[expect(
        clippy::expect_used,
        reason = "documented panic: observers require a range-bound stream"
    )]
    fn link_expected(&self) -> &LinkView<'_> {
        self.link
            .as_ref()
            .expect("observer requires a stream run with a transmitting range")
    }

    /// The step's graph snapshot.
    ///
    /// # Panics
    ///
    /// Panics when the stream runs without a range.
    pub fn graph(&self) -> &AdjacencyList {
        self.link_expected().graph()
    }

    /// The step's incremental component summary.
    ///
    /// # Panics
    ///
    /// Panics when the stream runs without a range.
    pub fn components(&self) -> &DynamicComponents {
        self.link_expected().components()
    }

    /// The step's edge delta.
    ///
    /// # Panics
    ///
    /// Panics when the stream runs without a range.
    pub fn diff(&self) -> &EdgeDiff {
        self.link_expected().diff()
    }

    /// The kernel's cumulative deterministic counters (see
    /// [`LinkView::kernel_metrics`]).
    ///
    /// # Panics
    ///
    /// Panics when the stream runs without a range.
    pub fn kernel_metrics(&self) -> &KernelMetrics {
        self.link_expected().kernel_metrics()
    }
}

/// Consumes the per-step [`StepView`]s of one trajectory and produces
/// a per-iteration output.
///
/// [`run_connectivity_stream`] builds one observer per iteration and
/// feeds it steps `0..steps` in order (step 0 is the initial
/// placement).
pub trait ConnectivityObserver<const D: usize> {
    /// The per-iteration result this observer produces.
    type Output: Send;

    /// Called once per step, in step order.
    fn observe(&mut self, view: &StepView<'_, D>);

    /// Consumes the observer, yielding the iteration's result.
    fn finish(self) -> Self::Output;
}

/// Two observers fed the same steps: one pass over a trajectory yields
/// both per-iteration outputs (see [`crate::simulate_campaign`]).
impl<const D: usize, A, B> ConnectivityObserver<D> for (A, B)
where
    A: ConnectivityObserver<D>,
    B: ConnectivityObserver<D>,
{
    type Output = (A::Output, B::Output);

    fn observe(&mut self, view: &StepView<'_, D>) {
        self.0.observe(view);
        self.1.observe(view);
    }

    fn finish(self) -> Self::Output {
        (self.0.finish(), self.1.finish())
    }
}

/// Runs a campaign through the connectivity spine: every iteration's
/// steps flow `DynamicGraph::step → DynamicComponents::apply →
/// observer`, in parallel over iterations.
///
/// `range = Some(r)` maintains the graph/components at transmitting
/// range `r` for the observers; `None` skips graph maintenance for
/// positions-only pipelines (critical range, merge profiles,
/// displacement statistics). `make_observer(iteration)` must be cheap
/// and thread-safe; the model is cloned per iteration and
/// re-initialized on the fresh placement. Each iteration's kernel is
/// built from `config` (side, step threads, skin) and the model's
/// declared per-step displacement bound
/// ([`Mobility::max_step_displacement`]), which the kernel polices on
/// every step. All per-step scratch lives inside the kernel state, so
/// after the first step of an iteration the loop performs no
/// allocation.
///
/// Returns the per-iteration observer outputs **ordered by iteration
/// index**.
///
/// # Determinism
///
/// Iteration `i` draws all randomness from
/// `StdRng::seed_from_u64(SeedSequence::new(config.seed()).seed_for(i))`
/// — placement, then model init, then one model step per step after
/// step 0 — independent of which worker thread executes it; iterations
/// fan out through [`run_indexed`], which returns them in index order.
///
/// # Errors
///
/// Returns [`SimError::InvalidConfig`] when `range` is `Some` but not
/// positive and finite.
pub fn run_connectivity_stream<const D: usize, M, O, F>(
    config: &SimConfig<D>,
    model: &M,
    range: Option<f64>,
    make_observer: F,
) -> Result<Vec<O::Output>, SimError>
where
    M: Mobility<D> + Clone + Send + Sync,
    O: ConnectivityObserver<D>,
    F: Fn(usize) -> O + Send + Sync,
{
    if let Some(r) = range {
        if !(r.is_finite() && r > 0.0) {
            return Err(SimError::InvalidConfig {
                reason: format!("transmitting range must be positive and finite, got {r}"),
            });
        }
    }
    let region = config.region();
    let seq = SeedSequence::new(config.seed());
    let threads = config.threads().unwrap_or_else(default_threads);
    let bound = model.max_step_displacement();
    let iterations = vec![(); config.iterations()];
    Ok(run_indexed(threads, iterations, |iteration, ()| {
        let mut rng = StdRng::seed_from_u64(seq.seed_for(iteration as u64));
        let mut positions = region.place_uniform(config.nodes(), &mut rng);
        let mut model = model.clone();
        model.init(&positions, &region, &mut rng);
        let mut observer = make_observer(iteration);
        let mut kernel = range.map(|r| {
            let dg = DynamicGraph::new(&positions, config.side(), r)
                .with_displacement_bound(bound)
                .with_step_threads(config.step_threads().unwrap_or(1))
                .with_skin(config.skin());
            (dg, DynamicComponents::new(positions.len()))
        });
        for step in 0..config.steps() {
            if step > 0 {
                model.step(&mut positions, &region, &mut rng);
            }
            let link = kernel
                .as_mut()
                .map(|(dg, dc)| advance_link(step, &positions, dg, dc));
            observer.observe(&StepView {
                step,
                positions: &positions,
                link,
            });
        }
        observer.finish()
    }))
}

/// Advances one iteration's kernel to `positions` (step 0 keeps the
/// initial snapshot) and assembles the step's [`LinkView`].
///
/// Kept out of line: inlined into [`run_connectivity_stream`], it
/// slowed the positions-only lane, which never calls it, by about 5%
/// of `critical-scaling --quick` CPU time on a 2-vCPU Xeon host.
#[inline(never)]
fn advance_link<'a, const D: usize>(
    step: usize,
    positions: &[Point<D>],
    dg: &'a mut DynamicGraph<D>,
    dc: &'a mut DynamicComponents,
) -> LinkView<'a> {
    if step > 0 {
        dg.step(positions);
    }
    dc.apply(dg.last_diff(), dg.graph());
    // End-to-end oracle check: the incrementally-maintained
    // components must match a from-scratch labeling of the
    // snapshot at every step (the module-level determinism
    // contract), not just stay self-consistent.
    #[cfg(feature = "strict-invariants")]
    {
        let oracle = manet_graph::ComponentSummary::of(dg.graph());
        debug_assert_eq!(
            dc.count(),
            oracle.count(),
            "strict-invariants: incremental component count diverged from the oracle"
        );
        debug_assert_eq!(
            dc.largest_size(),
            oracle.largest_size(),
            "strict-invariants: incremental largest component diverged from the oracle"
        );
    }
    LinkView {
        range: dg.range(),
        graph: dg.graph(),
        components: dc,
        diff: dg.last_diff(),
        kernel: KernelMetrics {
            grid: dg.grid_metrics().copied().unwrap_or_default(),
            step: *dg.metrics(),
            components: *dc.metrics(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_graph::ComponentSummary;
    use manet_mobility::{RandomWaypoint, StationaryModel};

    fn config(iterations: usize, steps: usize, threads: Option<usize>) -> SimConfig<2> {
        let mut b = SimConfig::<2>::builder();
        b.nodes(10)
            .side(120.0)
            .iterations(iterations)
            .steps(steps)
            .seed(808);
        if let Some(t) = threads {
            b.threads(t);
        }
        b.build().unwrap()
    }

    /// Observer asserting the stream's incremental state matches the
    /// from-scratch oracle at every step.
    struct OracleObserver {
        steps_seen: usize,
        expect_link: bool,
    }

    impl<const D: usize> ConnectivityObserver<D> for OracleObserver {
        type Output = usize;

        fn observe(&mut self, view: &StepView<'_, D>) {
            assert_eq!(view.step(), self.steps_seen);
            assert_eq!(view.link().is_some(), self.expect_link);
            if let Some(link) = view.link() {
                let oracle = ComponentSummary::of(link.graph());
                assert_eq!(link.components().count(), oracle.count());
                assert_eq!(link.components().largest_size(), oracle.largest_size());
                let mut sizes = oracle.sizes().to_vec();
                sizes.sort_unstable();
                assert_eq!(link.components().sizes_sorted(), sizes);
                // The diff stream balances against the snapshot.
                assert_eq!(link.graph().len(), view.positions().len());
            }
            self.steps_seen += 1;
        }

        fn finish(self) -> usize {
            self.steps_seen
        }
    }

    #[test]
    fn linked_stream_matches_oracle_every_step() {
        let model = RandomWaypoint::new(1.0, 8.0, 0, 0.0).unwrap();
        let outs = run_connectivity_stream(&config(3, 40, None), &model, Some(40.0), |_| {
            OracleObserver {
                steps_seen: 0,
                expect_link: true,
            }
        })
        .unwrap();
        assert_eq!(outs, vec![40, 40, 40]);
    }

    #[test]
    fn positions_only_stream_has_no_link_state() {
        let outs =
            run_connectivity_stream(&config(2, 10, None), &StationaryModel::new(), None, |_| {
                OracleObserver {
                    steps_seen: 0,
                    expect_link: false,
                }
            })
            .unwrap();
        assert_eq!(outs, vec![10, 10]);
    }

    #[test]
    fn range_is_validated_centrally() {
        let m = StationaryModel::new();
        for bad in [0.0, -2.0, f64::NAN, f64::INFINITY] {
            let err =
                run_connectivity_stream(&config(1, 1, None), &m, Some(bad), |_| OracleObserver {
                    steps_seen: 0,
                    expect_link: true,
                });
            assert!(matches!(err, Err(SimError::InvalidConfig { .. })), "{bad}");
        }
    }

    #[test]
    fn outputs_identical_across_thread_counts() {
        /// Records (count, largest) per step — a full connectivity fingerprint.
        struct Fingerprint(Vec<(usize, usize)>);
        impl<const D: usize> ConnectivityObserver<D> for Fingerprint {
            type Output = Vec<(usize, usize)>;
            fn observe(&mut self, view: &StepView<'_, D>) {
                let c = view.components();
                self.0.push((c.count(), c.largest_size()));
            }
            fn finish(self) -> Self::Output {
                self.0
            }
        }
        let model = RandomWaypoint::new(0.5, 5.0, 1, 0.25).unwrap();
        let single = run_connectivity_stream(&config(6, 30, Some(1)), &model, Some(35.0), |_| {
            Fingerprint(Vec::new())
        })
        .unwrap();
        let multi = run_connectivity_stream(&config(6, 30, Some(4)), &model, Some(35.0), |_| {
            Fingerprint(Vec::new())
        })
        .unwrap();
        assert_eq!(single, multi);
    }

    /// The intra-step knob must be as invisible as the iteration-level
    /// one: identical connectivity fingerprints at any `step_threads`.
    #[test]
    fn outputs_identical_across_step_thread_counts() {
        struct Fingerprint(Vec<(usize, usize, usize)>);
        impl<const D: usize> ConnectivityObserver<D> for Fingerprint {
            type Output = Vec<(usize, usize, usize)>;
            fn observe(&mut self, view: &StepView<'_, D>) {
                let c = view.components();
                let churn = view.diff().churn();
                self.0.push((c.count(), c.largest_size(), churn));
            }
            fn finish(self) -> Self::Output {
                self.0
            }
        }
        let model = RandomWaypoint::new(0.5, 5.0, 1, 0.25).unwrap();
        let run = |step_threads: Option<usize>| {
            let mut b = SimConfig::<2>::builder();
            b.nodes(24).side(120.0).iterations(3).steps(25).seed(808);
            if let Some(t) = step_threads {
                b.step_threads(t);
            }
            let cfg = b.build().unwrap();
            run_connectivity_stream(&cfg, &model, Some(35.0), |_| Fingerprint(Vec::new())).unwrap()
        };
        let serial = run(None);
        for t in [2usize, 4, 7] {
            assert_eq!(run(Some(t)), serial, "step_threads={t} changed the stream");
        }
    }

    /// The Verlet skin is a throughput knob, not a semantic one: the
    /// per-step connectivity fingerprint (components, largest, churn)
    /// is identical whether the candidate cache is off, auto-armed, or
    /// oversized.
    #[test]
    fn outputs_identical_across_skin_settings() {
        use manet_graph::Skin;
        struct Fingerprint(Vec<(usize, usize, usize)>);
        impl<const D: usize> ConnectivityObserver<D> for Fingerprint {
            type Output = Vec<(usize, usize, usize)>;
            fn observe(&mut self, view: &StepView<'_, D>) {
                let c = view.components();
                let churn = view.diff().churn();
                self.0.push((c.count(), c.largest_size(), churn));
            }
            fn finish(self) -> Self::Output {
                self.0
            }
        }
        // Zero pause: all-moving, the regime where the cache arms.
        let model = RandomWaypoint::new(0.8, 6.0, 0, 0.0).unwrap();
        let run = |skin: Skin| {
            let mut b = SimConfig::<2>::builder();
            b.nodes(24).side(120.0).iterations(3).steps(25).seed(808);
            b.skin(skin);
            let cfg = b.build().unwrap();
            run_connectivity_stream(&cfg, &model, Some(35.0), |_| Fingerprint(Vec::new())).unwrap()
        };
        let off = run(Skin::Off);
        assert_eq!(run(Skin::Auto), off, "auto skin changed the stream");
        assert_eq!(
            run(Skin::Fixed(20.0)),
            off,
            "oversized fixed skin changed the stream"
        );
    }

    #[test]
    #[should_panic(expected = "transmitting range")]
    fn graph_accessor_panics_without_range() {
        struct Touch;
        impl<const D: usize> ConnectivityObserver<D> for Touch {
            type Output = ();
            fn observe(&mut self, view: &StepView<'_, D>) {
                let _ = view.graph();
            }
            fn finish(self) {}
        }
        let _ = run_connectivity_stream(
            &config(2, 1, Some(2)),
            &StationaryModel::new(),
            None,
            |_| Touch,
        );
    }

    /// Positions-only observer recording the first node's trajectory.
    struct FirstNodeTrace(Vec<Point<2>>);

    impl ConnectivityObserver<2> for FirstNodeTrace {
        type Output = Vec<Point<2>>;

        fn observe(&mut self, view: &StepView<'_, 2>) {
            self.0.push(view.positions()[0]);
        }

        fn finish(self) -> Vec<Point<2>> {
            self.0
        }
    }

    fn first_node_traces<M>(config: &SimConfig<2>, model: &M) -> Vec<Vec<Point<2>>>
    where
        M: Mobility<2> + Clone + Send + Sync,
    {
        run_connectivity_stream(config, model, None, |_| FirstNodeTrace(Vec::new())).unwrap()
    }

    #[test]
    fn observer_sees_every_step() {
        let outs = first_node_traces(&config(3, 17, Some(1)), &StationaryModel::new());
        assert_eq!(outs.len(), 3);
        for trace in outs {
            assert_eq!(trace.len(), 17);
        }
    }

    #[test]
    fn stationary_model_yields_constant_trajectories() {
        let outs = first_node_traces(&config(2, 10, None), &StationaryModel::new());
        for trace in outs {
            assert!(trace.windows(2).all(|w| w[0] == w[1]));
        }
    }

    #[test]
    fn results_identical_across_thread_counts() {
        let model = RandomWaypoint::new(0.5, 3.0, 2, 0.25).unwrap();
        let single = first_node_traces(&config(6, 40, Some(1)), &model);
        let multi = first_node_traces(&config(6, 40, Some(4)), &model);
        assert_eq!(single, multi);
    }

    #[test]
    fn iterations_have_distinct_placements() {
        let outs = first_node_traces(&config(4, 1, None), &StationaryModel::new());
        // First node's position should differ across iterations.
        let firsts: Vec<_> = outs.iter().map(|t| t[0]).collect();
        for i in 0..firsts.len() {
            for j in (i + 1)..firsts.len() {
                assert_ne!(firsts[i], firsts[j]);
            }
        }
    }

    #[test]
    fn different_seeds_differ_same_seed_repeats() {
        let model = StationaryModel::new();
        let a = first_node_traces(&config(2, 1, None), &model);
        let b = first_node_traces(&config(2, 1, None), &model);
        assert_eq!(a, b);
        let c = first_node_traces(&config(2, 1, None).with_seed(777), &model);
        assert_ne!(a, c);
    }

    #[test]
    fn observer_factory_receives_iteration_index() {
        struct IndexObserver(usize);
        impl ConnectivityObserver<2> for IndexObserver {
            type Output = usize;
            fn observe(&mut self, _: &StepView<'_, 2>) {}
            fn finish(self) -> usize {
                self.0
            }
        }
        let outs = run_connectivity_stream(
            &config(5, 1, Some(3)),
            &StationaryModel::new(),
            None,
            IndexObserver,
        )
        .unwrap();
        assert_eq!(outs, vec![0, 1, 2, 3, 4]);
    }
}
