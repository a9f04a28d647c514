//! The incremental connectivity spine: one step-driver for every
//! pipeline.
//!
//! Before this module, each observer re-derived its own graph state
//! per step — the fixed-range pipeline rebuilt an adjacency list and
//! re-ran full component labeling, the trace pipeline maintained its
//! own [`DynamicGraph`], and the rest worked from raw positions — six
//! copies of the per-step setup code. [`ConnectivityStream`] owns that
//! loop once: it drives [`DynamicGraph::step`] and
//! [`DynamicComponents::apply`] per step and hands each
//! [`ConnectivityObserver`] a [`StepView`] with the positions plus (when
//! a transmitting range is configured) the snapshot graph, the
//! incrementally-maintained components, and the step's [`EdgeDiff`] —
//! so the hot loop is delta-apply, never rebuild-and-relabel. Since
//! the zero-rebuild step kernel landed, the graph side is incremental
//! too: the kernel rescans only moved nodes over a
//! [`MovingCellGrid`](manet_geom::MovingCellGrid) and reuses every
//! buffer, so a whole iteration runs allocation-free after its first
//! step, with the model's declared displacement bound
//! ([`Mobility::max_step_displacement`]) policed on every step.
//!
//! # Determinism contract
//!
//! The stream adds no randomness and no cross-iteration state: it is a
//! per-iteration adapter over [`run_simulation`], so results remain
//! bit-identical across thread counts for a fixed master seed. The
//! incremental components are property-tested bit-identical to the
//! [`manet_graph::ComponentSummary::of`] oracle at every step, which is
//! what licenses the byte-identical experiment goldens in
//! `tests/goldens/`.

use crate::{
    config::SimConfig,
    engine::{run_simulation, StepObserver},
    SimError,
};
use manet_geom::Point;
use manet_graph::{AdjacencyList, DynamicComponents, DynamicGraph, EdgeDiff, Skin};
use manet_mobility::Mobility;
use manet_obs::KernelMetrics;

/// Per-step link-layer state maintained by the stream when a
/// transmitting range is configured.
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

    /// The link-layer state, when the stream was configured with a
    /// transmitting range; `None` for positions-only pipelines.
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
            .expect("observer requires a ConnectivityStream built with a transmitting range")
    }

    /// The step's graph snapshot.
    ///
    /// # Panics
    ///
    /// Panics when the stream was built without a range.
    pub fn graph(&self) -> &AdjacencyList {
        self.link_expected().graph()
    }

    /// The step's incremental component summary.
    ///
    /// # Panics
    ///
    /// Panics when the stream was built without a range.
    pub fn components(&self) -> &DynamicComponents {
        self.link_expected().components()
    }

    /// The step's edge delta.
    ///
    /// # Panics
    ///
    /// Panics when the stream was built without a range.
    pub fn diff(&self) -> &EdgeDiff {
        self.link_expected().diff()
    }

    /// The kernel's cumulative deterministic counters (see
    /// [`LinkView::kernel_metrics`]).
    ///
    /// # Panics
    ///
    /// Panics when the stream was built without a range.
    pub fn kernel_metrics(&self) -> &KernelMetrics {
        self.link_expected().kernel_metrics()
    }
}

/// Consumes the per-step [`StepView`]s of one trajectory and produces
/// a per-iteration output — the connectivity-spine counterpart of the
/// engine's raw [`StepObserver`].
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

/// Adapter owning the per-step `DynamicGraph::step` +
/// `DynamicComponents::apply` loop for one iteration, delegating each
/// assembled [`StepView`] to an inner [`ConnectivityObserver`].
///
/// All per-step scratch (the moving grid, the diff buffers, the
/// component bookkeeping) lives inside the held kernel state, so after
/// the first step of an iteration the stream performs no allocation.
///
/// Built per iteration by [`run_connectivity_stream`]; constructable
/// directly for replaying hand-rolled trajectories in tests.
pub struct ConnectivityStream<O, const D: usize> {
    side: f64,
    range: Option<f64>,
    /// The mobility model's declared per-step displacement bound,
    /// handed to the kernel's contract check.
    displacement_bound: Option<f64>,
    /// Intra-step worker threads handed to the kernel's sharded bulk
    /// rescan (`>= 1`; a performance knob, never a semantic one).
    step_threads: usize,
    /// Verlet skin policy handed to the kernel's candidate cache
    /// (default [`Skin::Auto`]; a performance knob, never a semantic
    /// one).
    skin: Skin,
    state: Option<(DynamicGraph<D>, DynamicComponents)>,
    inner: O,
}

impl<O, const D: usize> ConnectivityStream<O, D> {
    /// Creates a stream over `[0, side]^D`; `range = None` runs the
    /// positions-only fast path (no graph maintenance at all).
    ///
    /// # Panics
    ///
    /// Panics when `range` is `Some` but not positive and finite —
    /// the same inputs [`run_connectivity_stream`] rejects with
    /// [`SimError::InvalidConfig`]; a NaN range would otherwise build
    /// silently-edgeless snapshots.
    pub fn new(side: f64, range: Option<f64>, inner: O) -> Self {
        Self::with_displacement_bound(side, range, None, inner)
    }

    /// [`ConnectivityStream::new`] plus the mobility model's declared
    /// per-step displacement bound (see
    /// [`Mobility::max_step_displacement`]): the incremental kernel
    /// polices it every step and falls back to the full
    /// rebuild-and-diff path on violation.
    ///
    /// # Panics
    ///
    /// Panics on an invalid range (as [`ConnectivityStream::new`]) or
    /// a NaN/infinite/negative bound.
    pub fn with_displacement_bound(
        side: f64,
        range: Option<f64>,
        displacement_bound: Option<f64>,
        inner: O,
    ) -> Self {
        if let Some(r) = range {
            assert!(
                r.is_finite() && r > 0.0,
                "transmitting range must be positive and finite, got {r}"
            );
        }
        if let Some(b) = displacement_bound {
            assert!(
                b.is_finite() && b >= 0.0,
                "displacement bound must be finite and non-negative, got {b}"
            );
        }
        ConnectivityStream {
            side,
            range,
            displacement_bound,
            step_threads: 1,
            skin: Skin::default(),
            state: None,
            inner,
        }
    }

    /// Sets the intra-step worker-thread count for the kernel's
    /// sharded bulk rescan (chainable; default 1 = serial). Every
    /// observable — snapshots, diffs, counters, artifacts — is
    /// bit-identical across values (see
    /// [`DynamicGraph::set_step_threads`]).
    ///
    /// # Panics
    ///
    /// Panics when `threads` is zero.
    pub fn with_step_threads(mut self, threads: usize) -> Self {
        assert!(threads >= 1, "step_threads must be at least 1");
        self.step_threads = threads;
        self
    }

    /// Sets the kernel's Verlet skin policy (chainable; default
    /// [`Skin::Auto`]). Like the thread knob, purely a performance
    /// setting: every observable is bit-identical across values (see
    /// [`DynamicGraph::with_skin`]).
    ///
    /// # Panics
    ///
    /// Panics when `skin` is [`Skin::Fixed`] with a non-finite or
    /// non-positive radius.
    pub fn with_skin(mut self, skin: Skin) -> Self {
        if let Skin::Fixed(s) = skin {
            assert!(
                s.is_finite() && s > 0.0,
                "fixed skin must be positive and finite, got {s}"
            );
        }
        self.skin = skin;
        self
    }
}

impl<const D: usize, O: ConnectivityObserver<D>> StepObserver<D> for ConnectivityStream<O, D> {
    type Output = O::Output;

    fn observe(&mut self, step: usize, positions: &[Point<D>]) {
        let Some(range) = self.range else {
            self.inner.observe(&StepView {
                step,
                positions,
                link: None,
            });
            return;
        };
        match self.state.as_mut() {
            None => {
                let dg = DynamicGraph::new(positions, self.side, range)
                    .with_displacement_bound(self.displacement_bound)
                    .with_step_threads(self.step_threads)
                    .with_skin(self.skin);
                self.state = Some((dg, DynamicComponents::new(positions.len())));
            }
            Some((dg, _)) => dg.step(positions),
        }
        #[expect(clippy::expect_used, reason = "state initialized earlier in this call")]
        let (dg, dc) = self.state.as_mut().expect("state initialized above");
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
        self.inner.observe(&StepView {
            step,
            positions,
            link: Some(LinkView {
                range,
                graph: dg.graph(),
                components: dc,
                diff: dg.last_diff(),
                kernel: KernelMetrics {
                    grid: dg.grid_metrics().copied().unwrap_or_default(),
                    step: *dg.metrics(),
                    components: *dc.metrics(),
                },
            }),
        });
    }

    fn finish(self) -> O::Output {
        self.inner.finish()
    }
}

/// Runs a campaign through the connectivity spine: every iteration's
/// steps flow `DynamicGraph::advance → DynamicComponents::apply →
/// observer`, in parallel over iterations with the engine's
/// deterministic seeding.
///
/// `range = Some(r)` maintains the graph/components at transmitting
/// range `r` for the observers; `None` skips graph maintenance for
/// positions-only pipelines (critical range, merge profiles,
/// displacement statistics).
///
/// # Errors
///
/// Returns [`SimError::InvalidConfig`] when `range` is `Some` but not
/// positive and finite, and propagates engine errors.
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
    let side = config.side();
    // The model's declared per-step displacement bound arms the step
    // kernel's contract check in every iteration's stream.
    let bound = model.max_step_displacement();
    let step_threads = config.step_threads().unwrap_or(1);
    let skin = config.skin();
    run_simulation(config, model, move |iteration| {
        ConnectivityStream::with_displacement_bound(side, range, bound, make_observer(iteration))
            .with_step_threads(step_threads)
            .with_skin(skin)
    })
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
        let mut stream = ConnectivityStream::new(10.0, None, Touch);
        StepObserver::<2>::observe(&mut stream, 0, &[]);
    }
}
