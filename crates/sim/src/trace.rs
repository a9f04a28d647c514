//! Temporal-trace campaigns: the `manet-trace` subsystem driven by the
//! connectivity stream.
//!
//! The trace observer is the one consumer of edge deltas, so it owns
//! the step kernel: per iteration it builds a
//! [`DynamicGraph`] + [`DynamicComponents`] from the step-0 positions
//! and steps them on every later step. The kernel serves each step
//! from its moving cell grid (never the brute-force `O(n²)`): a
//! moved-node rescan when fewer than half the nodes move, otherwise a
//! bulk rescan, or a verify pass over the Verlet candidate cache once
//! its cost model arms it. It reuses every buffer and polices the
//! model's declared displacement bound
//! ([`Mobility::max_step_displacement`]) on every step. Link
//! bookkeeping downstream of it is delta-proportional; the component
//! summary merges on insert-only steps and relabels the snapshot on any
//! step that removes an edge. [`simulate_trace`] runs the whole
//! campaign and pools the records into a [`TraceSummary`].

use crate::{
    config::SimConfig,
    stream::{run_connectivity_stream, validate_range, ConnectivityObserver, StepView},
    SimError,
};
use manet_graph::{DynamicComponents, DynamicGraph};
use manet_mobility::Mobility;
use manet_obs::KernelMetrics;
use manet_trace::{TemporalRecord, TraceRecorder, TraceSummary};

/// Observer folding one iteration's trajectory into temporal metrics
/// at one transmitting range, through its own step kernel.
struct TraceObserver<'a, const D: usize> {
    config: &'a SimConfig<D>,
    range: f64,
    bound: Option<f64>,
    /// The iteration's kernel, built from the step-0 positions.
    kernel: Option<(DynamicGraph<D>, DynamicComponents)>,
    recorder: TraceRecorder,
}

impl<'a, const D: usize> TraceObserver<'a, D> {
    fn new(config: &'a SimConfig<D>, range: f64, bound: Option<f64>) -> Self {
        TraceObserver {
            config,
            range,
            bound,
            kernel: None,
            recorder: TraceRecorder::new(config.nodes(), config.steps()),
        }
    }
}

impl<const D: usize> ConnectivityObserver<D> for TraceObserver<'_, D> {
    type Output = TemporalRecord;

    fn observe(&mut self, view: &StepView<'_, D>) {
        let positions = view.positions();
        let (dg, dc) = self.kernel.get_or_insert_with(|| {
            let dg = DynamicGraph::new(positions, self.config.side(), self.range)
                .with_displacement_bound(self.bound);
            (dg, DynamicComponents::new(positions.len()))
        });
        if view.step() > 0 {
            dg.step(positions);
        }
        dc.apply(dg.last_diff(), dg.graph());
        // End-to-end oracle check: the incrementally-maintained
        // components must match a from-scratch labeling of the
        // snapshot at every step, not just stay self-consistent.
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
        self.recorder.observe_with(dg.last_diff(), dg.graph(), dc);
    }

    fn finish(mut self) -> TemporalRecord {
        if let Some((dg, dc)) = &self.kernel {
            self.recorder.set_kernel_metrics(&KernelMetrics {
                grid: dg.grid_metrics().copied().unwrap_or_default(),
                step: *dg.metrics(),
                components: *dc.metrics(),
            });
        }
        self.recorder.finish()
    }
}

/// Runs a campaign and pools every iteration's temporal metrics. The
/// step kernel takes its side from `config` and its displacement bound
/// from `model`.
///
/// # Errors
///
/// Returns [`SimError::InvalidConfig`] when `range` is not positive
/// and finite, and propagates aggregation errors.
pub fn simulate_trace<const D: usize, M>(
    config: &SimConfig<D>,
    model: &M,
    range: f64,
) -> Result<TraceSummary, SimError>
where
    M: Mobility<D> + Clone + Send + Sync,
{
    validate_range(range)?;
    let bound = model.max_step_displacement();
    let records =
        run_connectivity_stream(config, model, |_| TraceObserver::new(config, range, bound));
    TraceSummary::aggregate(&records).map_err(SimError::Trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_geom::{Point, Region};
    use manet_graph::{AdjacencyList, ComponentSummary};
    use manet_mobility::{Drunkard, RandomWaypoint, StationaryModel};
    use proptest::prelude::*;
    use rand::Rng;

    fn config(iterations: usize, steps: usize, threads: Option<usize>) -> SimConfig<2> {
        let mut b = SimConfig::<2>::builder();
        b.nodes(12)
            .side(120.0)
            .iterations(iterations)
            .steps(steps)
            .seed(2002);
        if let Some(t) = threads {
            b.threads(t);
        }
        b.build().unwrap()
    }

    #[test]
    fn range_is_validated() {
        let cfg = config(1, 1, None);
        let m = StationaryModel::new();
        assert!(simulate_trace(&cfg, &m, 0.0).is_err());
        assert!(simulate_trace(&cfg, &m, f64::NAN).is_err());
        assert!(simulate_trace(&cfg, &m, -3.0).is_err());
    }

    #[test]
    fn stationary_network_has_no_link_events_after_step_zero() {
        let cfg = config(3, 25, None);
        let s = simulate_trace(&cfg, &StationaryModel::new(), 40.0).unwrap();
        assert_eq!(s.iterations, 3);
        assert_eq!(s.steps, 25);
        // Static topology: every link censored, nothing completes.
        assert_eq!(s.link_lifetime.count, 0);
        assert_eq!(s.inter_contact.count, 0);
        assert_eq!(s.outage.count, 0);
        // Availability is all-or-nothing per iteration.
        assert!((s.availability * 3.0).fract().abs() < 1e-12);
        assert_eq!(s.repair.never_repaired, s.repair.disconnected_iterations);
    }

    #[test]
    fn availability_matches_fixed_range_path() {
        let cfg = config(4, 40, None);
        let model = RandomWaypoint::new(0.5, 4.0, 2, 0.0).unwrap();
        for r in [25.0, 45.0, 70.0] {
            let trace = simulate_trace(&cfg, &model, r).unwrap();
            let fixed = &crate::fixed::simulate_fixed_ranges(&cfg, &model, &[r]).unwrap()[0];
            assert!(
                (trace.availability - fixed.connectivity_fraction()).abs() < 1e-12,
                "r={r}: trace {} vs fixed {}",
                trace.availability,
                fixed.connectivity_fraction()
            );
        }
    }

    #[test]
    fn mobile_network_produces_link_events() {
        let cfg = config(3, 60, None);
        let model = RandomWaypoint::new(1.0, 6.0, 0, 0.0).unwrap();
        let s = simulate_trace(&cfg, &model, 35.0).unwrap();
        assert!(s.link_events_per_step > 0.0, "motion must churn edges");
        assert!(
            s.link_lifetime.count > 0,
            "60 fast steps must complete some lifetime"
        );
        assert!(!s.link_lifetime.survival.is_empty());
        assert_eq!(s.link_lifetime.survival[0].survival, 1.0);
    }

    #[test]
    fn larger_range_means_longer_lifetimes_and_higher_availability() {
        let cfg = config(4, 60, None);
        let model = RandomWaypoint::new(1.0, 5.0, 0, 0.0).unwrap();
        let small = simulate_trace(&cfg, &model, 20.0).unwrap();
        let large = simulate_trace(&cfg, &model, 60.0).unwrap();
        assert!(large.availability >= small.availability);
        assert!(large.path_availability >= small.path_availability);
        if let (Some(s), Some(l)) = (small.link_lifetime.mean, large.link_lifetime.mean) {
            assert!(l > s, "lifetime should grow with range: {s} vs {l}");
        }
    }

    #[test]
    fn results_identical_across_thread_counts() {
        let model = RandomWaypoint::new(0.5, 4.0, 1, 0.25).unwrap();
        let single = simulate_trace(&config(6, 30, Some(1)), &model, 45.0).unwrap();
        let multi = simulate_trace(&config(6, 30, Some(4)), &model, 45.0).unwrap();
        assert_eq!(single, multi);
    }

    /// Wraps the trace observer and checks its kernel after every step
    /// against a from-scratch rebuild: the snapshot, its edge delta
    /// against the previous rebuild, and its components.
    struct RebuildOracle<'a> {
        trace: TraceObserver<'a, 2>,
        prev: Option<AdjacencyList>,
    }

    impl ConnectivityObserver<2> for RebuildOracle<'_> {
        type Output = usize;

        fn observe(&mut self, view: &StepView<'_, 2>) {
            self.trace.observe(view);
            let (dg, dc) = self.trace.kernel.as_ref().unwrap();
            let rebuilt =
                AdjacencyList::from_points_brute_force(view.positions(), self.trace.range);
            assert_eq!(dg.graph(), &rebuilt, "snapshot diverged from rebuild");
            let older = self
                .prev
                .take()
                .unwrap_or_else(|| AdjacencyList::empty(rebuilt.len()));
            assert_eq!(
                dg.last_diff(),
                &older.diff(&rebuilt),
                "edge delta diverged from the rebuild-and-diff oracle"
            );
            let oracle = ComponentSummary::of(&rebuilt);
            assert_eq!(dc.count(), oracle.count());
            assert_eq!(dc.largest_size(), oracle.largest_size());
            let mut sizes = oracle.sizes().to_vec();
            sizes.sort_unstable();
            assert_eq!(dc.sizes_sorted(), sizes);
            self.prev = Some(rebuilt);
        }

        fn finish(self) -> usize {
            self.trace.recorder.finish().steps
        }
    }

    /// Steps checked per iteration by [`RebuildOracle`].
    fn checked_steps<M>(cfg: &SimConfig<2>, model: &M, range: f64) -> Vec<usize>
    where
        M: Mobility<2> + Clone + Send + Sync,
    {
        let bound = model.max_step_displacement();
        run_connectivity_stream(cfg, model, |_| RebuildOracle {
            trace: TraceObserver::new(cfg, range, bound),
            prev: None,
        })
    }

    #[test]
    fn kernel_matches_rebuild_oracle_every_step() {
        let model = RandomWaypoint::new(1.0, 8.0, 0, 0.0).unwrap();
        assert_eq!(
            checked_steps(&config(3, 40, None), &model, 40.0),
            vec![40; 3]
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn kernel_matches_rebuild_oracle_over_models(
            model_kind in 0u8..3,
            nodes in 2usize..20,
            side in 50.0..200.0f64,
            range_frac in 0.05..0.5f64,
            steps in 1usize..25,
            seed in any::<u64>(),
        ) {
            let mut b = SimConfig::<2>::builder();
            b.nodes(nodes).side(side).iterations(2).steps(steps).seed(seed);
            let cfg = b.build().unwrap();
            let range = range_frac * side;
            let outs = match model_kind {
                0 => checked_steps(&cfg, &StationaryModel::new(), range),
                1 => checked_steps(
                    &cfg,
                    &RandomWaypoint::new(0.1, 0.05 * side, 1, 0.1).unwrap(),
                    range,
                ),
                _ => checked_steps(&cfg, &Drunkard::new(0.1, 0.3, 0.05 * side).unwrap(), range),
            };
            prop_assert_eq!(outs, vec![steps, steps]);
        }
    }

    /// A model that lies about its displacement bound must still yield
    /// exact snapshots (the kernel falls back to the full diff), never
    /// silent corruption.
    #[test]
    fn kernel_survives_models_that_lie_about_their_displacement_bound() {
        /// Teleports every node every step while declaring a 0.5 bound.
        #[derive(Clone, Debug)]
        struct LyingTeleporter;

        impl Mobility<2> for LyingTeleporter {
            fn init(&mut self, _: &[Point<2>], _: &Region<2>, _: &mut dyn Rng) {}
            fn step(&mut self, positions: &mut [Point<2>], region: &Region<2>, rng: &mut dyn Rng) {
                for p in positions {
                    *p = region.sample_uniform(rng);
                }
            }
            fn name(&self) -> &'static str {
                "lying-teleporter"
            }
            fn max_step_displacement(&self) -> Option<f64> {
                Some(0.5) // a lie: steps teleport across the region
            }
        }

        let mut b = SimConfig::<2>::builder();
        b.nodes(16).side(120.0).iterations(3).steps(20).seed(808);
        let cfg = b.build().unwrap();
        assert_eq!(checked_steps(&cfg, &LyingTeleporter, 35.0), vec![20; 3]);
    }

    /// 24 nodes, 3 iterations of 25 steps, with the kernel knobs set by
    /// `knobs`.
    fn knob_config(knobs: impl FnOnce(&mut crate::config::SimConfigBuilder<2>)) -> SimConfig<2> {
        let mut b = SimConfig::<2>::builder();
        b.nodes(24).side(120.0).iterations(3).steps(25).seed(808);
        knobs(&mut b);
        b.build().unwrap()
    }

    /// Pinning the step kernel's thread count to 1, the only value it
    /// accepts, leaves the whole summary, kernel counters included,
    /// identical to leaving it unset.
    #[test]
    fn outputs_identical_across_step_thread_counts() {
        let model = RandomWaypoint::new(0.5, 5.0, 1, 0.25).unwrap();
        let serial = simulate_trace(&knob_config(|_| {}), &model, 35.0).unwrap();
        let pinned = knob_config(|b| {
            b.step_threads(1);
        });
        assert_eq!(simulate_trace(&pinned, &model, 35.0).unwrap(), serial);
    }
}
