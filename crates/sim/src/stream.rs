//! The connectivity spine: one step-driver for every pipeline.
//!
//! [`run_connectivity_stream`] owns the per-step loop: it places the
//! nodes, moves them one mobility step at a time and hands each
//! [`ConnectivityObserver`] a [`StepView`] of the positions. Every
//! range-dependent quantity is the observer's business: the critical
//! range, merge-profile and `fixed` observers read spanning trees of
//! the positions (`fixed` thresholds one per step at all its ranges),
//! and the temporal trace (`crate::trace`) owns the one step kernel
//! ([`manet_graph::DynamicGraph`]) that streams edge deltas.
//!
//! # Determinism contract
//!
//! Each iteration draws from its own seed
//! ([`SeedSequence::seed_for`]) and keeps no cross-iteration state, so
//! results are bit-identical across thread counts for a fixed master
//! seed, which is what licenses the byte-identical experiment goldens
//! in `tests/goldens/`.

use crate::parallel::{default_threads, run_indexed};
use crate::{config::SimConfig, SimError};
use manet_geom::Point;
use manet_mobility::Mobility;
use manet_stats::SeedSequence;
use rand::{rngs::StdRng, SeedableRng};

/// Everything a [`ConnectivityObserver`] may consume about one step.
pub struct StepView<'a, const D: usize> {
    step: usize,
    positions: &'a [Point<D>],
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

/// Checks that a transmitting range is positive and finite: the one
/// range validation shared by `fixed` and `trace`.
pub(crate) fn validate_range(r: f64) -> Result<(), SimError> {
    if r.is_finite() && r > 0.0 {
        Ok(())
    } else {
        Err(SimError::InvalidConfig {
            reason: format!("transmitting range must be positive and finite, got {r}"),
        })
    }
}

/// Runs a campaign through the connectivity spine: every iteration's
/// steps flow `Mobility::step → observer`, in parallel over
/// iterations.
///
/// `make_observer(iteration)` must be cheap and thread-safe; the model
/// is cloned per iteration and re-initialized on the fresh placement.
/// Positions are updated in place, so the loop itself allocates
/// nothing after the placement.
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
pub fn run_connectivity_stream<const D: usize, M, O, F>(
    config: &SimConfig<D>,
    model: &M,
    make_observer: F,
) -> Vec<O::Output>
where
    M: Mobility<D> + Clone + Send + Sync,
    O: ConnectivityObserver<D>,
    F: Fn(usize) -> O + Send + Sync,
{
    let region = config.region();
    let seq = SeedSequence::new(config.seed());
    let threads = config.threads().unwrap_or_else(default_threads);
    let iterations = vec![(); config.iterations()];
    run_indexed(threads, iterations, |iteration, ()| {
        let mut rng = StdRng::seed_from_u64(seq.seed_for(iteration as u64));
        let mut positions = region.place_uniform(config.nodes(), &mut rng);
        let mut model = model.clone();
        model.init(&positions, &region, &mut rng);
        let mut observer = make_observer(iteration);
        for step in 0..config.steps() {
            if step > 0 {
                model.step(&mut positions, &region, &mut rng);
            }
            observer.observe(&StepView {
                step,
                positions: &positions,
            });
        }
        observer.finish()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_graph::{AdjacencyList, ComponentSummary};
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

    #[test]
    fn range_is_validated_centrally() {
        for bad in [0.0, -2.0, f64::NAN, f64::INFINITY] {
            let err = validate_range(bad);
            assert!(matches!(err, Err(SimError::InvalidConfig { .. })), "{bad}");
        }
        assert!(validate_range(f64::MIN_POSITIVE).is_ok());
    }

    /// Positions-only observer recording the first node's trajectory,
    /// checking that steps arrive in order.
    struct FirstNodeTrace(Vec<Point<2>>);

    impl ConnectivityObserver<2> for FirstNodeTrace {
        type Output = Vec<Point<2>>;

        fn observe(&mut self, view: &StepView<'_, 2>) {
            assert_eq!(view.step(), self.0.len());
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
        run_connectivity_stream(config, model, |_| FirstNodeTrace(Vec::new()))
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
    fn positions_only_stream_has_no_link_state() {
        /// Checks that each view holds every node's position, inside the
        /// deployment region, with no range-bound state to consult.
        struct PositionsOnly(usize);
        impl ConnectivityObserver<2> for PositionsOnly {
            type Output = usize;
            fn observe(&mut self, view: &StepView<'_, 2>) {
                assert_eq!(view.step(), self.0);
                assert_eq!(view.positions().len(), 10);
                for p in view.positions() {
                    assert!(p.coords().iter().all(|&c| (0.0..=120.0).contains(&c)));
                }
                self.0 += 1;
            }
            fn finish(self) -> usize {
                self.0
            }
        }
        let model = RandomWaypoint::new(1.0, 8.0, 0, 0.0).unwrap();
        let outs = run_connectivity_stream(&config(2, 10, None), &model, |_| PositionsOnly(0));
        assert_eq!(outs, vec![10, 10]);
    }

    #[test]
    fn outputs_identical_across_thread_counts() {
        /// Records (count, largest) per step at range 35 — a full
        /// connectivity fingerprint built by the observer from positions.
        struct Fingerprint(Vec<(usize, usize)>);
        impl ConnectivityObserver<2> for Fingerprint {
            type Output = Vec<(usize, usize)>;
            fn observe(&mut self, view: &StepView<'_, 2>) {
                let graph = AdjacencyList::from_points(view.positions(), 120.0, 35.0);
                let c = ComponentSummary::of(&graph);
                self.0.push((c.count(), c.largest_size()));
            }
            fn finish(self) -> Self::Output {
                self.0
            }
        }
        let model = RandomWaypoint::new(0.5, 5.0, 1, 0.25).unwrap();
        let single =
            run_connectivity_stream(&config(6, 30, Some(1)), &model, |_| Fingerprint(Vec::new()));
        let multi =
            run_connectivity_stream(&config(6, 30, Some(4)), &model, |_| Fingerprint(Vec::new()));
        assert_eq!(single.len(), 6);
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
            IndexObserver,
        );
        assert_eq!(outs, vec![0, 1, 2, 3, 4]);
    }
}
