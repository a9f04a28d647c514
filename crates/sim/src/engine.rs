//! The parallel trajectory runner.
//!
//! [`run_simulation`] drives `iterations` independent trajectories of
//! `steps` mobility steps each, feeding every step's node positions to
//! a per-iteration [`StepObserver`]. Iterations are distributed over
//! worker threads; each iteration's RNG seed is derived from the master
//! seed and the iteration index, so results are **bit-identical across
//! thread counts**.

use crate::{config::SimConfig, SimError};
use manet_geom::Point;
use manet_graph::parallel::{default_threads, run_indexed};
use manet_mobility::Mobility;
use manet_stats::SeedSequence;
use rand::SeedableRng;

/// Consumes the node positions of each step of one trajectory and
/// produces a per-iteration output.
///
/// Observers are created per iteration by the factory passed to
/// [`run_simulation`], observe steps `0..steps` in order (step 0 is the
/// initial placement), and are folded into their output at the end.
pub trait StepObserver<const D: usize> {
    /// The per-iteration result this observer produces.
    type Output: Send;

    /// Called once per step with the current positions.
    fn observe(&mut self, step: usize, positions: &[Point<D>]);

    /// Consumes the observer, yielding the iteration's result.
    fn finish(self) -> Self::Output;
}

/// Runs the configured number of iterations in parallel and returns
/// the per-iteration observer outputs **ordered by iteration index**.
///
/// `make_observer(iteration)` must be cheap and thread-safe; the model
/// is cloned per iteration and re-initialized on the fresh placement.
///
/// # Errors
///
/// Propagates [`SimError::Geometry`] if the region cannot be built
/// (cannot happen for a validated [`SimConfig`], but kept for
/// defense in depth).
///
/// # Determinism
///
/// Iteration `i` draws all randomness from
/// `StdRng::seed_from_u64(SeedSequence::new(config.seed()).seed_for(i))`,
/// independent of which worker thread executes it; iterations fan out
/// through [`run_indexed`], which returns them in index order.
pub fn run_simulation<const D: usize, M, O, F>(
    config: &SimConfig<D>,
    model: &M,
    make_observer: F,
) -> Result<Vec<O::Output>, SimError>
where
    M: Mobility<D> + Clone + Send + Sync,
    O: StepObserver<D>,
    F: Fn(usize) -> O + Send + Sync,
{
    let region = config.region();
    let seq = SeedSequence::new(config.seed());
    let threads = config.threads().unwrap_or_else(default_threads);
    let iterations = vec![(); config.iterations()];
    Ok(run_indexed(threads, iterations, |iteration, ()| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seq.seed_for(iteration as u64));
        let mut positions = region.place_uniform(config.nodes(), &mut rng);
        let mut model = model.clone();
        model.init(&positions, &region, &mut rng);
        let mut observer = make_observer(iteration);
        observer.observe(0, &positions);
        for step in 1..config.steps() {
            model.step(&mut positions, &region, &mut rng);
            observer.observe(step, &positions);
        }
        observer.finish()
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_mobility::{RandomWaypoint, StationaryModel};

    /// Observer recording the first node's trajectory.
    struct TraceObserver {
        trace: Vec<Point<2>>,
    }

    impl StepObserver<2> for TraceObserver {
        type Output = Vec<Point<2>>;

        fn observe(&mut self, _step: usize, positions: &[Point<2>]) {
            self.trace.push(positions[0]);
        }

        fn finish(self) -> Vec<Point<2>> {
            self.trace
        }
    }

    fn config(iterations: usize, steps: usize, threads: Option<usize>) -> SimConfig<2> {
        let mut b = SimConfig::<2>::builder();
        b.nodes(8)
            .side(100.0)
            .iterations(iterations)
            .steps(steps)
            .seed(1234);
        if let Some(t) = threads {
            b.threads(t);
        }
        b.build().unwrap()
    }

    #[test]
    fn observer_sees_every_step() {
        let cfg = config(3, 17, Some(1));
        let model = StationaryModel::new();
        let outs = run_simulation(&cfg, &model, |_| TraceObserver { trace: Vec::new() }).unwrap();
        assert_eq!(outs.len(), 3);
        for trace in outs {
            assert_eq!(trace.len(), 17);
        }
    }

    #[test]
    fn stationary_model_yields_constant_trajectories() {
        let cfg = config(2, 10, None);
        let model = StationaryModel::new();
        let outs = run_simulation(&cfg, &model, |_| TraceObserver { trace: Vec::new() }).unwrap();
        for trace in outs {
            assert!(trace.windows(2).all(|w| w[0] == w[1]));
        }
    }

    #[test]
    fn results_identical_across_thread_counts() {
        let model = RandomWaypoint::new(0.5, 3.0, 2, 0.25).unwrap();
        let single = run_simulation(&config(6, 40, Some(1)), &model, |_| TraceObserver {
            trace: Vec::new(),
        })
        .unwrap();
        let multi = run_simulation(&config(6, 40, Some(4)), &model, |_| TraceObserver {
            trace: Vec::new(),
        })
        .unwrap();
        assert_eq!(single, multi);
    }

    #[test]
    fn iterations_have_distinct_placements() {
        let cfg = config(4, 1, None);
        let outs = run_simulation(&cfg, &StationaryModel::new(), |_| TraceObserver {
            trace: Vec::new(),
        })
        .unwrap();
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
        let a = run_simulation(&config(2, 1, None), &model, |_| TraceObserver {
            trace: Vec::new(),
        })
        .unwrap();
        let b = run_simulation(&config(2, 1, None), &model, |_| TraceObserver {
            trace: Vec::new(),
        })
        .unwrap();
        assert_eq!(a, b);
        let cfg2 = config(2, 1, None).with_seed(777);
        let c = run_simulation(&cfg2, &model, |_| TraceObserver { trace: Vec::new() }).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn observer_factory_receives_iteration_index() {
        struct IndexObserver(usize);
        impl StepObserver<2> for IndexObserver {
            type Output = usize;
            fn observe(&mut self, _: usize, _: &[Point<2>]) {}
            fn finish(self) -> usize {
                self.0
            }
        }
        let cfg = config(5, 1, Some(3));
        let outs = run_simulation(&cfg, &StationaryModel::new(), IndexObserver).unwrap();
        assert_eq!(outs, vec![0, 1, 2, 3, 4]);
    }
}
