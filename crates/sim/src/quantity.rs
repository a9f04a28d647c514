//! The "quantity of mobility" (paper §5, closing remark).
//!
//! The paper concludes that connectivity is "only marginally influenced
//! by whether motion is intentional or not, but [...] rather related to
//! the *quantity of mobility*, which can be informally defined as the
//! percentage of stationary nodes with respect to the total number of
//! nodes" — and leaves formalizing it as future work. This module
//! provides that formalization: per-step displacement statistics of a
//! campaign, so the quantity of mobility of any model/parameter choice
//! can be measured and correlated with the connectivity metrics.

use crate::{
    config::SimConfig,
    stream::{run_connectivity_stream, ConnectivityObserver, StepView},
    SimError,
};
use manet_geom::Point;
use manet_mobility::Mobility;
use manet_stats::RunningMoments;

/// Displacement statistics of one iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct MobilityQuantity {
    /// Mean per-node, per-step displacement (distance units/step).
    pub mean_displacement: f64,
    /// Fraction of (node, step) pairs in which the node moved at all.
    pub moving_fraction: f64,
    /// Fraction of nodes that never moved during the whole iteration —
    /// the paper's informal "percentage of stationary nodes".
    pub never_moved_fraction: f64,
}

/// Observer measuring displacements between consecutive steps
/// (positions-only stream lane: no graph structure involved).
struct QuantityObserver<const D: usize> {
    prev: Vec<Point<D>>,
    displacement: RunningMoments,
    moved_pairs: u64,
    total_pairs: u64,
    ever_moved: Vec<bool>,
}

impl<const D: usize> ConnectivityObserver<D> for QuantityObserver<D> {
    type Output = MobilityQuantity;

    fn observe(&mut self, view: &StepView<'_, D>) {
        let (step, positions) = (view.step(), view.positions());
        if step == 0 {
            self.prev = positions.to_vec();
            self.ever_moved = vec![false; positions.len()];
            return;
        }
        for (i, (old, new)) in self.prev.iter().zip(positions).enumerate() {
            let d = old.distance(new);
            self.displacement.push(d);
            self.total_pairs += 1;
            if d > 0.0 {
                self.moved_pairs += 1;
                self.ever_moved[i] = true;
            }
        }
        self.prev.copy_from_slice(positions);
    }

    fn finish(self) -> MobilityQuantity {
        let never_moved = self.ever_moved.iter().filter(|&&m| !m).count();
        let nodes = self.ever_moved.len().max(1);
        MobilityQuantity {
            mean_displacement: if self.displacement.is_empty() {
                0.0
            } else {
                self.displacement.mean()
            },
            moving_fraction: if self.total_pairs == 0 {
                0.0
            } else {
                self.moved_pairs as f64 / self.total_pairs as f64
            },
            never_moved_fraction: never_moved as f64 / nodes as f64,
        }
    }
}

/// Measures the quantity of mobility of a campaign; returns one
/// [`MobilityQuantity`] per iteration.
///
/// Requires at least 2 steps (displacements are between consecutive
/// steps).
///
/// # Errors
///
/// Returns [`SimError::InvalidConfig`] when `config.steps() < 2`, and
/// propagates engine errors.
pub fn measure_mobility_quantity<const D: usize, M>(
    config: &SimConfig<D>,
    model: &M,
) -> Result<Vec<MobilityQuantity>, SimError>
where
    M: Mobility<D> + Clone + Send + Sync,
{
    if config.steps() < 2 {
        return Err(SimError::InvalidConfig {
            reason: "measuring mobility quantity requires at least 2 steps".into(),
        });
    }
    Ok(run_connectivity_stream(config, model, |_| {
        QuantityObserver {
            prev: Vec::new(),
            displacement: RunningMoments::new(),
            moved_pairs: 0,
            total_pairs: 0,
            ever_moved: Vec::new(),
        }
    }))
}

/// Mean of each quantity across iterations.
pub fn mean_quantity(per_iteration: &[MobilityQuantity]) -> Option<MobilityQuantity> {
    if per_iteration.is_empty() {
        return None;
    }
    let n = per_iteration.len() as f64;
    Some(MobilityQuantity {
        mean_displacement: per_iteration
            .iter()
            .map(|q| q.mean_displacement)
            .sum::<f64>()
            / n,
        moving_fraction: per_iteration.iter().map(|q| q.moving_fraction).sum::<f64>() / n,
        never_moved_fraction: per_iteration
            .iter()
            .map(|q| q.never_moved_fraction)
            .sum::<f64>()
            / n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_mobility::{Drunkard, RandomWalk, RandomWaypoint, StationaryModel};

    fn config(steps: usize) -> SimConfig<2> {
        let mut b = SimConfig::<2>::builder();
        b.nodes(50).side(100.0).iterations(3).steps(steps).seed(99);
        b.build().unwrap()
    }

    #[test]
    fn requires_two_steps() {
        let cfg = config(1);
        assert!(measure_mobility_quantity(&cfg, &StationaryModel::new()).is_err());
    }

    #[test]
    fn stationary_model_has_zero_quantity() {
        let cfg = config(20);
        let qs = measure_mobility_quantity(&cfg, &StationaryModel::new()).unwrap();
        for q in qs {
            assert_eq!(q.mean_displacement, 0.0);
            assert_eq!(q.moving_fraction, 0.0);
            assert_eq!(q.never_moved_fraction, 1.0);
        }
    }

    #[test]
    fn walk_moves_everyone_every_step() {
        let cfg = config(20);
        let model = RandomWalk::new(1.0, 0.0).unwrap();
        let qs = measure_mobility_quantity(&cfg, &model).unwrap();
        let mean = mean_quantity(&qs).unwrap();
        assert!((mean.moving_fraction - 1.0).abs() < 1e-12);
        assert_eq!(mean.never_moved_fraction, 0.0);
        // Interior steps move exactly 1.0; boundary reflections less.
        assert!(mean.mean_displacement > 0.9 && mean.mean_displacement <= 1.0 + 1e-9);
    }

    #[test]
    fn drunkard_pause_probability_shows_up() {
        let cfg = config(60);
        let model = Drunkard::new(0.0, 0.3, 2.0).unwrap();
        let qs = measure_mobility_quantity(&cfg, &model).unwrap();
        let mean = mean_quantity(&qs).unwrap();
        // ~70% of (node, step) pairs move.
        assert!(
            (mean.moving_fraction - 0.7).abs() < 0.05,
            "moving fraction {}",
            mean.moving_fraction
        );
    }

    #[test]
    fn p_stationary_reflected_in_never_moved() {
        let cfg = config(40);
        let model = RandomWaypoint::new(0.5, 2.0, 0, 0.4).unwrap();
        let qs = measure_mobility_quantity(&cfg, &model).unwrap();
        let mean = mean_quantity(&qs).unwrap();
        assert!(
            (mean.never_moved_fraction - 0.4).abs() < 0.15,
            "never-moved fraction {}",
            mean.never_moved_fraction
        );
    }

    #[test]
    fn pause_time_lowers_quantity_of_mobility() {
        let cfg = config(80);
        let eager = RandomWaypoint::new(0.5, 2.0, 0, 0.0).unwrap();
        let lazy = RandomWaypoint::new(0.5, 2.0, 40, 0.0).unwrap();
        let q_eager = mean_quantity(&measure_mobility_quantity(&cfg, &eager).unwrap()).unwrap();
        let q_lazy = mean_quantity(&measure_mobility_quantity(&cfg, &lazy).unwrap()).unwrap();
        assert!(q_lazy.moving_fraction < q_eager.moving_fraction);
        assert!(q_lazy.mean_displacement < q_eager.mean_displacement);
    }

    #[test]
    fn mean_quantity_empty_is_none() {
        assert!(mean_quantity(&[]).is_none());
    }
}
