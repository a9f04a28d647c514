//! Random-walk mobility (extension model).
//!
//! Each mobile node moves a fixed distance per step in a fresh,
//! uniformly random direction, reflecting off the region boundary.
//! Together with [`crate::RandomDirection`] this extends the paper's
//! two-model comparison: the paper's headline finding — that
//! connectivity depends on the *quantity* rather than the *pattern* of
//! mobility — predicts random walk behaves like the drunkard model at
//! matched displacement scales, which the ablation benches probe.

use crate::{validate_positive, validate_probability, FreeMobility, Mobility, ModelError};
use manet_geom::{sampling::sample_unit_vector_batch, Point, Region};
use rand::{Rng, RngExt};

/// Fixed-step random walk with boundary reflection.
///
/// # Example
///
/// ```
/// use manet_geom::Region;
/// use manet_mobility::{Mobility, RandomWalk};
/// use rand::SeedableRng;
///
/// let region: Region<2> = Region::new(50.0).unwrap();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let mut positions = region.place_uniform(10, &mut rng);
///
/// let mut model = RandomWalk::new(2.0, 0.0)?;
/// model.init(&positions, &region, &mut rng);
/// for _ in 0..50 {
///     model.step(&mut positions, &region, &mut rng);
/// }
/// assert!(positions.iter().all(|p| region.contains(p)));
/// # Ok::<(), manet_mobility::ModelError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RandomWalk<const D: usize> {
    step_length: f64,
    p_stationary: f64,
    stationary: Vec<bool>,
    /// One step's headings, one per mobile node in node order (sized
    /// at `init`, overwritten every step).
    headings: Vec<Point<D>>,
}

impl<const D: usize> RandomWalk<D> {
    /// Creates a walk moving `step_length` per step; a `p_stationary`
    /// fraction of nodes never moves.
    ///
    /// # Errors
    ///
    /// * [`ModelError::NonPositive`] when `step_length <= 0`;
    /// * [`ModelError::InvalidProbability`] when `p_stationary` is
    ///   outside `[0, 1]`;
    /// * [`ModelError::NonFinite`] for NaN/infinite parameters.
    pub fn new(step_length: f64, p_stationary: f64) -> Result<Self, ModelError> {
        validate_positive("step_length", step_length)?;
        validate_probability("p_stationary", p_stationary)?;
        Ok(RandomWalk {
            step_length,
            p_stationary,
            stationary: Vec::new(),
            headings: Vec::new(),
        })
    }

    /// Distance traveled per step.
    pub fn step_length(&self) -> f64 {
        self.step_length
    }

    /// Probability that a node is permanently stationary.
    pub fn p_stationary(&self) -> f64 {
        self.p_stationary
    }
}

impl<const D: usize> Mobility<D> for RandomWalk<D> {
    fn init(&mut self, positions: &[Point<D>], _region: &Region<D>, rng: &mut dyn Rng) {
        self.stationary = positions
            .iter()
            .map(|_| self.p_stationary > 0.0 && rng.random_bool(self.p_stationary))
            .collect();
        let mobile = self.stationary.iter().filter(|&&frozen| !frozen).count();
        self.headings = vec![Point::new([0.0; D]); mobile];
    }

    fn step(&mut self, positions: &mut [Point<D>], region: &Region<D>, rng: &mut dyn Rng) {
        self.step_free(positions, region, rng);
        for pos in positions.iter_mut() {
            if !region.contains(pos) {
                *pos = region.reflect(pos);
            }
        }
    }

    fn name(&self) -> &'static str {
        "random-walk"
    }

    fn max_step_displacement(&self) -> Option<f64> {
        // One fixed-length jump; boundary folding is non-expansive.
        Some(self.step_length)
    }
}

impl<const D: usize> FreeMobility<D> for RandomWalk<D> {
    fn step_free(&mut self, positions: &mut [Point<D>], _region: &Region<D>, rng: &mut dyn Rng) {
        assert_eq!(
            positions.len(),
            self.stationary.len(),
            "step called with a different node count than init"
        );
        sample_unit_vector_batch(&mut self.headings, rng);
        let mobile = positions
            .iter_mut()
            .zip(&self.stationary)
            .filter_map(|(pos, &frozen)| (!frozen).then_some(pos));
        for (pos, &dir) in mobile.zip(&self.headings) {
            *pos = *pos + dir * self.step_length;
        }
    }
    // No persistent velocity: the default no-op `deflect` is correct.
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn construction_validates() {
        assert!(RandomWalk::<2>::new(0.0, 0.0).is_err());
        assert!(RandomWalk::<2>::new(1.0, -0.5).is_err());
        assert!(RandomWalk::<2>::new(1.0, 0.5).is_ok());
    }

    #[test]
    fn nodes_stay_in_region() {
        let region: Region<2> = Region::new(20.0).unwrap();
        let mut g = rng(31);
        let mut pos = region.place_uniform(15, &mut g);
        let mut m = RandomWalk::new(7.0, 0.0).unwrap();
        m.init(&pos, &region, &mut g);
        for _ in 0..300 {
            m.step(&mut pos, &region, &mut g);
            assert!(pos.iter().all(|p| region.contains(p)));
        }
    }

    #[test]
    fn interior_steps_have_exact_length() {
        // Big region, small steps: reflection never triggers, so the
        // displacement per step is exactly step_length.
        let region: Region<2> = Region::new(1000.0).unwrap();
        let mut g = rng(32);
        let mut pos = vec![Point::new([500.0, 500.0])];
        let mut m = RandomWalk::new(2.0, 0.0).unwrap();
        m.init(&pos, &region, &mut g);
        for _ in 0..100 {
            let before = pos[0];
            m.step(&mut pos, &region, &mut g);
            assert!((before.distance(&pos[0]) - 2.0).abs() < 1e-9);
        }
    }

    #[test]
    fn stationary_nodes_frozen() {
        let region: Region<2> = Region::new(20.0).unwrap();
        let mut g = rng(33);
        let mut pos = region.place_uniform(10, &mut g);
        let before = pos.clone();
        let mut m = RandomWalk::new(1.0, 1.0).unwrap();
        m.init(&pos, &region, &mut g);
        for _ in 0..20 {
            m.step(&mut pos, &region, &mut g);
        }
        assert_eq!(pos, before);
    }

    #[test]
    fn walk_diffuses() {
        // Mean displacement after many steps should be substantial.
        let region: Region<2> = Region::new(100.0).unwrap();
        let mut g = rng(34);
        let mut pos = vec![Point::new([50.0, 50.0]); 50];
        let start = pos.clone();
        let mut m = RandomWalk::new(1.0, 0.0).unwrap();
        m.init(&pos, &region, &mut g);
        for _ in 0..400 {
            m.step(&mut pos, &region, &mut g);
        }
        let mean_disp: f64 = start
            .iter()
            .zip(&pos)
            .map(|(a, b)| a.distance(b))
            .sum::<f64>()
            / 50.0;
        // Diffusion scale ≈ step·√steps = 20.
        assert!(mean_disp > 5.0, "walk failed to diffuse: {mean_disp}");
    }
}
