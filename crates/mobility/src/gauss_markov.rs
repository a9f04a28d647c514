//! Gauss–Markov mobility: velocity-correlated smooth motion.
//!
//! Where the drunkard teleports and the waypoint travels in straight
//! legs, the Gauss–Markov model (Liang & Haas, adapted here to a
//! dimension-free velocity form) evolves each node's **velocity** as a
//! stationary first-order autoregression:
//!
//! ```text
//! v(t+1) = α·v(t) + (1 − α)·v̄ + σ·√(1 − α²)·w(t)
//! ```
//!
//! with `w(t)` i.i.d. standard Gaussian per axis, a per-node drift
//! velocity `v̄` of magnitude `mean_speed` in a random direction, and
//! memory `α ∈ [0, 1]`. `α = 0` degenerates to an uncorrelated
//! Gaussian walk, `α = 1` to straight-line motion; intermediate values
//! give the smooth, turn-averse trajectories real vehicles and
//! pedestrians produce. The `√(1 − α²)` noise scaling keeps the
//! stationary per-axis velocity variance at `σ²` for every `α`, so the
//! *quantity* of mobility is comparable across memory settings.
//!
//! Standalone, the model reflects at the region boundary (mirroring
//! both the velocity and the drift). Wrap and bounce treatments are
//! available through [`crate::Bounded`].

use crate::{validate_positive, validate_probability, FreeMobility, Mobility, ModelError};
use manet_geom::{
    sampling::{sample_standard_normal, sample_standard_normal_batch, sample_unit_vector},
    Point, Region,
};
use rand::{Rng, RngExt};

/// Per-node kinematic state.
#[derive(Debug, Clone, Copy, PartialEq)]
enum NodeState<const D: usize> {
    /// Never moves (selected with probability `p_stationary` at init).
    Stationary,
    /// Mobile node: current velocity and persistent drift velocity.
    Mobile { vel: [f64; D], drift: [f64; D] },
}

/// The Gauss–Markov mobility model.
///
/// Speeds are in distance units per mobility step. The paper-scale
/// defaults used by the model registry are `α = 0.85`,
/// `mean_speed = 0.005·l`, `σ = 0.0025·l`, `p_stationary = 0` — the
/// same per-step displacement scale as the paper's §4.2 waypoint and
/// drunkard settings.
///
/// # Example
///
/// ```
/// use manet_geom::Region;
/// use manet_mobility::{GaussMarkov, Mobility};
/// use rand::SeedableRng;
///
/// let region: Region<2> = Region::new(100.0).unwrap();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(9);
/// let mut positions = region.place_uniform(16, &mut rng);
///
/// let mut model = GaussMarkov::new(0.85, 0.5, 0.25, 0.0)?;
/// model.init(&positions, &region, &mut rng);
/// for _ in 0..100 {
///     model.step(&mut positions, &region, &mut rng);
/// }
/// assert!(positions.iter().all(|p| region.contains(p)));
/// # Ok::<(), manet_mobility::ModelError>(())
/// ```
#[derive(Debug, Clone)]
pub struct GaussMarkov<const D: usize> {
    alpha: f64,
    mean_speed: f64,
    sigma: f64,
    p_stationary: f64,
    state: Vec<NodeState<D>>,
    /// One step's velocity noise, `D` normals per mobile node in node
    /// order (sized at `init`, overwritten every step).
    noise: Vec<f64>,
}

impl<const D: usize> GaussMarkov<D> {
    /// Creates the model.
    ///
    /// # Errors
    ///
    /// * [`ModelError::InvalidProbability`] when `alpha` or
    ///   `p_stationary` is outside `[0, 1]`;
    /// * [`ModelError::NonPositive`] when `sigma <= 0` or
    ///   `mean_speed < 0`;
    /// * [`ModelError::NonFinite`] for NaN/infinite parameters.
    pub fn new(
        alpha: f64,
        mean_speed: f64,
        sigma: f64,
        p_stationary: f64,
    ) -> Result<Self, ModelError> {
        validate_probability("alpha", alpha)?;
        validate_positive("sigma", sigma)?;
        if !mean_speed.is_finite() {
            return Err(ModelError::NonFinite { name: "mean_speed" });
        }
        if mean_speed < 0.0 {
            return Err(ModelError::NonPositive {
                name: "mean_speed",
                value: mean_speed,
            });
        }
        validate_probability("p_stationary", p_stationary)?;
        Ok(GaussMarkov {
            alpha,
            mean_speed,
            sigma,
            p_stationary,
            state: Vec::new(),
            noise: Vec::new(),
        })
    }

    /// Paper-scale parameters for region side `l`: `α = 0.85`,
    /// `mean_speed = 0.005·l`, `σ = 0.0025·l`, `p_stationary = 0`,
    /// matching the per-step displacement scale of the paper's §4.2
    /// waypoint and drunkard defaults.
    ///
    /// # Errors
    ///
    /// Propagates [`ModelError`] for non-positive `l`.
    pub fn paper_defaults(side: f64) -> Result<Self, ModelError> {
        GaussMarkov::new(0.85, 0.005 * side, 0.0025 * side, 0.0)
    }

    /// Velocity memory `α`.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Magnitude of the per-node drift velocity.
    pub fn mean_speed(&self) -> f64 {
        self.mean_speed
    }

    /// Stationary per-axis velocity standard deviation `σ`.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Probability that a node is permanently stationary.
    pub fn p_stationary(&self) -> f64 {
        self.p_stationary
    }

    /// Number of permanently stationary nodes (0 before `init`).
    pub fn stationary_count(&self) -> usize {
        self.state
            .iter()
            .filter(|s| matches!(s, NodeState::Stationary))
            .count()
    }
}

impl<const D: usize> Mobility<D> for GaussMarkov<D> {
    fn init(&mut self, positions: &[Point<D>], _region: &Region<D>, rng: &mut dyn Rng) {
        self.state = positions
            .iter()
            .map(|_| {
                if self.p_stationary > 0.0 && rng.random_bool(self.p_stationary) {
                    NodeState::Stationary
                } else {
                    let mut drift = [0.0; D];
                    if self.mean_speed > 0.0 {
                        let dir: Point<D> = sample_unit_vector(rng);
                        for (d, c) in drift.iter_mut().zip(&dir.coords()) {
                            *d = c * self.mean_speed;
                        }
                    }
                    // Warm start from the stationary velocity law.
                    let mut vel = drift;
                    for v in &mut vel {
                        *v += self.sigma * sample_standard_normal(rng);
                    }
                    NodeState::Mobile { vel, drift }
                }
            })
            .collect();
        self.noise = vec![0.0; (self.state.len() - self.stationary_count()) * D];
    }

    fn step(&mut self, positions: &mut [Point<D>], region: &Region<D>, rng: &mut dyn Rng) {
        self.step_free(positions, region, rng);
        for (i, pos) in positions.iter_mut().enumerate() {
            if !region.contains(pos) {
                let (folded, mirrored) = crate::boundary::reflect_tracking(region, pos);
                *pos = folded;
                self.deflect(i, &mirrored);
            }
        }
    }

    fn name(&self) -> &'static str {
        "gauss-markov"
    }

    fn max_step_displacement(&self) -> Option<f64> {
        // Velocities carry unbounded Gaussian innovations: no finite
        // per-step displacement bound exists (the trait default, made
        // explicit here because the omission is load-bearing for the
        // incremental step kernel's contract check).
        None
    }
}

impl<const D: usize> FreeMobility<D> for GaussMarkov<D> {
    fn step_free(&mut self, positions: &mut [Point<D>], _region: &Region<D>, rng: &mut dyn Rng) {
        assert_eq!(
            positions.len(),
            self.state.len(),
            "step called with a different node count than init"
        );
        let noise_scale = self.sigma * (1.0 - self.alpha * self.alpha).sqrt();
        sample_standard_normal_batch(&mut self.noise, rng);
        let mut next = 0;
        for (pos, state) in positions.iter_mut().zip(&mut self.state) {
            if let NodeState::Mobile { vel, drift } = state {
                let noise = &self.noise[next..next + D];
                next += D;
                let mut out = pos.coords();
                for (((v, d), c), w) in vel.iter_mut().zip(drift.iter()).zip(&mut out).zip(noise) {
                    *v = self.alpha * *v + (1.0 - self.alpha) * *d + noise_scale * w;
                    *c += *v;
                }
                *pos = Point::new(out);
            }
        }
    }

    fn deflect(&mut self, i: usize, mirrored: &[bool; D]) {
        if let NodeState::Mobile { vel, drift } = &mut self.state[i] {
            for ((v, d), &m) in vel.iter_mut().zip(drift.iter_mut()).zip(mirrored) {
                if m {
                    *v = -*v;
                    *d = -*d;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    fn region() -> Region<2> {
        Region::new(100.0).unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(GaussMarkov::<2>::new(-0.1, 1.0, 1.0, 0.0).is_err());
        assert!(GaussMarkov::<2>::new(1.1, 1.0, 1.0, 0.0).is_err());
        assert!(GaussMarkov::<2>::new(0.5, -1.0, 1.0, 0.0).is_err());
        assert!(GaussMarkov::<2>::new(0.5, 1.0, 0.0, 0.0).is_err());
        assert!(GaussMarkov::<2>::new(0.5, 1.0, 1.0, 1.5).is_err());
        assert!(GaussMarkov::<2>::new(0.5, f64::NAN, 1.0, 0.0).is_err());
        assert!(GaussMarkov::<2>::new(0.5, 0.0, 1.0, 0.0).is_ok());
        assert!(GaussMarkov::<2>::new(0.5, 1.0, 1.0, 0.3).is_ok());
    }

    #[test]
    fn paper_defaults_scale_with_side() {
        let m = GaussMarkov::<2>::paper_defaults(1024.0).unwrap();
        assert_eq!(m.alpha(), 0.85);
        assert!((m.mean_speed() - 5.12).abs() < 1e-12);
        assert!((m.sigma() - 2.56).abs() < 1e-12);
        assert_eq!(m.p_stationary(), 0.0);
    }

    #[test]
    fn nodes_stay_in_region() {
        let r = region();
        let mut g = rng(41);
        let mut pos = r.place_uniform(20, &mut g);
        // Aggressive speeds to provoke reflections.
        let mut m = GaussMarkov::new(0.9, 10.0, 8.0, 0.0).unwrap();
        m.init(&pos, &r, &mut g);
        for _ in 0..500 {
            m.step(&mut pos, &r, &mut g);
            assert!(pos.iter().all(|p| r.contains(p)));
        }
    }

    #[test]
    fn high_alpha_trajectories_are_smooth() {
        // With α close to 1 and small noise, consecutive displacement
        // vectors stay nearly parallel: the turn angle per step is
        // small, unlike the drunkard's uniform scattering.
        let r: Region<2> = Region::new(10_000.0).unwrap();
        let mut g = rng(42);
        let mut pos = vec![Point::new([5_000.0, 5_000.0])];
        let mut m = GaussMarkov::new(0.98, 5.0, 1.0, 0.0).unwrap();
        m.init(&pos, &r, &mut g);
        let mut prev = pos[0];
        m.step(&mut pos, &r, &mut g);
        let mut cos_sum = 0.0;
        let mut count = 0;
        let mut last_disp = pos[0] - prev;
        prev = pos[0];
        for _ in 0..200 {
            m.step(&mut pos, &r, &mut g);
            let disp = pos[0] - prev;
            prev = pos[0];
            let dot = disp[0] * last_disp[0] + disp[1] * last_disp[1];
            let norms = disp.norm() * last_disp.norm();
            if norms > 0.0 {
                cos_sum += dot / norms;
                count += 1;
            }
            last_disp = disp;
        }
        let mean_cos = cos_sum / count as f64;
        assert!(mean_cos > 0.9, "mean turn cosine {mean_cos}");
    }

    #[test]
    fn alpha_zero_is_uncorrelated() {
        // α = 0 with zero drift: displacements are i.i.d. Gaussian, so
        // the mean turn cosine is near zero.
        let r: Region<2> = Region::new(10_000.0).unwrap();
        let mut g = rng(43);
        let mut pos = vec![Point::new([5_000.0, 5_000.0])];
        let mut m = GaussMarkov::new(0.0, 0.0, 2.0, 0.0).unwrap();
        m.init(&pos, &r, &mut g);
        let mut prev = pos[0];
        m.step(&mut pos, &r, &mut g);
        let mut last_disp = pos[0] - prev;
        prev = pos[0];
        let mut cos_sum = 0.0;
        let n = 400;
        for _ in 0..n {
            m.step(&mut pos, &r, &mut g);
            let disp = pos[0] - prev;
            prev = pos[0];
            let dot = disp[0] * last_disp[0] + disp[1] * last_disp[1];
            cos_sum += dot / (disp.norm() * last_disp.norm());
            last_disp = disp;
        }
        let mean_cos = cos_sum / n as f64;
        assert!(mean_cos.abs() < 0.15, "mean turn cosine {mean_cos}");
    }

    #[test]
    fn stationary_nodes_frozen() {
        let r = region();
        let mut g = rng(44);
        let mut pos = r.place_uniform(10, &mut g);
        let before = pos.clone();
        let mut m = GaussMarkov::new(0.8, 1.0, 1.0, 1.0).unwrap();
        m.init(&pos, &r, &mut g);
        assert_eq!(m.stationary_count(), 10);
        for _ in 0..30 {
            m.step(&mut pos, &r, &mut g);
        }
        assert_eq!(pos, before);
    }

    #[test]
    fn deterministic_under_same_seed() {
        let r = region();
        let run = |seed| {
            let mut g = rng(seed);
            let mut pos = r.place_uniform(8, &mut g);
            let mut m = GaussMarkov::new(0.85, 1.0, 0.5, 0.2).unwrap();
            m.init(&pos, &r, &mut g);
            for _ in 0..80 {
                m.step(&mut pos, &r, &mut g);
            }
            pos
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    #[should_panic(expected = "different node count")]
    fn step_with_wrong_count_panics() {
        let r = region();
        let mut g = rng(45);
        let pos = r.place_uniform(5, &mut g);
        let mut m = GaussMarkov::new(0.8, 1.0, 1.0, 0.0).unwrap();
        m.init(&pos, &r, &mut g);
        let mut other = r.place_uniform(6, &mut g);
        m.step(&mut other, &r, &mut g);
    }

    #[test]
    fn name_is_stable() {
        let m = GaussMarkov::<2>::new(0.5, 1.0, 1.0, 0.0).unwrap();
        assert_eq!(m.name(), "gauss-markov");
    }
}
