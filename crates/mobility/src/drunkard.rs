//! The drunkard (non-intentional) mobility model.
//!
//! Paper §4.1: "Mobility is modeled using parameters `p_stationary`,
//! `p_pause` and `m`. [...] If a node is moving at step `i`, its
//! position in step `i+1` is chosen uniformly at random in the disk of
//! radius `m` centered at the current node location." `p_pause` is the
//! probability a (mobile) node stays put at any given step, making the
//! motion heterogeneous; `m` plays the role of velocity.
//!
//! The paper leaves the boundary behaviour unspecified. The default
//! here re-draws the jump until it lands inside the region
//! ([`BoundaryPolicy::Resample`], i.e. uniform on the intersection of
//! the disk with the region); reflection and clamping are available
//! for ablation.

use crate::{validate_positive, validate_probability, Mobility, ModelError};
use manet_geom::{sampling::sample_in_ball, BoundaryPolicy, Point, Region};
use rand::{Rng, RngExt};

/// The drunkard mobility model.
///
/// The paper's moderate-mobility defaults are `p_stationary = 0.1`,
/// `p_pause = 0.3`, `m = 0.01·l`.
///
/// # Example
///
/// ```
/// use manet_geom::Region;
/// use manet_mobility::{Drunkard, Mobility};
/// use rand::SeedableRng;
///
/// let region: Region<2> = Region::new(100.0).unwrap();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(4);
/// let mut positions = region.place_uniform(16, &mut rng);
///
/// let mut model = Drunkard::paper_defaults(100.0)?;
/// model.init(&positions, &region, &mut rng);
/// for _ in 0..100 {
///     model.step(&mut positions, &region, &mut rng);
/// }
/// assert!(positions.iter().all(|p| region.contains(p)));
/// # Ok::<(), manet_mobility::ModelError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Drunkard<const D: usize> {
    p_stationary: f64,
    p_pause: f64,
    radius: f64,
    boundary: BoundaryPolicy,
    stationary: Vec<bool>,
}

impl<const D: usize> Drunkard<D> {
    /// Creates the model with the default [`BoundaryPolicy::Resample`].
    ///
    /// # Errors
    ///
    /// * [`ModelError::InvalidProbability`] for `p_stationary` or
    ///   `p_pause` outside `[0, 1]`;
    /// * [`ModelError::NonPositive`] when `radius <= 0`;
    /// * [`ModelError::NonFinite`] for NaN/infinite parameters.
    pub fn new(p_stationary: f64, p_pause: f64, radius: f64) -> Result<Self, ModelError> {
        Drunkard::with_boundary(p_stationary, p_pause, radius, BoundaryPolicy::Resample)
    }

    /// Creates the model with an explicit boundary policy.
    ///
    /// # Errors
    ///
    /// Same as [`Drunkard::new`].
    pub fn with_boundary(
        p_stationary: f64,
        p_pause: f64,
        radius: f64,
        boundary: BoundaryPolicy,
    ) -> Result<Self, ModelError> {
        validate_probability("p_stationary", p_stationary)?;
        validate_probability("p_pause", p_pause)?;
        validate_positive("m", radius)?;
        Ok(Drunkard {
            p_stationary,
            p_pause,
            radius,
            boundary,
            stationary: Vec::new(),
        })
    }

    /// The paper's moderate-mobility parameters for region side `l`:
    /// `p_stationary = 0.1`, `p_pause = 0.3`, `m = 0.01·l`.
    ///
    /// # Errors
    ///
    /// Propagates [`ModelError`] for non-positive `l`.
    pub fn paper_defaults(side: f64) -> Result<Self, ModelError> {
        Drunkard::new(0.1, 0.3, 0.01 * side)
    }

    /// Probability that a node never moves.
    pub fn p_stationary(&self) -> f64 {
        self.p_stationary
    }

    /// Per-step probability that a mobile node stays put.
    pub fn p_pause(&self) -> f64 {
        self.p_pause
    }

    /// Jump radius `m`.
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// The configured boundary policy.
    pub fn boundary(&self) -> BoundaryPolicy {
        self.boundary
    }

    /// Number of permanently stationary nodes (0 before `init`).
    pub fn stationary_count(&self) -> usize {
        self.stationary.iter().filter(|&&s| s).count()
    }
}

impl<const D: usize> Mobility<D> for Drunkard<D> {
    fn init(&mut self, positions: &[Point<D>], _region: &Region<D>, rng: &mut dyn Rng) {
        self.stationary = positions
            .iter()
            .map(|_| self.p_stationary > 0.0 && rng.random_bool(self.p_stationary))
            .collect();
    }

    fn step(&mut self, positions: &mut [Point<D>], region: &Region<D>, rng: &mut dyn Rng) {
        assert_eq!(
            positions.len(),
            self.stationary.len(),
            "step called with a different node count than init"
        );
        for (pos, &frozen) in positions.iter_mut().zip(&self.stationary) {
            if frozen {
                continue;
            }
            if self.p_pause > 0.0 && rng.random_bool(self.p_pause) {
                continue;
            }
            #[expect(
                clippy::expect_used,
                reason = "radius validated positive and finite at construction"
            )]
            let proposal =
                sample_in_ball(pos, self.radius, rng).expect("radius validated at construction");
            *pos = match self.boundary {
                BoundaryPolicy::Resample => {
                    if region.contains(&proposal) {
                        proposal
                    } else {
                        // Re-draw until inside. The current position is
                        // inside the region, so the disk∩region has
                        // positive measure and this terminates quickly.
                        let mut candidate = proposal;
                        #[expect(
                            clippy::expect_used,
                            reason = "radius validated positive and finite at construction"
                        )]
                        while !region.contains(&candidate) {
                            candidate = sample_in_ball(pos, self.radius, rng)
                                .expect("radius validated at construction");
                        }
                        candidate
                    }
                }
                BoundaryPolicy::Reflect => region.reflect(&proposal),
                BoundaryPolicy::Clamp => region.clamp(&proposal),
            };
        }
    }

    fn name(&self) -> &'static str {
        "drunkard"
    }

    fn max_step_displacement(&self) -> Option<f64> {
        // Jumps land in the ball of radius m around the current
        // position; both boundary policies only shrink the jump
        // (resampling stays in the ball, clamping projects onto the
        // region, which is non-expansive from an in-region start).
        Some(self.radius)
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
        Region::new(50.0).unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(Drunkard::<2>::new(-0.1, 0.3, 1.0).is_err());
        assert!(Drunkard::<2>::new(0.1, 1.3, 1.0).is_err());
        assert!(Drunkard::<2>::new(0.1, 0.3, 0.0).is_err());
        assert!(Drunkard::<2>::new(0.1, 0.3, f64::NAN).is_err());
        assert!(Drunkard::<2>::new(0.1, 0.3, 1.0).is_ok());
    }

    #[test]
    fn paper_defaults_match_section_4_2() {
        let m = Drunkard::<2>::paper_defaults(4096.0).unwrap();
        assert_eq!(m.p_stationary(), 0.1);
        assert_eq!(m.p_pause(), 0.3);
        assert!((m.radius() - 40.96).abs() < 1e-12);
        assert_eq!(m.boundary(), BoundaryPolicy::Resample);
    }

    #[test]
    fn nodes_stay_in_region_under_all_policies() {
        for policy in [
            BoundaryPolicy::Resample,
            BoundaryPolicy::Reflect,
            BoundaryPolicy::Clamp,
        ] {
            let r = region();
            let mut g = rng(11);
            let mut pos = r.place_uniform(20, &mut g);
            // Large radius to provoke boundary interactions often.
            let mut m = Drunkard::with_boundary(0.0, 0.0, 30.0, policy).unwrap();
            m.init(&pos, &r, &mut g);
            for _ in 0..300 {
                m.step(&mut pos, &r, &mut g);
                assert!(pos.iter().all(|p| r.contains(p)), "escape under {policy:?}");
            }
        }
    }

    #[test]
    fn jumps_bounded_by_radius_with_resample() {
        let r = region();
        let mut g = rng(12);
        let mut pos = r.place_uniform(10, &mut g);
        let mut m = Drunkard::new(0.0, 0.0, 2.5).unwrap();
        m.init(&pos, &r, &mut g);
        for _ in 0..200 {
            let before = pos.clone();
            m.step(&mut pos, &r, &mut g);
            for (a, b) in before.iter().zip(&pos) {
                assert!(a.distance(b) <= 2.5 + 1e-9);
            }
        }
    }

    #[test]
    fn p_pause_one_freezes_mobile_nodes() {
        let r = region();
        let mut g = rng(13);
        let mut pos = r.place_uniform(10, &mut g);
        let before = pos.clone();
        let mut m = Drunkard::new(0.0, 1.0, 2.0).unwrap();
        m.init(&pos, &r, &mut g);
        for _ in 0..50 {
            m.step(&mut pos, &r, &mut g);
        }
        assert_eq!(pos, before);
    }

    #[test]
    fn stationary_nodes_never_move() {
        let r = region();
        let mut g = rng(14);
        let mut pos = r.place_uniform(200, &mut g);
        let before = pos.clone();
        let mut m = Drunkard::new(1.0, 0.0, 5.0).unwrap();
        m.init(&pos, &r, &mut g);
        assert_eq!(m.stationary_count(), 200);
        for _ in 0..20 {
            m.step(&mut pos, &r, &mut g);
        }
        assert_eq!(pos, before);
    }

    #[test]
    fn pause_fraction_on_average() {
        let r = region();
        let mut g = rng(15);
        let mut pos = r.place_uniform(3000, &mut g);
        let mut m = Drunkard::new(0.0, 0.3, 1.0).unwrap();
        m.init(&pos, &r, &mut g);
        let before = pos.clone();
        m.step(&mut pos, &r, &mut g);
        let moved = before.iter().zip(&pos).filter(|(a, b)| a != b).count() as f64 / 3000.0;
        // Expect ~70% moved; binomial sd ≈ 0.008, allow 5σ.
        assert!((moved - 0.7).abs() < 0.05, "moved fraction {moved}");
    }

    #[test]
    fn deterministic_under_same_seed() {
        let r = region();
        let run = |seed| {
            let mut g = rng(seed);
            let mut pos = r.place_uniform(8, &mut g);
            let mut m = Drunkard::new(0.1, 0.3, 2.0).unwrap();
            m.init(&pos, &r, &mut g);
            for _ in 0..50 {
                m.step(&mut pos, &r, &mut g);
            }
            pos
        };
        assert_eq!(run(21), run(21));
        assert_ne!(run(21), run(22));
    }

    #[test]
    fn name_is_stable() {
        let m = Drunkard::<2>::new(0.1, 0.3, 1.0).unwrap();
        assert_eq!(m.name(), "drunkard");
    }
}
