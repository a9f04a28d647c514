//! Uniform sampling in balls and related helpers.
//!
//! The drunkard mobility model moves a node to a point chosen uniformly
//! at random in the disk of radius `m` centered at its current
//! location (paper §4.1). [`sample_in_ball`] implements that draw for
//! any dimension via rejection from the bounding cube — for `d <= 3`
//! the acceptance probability is at least `π/6 ≈ 0.52`, so the expected
//! number of draws is below 2.
//!
//! Every sampler here is a rejection loop over candidates that each
//! cost a fixed number of uniforms, and comes in two forms. The scalar
//! form returns the first accepted candidate. The batch form
//! (`*_batch`) fills a slice: it draws candidates until the slice's
//! length of them are accepted, so it consumes exactly the draws of
//! that many scalar calls and returns the same values bit for bit. It
//! never draws past its last acceptance, which matters because a
//! `&mut dyn Rng` cannot be rewound. Each candidate is written at a
//! cursor that advances by the accept test, so the draw loop carries
//! no data-dependent branch per candidate, and the transform (`ln` and
//! `sqrt`, the shift to the center, the normalisation) runs in a
//! second loop over the kept ones. Both forms share one candidate
//! function and one transform per sampler.

use crate::{GeomError, Point};
use rand::{Rng, RngExt};

/// Accepted candidates a batch keeps on the stack before transforming
/// them.
const BATCH_CHUNK: usize = 64;

/// The scalar form: the transform of the first accepted candidate.
#[inline]
fn sample_one<C, T, R: Rng + ?Sized>(
    rng: &mut R,
    mut candidate: impl FnMut(&mut R) -> (C, bool),
    transform: impl Fn(C) -> T,
) -> T {
    loop {
        let (c, accepted) = candidate(rng);
        if accepted {
            return transform(c);
        }
    }
}

/// The batch form: fills `out` with the transforms of the first
/// `out.len()` accepted candidates, drawing nothing after the last.
#[inline]
fn sample_batch<C: Copy, T, R: Rng + ?Sized>(
    out: &mut [T],
    rng: &mut R,
    blank: C,
    mut candidate: impl FnMut(&mut R) -> (C, bool),
    transform: impl Fn(C) -> T,
) {
    let mut kept = [blank; BATCH_CHUNK];
    for chunk in out.chunks_mut(BATCH_CHUNK) {
        let kept = &mut kept[..chunk.len()];
        let mut cursor = 0;
        while cursor < kept.len() {
            let (c, accepted) = candidate(rng);
            kept[cursor] = c;
            cursor += usize::from(accepted);
        }
        for (o, &c) in chunk.iter_mut().zip(kept.iter()) {
            *o = transform(c);
        }
    }
}

fn validate_radius(radius: f64) -> Result<(), GeomError> {
    if !radius.is_finite() {
        return Err(GeomError::NonFinite { name: "radius" });
    }
    if radius <= 0.0 {
        return Err(GeomError::NonPositive {
            name: "radius",
            value: radius,
        });
    }
    Ok(())
}

/// A point of the cube `[-radius, radius]^D`, accepted inside the
/// closed ball.
#[inline]
fn ball_candidate<const D: usize, R: Rng + ?Sized>(radius: f64, rng: &mut R) -> ([f64; D], bool) {
    let mut offset = [0.0; D];
    let mut norm_sq = 0.0;
    for c in &mut offset {
        *c = rng.random_range(-radius..=radius);
        norm_sq += *c * *c;
    }
    (offset, norm_sq <= radius * radius)
}

#[inline]
fn shift<const D: usize>(center: &Point<D>, offset: [f64; D]) -> Point<D> {
    let mut out = center.coords();
    for (o, d) in out.iter_mut().zip(&offset) {
        *o += d;
    }
    Point::new(out)
}

/// Draws a point uniformly from the closed ball of radius `radius`
/// centered at `center`.
///
/// # Errors
///
/// Returns [`GeomError::NonPositive`] when `radius <= 0` and
/// [`GeomError::NonFinite`] when it is not finite.
///
/// # Example
///
/// ```
/// use manet_geom::{sampling::sample_in_ball, Point};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let c = Point::new([5.0, 5.0]);
/// let p = sample_in_ball(&c, 2.0, &mut rng)?;
/// assert!(c.distance(&p) <= 2.0);
/// # Ok::<(), manet_geom::GeomError>(())
/// ```
pub fn sample_in_ball<const D: usize, R: Rng + ?Sized>(
    center: &Point<D>,
    radius: f64,
    rng: &mut R,
) -> Result<Point<D>, GeomError> {
    validate_radius(radius)?;
    Ok(sample_one(
        rng,
        |rng| ball_candidate(radius, rng),
        |offset| shift(center, offset),
    ))
}

/// Fills `out` with the points `out.len()` calls of [`sample_in_ball`]
/// would return, consuming the same draws.
///
/// # Errors
///
/// As [`sample_in_ball`]; on an error nothing is drawn.
pub fn sample_in_ball_batch<const D: usize, R: Rng + ?Sized>(
    center: &Point<D>,
    radius: f64,
    out: &mut [Point<D>],
    rng: &mut R,
) -> Result<(), GeomError> {
    validate_radius(radius)?;
    sample_batch(
        out,
        rng,
        [0.0; D],
        |rng| ball_candidate(radius, rng),
        |offset| shift(center, offset),
    );
    Ok(())
}

/// A Marsaglia polar candidate `(u, s = u² + v²)`, accepted inside the
/// open unit disk minus its center.
#[inline]
fn polar_candidate<R: Rng + ?Sized>(rng: &mut R) -> ([f64; 2], bool) {
    let u = rng.random_range(-1.0..=1.0);
    let v = rng.random_range(-1.0..=1.0);
    let s = u * u + v * v;
    ([u, s], s > 0.0 && s < 1.0)
}

#[inline]
fn polar_transform([u, s]: [f64; 2]) -> f64 {
    u * (-2.0 * s.ln() / s).sqrt()
}

/// Draws one standard-normal (`N(0, 1)`) variate.
///
/// Implemented with the Marsaglia polar method, consuming a
/// deterministic number of uniforms per *accepted* pair, so the draw is
/// a pure function of the RNG stream. The second variate of each pair
/// is intentionally discarded: carrying it across calls would make the
/// sample depend on call history, breaking the workspace's
/// clone-and-replay determinism contract for mobility models.
///
/// Used by the Gauss–Markov mobility model's velocity noise.
///
/// # Example
///
/// ```
/// use manet_geom::sampling::sample_standard_normal;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let x = sample_standard_normal(&mut rng);
/// assert!(x.is_finite());
/// ```
pub fn sample_standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    sample_one(rng, polar_candidate, polar_transform)
}

/// Fills `out` with the variates `out.len()` calls of
/// [`sample_standard_normal`] would return, consuming the same draws.
pub fn sample_standard_normal_batch<R: Rng + ?Sized>(out: &mut [f64], rng: &mut R) {
    sample_batch(out, rng, [0.0; 2], polar_candidate, polar_transform);
}

/// A point of the cube `[-1, 1]^D` and its squared norm, accepted in
/// the closed unit ball minus a tiny core (for numerical stability).
#[inline]
fn unit_candidate<const D: usize, R: Rng + ?Sized>(rng: &mut R) -> (([f64; D], f64), bool) {
    let mut v = [0.0; D];
    let mut norm_sq: f64 = 0.0;
    for c in &mut v {
        *c = rng.random_range(-1.0..=1.0);
        norm_sq += *c * *c;
    }
    ((v, norm_sq), norm_sq <= 1.0 && norm_sq > 1e-12)
}

#[inline]
fn normalize<const D: usize>((mut v, norm_sq): ([f64; D], f64)) -> Point<D> {
    let norm = norm_sq.sqrt();
    for c in &mut v {
        *c /= norm;
    }
    Point::new(v)
}

/// Draws a unit vector uniformly from the sphere `S^{D-1}`.
///
/// Implemented by rejection-sampling a point in the unit ball
/// (excluding a tiny core for numerical stability) and normalizing.
/// Used by the random-direction and random-walk mobility models.
pub fn sample_unit_vector<const D: usize, R: Rng + ?Sized>(rng: &mut R) -> Point<D> {
    sample_one(rng, unit_candidate, normalize)
}

/// Fills `out` with the vectors `out.len()` calls of
/// [`sample_unit_vector`] would return, consuming the same draws.
pub fn sample_unit_vector_batch<const D: usize, R: Rng + ?Sized>(
    out: &mut [Point<D>],
    rng: &mut R,
) {
    sample_batch(out, rng, ([0.0; D], 0.0), unit_candidate, normalize);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(777)
    }

    #[test]
    fn ball_samples_stay_in_ball() {
        let c = Point::new([10.0, -3.0]);
        let mut g = rng();
        for _ in 0..2000 {
            let p = sample_in_ball(&c, 1.5, &mut g).unwrap();
            assert!(c.distance(&p) <= 1.5 + 1e-12);
        }
    }

    #[test]
    fn ball_sampling_validates_radius() {
        let c = Point::new([0.0]);
        let mut g = rng();
        assert!(sample_in_ball(&c, 0.0, &mut g).is_err());
        assert!(sample_in_ball(&c, -1.0, &mut g).is_err());
        assert!(sample_in_ball(&c, f64::NAN, &mut g).is_err());
    }

    #[test]
    fn ball_samples_are_uniform_not_clustered() {
        // For the uniform law on a disk, E[dist²]/r² = 1/2.
        let c = Point::new([0.0, 0.0]);
        let mut g = rng();
        let trials = 20_000;
        let mean_d2: f64 = (0..trials)
            .map(|_| {
                let p = sample_in_ball(&c, 2.0, &mut g).unwrap();
                c.distance_sq(&p) / 4.0
            })
            .sum::<f64>()
            / trials as f64;
        assert!((mean_d2 - 0.5).abs() < 0.01, "E[d²]/r² = {mean_d2}");
    }

    #[test]
    fn ball_sampling_1d_is_interval() {
        let c: Point<1> = 5.0.into();
        let mut g = rng();
        for _ in 0..500 {
            let p = sample_in_ball(&c, 0.5, &mut g).unwrap();
            assert!((4.5..=5.5).contains(&p[0]));
        }
    }

    #[test]
    fn standard_normal_moments() {
        let mut g = rng();
        let trials = 40_000;
        let (mut sum, mut sum_sq) = (0.0, 0.0);
        for _ in 0..trials {
            let x = sample_standard_normal(&mut g);
            sum += x;
            sum_sq += x * x;
        }
        let mean = sum / trials as f64;
        let var = sum_sq / trials as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.05, "var = {var}");
    }

    #[test]
    fn standard_normal_deterministic() {
        let draw = |seed| {
            let mut g = rand::rngs::StdRng::seed_from_u64(seed);
            (0..10)
                .map(|_| sample_standard_normal(&mut g))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(5), draw(5));
        assert_ne!(draw(5), draw(6));
    }

    #[test]
    fn unit_vectors_have_unit_norm() {
        let mut g = rng();
        for _ in 0..1000 {
            let v: Point<3> = sample_unit_vector(&mut g);
            assert!((v.norm() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn unit_vectors_cover_directions() {
        // Mean of each coordinate over the sphere is 0.
        let mut g = rng();
        let trials = 20_000;
        let mut sums = [0.0; 2];
        for _ in 0..trials {
            let v: Point<2> = sample_unit_vector(&mut g);
            sums[0] += v[0];
            sums[1] += v[1];
        }
        for s in sums {
            assert!((s / trials as f64).abs() < 0.02, "direction bias: {s}");
        }
    }
}
