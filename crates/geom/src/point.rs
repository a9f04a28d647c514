//! `d`-dimensional points.

use core::ops::{Add, Index, Mul, Sub};

/// A point (or displacement vector) in `R^D`.
///
/// The paper works in `[0, l]^d` with Euclidean distances; `Point` is a
/// thin `Copy` wrapper over `[f64; D]` with the arithmetic the mobility
/// models and graph builders need.
///
/// # Example
///
/// ```
/// use manet_geom::Point;
///
/// let a = Point::new([0.0, 0.0]);
/// let b = Point::new([3.0, 4.0]);
/// assert_eq!(a.distance(&b), 5.0);
/// assert_eq!(a.distance_sq(&b), 25.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point<const D: usize>(pub(crate) [f64; D]);

// serde's derive does not support const-generic arrays, so (de)serialize
// as a fixed-length tuple by hand.
#[cfg(feature = "serde")]
impl<const D: usize> serde::Serialize for Point<D> {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::SerializeTuple;
        let mut tuple = serializer.serialize_tuple(D)?;
        for c in &self.0 {
            tuple.serialize_element(c)?;
        }
        tuple.end()
    }
}

#[cfg(feature = "serde")]
impl<'de, const D: usize> serde::Deserialize<'de> for Point<D> {
    fn deserialize<Des: serde::Deserializer<'de>>(deserializer: Des) -> Result<Self, Des::Error> {
        struct TupleVisitor<const D: usize>;

        impl<'de, const D: usize> serde::de::Visitor<'de> for TupleVisitor<D> {
            type Value = Point<D>;

            fn expecting(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
                write!(f, "an array of {D} floating-point coordinates")
            }

            fn visit_seq<A: serde::de::SeqAccess<'de>>(
                self,
                mut seq: A,
            ) -> Result<Point<D>, A::Error> {
                let mut out = [0.0; D];
                for (i, slot) in out.iter_mut().enumerate() {
                    *slot = seq
                        .next_element()?
                        .ok_or_else(|| serde::de::Error::invalid_length(i, &self))?;
                }
                Ok(Point(out))
            }
        }

        deserializer.deserialize_tuple(D, TupleVisitor::<D>)
    }
}

impl<const D: usize> Point<D> {
    /// The origin.
    pub const ORIGIN: Point<D> = Point([0.0; D]);

    /// Creates a point from its coordinates.
    pub fn new(coords: [f64; D]) -> Self {
        Point(coords)
    }

    /// The coordinates as an array.
    pub fn coords(&self) -> [f64; D] {
        self.0
    }

    /// Coordinate `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= D`.
    pub fn coord(&self, i: usize) -> f64 {
        self.0[i]
    }

    /// Euclidean distance to `other`.
    pub fn distance(&self, other: &Point<D>) -> f64 {
        self.distance_sq(other).sqrt()
    }

    /// Squared Euclidean distance to `other` (avoids the square root in
    /// hot loops; range tests compare against `r²`).
    pub fn distance_sq(&self, other: &Point<D>) -> f64 {
        let mut acc = 0.0;
        for i in 0..D {
            let d = self.0[i] - other.0[i];
            acc += d * d;
        }
        acc
    }

    /// Euclidean norm when the point is interpreted as a vector.
    pub fn norm(&self) -> f64 {
        self.distance(&Point::ORIGIN)
    }

    /// Linear interpolation: `self + t * (other - self)`.
    ///
    /// `t = 0` yields `self`, `t = 1` yields `other`; values outside
    /// `[0, 1]` extrapolate.
    pub fn lerp(&self, other: &Point<D>, t: f64) -> Point<D> {
        let mut out = [0.0; D];
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.0[i] + t * (other.0[i] - self.0[i]);
        }
        Point(out)
    }

    /// Moves from `self` toward `target` by at most `step`, stopping
    /// exactly at `target` when it is closer than `step`.
    ///
    /// Returns the new position and whether the target was reached.
    /// This is the kinematic primitive of the random waypoint model.
    pub fn step_toward(&self, target: &Point<D>, step: f64) -> (Point<D>, bool) {
        let dist = self.distance(target);
        if dist <= step || dist == 0.0 {
            (*target, true)
        } else {
            (self.lerp(target, step / dist), false)
        }
    }

    /// Returns `true` when every coordinate is finite.
    pub fn is_finite(&self) -> bool {
        self.0.iter().all(|c| c.is_finite())
    }
}

impl<const D: usize> Default for Point<D> {
    fn default() -> Self {
        Point::ORIGIN
    }
}

impl<const D: usize> From<[f64; D]> for Point<D> {
    fn from(coords: [f64; D]) -> Self {
        Point(coords)
    }
}

impl<const D: usize> From<Point<D>> for [f64; D] {
    fn from(p: Point<D>) -> Self {
        p.0
    }
}

impl From<f64> for Point<1> {
    fn from(x: f64) -> Self {
        Point([x])
    }
}

impl<const D: usize> Index<usize> for Point<D> {
    type Output = f64;

    fn index(&self, i: usize) -> &f64 {
        &self.0[i]
    }
}

impl<const D: usize> Add for Point<D> {
    type Output = Point<D>;

    fn add(self, rhs: Point<D>) -> Point<D> {
        let mut out = [0.0; D];
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.0[i] + rhs.0[i];
        }
        Point(out)
    }
}

impl<const D: usize> Sub for Point<D> {
    type Output = Point<D>;

    fn sub(self, rhs: Point<D>) -> Point<D> {
        let mut out = [0.0; D];
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.0[i] - rhs.0[i];
        }
        Point(out)
    }
}

impl<const D: usize> Mul<f64> for Point<D> {
    type Output = Point<D>;

    fn mul(self, s: f64) -> Point<D> {
        let mut out = [0.0; D];
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.0[i] * s;
        }
        Point(out)
    }
}

impl<const D: usize> core::fmt::Display for Point<D> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ")")
    }
}

/// The smallest range `r` whose range test `d2 <= r * r` admits a pair
/// at squared distance `d2`: `r.next_down()² < d2 <= r²` in floating
/// point. `d2.sqrt()` alone is not enough, because its square often
/// rounds just below `d2`. `d2 = 0` gives 0, and a NaN gives NaN.
///
/// # Example
///
/// ```
/// use manet_geom::covering_range;
///
/// let r = covering_range(3.0);
/// assert!(3.0_f64.sqrt() * 3.0_f64.sqrt() < 3.0);
/// assert_eq!(r, 3.0_f64.sqrt().next_up());
/// assert!(r.next_down() * r.next_down() < 3.0 && 3.0 <= r * r);
/// ```
pub fn covering_range(d2: f64) -> f64 {
    let mut r = d2.sqrt();
    // `sqrt` is correctly rounded, so each loop runs at most once or
    // twice; rounding `r * r` is monotone in `r`.
    while r * r < d2 {
        r = r.next_up();
    }
    while r > 0.0 && r.next_down() * r.next_down() >= d2 {
        r = r.next_down();
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covering_range_steps_past_squares_that_round_below() {
        // sqrt(3)² = 2.9999999999999996, and the squares of sqrt(0.2),
        // sqrt(1.5) and sqrt(5e12 + 1) round below too; sqrt(2)²
        // rounds above 2 and stays.
        for d2 in [3.0, 0.2, 1.5, 5.0e12 + 1.0, 2.0, 1.0, 0.0, 1e-300] {
            let r = covering_range(d2);
            assert!(d2 <= r * r, "{d2}: {r}");
            if d2 > 0.0 {
                assert!(r.next_down() * r.next_down() < d2, "{d2}: {r}");
            }
        }
        assert_eq!(covering_range(3.0), 3.0_f64.sqrt().next_up());
        assert_eq!(covering_range(2.0), 2.0_f64.sqrt());
        assert_eq!(covering_range(0.0), 0.0);
        assert!(covering_range(f64::NAN).is_nan());
    }

    #[test]
    fn covering_range_differs_from_sqrt_on_real_pair_distances() {
        // The pair (0, 0)–(0.1, 0.6) has d² = 0.37, whose square root
        // squares to 0.36999999999999994.
        let d2 = Point::new([0.0, 0.0]).distance_sq(&Point::new([0.1, 0.6]));
        assert!(d2.sqrt() * d2.sqrt() < d2);
        let r = covering_range(d2);
        assert_eq!(r, d2.sqrt().next_up());
        assert!(r.next_down() * r.next_down() < d2 && d2 <= r * r);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = Point::new([1.0, 2.0, 3.0]);
        let b = Point::new([-1.0, 0.5, 9.0]);
        assert_eq!(a.distance(&b), b.distance(&a));
    }

    #[test]
    fn distance_to_self_is_zero() {
        let a = Point::new([4.2, -1.0]);
        assert_eq!(a.distance(&a), 0.0);
    }

    #[test]
    fn one_dimensional_distance_is_abs_diff() {
        let a: Point<1> = 3.0.into();
        let b: Point<1> = 7.5.into();
        assert_eq!(a.distance(&b), 4.5);
    }

    #[test]
    fn lerp_endpoints() {
        let a = Point::new([0.0, 0.0]);
        let b = Point::new([2.0, 4.0]);
        assert_eq!(a.lerp(&b, 0.0), a);
        assert_eq!(a.lerp(&b, 1.0), b);
        assert_eq!(a.lerp(&b, 0.5), Point::new([1.0, 2.0]));
    }

    #[test]
    fn step_toward_reaches_close_target() {
        let a = Point::new([0.0, 0.0]);
        let b = Point::new([1.0, 0.0]);
        let (pos, arrived) = a.step_toward(&b, 5.0);
        assert!(arrived);
        assert_eq!(pos, b);
    }

    #[test]
    fn step_toward_partial_move_preserves_direction() {
        let a = Point::new([0.0, 0.0]);
        let b = Point::new([10.0, 0.0]);
        let (pos, arrived) = a.step_toward(&b, 4.0);
        assert!(!arrived);
        assert!((pos.coord(0) - 4.0).abs() < 1e-12);
        assert_eq!(pos.coord(1), 0.0);
    }

    #[test]
    fn step_toward_zero_distance() {
        let a = Point::new([1.0]);
        let (pos, arrived) = a.step_toward(&a, 0.0);
        assert!(arrived);
        assert_eq!(pos, a);
    }

    #[test]
    fn arithmetic_ops() {
        let a = Point::new([1.0, 2.0]);
        let b = Point::new([3.0, 5.0]);
        assert_eq!(a + b, Point::new([4.0, 7.0]));
        assert_eq!(b - a, Point::new([2.0, 3.0]));
        assert_eq!(a * 2.0, Point::new([2.0, 4.0]));
        assert_eq!(a[1], 2.0);
    }

    #[test]
    fn norm_matches_pythagoras() {
        assert_eq!(Point::new([3.0, 4.0]).norm(), 5.0);
    }

    #[test]
    fn display_roundtrip_readable() {
        let p = Point::new([1.5, -2.0]);
        assert_eq!(p.to_string(), "(1.5, -2)");
    }

    #[test]
    fn is_finite_detects_nan() {
        assert!(Point::new([1.0, 2.0]).is_finite());
        assert!(!Point::new([f64::NAN, 2.0]).is_finite());
        assert!(!Point::new([1.0, f64::INFINITY]).is_finite());
    }

    #[test]
    fn conversion_roundtrip() {
        let arr = [1.0, 2.0, 3.0];
        let p: Point<3> = arr.into();
        let back: [f64; 3] = p.into();
        assert_eq!(arr, back);
    }
}
