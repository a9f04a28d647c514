//! Property-based tests for the geometry substrate.

use manet_geom::{sampling, MovingCellGrid, Point, Region};
use proptest::prelude::*;
use rand::SeedableRng;

fn coord() -> impl Strategy<Value = f64> {
    -1.0e3..1.0e3
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn distance_is_a_metric(
        ax in coord(), ay in coord(),
        bx in coord(), by in coord(),
        cx in coord(), cy in coord(),
    ) {
        let a = Point::new([ax, ay]);
        let b = Point::new([bx, by]);
        let c = Point::new([cx, cy]);
        // Symmetry
        prop_assert!((a.distance(&b) - b.distance(&a)).abs() < 1e-9);
        // Identity
        prop_assert_eq!(a.distance(&a), 0.0);
        // Non-negativity
        prop_assert!(a.distance(&b) >= 0.0);
        // Triangle inequality (with fp slack)
        prop_assert!(a.distance(&c) <= a.distance(&b) + b.distance(&c) + 1e-9);
    }

    #[test]
    fn distance_sq_consistent(ax in coord(), ay in coord(), bx in coord(), by in coord()) {
        let a = Point::new([ax, ay]);
        let b = Point::new([bx, by]);
        let d = a.distance(&b);
        prop_assert!((d * d - a.distance_sq(&b)).abs() <= 1e-6 * (1.0 + d * d));
    }

    #[test]
    fn step_toward_never_overshoots(
        ax in coord(), ay in coord(),
        bx in coord(), by in coord(),
        step in 0.0..2.0e3,
    ) {
        let a = Point::new([ax, ay]);
        let b = Point::new([bx, by]);
        let (next, arrived) = a.step_toward(&b, step);
        let moved = a.distance(&next);
        prop_assert!(moved <= step + 1e-9, "moved {moved} > step {step}");
        if arrived {
            prop_assert_eq!(next, b);
        } else {
            // Remaining distance shrank by exactly the step.
            let before = a.distance(&b);
            let after = next.distance(&b);
            prop_assert!((before - after - step).abs() < 1e-6);
        }
    }

    #[test]
    fn clamp_and_reflect_land_inside(side in 0.1..1.0e3, x in -5.0e3..5.0e3, y in -5.0e3..5.0e3) {
        let region: Region<2> = Region::new(side).unwrap();
        let p = Point::new([x, y]);
        prop_assert!(region.contains(&region.clamp(&p)));
        prop_assert!(region.contains(&region.reflect(&p)));
    }

    #[test]
    fn reflect_is_identity_inside(side in 0.1..1.0e3, fx in 0.0..1.0, fy in 0.0..1.0) {
        let region: Region<2> = Region::new(side).unwrap();
        let p = Point::new([fx * side, fy * side]);
        let r = region.reflect(&p);
        prop_assert!((r[0] - p[0]).abs() < 1e-9 && (r[1] - p[1]).abs() < 1e-9);
    }

    #[test]
    fn uniform_samples_always_inside(side in 0.1..1.0e4, seed in any::<u64>()) {
        let region: Region<2> = Region::new(side).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for _ in 0..32 {
            prop_assert!(region.contains(&region.sample_uniform(&mut rng)));
        }
    }

    #[test]
    fn ball_samples_within_radius(
        cx in coord(), cy in coord(),
        radius in 0.01..100.0,
        seed in any::<u64>(),
    ) {
        let c = Point::new([cx, cy]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for _ in 0..16 {
            let p = sampling::sample_in_ball(&c, radius, &mut rng).unwrap();
            prop_assert!(c.distance(&p) <= radius + 1e-9);
        }
    }

    #[test]
    fn grid_pair_enumeration_matches_brute_force(
        seed in any::<u64>(),
        n in 2usize..60,
        r in 0.5..20.0,
    ) {
        let side = 100.0;
        let region: Region<2> = Region::new(side).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let pts = region.place_uniform(n, &mut rng);
        let cell = MovingCellGrid::<2>::lattice_cell_size(n, side, r).unwrap();
        let grid = MovingCellGrid::build(&pts, side, cell).unwrap();
        let mut got = Vec::new();
        grid.scan_forward_pairs(0, grid.cells_per_side(), r * r, |i, j| {
            got.push((i as usize, j as usize));
        });
        got.sort_unstable();
        let mut want = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                if pts[i].distance_sq(&pts[j]) <= r * r {
                    want.push((i, j));
                }
            }
        }
        prop_assert_eq!(got, want);
    }

    #[test]
    fn unit_vectors_unit_norm(seed in any::<u64>()) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let v: Point<3> = sampling::sample_unit_vector(&mut rng);
        prop_assert!((v.norm() - 1.0).abs() < 1e-9);
    }
}
