//! Property-based tests for the geometry substrate.

use manet_geom::{covering_range, sampling, MovingCellGrid, Point, Region};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::{Rng, RngCore, RngExt, SeedableRng};

fn coord() -> impl Strategy<Value = f64> {
    -1.0e3..1.0e3
}

/// One step of a moving grid's history: each node moves with
/// probability `move_prob` (a jitter of up to `jitter` per axis, or a
/// teleport one time in ten), then the step is committed by `reset`
/// or by `relocate` of the measured moved set.
#[derive(Debug, Clone)]
struct Commit {
    move_prob: f64,
    jitter: f64,
    reset: bool,
}

fn commit() -> impl Strategy<Value = Commit> {
    (0.0..=1.0, 0.1..30.0, any::<bool>()).prop_map(|(move_prob, jitter, reset)| Commit {
        move_prob,
        jitter,
        reset,
    })
}

/// Every pair with `distance_sq <= r2`, as `(min, max)`, sorted.
fn brute_force_pairs<const D: usize>(pts: &[Point<D>], r2: f64) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    for i in 0..pts.len() {
        for j in (i + 1)..pts.len() {
            if pts[i].distance_sq(&pts[j]) <= r2 {
                out.push((i as u32, j as u32));
            }
        }
    }
    out
}

/// Checks every query of `grid` against brute force over `pts`: the
/// forward scan, the scan's price and the per-node candidate query.
fn check_grid_queries<const D: usize>(
    grid: &mut MovingCellGrid<D>,
    pts: &[Point<D>],
    r2: f64,
    at: usize,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(grid.points(), pts, "commit {}: positions", at);
    let want = brute_force_pairs(pts, r2);
    let mut full = Vec::new();
    let examined = grid.scan_forward_pairs(r2, |batch| full.extend_from_slice(batch));
    prop_assert_eq!(grid.forward_pair_count(), examined, "commit {}: price", at);
    full.sort_unstable();
    prop_assert_eq!(&full, &want, "commit {}: full scan", at);

    let mut queried = Vec::new();
    for (i, p) in pts.iter().enumerate() {
        let mut seen = Vec::new();
        grid.for_each_candidate(p, |j, q| {
            seen.push(j);
            let stored = pts[j as usize].coords().map(f64::to_bits);
            assert_eq!(
                q.coords().map(f64::to_bits),
                stored,
                "stored position of {j}"
            );
            if j as usize > i && p.distance_sq(q) <= r2 {
                queried.push((i as u32, j));
            }
        });
        seen.sort_unstable();
        prop_assert!(
            seen.windows(2).all(|w| w[0] < w[1]),
            "commit {}: duplicate candidate",
            at
        );
        prop_assert!(
            seen.binary_search(&(i as u32)).is_ok(),
            "commit {}: {} not its own candidate",
            at,
            i
        );
    }
    queried.sort_unstable();
    prop_assert_eq!(&queried, &want, "commit {}: candidate query", at);
    Ok(())
}

/// Builds a grid over a uniform placement in `[0, 100]^D`, replays
/// `history` on it and checks every query after the build and after
/// every commit.
fn check_grid_history<const D: usize>(
    seed: u64,
    n: usize,
    r: f64,
    history: &[Commit],
) -> Result<(), TestCaseError> {
    let side = 100.0;
    let region: Region<D> = Region::new(side).unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut pts = region.place_uniform(n, &mut rng);
    let cell = MovingCellGrid::<D>::lattice_cell_size(n, side, r).unwrap();
    let mut grid = MovingCellGrid::build(&pts, side, cell).unwrap();
    check_grid_queries(&mut grid, &pts, r * r, 0)?;
    let mut moved = Vec::new();
    for (k, step) in history.iter().enumerate() {
        let old = pts.clone();
        for p in &mut pts {
            if rng.random_range(0.0..1.0) >= step.move_prob {
                continue;
            }
            *p = if rng.random_range(0.0..1.0) < 0.1 {
                region.sample_uniform(&mut rng)
            } else {
                Point::new(std::array::from_fn(|axis| {
                    let c = p.coord(axis) + rng.random_range(-step.jitter..step.jitter);
                    c.clamp(0.0, side)
                }))
            };
        }
        let max_d2 = grid.measure(&pts, &mut moved);
        let want_moved: Vec<u32> = (0..n as u32)
            .filter(|&i| pts[i as usize] != old[i as usize])
            .collect();
        prop_assert_eq!(&moved, &want_moved, "commit {}: moved set", k + 1);
        let want_d2 = want_moved
            .iter()
            .map(|&i| old[i as usize].distance_sq(&pts[i as usize]))
            .fold(0.0, f64::max);
        prop_assert_eq!(
            max_d2.to_bits(),
            want_d2.to_bits(),
            "commit {}: max displacement",
            k + 1
        );
        if step.reset {
            grid.reset(&pts);
        } else {
            grid.relocate(&pts, &moved);
        }
        check_grid_queries(&mut grid, &pts, r * r, k + 1)?;
    }
    Ok(())
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
        dim in 1usize..=3,
        history in prop::collection::vec(commit(), 0..8),
    ) {
        match dim {
            1 => check_grid_history::<1>(seed, n, r, &history)?,
            2 => check_grid_history::<2>(seed, n, r, &history)?,
            _ => check_grid_history::<3>(seed, n, r, &history)?,
        }
    }

    #[test]
    fn unit_vectors_unit_norm(seed in any::<u64>()) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let v: Point<3> = sampling::sample_unit_vector(&mut rng);
        prop_assert!((v.norm() - 1.0).abs() < 1e-9);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn covering_range_is_the_smallest_admitting_range(
        mantissa in 1.0..2.0f64,
        exponent in -300..300i32,
        ax in coord(), ay in coord(), bx in coord(), by in coord(),
    ) {
        let d2 = mantissa * 2f64.powi(exponent);
        let pair = Point::new([ax, ay]).distance_sq(&Point::new([bx, by]));
        for d2 in [d2, pair] {
            prop_assume!(d2 > 0.0);
            let r = covering_range(d2);
            prop_assert!(d2 <= r * r, "{} admits no pair at {}", r, d2);
            let below = r.next_down();
            prop_assert!(below * below < d2, "{} already admits {}", below, d2);
        }
    }
}

/// Checks that `batch` fills `k` slots with exactly the values of `k`
/// `scalar` calls (compared as bits) and leaves its RNG where the
/// scalar calls leave theirs. Both sides draw through `&mut dyn Rng`,
/// as the mobility models do.
fn batch_replays_scalar<T: Clone>(
    seed: u64,
    k: usize,
    blank: T,
    scalar: impl Fn(&mut dyn Rng) -> T,
    batch: impl Fn(&mut [T], &mut dyn Rng),
    bits: impl Fn(&T) -> Vec<u64>,
) -> Result<(), TestCaseError> {
    let mut a = rand::rngs::StdRng::seed_from_u64(seed);
    let want: Vec<T> = (0..k).map(|_| scalar(&mut a)).collect();
    let mut b = rand::rngs::StdRng::seed_from_u64(seed);
    let mut got = vec![blank; k];
    batch(&mut got, &mut b);
    prop_assert_eq!(
        want.iter().flat_map(&bits).collect::<Vec<_>>(),
        got.iter().flat_map(&bits).collect::<Vec<_>>(),
        "k = {}",
        k
    );
    prop_assert_eq!(a.next_u64(), b.next_u64(), "RNG position after k = {}", k);
    Ok(())
}

fn point_bits<const D: usize>(p: &Point<D>) -> Vec<u64> {
    p.coords().map(f64::to_bits).to_vec()
}

/// The ball and unit-vector batches in dimension `D`.
fn ball_and_unit_batches_replay<const D: usize>(
    seed: u64,
    k: usize,
    center: f64,
    radius: f64,
) -> Result<(), TestCaseError> {
    let c = Point::new([center; D]);
    batch_replays_scalar(
        seed,
        k,
        Point::new([0.0; D]),
        |rng| sampling::sample_in_ball(&c, radius, rng).unwrap(),
        |out, rng| sampling::sample_in_ball_batch(&c, radius, out, rng).unwrap(),
        point_bits,
    )?;
    batch_replays_scalar(
        seed,
        k,
        Point::new([0.0; D]),
        |rng| sampling::sample_unit_vector::<D, _>(rng),
        |out, rng| sampling::sample_unit_vector_batch(out, rng),
        point_bits,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn batch_samplers_replay_scalar_calls(
        seed in any::<u64>(),
        k in 0usize..=300,
        center_kind in 0usize..3,
        c in coord(),
        radius_kind in 0usize..4,
        frac in 0.0..1.0f64,
    ) {
        let center = [c, 0.0, -1.0e308][center_kind];
        // Moderate, tiny, squaring past f64::MAX, and doubling past it
        // (the cube's span `2·radius` overflows).
        let radius = [
            1.0e-3 + frac * 1.0e3,
            1.0e-300 * (1.0 + frac),
            1.0e153 + frac * 1.0e155,
            f64::MAX * (0.5 + 0.5 * frac),
        ][radius_kind];
        batch_replays_scalar(
            seed,
            k,
            0.0,
            |rng| sampling::sample_standard_normal(rng),
            |out, rng| sampling::sample_standard_normal_batch(out, rng),
            |x| vec![x.to_bits()],
        )?;
        ball_and_unit_batches_replay::<1>(seed, k, center, radius)?;
        ball_and_unit_batches_replay::<2>(seed, k, center, radius)?;
        ball_and_unit_batches_replay::<3>(seed, k, center, radius)?;
    }

    #[test]
    fn ball_batch_rejects_what_the_scalar_form_rejects(
        radius_kind in 0usize..4,
        seed in any::<u64>(),
    ) {
        let radius = [0.0, -1.0, f64::NAN, f64::INFINITY][radius_kind];
        let mut a = rand::rngs::StdRng::seed_from_u64(seed);
        let mut out = [Point::new([0.0; 2]); 4];
        let err = sampling::sample_in_ball_batch(&Point::new([0.0; 2]), radius, &mut out, &mut a);
        prop_assert_eq!(err, sampling::sample_in_ball(&Point::new([0.0; 2]), radius, &mut a).map(|_| ()));
        prop_assert!(err.is_err());
        let mut b = rand::rngs::StdRng::seed_from_u64(seed);
        prop_assert_eq!(a.next_u64(), b.next_u64(), "an invalid radius drew");
    }
}
