//! Property-based tests for the mobility models: containment,
//! determinism, and parameter contracts under random configurations.

use manet_geom::{Point, Region};
use manet_mobility::{
    BoundaryMode, Bounded, Drunkard, GaussMarkov, Mobility, ModelRegistry, PaperScale,
    RandomDirection, RandomWalk, RandomWaypoint, ReferencePointGroup, StationaryModel,
};
use proptest::prelude::*;
use rand::SeedableRng;

fn run_model<M: Mobility<2>>(
    model: &mut M,
    side: f64,
    n: usize,
    steps: usize,
    seed: u64,
) -> Vec<Point<2>> {
    let region: Region<2> = Region::new(side).unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut pos = region.place_uniform(n, &mut rng);
    model.init(&pos, &region, &mut rng);
    for _ in 0..steps {
        model.step(&mut pos, &region, &mut rng);
    }
    pos
}

fn all_inside(side: f64, pos: &[Point<2>]) -> bool {
    let region: Region<2> = Region::new(side).unwrap();
    pos.iter().all(|p| region.contains(p))
}

/// Runs the registry model `name` at `scale` like [`run_model`],
/// failing on the first step that leaves a node outside the region.
fn run_registry_model_contained(
    name: &str,
    scale: &PaperScale,
    n: usize,
    steps: usize,
    seed: u64,
) -> Result<Vec<Point<2>>, TestCaseError> {
    let mut model = ModelRegistry::<2>::with_builtins()
        .build(name, scale)
        .unwrap();
    let region: Region<2> = Region::new(scale.side).unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut pos = region.place_uniform(n, &mut rng);
    model.init(&pos, &region, &mut rng);
    for step in 0..steps {
        model.step(&mut pos, &region, &mut rng);
        if let Some(i) = pos.iter().position(|p| !region.contains(p)) {
            return Err(TestCaseError::fail(format!(
                "{name}: node {i} left the region at step {step}: {:?}",
                pos[i]
            )));
        }
    }
    Ok(pos)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn waypoint_contains_and_repeats(
        side in 10.0..500.0f64,
        n in 1usize..20,
        v_max_frac in 0.001..0.2f64,
        pause in 0u32..10,
        p_stat in 0.0..=1.0f64,
        seed in any::<u64>(),
    ) {
        let v_max = (v_max_frac * side).max(0.1);
        let mut m1 = RandomWaypoint::new(0.1, v_max.max(0.1), pause, p_stat).unwrap();
        let out1 = run_model(&mut m1, side, n, 50, seed);
        prop_assert!(all_inside(side, &out1));
        // Determinism: a fresh clone with the same seed replays exactly.
        let mut m2 = RandomWaypoint::new(0.1, v_max.max(0.1), pause, p_stat).unwrap();
        let out2 = run_model(&mut m2, side, n, 50, seed);
        prop_assert_eq!(out1, out2);
    }

    #[test]
    fn waypoint_speed_bound_respected(
        side in 50.0..300.0f64,
        seed in any::<u64>(),
    ) {
        let v_max = 0.02 * side;
        let region: Region<2> = Region::new(side).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut pos = region.place_uniform(8, &mut rng);
        let mut m = RandomWaypoint::new(0.1, v_max, 2, 0.0).unwrap();
        m.init(&pos, &region, &mut rng);
        for _ in 0..30 {
            let before = pos.clone();
            m.step(&mut pos, &region, &mut rng);
            for (a, b) in before.iter().zip(&pos) {
                prop_assert!(a.distance(b) <= v_max + 1e-9);
            }
        }
    }

    #[test]
    fn drunkard_contains_and_bounds_jumps(
        side in 10.0..500.0f64,
        n in 1usize..20,
        p_stat in 0.0..=1.0f64,
        p_pause in 0.0..=1.0f64,
        m_frac in 0.001..0.5f64,
        seed in any::<u64>(),
    ) {
        let radius = (m_frac * side).max(1e-3);
        let region: Region<2> = Region::new(side).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut pos = region.place_uniform(n, &mut rng);
        let mut model = Drunkard::new(p_stat, p_pause, radius).unwrap();
        model.init(&pos, &region, &mut rng);
        for _ in 0..40 {
            let before = pos.clone();
            model.step(&mut pos, &region, &mut rng);
            prop_assert!(all_inside(side, &pos));
            for (a, b) in before.iter().zip(&pos) {
                prop_assert!(a.distance(b) <= radius + 1e-9);
            }
        }
    }

    #[test]
    fn walk_and_direction_contain(
        side in 10.0..300.0f64,
        n in 1usize..15,
        speed_frac in 0.001..0.3f64,
        seed in any::<u64>(),
    ) {
        let speed = (speed_frac * side).max(1e-3);
        let mut walk = RandomWalk::new(speed, 0.0).unwrap();
        prop_assert!(all_inside(side, &run_model(&mut walk, side, n, 40, seed)));
        let mut dir = RandomDirection::new(speed, speed, 1, 0.0).unwrap();
        prop_assert!(all_inside(side, &run_model(&mut dir, side, n, 40, seed)));
    }

    #[test]
    fn stationary_model_is_frozen(side in 10.0..300.0f64, n in 1usize..20, seed in any::<u64>()) {
        let region: Region<2> = Region::new(side).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let pos0 = region.place_uniform(n, &mut rng);
        let mut pos = pos0.clone();
        let mut m = StationaryModel::new();
        Mobility::<2>::init(&mut m, &pos, &region, &mut rng);
        for _ in 0..10 {
            m.step(&mut pos, &region, &mut rng);
        }
        prop_assert_eq!(pos, pos0);
    }

    #[test]
    fn gauss_markov_contains_and_repeats(
        side in 10.0..500.0f64,
        n in 1usize..20,
        alpha in 0.0..=1.0f64,
        speed_frac in 0.0..0.1f64,
        sigma_frac in 0.001..0.1f64,
        p_stat in 0.0..=1.0f64,
        seed in any::<u64>(),
    ) {
        let mean_speed = speed_frac * side;
        let sigma = (sigma_frac * side).max(1e-6);
        let mut m1 = GaussMarkov::new(alpha, mean_speed, sigma, p_stat).unwrap();
        let out1 = run_model(&mut m1, side, n, 60, seed);
        prop_assert!(all_inside(side, &out1));
        // Determinism: a fresh instance with the same seed replays
        // byte-identically (f64 bit equality via ==).
        let mut m2 = GaussMarkov::new(alpha, mean_speed, sigma, p_stat).unwrap();
        prop_assert_eq!(out1, run_model(&mut m2, side, n, 60, seed));
    }

    #[test]
    fn rpgm_tether_containment_and_determinism(
        side in 20.0..500.0f64,
        n in 2usize..24,
        group_size in 1usize..6,
        tether_frac in 0.01..0.3f64,
        speed_frac in 0.001..0.05f64,
        pause in 0u32..5,
        seed in any::<u64>(),
    ) {
        let tether = (tether_frac * side).max(1e-3);
        let v_max = (speed_frac * side).max(0.2);
        let region: Region<2> = Region::new(side).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut pos = region.place_uniform(n, &mut rng);
        let mut model =
            ReferencePointGroup::new(group_size, tether, 0.1, v_max, pause).unwrap();
        model.init(&pos, &region, &mut rng);
        for _ in 0..40 {
            model.step(&mut pos, &region, &mut rng);
            prop_assert!(all_inside(side, &pos));
            // The member-tether invariant, at every step.
            for i in 0..n {
                let d = pos[i].distance(&pos[model.leader_of(i)]);
                prop_assert!(d <= tether + 1e-9, "node {} strayed {}", i, d);
            }
        }
        // Byte-identical replay from a fresh instance.
        let mut replay =
            ReferencePointGroup::new(group_size, tether, 0.1, v_max, pause).unwrap();
        prop_assert_eq!(pos, run_model(&mut replay, side, n, 40, seed));
    }

    #[test]
    fn bounded_modes_contain_and_repeat(
        side in 10.0..300.0f64,
        n in 1usize..15,
        speed_frac in 0.01..0.5f64,
        mode_idx in 0usize..3,
        seed in any::<u64>(),
    ) {
        let mode = [BoundaryMode::Reflect, BoundaryMode::Wrap, BoundaryMode::Bounce][mode_idx];
        let speed = (speed_frac * side).max(1e-3);

        let mut walk = Bounded::new(RandomWalk::new(speed, 0.0).unwrap(), mode);
        let out = run_model(&mut walk, side, n, 40, seed);
        prop_assert!(all_inside(side, &out));
        let mut replay = Bounded::new(RandomWalk::new(speed, 0.0).unwrap(), mode);
        prop_assert_eq!(out, run_model(&mut replay, side, n, 40, seed));

        let mut gm = Bounded::new(
            GaussMarkov::new(0.9, speed, speed / 2.0, 0.0).unwrap(),
            mode,
        );
        let out = run_model(&mut gm, side, n, 40, seed);
        prop_assert!(all_inside(side, &out));

        let mut dir = Bounded::new(RandomDirection::new(speed, speed, 1, 0.0).unwrap(), mode);
        prop_assert!(all_inside(side, &run_model(&mut dir, side, n, 40, seed)));
    }

    #[test]
    fn registry_builds_replay_identically(
        side in 20.0..400.0f64,
        n in 1usize..16,
        pause in 0u32..10,
        seed in any::<u64>(),
    ) {
        let registry = ModelRegistry::<2>::with_builtins();
        let scale = PaperScale::new(side).with_pause(pause);
        for name in registry.names() {
            let out = run_registry_model_contained(name, &scale, n, 30, seed)?;
            let mut replay = registry.build(name, &scale).unwrap();
            prop_assert_eq!(out, run_model(&mut replay, side, n, 30, seed), "{}", name);
        }
    }

    #[test]
    fn p_stationary_extremes(side in 20.0..200.0f64, n in 2usize..15, seed in any::<u64>()) {
        // p = 1: nothing moves, regardless of model.
        let region: Region<2> = Region::new(side).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let pos0 = region.place_uniform(n, &mut rng);
        let mut pos = pos0.clone();
        let mut m = RandomWaypoint::new(0.5, 5.0, 0, 1.0).unwrap();
        m.init(&pos, &region, &mut rng);
        for _ in 0..20 {
            m.step(&mut pos, &region, &mut rng);
        }
        prop_assert_eq!(&pos, &pos0);

        let mut d = Drunkard::new(1.0, 0.0, 5.0).unwrap();
        let mut pos = pos0.clone();
        d.init(&pos, &region, &mut rng);
        for _ in 0..20 {
            d.step(&mut pos, &region, &mut rng);
        }
        prop_assert_eq!(&pos, &pos0);
    }
}

// ---------------------------------------------------------------------------
// The displacement-bound contract behind the incremental step kernel:
// whenever a registry model declares `max_step_displacement`, its
// steady-state steps must respect it (the kernel treats violations as
// fallback-worthy lies). RPGM's first step is the one sanctioned
// exception — it gathers uniformly-placed members onto their leaders.
// ---------------------------------------------------------------------------

#[test]
fn declared_displacement_bounds_hold_on_steady_state_steps() {
    let side = 200.0;
    let region: Region<2> = Region::new(side).unwrap();
    let registry = ModelRegistry::<2>::with_builtins();
    let scale = PaperScale::new(side).with_pause(4);
    let mut bounded_models = 0;
    for name in registry.names() {
        let mut model = registry.build(name, &scale).unwrap();
        let Some(bound) = model.max_step_displacement() else {
            continue;
        };
        bounded_models += 1;
        assert!(bound.is_finite() && bound >= 0.0, "{name}: invalid bound");
        let mut rng = rand::rngs::StdRng::seed_from_u64(2026);
        let mut pos = region.place_uniform(36, &mut rng);
        model.init(&pos, &region, &mut rng);
        let limit = bound * (1.0 + 1e-9);
        for step in 0..150 {
            let prev = pos.clone();
            model.step(&mut pos, &region, &mut rng);
            if step == 0 && name == "rpgm" {
                continue; // the sanctioned gathering step
            }
            for (i, (a, b)) in prev.iter().zip(&pos).enumerate() {
                let d = a.distance(b);
                assert!(
                    d <= limit,
                    "{name}: node {i} moved {d} > declared bound {bound} at step {step}"
                );
            }
        }
    }
    // stationary, waypoint, drunkard, walk, direction, rpgm, and the
    // reflect/bounce wrap variants declare bounds; gauss-markov and
    // the wrap-torus variants do not.
    assert!(bounded_models >= 8, "bounds disappeared from the registry");
}

#[test]
fn wrap_and_gaussian_models_decline_to_declare_bounds() {
    let registry = ModelRegistry::<2>::with_builtins();
    let scale = PaperScale::new(100.0);
    for name in [
        "gauss-markov",
        "walk-wrap",
        "direction-wrap",
        "gauss-markov-wrap",
    ] {
        let model = registry.build(name, &scale).unwrap();
        assert_eq!(
            model.max_step_displacement(),
            None,
            "{name} cannot promise a Euclidean per-step bound"
        );
    }
    for name in ["walk-bounce", "direction-bounce"] {
        let model = registry.build(name, &scale).unwrap();
        assert!(
            model.max_step_displacement().is_some(),
            "{name} folds motion non-expansively and should declare its bound"
        );
    }
}

/// Every registry model keeps every node inside the region after every
/// step at the simulator's own shapes: `critical-scaling`'s n = 32
/// (side 362) over 2,000 steps, trace-large's n = 2000 on side 1024,
/// and the paper's smallest and largest systems, each with the paper's
/// pause scaled to its horizon as `manet-repro` scales it.
#[test]
fn every_registry_model_stays_in_region_at_simulator_shapes() {
    let registry = ModelRegistry::<2>::with_builtins();
    assert_eq!(registry.names().len(), 13, "registry model count drifted");
    for (side, n, steps) in [
        (362.0, 32, 2_000u32),
        (1024.0, 2000, 60),
        (256.0, 16, 500),
        (16384.0, 128, 500),
    ] {
        let scale = PaperScale::new(side).with_pause(steps / 5);
        for name in registry.names() {
            for seed in 0..2 {
                run_registry_model_contained(name, &scale, n, steps as usize, seed).unwrap();
            }
        }
    }
}
