//! Property-based tests for the simulation engine: the fast
//! critical-range path is held to agree with the literal fixed-range
//! simulator on identical trajectories, for random configurations.

use manet_mobility::{Drunkard, RandomWaypoint, StationaryModel};
use manet_sim::{
    run_connectivity_stream, simulate_critical_ranges, simulate_fixed_range, simulate_profiles,
    SimConfig,
};
use proptest::prelude::*;

fn config(nodes: usize, side: f64, iterations: usize, steps: usize, seed: u64) -> SimConfig<2> {
    let mut b = SimConfig::<2>::builder();
    b.nodes(nodes)
        .side(side)
        .iterations(iterations)
        .steps(steps)
        .seed(seed)
        .profile_bins(256);
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn quantile_metrics_are_ordered(
        nodes in 4usize..16,
        side in 50.0..300.0f64,
        seed in any::<u64>(),
    ) {
        let cfg = config(nodes, side, 3, 20, seed);
        let model = RandomWaypoint::new(0.1, 0.02 * side, 2, 0.0).unwrap();
        let res = simulate_critical_ranges(&cfg, &model).unwrap();
        for q in res.quantiles_per_iteration().unwrap() {
            prop_assert!(q.r100 >= q.r90 && q.r90 >= q.r10 && q.r10 >= q.r0);
            prop_assert!(q.r0 >= 0.0);
            prop_assert!(q.r100 <= side * 2f64.sqrt() + 1e-9);
        }
    }

    #[test]
    fn fixed_range_agrees_with_critical_series(
        nodes in 4usize..12,
        side in 50.0..200.0f64,
        r_frac in 0.05..1.0f64,
        seed in any::<u64>(),
    ) {
        let cfg = config(nodes, side, 2, 15, seed);
        let model = Drunkard::new(0.1, 0.2, 0.05 * side).unwrap();
        let crit = simulate_critical_ranges(&cfg, &model).unwrap();
        let r = r_frac * side;
        let fixed = simulate_fixed_range(&cfg, &model, r).unwrap();
        prop_assert!(
            (fixed.connectivity_fraction() - crit.connectivity_fraction_at(r)).abs() < 1e-12
        );
    }

    #[test]
    fn profiles_agree_with_fixed_range_component_sizes(
        nodes in 4usize..12,
        side in 50.0..200.0f64,
        seed in any::<u64>(),
    ) {
        // Evaluate the average largest component two ways at a grid
        // boundary: merge-profile grid vs direct fixed-range graphs.
        let cfg = config(nodes, side, 2, 10, seed);
        let model = StationaryModel::new();
        let profiles = simulate_profiles(&cfg, &model).unwrap();
        let pooled = profiles.pooled().unwrap();
        let r = pooled.bin_width() * 64.0; // exactly on the grid
        let via_profile = pooled.average_size_at(r);
        let via_fixed = simulate_fixed_range(&cfg, &model, r).unwrap().avg_largest();
        prop_assert!(
            (via_profile - via_fixed).abs() < 1e-9,
            "profile {via_profile} vs fixed {via_fixed}"
        );
    }

    #[test]
    fn determinism_across_thread_counts(
        nodes in 4usize..10,
        side in 50.0..150.0f64,
        seed in any::<u64>(),
    ) {
        let mk = |threads: usize| {
            let mut b = SimConfig::<2>::builder();
            b.nodes(nodes)
                .side(side)
                .iterations(4)
                .steps(10)
                .seed(seed)
                .threads(threads);
            b.build().unwrap()
        };
        let model = RandomWaypoint::new(0.1, 2.0, 1, 0.3).unwrap();
        let a = simulate_critical_ranges(&mk(1), &model).unwrap();
        let b = simulate_critical_ranges(&mk(3), &model).unwrap();
        for (x, y) in a.per_iteration().iter().zip(b.per_iteration()) {
            prop_assert_eq!(x.as_sorted(), y.as_sorted());
        }
    }

    #[test]
    fn component_target_monotone_in_fraction(
        nodes in 6usize..14,
        side in 50.0..200.0f64,
        seed in any::<u64>(),
    ) {
        // A profile grid past the region's diagonal reaches every target.
        let mut b = SimConfig::<2>::builder();
        b.nodes(nodes)
            .side(side)
            .iterations(2)
            .steps(10)
            .seed(seed)
            .profile_bins(256)
            .profile_max_range(side * 1.5);
        let cfg = b.build().unwrap();
        let model = RandomWaypoint::new(0.1, 2.0, 0, 0.0).unwrap();
        let profiles = simulate_profiles(&cfg, &model).unwrap();
        let r_half = profiles.mean_range_for_average_fraction(0.5).unwrap();
        let r_full = profiles.mean_range_for_average_fraction(1.0).unwrap();
        prop_assert!(r_half <= r_full);
    }

    #[test]
    fn stationary_steps_equal_single_step(
        nodes in 4usize..12,
        side in 50.0..200.0f64,
        seed in any::<u64>(),
    ) {
        // With the stationary model, running many steps is the same
        // observation repeated: all quantile metrics coincide.
        let cfg = config(nodes, side, 2, 25, seed);
        let res = simulate_critical_ranges(&cfg, &StationaryModel::new()).unwrap();
        for q in res.quantiles_per_iteration().unwrap() {
            prop_assert!((q.r100 - q.r0).abs() < 1e-12);
        }
    }
}

// ---------------------------------------------------------------------------
// The connectivity stream: incremental per-step state equals the
// from-scratch oracle through the full engine (placement, mobility,
// parallel iterations), for random configurations and models.
// ---------------------------------------------------------------------------

mod stream_oracle {
    use manet_graph::{AdjacencyList, ComponentSummary};
    use manet_sim::{ConnectivityObserver, StepView};

    /// Per-step oracle checker: recomputes the snapshot, its edge
    /// delta against the previous step, and its components from
    /// scratch, and compares all three against the stream's
    /// incremental state.
    pub struct OracleObserver {
        pub range: f64,
        pub checked_steps: usize,
        pub prev: Option<AdjacencyList>,
    }

    impl<const D: usize> ConnectivityObserver<D> for OracleObserver {
        type Output = usize;

        fn observe(&mut self, view: &StepView<'_, D>) {
            let rebuilt = AdjacencyList::from_points_brute_force(view.positions(), self.range);
            assert_eq!(view.graph(), &rebuilt, "snapshot diverged from rebuild");
            let older = self
                .prev
                .take()
                .unwrap_or_else(|| AdjacencyList::empty(rebuilt.len()));
            assert_eq!(
                view.diff(),
                &older.diff(&rebuilt),
                "edge delta diverged from the rebuild-and-diff oracle"
            );
            let oracle = ComponentSummary::of(&rebuilt);
            let incremental = view.components();
            assert_eq!(incremental.count(), oracle.count());
            assert_eq!(incremental.largest_size(), oracle.largest_size());
            let mut sizes = oracle.sizes().to_vec();
            sizes.sort_unstable();
            assert_eq!(incremental.sizes_sorted(), sizes);
            assert_eq!(
                incremental.singleton_count(),
                rebuilt.isolated_nodes().len(),
                "singleton components must be the degree-0 nodes"
            );
            self.prev = Some(rebuilt);
            self.checked_steps += 1;
        }

        fn finish(self) -> usize {
            self.checked_steps
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn stream_components_match_oracle_over_models(
        model_kind in 0u8..3,
        nodes in 2usize..20,
        side in 50.0..200.0f64,
        range_frac in 0.05..0.5f64,
        steps in 1usize..25,
        seed in any::<u64>(),
    ) {
        let cfg = config(nodes, side, 2, steps, seed);
        let range = range_frac * side;
        let run = |obs_range: f64| {
            let make = |_| stream_oracle::OracleObserver {
                range: obs_range,
                checked_steps: 0,
                prev: None,
            };
            match model_kind % 3 {
                0 => run_connectivity_stream(
                    &cfg, &StationaryModel::new(), Some(obs_range), make),
                1 => run_connectivity_stream(
                    &cfg,
                    &RandomWaypoint::new(0.1, 0.05 * side, 1, 0.1).unwrap(),
                    Some(obs_range),
                    make,
                ),
                _ => run_connectivity_stream(
                    &cfg,
                    &Drunkard::new(0.1, 0.3, 0.05 * side).unwrap(),
                    Some(obs_range),
                    make,
                ),
            }
        };
        let outs = run(range).unwrap();
        prop_assert_eq!(outs, vec![steps, steps]);
    }
}

// ---------------------------------------------------------------------------
// End-to-end byte-identity of the incremental spine: for every registry
// model, `simulate_trace` (moved-node kernel + incremental components)
// must produce a TraceSummary identical to a hand-rolled replay of the
// same trajectories through the from_points + diff oracle.
// ---------------------------------------------------------------------------

mod trace_identity {
    use manet_geom::Point;
    use manet_graph::{AdjacencyList, DynamicComponents};
    use manet_sim::{ConnectivityObserver, SimConfig, StepView};
    use manet_trace::{TemporalRecord, TraceRecorder};

    /// Records every step's positions of one iteration.
    pub struct PositionCollector(pub Vec<Vec<Point<2>>>);

    impl ConnectivityObserver<2> for PositionCollector {
        type Output = Vec<Vec<Point<2>>>;
        fn observe(&mut self, view: &StepView<'_, 2>) {
            self.0.push(view.positions().to_vec());
        }
        fn finish(self) -> Self::Output {
            self.0
        }
    }

    /// Folds one trajectory through the oracle path (full rebuild +
    /// full diff per step) into a temporal record.
    pub fn oracle_record(
        cfg: &SimConfig<2>,
        steps: &[Vec<Point<2>>],
        range: f64,
    ) -> TemporalRecord {
        let mut rec = TraceRecorder::new(cfg.nodes(), cfg.steps());
        let mut components = DynamicComponents::new(cfg.nodes());
        let mut prev = AdjacencyList::empty(cfg.nodes());
        for pts in steps {
            let next = AdjacencyList::from_points(pts, cfg.side(), range);
            let diff = prev.diff(&next);
            components.apply(&diff, &next);
            rec.observe_with(&diff, &next, &components);
            prev = next;
        }
        rec.finish()
    }
}

#[test]
fn trace_summary_identical_to_oracle_replay_for_every_registry_model() {
    use manet_mobility::{ModelRegistry, PaperScale};
    use manet_sim::{run_connectivity_stream, simulate_trace};
    use manet_trace::TraceSummary;

    let side = 150.0;
    let range = 40.0;
    let registry = ModelRegistry::<2>::with_builtins();
    let scale = PaperScale::new(side).with_pause(3);
    for name in registry.names() {
        let model = registry.build(name, &scale).unwrap();
        let cfg = config(14, side, 2, 25, 20020623);
        let incremental = simulate_trace(&cfg, &model, range).unwrap();
        // Same config + model + master seed => the stream reproduces
        // identical trajectories for the positions-only collector run.
        let trajectories = run_connectivity_stream(&cfg, &model, None, |_| {
            trace_identity::PositionCollector(Vec::new())
        })
        .unwrap();
        let records: Vec<_> = trajectories
            .iter()
            .map(|steps| trace_identity::oracle_record(&cfg, steps, range))
            .collect();
        let mut oracle = TraceSummary::aggregate(&records).unwrap();
        // The kernel counters are *path* telemetry, not temporal
        // metrics: the oracle replay deliberately rebuilds from
        // scratch every step, so its counters differ by design. They
        // are cross-checked against brute-force recomputation in
        // crates/graph/tests/properties.rs instead.
        oracle.kernel = incremental.kernel;
        assert_eq!(incremental, oracle, "{name}: TraceSummary diverged");
    }
}

// ---------------------------------------------------------------------------
// Displacement-bound violations through the whole stream: a model that
// lies about its bound must still yield exact results (the kernel falls
// back to the full diff), never silent corruption.
// ---------------------------------------------------------------------------

#[test]
fn stream_survives_models_that_lie_about_their_displacement_bound() {
    use manet_geom::{Point, Region};
    use manet_mobility::Mobility;
    use manet_sim::run_connectivity_stream;
    use rand::Rng;

    /// Teleports every node every step while declaring a 0.5 bound.
    #[derive(Clone, Debug)]
    struct LyingTeleporter;

    impl Mobility<2> for LyingTeleporter {
        fn init(&mut self, _: &[Point<2>], _: &Region<2>, _: &mut dyn Rng) {}
        fn step(&mut self, positions: &mut [Point<2>], region: &Region<2>, rng: &mut dyn Rng) {
            for p in positions {
                *p = region.sample_uniform(rng);
            }
        }
        fn name(&self) -> &'static str {
            "lying-teleporter"
        }
        fn max_step_displacement(&self) -> Option<f64> {
            Some(0.5) // a lie: steps teleport across the region
        }
    }

    let cfg = config(16, 120.0, 3, 20, 808);
    let outs = run_connectivity_stream(&cfg, &LyingTeleporter, Some(35.0), |_| {
        stream_oracle::OracleObserver {
            range: 35.0,
            checked_steps: 0,
            prev: None,
        }
    })
    .unwrap();
    assert_eq!(outs, vec![20, 20, 20]);
}
