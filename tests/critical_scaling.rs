//! Registry-wide pins for the critical-range finder and the batched
//! sweep scheduler. The finder must agree with a brute-force dense grid
//! scan (an independent oracle through the fixed-range simulator) and
//! with graph-based bisection; its giant-fraction answer must be exact
//! against the per-step merge profiles; at target 1 every metric must
//! return the maximum of its own per-step thresholds bit for bit; and
//! results must be byte-identical across engine, step-kernel and
//! scheduler thread counts.

use manet::graph::{kconn::critical_range_k, FloorCounts, MergeProfile};
use manet::sim::{
    bisect_critical_range, find_critical_range, run_connectivity_stream, simulate_critical_ranges,
    simulate_fixed_ranges, ConnectivityMetric, ConnectivityObserver, CriticalRangeSearch,
    SimConfig, StepView, SweepScheduler,
};
use manet::{AnyModel, ModelRegistry, PaperScale};
use proptest::prelude::*;

const SIDE: f64 = 100.0;

/// Every metric the finder answers, each exactly.
const EXACT_METRICS: [ConnectivityMetric; 4] = [
    ConnectivityMetric::GiantFraction,
    ConnectivityMetric::KConnectivity(1),
    ConnectivityMetric::KConnectivity(2),
    ConnectivityMetric::KConnectivity(3),
];

fn config(seed: u64) -> SimConfig<2> {
    sized_config(10, 2, 12, seed)
}

fn sized_config(nodes: usize, iterations: usize, steps: usize, seed: u64) -> SimConfig<2> {
    let mut b = SimConfig::<2>::builder();
    b.nodes(nodes)
        .side(SIDE)
        .iterations(iterations)
        .steps(steps)
        .seed(seed);
    b.build().unwrap()
}

/// Collects the merge profile of every step of one iteration.
struct ProfileObserver(Vec<MergeProfile>);

impl ConnectivityObserver<2> for ProfileObserver {
    type Output = Vec<MergeProfile>;

    fn observe(&mut self, view: &StepView<'_, 2>) {
        self.0.push(MergeProfile::of(view.positions()));
    }

    fn finish(self) -> Vec<MergeProfile> {
        self.0
    }
}

/// Collects each step's exact k-connectivity threshold.
struct KThresholdObserver(usize, Vec<f64>);

impl ConnectivityObserver<2> for KThresholdObserver {
    type Output = Vec<f64>;

    fn observe(&mut self, view: &StepView<'_, 2>) {
        self.1.push(critical_range_k(view.positions(), self.0));
    }

    fn finish(self) -> Vec<f64> {
        self.1
    }
}

/// The largest per-step threshold of `metric` over the campaign: the
/// MST bottleneck (`r100`) for the giant fraction and `k = 1`, the
/// k-connectivity threshold for `k >= 2`.
fn max_step_threshold(cfg: &SimConfig<2>, model: &AnyModel<2>, metric: ConnectivityMetric) -> f64 {
    match metric {
        ConnectivityMetric::KConnectivity(k) if k >= 2 => {
            run_connectivity_stream(cfg, model, |_| KThresholdObserver(k, Vec::new()))
                .into_iter()
                .flatten()
                .fold(0.0, f64::max)
        }
        _ => simulate_critical_ranges(cfg, model)
            .unwrap()
            .pooled()
            .unwrap()
            .max(),
    }
}

/// The merge profile of every step of every iteration.
fn step_profiles(cfg: &SimConfig<2>, model: &AnyModel<2>) -> Vec<MergeProfile> {
    run_connectivity_stream(cfg, model, |_| ProfileObserver(Vec::new()))
        .into_iter()
        .flatten()
        .collect()
}

/// The exact giant-fraction threshold from every event of `profiles`,
/// clamped into the finder's bracket `[1e-9, diameter]`: the lowest
/// event range at which the pooled largest components reach `target`,
/// or 0 when the singletons already do.
fn all_events_threshold(cfg: &SimConfig<2>, profiles: &[MergeProfile], target: f64) -> f64 {
    let mut events: Vec<(f64, u64)> = profiles
        .iter()
        .flat_map(|p| {
            let mut size = 1;
            p.events().iter().map(move |&(range, s)| {
                let growth = u64::from(s - size);
                size = s;
                (range, growth)
            })
        })
        .collect();
    events.sort_by(|a, b| a.0.total_cmp(&b.0));
    let slots = (profiles.len() * cfg.nodes()) as u64;
    let reaches = |filled: u64| filled as f64 / slots as f64 >= target;
    let mut filled = profiles.len() as u64;
    let range = if reaches(filled) {
        0.0
    } else {
        events
            .into_iter()
            .find_map(|(range, growth)| {
                filled += growth;
                reaches(filled).then_some(range)
            })
            .unwrap()
    };
    range.clamp(1e-9, cfg.region().diameter())
}

/// Whether the mean of `largest_component_at(r) / n` over every step of
/// every iteration reaches `target`, summed in integers.
fn profile_mean_reaches(
    cfg: &SimConfig<2>,
    profiles: &[MergeProfile],
    r: f64,
    target: f64,
) -> bool {
    let total: usize = profiles.iter().map(|p| p.largest_component_at(r)).sum();
    total as f64 / (profiles.len() * cfg.nodes()) as f64 >= target
}

/// Checks one cell against the oracles for each of `metrics`: (a) the
/// finder lands within `tol` of graph-based bisection and never above
/// it, since both test `d² <= r·r`; (b) the giant fraction's answer is
/// exact against the per-step merge profiles; (c) at target 1 each
/// metric returns the maximum of its own per-step thresholds bit for
/// bit.
fn check_exact_paths(
    cfg: &SimConfig<2>,
    name: &str,
    model: &AnyModel<2>,
    target: f64,
    metrics: &[ConnectivityMetric],
) {
    let tol = 1e-3 * SIDE;
    for &metric in metrics {
        let search = CriticalRangeSearch::new()
            .with_metric(metric)
            .with_target(target);
        let point = find_critical_range(cfg, model, &search).unwrap();
        let bisected = bisect_critical_range(cfg, model, &search).unwrap().range;
        assert!(
            point.range <= bisected && bisected - point.range <= tol,
            "{name} {metric:?} target {target}: finder {} vs bisection {bisected}",
            point.range
        );
        assert_eq!(point.kernel, Default::default(), "{name} {metric:?}");

        if metric == ConnectivityMetric::GiantFraction {
            let profiles = step_profiles(cfg, model);
            let r = point.range;
            assert!(
                profile_mean_reaches(cfg, &profiles, r, target),
                "{name} target {target}: the profile mean misses the target at {r}"
            );
            if r > 1e-9 {
                assert!(
                    !profile_mean_reaches(cfg, &profiles, r.next_down(), target),
                    "{name} target {target}: the profile mean already reaches the target below {r}"
                );
            }
        }

        let search = search.with_target(1.0);
        let point = find_critical_range(cfg, model, &search).unwrap();
        let max = max_step_threshold(cfg, model, metric);
        assert_eq!(
            point.range.to_bits(),
            max.to_bits(),
            "{name} {metric:?}: target 1 gave {} for the per-step maximum {max}",
            point.range
        );
    }
}

/// Every builtin model, resolved at the test scale.
fn registry_models() -> Vec<(String, AnyModel<2>)> {
    let registry = ModelRegistry::<2>::with_builtins();
    let scale = PaperScale::new(SIDE).with_pause(3);
    registry
        .names()
        .into_iter()
        .map(|name| (name.to_string(), registry.build(name, &scale).unwrap()))
        .collect()
}

/// Independent oracle: the smallest range on a dense grid whose mean
/// giant-component fraction (via the literal fixed-range simulator,
/// one campaign for the whole grid) reaches `target`.
fn grid_scan(cfg: &SimConfig<2>, model: &AnyModel<2>, target: f64, points: usize) -> f64 {
    let hi = cfg.region().diameter();
    let ranges: Vec<f64> = (1..=points)
        .map(|i| hi * i as f64 / points as f64)
        .collect();
    simulate_fixed_ranges(cfg, model, &ranges)
        .unwrap()
        .into_iter()
        .find(|report| report.avg_largest_fraction() >= target)
        .map_or(hi, |report| report.range)
}

/// Critical ranges (as exact bit patterns) for every registry model,
/// computed through the sweep scheduler at `threads` workers.
fn sweep_bits(
    models: &[(String, AnyModel<2>)],
    seed: u64,
    target: f64,
    threads: usize,
) -> Vec<u64> {
    let search = CriticalRangeSearch::new().with_target(target);
    let cached = models.iter().map(|_| None).collect();
    SweepScheduler::new(threads)
        .run(models, cached, |_, (_, model)| {
            find_critical_range(&config(seed), model, &search).map(|p| p.range.to_bits())
        })
        .unwrap()
        .into_complete()
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn bisection_agrees_with_dense_grid_scan_for_every_model(
        seed in any::<u64>(),
        target in 0.7..1.0f64,
    ) {
        let cfg = config(seed);
        let search = CriticalRangeSearch::new().with_target(target);
        let tol = 1e-3 * SIDE;
        let points = 160;
        let spacing = cfg.region().diameter() / points as f64;
        for (name, model) in registry_models() {
            let found = find_critical_range(&cfg, &model, &search).unwrap().range;
            let oracle = grid_scan(&cfg, &model, target, points);
            // Bisection lands in [true, true + tol]; the grid in
            // [true, true + spacing].
            prop_assert!(
                (found - oracle).abs() <= tol + spacing,
                "{name}: bisection {found} vs grid oracle {oracle}"
            );
        }
    }

    #[test]
    fn exact_finder_matches_bisection_profile_and_r100_for_every_model(
        seed in any::<u64>(),
        target in 0.5..1.0f64,
    ) {
        let cfg = config(seed);
        for (name, model) in registry_models() {
            check_exact_paths(&cfg, &name, &model, target, &EXACT_METRICS);
        }
    }

    #[test]
    fn sweep_results_are_byte_identical_across_thread_counts(
        seed in any::<u64>(),
        target in 0.7..1.0f64,
    ) {
        let models = registry_models();
        let reference = sweep_bits(&models, seed, target, 1);
        for threads in [2, 4, 7] {
            prop_assert_eq!(
                &sweep_bits(&models, seed, target, threads),
                &reference,
                "thread count {} changed sweep bits",
                threads
            );
        }
    }
}

/// Every path, on every registry model, returns the same bits at any
/// engine thread count, with the step-kernel thread count (which
/// accepts only 1) pinned or left unset.
#[test]
fn finder_is_engine_and_step_thread_invariant() {
    let run = |model: &AnyModel<2>, metric, threads: usize, pin_step_threads: bool| {
        let mut b = SimConfig::<2>::builder();
        b.nodes(10)
            .side(SIDE)
            .iterations(3)
            .steps(15)
            .seed(5)
            .threads(threads);
        if pin_step_threads {
            b.step_threads(1);
        }
        let search = CriticalRangeSearch::new().with_metric(metric);
        find_critical_range(&b.build().unwrap(), model, &search)
            .unwrap()
            .range
            .to_bits()
    };
    let metrics = [
        ConnectivityMetric::GiantFraction,
        ConnectivityMetric::KConnectivity(1),
        ConnectivityMetric::KConnectivity(2),
    ];
    for (name, model) in registry_models() {
        for metric in metrics {
            let reference = run(&model, metric, 1, false);
            for (threads, pin) in [(4, false), (1, true), (2, true)] {
                assert_eq!(
                    run(&model, metric, threads, pin),
                    reference,
                    "{name} {metric:?} at threads {threads}, step threads pinned {pin}"
                );
            }
        }
    }
}

/// The exact rules at the sizes they are built for, against the same
/// oracles as the tier-1 proptest. Release-only: the bisection oracle
/// re-simulates 13 campaigns per cell and metric. `k = 3` stays at
/// tier-1's n = 10: with its `n` articulation checks per graph under
/// those 13 campaigns, it would add about two minutes at these sizes.
#[test]
#[ignore = "release-only oracle; run by CI"]
fn exact_finder_matches_oracles_at_scale() {
    for (nodes, target) in [(128, 0.97), (256, 0.995)] {
        let cfg = sized_config(nodes, 2, 30, 0x5CA1E);
        for (name, model) in registry_models() {
            check_exact_paths(&cfg, &name, &model, target, &EXACT_METRICS[..3]);
        }
    }
}

/// The `critical-scaling --quick` shape at `nodes`: side 64·√n,
/// pauses scaled to the step count, the CLI's seed.
fn quick_shape(
    nodes: usize,
    iterations: usize,
    steps: usize,
    threads: usize,
) -> (SimConfig<2>, PaperScale) {
    let side = 64.0 * (nodes as f64).sqrt();
    let mut b = SimConfig::<2>::builder();
    b.nodes(nodes)
        .side(side)
        .iterations(iterations)
        .steps(steps)
        .seed(20020623)
        .threads(threads);
    let pause = (2000 * steps / 10_000) as u32;
    (b.build().unwrap(), PaperScale::new(side).with_pause(pause))
}

/// Checks the giant-fraction finder on one cell: at `target` the answer
/// must be the profile mean's exact crossing, and at `target` and at
/// 0.5, 0.9 and 1 the threshold of every step's events, bit for bit.
/// Returns the finder counters summed over the four searches.
fn check_giant_fraction(
    cfg: &SimConfig<2>,
    name: &str,
    model: &AnyModel<2>,
    target: f64,
) -> FloorCounts {
    let nodes = cfg.nodes();
    let profiles = step_profiles(cfg, model);
    let mut counts = FloorCounts::default();
    for other in [target, 0.5, 0.9, 1.0] {
        let search = CriticalRangeSearch::new().with_target(other);
        let point = find_critical_range(cfg, model, &search).unwrap();
        counts.merge(&point.finder);
        let r = point.range;
        if other == target {
            assert!(
                profile_mean_reaches(cfg, &profiles, r, target),
                "{name} n = {nodes}: the profile mean misses the target at {r}"
            );
            assert!(
                !profile_mean_reaches(cfg, &profiles, r.next_down(), target),
                "{name} n = {nodes}: the profile mean already reaches the target below {r}"
            );
        }
        assert_eq!(
            r.to_bits(),
            all_events_threshold(cfg, &profiles, other).to_bits(),
            "{name} n = {nodes} target {other}"
        );
    }
    counts
}

/// The giant-fraction finder where its kept events are a small top
/// slice of each iteration: the `critical-scaling --quick` shape (5 ×
/// 500 steps, target 0.99) on every registry model at n = 16 and 64,
/// and 2 × 60 steps at n = 512 and 1024, checked by
/// [`check_giant_fraction`]. A 20-iteration cell, whose iterations
/// merge into the shared pool and seed their floors from it in
/// whatever order the workers finish, must give the same bits at 1–4
/// engine threads. Release-only.
#[test]
#[ignore = "release-only oracle; run by CI"]
fn giant_fraction_finder_is_exact_in_the_quick_shape() {
    let target = 0.99;
    let registry = ModelRegistry::<2>::with_builtins();
    for (nodes, iterations, steps) in [(16, 5, 500), (64, 5, 500), (512, 2, 60), (1024, 2, 60)] {
        let (cfg, scale) = quick_shape(nodes, iterations, steps, 2);
        for name in registry.names() {
            let model = registry.build(name, &scale).unwrap();
            check_giant_fraction(&cfg, name, &model, target);
        }
    }

    let find = |threads: usize| {
        let (cfg, scale) = quick_shape(64, 20, 100, threads);
        let model = registry.build("waypoint", &scale).unwrap();
        let search = CriticalRangeSearch::new().with_target(target);
        find_critical_range(&cfg, &model, &search).unwrap().range
    };
    let reference = find(1);
    for threads in 2..=4 {
        assert_eq!(
            find(threads).to_bits(),
            reference.to_bits(),
            "threads {threads}"
        );
    }
    let (cfg, scale) = quick_shape(64, 20, 100, 1);
    let profiles = step_profiles(&cfg, &registry.build("waypoint", &scale).unwrap());
    assert!(profile_mean_reaches(&cfg, &profiles, reference, target));
    assert!(!profile_mean_reaches(
        &cfg,
        &profiles,
        reference.next_down(),
        target
    ));
}

/// The giant-fraction finder at the sizes where its cold trees are
/// grid-Kruskal's and a warm step must beat that build's pair count:
/// the `critical-scaling` default models at n = 2048 and 4096, 2 × 30
/// steps, checked by [`check_giant_fraction`]. The engine runs serial,
/// so the counters repeat: each cell must build cold beyond its
/// iterations' first steps, and some cell must take a warm step (7 of
/// the 8 do). Release-only.
#[test]
#[ignore = "release-only oracle; run by CI"]
fn giant_fraction_finder_is_exact_at_large_n() {
    let registry = ModelRegistry::<2>::with_builtins();
    let mut warm = 0;
    for nodes in [2048, 4096] {
        let (cfg, scale) = quick_shape(nodes, 2, 30, 1);
        for name in ["waypoint", "drunkard", "gauss-markov", "rpgm"] {
            let model = registry.build(name, &scale).unwrap();
            let counts = check_giant_fraction(&cfg, name, &model, 0.99);
            // Four searches of two iterations each.
            assert!(counts.cold > 4 * 2, "{name} n = {nodes}: {counts:?}");
            warm += counts.warm;
        }
    }
    assert!(warm > 0);
}
