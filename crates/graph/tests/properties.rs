//! Property-based tests for the graph algorithms, centered on the
//! invariant the whole reproduction rests on: the MST bottleneck is the
//! exact connectivity threshold of the point graph.

use manet_geom::{covering_range, Point};
use manet_graph::{
    components, critical_range, kconn, minimum_spanning_tree, AdjacencyList, CriticalRangeTracker,
    DynamicGraph, MergeProfile, UnionFind,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn points_strategy(max_n: usize) -> impl Strategy<Value = Vec<Point<2>>> {
    prop::collection::vec((0.0..100.0f64, 0.0..100.0f64), 2..max_n)
        .prop_map(|v| v.into_iter().map(|(x, y)| Point::new([x, y])).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn critical_range_is_the_exact_threshold(pts in points_strategy(40)) {
        let ctr = critical_range(&pts);
        let at = AdjacencyList::from_points_brute_force(&pts, ctr);
        prop_assert!(components::is_connected(&at));
        if ctr > 0.0 {
            let below = AdjacencyList::from_points_brute_force(&pts, ctr.next_down());
            prop_assert!(!components::is_connected(&below));
        }
    }

    #[test]
    fn mst_has_n_minus_1_edges_and_spans(pts in points_strategy(40)) {
        let mst = minimum_spanning_tree(&pts);
        prop_assert_eq!(mst.len(), pts.len() - 1);
        let mut uf = UnionFind::new(pts.len());
        for e in &mst {
            prop_assert!(uf.union(e.a as usize, e.b as usize), "MST contains a cycle");
        }
        prop_assert!(uf.is_single_component());
    }

    #[test]
    fn mst_is_minimum_against_kruskal(pts in points_strategy(30)) {
        let prim_total: f64 = minimum_spanning_tree(&pts).iter().map(|e| e.length).sum();
        // Independent Kruskal oracle.
        let n = pts.len();
        let mut edges = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                edges.push((pts[i].distance(&pts[j]), i, j));
            }
        }
        edges.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut uf = UnionFind::new(n);
        let mut kruskal_total = 0.0;
        for (d, i, j) in edges {
            if uf.union(i, j) {
                kruskal_total += d;
            }
        }
        prop_assert!((prim_total - kruskal_total).abs() < 1e-7);
    }

    #[test]
    fn merge_profile_matches_components_at_any_range(
        pts in points_strategy(30),
        r in 0.0..150.0f64,
    ) {
        let profile = MergeProfile::of(&pts);
        let g = AdjacencyList::from_points_brute_force(&pts, r);
        prop_assert_eq!(
            profile.largest_component_at(r),
            components::largest_component_size(&g)
        );
    }

    #[test]
    fn component_sizes_partition_nodes(pts in points_strategy(40), r in 0.0..100.0f64) {
        let g = AdjacencyList::from_points_brute_force(&pts, r);
        let summary = components::ComponentSummary::of(&g);
        let total: u32 = summary.sizes().iter().sum();
        prop_assert_eq!(total as usize, pts.len());
        prop_assert!(summary.largest_size() <= pts.len());
        prop_assert_eq!(summary.is_connected(), components::is_connected(&g));
    }

    #[test]
    fn grid_and_brute_force_graphs_identical(pts in points_strategy(50), r in 0.5..30.0f64) {
        let brute = AdjacencyList::from_points_brute_force(&pts, r);
        let grid = AdjacencyList::from_points_grid(&pts, 100.0, r).unwrap();
        prop_assert_eq!(brute, grid);
    }

    #[test]
    fn vertex_connectivity_bounded_by_min_degree(pts in points_strategy(14), r in 10.0..80.0f64) {
        let g = AdjacencyList::from_points_brute_force(&pts, r);
        let kappa = kconn::vertex_connectivity(&g);
        prop_assert!(kappa <= g.min_degree().unwrap_or(0));
        // k-connectivity predicate consistent with kappa.
        prop_assert!(kconn::is_k_connected(&g, kappa));
        prop_assert!(!kconn::is_k_connected(&g, kappa + 1));
    }

    #[test]
    fn union_find_agrees_with_component_labels(pts in points_strategy(30), r in 0.0..100.0f64) {
        let g = AdjacencyList::from_points_brute_force(&pts, r);
        let mut uf = UnionFind::new(pts.len());
        for (a, b) in g.edges() {
            uf.union(a, b);
        }
        let summary = components::ComponentSummary::of(&g);
        prop_assert_eq!(uf.component_count(), summary.count());
        prop_assert_eq!(uf.largest_component(), summary.largest_size());
        for i in 0..pts.len() {
            for j in (i + 1)..pts.len() {
                prop_assert_eq!(
                    uf.connected(i, j),
                    summary.label(i) == summary.label(j)
                );
            }
        }
    }

    #[test]
    fn dynamic_graph_delta_replay_matches_brute_force(
        n in 2usize..24,
        flat in prop::collection::vec((0.0..100.0f64, 0.0..100.0f64), 24..360),
        r in 0.5..40.0f64,
    ) {
        // Chunk one flat coordinate stream into a trajectory of
        // `flat.len() / n` steps of `n` nodes each (teleporting motion —
        // the worst case for a delta stream: arbitrarily large churn).
        let steps: Vec<Vec<Point<2>>> = flat
            .chunks_exact(n)
            .map(|c| c.iter().map(|&(x, y)| Point::new([x, y])).collect())
            .collect();
        prop_assume!(!steps.is_empty());

        let mut dg = DynamicGraph::new(&steps[0], 100.0, r);
        // Replay the delta stream into a bare edge set on the side.
        let mut replayed: BTreeSet<(u32, u32)> = BTreeSet::new();
        let init = dg.initial_diff();
        prop_assert!(init.removed.is_empty());
        for e in init.added {
            prop_assert!(replayed.insert(e), "initial diff repeated an edge");
        }
        for pts in &steps {
            // (First iteration: empty diff against itself is exercised
            // implicitly since stepping to the step-0 positions is a
            // no-op.)
            dg.step(pts);
            for e in &dg.last_diff().removed {
                prop_assert!(replayed.remove(e), "removed edge that was not live");
            }
            for &e in &dg.last_diff().added {
                prop_assert!(replayed.insert(e), "added edge that was already live");
            }
            let brute = AdjacencyList::from_points_brute_force(pts, r);
            prop_assert_eq!(dg.graph(), &brute, "snapshot diverged from rebuild");
            let brute_edges: BTreeSet<(u32, u32)> = brute
                .edges()
                .map(|(a, b)| (a as u32, b as u32))
                .collect();
            prop_assert_eq!(&replayed, &brute_edges, "replayed deltas diverged");
        }
    }

    #[test]
    fn edge_count_matches_inclusive_range_semantics(pts in points_strategy(25), r in 0.0..100.0f64) {
        let g = AdjacencyList::from_points_brute_force(&pts, r);
        let manual = {
            let mut c = 0;
            for i in 0..pts.len() {
                for j in (i + 1)..pts.len() {
                    if pts[i].distance_sq(&pts[j]) <= r * r {
                        c += 1;
                    }
                }
            }
            c
        };
        prop_assert_eq!(g.edge_count(), manual);
    }
}

// ---------------------------------------------------------------------------
// DynamicComponents replay: bit-identical to the ComponentSummary oracle
// at every step, over every mobility model.
// ---------------------------------------------------------------------------

use manet_geom::Region;
use manet_graph::{ComponentSummary, DynamicComponents};
use manet_mobility::{
    Drunkard, Mobility, RandomDirection, RandomWalk, RandomWaypoint, StationaryModel,
};
use rand::SeedableRng;

/// The workspace's mobility models as boxed trait objects, so the
/// proptest can range over all of them uniformly.
fn model_for(kind: u8, side: f64) -> Box<dyn Mobility<2>> {
    match kind % 5 {
        0 => Box::new(StationaryModel::new()),
        1 => Box::new(RandomWaypoint::new(0.5, 0.05 * side, 2, 0.1).expect("valid waypoint")),
        2 => Box::new(Drunkard::new(0.1, 0.3, 0.05 * side).expect("valid drunkard")),
        3 => Box::new(RandomWalk::new(0.03 * side, 0.1).expect("valid walk")),
        _ => Box::new(RandomDirection::new(0.5, 0.05 * side, 2, 0.1).expect("valid direction")),
    }
}

/// Drives one trajectory through `DynamicGraph` + `DynamicComponents`,
/// asserting oracle equality at every step; returns the rebuild-path
/// counters so callers can assert coverage of the deletion paths.
fn replay_against_oracle(
    kind: u8,
    n: usize,
    side: f64,
    range: f64,
    steps: usize,
    seed: u64,
) -> Result<(u64, u64), TestCaseError> {
    let region: Region<2> = Region::new(side).expect("positive side");
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut positions = region.place_uniform(n, &mut rng);
    let mut model = model_for(kind, side);
    model.init(&positions, &region, &mut rng);

    let mut dg = DynamicGraph::new(&positions, side, range);
    let mut dc = DynamicComponents::new(n);
    dc.apply(&dg.initial_diff(), dg.graph());
    for step in 0..steps {
        if step > 0 {
            model.step(&mut positions, &region, &mut rng);
            dg.step(&positions);
            dc.apply(dg.last_diff(), dg.graph());
        }
        let oracle = ComponentSummary::of(dg.graph());
        prop_assert_eq!(
            dc.count(),
            oracle.count(),
            "count diverged at step {}",
            step
        );
        prop_assert_eq!(
            dc.largest_size(),
            oracle.largest_size(),
            "largest diverged at step {}",
            step
        );
        let mut sizes = oracle.sizes().to_vec();
        sizes.sort_unstable();
        prop_assert_eq!(
            dc.sizes_sorted(),
            sizes,
            "size multiset diverged at step {}",
            step
        );
        prop_assert_eq!(dc.is_connected(), oracle.is_connected());
    }
    Ok((dc.partial_rebuilds(), dc.full_rebuilds()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn dynamic_components_replay_matches_oracle(
        kind in 0u8..5,
        n in 2usize..48,
        range_frac in 0.02..0.4f64,
        steps in 1usize..40,
        seed in 0u64..1_000_000,
    ) {
        let side = 100.0;
        replay_against_oracle(kind, n, side, range_frac * side, steps, seed)?;
    }
}

#[test]
fn replay_exercises_partial_and_full_rebuild_paths_for_every_mobile_model() {
    // Deterministic coverage check: over fast, long trajectories every
    // mobile model must hit the deletion (epoch partial-rebuild) path,
    // and the teleport-heavy drunkard must also hit the amortized full
    // rebuild. (The stationary model, kind 0, never churns.)
    let mut partial_total = 0;
    let mut full_total = 0;
    for kind in 1u8..5 {
        let (partial, full) =
            replay_against_oracle(kind, 32, 100.0, 18.0, 120, 7 + kind as u64).unwrap();
        assert!(
            partial > 0 || full > 0,
            "model kind {kind} never exercised a deletion path"
        );
        partial_total += partial;
        full_total += full;
    }
    assert!(partial_total > 0, "no model took the epoch partial rebuild");
    assert!(full_total > 0, "no model took the amortized full rebuild");
}

// ---------------------------------------------------------------------------
// The zero-rebuild step kernel: bit-identical EdgeDiff streams and
// snapshots against the from_points + diff oracle, for every mobility
// model in the registry (including wrap/bounce variants and the
// unbounded-displacement Gauss-Markov family).
// ---------------------------------------------------------------------------

use manet_graph::{EdgeDiff, Skin};
use manet_mobility::{ModelRegistry, PaperScale};

/// The skin settings the kernel suite pins everywhere: the cache
/// disabled (legacy paths byte-for-byte), the auto-tuned default, and a
/// deliberately oversized fixed skin (cheap rebuild cadence, expensive
/// verify sets — the worst case for arena coverage).
const SKIN_SWEEP: [Skin; 3] = [Skin::Off, Skin::Auto, Skin::Fixed(25.0)];

/// Replays `steps` of the named registry model through the incremental
/// kernel, asserting at every step that the held diff and the
/// maintained snapshot are bit-identical to rebuilding via
/// `AdjacencyList::from_points` and diffing the two full snapshots.
/// Alongside the structural oracle, the kernel's deterministic
/// counters (`dg.metrics()`) are cross-checked against brute-force
/// recomputation: edge-event totals against summed oracle diff sizes,
/// the moved-node total against a bitwise position comparison, and the
/// step count against the path partition (including the Verlet cache
/// buckets). Only every `moving_stride`-th node follows the model; the
/// rest stay where they were placed, so a stride above 2 keeps every
/// step on the moved-node path. Returns the kernel's final counter
/// block.
#[expect(clippy::too_many_arguments, reason = "one replay, many knobs")]
fn replay_kernel_against_oracle(
    model_name: &str,
    n: usize,
    side: f64,
    range: f64,
    steps: usize,
    seed: u64,
    moving_stride: usize,
    skin: Skin,
) -> Result<manet_obs::StepKernelMetrics, TestCaseError> {
    let registry = ModelRegistry::<2>::with_builtins();
    let scale = PaperScale::new(side).with_pause(3);
    let mut model = registry.build(model_name, &scale).expect("registry model");

    let region: Region<2> = Region::new(side).expect("positive side");
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut positions = region.place_uniform(n, &mut rng);
    model.init(&positions, &region, &mut rng);

    let mut dg = DynamicGraph::new(&positions, side, range)
        .with_displacement_bound(model.max_step_displacement())
        .with_skin(skin);
    let mut oracle = AdjacencyList::from_points(&positions, side, range);
    prop_assert_eq!(dg.graph(), &oracle, "{}: initial snapshot", model_name);

    let mut expected = EdgeDiff::default();
    let mut brute_added = 0u64;
    let mut brute_removed = 0u64;
    let mut brute_moved = 0u64;
    let mut fed = positions.clone();
    for step in 0..steps {
        model.step(&mut positions, &region, &mut rng);
        for (i, (f, p)) in fed.iter_mut().zip(&positions).enumerate() {
            if i % moving_stride == 0 && f != p {
                *f = *p;
                brute_moved += 1;
            }
        }
        dg.step(&fed);
        let next = AdjacencyList::from_points(&fed, side, range);
        oracle.diff_into(&next, &mut expected);
        brute_added += expected.added.len() as u64;
        brute_removed += expected.removed.len() as u64;
        prop_assert_eq!(
            dg.last_diff(),
            &expected,
            "{}: diff diverged at step {}",
            model_name,
            step
        );
        prop_assert_eq!(
            dg.graph(),
            &next,
            "{}: snapshot diverged at step {}",
            model_name,
            step
        );
        oracle = next;
    }

    let m = *dg.metrics();
    prop_assert_eq!(m.steps, steps as u64, "{}: step counter", model_name);
    prop_assert_eq!(
        m.incremental_steps + m.bulk_rescan_steps + m.cache_verify_steps + m.fallback_steps,
        m.steps,
        "{}: every step commits through exactly one path",
        model_name
    );
    prop_assert!(
        m.cache_rebuilds <= m.bulk_rescan_steps,
        "{}: cache rebuilds must be a subset of the bulk bucket",
        model_name
    );
    if skin == Skin::Off {
        // Disabled cache degenerates to the legacy kernel: every cache
        // counter stays zero and no step takes the verify path.
        prop_assert_eq!(m.cache_verify_steps, 0, "{}: skin off", model_name);
        prop_assert_eq!(m.cache_rebuilds, 0, "{}: skin off", model_name);
        prop_assert_eq!(m.cached_pairs, 0, "{}: skin off", model_name);
        prop_assert_eq!(m.verify_candidates, 0, "{}: skin off", model_name);
    }
    prop_assert_eq!(
        m.edges_added,
        brute_added,
        "{}: edges_added vs summed oracle diffs",
        model_name
    );
    prop_assert_eq!(
        m.edges_removed,
        brute_removed,
        "{}: edges_removed vs summed oracle diffs",
        model_name
    );
    prop_assert_eq!(
        m.moved_nodes,
        brute_moved,
        "{}: moved_nodes vs bitwise position recount",
        model_name
    );
    Ok(m)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn step_kernel_matches_oracle_for_every_registry_model(
        model_idx in 0usize..13,
        skin_idx in 0usize..3,
        n in 2usize..48,
        range_frac in 0.02..0.4f64,
        steps in 1usize..30,
        seed in 0u64..1_000_000,
    ) {
        let registry = ModelRegistry::<2>::with_builtins();
        let names: Vec<String> =
            registry.names().iter().map(|s| s.to_string()).collect();
        prop_assert_eq!(names.len(), 13, "registry model count drifted");
        let side = 100.0;
        // The skin sweep proves byte-equality with the rebuild-and-diff
        // stream for every cache configuration (off, auto-tuned,
        // oversized).
        replay_kernel_against_oracle(
            &names[model_idx % names.len()],
            n,
            side,
            range_frac * side,
            steps,
            seed,
            1,
            SKIN_SWEEP[skin_idx],
        )?;
    }
}

/// Deterministic coverage: the per-moved-node path must carry paused
/// models, the bulk path must carry all-moving models, and a declared
/// steady-state bound may be exceeded at most on the structurally
/// special first step (RPGM's gathering step) — never later. The
/// replay helper also cross-checks the kernel's deterministic counters
/// against brute-force recomputation, so this doubles as the
/// counter-integrity check for every registry model.
#[test]
fn step_kernel_paths_cover_every_registry_model_with_bounded_fallback() {
    let registry = ModelRegistry::<2>::with_builtins();
    let mut incremental_total = 0;
    let mut bulk_total = 0;
    for name in registry.names() {
        // Skin stays off here — this test pins the legacy two-path
        // split; the armed cache has its own coverage test below.
        let m = replay_kernel_against_oracle(name, 40, 100.0, 18.0, 80, 99, 1, Skin::Off).unwrap();
        let (incremental, bulk, fallback) =
            (m.incremental_steps, m.bulk_rescan_steps, m.fallback_steps);
        assert!(
            fallback <= 1,
            "{name}: steady-state steps must respect the declared bound \
             (got {fallback} fallbacks over 80 steps)"
        );
        assert_eq!(
            fallback,
            u64::from(name == "rpgm"),
            "{name}: only RPGM's first (gathering) step may fall back"
        );
        assert!(
            incremental + bulk > 0,
            "{name}: kernel never stepped incrementally"
        );
        incremental_total += incremental;
        bulk_total += bulk;
    }
    assert!(incremental_total > 0, "no model took the moved-node path");
    assert!(bulk_total > 0, "no model took the bulk-rescan path");
}

/// Deterministic armed-cache coverage across the registry: under the
/// auto-tuned skin the all-moving, bound-declaring models must arm the
/// Verlet cache and spend most post-arm steps on the verify path, while
/// models that decline a displacement bound must never arm. Exactness
/// is asserted inside the replay helper at every step either way.
#[test]
fn verlet_cache_arms_across_registry_models_under_auto_skin() {
    let registry = ModelRegistry::<2>::with_builtins();
    let scale = PaperScale::new(100.0).with_pause(3);
    let mut armed_models = 0u32;
    let mut verify_total = 0u64;
    for name in registry.names() {
        let bounded = registry
            .build(name, &scale)
            .expect("registry model")
            .max_step_displacement()
            .is_some();
        let m = replay_kernel_against_oracle(name, 40, 100.0, 18.0, 80, 99, 1, Skin::Auto).unwrap();
        if !bounded {
            assert_eq!(
                m.cache_verify_steps + m.cache_rebuilds,
                0,
                "{name}: no declared bound, the cache must never arm"
            );
        }
        if m.cache_rebuilds > 0 {
            armed_models += 1;
            assert!(
                m.cached_pairs > 0,
                "{name}: armed cache recorded no arena pairs"
            );
        }
        verify_total += m.cache_verify_steps;
    }
    assert!(
        armed_models >= 2,
        "auto skin armed on only {armed_models} registry models"
    );
    assert!(verify_total > 0, "no registry model took the verify path");
}

/// A model that teleports while declaring a tiny displacement bound:
/// the kernel must detect the violation on exactly the violating steps
/// and route them through the full rebuild-and-diff oracle — the
/// output stays exact (checked against the oracle), the lie costs only
/// throughput.
#[test]
fn step_kernel_dmax_violation_falls_back_not_corrupts() {
    let side = 100.0;
    let range = 15.0;
    let n = 30;
    let region: Region<2> = Region::new(side).unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(4242);
    let mut positions = region.place_uniform(n, &mut rng);

    // Declared bound of 1.0; every 4th step teleports one node.
    let mut dg = DynamicGraph::new(&positions, side, range).with_displacement_bound(Some(1.0));
    let mut oracle = AdjacencyList::from_points(&positions, side, range);
    let mut violations = 0u64;
    for step in 0..40 {
        for (i, p) in positions.iter_mut().enumerate() {
            if step % 4 == 3 && i == step % n {
                *p = region.sample_uniform(&mut rng); // teleport: bound lie
            } else if i % 3 == 0 {
                let q = *p + Point::new([0.3, -0.2]);
                *p = region.clamp(&q);
            }
        }
        if step % 4 == 3 {
            violations += 1;
        }
        dg.step(&positions);
        let next = AdjacencyList::from_points(&positions, side, range);
        assert_eq!(dg.last_diff(), &oracle.diff(&next), "diff at step {step}");
        assert_eq!(dg.graph(), &next, "snapshot at step {step}");
        oracle = next;
    }
    assert_eq!(
        dg.metrics().fallback_steps,
        violations,
        "every violating step (and only those) must take the oracle path"
    );
    assert!(
        dg.metrics().incremental_steps > 0,
        "in-bound steps stay incremental"
    );
}

/// The step kernel at the sizes it is built for: over a few steps of
/// waypoint (declares a displacement bound) and gauss-markov (does
/// not) at n = 2000 and 5000, each path is forced in turn and every
/// step's added and removed lists and edge set must equal
/// `from_points` + `diff`. The moved-node path runs with one node in
/// four moving, the bulk path with the cache off and every node moving,
/// and the cache-verify path with a fixed skin (waypoint only: a model
/// without a bound never arms the cache).
#[test]
#[ignore = "release-only oracle; run by CI"]
fn step_kernel_paths_match_oracle_at_scale() {
    for n in [2000usize, 5000] {
        // Trace-large's density: n = 2000 on side 1024, range 60.
        let side = 1024.0 * (n as f64 / 2000.0).sqrt();
        for model in ["waypoint", "gauss-markov"] {
            let replay = |stride, skin| {
                replay_kernel_against_oracle(model, n, side, 60.0, 6, 7, stride, skin).unwrap()
            };
            let m = replay(4, Skin::Off);
            assert_eq!(m.incremental_steps, 6, "{model} n={n}: {m:?}");
            let m = replay(1, Skin::Off);
            assert_eq!(m.bulk_rescan_steps, 6, "{model} n={n}: {m:?}");
            if model == "waypoint" {
                // Eight top speeds of skin: the arena outlasts several
                // steps of drift before it rebuilds.
                let skin = Skin::Fixed(0.08 * side);
                let m = replay(1, skin);
                assert!(m.cache_verify_steps >= 3, "{model} n={n}: {m:?}");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The grid-Kruskal MST against dense Prim, at the sizes the grid path
// is built for.
// ---------------------------------------------------------------------------

use manet_graph::mst::{
    minimum_spanning_tree_grid, minimum_spanning_tree_prim, GRID_MST_MIN_NODES,
};
use manet_graph::MstEdge;

/// Asserts `tree` is a minimum spanning tree of `pts` interchangeable
/// with dense Prim's: the same bottleneck and sorted edge lengths, bit
/// for bit, the same merge profile, and each edge's `a` already in the
/// tree grown from node 0 when `b` joins.
fn assert_matches_prim<const D: usize>(
    pts: &[Point<D>],
    tree: &[MstEdge],
) -> Result<(), TestCaseError> {
    let n = pts.len();
    let prim = minimum_spanning_tree_prim(pts);
    let bits = |t: &[MstEdge]| {
        let mut v: Vec<u64> = t.iter().map(|e| e.length.to_bits()).collect();
        v.sort_unstable();
        v
    };
    let (ours, theirs) = (bits(tree), bits(&prim));
    prop_assert_eq!(ours.last(), theirs.last(), "bottleneck");
    prop_assert_eq!(&ours, &theirs, "sorted edge lengths");
    let mut joined = vec![false; n];
    if n > 0 {
        joined[0] = true;
    }
    for e in tree {
        prop_assert!(
            joined[e.a as usize] && !joined[e.b as usize],
            "orientation at {:?}",
            e
        );
        prop_assert_eq!(
            e.length.to_bits(),
            covering_range(pts[e.a as usize].distance_sq(&pts[e.b as usize])).to_bits()
        );
        joined[e.b as usize] = true;
    }
    prop_assert_eq!(
        MergeProfile::from_spanning_tree(n, tree.to_vec()),
        MergeProfile::from_spanning_tree(n, prim)
    );
    Ok(())
}

/// Runs the grid path on `pts`, requires it to take the input, checks
/// it against Prim, and checks that the dispatch returns the same tree.
fn assert_grid_matches_prim<const D: usize>(pts: &[Point<D>]) -> Result<(), TestCaseError> {
    let Some((tree, pairs)) = minimum_spanning_tree_grid(pts) else {
        return Err(TestCaseError::fail(
            "the grid path declined a spread-out placement",
        ));
    };
    let n = pts.len() as u64;
    prop_assert!(pairs < n * (n - 1) / 2, "{} pairs for n = {}", pairs, n);
    assert_matches_prim(pts, &tree)?;
    prop_assert_eq!(minimum_spanning_tree(pts), tree);
    Ok(())
}

fn uniform<const D: usize>(n: usize, side: f64, seed: u64) -> Vec<Point<D>> {
    use rand::RngExt;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| Point::new(std::array::from_fn(|_| rng.random_range(0.0..side))))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn grid_mst_matches_prim_above_the_crossover(
        extra in 0usize..=200,
        dim in 1usize..=3,
        side in 1.0..2000.0f64,
        seed in 0u64..1_000_000,
    ) {
        let n = GRID_MST_MIN_NODES + extra;
        match dim {
            1 => assert_grid_matches_prim(&uniform::<1>(n, side, seed))?,
            2 => assert_grid_matches_prim(&uniform::<2>(n, side, seed))?,
            _ => assert_grid_matches_prim(&uniform::<3>(n, side, seed))?,
        }
    }
}

/// A 24 × 24 integer lattice: every MST edge ties at exactly 1.0, and
/// so do many longer candidates, so the grid must pick a tree of unit
/// edges like Prim's.
#[test]
fn grid_mst_on_an_integer_lattice_ties_at_one() {
    let pts: Vec<Point<2>> = (0..24u32)
        .flat_map(|x| (0..24u32).map(move |y| Point::new([f64::from(x), f64::from(y)])))
        .collect();
    assert!(
        pts.len() >= GRID_MST_MIN_NODES,
        "the fixture sits above the crossover"
    );
    assert_grid_matches_prim(&pts).unwrap();
    assert!(minimum_spanning_tree(&pts).iter().all(|e| e.length == 1.0));
}

/// Collinear points in the plane: the lattice is one row deep, and the
/// chain they form must still come out exact.
#[test]
fn grid_mst_on_collinear_points() {
    let pts: Vec<Point<2>> = uniform::<1>(GRID_MST_MIN_NODES + 50, 500.0, 3)
        .into_iter()
        .map(|p| Point::new([p.coord(0), 0.5 * p.coord(0) + 7.0]))
        .collect();
    assert_grid_matches_prim(&pts).unwrap();
}

/// Inputs outside the grid's domain take Prim, edge for edge: a
/// negative coordinate, zero extent (all points at the origin) and
/// coincident points, whose one cell would price the grid pass at every
/// pair.
#[test]
fn grid_mst_falls_back_to_prim_outside_its_domain() {
    let n = GRID_MST_MIN_NODES + 10;
    let negative: Vec<Point<2>> = uniform::<2>(n, 100.0, 5)
        .into_iter()
        .map(|p| Point::new([p.coord(0) - 50.0, p.coord(1)]))
        .collect();
    let cases = [
        ("negative coordinates", negative),
        ("zero extent", vec![Point::new([0.0, 0.0]); n]),
        ("coincident", vec![Point::new([3.0, 4.0]); n]),
    ];
    for (what, pts) in cases {
        assert!(minimum_spanning_tree_grid(&pts).is_none(), "{what}");
        let tree = minimum_spanning_tree(&pts);
        assert_eq!(tree, minimum_spanning_tree_prim(&pts), "{what}");
        assert_matches_prim(&pts, &tree).unwrap();
    }
}

/// Every registry model's placements at n = 2000 and 5000 over a few
/// steps: the grid path takes every one, matches Prim, and its
/// bottleneck is the exact connectivity threshold of `from_points`.
#[test]
#[ignore = "release-only oracle; run by CI"]
fn grid_mst_matches_prim_on_every_registry_model_at_scale() {
    let registry = ModelRegistry::<2>::with_builtins();
    let names = registry.names();
    assert_eq!(names.len(), 13, "every registry model is covered");
    for n in [2000usize, 5000] {
        let side = 1024.0 * (n as f64 / 2000.0).sqrt();
        let scale = PaperScale::new(side).with_pause(3);
        let region: Region<2> = Region::new(side).expect("positive side");
        for name in &names {
            let mut model = registry.build(name, &scale).expect("registry model");
            let mut rng = rand::rngs::StdRng::seed_from_u64(20020623);
            let mut positions = region.place_uniform(n, &mut rng);
            model.init(&positions, &region, &mut rng);
            for step in 0..4 {
                let what = format!("{name} n={n} step {step}");
                if let Err(e) = assert_grid_matches_prim(&positions) {
                    panic!("{what}: {e:?}");
                }
                let (tree, _) = minimum_spanning_tree_grid(&positions).expect("grid path");
                let c = tree.iter().map(|e| e.length).fold(0.0, f64::max);
                let graph = |r| AdjacencyList::from_points(&positions, side, r);
                assert_exact_connectivity_threshold(c, graph, &what);
                model.step(&mut positions, &region, &mut rng);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The grid graph build against brute force, at the sizes the grid path
// (counting-sorted pairs from the batched forward scan) is built for.

use manet_geom::MovingCellGrid;
use std::collections::BTreeMap;

/// Every registry model's placements at n = 2000 and 20000, at
/// trace-large's density (side 1024 at n = 2000), after the model's
/// init and after a few steps: `from_points_grid` must equal
/// `from_points_brute_force`. At trace-large's r = 54 cells hold a few
/// nodes; the ×3 range crowds cells past one emission batch (32).
#[test]
#[ignore = "release-only oracle; run by CI"]
fn grid_build_matches_brute_force_on_every_registry_model_at_scale() {
    let registry = ModelRegistry::<2>::with_builtins();
    let names = registry.names();
    assert_eq!(names.len(), 13, "every registry model is covered");
    let mut max_occupancy = 0usize;
    for n in [2000usize, 20000] {
        let side = 1024.0 * (n as f64 / 2000.0).sqrt();
        let scale = PaperScale::new(side).with_pause(3);
        let region: Region<2> = Region::new(side).expect("positive side");
        for name in &names {
            let mut model = registry.build(name, &scale).expect("registry model");
            let mut rng = rand::rngs::StdRng::seed_from_u64(20020623);
            let mut positions = region.place_uniform(n, &mut rng);
            model.init(&positions, &region, &mut rng);
            for step in 0..4 {
                if step % 3 == 0 {
                    for r in [54.0, 162.0] {
                        let grid = AdjacencyList::from_points_grid(&positions, side, r)
                            .expect("valid grid parameters");
                        let brute = AdjacencyList::from_points_brute_force(&positions, r);
                        assert!(grid == brute, "{name} n={n} r={r} step {step}");
                        let w = MovingCellGrid::<2>::lattice_cell_size(n, side, r)
                            .expect("valid grid parameters");
                        let mut occupancy = BTreeMap::new();
                        for p in &positions {
                            let cell =
                                (p.coord(0) / w) as u64 * 1_000_000 + (p.coord(1) / w) as u64;
                            *occupancy.entry(cell).or_insert(0usize) += 1;
                        }
                        max_occupancy =
                            max_occupancy.max(occupancy.into_values().max().unwrap_or(0));
                    }
                }
                model.step(&mut positions, &region, &mut rng);
            }
        }
    }
    assert!(max_occupancy > 32, "no cell spans two emission batches");
}

// ---------------------------------------------------------------------------
// k-connectivity: the articulation-point check for k = 2 against
// all-pairs max-flow, and the exact per-placement threshold
// `critical_range_k` against vertex connectivity just above and below it.

/// A random graph on `1..=14` nodes: pair `i` is an edge when its draw
/// falls below the graph's density.
fn random_graph() -> impl Strategy<Value = AdjacencyList> {
    (
        1usize..=14,
        0.0..1.0f64,
        prop::collection::vec(0.0..1.0f64, 91..92),
    )
        .prop_map(|(n, density, draws)| {
            let mut g = AdjacencyList::empty(n);
            let pairs = (0..n).flat_map(|a| (a + 1..n).map(move |b| (a, b)));
            for ((a, b), draw) in pairs.zip(draws) {
                if draw < density {
                    g.add_edge(a, b);
                }
            }
            g
        })
}

/// `c` is the exact k-connectivity threshold of `pts`: the graph at `c`
/// has vertex connectivity at least `k`, the graph at `c.next_down()`
/// less.
fn assert_exact_k_threshold<const D: usize>(pts: &[Point<D>], k: usize, what: &str) {
    let c = kconn::critical_range_k(pts, k);
    let at = AdjacencyList::from_points_brute_force(pts, c);
    assert!(
        kconn::vertex_connectivity(&at) >= k,
        "{what} k={k}: not k-connected at {c}"
    );
    if c > 0.0 {
        let below = AdjacencyList::from_points_brute_force(pts, c.next_down());
        assert!(
            kconn::vertex_connectivity(&below) < k,
            "{what} k={k}: already k-connected below {c}"
        );
    }
}

/// `c` is the exact connectivity threshold of a placement whose graph
/// at range `r` is `graph(r)`: connected at `c`, disconnected at
/// `c.next_down()`.
fn assert_exact_connectivity_threshold(c: f64, graph: impl Fn(f64) -> AdjacencyList, what: &str) {
    assert!(
        components::is_connected(&graph(c)),
        "{what}: disconnected at {c:e}"
    );
    assert!(
        !components::is_connected(&graph(c.next_down())),
        "{what}: already connected below {c:e}"
    );
}

/// Every threshold kernel on each placement: `critical_range_k` for
/// `k = 2, 3`, and for `k = 1` `critical_range`, the merge profile's
/// critical range and a tracker fed the placements in order.
fn assert_exact_on_placements(placements: &[(String, Vec<Point<2>>)]) {
    let mut tracker = CriticalRangeTracker::new();
    for (what, pts) in placements {
        for k in [2, 3] {
            assert_exact_k_threshold(pts, k, what);
        }
        let graph = |r| AdjacencyList::from_points_brute_force(pts, r);
        let profile = MergeProfile::of(pts).critical_range().expect("n >= 1");
        for (kernel, c) in [
            ("critical_range", critical_range(pts)),
            ("merge profile", profile),
            ("tracker", tracker.critical_range(pts)),
        ] {
            assert_exact_connectivity_threshold(c, graph, &format!("{what} {kernel}"));
        }
    }
}

/// Two placements of every registry model at `n` nodes (side `64·√n`,
/// the `critical-scaling` density): right after the model's init, and
/// six steps later.
fn registry_placements(n: usize) -> Vec<(String, Vec<Point<2>>)> {
    let registry = ModelRegistry::<2>::with_builtins();
    let names = registry.names();
    assert_eq!(names.len(), 13, "every registry model is covered");
    let side = 64.0 * (n as f64).sqrt();
    let scale = PaperScale::new(side).with_pause(3);
    let region: Region<2> = Region::new(side).expect("positive side");
    let mut out = Vec::new();
    for name in names {
        let mut model = registry.build(name, &scale).expect("registry model");
        let mut rng = rand::rngs::StdRng::seed_from_u64(20020623);
        let mut positions = region.place_uniform(n, &mut rng);
        model.init(&positions, &region, &mut rng);
        for step in 0..12 {
            if step % 6 == 0 {
                out.push((format!("{name} n={n} step {step}"), positions.clone()));
            }
            model.step(&mut positions, &region, &mut rng);
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn articulation_check_matches_max_flow(g in random_graph()) {
        let kappa = kconn::vertex_connectivity(&g);
        prop_assert_eq!(kconn::is_k_connected(&g, 2), kappa >= 2);
        prop_assert_eq!(kconn::is_k_connected(&g, 3), kappa >= 3);
    }

    #[test]
    fn critical_range_k_is_the_exact_threshold(pts in points_strategy(14), k in 1usize..4) {
        prop_assume!(k < pts.len());
        assert_exact_k_threshold(&pts, k, "uniform");
        if k == 1 {
            prop_assert_eq!(
                critical_range(&pts).to_bits(),
                kconn::critical_range_k(&pts, 1).to_bits()
            );
        }
    }
}

/// Every registry model at n = 16, and coincident points.
#[test]
fn critical_range_k_is_exact_on_every_registry_model() {
    assert_exact_on_placements(&registry_placements(16));
    // Coincident points: a stack of four and two single nodes, then
    // one stack of seven.
    let mut pts = vec![Point::new([5.0, 5.0]); 4];
    pts.extend([Point::new([9.0, 5.0]), Point::new([9.0, 8.0])]);
    for k in [1, 2, 3] {
        assert_exact_k_threshold(&pts, k, "coincident");
    }
    assert_exact_k_threshold(&[Point::new([1.0, 2.0]); 7], 3, "one stack");
}

/// Every registry model at n = 64, where the all-pairs max-flow oracle
/// takes about a minute unoptimised. Release-only.
#[test]
#[ignore = "release-only oracle; run by CI"]
fn critical_range_k_is_exact_on_every_registry_model_at_n64() {
    assert_exact_on_placements(&registry_placements(64));
}
