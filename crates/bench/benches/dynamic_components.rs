//! Incremental components vs full rebuild-and-relabel.
//!
//! The connectivity spine's bet is that maintaining the component
//! summary under edge deltas (`DynamicGraph::step` +
//! `DynamicComponents::apply`) beats rebuilding the adjacency list and
//! relabeling from scratch (`AdjacencyList::from_points` +
//! `ComponentSummary::of`) at every step. This target prices that bet
//! across node counts and two mobility speeds; each bench id carries
//! the trajectory's mean churn per node.
//!
//! Seeds are pinned (like every fixture in `manet-bench`) so perf
//! series stay comparable across commits.

use criterion::{criterion_group, criterion_main, Criterion};
use manet_bench::placement;
use manet_core::geom::{Point, Region};
use manet_core::graph::{AdjacencyList, ComponentSummary, DynamicComponents, DynamicGraph};
use manet_core::mobility::{Mobility, RandomWaypoint};
use rand::SeedableRng;
use std::hint::black_box;

// Sparse regime (side >> range): bounded-degree graphs where the
// grid/delta path is O(n + E) per step; the interesting contest is
// then delta-apply vs relabel, not graph construction alone.
const SIDE: f64 = 1000.0;
const RANGE: f64 = 30.0;
const TRAJ_STEPS: usize = 60;

/// A pinned-seed random-waypoint trajectory at top speed `v_max`.
fn trajectory(n: usize, v_max: f64, seed: u64) -> Vec<Vec<Point<2>>> {
    let region: Region<2> = Region::new(SIDE).expect("positive side");
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut positions = placement(n, SIDE, seed);
    let mut model = RandomWaypoint::new(v_max * 0.5, v_max, 0, 0.0).expect("valid parameters");
    model.init(&positions, &region, &mut rng);
    let mut out = vec![positions.clone()];
    for _ in 1..TRAJ_STEPS {
        model.step(&mut positions, &region, &mut rng);
        out.push(positions.clone());
    }
    out
}

/// Mean per-step churn as a fraction of `n` (printed into the bench id).
fn churn_per_node(traj: &[Vec<Point<2>>]) -> f64 {
    manet_bench::step_kernel::churn_per_node(traj, SIDE, RANGE)
}

/// The delta path: advance the graph and apply the diff to the
/// incrementally-maintained components, reading the per-step answers.
fn run_delta(traj: &[Vec<Point<2>>]) -> (usize, usize) {
    let mut dg = DynamicGraph::new(black_box(&traj[0]), SIDE, RANGE);
    let mut dc = DynamicComponents::new(traj[0].len());
    dc.apply(dg.last_diff(), dg.graph());
    let mut acc = (dc.count(), dc.largest_size());
    for pts in &traj[1..] {
        dg.step(black_box(pts));
        dc.apply(dg.last_diff(), dg.graph());
        acc = (acc.0 ^ dc.count(), acc.1 ^ dc.largest_size());
    }
    acc
}

/// The from-scratch path: rebuild the snapshot and relabel it fully at
/// every step.
fn run_rebuild(traj: &[Vec<Point<2>>]) -> (usize, usize) {
    let mut acc = (0usize, 0usize);
    for pts in traj {
        let graph = AdjacencyList::from_points(black_box(pts), SIDE, RANGE);
        let comps = ComponentSummary::of(&graph);
        acc = (acc.0 ^ comps.count(), acc.1 ^ comps.largest_size());
    }
    acc
}

fn bench_delta_vs_rebuild(c: &mut Criterion) {
    let mut group = c.benchmark_group("dynamic_components");
    for &n in &[100usize, 500, 1000] {
        for (label, v_max) in [("low", 2.0), ("high", 40.0)] {
            let traj = trajectory(n, v_max, 21);
            let churn = churn_per_node(&traj);
            group.bench_function(
                format!("delta_apply_n={n}_speed={label}_churn={churn:.3}n"),
                |b| b.iter(|| run_delta(&traj)),
            );
            group.bench_function(
                format!("rebuild_relabel_n={n}_speed={label}_churn={churn:.3}n"),
                |b| b.iter(|| run_rebuild(&traj)),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_delta_vs_rebuild);
criterion_main!(benches);
