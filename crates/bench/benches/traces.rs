//! Temporal-trace benches: the delta-stream path versus from-scratch
//! rebuilds, and the end-to-end trace pipeline.
//!
//! Seeds are pinned (like every fixture in `manet-bench`) so perf
//! series stay comparable across commits.

use criterion::{criterion_group, criterion_main, Criterion};
use manet_bench::placement;
use manet_core::geom::{Point, Region};
use manet_core::graph::{AdjacencyList, DynamicComponents, DynamicGraph};
use manet_core::mobility::{Mobility, RandomWaypoint};
use manet_core::sim::{simulate_trace, SimConfig};
use manet_core::trace::TraceRecorder;
use rand::SeedableRng;
use std::hint::black_box;

// Sparse regime (side >> range): the communication graph has bounded
// degree, so the grid/delta path is O(n + E) per step against the
// brute-force O(n²) rebuild. This is where scaling the node count
// actually lives; the dense regime (side ~ a few·range) stays on the
// brute-force branch of `from_points` by design.
const SIDE: f64 = 1000.0;
const RANGE: f64 = 30.0;
const TRAJ_STEPS: usize = 100;

/// A pinned-seed random-waypoint trajectory: `steps` position
/// snapshots of `n` nodes.
fn trajectory(n: usize, steps: usize, seed: u64) -> Vec<Vec<Point<2>>> {
    let region: Region<2> = Region::new(SIDE).expect("positive side");
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut positions = placement(n, SIDE, seed);
    let mut model = RandomWaypoint::new(1.0, 10.0, 5, 0.0).expect("valid parameters");
    model.init(&positions, &region, &mut rng);
    let mut out = vec![positions.clone()];
    for _ in 1..steps {
        model.step(&mut positions, &region, &mut rng);
        out.push(positions.clone());
    }
    out
}

fn bench_delta_stream_vs_rebuild(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace_graph_maintenance");
    for &n in &[256usize, 1024] {
        let traj = trajectory(n, TRAJ_STEPS, 12);
        group.bench_function(format!("dynamic_diff_n={n}"), |b| {
            b.iter(|| {
                let mut dg = DynamicGraph::new(black_box(&traj[0]), SIDE, RANGE);
                let mut churn = dg.last_diff().churn();
                for pts in &traj[1..] {
                    dg.step(black_box(pts));
                    churn += dg.last_diff().churn();
                }
                black_box(churn)
            })
        });
        group.bench_function(format!("rebuild_brute_n={n}"), |b| {
            b.iter(|| {
                let mut edges = 0usize;
                for pts in &traj {
                    edges +=
                        AdjacencyList::from_points_brute_force(black_box(pts), RANGE).edge_count();
                }
                black_box(edges)
            })
        });
    }
    group.finish();
}

fn bench_recorder_fold(c: &mut Criterion) {
    let traj = trajectory(128, TRAJ_STEPS, 13);
    c.bench_function("trace_recorder_fold_n=128", |b| {
        b.iter(|| {
            let mut dg = DynamicGraph::new(&traj[0], SIDE, RANGE);
            let mut dc = DynamicComponents::new(128);
            let mut rec = TraceRecorder::new(128, traj.len());
            dc.apply(dg.last_diff(), dg.graph());
            rec.observe_with(dg.last_diff(), dg.graph(), &dc);
            for pts in &traj[1..] {
                dg.step(pts);
                dc.apply(dg.last_diff(), dg.graph());
                rec.observe_with(dg.last_diff(), dg.graph(), &dc);
            }
            black_box(rec.finish())
        })
    });
}

/// The recorder alone: `observe_with` + `finish` over a waypoint delta
/// stream at n = 2000 recorded beforehand, so neither the step kernel
/// nor the component update is timed.
fn bench_recorder_observe(c: &mut Criterion) {
    let n = 2000;
    let traj = trajectory(n, TRAJ_STEPS, 14);
    let mut dg = DynamicGraph::new(&traj[0], SIDE, RANGE);
    let mut components = DynamicComponents::new(n);
    let mut stream = Vec::with_capacity(traj.len());
    for (t, pts) in traj.iter().enumerate() {
        let diff = if t == 0 {
            dg.initial_diff()
        } else {
            dg.step(pts);
            dg.last_diff().clone()
        };
        components.apply(&diff, dg.graph());
        stream.push((diff, dg.graph().clone(), components.clone()));
    }
    c.bench_function(format!("trace_recorder_observe_n={n}"), |b| {
        b.iter(|| {
            let mut rec = TraceRecorder::new(n, stream.len());
            for (diff, graph, components) in &stream {
                rec.observe_with(black_box(diff), graph, components);
            }
            black_box(rec.finish())
        })
    });
}

fn bench_trace_pipeline(c: &mut Criterion) {
    let mut b = SimConfig::<2>::builder();
    b.nodes(16)
        .side(256.0)
        .iterations(2)
        .steps(50)
        .seed(404)
        .threads(1);
    let config = b.build().expect("valid bench configuration");
    let model = RandomWaypoint::new(0.1, 2.56, 10, 0.0).expect("valid parameters");
    c.bench_function("simulate_trace_16x50", |b| {
        b.iter(|| black_box(simulate_trace(&config, &model, 64.0).unwrap()))
    });
}

criterion_group!(
    traces,
    bench_delta_stream_vs_rebuild,
    bench_recorder_fold,
    bench_recorder_observe,
    bench_trace_pipeline
);
criterion_main!(traces);
