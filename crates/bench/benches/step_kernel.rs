//! The zero-rebuild step kernel vs the rebuild-and-diff path.
//!
//! This target prices the tentpole bet of the incremental kernel: that
//! deriving each step's `EdgeDiff` from moved-node rescans over a
//! `MovingCellGrid` (`DynamicGraph::step`) beats rebuilding the
//! snapshot with `AdjacencyList::from_points` and diffing two full
//! snapshots — especially at large `n` and low churn, where the
//! rebuild path's per-step allocations and full-graph merges dominate.
//!
//! `n ∈ {256, 1000, 4000} × {low, high}` waypoint speed, sparse regime
//! (side ≫ range). Seeds are pinned (like every fixture in
//! `manet-bench`) so perf series stay comparable across commits. The
//! committed `BENCH_step_kernel.json` numbers come from the
//! `step-kernel-capture` binary, which times these exact workloads.

use criterion::{criterion_group, criterion_main, Criterion};
use manet_bench::step_kernel::{
    churn_per_node, run_cached, run_incremental, run_rebuild_diff, trajectory, RANGE, SCENARIOS,
    SIDE,
};
use manet_core::graph::Skin;
use std::hint::black_box;

fn bench_step_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("step_kernel");
    for &n in &[256usize, 1000, 4000] {
        for scenario in &SCENARIOS {
            let steps = if n >= 4000 { 30 } else { 60 };
            let traj = trajectory(n, scenario, steps, 31);
            let churn = churn_per_node(&traj, SIDE, RANGE);
            let label = scenario.label;
            group.bench_function(
                format!("incremental_n={n}_scenario={label}_churn={churn:.3}n"),
                |b| b.iter(|| run_incremental(black_box(&traj), SIDE, RANGE)),
            );
            group.bench_function(
                format!("rebuild_diff_n={n}_scenario={label}_churn={churn:.3}n"),
                |b| b.iter(|| run_rebuild_diff(black_box(&traj), SIDE, RANGE)),
            );
        }
    }
    group.finish();
}

/// The Verlet cache's win on its target regime: `mid` (all-moving,
/// bounded per-step displacement) at `n ∈ {1000, 4000}`, the skin
/// pinned off vs auto-tuned vs a fixed radius near the optimum. The
/// checksum — hence every observable — is identical across the sweep;
/// the committed capture gates the auto/off ratio.
fn bench_step_kernel_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("step_kernel_cache");
    let scenario = SCENARIOS
        .iter()
        .find(|s| s.label == "mid")
        .expect("mid scenario");
    for &n in &[1000usize, 4000] {
        let steps = if n >= 4000 { 30 } else { 60 };
        let traj = trajectory(n, scenario, steps, 31);
        for (label, skin) in [
            ("off", Skin::Off),
            ("auto", Skin::Auto),
            ("fixed12", Skin::Fixed(12.0)),
        ] {
            group.bench_function(format!("cached_n={n}_mid_skin={label}"), |b| {
                b.iter(|| run_cached(black_box(&traj), SIDE, RANGE, scenario.v_max, skin))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_step_kernel, bench_step_kernel_cache);
criterion_main!(benches);
