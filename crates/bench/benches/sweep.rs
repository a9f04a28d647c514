//! Sweep scheduler: fan-out overhead and critical-range sweep scaling.
//!
//! Two questions. First, what does the scheduler itself cost —
//! claiming job ids off the atomic cursor, tagging results, and the
//! job-id-ordered merge — relative to the work it schedules? The
//! `overhead` group runs grids of near-empty jobs, so any gap between
//! thread counts is pure scheduling. Second, how does the
//! critical-scaling workload (the `manet-repro critical-scaling`
//! spine: one merge-profile pass per cell) scale with workers? Cells
//! are independent campaigns, so the `critical_cells` group should
//! approach linear speedup until cells run out.
//!
//! Seeds are pinned (like every fixture in `manet-bench`) so perf
//! series stay comparable across commits.

use criterion::{criterion_group, criterion_main, Criterion};
use manet_core::mobility::RandomWaypoint;
use manet_core::sim::{find_critical_range, CriticalRangeSearch, SimConfig, SweepScheduler};
use std::hint::black_box;

fn scheduler_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("sweep_overhead");
    let jobs: Vec<u64> = (0..256).collect();
    for threads in [1usize, 2, 4, 8] {
        let scheduler = SweepScheduler::new(threads);
        group.bench_function(format!("jobs=256_threads={threads}"), |b| {
            b.iter(|| {
                let run = scheduler
                    .run(
                        black_box(&jobs),
                        jobs.iter().map(|_| None).collect(),
                        |_, &x| Ok(x.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                    )
                    .expect("pure jobs cannot fail");
                black_box(run.into_complete().expect("every job ran"))
            });
        });
    }
    group.finish();
}

fn critical_cells(c: &mut Criterion) {
    let mut group = c.benchmark_group("sweep_critical_cells");
    // A 12-cell grid of small exact-finder campaigns (the critical-scaling
    // workload shape at bench scale).
    let cells: Vec<(usize, u64)> = (0..12).map(|i| (10 + (i % 3) * 2, i as u64)).collect();
    let search = CriticalRangeSearch::new().with_target(0.95);
    for threads in [1usize, 2, 4] {
        let scheduler = SweepScheduler::new(threads);
        group.bench_function(format!("cells=12_threads={threads}"), |b| {
            b.iter(|| {
                let run = scheduler
                    .run(
                        black_box(&cells),
                        cells.iter().map(|_| None).collect(),
                        |_, &(n, seed)| {
                            let mut builder = SimConfig::<2>::builder();
                            builder
                                .nodes(n)
                                .side(100.0)
                                .iterations(2)
                                .steps(20)
                                .seed(seed)
                                .threads(1);
                            let config = builder.build()?;
                            let model =
                                RandomWaypoint::new(0.5, 2.0, 1, 0.0).expect("valid parameters");
                            find_critical_range(&config, &model, &search).map(|p| p.range.to_bits())
                        },
                    )
                    .expect("cells cannot fail");
                black_box(run.into_complete().expect("every job ran"))
            });
        });
    }
    group.finish();
}

criterion_group!(benches, scheduler_overhead, critical_cells);
criterion_main!(benches);
