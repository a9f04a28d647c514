//! Per-step cost of every mobility model in the registry zoo.
//!
//! The incremental connectivity spine (PR 3) made the *graph* side of
//! a simulation step cheap; this target watches the *motion* side so a
//! new model family cannot silently dominate the step budget. One
//! bench per registry name and shape: `step` advances all nodes once
//! (RNG and positions reused across iterations, so the measurement is
//! the steady-state per-step cost, boundary interactions included).
//! Divide ns/iter by `n` for ns per node-step.
//!
//! Shapes: the paper cell `l = 1024` at `n ∈ {32, 256}`; the
//! critical-scaling sweep's `n ∈ {16, 64}` at its base-density side
//! `l = 64·√n`; and the trace-large run, `n = 2000` at `l = 1024`.

use criterion::{criterion_group, criterion_main, Criterion};
use manet_core::geom::Region;
use manet_core::mobility::Mobility;
use manet_core::{ModelRegistry, PaperScale};
use rand::SeedableRng;
use std::hint::black_box;

fn mobility_step(c: &mut Criterion) {
    let registry = ModelRegistry::<2>::with_builtins();
    let shapes = [
        ("n=32", 32usize, 1024.0),
        ("n=256", 256, 1024.0),
        ("n=16,l=256", 16, 256.0),
        ("n=64,l=512", 64, 512.0),
        ("n=2000,l=1024", 2000, 1024.0),
    ];
    for (label, n, side) in shapes {
        let region: Region<2> = Region::new(side).expect("positive side");
        let scale = PaperScale::new(side).with_pause(50);
        let mut group = c.benchmark_group(format!("mobility_step/{label}"));
        for name in registry.names() {
            group.bench_function(name, |b| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(20020623);
                let mut positions = region.place_uniform(n, &mut rng);
                let mut model = registry.build(name, &scale).expect("builtin builds");
                model.init(&positions, &region, &mut rng);
                b.iter(|| {
                    model.step(&mut positions, &region, &mut rng);
                    black_box(&positions);
                })
            });
        }
        group.finish();
    }
}

criterion_group!(mobility, mobility_step);
criterion_main!(mobility);
