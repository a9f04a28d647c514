//! One bench per paper figure: the exact experiment pipelines at a
//! scaled-down cell (`l = 256`, `n = 16`, 2 iterations × 50 steps), so
//! regressions in any figure's critical path show up in CI timing.
//! The `campaign` group times one fused pass against the two separate
//! passes it replaces, at a paper-sized cell.

use criterion::{criterion_group, criterion_main, Criterion};
use manet_bench::{bench_drunkard, bench_waypoint, small_problem};
use manet_core::mobility::RandomWaypoint;
use manet_core::sim::{simulate_profiles, StationaryAnalysis};
use manet_core::{MtrmProblem, SimConfig};
use std::hint::black_box;

/// Figure 2 pipeline: waypoint critical-range quantiles.
fn fig2(c: &mut Criterion) {
    c.bench_function("fig2_waypoint_ranges", |b| {
        let p = small_problem(bench_waypoint());
        b.iter(|| black_box(p.solve().unwrap()))
    });
}

/// Figure 3 pipeline: drunkard critical-range quantiles.
fn fig3(c: &mut Criterion) {
    c.bench_function("fig3_drunkard_ranges", |b| {
        let p = small_problem(bench_drunkard());
        b.iter(|| black_box(p.solve().unwrap()))
    });
}

/// Figure 4 pipeline: waypoint fused campaign (ranges + profiles).
fn fig4(c: &mut Criterion) {
    c.bench_function("fig4_waypoint_campaign", |b| {
        let p = small_problem(bench_waypoint());
        b.iter(|| black_box(p.campaign().unwrap()))
    });
}

/// Figure 5 pipeline: drunkard fused campaign (ranges + profiles).
fn fig5(c: &mut Criterion) {
    c.bench_function("fig5_drunkard_campaign", |b| {
        let p = small_problem(bench_drunkard());
        b.iter(|| black_box(p.campaign().unwrap()))
    });
}

/// Figure 6 pipeline: fused campaign plus the rl-target inversion.
fn fig6(c: &mut Criterion) {
    c.bench_function("fig6_component_targets", |b| {
        let p = small_problem(bench_waypoint());
        b.iter(|| {
            let campaign = p.campaign().unwrap();
            black_box(
                campaign
                    .ranges_for_component_fractions(&[0.9, 0.75, 0.5])
                    .unwrap(),
            )
        })
    });
}

/// One paper-sized cell (waypoint, `l = 4096`, `n = 64`, 5 × 500
/// steps, profile stride 5): the fused `campaign()` against `solve()`
/// plus a separate profile pass over the same trajectories.
fn campaign(c: &mut Criterion) {
    let l = 4096.0;
    let p = MtrmProblem::new(
        SimConfig::<2>::builder()
            .nodes(64)
            .side(l)
            .iterations(5)
            .steps(500)
            .seed(404)
            .profile_stride(5)
            .threads(1)
            .build()
            .unwrap(),
        RandomWaypoint::new(0.1, 0.01 * l, 100, 0.0).unwrap(),
    );
    let mut group = c.benchmark_group("campaign");
    group.bench_function("fused", |b| b.iter(|| black_box(p.campaign().unwrap())));
    group.bench_function("solve_then_profiles", |b| {
        b.iter(|| {
            let solution = p.solve().unwrap();
            let profiles = simulate_profiles(p.config(), p.model()).unwrap();
            black_box((solution, profiles))
        })
    });
    group.finish();
}

/// Figure 7 pipeline: one p_stationary sweep point.
fn fig7(c: &mut Criterion) {
    c.bench_function("fig7_pstationary_point", |b| {
        let p =
            small_problem(manet_core::mobility::RandomWaypoint::new(0.1, 2.56, 10, 0.5).unwrap());
        b.iter(|| black_box(p.solve().unwrap()))
    });
}

/// Figure 8 pipeline: one t_pause sweep point.
fn fig8(c: &mut Criterion) {
    c.bench_function("fig8_tpause_point", |b| {
        let p =
            small_problem(manet_core::mobility::RandomWaypoint::new(0.1, 2.56, 25, 0.0).unwrap());
        b.iter(|| black_box(p.solve().unwrap()))
    });
}

/// Figure 9 pipeline: one v_max sweep point.
fn fig9(c: &mut Criterion) {
    c.bench_function("fig9_vmax_point", |b| {
        let p =
            small_problem(manet_core::mobility::RandomWaypoint::new(0.1, 128.0, 10, 0.0).unwrap());
        b.iter(|| black_box(p.solve().unwrap()))
    });
}

/// S1 pipeline: the stationary calibration behind every figure.
fn stationary(c: &mut Criterion) {
    c.bench_function("stationary_calibration", |b| {
        b.iter(|| black_box(StationaryAnalysis::run::<2>(16, 256.0, 100, 5, None).unwrap()))
    });
}

criterion_group!(figures, fig2, fig3, fig4, fig5, fig6, campaign, fig7, fig8, fig9, stationary);
criterion_main!(figures);
