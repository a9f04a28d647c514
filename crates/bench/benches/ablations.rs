//! Ablation benches for the design choices called out in DESIGN.md §6:
//! each compares the chosen implementation against its alternative on
//! identical inputs, so the speedup claims stay measured, not asserted.

use criterion::{criterion_group, criterion_main, Criterion};
use manet_bench::{bench_waypoint, small_problem};
use manet_core::geom::BoundaryPolicy;
use manet_core::mobility::Drunkard;
use manet_core::occupancy::Occupancy;
use manet_core::sim::{
    bisect_critical_range, simulate_critical_ranges, ConnectivityMetric, CriticalRangeSearch,
    SimConfig,
};
use std::hint::black_box;

/// CTR-quantile method vs bisection search for `r90` (identical
/// answers; the quantile path reuses one simulation for all fractions).
fn quantile_vs_bisection(c: &mut Criterion) {
    let mut group = c.benchmark_group("r90_extraction");
    let mut b = SimConfig::<2>::builder();
    b.nodes(16)
        .side(256.0)
        .iterations(2)
        .steps(30)
        .seed(77)
        .threads(1);
    let cfg = b.build().unwrap();
    let model = bench_waypoint();
    group.bench_function("fast_quantile", |bch| {
        bch.iter(|| {
            let res = simulate_critical_ranges(&cfg, &model).unwrap();
            black_box(res.mean_range_for_fraction(0.9).unwrap())
        })
    });
    let search = CriticalRangeSearch::new()
        .with_metric(ConnectivityMetric::KConnectivity(1))
        .with_target(0.9)
        .with_rel_tol(1.0 / 256.0);
    group.bench_function("slow_bisection", |bch| {
        bch.iter(|| black_box(bisect_critical_range(&cfg, &model, &search).unwrap().range))
    });
    group.finish();
}

/// Drunkard boundary policies: rejection resampling vs reflection.
fn drunkard_boundary_policies(c: &mut Criterion) {
    let mut group = c.benchmark_group("drunkard_boundary");
    for (name, policy) in [
        ("resample", BoundaryPolicy::Resample),
        ("reflect", BoundaryPolicy::Reflect),
        ("clamp", BoundaryPolicy::Clamp),
    ] {
        group.bench_function(name, |bch| {
            let model = Drunkard::with_boundary(0.0, 0.0, 64.0, policy).unwrap();
            let p = small_problem(model);
            bch.iter(|| black_box(p.solve().unwrap()))
        });
    }
    group.finish();
}

/// Profile grid resolutions: accuracy/cost trade of the rl inversion.
fn profile_resolutions(c: &mut Criterion) {
    let mut group = c.benchmark_group("profile_bins");
    for &bins in &[128usize, 1024, 4096] {
        group.bench_function(format!("bins={bins}"), |bch| {
            let p = manet_core::MtrmProblem::new(
                SimConfig::<2>::builder()
                    .nodes(16)
                    .side(256.0)
                    .iterations(2)
                    .steps(30)
                    .seed(5)
                    .threads(1)
                    .profile_bins(bins)
                    .build()
                    .unwrap(),
                bench_waypoint(),
            );
            bch.iter(|| {
                black_box(manet_core::sim::simulate_profiles(p.config(), p.model()).unwrap())
            })
        });
    }
    group.finish();
}

/// Stirling DP vs inclusion–exclusion for the occupancy pmf.
fn occupancy_pmf_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("occupancy_pmf");
    let occ = Occupancy::new(300, 60).unwrap();
    group.bench_function("stirling_full_pmf", |b| {
        b.iter(|| black_box(occ.distribution()))
    });
    group.bench_function("inclusion_exclusion_single_k", |b| {
        b.iter(|| black_box(occ.pmf_empty_inclusion_exclusion(10).unwrap()))
    });
    group.finish();
}

criterion_group!(
    ablations,
    quantile_vs_bisection,
    drunkard_boundary_policies,
    profile_resolutions,
    occupancy_pmf_paths,
);
criterion_main!(ablations);
