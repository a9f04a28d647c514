//! Kernel benches: the inner loops every experiment leans on.

use criterion::{criterion_group, criterion_main, Criterion};
use manet_bench::placement;
use manet_bench::step_kernel::{registry_trajectory, CLI_NODES, CLI_RANGES, CLI_SIDE};
use manet_core::geom::{MovingCellGrid, Point, Region};
use manet_core::graph::mst::{
    critical_range_grid, critical_range_prim, minimum_spanning_tree_grid,
    minimum_spanning_tree_prim,
};
use manet_core::graph::{
    components, critical_range, minimum_spanning_tree, AdjacencyList, CriticalRangeTracker,
    FloorProfile, MergeProfile, UnionFind,
};
use manet_core::mobility::{Mobility, RandomWaypoint};
use manet_core::occupancy::Occupancy;
use manet_core::one_dim;
use manet_core::stats::FrozenSeries;
use rand::SeedableRng;
use std::hint::black_box;

/// 8 uniform placements of `n` nodes on side 1000, seeded from
/// `first_seed` on.
fn eight_placements(n: usize, first_seed: u64) -> Vec<Vec<Point<2>>> {
    (0..8)
        .map(|i| placement(n, 1000.0, first_seed + i))
        .collect()
}

/// Times `f` on one placement per call, cycling through `sets`, so a
/// row reads the per-placement cost without the branch predictor
/// learning one fixed placement.
fn bench_cycling<T>(
    b: &mut criterion::Bencher,
    sets: &[Vec<Point<2>>],
    mut f: impl FnMut(&[Point<2>]) -> T,
) {
    let mut next = 0;
    b.iter(|| {
        next = (next + 1) % sets.len();
        black_box(f(black_box(&sets[next])))
    })
}

fn bench_mst(c: &mut Criterion) {
    let mut group = c.benchmark_group("critical_range_prim");
    for &n in &[16usize, 32, 64, 128, 256] {
        let sets = eight_placements(n, 70);
        group.bench_function(format!("n={n}"), |b| {
            bench_cycling(b, &sets, critical_range)
        });
    }
    group.finish();

    // The dispatch crossover of `minimum_spanning_tree`
    // (`GRID_MST_MIN_NODES`, recorded in DESIGN.md): dense Prim against
    // grid-Kruskal as the dispatch would run it (Prim on a decline),
    // each over the same 8 uniform placements on side 1024, so the
    // rows average over how many passes a placement needs.
    let mut group = c.benchmark_group("mst");
    let placements = |n: usize| -> Vec<Vec<Point<2>>> {
        (0..8).map(|seed| placement(n, 1024.0, 40 + seed)).collect()
    };
    let grid = |pts: &[Point<2>]| {
        minimum_spanning_tree_grid(pts).map_or_else(|| minimum_spanning_tree_prim(pts), |t| t.0)
    };
    for &n in &[128usize, 256, 384, 512, 640, 768, 896, 1000] {
        let sets = placements(n);
        group.bench_function(format!("prim_n={n}"), |b| {
            b.iter(|| {
                for pts in &sets {
                    black_box(minimum_spanning_tree_prim(black_box(pts)));
                }
            })
        });
        group.bench_function(format!("grid_n={n}"), |b| {
            b.iter(|| {
                for pts in &sets {
                    black_box(grid(black_box(pts)));
                }
            })
        });
    }
    let sets = placements(20_000);
    group.bench_function("grid_n=20000", |b| {
        b.iter(|| {
            for pts in &sets {
                black_box(grid(black_box(pts)));
            }
        })
    });
    group.finish();

    // `critical_range`'s side of the same crossover: dense Prim's
    // bottleneck-only mode against the bottleneck kernel as the
    // dispatch would run it, on the `mst` rows' placements.
    let mut group = c.benchmark_group("critical_range");
    let grid_bottleneck = |pts: &[Point<2>]| {
        critical_range_grid(pts).map_or_else(|| critical_range_prim(pts), |c| c.0)
    };
    for &n in &[512usize, 640, 768, 896, 1000] {
        let sets = placements(n);
        group.bench_function(format!("prim_n={n}"), |b| {
            b.iter(|| {
                for pts in &sets {
                    black_box(critical_range_prim(black_box(pts)));
                }
            })
        });
        group.bench_function(format!("grid_n={n}"), |b| {
            b.iter(|| {
                for pts in &sets {
                    black_box(grid_bottleneck(black_box(pts)));
                }
            })
        });
    }

    // `critical_range` from `GRID_MST_MIN_NODES` up (recorded in
    // DESIGN.md): the bottleneck kernel against the longest edge of the
    // grid-Kruskal tree it replaced, over the same 8 uniform placements
    // at trace-large's density (side 1024 at n = 2000).
    for &n in &[2000usize, 20_000] {
        let side = 1024.0 * (n as f64 / 2000.0).sqrt();
        let sets: Vec<Vec<Point<2>>> = (0..8).map(|seed| placement(n, side, 60 + seed)).collect();
        group.bench_function(format!("bottleneck_n={n}"), |b| {
            b.iter(|| {
                for pts in &sets {
                    black_box(critical_range(black_box(pts)));
                }
            })
        });
        group.bench_function(format!("mst_longest_n={n}"), |b| {
            b.iter(|| {
                for pts in &sets {
                    let tree = minimum_spanning_tree(black_box(pts));
                    black_box(tree.iter().map(|e| e.length).fold(0.0, f64::max));
                }
            })
        });
    }
    group.finish();
}

/// Positions of `n` random-waypoint nodes on the paper's side
/// `l = n²` over `steps` consecutive steps.
fn waypoint_trajectory(n: usize, steps: usize, seed: u64) -> Vec<Vec<Point<2>>> {
    let side = (n * n) as f64;
    let region: Region<2> = Region::new(side).expect("positive side");
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut model = RandomWaypoint::new(0.1, 0.01 * side, 40, 0.0).expect("valid parameters");
    let mut positions = region.place_uniform(n, &mut rng);
    model.init(&positions, &region, &mut rng);
    (0..steps)
        .map(|_| {
            model.step(&mut positions, &region, &mut rng);
            positions.clone()
        })
        .collect()
}

/// Per-step critical range along one fixed 200-step trajectory: the
/// warm-start tracker (fresh per pass, so each pass pays its first-step
/// reseed, as each simulation iteration does) against one stateless
/// Prim per step. Every row folds the steps to their maximum, `r100`;
/// the `ceiling` rows compute only that, passing the running maximum
/// as the tracker's ceiling, as Figures 7–9's r100 pass does. Divide
/// ns/iter by 200 for the per-step cost.
fn bench_critical_range_warm(c: &mut Criterion) {
    let mut group = c.benchmark_group("critical_range_warm");
    for &n in &[16usize, 64, 128] {
        let trajectory = waypoint_trajectory(n, 200, 13);
        group.bench_function(format!("tracker_n={n}_200_steps"), |b| {
            b.iter(|| {
                let mut tracker = CriticalRangeTracker::new();
                trajectory
                    .iter()
                    .map(|pts| tracker.critical_range(black_box(pts)))
                    .fold(0.0, f64::max)
            })
        });
        group.bench_function(format!("ceiling_n={n}_200_steps"), |b| {
            b.iter(|| {
                let mut tracker = CriticalRangeTracker::new();
                trajectory.iter().fold(f64::NEG_INFINITY, |max, pts| {
                    tracker
                        .critical_range_above(black_box(pts), max)
                        .unwrap_or(max)
                })
            })
        });
        group.bench_function(format!("prim_n={n}_200_steps"), |b| {
            b.iter(|| {
                trajectory
                    .iter()
                    .map(|pts| critical_range(black_box(pts)))
                    .fold(0.0, f64::max)
            })
        });
    }
    group.finish();
}

fn bench_merge_profile(c: &mut Criterion) {
    let mut group = c.benchmark_group("merge_profile_kruskal");
    for &n in &[16usize, 32, 64, 128] {
        let sets = eight_placements(n, 80);
        group.bench_function(format!("n={n}"), |b| {
            bench_cycling(b, &sets, MergeProfile::of)
        });
    }
    group.finish();

    // `FloorProfile` on the same placements, one profiler reused across
    // calls: at floor 0 it builds every profile, as the rows above do;
    // at the median of the placements' critical ranges about half of
    // them have no event at or above the floor. Consecutive placements
    // are independent, so the stale-tree screen rarely passes here.
    // The n >= 512 rows build grid-Kruskal trees (`GRID_MST_MIN_NODES`).
    let mut group = c.benchmark_group("floor_profile");
    for &n in &[16usize, 64, 512, 640, 768, 896, 1000] {
        let sets = eight_placements(n, 80);
        let mut bottlenecks: Vec<f64> = sets.iter().map(|pts| critical_range(pts)).collect();
        bottlenecks.sort_by(f64::total_cmp);
        for (label, floor) in [("0", 0.0), ("median", bottlenecks[sets.len() / 2])] {
            let mut profile = FloorProfile::new();
            group.bench_function(format!("n={n}_floor={label}"), |b| {
                bench_cycling(b, &sets, |pts| profile.events_at_or_above(pts, floor).len())
            });
        }
    }

    // Consecutive steps of one 64-step waypoint trajectory, one step per
    // call, at the trajectory's lowest bottleneck, so no step is
    // screened. `cold` gives each step a fresh profiler, which builds
    // its tree from scratch; `warm` carries one profiler from step to
    // step, which grows each tree from the last one's edges below the
    // floor where that costs fewer pairs than its last cold build.
    for &n in &[64usize, 1024] {
        let steps = waypoint_trajectory(n, 64, 17);
        let floor = steps
            .iter()
            .map(|pts| critical_range(pts))
            .fold(f64::INFINITY, f64::min);
        group.bench_function(format!("cold_n={n}"), |b| {
            bench_cycling(b, &steps, |pts| {
                FloorProfile::new().events_at_or_above(pts, floor).len()
            })
        });
        let mut profile = FloorProfile::new();
        group.bench_function(format!("warm_n={n}"), |b| {
            bench_cycling(b, &steps, |pts| {
                profile.events_at_or_above(pts, floor).len()
            })
        });
    }
    group.finish();
}

fn bench_graph_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("graph_build");
    let pts = placement(128, 1000.0, 9);
    group.bench_function("brute_force_n=128", |b| {
        b.iter(|| {
            black_box(AdjacencyList::from_points_brute_force(
                black_box(&pts),
                150.0,
            ))
        })
    });
    group.bench_function("grid_n=128", |b| {
        b.iter(|| {
            black_box(AdjacencyList::from_points_grid(black_box(&pts), 1000.0, 150.0).unwrap())
        })
    });
    // side/r = 19 >= 14: the sizes where `from_points` may pick the
    // grid (n > GRID_CROSSOVER), to locate the crossover.
    for &n in &[192usize, 400, 2000] {
        let pts = placement(n, 1024.0, 12);
        group.bench_function(format!("brute_force_n={n}_side=1024_r=54"), |b| {
            b.iter(|| {
                black_box(AdjacencyList::from_points_brute_force(
                    black_box(&pts),
                    54.0,
                ))
            })
        });
        group.bench_function(format!("grid_n={n}_side=1024_r=54"), |b| {
            b.iter(|| {
                black_box(AdjacencyList::from_points_grid(black_box(&pts), 1024.0, 54.0).unwrap())
            })
        });
    }
    group.finish();
}

/// One full-lattice forward scan at the `trace-large` shape (n = 2000,
/// side 1024, its four ranges), on a uniform placement and on random
/// waypoint's centre-heavy placement after 300 steps. The cells follow
/// the lattice rule at each range, as in the step kernel's bulk steps.
fn bench_grid_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("grid_scan");
    let uniform = placement(CLI_NODES, CLI_SIDE, 12);
    let (walk, _) = registry_trajectory("waypoint", CLI_NODES, CLI_SIDE, 300, 31);
    let clustered = walk.last().expect("a non-empty trajectory");
    for (label, pts) in [("uniform", &uniform), ("waypoint", clustered)] {
        for r in CLI_RANGES {
            let cell = MovingCellGrid::<2>::lattice_cell_size(pts.len(), CLI_SIDE, r)
                .expect("valid lattice");
            let mut grid = MovingCellGrid::build(pts, CLI_SIDE, cell).expect("valid grid");
            group.bench_function(format!("{label}_n={CLI_NODES}_side=1024_r={r}"), |b| {
                b.iter(|| {
                    let mut kept = 0usize;
                    let examined =
                        grid.scan_forward_pairs(black_box(r * r), |batch| kept += batch.len());
                    black_box((examined, kept))
                })
            });
        }
    }
    group.finish();
}

fn bench_components(c: &mut Criterion) {
    let pts = placement(128, 1000.0, 10);
    let g = AdjacencyList::from_points_brute_force(&pts, 120.0);
    c.bench_function("connected_components_n=128", |b| {
        b.iter(|| black_box(components::largest_component_size(black_box(&g))))
    });
}

fn bench_union_find(c: &mut Criterion) {
    c.bench_function("union_find_chain_10k", |b| {
        b.iter(|| {
            let mut uf = UnionFind::new(10_000);
            for i in 0..9_999 {
                uf.union(i, i + 1);
            }
            black_box(uf.largest_component())
        })
    });
}

fn bench_one_dim_fast_path(c: &mut Criterion) {
    let xs: Vec<f64> = placement(4096, 4096.0, 11)
        .into_iter()
        .map(|p| p.coord(0))
        .collect();
    c.bench_function("critical_range_1d_n=4096", |b| {
        b.iter(|| black_box(one_dim::critical_range_1d(black_box(&xs)).unwrap()))
    });
}

fn bench_occupancy_exact(c: &mut Criterion) {
    c.bench_function("occupancy_pmf_n=500_C=100", |b| {
        b.iter(|| {
            let occ = Occupancy::new(500, 100).unwrap();
            black_box(occ.distribution())
        })
    });
}

fn bench_quantiles(c: &mut Criterion) {
    let values: Vec<f64> = placement(10_000, 1e6, 12)
        .into_iter()
        .map(|p| p.coord(0))
        .collect();
    c.bench_function("frozen_series_build_10k", |b| {
        b.iter(|| black_box(FrozenSeries::new(black_box(values.clone())).unwrap()))
    });
}

criterion_group!(
    kernels,
    bench_mst,
    bench_critical_range_warm,
    bench_merge_profile,
    bench_graph_build,
    bench_grid_scan,
    bench_components,
    bench_union_find,
    bench_one_dim_fast_path,
    bench_occupancy_exact,
    bench_quantiles,
);
criterion_main!(kernels);
