//! Shared workloads for the step-kernel benchmarks.
//!
//! The `step_kernel` Criterion target and the `step-kernel-capture`
//! binary (which writes `BENCH_step_kernel.json`) time the exact same
//! two routines over the exact same pinned-seed trajectories, so the
//! committed JSON numbers and the interactive bench output are
//! directly comparable.

use crate::placement;
use manet_core::geom::{Point, Region};
use manet_core::graph::{AdjacencyList, DynamicGraph, Skin};
use manet_core::mobility::{Mobility, RandomWaypoint};
use manet_core::obs::KernelMetrics;
use manet_core::{ModelRegistry, PaperScale};
use rand::SeedableRng;

/// Region side of the step-kernel workloads (sparse regime: the
/// communication graph has bounded degree at [`RANGE`]).
pub const SIDE: f64 = 1000.0;
/// Transmitting range of the step-kernel workloads.
pub const RANGE: f64 = 30.0;

/// One mobility regime of the step-kernel grid.
pub struct Scenario {
    /// Bench label (`low` / `mid` / `high`).
    pub label: &'static str,
    /// Waypoint speed range (distance per step).
    pub v_min: f64,
    /// Waypoint speed range (distance per step).
    pub v_max: f64,
    /// Pause steps at each reached destination.
    pub pause: u32,
    /// Fraction of permanently stationary nodes.
    pub p_stationary: f64,
}

/// The benched regimes. `low` is the paper-style low-churn scenario —
/// a mixed deployment (waypoint's `p_stationary`, §4.1) where most
/// nodes are fixed sensors and the movers are slow with pauses; this
/// is the regime the paper's long-pause defaults (`t_pause = 2000` of
/// 10000 steps) spend most of their time in, and where per-step work
/// proportional to the *moved set* pays off. `mid` keeps every node
/// moving slowly (low edge churn, full moved set); `high` is fast,
/// pauseless motion — the adversarial regime for any incremental
/// kernel, served by the bulk-rescan path.
pub const SCENARIOS: [Scenario; 3] = [
    Scenario {
        label: "low",
        v_min: 1.0,
        v_max: 2.0,
        pause: 20,
        p_stationary: 0.8,
    },
    Scenario {
        label: "mid",
        v_min: 1.0,
        v_max: 2.0,
        pause: 3,
        p_stationary: 0.0,
    },
    Scenario {
        label: "high",
        v_min: 20.0,
        v_max: 40.0,
        pause: 0,
        p_stationary: 0.0,
    },
];

/// Density-preserving region side for the large-n scaling rows: keeps
/// the area-per-node of the committed `n = 4000` grid (250 units², the
/// [`SIDE`]²`/4000` density), so per-cell occupancy — hence the
/// per-node step cost — stays constant as `n` grows toward 10⁵.
pub fn side_for(n: usize) -> f64 {
    (250.0 * n as f64).sqrt()
}

/// A pinned-seed random-waypoint trajectory under `scenario`: `steps`
/// position snapshots of `n` nodes.
pub fn trajectory(n: usize, scenario: &Scenario, steps: usize, seed: u64) -> Vec<Vec<Point<2>>> {
    trajectory_in(n, SIDE, scenario, steps, seed)
}

/// [`trajectory`] over an explicit region side (the large-n scaling
/// rows pair it with [`side_for`]; the committed grid keeps [`SIDE`]).
pub fn trajectory_in(
    n: usize,
    side: f64,
    scenario: &Scenario,
    steps: usize,
    seed: u64,
) -> Vec<Vec<Point<2>>> {
    let region: Region<2> = Region::new(side).expect("positive side");
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut positions = placement(n, side, seed);
    let mut model = RandomWaypoint::new(
        scenario.v_min,
        scenario.v_max,
        scenario.pause,
        scenario.p_stationary,
    )
    .expect("valid parameters");
    model.init(&positions, &region, &mut rng);
    let mut out = vec![positions.clone()];
    for _ in 1..steps {
        model.step(&mut positions, &region, &mut rng);
        out.push(positions.clone());
    }
    out
}

/// Region side of the `trace-large` workload (`manet-repro trace
/// --nodes 2000 --models waypoint,gauss-markov --steps 60`).
pub const CLI_SIDE: f64 = 1024.0;
/// Node count of the `trace-large` workload.
pub const CLI_NODES: usize = 2000;
/// Mobility steps per iteration of the `trace-large` workload.
pub const CLI_STEPS: usize = 60;
/// The `trace-large` workload's four ranges at the default seed:
/// `r_stationary` = 56.989 times 0.75, 1, 1.25 and 1.5.
pub const CLI_RANGES: [f64; 4] = [42.742, 56.989, 71.237, 85.484];

/// A pinned-seed trajectory of the registry model `name` as the trace
/// command runs it: `steps` snapshots of `n` nodes on `side`, at the
/// paper scale with the pause scaled to a 60-step horizon. Returns the
/// model's declared per-step displacement bound with it.
///
/// # Panics
///
/// Panics on a name the registry does not know.
pub fn registry_trajectory(
    name: &str,
    n: usize,
    side: f64,
    steps: usize,
    seed: u64,
) -> (Vec<Vec<Point<2>>>, Option<f64>) {
    let region: Region<2> = Region::new(side).expect("positive side");
    let scale = PaperScale::new(side).with_pause(12);
    let mut model = ModelRegistry::<2>::with_builtins()
        .build(name, &scale)
        .expect("registered trace model");
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut positions = placement(n, side, seed);
    model.init(&positions, &region, &mut rng);
    let mut out = vec![positions.clone()];
    for _ in 1..steps {
        model.step(&mut positions, &region, &mut rng);
        out.push(positions.clone());
    }
    (out, model.max_step_displacement())
}

/// Mean per-step churn of a trajectory as a fraction of `n` (printed
/// into bench ids / the JSON so numbers can be read against regime).
/// Shared by the `step_kernel` and `dynamic_components` benches.
pub fn churn_per_node(traj: &[Vec<Point<2>>], side: f64, range: f64) -> f64 {
    let mut dg = DynamicGraph::new(&traj[0], side, range);
    let mut churn = 0usize;
    for pts in &traj[1..] {
        dg.step(pts);
        churn += dg.last_diff().churn();
    }
    churn as f64 / ((traj.len() - 1) as f64 * traj[0].len() as f64)
}

/// The incremental path: one `DynamicGraph` stepped through the
/// trajectory, folding a checksum over the held diff. Allocation-free
/// after the constructor.
pub fn run_incremental(traj: &[Vec<Point<2>>], side: f64, range: f64) -> usize {
    let mut dg = DynamicGraph::new(&traj[0], side, range);
    let mut acc = dg.last_diff().churn();
    for pts in &traj[1..] {
        dg.step(pts);
        acc ^= dg.last_diff().churn() ^ dg.graph().edge_count();
    }
    acc
}

/// The cached path: [`run_incremental`] with a per-step displacement
/// bound declared (waypoint moves at most `v_max` per step; `None`
/// declares none, as Gauss-Markov does) and a Verlet skin policy. With
/// `Skin::Off` this is byte-identical to the legacy kernel; with
/// `Skin::Auto`/`Fixed` the all-moving regimes commit most steps
/// through the cache-verify path instead of bulk rescans. The checksum
/// is invariant across skin policies — only the wall clock moves.
/// `Skin::Auto` with the model's own bound is the trace command's
/// kernel.
pub fn run_cached(
    traj: &[Vec<Point<2>>],
    side: f64,
    range: f64,
    bound: Option<f64>,
    skin: Skin,
) -> usize {
    let mut dg = DynamicGraph::new(&traj[0], side, range)
        .with_displacement_bound(bound)
        .with_skin(skin);
    let mut acc = dg.last_diff().churn();
    for pts in &traj[1..] {
        dg.step(pts);
        acc ^= dg.last_diff().churn() ^ dg.graph().edge_count();
    }
    acc
}

/// [`measure_kernel_counters`] for the cached path: bound declared,
/// skin policy applied. Deterministic like its legacy sibling.
pub fn measure_cached_kernel_counters(
    traj: &[Vec<Point<2>>],
    side: f64,
    range: f64,
    bound: f64,
    skin: Skin,
) -> KernelMetrics {
    let mut dg = DynamicGraph::new(&traj[0], side, range)
        .with_displacement_bound(Some(bound))
        .with_skin(skin);
    for pts in &traj[1..] {
        dg.step(pts);
    }
    KernelMetrics {
        grid: dg.grid_metrics().copied().unwrap_or_default(),
        step: *dg.metrics(),
        components: Default::default(),
    }
}

/// The incremental path run once for its deterministic counters
/// (grid + step-kernel planes; the component plane stays zero — this
/// workload drives no `DynamicComponents`). A pure function of the
/// trajectory, so the numbers committed to `BENCH_step_kernel.json`
/// are reproducible bit-for-bit.
pub fn measure_kernel_counters(traj: &[Vec<Point<2>>], side: f64, range: f64) -> KernelMetrics {
    let mut dg = DynamicGraph::new(&traj[0], side, range);
    for pts in &traj[1..] {
        dg.step(pts);
    }
    KernelMetrics {
        grid: dg.grid_metrics().copied().unwrap_or_default(),
        step: *dg.metrics(),
        components: Default::default(),
    }
}

/// The pre-kernel path: rebuild the snapshot from scratch each step
/// and diff the two full snapshots (`from_points` + `diff`), exactly
/// what `DynamicGraph` did before the incremental kernel.
pub fn run_rebuild_diff(traj: &[Vec<Point<2>>], side: f64, range: f64) -> usize {
    let mut graph = AdjacencyList::from_points(&traj[0], side, range);
    let mut acc = graph.edge_count();
    for pts in &traj[1..] {
        let next = AdjacencyList::from_points(pts, side, range);
        let diff = graph.diff(&next);
        graph = next;
        acc ^= diff.churn() ^ graph.edge_count();
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both timed routines must do the same logical work — identical
    /// checksums — or the bench compares apples to oranges.
    #[test]
    fn incremental_and_rebuild_paths_fold_identical_checksums() {
        for scenario in &SCENARIOS {
            let traj = trajectory(96, scenario, 20, 5);
            assert_eq!(
                run_incremental(&traj, SIDE, RANGE),
                run_rebuild_diff(&traj, SIDE, RANGE),
                "scenario {}",
                scenario.label
            );
        }
    }

    /// The cached path folds the same checksum as the rebuild oracle
    /// at every skin policy, and `mid` (all-moving,
    /// bounded steps) actually arms under `Skin::Auto` — the workload
    /// the capture's cache gates time.
    #[test]
    fn cached_checksums_match_rebuild_across_skins() {
        for scenario in &SCENARIOS {
            let traj = trajectory(96, scenario, 20, 5);
            let want = run_rebuild_diff(&traj, SIDE, RANGE);
            for skin in [Skin::Off, Skin::Auto, Skin::Fixed(12.0)] {
                assert_eq!(
                    want,
                    run_cached(&traj, SIDE, RANGE, Some(scenario.v_max), skin),
                    "scenario {} skin {skin:?}",
                    scenario.label
                );
            }
        }
        let mid = SCENARIOS.iter().find(|s| s.label == "mid").unwrap();
        let traj = trajectory(96, mid, 20, 5);
        let k = measure_cached_kernel_counters(&traj, SIDE, RANGE, mid.v_max, Skin::Auto);
        assert!(
            k.step.cache_verify_steps > 0,
            "mid should verify through the Verlet cache under auto skin: {:?}",
            k.step
        );
        let off = measure_cached_kernel_counters(&traj, SIDE, RANGE, mid.v_max, Skin::Off);
        assert_eq!(
            off.step.cache_verify_steps + off.step.cache_rebuilds,
            0,
            "skin off must keep the cache out of the loop"
        );
    }

    /// `side_for` preserves the committed grid's density and anchors
    /// at the n = 4000 cell.
    #[test]
    fn side_for_preserves_density() {
        assert!((side_for(4000) - SIDE).abs() < 1e-9);
        let d = |n: usize| side_for(n) * side_for(n) / n as f64;
        assert!((d(20_000) - 250.0).abs() < 1e-9);
        assert!((d(100_000) - 250.0).abs() < 1e-9);
    }

    /// The counter capture is deterministic and accounts for every
    /// post-build step of the trajectory.
    #[test]
    fn kernel_counters_are_reproducible_and_cover_all_steps() {
        for scenario in &SCENARIOS {
            let traj = trajectory(96, scenario, 20, 5);
            let a = measure_kernel_counters(&traj, SIDE, RANGE);
            let b = measure_kernel_counters(&traj, SIDE, RANGE);
            assert_eq!(a, b, "scenario {}", scenario.label);
            assert_eq!(a.step.steps, 19, "scenario {}", scenario.label);
            assert_eq!(
                a.step.incremental_steps + a.step.bulk_rescan_steps + a.step.fallback_steps,
                a.step.steps,
                "scenario {}",
                scenario.label
            );
            assert_eq!(a.components, Default::default());
        }
    }
}
