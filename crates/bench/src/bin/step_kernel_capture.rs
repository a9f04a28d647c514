//! Captures step-kernel benchmark numbers to machine-readable JSON.
//!
//! `cargo bench` prints human-readable ns/iter lines; nothing was
//! recording the perf trajectory. This binary times the exact
//! workloads of the `step_kernel` Criterion target — the incremental
//! `DynamicGraph::step` kernel vs the rebuild-and-diff path at
//! `n ∈ {256, 1000, 4000} × {low, mid, high}` mobility — and writes
//! the results as JSON (committed as `BENCH_step_kernel.json` at the
//! repository root; see `scripts/capture_step_kernel.sh`).
//!
//! Three row families beyond the base grid:
//!
//! * a **thread sweep** at `n = 4000` (`--step-threads`-style intra-step
//!   sharding at 2/4/8 workers, `mid`/`high` all-moving regimes), the
//!   self-speedup series of the sharded bulk rescan;
//! * **scaling rows** at `n = 20000` and `n = 100000` over a
//!   density-preserving region (`side_for(n)`), threads 1 and 4 — the
//!   push toward 10⁵ nodes;
//! * `--large-smoke` replaces the grid with one cheap `n = 20000` pair
//!   of rows (threads 1 vs 4, checksum-asserted equal) for CI;
//! * `--skin-sweep` replaces the grid with the Verlet-skin cost curve:
//!   `n = 4000` `mid`/`high` serial, skin ∈ {off, auto, fixed radii}.
//!
//! Every row runs with the scenario's declared displacement bound and
//! a Verlet skin policy (the base grid pins `auto`, the kernel
//! default; one `mid` row pins `off` as the before/after contrast),
//! and carries the cache-path counters (verify fraction, rebuilds,
//! arena size, verify candidates) next to the legacy path split.
//!
//! Usage: `step_kernel_capture [--quick | --large-smoke | --skin-sweep] [--profile] [--out PATH]`
//!
//! `--quick` runs a reduced grid with one repeat (the CI smoke: proves
//! the capture path works and the kernel still wins, without paying
//! for stable numbers). `--profile` arms the span timer and prints a
//! wall-clock breakdown (trajectory generation vs timing passes) to
//! stderr. Without `--out`, JSON goes to stdout.
//!
//! Besides ns/step, every row carries the kernel's deterministic path
//! counters (incremental vs bulk-rescan vs fallback step fractions,
//! rescan candidate volumes, grid cells touched, edge events) captured
//! by one untimed pass — the diagnostic data for *why* the speedup
//! moves with churn, byte-identical across machines and thread counts.

use manet_bench::step_kernel::{
    churn_per_node, measure_cached_kernel_counters, run_cached_threads, run_rebuild_diff, side_for,
    trajectory_in, Scenario, RANGE, SCENARIOS, SIDE,
};
use manet_core::geom::Point;
use manet_core::graph::Skin;
use manet_core::obs::{KernelMetrics, SpanTimer};
use std::hint::black_box;
use std::time::Instant;

/// One row of the capture grid, before timing.
struct Spec {
    n: usize,
    side: f64,
    scenario: &'static Scenario,
    steps: usize,
    repeats: usize,
    threads: usize,
    skin: Skin,
}

struct Cell {
    n: usize,
    side: f64,
    scenario: &'static str,
    threads: usize,
    skin: Skin,
    moved_fraction: f64,
    steps: usize,
    churn_per_node: f64,
    incremental_ns_per_step: f64,
    rebuild_ns_per_step: f64,
    kernel: KernelMetrics,
}

/// Median wall time of `repeats` timed passes over the trajectory,
/// in nanoseconds per mobility step.
fn time_ns_per_step<F: FnMut() -> usize>(mut f: F, steps: usize, repeats: usize) -> f64 {
    // One untimed pass warms caches and the allocator.
    black_box(f());
    let mut samples: Vec<f64> = (0..repeats)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_nanos() as f64 / steps as f64
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

fn measure(spec: &Spec, timer: &mut SpanTimer) -> Cell {
    let &Spec {
        n,
        side,
        scenario,
        steps,
        repeats,
        threads,
        skin,
    } = spec;
    timer.enter("cell");
    timer.enter("trajectory");
    let traj: Vec<Vec<Point<2>>> = trajectory_in(n, side, scenario, steps, 31);
    timer.exit();
    let churn = churn_per_node(&traj, side, RANGE);
    // Waypoint legs travel at most `v_max` per step — the declared
    // bound the Verlet cache's arming soundness rests on.
    let bound = scenario.v_max;
    let kernel = measure_cached_kernel_counters(&traj, side, RANGE, bound, skin);
    // Mean fraction of nodes that move per step (bitwise position
    // comparison), the quantity the moved-node kernel scales with.
    let mut moved = 0usize;
    for w in traj.windows(2) {
        moved += w[0].iter().zip(&w[1]).filter(|(a, b)| a != b).count();
    }
    let moved_fraction = moved as f64 / ((traj.len() - 1) as f64 * n as f64);
    timer.enter("time_incremental");
    let inc = time_ns_per_step(
        || run_cached_threads(&traj, side, RANGE, bound, skin, threads),
        steps - 1,
        repeats,
    );
    timer.exit();
    timer.enter("time_rebuild");
    let reb = time_ns_per_step(|| run_rebuild_diff(&traj, side, RANGE), steps - 1, repeats);
    timer.exit();
    timer.exit();
    Cell {
        n,
        side,
        scenario: scenario.label,
        threads,
        skin,
        moved_fraction,
        steps,
        churn_per_node: churn,
        incremental_ns_per_step: inc,
        rebuild_ns_per_step: reb,
        kernel,
    }
}

/// The scenario with `label` (the sweep/scaling rows pin `mid`/`high`).
fn scenario(label: &str) -> &'static Scenario {
    SCENARIOS
        .iter()
        .find(|s| s.label == label)
        .expect("known scenario label")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let large_smoke = args.iter().any(|a| a == "--large-smoke");
    let skin_sweep = args.iter().any(|a| a == "--skin-sweep");
    let profile = args.iter().any(|a| a == "--profile");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned();

    let mut specs: Vec<Spec> = Vec::new();
    if large_smoke {
        // CI's large-n smoke: one n = 20000 step-kernel pass at 1 and
        // 4 intra-step threads, checksum-asserted identical below.
        for threads in [1usize, 4] {
            specs.push(Spec {
                n: 20_000,
                side: side_for(20_000),
                scenario: scenario("mid"),
                steps: 6,
                repeats: 1,
                threads,
                skin: Skin::Auto,
            });
        }
    } else if skin_sweep {
        // The skin cost curve: n = 4000 all-moving serial, the Verlet
        // skin swept from off through auto to fixed radii around the
        // auto-tuned optimum. Reads as a U-shape: small skins rebuild
        // too often, large skins verify too many candidate pairs.
        for label in ["mid", "high"] {
            for skin in [
                Skin::Off,
                Skin::Auto,
                Skin::Fixed(3.0),
                Skin::Fixed(6.0),
                Skin::Fixed(12.0),
                Skin::Fixed(24.0),
                Skin::Fixed(48.0),
            ] {
                specs.push(Spec {
                    n: 4000,
                    side: SIDE,
                    scenario: scenario(label),
                    steps: 30,
                    repeats: 3,
                    threads: 1,
                    skin,
                });
            }
        }
    } else if quick {
        for &n in &[256usize, 1000] {
            for scenario in &SCENARIOS {
                specs.push(Spec {
                    n,
                    side: SIDE,
                    scenario,
                    steps: 16,
                    repeats: 1,
                    threads: 1,
                    skin: Skin::Auto,
                });
            }
        }
        // One sharded row proves the parallel bulk path in CI.
        specs.push(Spec {
            n: 1000,
            side: SIDE,
            scenario: scenario("mid"),
            steps: 16,
            repeats: 1,
            threads: 3,
            skin: Skin::Auto,
        });
    } else {
        for &n in &[256usize, 1000, 4000] {
            for scenario in &SCENARIOS {
                specs.push(Spec {
                    n,
                    side: SIDE,
                    scenario,
                    steps: if n >= 4000 { 30 } else { 60 },
                    repeats: 5,
                    threads: 1,
                    skin: Skin::Auto,
                });
            }
        }
        // The mid regime with the cache pinned off: the before/after
        // pair for the Verlet rows above, kept in the committed JSON
        // so the cache's win is readable from one artifact.
        specs.push(Spec {
            n: 4000,
            side: SIDE,
            scenario: scenario("mid"),
            steps: 30,
            repeats: 5,
            threads: 1,
            skin: Skin::Off,
        });
        // Thread sweep: self-speedup of the sharded bulk rescan in the
        // all-moving regimes (threads = 1 is the base grid above).
        for label in ["mid", "high"] {
            for threads in [2usize, 4, 8] {
                specs.push(Spec {
                    n: 4000,
                    side: SIDE,
                    scenario: scenario(label),
                    steps: 30,
                    repeats: 5,
                    threads,
                    skin: Skin::Auto,
                });
            }
        }
        // Scaling rows: density-preserving push toward n = 10^5.
        // Step counts amortize the one-time constructor (a full build)
        // the incremental pass pays before its first step.
        for (n, steps) in [(20_000usize, 20usize), (100_000, 10)] {
            for threads in [1usize, 4] {
                specs.push(Spec {
                    n,
                    side: side_for(n),
                    scenario: scenario("mid"),
                    steps,
                    repeats: 2,
                    threads,
                    skin: Skin::Auto,
                });
            }
        }
    }

    let mut timer = if profile {
        SpanTimer::armed()
    } else {
        SpanTimer::disarmed()
    };
    let mut cells = Vec::new();
    for spec in &specs {
        let cell = measure(spec, &mut timer);
        eprintln!(
            "n={:<6} scenario={:<4} threads={} skin={:<4} moved={:.2}n churn={:.3}n  incremental {:>12.0} ns/step  rebuild {:>12.0} ns/step  speedup {:.2}x  paths {}i/{}b/{}v/{}f ({}rb)",
            cell.n,
            cell.scenario,
            cell.threads,
            cell.skin.to_string(),
            cell.moved_fraction,
            cell.churn_per_node,
            cell.incremental_ns_per_step,
            cell.rebuild_ns_per_step,
            cell.rebuild_ns_per_step / cell.incremental_ns_per_step,
            cell.kernel.step.incremental_steps,
            cell.kernel.step.bulk_rescan_steps,
            cell.kernel.step.cache_verify_steps,
            cell.kernel.step.fallback_steps,
            cell.kernel.step.cache_rebuilds,
        );
        cells.push(cell);
    }
    let report = timer.report();
    if !report.spans.is_empty() {
        eprint!("{}", report.render_table());
    }

    let mode = if large_smoke {
        "large-smoke"
    } else if skin_sweep {
        "skin-sweep"
    } else if quick {
        "quick"
    } else {
        "full"
    };
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"step_kernel\",\n");
    json.push_str(&format!("  \"side\": {SIDE},\n  \"range\": {RANGE},\n"));
    json.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    json.push_str("  \"results\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let k = &c.kernel;
        json.push_str(&format!(
            "    {{\"n\": {}, \"scenario\": \"{}\", \"threads\": {}, \"skin\": \"{}\", \
             \"side\": {:.1}, \"steps\": {}, \
             \"moved_fraction\": {:.4}, \"churn_per_node\": {:.4}, \
             \"incremental_ns_per_step\": {:.1}, \
             \"rebuild_ns_per_step\": {:.1}, \"speedup\": {:.2}, \
             \"incremental_fraction\": {:.4}, \"bulk_rescan_fraction\": {:.4}, \
             \"cache_verify_fraction\": {:.4}, \"cache_rebuilds\": {}, \
             \"cached_pairs\": {}, \"verify_candidates\": {}, \
             \"fallback_steps\": {}, \
             \"moved_rescan_candidates\": {}, \"bulk_rescan_candidates\": {}, \
             \"cells_touched\": {}, \
             \"edges_added\": {}, \"edges_removed\": {}}}{}\n",
            c.n,
            c.scenario,
            c.threads,
            c.skin,
            c.side,
            c.steps,
            c.moved_fraction,
            c.churn_per_node,
            c.incremental_ns_per_step,
            c.rebuild_ns_per_step,
            c.rebuild_ns_per_step / c.incremental_ns_per_step,
            k.step.incremental_fraction(),
            k.step.bulk_fraction(),
            k.step.cache_verify_fraction(),
            k.step.cache_rebuilds,
            k.step.cached_pairs,
            k.step.verify_candidates,
            k.step.fallback_steps,
            k.step.moved_rescan_candidates,
            k.step.bulk_rescan_candidates,
            k.grid.cells_touched,
            k.step.edges_added,
            k.step.edges_removed,
            if i + 1 < cells.len() { "," } else { "" },
        ));
    }
    json.push_str("  ]\n}\n");

    match out_path {
        Some(path) => {
            std::fs::write(&path, &json).expect("write bench JSON");
            eprintln!("wrote {path}");
        }
        None => print!("{json}"),
    }

    // Any mode that runs the sharded path doubles as a determinism
    // check: the fold checksum must not move with the thread count
    // (cache armed and all — the arena and verify path are sharded
    // over the same `run_indexed` fan-out as the bulk rescan).
    for c in cells.iter().filter(|c| c.threads > 1) {
        let traj = trajectory_in(c.n, c.side, scenario(c.scenario), c.steps, 31);
        let bound = scenario(c.scenario).v_max;
        let serial = run_cached_threads(&traj, c.side, RANGE, bound, c.skin, 1);
        let sharded = run_cached_threads(&traj, c.side, RANGE, bound, c.skin, c.threads);
        assert_eq!(
            serial, sharded,
            "sharded checksum diverged at n={} threads={}",
            c.n, c.threads
        );
    }

    // The capture doubles as a loud regression check: the kernel's
    // raison d'être is beating the rebuild path at scale. Quick,
    // large-smoke and skin-sweep modes (tiny trajectories / 1 repeat /
    // deliberately pessimal skins) only report.
    if !quick && !large_smoke && !skin_sweep {
        let worst = cells
            .iter()
            .filter(|c| c.n == 4000 && c.threads == 1 && c.scenario == "low")
            .map(|c| c.rebuild_ns_per_step / c.incremental_ns_per_step)
            .fold(f64::INFINITY, f64::min);
        assert!(
            worst >= 3.0,
            "step kernel speedup regressed below 3x at n=4000 low churn: {worst:.2}x"
        );
        // The SoA + forward-half-neighborhood scan must keep the serial
        // kernel well ahead of rebuild in the all-moving regimes too
        // (up from ~1.0-1.35x before the sharded/SoA kernel; typical
        // captures land 1.8-2.2x on `mid`). The floors leave headroom
        // for run-to-run noise on shared machines; `high` shares its
        // dominant cost (edge-churn diffing) with the rebuild path, so
        // its serial ceiling is lower.
        for (label, floor) in [("mid", 1.6), ("high", 1.3)] {
            let worst_bulk = cells
                .iter()
                .filter(|c| c.n == 4000 && c.threads == 1 && c.scenario == label)
                .map(|c| c.rebuild_ns_per_step / c.incremental_ns_per_step)
                .fold(f64::INFINITY, f64::min);
            assert!(
                worst_bulk >= floor,
                "step kernel speedup regressed below {floor}x at n=4000 {label}: {worst_bulk:.2}x"
            );
        }
        // Verlet-cache gates, all on the `mid` all-moving regime (the
        // cache's target; `high` moves ≥ `range` per step, where auto
        // soundly declines to arm and the legacy floors above apply).
        let cell = |scenario: &str, n: usize, skin_off: bool| {
            cells
                .iter()
                .find(|c| {
                    c.n == n
                        && c.threads == 1
                        && c.scenario == scenario
                        && (c.skin == Skin::Off) == skin_off
                })
                .expect("full grid carries the gated cells")
        };
        let mid_auto = cell("mid", 4000, false);
        let mid_off = cell("mid", 4000, true);
        assert!(
            mid_auto.kernel.step.cache_verify_steps > mid_auto.kernel.step.cache_rebuilds,
            "auto skin should spend most armed steps verifying, not rebuilding: {:?}",
            mid_auto.kernel.step
        );
        // Absolute ceilings are coarse backstops only: the same capture
        // on the same host has been observed drifting 1.59 -> 2.03
        // ms/step on mid (global load, not a code change), so the
        // ceilings sit above the worst observed run and well below the
        // rebuild-class cost they guard against (~4.4 ms at n=4000,
        // ~170 ms at n=100000). The within-run ratios below carry the
        // real regression signal — both sides move together under host
        // noise.
        assert!(
            mid_auto.incremental_ns_per_step <= 3_000_000.0,
            "cached mid serial regressed above 3 ms/step at n=4000: {:.0} ns",
            mid_auto.incremental_ns_per_step
        );
        assert!(
            mid_auto.rebuild_ns_per_step / mid_auto.incremental_ns_per_step >= 1.8,
            "cached mid serial speedup vs rebuild regressed below 1.8x at n=4000: {:.2}x",
            mid_auto.rebuild_ns_per_step / mid_auto.incremental_ns_per_step
        );
        // The before/after pair from one capture run: the cache must
        // not lose to its own kernel with the skin pinned off.
        // Observed auto/off spans 0.80-0.92 across captures; <= 1.0
        // tolerates that spread while still catching a cache that turns
        // into pure overhead. The counter gate above is the
        // deterministic proof the cache is actually doing the work.
        let self_win = mid_auto.incremental_ns_per_step / mid_off.incremental_ns_per_step;
        assert!(
            self_win <= 1.0,
            "Verlet cache stopped paying for itself on mid at n=4000: auto/off = {self_win:.3}"
        );
        let large = cell("mid", 100_000, false);
        assert!(
            large.incremental_ns_per_step <= 140_000_000.0,
            "cached mid serial regressed above 140 ms/step at n=100000: {:.0} ns",
            large.incremental_ns_per_step
        );
    }
}
