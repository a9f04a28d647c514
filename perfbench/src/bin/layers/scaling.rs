//! The `critical-scaling --quick` workload in-process: the X5 sweep on
//! `SweepScheduler` with a job closure that times each
//! `find_critical_range` call, and the stream construction its
//! bisection probes repeat (this workload's set-up cost).

use crate::common::{csv, fmt, timed, Artifacts, Counts};
use manet_core::graph::{DynamicComponents, DynamicGraph};
use manet_core::mobility::Mobility;
use manet_core::obs::KernelMetrics;
use manet_core::sim::search::bisect_monotone;
use manet_core::sim::{
    find_critical_range, fit_scaling_exponent, ConnectivityMetric, CriticalRangeSearch,
    ScalingExponent, SimConfig, SweepScheduler,
};
use manet_core::stats::SeedSequence;
use manet_core::{AnyModel, ModelRegistry, PaperScale};
use rand::SeedableRng;
use std::hint::black_box;

const MODELS: [&str; 4] = ["waypoint", "drunkard", "gauss-markov", "rpgm"];
const N_SWEEP: [usize; 3] = [16, 32, 64];
const ITERATIONS: usize = 5;
const STEPS: usize = 500;
const TARGET: f64 = 0.99;
const CONFIDENCE_LEVEL: f64 = 0.95;
/// Workers of the traced sweep.
pub const WORKERS: usize = 2;

struct Job {
    model_name: &'static str,
    model: AnyModel<2>,
    config: SimConfig<2>,
}

#[derive(serde::Serialize)]
struct CellResult {
    model: String,
    n: usize,
    side: f64,
    r_c: f64,
    rho_c: f64,
    probes: usize,
    kernel: KernelMetrics,
}

#[derive(serde::Serialize)]
struct ModelFit {
    model: String,
    fit: Option<ScalingExponent>,
}

#[derive(serde::Serialize)]
struct ScalingArtifact {
    metric: String,
    target: f64,
    iterations: usize,
    steps: usize,
    seed: u64,
    n_sweep: Vec<usize>,
    confidence_level: f64,
    cells: Vec<CellResult>,
    fits: Vec<ModelFit>,
}

fn jobs(seed: u64) -> Result<Vec<Job>, String> {
    let pause = ((2000.0 * STEPS as f64) / 10_000.0).round() as u32;
    let registry = ModelRegistry::<2>::with_builtins();
    let mut jobs = Vec::new();
    for n in N_SWEEP {
        let side = 64.0 * (n as f64).sqrt();
        for name in MODELS {
            let model = registry
                .build(name, &PaperScale::new(side).with_pause(pause))
                .map_err(|e| format!("model {name}: {e}"))?;
            let mut b = SimConfig::<2>::builder();
            b.nodes(n)
                .side(side)
                .iterations(ITERATIONS)
                .steps(STEPS)
                .seed(seed)
                .threads(1)
                .step_threads(1);
            jobs.push(Job {
                model_name: name,
                model,
                config: b.build().map_err(|e| e.to_string())?,
            });
        }
    }
    Ok(jobs)
}

/// Scheduler busy and idle time of one traced sweep.
pub struct SweepTimes {
    pub busy_s: f64,
    pub idle_s: f64,
    pub makespan_s: f64,
}

/// Runs the sweep on [`WORKERS`] workers, timing each job, and returns
/// the regenerated `critical_scaling.{csv,json}`.
pub fn sweep(seed: u64, counts: &mut Counts) -> Result<(Artifacts, SweepTimes), String> {
    let jobs = jobs(seed)?;
    let search = CriticalRangeSearch::new()
        .with_metric(ConnectivityMetric::GiantFraction)
        .with_target(TARGET);
    let scheduler = SweepScheduler::new(WORKERS);
    let (run, makespan_s) = timed(|| {
        scheduler.run(&jobs, jobs.iter().map(|_| None).collect(), |_, job| {
            let (point, secs) = timed(|| find_critical_range(&job.config, &job.model, &search));
            Ok((point?, secs))
        })
    });
    let results = run
        .and_then(|run| run.into_complete())
        .map_err(|e| e.to_string())?;

    let mut busy_s = 0.0;
    let mut cells = Vec::new();
    for (job, (point, secs)) in jobs.iter().zip(results) {
        busy_s += secs;
        counts.probes += point.probes as u64;
        counts.step.merge(&point.kernel.step);
        counts.components.merge(&point.kernel.components);
        cells.push(CellResult {
            model: job.model_name.to_string(),
            n: job.config.nodes(),
            side: job.config.side(),
            r_c: point.range,
            rho_c: point.normalized,
            probes: point.probes,
            kernel: point.kernel,
        });
    }
    let table: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.model.clone(),
                c.n.to_string(),
                fmt(c.side),
                fmt(c.r_c),
                fmt(c.rho_c),
                c.probes.to_string(),
            ]
        })
        .collect();
    let mut fits = Vec::new();
    for name in MODELS {
        let points: Vec<(usize, f64)> = cells
            .iter()
            .filter(|c| c.model == name)
            .map(|c| (c.n, c.rho_c))
            .collect();
        let fit = if points.len() >= 3 {
            Some(fit_scaling_exponent(&points, CONFIDENCE_LEVEL).map_err(|e| e.to_string())?)
        } else {
            None
        };
        fits.push(ModelFit {
            model: name.to_string(),
            fit,
        });
    }
    let artifact = ScalingArtifact {
        metric: "giant-fraction".into(),
        target: TARGET,
        iterations: ITERATIONS,
        steps: STEPS,
        seed,
        n_sweep: N_SWEEP.to_vec(),
        confidence_level: CONFIDENCE_LEVEL,
        cells,
        fits,
    };
    let json = serde_json::to_string(&artifact).map_err(|e| e.to_string())?;
    let headers = ["model", "n", "side", "r_c", "rho_c", "probes"];
    let artifacts = vec![
        ("critical_scaling.csv".into(), csv(&headers, &table)),
        ("critical_scaling.json".into(), json),
    ];
    let times = SweepTimes {
        busy_s,
        idle_s: WORKERS as f64 * makespan_s - busy_s,
        makespan_s,
    };
    Ok((artifacts, times))
}

/// One pass of the construction the sweep's probes do, without their
/// steps: for every cell, a bisection with the CLI's bracket and
/// tolerance, and at each probed range, for every iteration, seed,
/// place, initialize the model, build the step kernel and apply the
/// first components. The bisection stands in for the probe outcomes
/// with the cell's connectivity radius `√(l² ln n / (π n))`, so it
/// probes as many ranges as the CLI does, at ranges of the same scale.
/// Returns the number of probes.
pub fn construction_pass(seed: u64) -> Result<usize, String> {
    let mut probes = 0;
    for job in jobs(seed)? {
        let cfg = &job.config;
        let n = cfg.nodes();
        let radius =
            (cfg.side() * cfg.side() * (n as f64).ln() / (std::f64::consts::PI * n as f64)).sqrt();
        let region = cfg.region();
        let seq = SeedSequence::new(cfg.seed());
        let tol = CriticalRangeSearch::new().rel_tol() * cfg.side();
        bisect_monotone(1e-9, region.diameter(), tol, |range| {
            probes += 1;
            for iteration in 0..cfg.iterations() {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seq.seed_for(iteration as u64));
                let positions = region.place_uniform(n, &mut rng);
                let mut model = job.model.clone();
                model.init(&positions, &region, &mut rng);
                let dg = DynamicGraph::new(&positions, cfg.side(), range)
                    .with_displacement_bound(model.max_step_displacement())
                    .with_step_threads(1)
                    .with_skin(cfg.skin());
                let mut dc = DynamicComponents::new(n);
                dc.apply(dg.last_diff(), dg.graph());
                black_box((&dg, &dc));
            }
            range >= radius
        });
    }
    Ok(probes)
}
