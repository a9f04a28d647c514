//! X5 — critical-range finite-size scaling (extension experiment).
//!
//! Wang et al. (PAPERS.md, arXiv:0806.2351) predict the critical
//! transmitting range of a mobile network scales as a power law in the
//! node count. This experiment locates the transition for each
//! (mobility model × `n`) cell of a density-preserving sweep
//! (`side_for(n)` keeps `n / l²` at the paper's base density) with
//! [`find_critical_range`] (one exact merge-profile pass for the giant
//! fraction, and for `k`-connectivity the pooled quantile of each
//! step's exact threshold: the MST bottleneck for `k = 1`,
//! `critical_range_k` for `k >= 2`), then fits
//! `log rho_c = a - beta · log n` per model and reports `beta` with a
//! Student-t confidence interval. Every cell is one exact campaign on
//! the sweep scheduler (`manet_sim::sweep`): `--threads` sizes its
//! worker pool, and the artifacts are byte-identical at every count.

use crate::common::{banner, fmt, side_for, RunOptions, Table};
use crate::obs::ObsSession;
use manet_core::graph::FloorCounts;
use manet_core::obs::KernelMetrics;
use manet_core::sim::parallel::default_threads;
use manet_core::sim::{
    find_critical_range, fit_scaling_exponent, ConnectivityMetric, CriticalRangeSearch,
    ScalingExponent, SweepScheduler,
};
use manet_core::{AnyModel, CoreError};

/// Models swept when `--models` is not given: the paper's two plus the
/// zoo's correlated-velocity and group families (matching `trace`).
const DEFAULT_MODELS: [&str; 4] = ["waypoint", "drunkard", "gauss-markov", "rpgm"];

/// Node counts swept when `--n-sweep` is not given.
const DEFAULT_N_SWEEP: [usize; 3] = [16, 32, 64];

/// Confidence level of the reported beta interval.
const CONFIDENCE_LEVEL: f64 = 0.95;

/// One (model, n) cell of the sweep grid.
struct CellJob {
    model_name: String,
    model: AnyModel<2>,
    n: usize,
    side: f64,
}

/// One located critical point, as serialized to `critical_scaling.json`.
#[derive(Clone, serde::Serialize)]
struct CellResult {
    model: String,
    n: usize,
    side: f64,
    r_c: f64,
    rho_c: f64,
    probes: usize,
    kernel: KernelMetrics,
}

/// Per-model scaling fit, as serialized to `critical_scaling.json`.
#[derive(serde::Serialize)]
struct ModelFit {
    model: String,
    /// `None` when the model has fewer than three sweep points.
    fit: Option<ScalingExponent>,
}

/// The `critical_scaling.json` artifact: configuration, every sweep
/// cell, and the per-model exponent fits.
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

/// Runs the critical-scaling sweep.
pub fn run(opts: &RunOptions, session: &mut ObsSession) -> Result<(), CoreError> {
    banner("X5 (extension): critical-range finite-size scaling");
    let ns: Vec<usize> = opts
        .n_sweep
        .clone()
        .unwrap_or_else(|| DEFAULT_N_SWEEP.to_vec());
    let metric = match opts.k_target {
        Some(k) => ConnectivityMetric::KConnectivity(k),
        None => ConnectivityMetric::GiantFraction,
    };
    let metric_name = match opts.k_target {
        Some(k) => format!("{k}-connectivity"),
        None => "giant-fraction".to_string(),
    };
    let search = CriticalRangeSearch::new()
        .with_metric(metric)
        .with_target(opts.target);

    let mut jobs: Vec<CellJob> = Vec::new();
    for &n in &ns {
        let l = side_for(n);
        for (model_name, model) in opts.resolve_models(&DEFAULT_MODELS, l)? {
            jobs.push(CellJob {
                model_name,
                model,
                n,
                side: l,
            });
        }
    }

    let threads = opts.threads.unwrap_or_else(default_threads);
    session.progress(&format!(
        "critical-scaling: {} cells on {threads} threads",
        jobs.len()
    ));

    // Each cell runs its campaigns single-threaded (the scheduler is
    // the fan-out; nesting engine threads would only oversubscribe).
    session.span_enter("critical-scaling/sweep");
    let cells = SweepScheduler::new(threads)
        .run(&jobs, vec![None; jobs.len()], |_, job| {
            let config = opts.sim_config(job.n, job.side).threads(1).build()?;
            let point = find_critical_range(&config, &job.model, &search)?;
            let cell = CellResult {
                model: job.model_name.clone(),
                n: job.n,
                side: job.side,
                r_c: point.range,
                rho_c: point.normalized,
                probes: point.probes,
                kernel: point.kernel,
            };
            // The finder counters go to `metrics.json` only.
            Ok((cell, point.finder))
        })?
        .into_complete()?;
    session.span_exit();
    let (cells, finders): (Vec<CellResult>, Vec<FloorCounts>) = cells.into_iter().unzip();

    let mut table = Table::new(&["model", "n", "side", "r_c", "rho_c", "probes"]);
    for (cell, finder) in cells.iter().zip(&finders) {
        if opts.k_target.is_none() {
            session.record_finder(&format!("{}@n{}", cell.model, cell.n), finder);
        }
        session.note_model(&cell.model);
        session.note_nodes(cell.n);
        session.note_range(cell.r_c);
        table.row(vec![
            cell.model.clone(),
            cell.n.to_string(),
            fmt(cell.side),
            fmt(cell.r_c),
            fmt(cell.rho_c),
            cell.probes.to_string(),
        ]);
    }
    table.print();

    // One fit per model, in first-appearance order.
    let mut model_names: Vec<String> = Vec::new();
    for cell in &cells {
        if !model_names.contains(&cell.model) {
            model_names.push(cell.model.clone());
        }
    }
    let mut fit_table = Table::new(&["model", "beta", "ci_lo", "ci_hi", "r2", "points"]);
    let mut fits = Vec::new();
    for name in &model_names {
        let points: Vec<(usize, f64)> = cells
            .iter()
            .filter(|c| &c.model == name)
            .map(|c| (c.n, c.rho_c))
            .collect();
        let fit = if points.len() >= 3 {
            Some(fit_scaling_exponent(&points, CONFIDENCE_LEVEL)?)
        } else {
            None
        };
        match &fit {
            Some(f) => fit_table.row(vec![
                name.clone(),
                fmt(f.beta),
                fmt(f.ci.lo),
                fmt(f.ci.hi),
                fmt(f.line.r_squared),
                f.points.to_string(),
            ]),
            None => fit_table.row(vec![
                name.clone(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                points.len().to_string(),
            ]),
        }
        fits.push(ModelFit {
            model: name.clone(),
            fit,
        });
    }
    println!();
    println!(
        "finite-size scaling fit rho_c ~ n^(-beta) ({metric_name} target {}, {:.0}% CI):",
        opts.target,
        CONFIDENCE_LEVEL * 100.0
    );
    fit_table.print();

    let csv_path = table
        .write_csv(&opts.out_dir, "critical_scaling")
        .map_err(|e| CoreError::Invalid {
            reason: format!("cannot write CSV: {e}"),
        })?;
    println!("wrote {}", csv_path.display());

    let artifact = ScalingArtifact {
        metric: metric_name,
        target: opts.target,
        iterations: opts.iterations,
        steps: opts.steps,
        seed: opts.seed,
        n_sweep: ns,
        confidence_level: CONFIDENCE_LEVEL,
        cells,
        fits,
    };
    let json = serde_json::to_string(&artifact).map_err(|e| CoreError::Invalid {
        reason: format!("cannot serialize scaling artifact: {e}"),
    })?;
    let json_path = opts.out_dir.join("critical_scaling.json");
    std::fs::write(&json_path, json).map_err(|e| CoreError::Invalid {
        reason: format!("cannot write JSON: {e}"),
    })?;
    println!("wrote {}", json_path.display());
    Ok(())
}
