//! X3 — temporal connectivity traces (extension experiment).
//!
//! The paper prices connectivity by the *fraction* of connected time;
//! this experiment reports its *persistence* structure: how long an
//! individual link lives, how long a node pair waits between contacts,
//! how long partitions last and how fast the network heals after its
//! first disconnection — plus the link-dynamics intensity behind those
//! lifetimes (mean and peak per-step edge churn). One row per (mobility model × range multiple
//! of `r_stationary`) at `l = 1024`, `n = 32`; the full distribution
//! summaries (histogram quantiles + survival curves) go to
//! `trace.json`, the headline numbers to `trace.csv`.

use crate::common::{banner, fmt, r_stationary_for, RunOptions, Table};
use crate::obs::ObsSession;
use manet_core::trace::TraceSummary;
use manet_core::{CoreError, MtrmProblem};

/// Range multiples of `r_stationary` swept per model.
const MULTIPLIERS: [f64; 4] = [0.75, 1.0, 1.25, 1.5];

/// Models swept when `--models` is not given: the paper's two plus the
/// zoo's correlated-velocity and group families.
const DEFAULT_MODELS: [&str; 4] = ["waypoint", "drunkard", "gauss-markov", "rpgm"];

/// One (model, range) cell of the sweep, as serialized to `trace.json`.
#[derive(serde::Serialize)]
struct TraceRow {
    model: String,
    multiplier: f64,
    range: f64,
    summary: TraceSummary,
}

/// The `trace.json` artifact: configuration plus every sweep cell.
#[derive(serde::Serialize)]
struct TraceArtifact {
    side: f64,
    nodes: usize,
    iterations: usize,
    steps: usize,
    seed: u64,
    r_stationary: f64,
    rows: Vec<TraceRow>,
}

/// Runs the temporal-trace sweep.
pub fn run(opts: &RunOptions, session: &mut ObsSession) -> Result<(), CoreError> {
    banner("X3 (extension): temporal connectivity (link lifetimes, outages, repair)");
    // `--nodes` scales the cell beyond the paper's n = 32 — the
    // large-n smoke for the incremental step kernel; `r_stationary`
    // tracks the override so the range multiples stay meaningful.
    let (l, n) = (1024.0, opts.nodes.unwrap_or(32));
    session.note_nodes(n);
    session.span_enter("trace/r_stationary");
    let rs = r_stationary_for(opts, l, n)?;
    session.span_exit();
    let models = opts.resolve_models(&DEFAULT_MODELS, l)?;
    let cells = models.len() * MULTIPLIERS.len();

    let mut table = Table::new(&[
        "model",
        "r/rs",
        "avail",
        "path_avail",
        "life_mean",
        "life_p90",
        "intercontact_mean",
        "outages",
        "outage_mean",
        "repair_mean",
        "churn/step",
        "peak_churn",
    ]);
    let mut rows = Vec::new();
    for (m_idx, (name, model)) in models.into_iter().enumerate() {
        session.note_model(&name);
        let problem = MtrmProblem::new(opts.sim_config(n, l).build()?, model);
        for (r_idx, mult) in MULTIPLIERS.into_iter().enumerate() {
            let r = rs * mult;
            session.note_range(r);
            session.progress(&format!(
                "trace: {name} x{mult} ({}/{cells})",
                m_idx * MULTIPLIERS.len() + r_idx + 1
            ));
            session.span_enter("trace/cell");
            let summary = problem.temporal_trace(r)?;
            session.span_exit();
            session.record_counters(&format!("{name}@x{mult}"), &summary.kernel);
            let opt = |v: Option<f64>| v.map(fmt).unwrap_or_else(|| "-".into());
            table.row(vec![
                name.clone(),
                fmt(mult),
                fmt(summary.availability),
                fmt(summary.path_availability),
                opt(summary.link_lifetime.mean),
                opt(summary.link_lifetime.p90),
                opt(summary.inter_contact.mean),
                summary.outage.count.to_string(),
                opt(summary.outage.mean),
                opt(summary.repair.mean_time_to_repair),
                fmt(summary.link_events_per_step),
                summary.peak_churn.to_string(),
            ]);
            rows.push(TraceRow {
                model: name.clone(),
                multiplier: mult,
                range: r,
                summary,
            });
        }
    }
    table.print();
    println!(
        "reading: below r_stationary links are short-lived and outages dominate;\n\
         above it lifetimes stretch, partitions become rare and repair is fast —\n\
         the temporal dimension behind the paper's availability tiers."
    );

    let csv_path = table
        .write_csv(&opts.out_dir, "trace")
        .map_err(|e| CoreError::Invalid {
            reason: format!("cannot write CSV: {e}"),
        })?;
    println!("wrote {}", csv_path.display());

    let artifact = TraceArtifact {
        side: l,
        nodes: n,
        iterations: opts.iterations,
        steps: opts.steps,
        seed: opts.seed,
        r_stationary: rs,
        rows,
    };
    let json = serde_json::to_string(&artifact).map_err(|e| CoreError::Invalid {
        reason: format!("cannot serialize trace artifact: {e}"),
    })?;
    let json_path = opts.out_dir.join("trace.json");
    std::fs::write(&json_path, json).map_err(|e| CoreError::Invalid {
        reason: format!("cannot write JSON: {e}"),
    })?;
    println!("wrote {}", json_path.display());
    Ok(())
}
