//! X4 — the paper's literal fixed-range simulator as a sweep table
//! (extension experiment).
//!
//! §4.1's simulator reports, at one fixed transmitting range, the
//! percentage of connected graphs and the average/minimum size of the
//! largest connected component. This experiment runs it as a sweep over
//! multiples of `r_stationary` for both mobility models at `l = 1024`,
//! `n = 32` — the same cells the temporal-trace experiment (X3) uses —
//! so the snapshot and temporal views of one configuration line up.
//! Each model is one positions-only campaign: every step builds one
//! spanning tree and thresholds it at all four ranges. The CSV is a
//! golden artifact: its bytes did not change when the per-step engine
//! moved from rebuild-and-relabel to delta-apply, nor when it moved to
//! spanning-tree thresholds.

use crate::common::{banner, fmt, r_stationary_for, RunOptions, Table};
use crate::obs::ObsSession;
use manet_core::{CoreError, MtrmProblem};

/// Range multiples of `r_stationary` swept per model. Shifted one
/// notch below X3's grid so the table crosses the disconnection knee
/// (at 1.25·r_stationary and above everything is connected anyway).
const MULTIPLIERS: [f64; 4] = [0.5, 0.75, 1.0, 1.25];

/// Models swept when `--models` is not given: the paper's two plus the
/// zoo's correlated-velocity and group families.
const DEFAULT_MODELS: [&str; 4] = ["waypoint", "drunkard", "gauss-markov", "rpgm"];

/// Runs the fixed-range sweep.
pub fn run(opts: &RunOptions, session: &mut ObsSession) -> Result<(), CoreError> {
    banner("X4 (extension): fixed-range simulator (connectivity, largest component)");
    // `--nodes` scales the cell beyond the paper's n = 32 so large-n
    // runs are reachable from this pipeline too; `r_stationary` tracks
    // the override so the range multiples stay meaningful.
    let (l, n) = (1024.0, opts.nodes.unwrap_or(32));
    session.note_nodes(n);
    session.span_enter("fixed/r_stationary");
    let rs = r_stationary_for(opts, l, n)?;
    session.span_exit();
    let models = opts.resolve_models(&DEFAULT_MODELS, l)?;
    let count = models.len();
    let ranges = MULTIPLIERS.map(|mult| rs * mult);

    let mut table = Table::new(&[
        "model",
        "r/rs",
        "range",
        "avail",
        "avg_largest",
        "avg_largest_disc",
        "min_largest",
        "avg_isolated",
        "avg_components",
    ]);
    for (i, (name, model)) in models.into_iter().enumerate() {
        session.note_model(&name);
        for r in ranges {
            session.note_range(r);
        }
        session.progress(&format!("fixed: {name} ({}/{count})", i + 1));
        let problem = MtrmProblem::new(opts.sim_config(n, l).build()?, model);
        session.span_enter("fixed/model");
        let reports = problem.fixed_range_reports(&ranges)?;
        session.span_exit();
        for (mult, report) in MULTIPLIERS.into_iter().zip(reports) {
            table.row(vec![
                name.clone(),
                fmt(mult),
                fmt(report.range),
                fmt(report.connectivity_fraction()),
                fmt(report.avg_largest()),
                report
                    .avg_largest_when_disconnected()
                    .map(fmt)
                    .unwrap_or_else(|| "-".into()),
                report.min_largest().to_string(),
                fmt(report.avg_isolated()),
                fmt(report.avg_components()),
            ]);
        }
    }
    table.print();
    println!(
        "reading: below r_stationary the giant component sheds stragglers and\n\
         availability collapses; above it disconnection is a few isolated nodes —\n\
         the paper's Figures 4-5 narrative at fixed ranges."
    );
    let path = table
        .write_csv(&opts.out_dir, "fixed")
        .map_err(|e| CoreError::Invalid {
            reason: format!("cannot write CSV: {e}"),
        })?;
    println!("wrote {}", path.display());
    Ok(())
}
