//! X1 — the "quantity of mobility" (extension experiment).
//!
//! The paper closes: "connectedness is only marginally influenced by
//! whether motion is intentional or not, but it is rather related to
//! the 'quantity of mobility' […] Further investigation in this
//! direction is needed, and is a matter of ongoing research." This
//! experiment is that investigation, with the quantity formalized in
//! `manet-sim::quantity`: four mobility models and several parameter
//! settings are placed on a common axis (mean per-step displacement ×
//! moving fraction) and their `r100/r_stationary` measured, showing
//! that the connectivity cost lines up with the measured quantity, not
//! with the model family.

use crate::common::{banner, fmt, r_stationary_for, RunOptions, Table};
use crate::obs::ObsSession;
use manet_core::mobility::{Drunkard, RandomWaypoint};
use manet_core::sim::quantity::{mean_quantity, measure_mobility_quantity};
use manet_core::{AnyModel, CoreError, MtrmProblem};

/// Runs the quantity-of-mobility comparison at `l = 1024`, `n = 32`.
///
/// Without `--models`, sweeps a curated list: every registry family at
/// paper scale plus parameter variants (stationary fractions, no-pause,
/// always-busy) that spread the quantity axis. With `--models`, sweeps
/// exactly the requested registry names.
pub fn run(opts: &RunOptions, session: &mut ObsSession) -> Result<(), CoreError> {
    banner("X1 (extension): quantity of mobility vs r100 across models");
    // `--nodes` scales the cell beyond the paper's n = 32 so large-n
    // runs are reachable from this pipeline too; `r_stationary` tracks
    // the override so the r100/rs ratios stay meaningful.
    let (l, n) = (1024.0, opts.nodes.unwrap_or(32));
    session.note_nodes(n);
    session.span_enter("quantity/r_stationary");
    let rs = r_stationary_for(opts, l, n)?;
    session.span_exit();
    let step = 0.01 * l;
    let pause = opts.scale_steps(2000);

    let cases: Vec<(String, AnyModel<2>)> = match &opts.models {
        Some(_) => opts.resolve_models(&[], l)?,
        None => {
            vec![
                ("waypoint".into(), opts.model("waypoint", l)?),
                (
                    "waypoint p_s=0.5".into(),
                    RandomWaypoint::new(0.1, step, pause, 0.5)?.into(),
                ),
                (
                    "waypoint no-pause".into(),
                    RandomWaypoint::new(0.1, step, 0, 0.0)?.into(),
                ),
                ("drunkard".into(), opts.model("drunkard", l)?),
                (
                    "drunkard busy".into(),
                    Drunkard::new(0.0, 0.0, step)?.into(),
                ),
                ("walk".into(), opts.model("walk", l)?),
                ("direction".into(), opts.model("direction", l)?),
                ("gauss-markov".into(), opts.model("gauss-markov", l)?),
                ("rpgm".into(), opts.model("rpgm", l)?),
                ("stationary".into(), opts.model("stationary", l)?),
            ]
        }
    };

    let mut table = Table::new(&[
        "model",
        "mean_disp",
        "moving_frac",
        "never_moved",
        "r100/rs",
    ]);
    let total = cases.len();
    for (i, (name, model)) in cases.into_iter().enumerate() {
        session.note_model(&name);
        session.progress(&format!("quantity: {name} ({}/{total})", i + 1));
        session.span_enter("quantity/case");
        let problem = MtrmProblem::new(opts.sim_config(n, l).build()?, model);
        let quantity = mean_quantity(&measure_mobility_quantity(
            problem.config(),
            problem.model(),
        )?)
        .expect("at least one iteration");
        let q = problem.solve()?.pooled_quantiles()?;
        table.row(vec![
            name,
            fmt(quantity.mean_displacement),
            fmt(quantity.moving_fraction),
            fmt(quantity.never_moved_fraction),
            fmt(q.r100 / rs),
        ]);
        session.span_exit();
    }
    table.print();
    println!(
        "reading: r100 tracks the displacement/moving columns, not the model name —\n\
         the paper's 'quantity, not pattern' conjecture, measured."
    );
    let path = table
        .write_csv(&opts.out_dir, "quantity_x1")
        .map_err(|e| CoreError::Invalid {
            reason: format!("cannot write CSV: {e}"),
        })?;
    println!("wrote {}", path.display());
    Ok(())
}
