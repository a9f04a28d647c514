//! X2 — outage structure at the paper's dependability tiers
//! (extension experiment).
//!
//! The paper prices its tiers (`r100`, `r90`, `r10`) purely by the
//! *fraction* of connected time. Dependability engineering also needs
//! the *shape* of the downtime: how often the network fails (MTBF) and
//! how long an outage lasts (MTTR). This experiment reports both for
//! the paper's two mobility models at `l = 4096`, `n = 64`, giving the
//! oil-platform-crew scenario of §4 its missing numbers: at `r90`,
//! *how long* is a crew out of contact when it loses the network?

use crate::common::{banner, fmt, r_stationary_for, RunOptions, Table};
use crate::obs::ObsSession;
use manet_core::{CoreError, MtrmProblem};

/// Models swept when `--models` is not given. Kept at the paper's two
/// (the golden `uptime_x2.csv` is captured from this default); the
/// zoo is available through `--models`.
const DEFAULT_MODELS: [&str; 2] = ["waypoint", "drunkard"];

/// Runs the outage-structure table.
pub fn run(opts: &RunOptions, session: &mut ObsSession) -> Result<(), CoreError> {
    banner("X2 (extension): outage structure (MTBF/MTTR) at the dependability tiers");
    // `--nodes` scales the cell beyond the paper's n = 64 so large-n
    // runs are reachable from this pipeline too; `r_stationary` tracks
    // the override so the tier ratios stay meaningful.
    let (l, n) = (4096.0, opts.nodes.unwrap_or(64));
    session.note_nodes(n);
    session.span_enter("uptime/r_stationary");
    let rs = r_stationary_for(opts, l, n)?;
    session.span_exit();
    let models = opts.resolve_models(&DEFAULT_MODELS, l)?;
    let total = models.len();
    let mut table = Table::new(&[
        "model",
        "tier",
        "r/rs",
        "avail",
        "mtbf_steps",
        "mttr_steps",
        "worst_outage",
        "fails/iter",
    ]);
    for (i, (name, model)) in models.into_iter().enumerate() {
        session.note_model(&name);
        session.progress(&format!("uptime: {name} ({}/{total})", i + 1));
        // One campaign per model: every tier reads the same solution.
        let problem = MtrmProblem::new(opts.sim_config(n, l).build()?, model);
        session.span_enter("campaign");
        let sol = problem.solve();
        session.span_exit();
        let sol = sol?;
        let q = sol.pooled_quantiles()?;
        for (tier, r) in [("r100", q.r100), ("r90", q.r90), ("r10", q.r10)] {
            session.note_range(r);
            let up = sol.uptime_at(r)?;
            table.row(vec![
                name.clone(),
                tier.to_string(),
                fmt(r / rs),
                fmt(up.availability),
                up.mtbf_steps.map(fmt).unwrap_or_else(|| "-".into()),
                up.mttr_steps.map(fmt).unwrap_or_else(|| "-".into()),
                up.longest_outage.to_string(),
                fmt(up.failures_per_iteration),
            ]);
        }
    }
    table.print();
    println!(
        "reading: at r90 the network fails rarely and repairs within a few steps;\n\
         at r10 it is mostly down with brief connection windows — the paper's\n\
         'temporary connection periods can be used to exchange data' scenario."
    );
    let path = table
        .write_csv(&opts.out_dir, "uptime_x2")
        .map_err(|e| CoreError::Invalid {
            reason: format!("cannot write CSV: {e}"),
        })?;
    println!("wrote {}", path.display());
    Ok(())
}
