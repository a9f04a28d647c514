//! S1: the `r_stationary` calibration table — the denominator of every
//! mobile ratio in Figures 2–9.

use crate::common::{self, banner, fmt, nodes_for_side, RunOptions, Table};
use crate::obs::ObsSession;
use manet_core::CoreError;

/// Prints the stationary critical-range distribution for each paper
/// system size, with `r_stationary` at several quantiles and the
/// theory baselines (worst case `l√2`).
pub fn run(opts: &RunOptions, session: &mut ObsSession) -> Result<(), CoreError> {
    banner("S1: stationary critical transmitting range calibration (d = 2)");
    session.note_model("stationary");
    let mut table = Table::new(&[
        "l",
        "n",
        "ctr_mean",
        "ctr_sd",
        "r_stat(.90)",
        "r_stat(.99)",
        "max_ctr",
        "worst_case",
        "penrose@r.90",
    ]);
    for (i, &l) in common::L_VALUES.iter().enumerate() {
        let n = nodes_for_side(l);
        session.note_nodes(n);
        session.progress(&format!(
            "stationary: l={l} ({}/{})",
            i + 1,
            common::L_VALUES.len()
        ));
        session.span_enter("stationary/side");
        let problem = common::mtr_problem(opts, l, n)?;
        let analysis = problem.stationary_analysis(opts.placements, opts.seed ^ 0x5747)?;
        let ctr = analysis.ctr_distribution();
        let mean = ctr.mean();
        let sd = {
            let m: manet_core::stats::RunningMoments = ctr.as_sorted().iter().copied().collect();
            m.sample_std_dev()
        };
        let r90 = analysis.r_stationary(0.90)?;
        table.row(vec![
            fmt(l),
            n.to_string(),
            fmt(mean),
            fmt(sd),
            fmt(r90),
            fmt(analysis.r_stationary(common::R_STATIONARY_QUANTILE)?),
            fmt(ctr.max()),
            fmt(problem.worst_case_range()),
            // The dense-limit (interior-only) analytical estimate at
            // the empirical 90% range: its excess over 0.90 quantifies
            // the boundary effects the paper's sparse formulation keeps.
            fmt(problem.penrose_connectivity_estimate(r90)?),
        ]);
        session.note_range(r90);
        session.span_exit();
    }
    table.print();
    let path = table
        .write_csv(&opts.out_dir, "stationary")
        .map_err(|e| CoreError::Invalid {
            reason: format!("cannot write CSV: {e}"),
        })?;
    println!("wrote {}", path.display());
    Ok(())
}
