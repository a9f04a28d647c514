//! Figures 2–9 of the paper.

use crate::common::{self, banner, fmt, nodes_for_side, r_stationary, RunOptions, Table};
use crate::obs::ObsSession;
use manet_core::mobility::RandomWaypoint;
use manet_core::{AnyModel, CoreError, MtrmProblem};
use std::collections::BTreeMap;

/// `r_stationary` per `(l, n)` cell, each computed on first use. The
/// figures calibrate against only a few distinct cells (Figures 7–9's
/// `l = 4096`, `n = 64` is also one of Figures 2, 3 and 6's sides), so
/// [`all`] shares one cache across the run; a single-figure subcommand
/// passes a fresh one.
#[derive(Debug, Default)]
pub struct Calibrations(BTreeMap<(u64, usize), f64>);

impl Calibrations {
    /// [`r_stationary`] at side `l`, computed once per cache.
    fn r_stationary(&mut self, opts: &RunOptions, l: f64) -> Result<f64, CoreError> {
        let key = (l.to_bits(), nodes_for_side(l));
        if let Some(&rs) = self.0.get(&key) {
            return Ok(rs);
        }
        let rs = r_stationary(opts, l)?;
        self.0.insert(key, rs);
        Ok(rs)
    }
}

/// Builds the MTRM problem for one `(l, model)` cell of the figures.
fn problem(
    opts: &RunOptions,
    l: f64,
    n: usize,
    model: AnyModel<2>,
) -> Result<MtrmProblem<2>, CoreError> {
    let mut b = MtrmProblem::<2>::builder();
    b.nodes(n)
        .side(l)
        .iterations(opts.iterations)
        .steps(opts.steps)
        .seed(opts.seed)
        .profile_stride(5)
        .model(model);
    if let Some(t) = opts.threads {
        b.threads(t);
    }
    b.build()
}

/// Figures 2 (random waypoint) and 3 (drunkard): the ratios
/// `r100/r90/r10/r0 ÷ r_stationary` for growing system size.
///
/// Metrics are quantiles of the steps **pooled over all iterations**
/// ("averaged over 50 simulations of 10000 steps" in the paper's
/// phrasing): with that reading, `r100` at `p_stationary = 1`
/// degenerates to the max stationary CTR ≈ `r_stationary`, which is
/// exactly the paper's Figure 7 anchor. The per-iteration-then-average
/// aggregation remains available in the library
/// (`CriticalRangeResults::summary`) and is ablated in DESIGN.md §6.
fn range_ratio_figure<F>(
    opts: &RunOptions,
    session: &mut ObsSession,
    calibrations: &mut Calibrations,
    name: &str,
    model_name: &str,
    title: &str,
    make_model: F,
) -> Result<(), CoreError>
where
    F: Fn(&RunOptions, f64) -> Result<AnyModel<2>, CoreError>,
{
    banner(title);
    session.note_model(model_name);
    let mut table = Table::new(&[
        "l", "n", "r_stat", "r100/rs", "r90/rs", "r10/rs", "r0/rs", "r100_sd", "r90_sd",
    ]);
    for (i, &l) in common::L_VALUES.iter().enumerate() {
        let n = nodes_for_side(l);
        session.note_nodes(n);
        session.progress(&format!(
            "{name}: l={l} ({}/{})",
            i + 1,
            common::L_VALUES.len()
        ));
        session.span_enter(&format!("{name}/side"));
        let rs = calibrations.r_stationary(opts, l)?;
        let p = problem(opts, l, n, make_model(opts, l)?)?;
        let sol = p.solve()?;
        let pooled = sol.critical.pooled().map_err(CoreError::Sim)?;
        let q = manet_core::sim::RangeQuantiles::from_series(&pooled).map_err(CoreError::Sim)?;
        table.row(vec![
            fmt(l),
            n.to_string(),
            fmt(rs),
            fmt(q.r100 / rs),
            fmt(q.r90 / rs),
            fmt(q.r10 / rs),
            fmt(q.r0 / rs),
            fmt(sol.ranges.r100.sample_std_dev() / rs),
            fmt(sol.ranges.r90.sample_std_dev() / rs),
        ]);
        session.span_exit();
    }
    table.print();
    let path = table
        .write_csv(&opts.out_dir, name)
        .map_err(|e| CoreError::Invalid {
            reason: format!("cannot write CSV: {e}"),
        })?;
    println!("wrote {}", path.display());
    Ok(())
}

/// Figure 2: `r_x / r_stationary` vs `l`, random waypoint.
pub fn fig2(
    opts: &RunOptions,
    session: &mut ObsSession,
    calibrations: &mut Calibrations,
) -> Result<(), CoreError> {
    range_ratio_figure(
        opts,
        session,
        calibrations,
        "fig2",
        "waypoint",
        "Figure 2: r_x / r_stationary vs l (random waypoint)",
        |o, l| o.paper_waypoint(l),
    )
}

/// Figure 3: `r_x / r_stationary` vs `l`, drunkard.
pub fn fig3(
    opts: &RunOptions,
    session: &mut ObsSession,
    calibrations: &mut Calibrations,
) -> Result<(), CoreError> {
    range_ratio_figure(
        opts,
        session,
        calibrations,
        "fig3",
        "drunkard",
        "Figure 3: r_x / r_stationary vs l (drunkard)",
        |o, l| o.paper_drunkard(l),
    )
}

/// Figures 4 (random waypoint) and 5 (drunkard): average size of the
/// largest connected component (fraction of `n`) at `r90`, `r10`, `r0`.
fn component_figure<F>(
    opts: &RunOptions,
    session: &mut ObsSession,
    name: &str,
    model_name: &str,
    title: &str,
    make_model: F,
) -> Result<(), CoreError>
where
    F: Fn(&RunOptions, f64) -> Result<AnyModel<2>, CoreError>,
{
    banner(title);
    session.note_model(model_name);
    let mut table = Table::new(&["l", "n", "at_r90", "at_r10", "at_r0"]);
    for (i, &l) in common::L_VALUES.iter().enumerate() {
        let n = nodes_for_side(l);
        session.note_nodes(n);
        session.progress(&format!(
            "{name}: l={l} ({}/{})",
            i + 1,
            common::L_VALUES.len()
        ));
        session.span_enter(&format!("{name}/side"));
        let p = problem(opts, l, n, make_model(opts, l)?)?;
        let sol = p.solve()?;
        let pooled = sol.critical.pooled().map_err(CoreError::Sim)?;
        let q = manet_core::sim::RangeQuantiles::from_series(&pooled).map_err(CoreError::Sim)?;
        let profiles = p.component_profiles()?;
        let at = |r: f64| profiles.mean_average_fraction_at(r);
        table.row(vec![
            fmt(l),
            n.to_string(),
            fmt(at(q.r90)),
            fmt(at(q.r10)),
            fmt(at(q.r0)),
        ]);
        session.span_exit();
    }
    table.print();
    let path = table
        .write_csv(&opts.out_dir, name)
        .map_err(|e| CoreError::Invalid {
            reason: format!("cannot write CSV: {e}"),
        })?;
    println!("wrote {}", path.display());
    Ok(())
}

/// Figure 4: largest-component fraction at `r90/r10/r0`, waypoint.
pub fn fig4(opts: &RunOptions, session: &mut ObsSession) -> Result<(), CoreError> {
    component_figure(
        opts,
        session,
        "fig4",
        "waypoint",
        "Figure 4: avg largest component fraction at r90/r10/r0 (random waypoint)",
        |o, l| o.paper_waypoint(l),
    )
}

/// Figure 5: largest-component fraction at `r90/r10/r0`, drunkard.
pub fn fig5(opts: &RunOptions, session: &mut ObsSession) -> Result<(), CoreError> {
    component_figure(
        opts,
        session,
        "fig5",
        "drunkard",
        "Figure 5: avg largest component fraction at r90/r10/r0 (drunkard)",
        |o, l| o.paper_drunkard(l),
    )
}

/// Figure 6: `rl90/rl75/rl50 ÷ r_stationary` vs `l`, random waypoint.
pub fn fig6(
    opts: &RunOptions,
    session: &mut ObsSession,
    calibrations: &mut Calibrations,
) -> Result<(), CoreError> {
    banner("Figure 6: rl90/rl75/rl50 over r_stationary vs l (random waypoint)");
    session.note_model("waypoint");
    let mut table = Table::new(&["l", "n", "r_stat", "rl90/rs", "rl75/rs", "rl50/rs"]);
    for (i, &l) in common::L_VALUES.iter().enumerate() {
        let n = nodes_for_side(l);
        session.note_nodes(n);
        session.progress(&format!(
            "fig6: l={l} ({}/{})",
            i + 1,
            common::L_VALUES.len()
        ));
        session.span_enter("fig6/side");
        let rs = calibrations.r_stationary(opts, l)?;
        let p = problem(opts, l, n, opts.paper_waypoint(l)?)?;
        let rl = p.ranges_for_component_fractions(&[0.9, 0.75, 0.5])?;
        table.row(vec![
            fmt(l),
            n.to_string(),
            fmt(rs),
            fmt(rl[0].1 / rs),
            fmt(rl[1].1 / rs),
            fmt(rl[2].1 / rs),
        ]);
        session.span_exit();
    }
    table.print();
    let path = table
        .write_csv(&opts.out_dir, "fig6")
        .map_err(|e| CoreError::Invalid {
            reason: format!("cannot write CSV: {e}"),
        })?;
    println!("wrote {}", path.display());
    Ok(())
}

/// The `l = 4096`, `n = 64` single-cell sweep shared by Figures 7–9.
#[expect(
    clippy::too_many_arguments,
    reason = "the run context (options, session, calibration cache) plus one figure's labels, points and model"
)]
fn sweep_r100<F>(
    opts: &RunOptions,
    session: &mut ObsSession,
    calibrations: &mut Calibrations,
    name: &str,
    title: &str,
    axis: &str,
    points: &[f64],
    make_model: F,
) -> Result<(), CoreError>
where
    F: Fn(f64) -> Result<AnyModel<2>, CoreError>,
{
    banner(title);
    session.note_model("waypoint");
    let l = 4096.0;
    let n = 64;
    session.note_nodes(n);
    let rs = calibrations.r_stationary(opts, l)?;
    let mut table = Table::new(&[axis, "r100/rs", "r100_sd/rs"]);
    for (i, &x) in points.iter().enumerate() {
        session.progress(&format!("{name}: {axis}={x} ({}/{})", i + 1, points.len()));
        session.span_enter(&format!("{name}/point"));
        let p = problem(opts, l, n, make_model(x)?)?;
        let sol = p.solve()?;
        let pooled = sol.critical.pooled().map_err(CoreError::Sim)?;
        table.row(vec![
            fmt(x),
            fmt(pooled.max() / rs),
            fmt(sol.ranges.r100.sample_std_dev() / rs),
        ]);
        session.span_exit();
    }
    table.print();
    let path = table
        .write_csv(&opts.out_dir, name)
        .map_err(|e| CoreError::Invalid {
            reason: format!("cannot write CSV: {e}"),
        })?;
    println!("wrote {}", path.display());
    Ok(())
}

/// Figure 7: `r100/r_stationary` vs `p_stationary` (coarse 0..1 plus
/// the paper's fine sweep of the 0.4–0.6 threshold window).
pub fn fig7(
    opts: &RunOptions,
    session: &mut ObsSession,
    calibrations: &mut Calibrations,
) -> Result<(), CoreError> {
    let mut points: Vec<f64> = vec![0.0, 0.2, 0.8, 1.0];
    let mut p: f64 = 0.40;
    while p <= 0.601 {
        points.push((p * 100.0).round() / 100.0);
        p += 0.02;
    }
    points.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let l = 4096.0;
    let pause = opts.scale_steps(2000);
    sweep_r100(
        opts,
        session,
        calibrations,
        "fig7",
        "Figure 7: r100/r_stationary vs p_stationary (random waypoint, l=4096, n=64)",
        "p_stat",
        &points,
        |p_stat| {
            RandomWaypoint::new(0.1, 0.01 * l, pause, p_stat)
                .map(AnyModel::from)
                .map_err(CoreError::from)
        },
    )
}

/// Figure 8: `r100/r_stationary` vs `t_pause` (axis scaled with the
/// run horizon; equals the paper's 0..10000 under `--paper`).
pub fn fig8(
    opts: &RunOptions,
    session: &mut ObsSession,
    calibrations: &mut Calibrations,
) -> Result<(), CoreError> {
    let points: Vec<f64> = [0u32, 2000, 4000, 6000, 8000, 10_000]
        .iter()
        .map(|&t| opts.scale_steps(t) as f64)
        .collect();
    let l = 4096.0;
    sweep_r100(
        opts,
        session,
        calibrations,
        "fig8",
        "Figure 8: r100/r_stationary vs t_pause (random waypoint, l=4096, n=64)",
        "t_pause",
        &points,
        |t| {
            RandomWaypoint::new(0.1, 0.01 * l, t as u32, 0.0)
                .map(AnyModel::from)
                .map_err(CoreError::from)
        },
    )
}

/// Figure 9: `r100/r_stationary` vs `v_max` (in units of `l`).
pub fn fig9(
    opts: &RunOptions,
    session: &mut ObsSession,
    calibrations: &mut Calibrations,
) -> Result<(), CoreError> {
    let points = [0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5];
    let l = 4096.0;
    let pause = opts.scale_steps(2000);
    sweep_r100(
        opts,
        session,
        calibrations,
        "fig9",
        "Figure 9: r100/r_stationary vs v_max/l (random waypoint, l=4096, n=64)",
        "vmax/l",
        &points,
        |v| {
            RandomWaypoint::new(0.1, v * l, pause, 0.0)
                .map(AnyModel::from)
                .map_err(CoreError::from)
        },
    )
}

/// Runs Figures 2–9 in order, calibrating each `(l, n)` cell once.
pub fn all(opts: &RunOptions, session: &mut ObsSession) -> Result<(), CoreError> {
    let cal = &mut Calibrations::default();
    fig2(opts, session, cal)?;
    fig3(opts, session, cal)?;
    fig4(opts, session)?;
    fig5(opts, session)?;
    fig6(opts, session, cal)?;
    fig7(opts, session, cal)?;
    fig8(opts, session, cal)?;
    fig9(opts, session, cal)
}
