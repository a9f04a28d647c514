//! Figures 2–9 of the paper.
//!
//! Every figure reads its rows off campaigns held in one per-run
//! [`FigureRun`] memo, keyed by what fixes a campaign's trajectories
//! ([`CampaignKey`]). Figures 2–6 share one ensemble per `(model, l)`,
//! and Figures 7–9's base point is Figure 2's `l = 4096` cell, so
//! `figs` simulates each ensemble once.

use crate::common::{self, banner, fmt, nodes_for_side, r_stationary, RunOptions, Table};
use crate::obs::ObsSession;
use manet_core::mobility::{Drunkard, RandomWaypoint};
use manet_core::sim::{MobileRangeSummary, ProfileResults, RangeQuantiles};
use manet_core::{AnyModel, CoreError, MtrmProblem, MtrmSolution};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

/// The mobility model of one figure campaign, with every parameter
/// that shapes its trajectories (floats as bit patterns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Motion {
    /// `RandomWaypoint::new(0.1, v_max, pause, p_stat)`.
    Waypoint { v_max: u64, pause: u32, p_stat: u64 },
    /// `Drunkard::paper_defaults(l)`.
    Drunkard,
}

impl Motion {
    /// The model's registry name, for the run manifest.
    fn name(&self) -> &'static str {
        match self {
            Motion::Waypoint { .. } => "waypoint",
            Motion::Drunkard => "drunkard",
        }
    }
}

/// What fixes a figure campaign's trajectories exactly: the model and
/// its parameters, the side `l` and the node count `n`. The run's
/// iterations, steps and seed are the same for every key of a
/// [`FigureRun`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct CampaignKey {
    l: u64,
    n: usize,
    motion: Motion,
}

impl CampaignKey {
    /// Random waypoint at side `l` (`n = √l`), minimum speed 0.1.
    fn waypoint(l: f64, v_max: f64, pause: u32, p_stat: f64) -> Self {
        CampaignKey {
            l: l.to_bits(),
            n: nodes_for_side(l),
            motion: Motion::Waypoint {
                v_max: v_max.to_bits(),
                pause,
                p_stat: p_stat.to_bits(),
            },
        }
    }

    /// The paper's waypoint at side `l` (§4.2 defaults, the registry's
    /// `waypoint`), pause time scaled to the run horizon.
    fn paper_waypoint(opts: &RunOptions, l: f64) -> Self {
        Self::waypoint(l, 0.01 * l, opts.scale_steps(2000), 0.0)
    }

    /// The paper's drunkard at side `l` (§4.2 defaults).
    fn paper_drunkard(l: f64) -> Self {
        CampaignKey {
            l: l.to_bits(),
            n: nodes_for_side(l),
            motion: Motion::Drunkard,
        }
    }

    fn side(&self) -> f64 {
        f64::from_bits(self.l)
    }

    /// Builds the key's model, so equal keys run equal trajectories.
    fn model(&self) -> Result<AnyModel<2>, CoreError> {
        Ok(match self.motion {
            Motion::Waypoint {
                v_max,
                pause,
                p_stat,
            } => RandomWaypoint::new(0.1, f64::from_bits(v_max), pause, f64::from_bits(p_stat))?
                .into(),
            Motion::Drunkard => Drunkard::paper_defaults(self.side())?.into(),
        })
    }

    /// The MTRM problem for this key at the run's scale.
    fn problem(&self, opts: &RunOptions) -> Result<MtrmProblem<2>, CoreError> {
        let config = opts
            .sim_config(self.n, self.side())
            .profile_stride(5)
            .build()?;
        Ok(MtrmProblem::new(config, self.model()?))
    }
}

/// What the figure rows read from one campaign. It keeps no raw
/// critical-range series, so an entry is O(iterations · bins), not
/// O(iterations · steps).
#[derive(Debug)]
struct CampaignRows {
    /// Quantiles of all steps pooled over the iterations (`r100` is the
    /// pooled max).
    pooled: RangeQuantiles,
    /// Across-iteration moments of `r100/r90/r10/r0`.
    ranges: MobileRangeSummary,
    /// Component-size profiles; `None` for a critical-only campaign.
    profiles: Option<ProfileResults>,
}

impl CampaignRows {
    /// Simulates `key`'s campaign: fused with the profile pass when
    /// `fused`, otherwise the critical-range pass alone.
    fn simulate(opts: &RunOptions, key: &CampaignKey, fused: bool) -> Result<Self, CoreError> {
        let p = key.problem(opts)?;
        if fused {
            let campaign = p.campaign()?;
            let profiles = campaign.component_profiles().clone();
            Self::of(campaign.solution(), Some(profiles))
        } else {
            Self::of(&p.solve()?, None)
        }
    }

    fn of(solution: &MtrmSolution, profiles: Option<ProfileResults>) -> Result<Self, CoreError> {
        Ok(CampaignRows {
            pooled: solution.pooled_quantiles()?,
            ranges: solution.ranges,
            profiles,
        })
    }

    /// The profiles, which a profile-reading figure requested or its
    /// run planned ([`FigureRun::for_all_figures`]).
    fn profiles(&self) -> Result<&ProfileResults, CoreError> {
        self.profiles.as_ref().ok_or_else(|| CoreError::Invalid {
            reason: "campaign was run without component profiles".into(),
        })
    }
}

/// The per-run memo of the figure runners: `r_stationary` per `(l, n)`
/// and one campaign per [`CampaignKey`]. [`all`] shares one across
/// Figures 2–9; a single-figure subcommand passes a fresh one, and
/// gets the same rows.
#[derive(Debug, Default)]
pub struct FigureRun {
    calibrations: BTreeMap<(u64, usize), f64>,
    campaigns: BTreeMap<CampaignKey, CampaignRows>,
    /// Keys whose profiles a later figure of this run reads: their
    /// campaign runs fused, so no second pass is needed.
    fused: BTreeSet<CampaignKey>,
}

impl FigureRun {
    /// The memo for Figures 2–9 in one run: Figures 4–6 read the
    /// profiles of every side-sweep campaign, so Figures 2 and 3 run
    /// theirs fused.
    fn for_all_figures(opts: &RunOptions) -> Self {
        let mut run = FigureRun::default();
        for &l in &common::L_VALUES {
            run.fused.insert(CampaignKey::paper_waypoint(opts, l));
            run.fused.insert(CampaignKey::paper_drunkard(l));
        }
        run
    }

    /// [`r_stationary`] at side `l`, calibrated once per run under a
    /// `calibration` span.
    fn r_stationary(
        &mut self,
        opts: &RunOptions,
        session: &mut ObsSession,
        l: f64,
    ) -> Result<f64, CoreError> {
        let key = (l.to_bits(), nodes_for_side(l));
        if let Some(&rs) = self.calibrations.get(&key) {
            return Ok(rs);
        }
        session.span_enter("calibration");
        let rs = r_stationary(opts, l);
        session.span_exit();
        let rs = rs?;
        self.calibrations.insert(key, rs);
        Ok(rs)
    }

    /// `key`'s campaign rows, simulated once per run under a `campaign`
    /// span. The campaign runs fused when this call asks for
    /// `profiles` or the run planned a later profile read of `key`.
    fn campaign(
        &mut self,
        opts: &RunOptions,
        session: &mut ObsSession,
        key: CampaignKey,
        profiles: bool,
    ) -> Result<&CampaignRows, CoreError> {
        match self.campaigns.entry(key) {
            Entry::Occupied(e) => Ok(e.into_mut()),
            Entry::Vacant(e) => {
                let fused = profiles || self.fused.contains(&key);
                session.span_enter("campaign");
                let rows = CampaignRows::simulate(opts, &key, fused);
                session.span_exit();
                Ok(e.insert(rows?))
            }
        }
    }
}

/// Prints a finished figure table and writes it to `<out>/<name>.csv`.
fn write_table(opts: &RunOptions, table: &Table, name: &str) -> Result<(), CoreError> {
    table.print();
    let path = table
        .write_csv(&opts.out_dir, name)
        .map_err(|e| CoreError::Invalid {
            reason: format!("cannot write CSV: {e}"),
        })?;
    println!("wrote {}", path.display());
    Ok(())
}

/// One figure over the paper's sides `l ∈ L_VALUES`: per side, the
/// campaign of `key(l)` (with profiles when `profiles`) and the side's
/// `r_stationary` feed `row`.
#[expect(
    clippy::too_many_arguments,
    reason = "the run context (options, session, memo) plus one figure's labels, key, profile need and row"
)]
fn side_sweep<K, R>(
    opts: &RunOptions,
    session: &mut ObsSession,
    run: &mut FigureRun,
    name: &str,
    title: &str,
    headers: &[&str],
    key: K,
    profiles: bool,
    row: R,
) -> Result<(), CoreError>
where
    K: Fn(f64) -> CampaignKey,
    R: Fn(f64, &CampaignRows) -> Result<Vec<String>, CoreError>,
{
    banner(title);
    let mut table = Table::new(headers);
    for (i, &l) in common::L_VALUES.iter().enumerate() {
        let key = key(l);
        session.note_model(key.motion.name());
        session.note_nodes(key.n);
        session.progress(&format!(
            "{name}: l={l} ({}/{})",
            i + 1,
            common::L_VALUES.len()
        ));
        let rs = run.r_stationary(opts, session, l)?;
        let rows = run.campaign(opts, session, key, profiles)?;
        session.span_enter(&format!("{name}/side"));
        let cells = row(rs, rows);
        session.span_exit();
        let mut cells = cells?;
        cells.splice(0..0, [fmt(l), key.n.to_string()]);
        table.row(cells);
    }
    write_table(opts, &table, name)
}

/// Columns of Figures 2 and 3.
const RANGE_RATIO_HEADERS: [&str; 9] = [
    "l", "n", "r_stat", "r100/rs", "r90/rs", "r10/rs", "r0/rs", "r100_sd", "r90_sd",
];

/// A row of Figures 2 (random waypoint) and 3 (drunkard): the ratios
/// `r100/r90/r10/r0 ÷ r_stationary` for growing system size.
///
/// Metrics are quantiles of the steps **pooled over all iterations**
/// ("averaged over 50 simulations of 10000 steps" in the paper's
/// phrasing): with that reading, `r100` at `p_stationary = 1`
/// degenerates to the max stationary CTR ≈ `r_stationary`, which is
/// exactly the paper's Figure 7 anchor. The per-iteration-then-average
/// aggregation remains available in the library
/// (`CriticalRangeResults::summary`) and is ablated in DESIGN.md §6.
fn range_ratio_row(rs: f64, c: &CampaignRows) -> Result<Vec<String>, CoreError> {
    let q = c.pooled;
    Ok(vec![
        fmt(rs),
        fmt(q.r100 / rs),
        fmt(q.r90 / rs),
        fmt(q.r10 / rs),
        fmt(q.r0 / rs),
        fmt(c.ranges.r100.sample_std_dev() / rs),
        fmt(c.ranges.r90.sample_std_dev() / rs),
    ])
}

/// Columns of Figures 4 and 5.
const COMPONENT_HEADERS: [&str; 5] = ["l", "n", "at_r90", "at_r10", "at_r0"];

/// A row of Figures 4 (random waypoint) and 5 (drunkard): average size
/// of the largest connected component (fraction of `n`) at `r90`,
/// `r10`, `r0`.
fn component_row(_rs: f64, c: &CampaignRows) -> Result<Vec<String>, CoreError> {
    let profiles = c.profiles()?;
    let at = |r: f64| fmt(profiles.mean_average_fraction_at(r));
    Ok(vec![at(c.pooled.r90), at(c.pooled.r10), at(c.pooled.r0)])
}

/// Figure 2: `r_x / r_stationary` vs `l`, random waypoint.
pub fn fig2(
    opts: &RunOptions,
    session: &mut ObsSession,
    run: &mut FigureRun,
) -> Result<(), CoreError> {
    side_sweep(
        opts,
        session,
        run,
        "fig2",
        "Figure 2: r_x / r_stationary vs l (random waypoint)",
        &RANGE_RATIO_HEADERS,
        |l| CampaignKey::paper_waypoint(opts, l),
        false,
        range_ratio_row,
    )
}

/// Figure 3: `r_x / r_stationary` vs `l`, drunkard.
pub fn fig3(
    opts: &RunOptions,
    session: &mut ObsSession,
    run: &mut FigureRun,
) -> Result<(), CoreError> {
    side_sweep(
        opts,
        session,
        run,
        "fig3",
        "Figure 3: r_x / r_stationary vs l (drunkard)",
        &RANGE_RATIO_HEADERS,
        CampaignKey::paper_drunkard,
        false,
        range_ratio_row,
    )
}

/// Figure 4: largest-component fraction at `r90/r10/r0`, waypoint.
pub fn fig4(
    opts: &RunOptions,
    session: &mut ObsSession,
    run: &mut FigureRun,
) -> Result<(), CoreError> {
    side_sweep(
        opts,
        session,
        run,
        "fig4",
        "Figure 4: avg largest component fraction at r90/r10/r0 (random waypoint)",
        &COMPONENT_HEADERS,
        |l| CampaignKey::paper_waypoint(opts, l),
        true,
        component_row,
    )
}

/// Figure 5: largest-component fraction at `r90/r10/r0`, drunkard.
pub fn fig5(
    opts: &RunOptions,
    session: &mut ObsSession,
    run: &mut FigureRun,
) -> Result<(), CoreError> {
    side_sweep(
        opts,
        session,
        run,
        "fig5",
        "Figure 5: avg largest component fraction at r90/r10/r0 (drunkard)",
        &COMPONENT_HEADERS,
        CampaignKey::paper_drunkard,
        true,
        component_row,
    )
}

/// Figure 6: `rl90/rl75/rl50 ÷ r_stationary` vs `l`, random waypoint.
pub fn fig6(
    opts: &RunOptions,
    session: &mut ObsSession,
    run: &mut FigureRun,
) -> Result<(), CoreError> {
    side_sweep(
        opts,
        session,
        run,
        "fig6",
        "Figure 6: rl90/rl75/rl50 over r_stationary vs l (random waypoint)",
        &["l", "n", "r_stat", "rl90/rs", "rl75/rs", "rl50/rs"],
        |l| CampaignKey::paper_waypoint(opts, l),
        true,
        |rs, c| {
            let profiles = c.profiles()?;
            let mut cells = vec![fmt(rs)];
            for f in [0.9, 0.75, 0.5] {
                cells.push(fmt(profiles.mean_range_for_average_fraction(f)? / rs));
            }
            Ok(cells)
        },
    )
}

/// The `l = 4096`, `n = 64` single-cell sweep shared by Figures 7–9.
#[expect(
    clippy::too_many_arguments,
    reason = "the run context (options, session, memo) plus one figure's labels, points and key"
)]
fn sweep_r100<K>(
    opts: &RunOptions,
    session: &mut ObsSession,
    run: &mut FigureRun,
    name: &str,
    title: &str,
    axis: &str,
    points: &[f64],
    key: K,
) -> Result<(), CoreError>
where
    K: Fn(f64) -> CampaignKey,
{
    banner(title);
    session.note_model("waypoint");
    session.note_nodes(nodes_for_side(SWEEP_SIDE));
    let rs = run.r_stationary(opts, session, SWEEP_SIDE)?;
    let mut table = Table::new(&[axis, "r100/rs", "r100_sd/rs"]);
    for (i, &x) in points.iter().enumerate() {
        session.progress(&format!("{name}: {axis}={x} ({}/{})", i + 1, points.len()));
        let c = run.campaign(opts, session, key(x), false)?;
        session.span_enter(&format!("{name}/point"));
        table.row(vec![
            fmt(x),
            fmt(c.pooled.r100 / rs),
            fmt(c.ranges.r100.sample_std_dev() / rs),
        ]);
        session.span_exit();
    }
    write_table(opts, &table, name)
}

/// The side of Figures 7–9's sweeps (`n = 64`).
const SWEEP_SIDE: f64 = 4096.0;

/// Figure 7: `r100/r_stationary` vs `p_stationary` (coarse 0..1 plus
/// the paper's fine sweep of the 0.4–0.6 threshold window).
pub fn fig7(
    opts: &RunOptions,
    session: &mut ObsSession,
    run: &mut FigureRun,
) -> Result<(), CoreError> {
    let mut points: Vec<f64> = vec![0.0, 0.2, 0.8, 1.0];
    let mut p: f64 = 0.40;
    while p <= 0.601 {
        points.push((p * 100.0).round() / 100.0);
        p += 0.02;
    }
    points.sort_by(f64::total_cmp);
    let l = SWEEP_SIDE;
    let pause = opts.scale_steps(2000);
    sweep_r100(
        opts,
        session,
        run,
        "fig7",
        "Figure 7: r100/r_stationary vs p_stationary (random waypoint, l=4096, n=64)",
        "p_stat",
        &points,
        |p_stat| CampaignKey::waypoint(l, 0.01 * l, pause, p_stat),
    )
}

/// Figure 8: `r100/r_stationary` vs `t_pause` (axis scaled with the
/// run horizon; equals the paper's 0..10000 under `--paper`).
pub fn fig8(
    opts: &RunOptions,
    session: &mut ObsSession,
    run: &mut FigureRun,
) -> Result<(), CoreError> {
    let points: Vec<f64> = [0u32, 2000, 4000, 6000, 8000, 10_000]
        .iter()
        .map(|&t| opts.scale_steps(t) as f64)
        .collect();
    let l = SWEEP_SIDE;
    sweep_r100(
        opts,
        session,
        run,
        "fig8",
        "Figure 8: r100/r_stationary vs t_pause (random waypoint, l=4096, n=64)",
        "t_pause",
        &points,
        |t| CampaignKey::waypoint(l, 0.01 * l, t as u32, 0.0),
    )
}

/// Figure 9: `r100/r_stationary` vs `v_max` (in units of `l`).
pub fn fig9(
    opts: &RunOptions,
    session: &mut ObsSession,
    run: &mut FigureRun,
) -> Result<(), CoreError> {
    let points = [0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5];
    let l = SWEEP_SIDE;
    let pause = opts.scale_steps(2000);
    sweep_r100(
        opts,
        session,
        run,
        "fig9",
        "Figure 9: r100/r_stationary vs v_max/l (random waypoint, l=4096, n=64)",
        "vmax/l",
        &points,
        |v| CampaignKey::waypoint(l, v * l, pause, 0.0),
    )
}

/// Runs Figures 2–9 in order on one memo: each `(l, n)` is calibrated
/// once and each trajectory ensemble simulated once.
pub fn all(opts: &RunOptions, session: &mut ObsSession) -> Result<(), CoreError> {
    all_on(opts, session, &mut FigureRun::for_all_figures(opts))
}

fn all_on(
    opts: &RunOptions,
    session: &mut ObsSession,
    run: &mut FigureRun,
) -> Result<(), CoreError> {
    fig2(opts, session, run)?;
    fig3(opts, session, run)?;
    fig4(opts, session, run)?;
    fig5(opts, session, run)?;
    fig6(opts, session, run)?;
    fig7(opts, session, run)?;
    fig8(opts, session, run)?;
    fig9(opts, session, run)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn golden_opts(out: &str) -> RunOptions {
        RunOptions {
            iterations: 2,
            steps: 60,
            placements: 40,
            seed: 20_020_623,
            threads: Some(1),
            out_dir: std::env::temp_dir().join(out),
            ..RunOptions::default()
        }
    }

    #[test]
    fn one_figs_run_simulates_each_ensemble_once() {
        let opts = golden_opts("manet_figures_memo_test");
        let mut session = ObsSession::new("figs", &opts);
        let mut run = FigureRun::for_all_figures(&opts);
        all_on(&opts, &mut session, &mut run).unwrap();
        // Every memo miss inserts one key: 4 + 4 fused side-sweep
        // campaigns (figs 2–6), then figs 7, 8 and 9 minus their shared
        // base point: 14 + 5 + 6.
        assert_eq!(run.campaigns.len(), 33);
        assert_eq!(run.calibrations.len(), 4);
        let fused = run.campaigns.values().filter(|c| c.profiles.is_some());
        assert_eq!(fused.count(), 8, "only the side sweeps carry profiles");
        std::fs::remove_dir_all(&opts.out_dir).ok();
    }

    #[test]
    fn sweep_base_points_resolve_to_figure_2s_cell() {
        let opts = golden_opts("unused");
        let base = CampaignKey::paper_waypoint(&opts, SWEEP_SIDE);
        let pause = opts.scale_steps(2000);
        let l = SWEEP_SIDE;
        assert_eq!(CampaignKey::waypoint(l, 0.01 * l, pause, 0.0), base);
        assert_eq!(
            CampaignKey::waypoint(l, 0.01 * l, pause as f64 as u32, 0.0),
            base
        );
        assert_ne!(CampaignKey::waypoint(l, 0.05 * l, pause, 0.0), base);
        assert_ne!(CampaignKey::paper_drunkard(l), base);
    }

    #[test]
    fn a_lone_critical_figure_runs_no_profile_pass() {
        let opts = golden_opts("manet_figures_lone_test");
        let mut session = ObsSession::new("fig2", &opts);
        let mut run = FigureRun::default();
        fig2(&opts, &mut session, &mut run).unwrap();
        assert_eq!(run.campaigns.len(), 4);
        assert!(run.campaigns.values().all(|c| c.profiles.is_none()));
        std::fs::remove_dir_all(&opts.out_dir).ok();
    }
}
