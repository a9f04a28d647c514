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
use manet_core::stats::RunningMoments;
use manet_core::{AnyModel, CoreError, MtrmProblem, MtrmSolution};
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

/// How much of a campaign the figures read, shallowest first. A deeper
/// entry answers every shallower request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Depth {
    /// Each iteration's `r100` only (Figures 7–9):
    /// [`MtrmProblem::r100_per_iteration`].
    R100,
    /// Every step's critical range, for the quantiles (Figures 2–3):
    /// [`MtrmProblem::solve`].
    Series,
    /// The series fused with the component-size profiles (Figures 4–6):
    /// [`MtrmProblem::campaign`].
    Fused,
}

/// What the figure rows read from one campaign. It keeps no raw
/// critical-range series, so an entry is O(iterations · bins), not
/// O(iterations · steps).
#[derive(Debug)]
struct CampaignRows {
    /// The largest critical range over every step of every iteration.
    r100: f64,
    /// Across-iteration moments of each iteration's `r100`.
    r100_moments: RunningMoments,
    /// Quantiles of all steps pooled over the iterations, and the
    /// across-iteration moments of `r100/r90/r10/r0`; `None` for an
    /// r100-only campaign.
    quantiles: Option<(RangeQuantiles, MobileRangeSummary)>,
    /// Component-size profiles; `None` unless fused.
    profiles: Option<ProfileResults>,
}

impl CampaignRows {
    /// Simulates `key`'s campaign at `depth`.
    fn simulate(opts: &RunOptions, key: &CampaignKey, depth: Depth) -> Result<Self, CoreError> {
        let p = key.problem(opts)?;
        match depth {
            Depth::R100 => {
                let maxima = p.r100_per_iteration();
                let mut r100_moments = RunningMoments::new();
                r100_moments.extend(maxima.iter().copied());
                Ok(CampaignRows {
                    r100: maxima.into_iter().fold(f64::NEG_INFINITY, f64::max),
                    r100_moments,
                    quantiles: None,
                    profiles: None,
                })
            }
            Depth::Series => Self::of(&p.solve()?, None),
            Depth::Fused => {
                let campaign = p.campaign()?;
                let profiles = campaign.component_profiles().clone();
                Self::of(campaign.solution(), Some(profiles))
            }
        }
    }

    fn of(solution: &MtrmSolution, profiles: Option<ProfileResults>) -> Result<Self, CoreError> {
        let pooled = solution.pooled_quantiles()?;
        Ok(CampaignRows {
            r100: pooled.r100,
            r100_moments: solution.ranges.r100,
            quantiles: Some((pooled, solution.ranges)),
            profiles,
        })
    }

    fn depth(&self) -> Depth {
        match (&self.quantiles, &self.profiles) {
            (_, Some(_)) => Depth::Fused,
            (Some(_), None) => Depth::Series,
            (None, None) => Depth::R100,
        }
    }

    /// The pooled quantiles and the across-iteration moments, which
    /// [`FigureRun::campaign`] simulated for a request at
    /// [`Depth::Series`] or deeper.
    fn quantiles(&self) -> Result<&(RangeQuantiles, MobileRangeSummary), CoreError> {
        self.quantiles.as_ref().ok_or_else(|| CoreError::Invalid {
            reason: "campaign was run without its critical-range series".into(),
        })
    }

    /// The profiles, which [`FigureRun::campaign`] simulated for a
    /// request at [`Depth::Fused`].
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

    /// `key`'s campaign rows, simulated under a `campaign` span at
    /// `depth`, or fused when the run planned a later profile read of
    /// `key`. An entry already deep enough answers; a shallower one is
    /// re-run at the deeper depth and replaced.
    fn campaign(
        &mut self,
        opts: &RunOptions,
        session: &mut ObsSession,
        key: CampaignKey,
        depth: Depth,
    ) -> Result<&CampaignRows, CoreError> {
        let depth = if self.fused.contains(&key) {
            Depth::Fused
        } else {
            depth
        };
        if self.campaigns.get(&key).is_none_or(|c| c.depth() < depth) {
            session.span_enter("campaign");
            let rows = CampaignRows::simulate(opts, &key, depth);
            session.span_exit();
            self.campaigns.insert(key, rows?);
        }
        Ok(&self.campaigns[&key])
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
/// campaign of `key(l)` at `depth` and the side's `r_stationary` feed
/// `row`.
#[expect(
    clippy::too_many_arguments,
    reason = "the run context (options, session, memo) plus one figure's labels, key, depth and row"
)]
fn side_sweep<K, R>(
    opts: &RunOptions,
    session: &mut ObsSession,
    run: &mut FigureRun,
    name: &str,
    title: &str,
    headers: &[&str],
    key: K,
    depth: Depth,
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
        let rows = run.campaign(opts, session, key, depth)?;
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
    let (q, ranges) = c.quantiles()?;
    Ok(vec![
        fmt(rs),
        fmt(q.r100 / rs),
        fmt(q.r90 / rs),
        fmt(q.r10 / rs),
        fmt(q.r0 / rs),
        fmt(ranges.r100.sample_std_dev() / rs),
        fmt(ranges.r90.sample_std_dev() / rs),
    ])
}

/// Columns of Figures 4 and 5.
const COMPONENT_HEADERS: [&str; 5] = ["l", "n", "at_r90", "at_r10", "at_r0"];

/// A row of Figures 4 (random waypoint) and 5 (drunkard): average size
/// of the largest connected component (fraction of `n`) at `r90`,
/// `r10`, `r0`.
fn component_row(_rs: f64, c: &CampaignRows) -> Result<Vec<String>, CoreError> {
    let profiles = c.profiles()?;
    let (q, _) = c.quantiles()?;
    let at = |r: f64| fmt(profiles.mean_average_fraction_at(r));
    Ok(vec![at(q.r90), at(q.r10), at(q.r0)])
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
        Depth::Series,
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
        Depth::Series,
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
        Depth::Fused,
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
        Depth::Fused,
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
        Depth::Fused,
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
        let c = run.campaign(opts, session, key(x), Depth::R100)?;
        session.span_enter(&format!("{name}/point"));
        table.row(vec![
            fmt(x),
            fmt(c.r100 / rs),
            fmt(c.r100_moments.sample_std_dev() / rs),
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
        let at = |depth| {
            run.campaigns
                .values()
                .filter(|c| c.depth() == depth)
                .count()
        };
        assert_eq!(at(Depth::Fused), 8, "only the side sweeps carry profiles");
        assert_eq!(at(Depth::R100), 25, "figs 7–9 read only r100");
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
        assert!(run.campaigns.values().all(|c| c.depth() == Depth::Series));
        fig9(&opts, &mut session, &mut run).unwrap();
        assert_eq!(run.campaigns.len(), 4 + 6);
        let r100 = run.campaigns.values().filter(|c| c.depth() == Depth::R100);
        assert_eq!(r100.count(), 6, "fig9's base point is fig2's cell");
        std::fs::remove_dir_all(&opts.out_dir).ok();
    }

    /// An entry asked later for more is re-run deeper, and then holds
    /// exactly the rows of a fresh run at that depth; the r100 rows are
    /// the same bits at every depth, and a deeper entry answers every
    /// shallower request.
    #[test]
    fn a_shallow_entry_asked_for_more_matches_a_fresh_deep_run() {
        let opts = golden_opts("manet_figures_depth_test");
        let mut session = ObsSession::new("figs", &opts);
        let key = CampaignKey::paper_waypoint(&opts, 1024.0);
        let depths = [Depth::R100, Depth::Series, Depth::Fused];
        let mut run = FigureRun::default();
        let mut r100_rows = Vec::new();
        for depth in depths {
            let fresh = CampaignRows::simulate(&opts, &key, depth).unwrap();
            let rows = run.campaign(&opts, &mut session, key, depth).unwrap();
            assert_eq!(rows.depth(), depth);
            assert_eq!(format!("{rows:?}"), format!("{fresh:?}"), "{depth:?}");
            r100_rows.push(format!("{:?}", (rows.r100, rows.r100_moments)));
        }
        assert!(
            r100_rows.iter().all(|r| *r == r100_rows[0]),
            "{r100_rows:?}"
        );
        for depth in depths {
            let rows = run.campaign(&opts, &mut session, key, depth).unwrap();
            assert_eq!(rows.depth(), Depth::Fused);
        }
        std::fs::remove_dir_all(&opts.out_dir).ok();
    }
}
