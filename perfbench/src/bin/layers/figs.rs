//! Replay of `manet-repro figs --quick`: Figures 2–9 on the
//! positions-only lane (`mobility`, `mst::critical_range` on every
//! step, `MergeProfile::of` on every 5th step), with the CLI's call
//! structure: 15 `r_stationary` calibrations and two trajectories per
//! Figure 4/5 cell.

use crate::common::{self, csv, drive, fmt, pairs, Artifacts, Counts, Observer};
use manet_core::geom::Point;
use manet_core::graph::{critical_range, MergeProfile};
use manet_core::mobility::{Mobility, RandomWaypoint};
use manet_core::obs::SpanTimer;
use manet_core::sim::{
    CriticalRangeResults, ProfileResults, RangeQuantiles, RangeSizeProfile, SimConfig,
};
use manet_core::stats::FrozenSeries;
use manet_core::{AnyModel, ModelRegistry, PaperScale};

/// `--quick`: iterations, steps and calibration placements.
const ITERATIONS: usize = 5;
const STEPS: usize = 500;
pub const PLACEMENTS: usize = 200;
/// The paper's system sizes; `n = √l`.
pub const SIDES: [f64; 4] = [256.0, 1024.0, 4096.0, 16384.0];
/// The single cell of Figures 7–9.
const SWEEP_SIDE: f64 = 4096.0;
const SWEEP_NODES: usize = 64;
const PROFILE_STRIDE: usize = 5;

pub fn nodes_for_side(l: f64) -> usize {
    (l.sqrt().round() as usize).max(2)
}

/// Pause times the paper ties to its 10000-step horizon, scaled to the
/// quick horizon.
fn scale_steps(paper_value: u32) -> u32 {
    ((paper_value as f64) * STEPS as f64 / 10_000.0).round() as u32
}

fn paper_model(name: &str, l: f64) -> Result<AnyModel<2>, String> {
    ModelRegistry::<2>::with_builtins()
        .build(name, &PaperScale::new(l).with_pause(scale_steps(2000)))
        .map_err(|e| format!("model {name}: {e}"))
}

fn waypoint(v_max: f64, pause: u32, p_stationary: f64) -> Result<AnyModel<2>, String> {
    RandomWaypoint::new(0.1, v_max, pause, p_stationary)
        .map(AnyModel::from)
        .map_err(|e| format!("waypoint: {e}"))
}

fn config(l: f64, n: usize, seed: u64) -> Result<SimConfig<2>, String> {
    let mut b = SimConfig::<2>::builder();
    b.nodes(n)
        .side(l)
        .iterations(ITERATIONS)
        .steps(STEPS)
        .seed(seed)
        .threads(1)
        .profile_stride(PROFILE_STRIDE);
    b.build().map_err(|e| e.to_string())
}

struct Critical(Vec<f64>);

impl Observer for Critical {
    type Output = Vec<f64>;

    fn observe(
        &mut self,
        _: usize,
        positions: &[Point<2>],
        tracer: &mut SpanTimer,
        counts: &mut Counts,
    ) {
        let c = tracer.time("mst", |_| critical_range(positions));
        counts.mst_calls += 1;
        counts.mst_pairs += pairs(positions.len());
        self.0.push(c);
    }

    fn finish(self, _: &mut SpanTimer, _: &mut Counts) -> Vec<f64> {
        self.0
    }
}

struct Profile(RangeSizeProfile);

impl Observer for Profile {
    type Output = RangeSizeProfile;

    fn observe(
        &mut self,
        step: usize,
        positions: &[Point<2>],
        tracer: &mut SpanTimer,
        counts: &mut Counts,
    ) {
        if !step.is_multiple_of(PROFILE_STRIDE) {
            return;
        }
        let merge = tracer.time("merge", |_| MergeProfile::of(positions));
        counts.merge_calls += 1;
        counts.merge_pairs += pairs(positions.len());
        self.0.accumulate(&merge);
    }

    fn finish(self, _: &mut SpanTimer, _: &mut Counts) -> RangeSizeProfile {
        self.0
    }
}

/// The critical-range campaign of `MtrmProblem::solve`.
fn solve<M: Mobility<2> + Clone>(
    cfg: &SimConfig<2>,
    model: &M,
    tracer: &mut SpanTimer,
    counts: &mut Counts,
) -> Result<CriticalRangeResults, String> {
    let raw = drive(cfg, model, tracer, counts, || {
        Critical(Vec::with_capacity(cfg.steps()))
    });
    let series = raw
        .into_iter()
        .map(FrozenSeries::new)
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    Ok(CriticalRangeResults::from_series(series))
}

/// The merge-profile campaign of `MtrmProblem::component_profiles`.
fn profiles<M: Mobility<2> + Clone>(
    cfg: &SimConfig<2>,
    model: &M,
    tracer: &mut SpanTimer,
    counts: &mut Counts,
) -> Result<ProfileResults, String> {
    let empty = RangeSizeProfile::new(cfg.nodes(), cfg.profile_max_range(), cfg.profile_bins())
        .map_err(|e| e.to_string())?;
    let per_iteration = drive(cfg, model, tracer, counts, || Profile(empty.clone()));
    Ok(ProfileResults::from_profiles(per_iteration))
}

fn pooled_quantiles(
    critical: &CriticalRangeResults,
) -> Result<(FrozenSeries, RangeQuantiles), String> {
    let pooled = critical.pooled().map_err(|e| e.to_string())?;
    let q = RangeQuantiles::from_series(&pooled).map_err(|e| e.to_string())?;
    Ok((pooled, q))
}

/// Figures 2 and 3.
fn range_ratio(
    name: &str,
    model_name: &str,
    seed: u64,
    tracer: &mut SpanTimer,
    counts: &mut Counts,
) -> Result<(String, String), String> {
    let mut rows = Vec::new();
    for &l in &SIDES {
        let n = nodes_for_side(l);
        let rs = common::r_stationary(n, l, PLACEMENTS, seed, tracer, counts)?;
        let cfg = config(l, n, seed)?;
        let critical = solve(&cfg, &paper_model(model_name, l)?, tracer, counts)?;
        let (_, q) = pooled_quantiles(&critical)?;
        let ranges = critical.summary().map_err(|e| e.to_string())?;
        rows.push(vec![
            fmt(l),
            n.to_string(),
            fmt(rs),
            fmt(q.r100 / rs),
            fmt(q.r90 / rs),
            fmt(q.r10 / rs),
            fmt(q.r0 / rs),
            fmt(ranges.r100.sample_std_dev() / rs),
            fmt(ranges.r90.sample_std_dev() / rs),
        ]);
    }
    let headers = [
        "l", "n", "r_stat", "r100/rs", "r90/rs", "r10/rs", "r0/rs", "r100_sd", "r90_sd",
    ];
    Ok((format!("{name}.csv"), csv(&headers, &rows)))
}

/// Figures 4 and 5.
fn component(
    name: &str,
    model_name: &str,
    seed: u64,
    tracer: &mut SpanTimer,
    counts: &mut Counts,
) -> Result<(String, String), String> {
    let mut rows = Vec::new();
    for &l in &SIDES {
        let n = nodes_for_side(l);
        let cfg = config(l, n, seed)?;
        let model = paper_model(model_name, l)?;
        let (_, q) = pooled_quantiles(&solve(&cfg, &model, tracer, counts)?)?;
        let profiles = profiles(&cfg, &model, tracer, counts)?;
        let at = |r: f64| fmt(profiles.mean_average_fraction_at(r));
        rows.push(vec![fmt(l), n.to_string(), at(q.r90), at(q.r10), at(q.r0)]);
    }
    let headers = ["l", "n", "at_r90", "at_r10", "at_r0"];
    Ok((format!("{name}.csv"), csv(&headers, &rows)))
}

/// Figure 6.
fn fig6(
    seed: u64,
    tracer: &mut SpanTimer,
    counts: &mut Counts,
) -> Result<(String, String), String> {
    let mut rows = Vec::new();
    for &l in &SIDES {
        let n = nodes_for_side(l);
        let rs = common::r_stationary(n, l, PLACEMENTS, seed, tracer, counts)?;
        let cfg = config(l, n, seed)?;
        let profiles = profiles(&cfg, &paper_model("waypoint", l)?, tracer, counts)?;
        let mut cells = vec![fmt(l), n.to_string(), fmt(rs)];
        for f in [0.9, 0.75, 0.5] {
            let rl = profiles
                .mean_range_for_average_fraction(f)
                .map_err(|e| e.to_string())?;
            cells.push(fmt(rl / rs));
        }
        rows.push(cells);
    }
    let headers = ["l", "n", "r_stat", "rl90/rs", "rl75/rs", "rl50/rs"];
    Ok(("fig6.csv".into(), csv(&headers, &rows)))
}

/// Figures 7–9: one `r_stationary` and one campaign per sweep point.
fn sweep_r100(
    name: &str,
    axis: &str,
    points: &[f64],
    make_model: impl Fn(f64) -> Result<AnyModel<2>, String>,
    seed: u64,
    tracer: &mut SpanTimer,
    counts: &mut Counts,
) -> Result<(String, String), String> {
    let rs = common::r_stationary(SWEEP_NODES, SWEEP_SIDE, PLACEMENTS, seed, tracer, counts)?;
    let cfg = config(SWEEP_SIDE, SWEEP_NODES, seed)?;
    let mut rows = Vec::new();
    for &x in points {
        let critical = solve(&cfg, &make_model(x)?, tracer, counts)?;
        let (pooled, _) = pooled_quantiles(&critical)?;
        let ranges = critical.summary().map_err(|e| e.to_string())?;
        rows.push(vec![
            fmt(x),
            fmt(pooled.max() / rs),
            fmt(ranges.r100.sample_std_dev() / rs),
        ]);
    }
    Ok((
        format!("{name}.csv"),
        csv(&[axis, "r100/rs", "r100_sd/rs"], &rows),
    ))
}

/// Figure 7's axis: a coarse 0..1 grid plus the 0.40–0.60 window.
fn fig7_points() -> Vec<f64> {
    let mut points: Vec<f64> = vec![0.0, 0.2, 0.8, 1.0];
    let mut p: f64 = 0.40;
    while p <= 0.601 {
        points.push((p * 100.0).round() / 100.0);
        p += 0.02;
    }
    points.sort_by(f64::total_cmp);
    points
}

/// Replays Figures 2–9 and returns their CSVs.
pub fn replay(seed: u64, tracer: &mut SpanTimer, counts: &mut Counts) -> Result<Artifacts, String> {
    let pause = scale_steps(2000);
    let vmax = 0.01 * SWEEP_SIDE;
    let fig8_points: Vec<f64> = [0u32, 2000, 4000, 6000, 8000, 10_000]
        .iter()
        .map(|&t| scale_steps(t) as f64)
        .collect();
    let fig9_points = [0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5];
    Ok(vec![
        range_ratio("fig2", "waypoint", seed, tracer, counts)?,
        range_ratio("fig3", "drunkard", seed, tracer, counts)?,
        component("fig4", "waypoint", seed, tracer, counts)?,
        component("fig5", "drunkard", seed, tracer, counts)?,
        fig6(seed, tracer, counts)?,
        sweep_r100(
            "fig7",
            "p_stat",
            &fig7_points(),
            |p| waypoint(vmax, pause, p),
            seed,
            tracer,
            counts,
        )?,
        sweep_r100(
            "fig8",
            "t_pause",
            &fig8_points,
            |t| waypoint(vmax, t as u32, 0.0),
            seed,
            tracer,
            counts,
        )?,
        sweep_r100(
            "fig9",
            "vmax/l",
            &fig9_points,
            |v| waypoint(v * SWEEP_SIDE, pause, 0.0),
            seed,
            tracer,
            counts,
        )?,
    ])
}
