//! Replay of the `trace-large` workload (`manet-repro trace --nodes
//! 2000 --models waypoint,gauss-markov --placements 50 --iterations 1
//! --steps 60`): the range-bound lane at scale, with spans around
//! `DynamicGraph::new`/`step`, `DynamicComponents::apply` and
//! `TraceRecorder::observe_with`.

use crate::common::{self, csv, drive, fmt, Artifacts, Counts, Observer};
use manet_core::geom::Point;
use manet_core::graph::{DynamicComponents, DynamicGraph};
use manet_core::mobility::Mobility;
use manet_core::obs::{KernelMetrics, SpanTimer};
use manet_core::sim::{SimConfig, Skin};
use manet_core::trace::{TemporalRecord, TraceRecorder, TraceSummary};
use manet_core::{ModelRegistry, PaperScale};

pub const SIDE: f64 = 1024.0;
pub const NODES: usize = 2000;
pub const PLACEMENTS: usize = 50;
pub const ITERATIONS: usize = 1;
pub const STEPS: usize = 60;
pub const MODELS: [&str; 2] = ["waypoint", "gauss-markov"];
/// Range multiples of `r_stationary`, as in the CLI.
const MULTIPLIERS: [f64; 4] = [0.75, 1.0, 1.25, 1.5];

#[derive(serde::Serialize)]
struct TraceRow {
    model: String,
    multiplier: f64,
    range: f64,
    summary: TraceSummary,
}

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

/// One iteration of the connectivity stream at a fixed range, folding
/// each step into a `TraceRecorder`.
struct Traced {
    side: f64,
    range: f64,
    bound: Option<f64>,
    skin: Skin,
    state: Option<(DynamicGraph<2>, DynamicComponents)>,
    recorder: TraceRecorder,
}

impl Observer for Traced {
    type Output = TemporalRecord;

    fn observe(
        &mut self,
        _: usize,
        positions: &[Point<2>],
        tracer: &mut SpanTimer,
        counts: &mut Counts,
    ) {
        let (dg, mut dc) = match self.state.take() {
            None => {
                let dg = tracer.time("dynamic", |_| {
                    DynamicGraph::new(positions, self.side, self.range)
                        .with_displacement_bound(self.bound)
                        .with_step_threads(1)
                        .with_skin(self.skin)
                });
                (dg, DynamicComponents::new(positions.len()))
            }
            Some((mut dg, dc)) => {
                tracer.time("dynamic", |_| dg.step(positions));
                counts.stepped_edges += dg.graph().edge_count() as u64;
                (dg, dc)
            }
        };
        tracer.time("dynamic_components", |_| {
            dc.apply(dg.last_diff(), dg.graph())
        });
        let recorder = &mut self.recorder;
        tracer.time("trace", |_| {
            recorder.observe_with(dg.last_diff(), dg.graph(), &dc);
            recorder.set_kernel_metrics(&KernelMetrics {
                grid: dg.grid_metrics().copied().unwrap_or_default(),
                step: *dg.metrics(),
                components: *dc.metrics(),
            });
        });
        self.state = Some((dg, dc));
    }

    fn finish(self, tracer: &mut SpanTimer, counts: &mut Counts) -> TemporalRecord {
        if let Some((dg, dc)) = &self.state {
            counts.step.merge(dg.metrics());
            counts.components.merge(dc.metrics());
        }
        let recorder = self.recorder;
        tracer.time("trace", |_| recorder.finish())
    }
}

fn opt(v: Option<f64>) -> String {
    v.map(fmt).unwrap_or_else(|| "-".into())
}

/// Replays the trace sweep and returns `trace.csv` and `trace.json`.
pub fn replay(seed: u64, tracer: &mut SpanTimer, counts: &mut Counts) -> Result<Artifacts, String> {
    let rs = common::r_stationary(NODES, SIDE, PLACEMENTS, seed, tracer, counts)?;
    let pause = ((2000.0 * STEPS as f64) / 10_000.0).round() as u32;
    let scale = PaperScale::new(SIDE).with_pause(pause);
    let registry = ModelRegistry::<2>::with_builtins();
    let mut b = SimConfig::<2>::builder();
    b.nodes(NODES)
        .side(SIDE)
        .iterations(ITERATIONS)
        .steps(STEPS)
        .seed(seed)
        .threads(1)
        .step_threads(1);
    let cfg = b.build().map_err(|e| e.to_string())?;
    let mut table = Vec::new();
    let mut rows = Vec::new();
    for name in MODELS {
        let model = registry
            .build(name, &scale)
            .map_err(|e| format!("model {name}: {e}"))?;
        for mult in MULTIPLIERS {
            let range = rs * mult;
            let records = drive(&cfg, &model, tracer, counts, || Traced {
                side: SIDE,
                range,
                bound: model.max_step_displacement(),
                skin: cfg.skin(),
                state: None,
                recorder: TraceRecorder::new(NODES, STEPS),
            });
            let s = TraceSummary::aggregate(&records).map_err(|e| e.to_string())?;
            table.push(vec![
                name.to_string(),
                fmt(mult),
                fmt(s.availability),
                fmt(s.path_availability),
                opt(s.link_lifetime.mean),
                opt(s.link_lifetime.p90),
                opt(s.inter_contact.mean),
                s.outage.count.to_string(),
                opt(s.outage.mean),
                opt(s.repair.mean_time_to_repair),
                fmt(s.link_events_per_step),
                s.peak_churn.to_string(),
            ]);
            rows.push(TraceRow {
                model: name.to_string(),
                multiplier: mult,
                range,
                summary: s,
            });
        }
    }
    let headers = [
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
    ];
    let artifact = TraceArtifact {
        side: SIDE,
        nodes: NODES,
        iterations: ITERATIONS,
        steps: STEPS,
        seed,
        r_stationary: rs,
        rows,
    };
    let json = serde_json::to_string(&artifact).map_err(|e| e.to_string())?;
    Ok(vec![
        ("trace.csv".into(), csv(&headers, &table)),
        ("trace.json".into(), json),
    ])
}
