//! Shared replay plumbing: the per-iteration driver, the layer
//! counters, span timing, and the CLI's number and CSV formatting
//! (replayed artifacts are compared to the CLI's byte for byte).
//!
//! Every clock read goes through the library's `SpanTimer`. A span's
//! name is the layer it charges, named after the repository's modules;
//! nesting makes its path, e.g. `replay/stream/mst`.

use manet_core::geom::Point;
use manet_core::mobility::Mobility;
use manet_core::obs::{ComponentMetrics, SpanReport, SpanTimer, StepKernelMetrics};
use manet_core::sim::SimConfig;
use manet_core::stats::SeedSequence;
use manet_core::MtrProblem;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// The connection-probability quantile behind `r_stationary`.
const R_STATIONARY_QUANTILE: f64 = 0.99;

/// Deterministic work counts of one replay. Every field repeats
/// exactly for a seed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub mtr_placements: u64,
    pub node_moves: u64,
    pub mst_calls: u64,
    pub mst_pairs: u64,
    pub merge_calls: u64,
    pub merge_pairs: u64,
    pub step: StepKernelMetrics,
    pub components: ComponentMetrics,
    /// Edges of every snapshot the step kernel produced after a step.
    pub stepped_edges: u64,
    pub probes: u64,
}

impl Counts {
    /// Asserts the step kernel's path partition: every step commits
    /// through exactly one path.
    pub fn check_partition(&self) -> Result<(), String> {
        let s = &self.step;
        let paths =
            s.incremental_steps + s.bulk_rescan_steps + s.cache_verify_steps + s.fallback_steps;
        if paths != s.steps {
            return Err(format!(
                "step paths sum to {paths}, kernel committed {} steps",
                s.steps
            ));
        }
        Ok(())
    }

    pub fn candidates(&self) -> u64 {
        self.step.moved_rescan_candidates
            + self.step.bulk_rescan_candidates
            + self.step.verify_candidates
    }
}

/// Node pairs a dense O(n²) range kernel visits for `n` nodes.
pub fn pairs(n: usize) -> u64 {
    let n = n as u64;
    n * n.saturating_sub(1) / 2
}

/// Runs `f` and returns its result with its wall time in seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let mut clock = SpanTimer::armed();
    let out = clock.time("timed", |_| f());
    (out, total_s(&clock.report(), "timed"))
}

/// Summed duration of the span path `path` in a report, in seconds.
pub fn total_s(report: &SpanReport, path: &str) -> f64 {
    report
        .spans
        .iter()
        .filter(|e| e.path == path)
        .map(|e| e.total_ns as f64 * 1e-9)
        .sum()
}

/// One traced replay reduced to per-layer self times.
pub struct LayerTimes {
    /// Spans recorded.
    pub spans: u64,
    /// Duration of the root spans: the replay's traced wall time.
    pub root_ns: u64,
    /// Self time per layer (a path's total minus its child paths'
    /// totals, charged to the path's last name).
    self_ns: BTreeMap<String, u64>,
}

impl LayerTimes {
    /// Reduces a report, checking that spans nest: every path's parent
    /// is a closed span whose total covers its children's.
    pub fn of(report: &SpanReport) -> Result<Self, String> {
        let mut child_ns: BTreeMap<&str, u64> = BTreeMap::new();
        for e in &report.spans {
            if let Some((parent, _)) = e.path.rsplit_once('/') {
                if !report.spans.iter().any(|p| p.path == parent) {
                    return Err(format!("span {} has no closed parent span", e.path));
                }
                *child_ns.entry(parent).or_default() += e.total_ns;
            }
        }
        let mut times = LayerTimes {
            spans: 0,
            root_ns: 0,
            self_ns: BTreeMap::new(),
        };
        for e in &report.spans {
            let children = child_ns.get(e.path.as_str()).copied().unwrap_or(0);
            let own = e
                .total_ns
                .checked_sub(children)
                .ok_or_else(|| format!("child spans of {} outlast it", e.path))?;
            let layer = e.path.rsplit('/').next().unwrap_or(&e.path);
            *times.self_ns.entry(layer.to_string()).or_default() += own;
            times.spans += e.count;
            if !e.path.contains('/') {
                times.root_ns += e.total_ns;
            }
        }
        Ok(times)
    }

    pub fn self_s(&self, layer: &str) -> f64 {
        self.self_ns.get(layer).copied().unwrap_or(0) as f64 * 1e-9
    }

    /// Share of the replay's wall time charged to a named layer rather
    /// than left as the root span's own time.
    pub fn attributed_fraction(&self, root: &str) -> f64 {
        if self.root_ns == 0 {
            return 0.0;
        }
        let unattributed = self.self_ns.get(root).copied().unwrap_or(0);
        1.0 - unattributed as f64 / self.root_ns as f64
    }
}

/// Consumes one iteration's positions step by step.
pub trait Observer {
    type Output;
    fn observe(
        &mut self,
        step: usize,
        positions: &[Point<2>],
        tracer: &mut SpanTimer,
        counts: &mut Counts,
    );
    fn finish(self, tracer: &mut SpanTimer, counts: &mut Counts) -> Self::Output;
}

/// Replays every iteration of `config` serially with the engine's
/// seeding (`SeedSequence::seed_for`, `place_uniform`,
/// `Mobility::init`/`step`), one `stream` span per iteration and one
/// `mobility` span per step.
pub fn drive<M, O>(
    config: &SimConfig<2>,
    model: &M,
    tracer: &mut SpanTimer,
    counts: &mut Counts,
    mut make: impl FnMut() -> O,
) -> Vec<O::Output>
where
    M: Mobility<2> + Clone,
    O: Observer,
{
    let region = config.region();
    let seq = SeedSequence::new(config.seed());
    let mut out = Vec::with_capacity(config.iterations());
    for iteration in 0..config.iterations() {
        tracer.enter("stream");
        let mut rng = rand::rngs::StdRng::seed_from_u64(seq.seed_for(iteration as u64));
        let mut positions = region.place_uniform(config.nodes(), &mut rng);
        let mut model = model.clone();
        model.init(&positions, &region, &mut rng);
        let mut observer = make();
        observer.observe(0, &positions, tracer, counts);
        for step in 1..config.steps() {
            tracer.time("mobility", |_| {
                model.step(&mut positions, &region, &mut rng)
            });
            counts.node_moves += positions.len() as u64;
            observer.observe(step, &positions, tracer, counts);
        }
        out.push(observer.finish(tracer, counts));
        tracer.exit();
    }
    out
}

/// One `r_stationary` calibration, as the CLI computes it, inside an
/// `mtr` span.
pub fn r_stationary(
    nodes: usize,
    side: f64,
    placements: usize,
    seed: u64,
    tracer: &mut SpanTimer,
    counts: &mut Counts,
) -> Result<f64, String> {
    counts.mtr_placements += placements as u64;
    tracer.time("mtr", |_| {
        MtrProblem::<2>::new(nodes, side)
            // The CLI derives the calibration seed from the master seed.
            .and_then(|p| p.r_stationary(R_STATIONARY_QUANTILE, placements, seed ^ 0x5747))
            .map_err(|e| format!("r_stationary(n={nodes}, l={side}): {e}"))
    })
}

/// The CLI's compact float format for tables and CSVs.
pub fn fmt(x: f64) -> String {
    if x == 0.0 {
        "0".into()
    } else if x.abs() >= 1000.0 {
        format!("{x:.1}")
    } else if x.abs() >= 1.0 {
        format!("{x:.3}")
    } else {
        format!("{x:.4}")
    }
}

/// The CLI's CSV layout: a header line, then one line per row.
pub fn csv(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut text = headers.join(",");
    text.push('\n');
    for row in rows {
        text.push_str(&row.join(","));
        text.push('\n');
    }
    text
}

/// Named artifacts a replay regenerates: `(file name, contents)`.
pub type Artifacts = Vec<(String, String)>;

/// Compares regenerated artifacts with the files the CLI wrote.
pub fn compare_artifacts(dir: &std::path::Path, expected: &Artifacts) -> Result<(), String> {
    for (name, text) in expected {
        let path = dir.join(name);
        let actual = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        if &actual != text {
            return Err(format!("replayed {name} differs from the CLI artifact"));
        }
    }
    Ok(())
}
