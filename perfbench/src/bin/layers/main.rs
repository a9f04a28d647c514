//! `layers` — the in-process half of the `manet-repro` benchmark.
//!
//! `perfbench/run.py` times the CLI end to end as a child process; this
//! binary does everything that needs the library in-process, one
//! subcommand per call, each printing one JSON object on stdout:
//!
//! ```text
//! layers argv   --workload W                 the CLI arguments of workload W
//! layers host                                the host/build block
//! layers setup  --workload W --seed S --seconds T
//!                                            W's set-up, repeated for >= T s
//! layers replay --workload W --seed S --seconds T --artifacts DIR
//!                                            traced + untraced replays of W,
//!                                            checked against the CLI's DIR
//! layers probe                               the host-speed probe, timed
//! ```
//!
//! It starts no threads of its own; the `critical-scaling` replay runs
//! the library's `SweepScheduler` at two workers.

mod common;
mod figs;
mod probe;
mod scaling;
mod trace_large;

use common::{compare_artifacts, fmt, timed, total_s, Artifacts, Counts, LayerTimes};
use manet_core::obs::SpanTimer;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Figs,
    TraceLarge,
    CriticalScaling,
}

impl Workload {
    fn parse(name: &str) -> Result<Self, String> {
        match name {
            "figs" => Ok(Workload::Figs),
            "trace-large" => Ok(Workload::TraceLarge),
            "critical-scaling" => Ok(Workload::CriticalScaling),
            other => Err(format!(
                "unknown workload `{other}` (figs, trace-large, critical-scaling)"
            )),
        }
    }

    /// `manet-repro` arguments, without `--seed` and `--out`. Every
    /// workload runs serial so the figures measure the program, not
    /// the host's scheduler.
    fn argv(self) -> Vec<String> {
        let args = match self {
            Workload::Figs => "figs --quick".to_string(),
            Workload::TraceLarge => format!(
                "trace --nodes {} --models {} --placements {} --iterations {} --steps {}",
                trace_large::NODES,
                trace_large::MODELS.join(","),
                trace_large::PLACEMENTS,
                trace_large::ITERATIONS,
                trace_large::STEPS,
            ),
            Workload::CriticalScaling => "critical-scaling --quick".to_string(),
        };
        format!("{args} --threads 1 --step-threads 1")
            .split(' ')
            .map(String::from)
            .collect()
    }

    /// The distinct `(n, l, placements)` calibrations the CLI makes.
    fn calibrations(self) -> Vec<(usize, f64, usize)> {
        match self {
            Workload::Figs => figs::SIDES
                .iter()
                .map(|&l| (figs::nodes_for_side(l), l, figs::PLACEMENTS))
                .collect(),
            Workload::TraceLarge => vec![(
                trace_large::NODES,
                trace_large::SIDE,
                trace_large::PLACEMENTS,
            )],
            Workload::CriticalScaling => Vec::new(),
        }
    }
}

struct Opts {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    artifacts: Option<PathBuf>,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut opts = Opts {
            workload: None,
            seed: 20_020_623,
            seconds: 1.0,
            artifacts: None,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("{flag} requires a value"))?;
            match flag.as_str() {
                "--workload" => opts.workload = Some(Workload::parse(value)?),
                "--seed" => opts.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
                "--seconds" => {
                    opts.seconds = value
                        .parse()
                        .map_err(|_| format!("bad --seconds {value}"))?
                }
                "--artifacts" => opts.artifacts = Some(PathBuf::from(value)),
                other => return Err(format!("unknown option `{other}`")),
            }
        }
        Ok(opts)
    }

    fn workload(&self) -> Result<Workload, String> {
        self.workload.ok_or_else(|| "--workload is required".into())
    }
}

#[derive(serde::Serialize)]
struct Host {
    available_parallelism: usize,
    compiled_features: Vec<&'static str>,
    profile: &'static str,
}

#[derive(serde::Serialize)]
struct Calibration {
    nodes: usize,
    side: f64,
    placements: usize,
    value: f64,
    formatted: String,
}

#[derive(serde::Serialize)]
struct Setup {
    /// Wall time of each set-up pass.
    passes_s: Vec<f64>,
    r_stationary: Vec<Calibration>,
}

#[derive(serde::Serialize)]
struct Probe {
    seconds: f64,
    checksum: u64,
}

#[derive(serde::Serialize)]
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

#[derive(serde::Serialize)]
struct Check {
    name: &'static str,
    ok: bool,
    detail: String,
}

#[derive(serde::Serialize)]
struct Replay {
    replays: usize,
    spans: u64,
    metrics: Vec<Metric>,
    checks: Vec<Check>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(json) => println!("{json}"),
        Err(e) => {
            eprintln!("layers: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &[String]) -> Result<String, String> {
    let command = args
        .first()
        .ok_or("usage: layers <argv|host|setup|replay|probe> [options]")?;
    let opts = Opts::parse(&args[1..])?;
    let json = match command.as_str() {
        "argv" => serde_json::to_string(&opts.workload()?.argv()),
        "host" => serde_json::to_string(&Host {
            available_parallelism: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            compiled_features: manet_core::compiled_features(),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        }),
        "setup" => serde_json::to_string(&setup(opts.workload()?, opts.seed, opts.seconds)?),
        "replay" => {
            let dir = opts.artifacts.clone().ok_or("--artifacts is required")?;
            serde_json::to_string(&replay(opts.workload()?, opts.seed, opts.seconds, &dir)?)
        }
        "probe" => {
            let (checksum, seconds) = timed(probe::work);
            serde_json::to_string(&Probe { seconds, checksum })
        }
        other => return Err(format!("unknown command `{other}`")),
    };
    json.map_err(|e| e.to_string())
}

/// Repeats the workload's set-up until `seconds` have passed (at least
/// once): the `r_stationary` calibrations where the subcommand
/// calibrates, the probes' stream construction where it does not.
fn setup(workload: Workload, seed: u64, seconds: f64) -> Result<Setup, String> {
    let mut passes_s: Vec<f64> = Vec::new();
    let mut r_stationary = Vec::new();
    while passes_s.is_empty() || passes_s.iter().sum::<f64>() < seconds {
        let (values, pass_s) = timed(|| -> Result<Vec<f64>, String> {
            let mut tracer = SpanTimer::disarmed();
            let mut counts = Counts::default();
            let mut values = Vec::new();
            for (n, l, placements) in workload.calibrations() {
                values.push(common::r_stationary(
                    n,
                    l,
                    placements,
                    seed,
                    &mut tracer,
                    &mut counts,
                )?);
            }
            if workload == Workload::CriticalScaling {
                scaling::construction_pass(seed)?;
            }
            Ok(values)
        });
        let values = values?;
        passes_s.push(pass_s);
        if r_stationary.is_empty() {
            for ((nodes, side, placements), value) in
                workload.calibrations().into_iter().zip(values)
            {
                r_stationary.push(Calibration {
                    nodes,
                    side,
                    placements,
                    value,
                    formatted: fmt(value),
                });
            }
        }
    }
    Ok(Setup {
        passes_s,
        r_stationary,
    })
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Name of the root span around one traced replay.
const ROOT: &str = "replay";

/// Per-layer numbers of one replay: busy times of the traced run plus
/// its wall times and work counts.
struct Sample {
    report: Option<LayerTimes>,
    traced_s: f64,
    untraced_s: f64,
    sweep: Option<scaling::SweepTimes>,
}

fn replay(
    workload: Workload,
    seed: u64,
    seconds: f64,
    dir: &std::path::Path,
) -> Result<Replay, String> {
    // Check name -> first failure (empty while it holds).
    let mut checks: BTreeMap<&'static str, String> = BTreeMap::new();
    let mut check = |name: &'static str, result: Result<(), String>| {
        let detail = checks.entry(name).or_default();
        if let (Err(e), true) = (result, detail.is_empty()) {
            *detail = e;
        }
    };
    let mut samples: Vec<Sample> = Vec::new();
    let mut first: Option<(Artifacts, Counts)> = None;
    let mut spans = 0;
    let mut spent_s = 0.0;
    while samples.is_empty() || spent_s < seconds {
        let mut runs: Vec<(Artifacts, Counts)> = Vec::new();
        let sample = if workload == Workload::CriticalScaling {
            let mut counts = Counts::default();
            let (artifacts, times) = scaling::sweep(seed, &mut counts)?;
            runs.push((artifacts, counts));
            Sample {
                report: None,
                traced_s: times.makespan_s,
                untraced_s: 0.0,
                sweep: Some(times),
            }
        } else {
            let replay_fn = match workload {
                Workload::Figs => figs::replay,
                _ => trace_large::replay,
            };
            let mut tracer = SpanTimer::armed();
            let mut counts = Counts::default();
            let artifacts = tracer.time(ROOT, |t| replay_fn(seed, t, &mut counts))?;
            let span_report = tracer.report();
            let report = LayerTimes::of(&span_report);
            check(
                "spans nest",
                report.as_ref().map(|_| ()).map_err(Clone::clone),
            );
            let report = report.ok();
            let traced_s = total_s(&span_report, ROOT);
            spans = report.as_ref().map_or(0, |r| r.spans);
            runs.push((artifacts, counts));

            let mut counts = Counts::default();
            let (artifacts, untraced_s) =
                timed(|| replay_fn(seed, &mut SpanTimer::disarmed(), &mut counts));
            runs.push((artifacts?, counts));
            Sample {
                report,
                traced_s,
                untraced_s,
                sweep: None,
            }
        };
        for (artifacts, counts) in runs {
            check("kernel path partition", counts.check_partition());
            match &first {
                None => {
                    check(
                        "replay reproduces the CLI artifacts",
                        compare_artifacts(dir, &artifacts),
                    );
                    first = Some((artifacts, counts));
                }
                Some((a, c)) => {
                    let same = if a != &artifacts {
                        Err("a replay's artifacts differ from the first replay's".to_string())
                    } else if c != &counts {
                        Err(format!(
                            "counts differ between replays: {c:?} vs {counts:?}"
                        ))
                    } else {
                        Ok(())
                    };
                    check("replays repeat exactly", same);
                }
            }
        }
        spent_s += sample.traced_s + sample.untraced_s;
        samples.push(sample);
    }
    let counts = first.map(|(_, c)| c).unwrap_or_default();
    let attributed = if workload == Workload::CriticalScaling {
        // The share of worker time spent inside jobs.
        median(
            &samples
                .iter()
                .filter_map(|s| s.sweep.as_ref())
                .map(|t| t.busy_s / (scaling::WORKERS as f64 * t.makespan_s))
                .collect::<Vec<_>>(),
        )
    } else {
        let fraction = median(
            &samples
                .iter()
                .filter_map(|s| s.report.as_ref().map(|r| r.attributed_fraction(ROOT)))
                .collect::<Vec<_>>(),
        );
        check(
            "layer self times cover >= 0.9 of replay wall",
            if fraction >= 0.9 {
                Ok(())
            } else {
                Err(format!("attributed fraction {fraction:.4} < 0.9"))
            },
        );
        fraction
    };
    let metrics = metrics(workload, &samples, &counts, attributed);
    Ok(Replay {
        replays: samples.len(),
        spans,
        metrics,
        checks: checks
            .into_iter()
            .map(|(name, detail)| Check {
                name,
                ok: detail.is_empty(),
                detail,
            })
            .collect(),
    })
}

/// Every per-layer metric; layers a workload never calls read zero.
fn metrics(
    workload: Workload,
    samples: &[Sample],
    counts: &Counts,
    attributed: f64,
) -> Vec<Metric> {
    let layer_s = |layer: &str| {
        median(
            &samples
                .iter()
                .filter_map(|s| s.report.as_ref().map(|r| r.self_s(layer)))
                .collect::<Vec<_>>(),
        )
    };
    let sweep_s = |f: fn(&scaling::SweepTimes) -> f64| {
        median(
            &samples
                .iter()
                .filter_map(|s| s.sweep.as_ref().map(f))
                .collect::<Vec<_>>(),
        )
    };
    let traced = median(&samples.iter().map(|s| s.traced_s).collect::<Vec<_>>());
    let overhead = if workload == Workload::CriticalScaling {
        0.0
    } else {
        traced - median(&samples.iter().map(|s| s.untraced_s).collect::<Vec<_>>())
    };
    let step = &counts.step;
    let components = &counts.components;
    let candidates = counts.candidates();
    let hit_ratio = if candidates == 0 {
        0.0
    } else {
        counts.stepped_edges as f64 / candidates as f64
    };
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("mtr.calibration_s", layer_s("mtr"), "s"),
        m("mtr.placements", counts.mtr_placements as f64, "count"),
        m("mobility.busy_s", layer_s("mobility"), "s"),
        m("mobility.node_moves", counts.node_moves as f64, "count"),
        m("mst.busy_s", layer_s("mst"), "s"),
        m("mst.calls", counts.mst_calls as f64, "count"),
        m("mst.pairs", counts.mst_pairs as f64, "count"),
        m("merge.busy_s", layer_s("merge"), "s"),
        m("merge.calls", counts.merge_calls as f64, "count"),
        m("merge.pairs", counts.merge_pairs as f64, "count"),
        m("dynamic.busy_s", layer_s("dynamic"), "s"),
        m(
            "dynamic.steps.incremental",
            step.incremental_steps as f64,
            "count",
        ),
        m("dynamic.steps.bulk", step.bulk_rescan_steps as f64, "count"),
        m(
            "dynamic.steps.cache_verify",
            step.cache_verify_steps as f64,
            "count",
        ),
        m(
            "dynamic.steps.fallback",
            step.fallback_steps as f64,
            "count",
        ),
        m("dynamic.candidates", candidates as f64, "count"),
        m(
            "dynamic.edge_events",
            (step.edges_added + step.edges_removed) as f64,
            "count",
        ),
        m("dynamic.hit_ratio", hit_ratio, "ratio"),
        m(
            "dynamic_components.busy_s",
            layer_s("dynamic_components"),
            "s",
        ),
        m(
            "dynamic_components.partial_rebuilds",
            components.partial_rebuilds as f64,
            "count",
        ),
        m(
            "dynamic_components.full_rebuilds",
            components.full_rebuilds as f64,
            "count",
        ),
        m(
            "dynamic_components.nodes_relabeled",
            (components.partial_nodes_relabeled + components.full_nodes_relabeled) as f64,
            "count",
        ),
        m("trace.busy_s", layer_s("trace"), "s"),
        m("stream.self_s", layer_s("stream"), "s"),
        m("scaling.probes", counts.probes as f64, "count"),
        m(
            "scaling.kernel_steps",
            if workload == Workload::CriticalScaling {
                step.steps as f64
            } else {
                0.0
            },
            "count",
        ),
        m("sweep.busy_s", sweep_s(|t| t.busy_s), "s"),
        m("sweep.idle_s", sweep_s(|t| t.idle_s), "s"),
        m("replay.wall_s", traced, "s"),
        m("replay.attributed_fraction", attributed, "fraction"),
        m("tracing.overhead_s", overhead, "s"),
    ]
}
