//! Differential oracle for the recorder's link table: along every
//! registry model's trajectory, [`TraceRecorder`] must produce exactly
//! the [`TemporalRecord`] of a reference fold that keeps open link
//! intervals and open contact gaps in two `BTreeMap`s keyed by the
//! pair, the recorder's earlier bookkeeping.

use manet_geom::{Point, Region};
use manet_graph::{AdjacencyList, DynamicComponents, DynamicGraph, EdgeDiff};
use manet_mobility::{Mobility, ModelRegistry, PaperScale};
use manet_obs::KernelMetrics;
use manet_trace::{IntervalAccumulator, TemporalRecord, TraceRecorder};
use rand::SeedableRng;
use std::collections::BTreeMap;

const SIDE: f64 = 1000.0;

/// The reference fold: the same metrics as [`TraceRecorder`], with
/// each pair's open interval looked up in one of two maps.
struct MapFold {
    nodes: usize,
    steps_seen: usize,
    up_since: BTreeMap<(u32, u32), usize>,
    down_since: BTreeMap<(u32, u32), usize>,
    isolated_since: Vec<Option<usize>>,
    lifetimes: IntervalAccumulator,
    intercontacts: IntervalAccumulator,
    isolation: IntervalAccumulator,
    outages: IntervalAccumulator,
    link_up_events: u64,
    link_down_events: u64,
    peak_churn: usize,
    connected_steps: usize,
    path_connectivity_sum: f64,
    down_run_start: Option<usize>,
    first_disconnect_at: Option<usize>,
    time_to_repair: Option<usize>,
}

impl MapFold {
    fn new(nodes: usize, steps: usize) -> Self {
        MapFold {
            nodes,
            steps_seen: 0,
            up_since: BTreeMap::new(),
            down_since: BTreeMap::new(),
            isolated_since: vec![None; nodes],
            lifetimes: IntervalAccumulator::new(steps),
            intercontacts: IntervalAccumulator::new(steps),
            isolation: IntervalAccumulator::new(steps),
            outages: IntervalAccumulator::new(steps),
            link_up_events: 0,
            link_down_events: 0,
            peak_churn: 0,
            connected_steps: 0,
            path_connectivity_sum: 0.0,
            down_run_start: None,
            first_disconnect_at: None,
            time_to_repair: None,
        }
    }

    fn observe(&mut self, diff: &EdgeDiff, graph: &AdjacencyList, components: &DynamicComponents) {
        let t = self.steps_seen;
        for &pair in &diff.removed {
            if let Some(up) = self.up_since.remove(&pair) {
                self.lifetimes.record(t - up);
            }
            self.down_since.insert(pair, t);
            self.link_down_events += 1;
        }
        for &pair in &diff.added {
            if let Some(down) = self.down_since.remove(&pair) {
                self.intercontacts.record(t - down);
            }
            self.up_since.insert(pair, t);
            self.link_up_events += 1;
        }
        if t > 0 {
            self.peak_churn = self.peak_churn.max(diff.churn());
        }
        for i in 0..self.nodes {
            match (self.isolated_since[i], graph.degree(i) == 0) {
                (None, true) => self.isolated_since[i] = Some(t),
                (Some(since), false) => {
                    self.isolation.record(t - since);
                    self.isolated_since[i] = None;
                }
                _ => {}
            }
        }
        let ordered_pairs = (self.nodes as u64 * (self.nodes as u64 - 1)) as f64;
        self.path_connectivity_sum += components.ordered_reachable_pairs() as f64 / ordered_pairs;
        if components.is_connected() {
            self.connected_steps += 1;
            if let Some(start) = self.down_run_start.take() {
                self.outages.record(t - start);
                self.time_to_repair.get_or_insert(t - start);
            }
        } else if self.down_run_start.is_none() {
            self.down_run_start = Some(t);
            self.first_disconnect_at.get_or_insert(t);
        }
        self.steps_seen += 1;
    }

    fn finish(mut self) -> TemporalRecord {
        for _ in 0..self.up_since.len() {
            self.lifetimes.record_censored();
        }
        for _ in 0..self.down_since.len() {
            self.intercontacts.record_censored();
        }
        for _ in self.isolated_since.iter().flatten() {
            self.isolation.record_censored();
        }
        if self.down_run_start.is_some() {
            self.outages.record_censored();
        }
        let steps = self.steps_seen as f64;
        TemporalRecord {
            nodes: self.nodes,
            steps: self.steps_seen,
            lifetimes: self.lifetimes,
            intercontacts: self.intercontacts,
            isolation: self.isolation,
            outages: self.outages,
            link_up_events: self.link_up_events,
            link_down_events: self.link_down_events,
            peak_churn: self.peak_churn,
            connected_steps: self.connected_steps,
            availability: self.connected_steps as f64 / steps,
            path_availability: self.path_connectivity_sum / steps,
            first_disconnect_at: self.first_disconnect_at,
            time_to_repair: self.time_to_repair,
            kernel: KernelMetrics::default(),
        }
    }
}

/// Runs every registry model at `n` nodes for `steps` steps, at a
/// range with a mean degree of about 8, and asserts that the recorder
/// and the reference fold agree on the whole record.
fn differential(n: usize, steps: usize) {
    let region: Region<2> = Region::new(SIDE).unwrap();
    let range = SIDE * (8.0 / (std::f64::consts::PI * n as f64)).sqrt();
    let scale = PaperScale::new(SIDE).with_pause((steps / 5) as u32);
    let registry = ModelRegistry::<2>::with_builtins();
    let mut models = 0;
    for (seed, name) in registry.names().into_iter().enumerate() {
        let mut model = registry.build(name, &scale).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x7AB1E + seed as u64);
        let mut positions: Vec<Point<2>> = region.place_uniform(n, &mut rng);
        model.init(&positions, &region, &mut rng);
        let mut dg = DynamicGraph::new(&positions, SIDE, range)
            .with_displacement_bound(model.max_step_displacement());
        let mut components = DynamicComponents::new(n);
        let mut recorder = TraceRecorder::new(n, steps);
        let mut reference = MapFold::new(n, steps);
        let initial = dg.initial_diff();
        components.apply(&initial, dg.graph());
        recorder.observe_with(&initial, dg.graph(), &components);
        reference.observe(&initial, dg.graph(), &components);
        for _ in 1..steps {
            model.step(&mut positions, &region, &mut rng);
            dg.step(&positions);
            components.apply(dg.last_diff(), dg.graph());
            recorder.observe_with(dg.last_diff(), dg.graph(), &components);
            reference.observe(dg.last_diff(), dg.graph(), &components);
        }
        let got = recorder.finish();
        let want = reference.finish();
        assert_eq!(got, want, "{name} n={n}: link table against reference fold");
        if name != "stationary" {
            assert!(
                got.lifetimes.count() > 0 && got.intercontacts.count() > 0,
                "{name} n={n}: the trajectory must re-link some pair"
            );
        }
        models += 1;
    }
    assert_eq!(models, 13, "every registry model is covered");
}

#[test]
fn link_table_matches_reference_fold_at_n64() {
    differential(64, 120);
}

#[test]
fn link_table_matches_reference_fold_at_n256() {
    differential(256, 60);
}

#[test]
#[ignore = "release-only oracle; run by CI"]
fn link_table_matches_reference_fold_at_scale() {
    differential(2000, 60);
}
