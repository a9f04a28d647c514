//! The per-trajectory event folder.
//!
//! A [`TraceRecorder`] consumes one trajectory's stream of edge deltas
//! (from [`manet_graph::DynamicGraph`]) plus the per-step snapshot, and
//! folds it into a [`TemporalRecord`]: link lifetimes, inter-contact
//! times, per-node isolation spells, connectivity episodes (partition
//! outages, time-to-repair) and path availability. All bookkeeping on
//! the edge stream is proportional to the number of *changed* edges,
//! which is what makes tracing cheap enough to run at every step.

use crate::intervals::IntervalAccumulator;
use manet_graph::{AdjacencyList, DynamicComponents, EdgeDiff};
use manet_obs::KernelMetrics;

/// Bit 31 of a link entry: set while the pair is linked.
const UP: u64 = 1 << 31;

/// Largest step a link entry can stamp (31 bits).
const MAX_STAMP: usize = (UP - 1) as usize;

/// Packs a link entry: partner `b`, the up bit and step `since`.
fn pack(b: u32, up: bool, since: usize) -> u64 {
    (u64::from(b) << 32) | if up { UP } else { 0 } | since as u64
}

/// The partner (upper endpoint) of a link entry.
fn partner(entry: u64) -> u32 {
    (entry >> 32) as u32
}

/// The step of a link entry's last transition.
fn stamp(entry: u64) -> usize {
    (entry & (UP - 1)) as usize
}

/// Every node pair that has ever linked, with its current state.
///
/// Row `a` holds the pairs `(a, b)`, `a < b`, sorted by `b`; each
/// entry is [`pack`]ed from the partner, an up/down bit and the step
/// of the pair's last transition, so one binary search finds both the
/// open interval a delta closes and the state it must be in. Two
/// counters keep the open up-intervals and open down-gaps, which
/// [`TraceRecorder::finish`] censors.
#[derive(Debug, Clone)]
struct LinkTable {
    rows: Vec<Vec<u64>>,
    open_up: u64,
    open_down: u64,
}

impl LinkTable {
    fn new(nodes: usize) -> Self {
        LinkTable {
            rows: vec![Vec::new(); nodes],
            open_up: 0,
            open_down: 0,
        }
    }

    /// Marks `(a, b)` down at step `t` and returns the step it came up.
    ///
    /// # Panics
    ///
    /// Panics when the pair is not up: the delta stream is broken.
    fn take_down(&mut self, a: u32, b: u32, t: usize) -> usize {
        debug_assert!(a < b, "edge endpoints must be ordered");
        let row = &mut self.rows[a as usize];
        let i = row
            .binary_search_by_key(&b, |&e| partner(e))
            .unwrap_or_else(|i| i);
        assert!(
            row.get(i).is_some_and(|&e| partner(e) == b && e & UP != 0),
            "link ({a}, {b}) removed at step {t} but not up: broken delta stream"
        );
        let up_at = stamp(row[i]);
        row[i] = pack(b, false, t);
        self.open_up -= 1;
        self.open_down += 1;
        up_at
    }

    /// Marks `(a, b)` up at step `t` and returns the step it went down,
    /// or `None` on the pair's first contact.
    ///
    /// # Panics
    ///
    /// Panics when the pair is already up: the delta stream is broken.
    fn bring_up(&mut self, a: u32, b: u32, t: usize) -> Option<usize> {
        debug_assert!(a < b, "edge endpoints must be ordered");
        let row = &mut self.rows[a as usize];
        self.open_up += 1;
        match row.binary_search_by_key(&b, |&e| partner(e)) {
            Ok(i) => {
                assert!(
                    row[i] & UP == 0,
                    "link ({a}, {b}) added at step {t} but already up: broken delta stream"
                );
                let down_at = stamp(row[i]);
                row[i] = pack(b, true, t);
                self.open_down -= 1;
                Some(down_at)
            }
            Err(i) => {
                row.insert(i, pack(b, true, t));
                None
            }
        }
    }
}

/// Fraction of ordered node pairs connected by some path: the paper's
/// per-step connectivity indicator refined to a `[0, 1]` measure
/// (1 iff connected). Networks with fewer than two nodes count as
/// fully path-available.
fn pair_connectivity(components: &DynamicComponents, n: usize) -> f64 {
    if n < 2 {
        return 1.0;
    }
    components.ordered_reachable_pairs() as f64 / (n as u64 * (n as u64 - 1)) as f64
}

/// Folds one trajectory's link events and connectivity episodes into
/// temporal metrics.
///
/// Drive it with [`TraceRecorder::observe_with`] once per step,
/// passing the driver's own [`DynamicComponents`] after it applied the
/// step's delta — the step-0 delta is the initial snapshot's edges
/// reported as added (see [`manet_graph::DynamicGraph::initial_diff`])
/// — then call [`TraceRecorder::finish`].
///
/// # Example
///
/// ```
/// use manet_geom::Point;
/// use manet_graph::{DynamicComponents, DynamicGraph};
/// use manet_trace::TraceRecorder;
///
/// let steps = vec![
///     vec![Point::new([0.0]), Point::new([1.0])], // linked
///     vec![Point::new([0.0]), Point::new([5.0])], // apart
///     vec![Point::new([0.0]), Point::new([1.0])], // linked again
/// ];
/// let mut dg = DynamicGraph::new(&steps[0], 10.0, 2.0);
/// let mut dc = DynamicComponents::new(2);
/// let mut rec = TraceRecorder::new(2, steps.len());
/// dc.apply(dg.last_diff(), dg.graph());
/// rec.observe_with(dg.last_diff(), dg.graph(), &dc);
/// for pts in &steps[1..] {
///     dg.step(pts);
///     dc.apply(dg.last_diff(), dg.graph());
///     rec.observe_with(dg.last_diff(), dg.graph(), &dc);
/// }
/// let record = rec.finish();
/// assert_eq!(record.lifetimes.count(), 1);      // one completed lifetime
/// assert_eq!(record.intercontacts.count(), 1);  // one reconnection
/// assert_eq!(record.time_to_repair, Some(1));
/// ```
#[derive(Debug, Clone)]
pub struct TraceRecorder {
    nodes: usize,
    steps_seen: usize,
    /// Every pair ever linked: open link intervals and contact gaps.
    links: LinkTable,
    /// Open isolation spells, per node.
    isolated_since: Vec<Option<usize>>,
    lifetimes: IntervalAccumulator,
    intercontacts: IntervalAccumulator,
    isolation: IntervalAccumulator,
    outages: IntervalAccumulator,
    link_up_events: u64,
    link_down_events: u64,
    /// Largest single-step churn (added + removed edges) seen so far.
    peak_churn: usize,
    connected_steps: usize,
    path_connectivity_sum: f64,
    /// Step the current partition outage began (None while connected).
    down_run_start: Option<usize>,
    first_disconnect_at: Option<usize>,
    time_to_repair: Option<usize>,
    /// The driving kernel's counters, set via
    /// [`TraceRecorder::set_kernel_metrics`]; zero when the driver
    /// reports none (standalone recorder use).
    kernel: KernelMetrics,
}

impl TraceRecorder {
    /// Creates a recorder for `nodes` nodes observed over `steps`
    /// mobility steps (the horizon fixes histogram geometry so records
    /// from parallel iterations merge).
    pub fn new(nodes: usize, steps: usize) -> Self {
        TraceRecorder {
            nodes,
            steps_seen: 0,
            links: LinkTable::new(nodes),
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
            kernel: KernelMetrics::default(),
        }
    }

    /// Records the driving kernel's *cumulative* deterministic
    /// counters. Each call overwrites the previous one, so call it
    /// with the trajectory's totals before [`TraceRecorder::finish`],
    /// which carries them into the [`TemporalRecord`] (`manet-sim`'s
    /// trace observer calls it once, as it finishes). Never calling it
    /// leaves the record's counters zero (standalone recorder use).
    pub fn set_kernel_metrics(&mut self, kernel: &KernelMetrics) {
        self.kernel = *kernel;
    }

    /// Folds in one step: the edge delta that produced `graph` from
    /// the previous snapshot, the snapshot itself (for degrees) and the
    /// caller's component summary, which must already reflect `diff`
    /// applied onto `graph` (for connectivity episodes).
    ///
    /// # Panics
    ///
    /// Panics when `graph` or `components` has a different node count
    /// than the recorder was created with. Panics on a broken delta
    /// stream, naming the pair and the step:
    ///
    /// - a removed pair that is not up;
    /// - an added pair that is already up.
    ///
    /// Panics when the step index exceeds 2³¹ − 1, the largest step a
    /// link entry can stamp.
    pub fn observe_with(
        &mut self,
        diff: &EdgeDiff,
        graph: &AdjacencyList,
        components: &DynamicComponents,
    ) {
        assert_eq!(graph.len(), self.nodes, "node count changed mid-trace");
        assert_eq!(components.len(), self.nodes, "component summary mismatch");
        let t = self.steps_seen;

        assert!(
            t <= MAX_STAMP,
            "step {t} exceeds the link table's 31-bit step stamp"
        );

        // Link events — work proportional to the changed edges.
        for &(a, b) in &diff.removed {
            let up = self.links.take_down(a, b, t);
            self.lifetimes.record(t - up);
            self.link_down_events += 1;
        }
        for &(a, b) in &diff.added {
            if let Some(down) = self.links.bring_up(a, b, t) {
                self.intercontacts.record(t - down);
            }
            self.link_up_events += 1;
        }
        // Peak link-dynamics intensity. Step 0's delta is the whole
        // initial snapshot reported as added (`initial_diff`) — that's
        // placement, not dynamics, so it is excluded from the peak
        // (unlike the event totals, which the docs define as including
        // the initial edges).
        if t > 0 {
            self.peak_churn = self.peak_churn.max(diff.churn());
        }

        // Isolation spells (degree-0 runs per node).
        for i in 0..self.nodes {
            let isolated = graph.degree(i) == 0;
            match (self.isolated_since[i], isolated) {
                (None, true) => self.isolated_since[i] = Some(t),
                (Some(since), false) => {
                    self.isolation.record(t - since);
                    self.isolated_since[i] = None;
                }
                _ => {}
            }
        }

        // Connectivity episodes and path availability, read off the
        // incrementally-maintained components.
        let connected = components.is_connected();
        self.path_connectivity_sum += pair_connectivity(components, self.nodes);
        if connected {
            self.connected_steps += 1;
            if let Some(start) = self.down_run_start.take() {
                let outage = t - start;
                self.outages.record(outage);
                if self.time_to_repair.is_none() {
                    self.time_to_repair = Some(outage);
                }
            }
        } else if self.down_run_start.is_none() {
            self.down_run_start = Some(t);
            if self.first_disconnect_at.is_none() {
                self.first_disconnect_at = Some(t);
            }
        }

        self.steps_seen += 1;
    }

    /// Steps observed so far.
    pub fn steps_seen(&self) -> usize {
        self.steps_seen
    }

    /// Closes the trajectory: intervals still open are censored, and
    /// the accumulated metrics become a [`TemporalRecord`].
    pub fn finish(mut self) -> TemporalRecord {
        for _ in 0..self.links.open_up {
            self.lifetimes.record_censored();
        }
        for _ in 0..self.links.open_down {
            self.intercontacts.record_censored();
        }
        let open_isolation = self.isolated_since.iter().filter(|s| s.is_some()).count();
        for _ in 0..open_isolation {
            self.isolation.record_censored();
        }
        if self.down_run_start.is_some() {
            self.outages.record_censored();
        }
        let steps = self.steps_seen.max(1); // guard the zero-step degenerate case
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
            availability: self.connected_steps as f64 / steps as f64,
            path_availability: self.path_connectivity_sum / steps as f64,
            first_disconnect_at: self.first_disconnect_at,
            time_to_repair: self.time_to_repair,
            kernel: self.kernel,
        }
    }
}

/// One trajectory's temporal metrics, mergeable across iterations into
/// a [`crate::TraceSummary`].
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct TemporalRecord {
    /// Node count.
    pub nodes: usize,
    /// Steps observed.
    pub steps: usize,
    /// Completed link lifetimes (up-interval lengths).
    pub lifetimes: IntervalAccumulator,
    /// Completed inter-contact times (down-interval lengths per pair).
    pub intercontacts: IntervalAccumulator,
    /// Completed per-node isolation spells (degree-0 runs).
    pub isolation: IntervalAccumulator,
    /// Completed partition outages (disconnected runs).
    pub outages: IntervalAccumulator,
    /// Total edge-up events (including the initial snapshot's edges).
    pub link_up_events: u64,
    /// Total edge-down events.
    pub link_down_events: u64,
    /// Largest single-step edge churn (added + removed links) over
    /// steps `t > 0` — the peak link-dynamics intensity of the
    /// trajectory. Step 0's delta (the initial placement's edges) is
    /// excluded: it measures density, not dynamics.
    pub peak_churn: usize,
    /// Steps whose graph was connected.
    pub connected_steps: usize,
    /// Fraction of steps connected.
    pub availability: f64,
    /// Mean fraction of node pairs joined by some path.
    pub path_availability: f64,
    /// Step of the first disconnection (`None` if never disconnected).
    pub first_disconnect_at: Option<usize>,
    /// Duration of the first outage, in steps (`None` if the network
    /// never disconnected, or never repaired within the horizon).
    pub time_to_repair: Option<usize>,
    /// The driving kernel's deterministic counter totals for this
    /// trajectory (all-zero when the driver never reported any, e.g.
    /// a standalone recorder outside the `manet-sim` stream).
    pub kernel: KernelMetrics,
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_geom::Point;
    use manet_graph::DynamicGraph;

    /// Replays a 1-D trajectory through DynamicGraph and
    /// DynamicComponents into a recorder.
    fn record_trajectory(steps: &[Vec<f64>], range: f64) -> TemporalRecord {
        let pts =
            |xs: &Vec<f64>| -> Vec<Point<1>> { xs.iter().map(|&x| Point::new([x])).collect() };
        let first = pts(&steps[0]);
        let mut dg = DynamicGraph::new(&first, 100.0, range);
        let mut dc = DynamicComponents::new(first.len());
        let mut rec = TraceRecorder::new(first.len(), steps.len());
        dc.apply(dg.last_diff(), dg.graph());
        rec.observe_with(dg.last_diff(), dg.graph(), &dc);
        for xs in &steps[1..] {
            dg.step(&pts(xs));
            dc.apply(dg.last_diff(), dg.graph());
            rec.observe_with(dg.last_diff(), dg.graph(), &dc);
        }
        rec.finish()
    }

    #[test]
    fn static_connected_pair_has_one_censored_lifetime() {
        let record = record_trajectory(&[vec![0.0, 1.0], vec![0.0, 1.0], vec![0.0, 1.0]], 2.0);
        assert_eq!(record.lifetimes.count(), 0);
        assert_eq!(record.lifetimes.censored(), 1);
        assert_eq!(record.link_up_events, 1);
        assert_eq!(record.link_down_events, 0);
        assert_eq!(record.availability, 1.0);
        assert_eq!(record.path_availability, 1.0);
        assert_eq!(record.time_to_repair, None);
        assert_eq!(record.first_disconnect_at, None);
        assert_eq!(record.outages.count(), 0);
    }

    #[test]
    fn flapping_link_produces_lifetimes_and_intercontacts() {
        // Pair linked at t=0,1, apart at t=2,3, linked at t=4.
        let record = record_trajectory(
            &[
                vec![0.0, 1.0],
                vec![0.0, 1.0],
                vec![0.0, 50.0],
                vec![0.0, 50.0],
                vec![0.0, 1.0],
            ],
            2.0,
        );
        assert_eq!(record.lifetimes.count(), 1);
        assert_eq!(record.lifetimes.mean(), Some(2.0)); // up at 0, down at 2
        assert_eq!(record.intercontacts.count(), 1);
        assert_eq!(record.intercontacts.mean(), Some(2.0)); // down at 2, up at 4
        assert_eq!(record.lifetimes.censored(), 1); // final up interval open
                                                    // Outage structure: disconnected at t=2..3, repaired at t=4.
        assert_eq!(record.outages.count(), 1);
        assert_eq!(record.outages.mean(), Some(2.0));
        assert_eq!(record.time_to_repair, Some(2));
        assert_eq!(record.first_disconnect_at, Some(2));
        assert!((record.availability - 0.6).abs() < 1e-12);
    }

    #[test]
    fn isolation_spells_follow_degree_zero_runs() {
        // Node 2 starts isolated for 2 steps, then joins.
        let record = record_trajectory(
            &[
                vec![0.0, 1.0, 50.0],
                vec![0.0, 1.0, 50.0],
                vec![0.0, 1.0, 2.0],
            ],
            2.0,
        );
        assert_eq!(record.isolation.count(), 1);
        assert_eq!(record.isolation.mean(), Some(2.0));
        assert_eq!(record.isolation.censored(), 0);
        // Path availability: steps 0-1 have 2/6 of ordered pairs
        // reachable, step 2 has all.
        let expected = (2.0 / 6.0 + 2.0 / 6.0 + 1.0) / 3.0;
        assert!((record.path_availability - expected).abs() < 1e-12);
    }

    #[test]
    fn never_connected_network_has_censored_outage() {
        let record = record_trajectory(&[vec![0.0, 50.0], vec![0.0, 50.0]], 1.0);
        assert_eq!(record.availability, 0.0);
        assert_eq!(record.outages.count(), 0);
        assert_eq!(record.outages.censored(), 1);
        assert_eq!(record.first_disconnect_at, Some(0));
        assert_eq!(record.time_to_repair, None);
        // Both nodes isolated throughout: two censored spells.
        assert_eq!(record.isolation.censored(), 2);
    }

    #[test]
    fn single_node_network_is_trivially_available() {
        let record = record_trajectory(&[vec![5.0], vec![6.0]], 1.0);
        assert_eq!(record.availability, 1.0);
        assert_eq!(record.path_availability, 1.0);
        assert_eq!(record.link_up_events, 0);
    }

    #[test]
    fn zero_step_recorder_finishes_without_panicking() {
        let record = TraceRecorder::new(4, 10).finish();
        assert_eq!(record.steps, 0);
        assert_eq!(record.availability, 0.0);
        assert_eq!(record.lifetimes.count(), 0);
    }

    #[test]
    #[should_panic(expected = "node count changed")]
    fn observe_rejects_wrong_node_count() {
        let mut rec = TraceRecorder::new(3, 5);
        rec.observe_with(
            &EdgeDiff::default(),
            &AdjacencyList::empty(2),
            &DynamicComponents::new(3),
        );
    }

    /// Folds `diffs` through `observe_with` over a two-node graph,
    /// bypassing the components so only the link table sees them.
    fn fold_two_node_diffs(diffs: &[EdgeDiff]) {
        let graph = AdjacencyList::empty(2);
        let components = DynamicComponents::new(2);
        let mut rec = TraceRecorder::new(2, diffs.len());
        for diff in diffs {
            rec.observe_with(diff, &graph, &components);
        }
    }

    #[test]
    #[should_panic(expected = "link (0, 1) removed at step 2 but not up")]
    fn removing_a_pair_that_is_not_up_panics() {
        let up = EdgeDiff {
            added: vec![(0, 1)],
            removed: vec![],
        };
        let down = EdgeDiff {
            added: vec![],
            removed: vec![(0, 1)],
        };
        // Up at 0, down at 1, then removed again while down.
        fold_two_node_diffs(&[up, down.clone(), down]);
    }

    #[test]
    #[should_panic(expected = "link (0, 1) removed at step 0 but not up")]
    fn removing_a_pair_never_seen_panics() {
        fold_two_node_diffs(&[EdgeDiff {
            added: vec![],
            removed: vec![(0, 1)],
        }]);
    }

    #[test]
    #[should_panic(expected = "link (0, 1) added at step 1 but already up")]
    fn adding_a_pair_that_is_already_up_panics() {
        let up = EdgeDiff {
            added: vec![(0, 1)],
            removed: vec![],
        };
        fold_two_node_diffs(&[up.clone(), up]);
    }

    #[test]
    fn event_counts_balance_interval_counts() {
        // Invariant: every up event either completes (a recorded
        // lifetime) or stays open (censored); same for down events and
        // inter-contacts.
        let record = record_trajectory(
            &[
                vec![0.0, 1.0, 3.0, 50.0],
                vec![0.0, 2.5, 3.0, 50.0],
                vec![0.0, 50.0, 3.0, 49.5],
                vec![0.0, 1.0, 3.0, 49.5],
            ],
            2.0,
        );
        assert_eq!(
            record.link_up_events,
            record.lifetimes.count() + record.lifetimes.censored()
        );
        assert_eq!(
            record.link_down_events,
            record.intercontacts.count() + record.intercontacts.censored()
        );
    }

    #[test]
    fn peak_churn_excludes_the_initial_placement() {
        // Step 0 brings up 3 links at once (placement density); the
        // only dynamics afterwards is one link flapping down then up.
        let record = record_trajectory(
            &[
                vec![0.0, 1.0, 2.0, 3.0], // 3 initial links
                vec![0.0, 1.0, 2.0, 9.0], // link 2-3 down
                vec![0.0, 1.0, 2.0, 3.0], // link 2-3 up
            ],
            1.5,
        );
        assert_eq!(record.link_up_events, 4); // 3 initial + 1 re-up
        assert_eq!(record.peak_churn, 1, "placement must not set the peak");

        // A static network has zero peak churn however dense it is.
        let still = record_trajectory(&[vec![0.0, 1.0, 2.0], vec![0.0, 1.0, 2.0]], 1.5);
        assert_eq!(still.peak_churn, 0);
    }
}
