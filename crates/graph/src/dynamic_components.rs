//! Incremental connected components over an edge-delta stream.
//!
//! [`ComponentSummary::of`](crate::ComponentSummary::of) answers the
//! paper's two per-step questions — *connected?* and *how large is the
//! largest component?* — by a full `O(n + E)` relabeling of the
//! snapshot. [`DynamicComponents`] keeps the same answers under the
//! [`EdgeDiff`] stream that [`DynamicGraph`](crate::DynamicGraph)
//! produces, with one rule per step:
//!
//! * a step with **no removed edge** is a run of union-find merges
//!   (`O(α)` each);
//! * a step with **any removed edge** may split a component, which
//!   union-find cannot undo, so it relabels the whole snapshot once
//!   (`O(n + E)`).
//!
//! A removal-local relabel (a BFS over only the old components that
//! lost an edge) was measured and deleted: around `r_stationary` the
//! graph is one giant component plus a few stragglers, so nearly every
//! removal lands in the giant component and the "local" relabel visits
//! almost every node. `manet-repro … --metrics`, serial, seed
//! 20020623, with the local path still in place:
//!
//! | argv | local relabels | mean nodes relabelled per local relabel |
//! |---|---|---|
//! | `trace --quick` | 22,547 | 31.64 of 32 |
//! | `trace --paper --iterations 2` (4 models) | 130,269 | 31.78 of 32 |
//! | `trace --quick --nodes 256` | 3,125 | 99.4% of n |
//! | `trace --quick --nodes 1024` | 4 | 97.9% of n |
//! | trace-large argv (`--nodes 2000`) | 0 (every removal step relabelled fully) | n/a |
//!
//! The replay contract — after applying each step's diff, `count`,
//! `largest_size`, the size multiset and `ordered_reachable_pairs`
//! equal `ComponentSummary::of` on that step's snapshot — is enforced
//! by unit tests here and property tests over every mobility model in
//! `tests/properties.rs` (with an n = 2000 release half), and again at
//! the simulation layer.

use crate::adjacency::AdjacencyList;
use crate::dynamic::EdgeDiff;
use manet_obs::ComponentMetrics;

/// Connected-component summary maintained incrementally under the
/// [`EdgeDiff`] stream of a [`DynamicGraph`](crate::DynamicGraph).
///
/// Tracks the component count, the largest component size and the
/// ordered reachable-pair count — the quantities every pipeline of
/// `manet-sim` consumes — bit-identically to recomputing
/// [`ComponentSummary::of`](crate::ComponentSummary::of) from scratch
/// at each step.
///
/// # Example
///
/// ```
/// use manet_geom::Point;
/// use manet_graph::{DynamicComponents, DynamicGraph};
///
/// let mut pts = vec![Point::new([0.0]), Point::new([1.0]), Point::new([5.0])];
/// let mut dg = DynamicGraph::new(&pts, 10.0, 1.5);
/// let mut dc = DynamicComponents::new(pts.len());
/// dc.apply(&dg.initial_diff(), dg.graph());
/// assert_eq!(dc.count(), 2);
/// assert_eq!(dc.largest_size(), 2);
///
/// pts[2] = Point::new([2.0]); // node 2 walks into range of node 1
/// dg.step(&pts);
/// dc.apply(dg.last_diff(), dg.graph());
/// assert!(dc.is_connected());
/// assert_eq!(dc.largest_size(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct DynamicComponents {
    /// Union-find forest; roots index `size`.
    parent: Vec<u32>,
    /// Component size, valid at roots only.
    size: Vec<u32>,
    /// Number of components.
    count: usize,
    /// Largest component size: a running max under merges (a merge
    /// never shrinks a component), recomputed by every relabel.
    largest: u32,
    /// `Σ s·(s−1)` over components, exact: merging sizes `a` and `b`
    /// adds `2·a·b`; a relabel recomputes it.
    reachable_pairs: u64,
    /// Scratch: relabel DFS stack (kept to avoid per-step allocation).
    stack: Vec<u32>,
    /// Deterministic path counters (see [`ComponentMetrics`]), counted
    /// by [`DynamicComponents::apply`] only.
    metrics: ComponentMetrics,
}

impl DynamicComponents {
    /// Creates the summary of the edgeless graph on `n` nodes (`n`
    /// singleton components). Feed it
    /// [`DynamicGraph::initial_diff`](crate::DynamicGraph::initial_diff)
    /// to reach step 0.
    pub fn new(n: usize) -> Self {
        assert!(
            n <= u32::MAX as usize,
            "DynamicComponents supports up to 2^32 - 1 nodes"
        );
        DynamicComponents {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
            count: n,
            largest: u32::from(n > 0),
            reachable_pairs: 0,
            stack: Vec::new(),
            metrics: ComponentMetrics::default(),
        }
    }

    /// Node count.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether there are no nodes.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of connected components (0 for the empty graph).
    pub fn count(&self) -> usize {
        self.count
    }

    /// Size of the largest component (0 for the empty graph).
    pub fn largest_size(&self) -> usize {
        self.largest as usize
    }

    /// Whether the graph is connected (graphs with at most one node
    /// are connected by convention, matching
    /// [`ComponentSummary::is_connected`](crate::ComponentSummary::is_connected)).
    pub fn is_connected(&self) -> bool {
        self.count <= 1
    }

    /// All component sizes, ascending (the oracle-comparison view:
    /// equals `ComponentSummary::of(graph).sizes()` sorted). An `O(n)`
    /// scan over the forest's roots plus a sort.
    pub fn sizes_sorted(&self) -> Vec<u32> {
        let mut out: Vec<u32> = (0..self.parent.len())
            .filter(|&x| self.parent[x] as usize == x)
            .map(|root| self.size[root])
            .collect();
        out.sort_unstable();
        out
    }

    /// Number of ordered node pairs joined by some path:
    /// `Σ s·(s−1)` over components. Exact integer arithmetic, so the
    /// derived path-availability is bit-identical to the label-order
    /// sum over [`ComponentSummary::sizes`](crate::ComponentSummary::sizes).
    pub fn ordered_reachable_pairs(&self) -> u64 {
        self.reachable_pairs
    }

    /// The deterministic counter set accumulated over every
    /// [`DynamicComponents::apply`]: applies, actual DSU merges, and
    /// full relabels with the nodes they visited.
    /// `partial_rebuilds` and `partial_nodes_relabeled` always read 0:
    /// no removal-local relabel exists.
    pub fn metrics(&self) -> &ComponentMetrics {
        &self.metrics
    }

    /// Applies one step's edge delta. `graph` must be the snapshot the
    /// delta produces (i.e. [`DynamicGraph::graph`](crate::DynamicGraph::graph)
    /// *after* the corresponding `step`), and deltas must be applied
    /// in stream order. A delta without removed edges merges its added
    /// edges; any removed edge relabels `graph` from scratch.
    ///
    /// # Panics
    ///
    /// Panics when `graph` has a different node count than this
    /// structure (a driver logic error).
    pub fn apply(&mut self, diff: &EdgeDiff, graph: &AdjacencyList) {
        assert_eq!(
            graph.len(),
            self.parent.len(),
            "node count changed between steps"
        );
        self.metrics.applies += 1;
        if diff.removed.is_empty() {
            for &(a, b) in &diff.added {
                self.union(a as usize, b as usize);
            }
        } else {
            self.relabel(graph);
            self.metrics.full_rebuilds += 1;
            self.metrics.full_nodes_relabeled += graph.len() as u64;
        }
        #[cfg(feature = "strict-invariants")]
        self.debug_validate();
    }

    /// DSU forest and accounting coherence: every parent pointer is in
    /// range and reaches a root without cycling, `size[]` at every root
    /// equals the member tally of that root's tree, and the component
    /// count, largest size and reachable-pair count equal the ones the
    /// tallies give. `O(n · height)` — run after every
    /// [`DynamicComponents::apply`] under `strict-invariants`.
    /// Read-only: roots are found without path halving so the checker
    /// cannot mask a broken forest.
    #[cfg(feature = "strict-invariants")]
    fn debug_validate(&self) {
        let n = self.parent.len();
        let mut members = vec![0u32; n];
        for x in 0..n {
            let mut cur = x as u32;
            let mut hops = 0usize;
            loop {
                debug_assert!(
                    (self.parent[cur as usize] as usize) < n,
                    "strict-invariants: parent pointer of {cur} out of range"
                );
                let p = self.parent[cur as usize];
                if p == cur {
                    break;
                }
                cur = p;
                hops += 1;
                debug_assert!(hops <= n, "strict-invariants: parent chain of {x} cycles");
            }
            members[cur as usize] += 1;
        }
        let (mut count, mut largest, mut pairs) = (0usize, 0u32, 0u64);
        for (root, &tally) in members.iter().enumerate().filter(|&(_, &t)| t > 0) {
            debug_assert_eq!(
                self.size[root], tally,
                "strict-invariants: size[] at root {root} diverged from its member tally"
            );
            count += 1;
            largest = largest.max(tally);
            pairs += pairs_within(tally);
        }
        debug_assert_eq!(
            count, self.count,
            "strict-invariants: component count diverged from the forest"
        );
        debug_assert_eq!(
            largest, self.largest,
            "strict-invariants: largest size diverged from the forest"
        );
        debug_assert_eq!(
            pairs, self.reachable_pairs,
            "strict-invariants: reachable-pair count diverged from the forest"
        );
    }

    /// Representative of `x`'s component (path halving).
    fn find(&mut self, x: usize) -> usize {
        let mut x = x as u32;
        loop {
            let p = self.parent[x as usize];
            if p == x {
                return x as usize;
            }
            let gp = self.parent[p as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
    }

    /// Union-by-size merge of the components of `a` and `b`, with
    /// count, largest and reachable-pair maintenance.
    fn union(&mut self, a: usize, b: usize) {
        let mut ra = self.find(a);
        let mut rb = self.find(b);
        if ra == rb {
            return;
        }
        self.metrics.dsu_merges += 1;
        if self.size[ra] < self.size[rb] {
            core::mem::swap(&mut ra, &mut rb);
        }
        let (sa, sb) = (self.size[ra], self.size[rb]);
        self.parent[rb] = ra as u32;
        self.size[ra] = sa + sb;
        self.largest = self.largest.max(sa + sb);
        self.reachable_pairs += 2 * u64::from(sa) * u64::from(sb);
        self.count -= 1;
    }

    /// One full relabel of `graph`: a DFS from every node no earlier
    /// DFS reached, in index order, roots each component at its
    /// smallest node.
    fn relabel(&mut self, graph: &AdjacencyList) {
        // `parent` marker for a node no DFS has reached yet: `new` caps
        // `n` at `u32::MAX`, so no node id equals it.
        let unlabelled = u32::MAX;
        self.parent.fill(unlabelled);
        self.count = 0;
        self.largest = 0;
        self.reachable_pairs = 0;
        for root in 0..graph.len() {
            if self.parent[root] != unlabelled {
                continue;
            }
            self.parent[root] = root as u32;
            self.stack.push(root as u32);
            let mut members = 0u32;
            while let Some(v) = self.stack.pop() {
                members += 1;
                for &w in graph.neighbors(v as usize) {
                    if self.parent[w as usize] == unlabelled {
                        self.parent[w as usize] = root as u32;
                        self.stack.push(w);
                    }
                }
            }
            self.size[root] = members;
            self.count += 1;
            self.largest = self.largest.max(members);
            self.reachable_pairs += pairs_within(members);
        }
    }
}

/// Ordered pairs inside one component of `s` nodes: `s·(s−1)`.
fn pairs_within(s: u32) -> u64 {
    u64::from(s) * u64::from(s - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::ComponentSummary;
    use manet_geom::Point;
    use rand::{RngExt, SeedableRng};

    fn pts1(xs: &[f64]) -> Vec<Point<1>> {
        xs.iter().map(|&x| Point::new([x])).collect()
    }

    /// The summary of `graph` reached from the edgeless graph by one
    /// insert-only apply (counted in `metrics`).
    fn summary_of(graph: &AdjacencyList) -> DynamicComponents {
        let mut dc = DynamicComponents::new(graph.len());
        dc.apply(&AdjacencyList::empty(graph.len()).diff(graph), graph);
        dc
    }

    /// Oracle check: count, largest, the size multiset and the ordered
    /// reachable-pair count agree with the from-scratch summary.
    fn assert_matches_oracle(dc: &DynamicComponents, graph: &AdjacencyList) {
        let oracle = ComponentSummary::of(graph);
        assert_eq!(dc.count(), oracle.count(), "component count diverged");
        assert_eq!(dc.largest_size(), oracle.largest_size(), "largest diverged");
        let mut oracle_sizes = oracle.sizes().to_vec();
        oracle_sizes.sort_unstable();
        assert_eq!(dc.sizes_sorted(), oracle_sizes, "size multiset diverged");
        let oracle_pairs: u64 = oracle_sizes.iter().map(|&s| pairs_within(s)).sum();
        assert_eq!(
            dc.ordered_reachable_pairs(),
            oracle_pairs,
            "reachable pairs diverged"
        );
        assert_eq!(dc.is_connected(), oracle.is_connected());
    }

    /// The strict-invariants checker must actually fire: a forest with
    /// corrupted size accounting panics on the next `apply`.
    #[cfg(feature = "strict-invariants")]
    #[test]
    #[should_panic(expected = "strict-invariants")]
    fn strict_invariants_detects_corrupted_accounting() {
        let mut dc = DynamicComponents::new(3);
        dc.size[0] = 2; // root 0's tally no longer matches its tree
        let diff = EdgeDiff {
            added: Vec::new(),
            removed: Vec::new(),
        };
        dc.apply(&diff, &AdjacencyList::empty(3));
    }

    #[test]
    fn new_matches_edgeless_oracle() {
        let dc = DynamicComponents::new(4);
        assert_matches_oracle(&dc, &AdjacencyList::empty(4));
        assert_eq!(dc.ordered_reachable_pairs(), 0);
    }

    #[test]
    fn empty_graph_is_connected_by_convention() {
        let dc = DynamicComponents::new(0);
        assert!(dc.is_connected());
        assert_eq!(dc.count(), 0);
        assert_eq!(dc.largest_size(), 0);
        assert!(dc.is_empty());
    }

    #[test]
    fn insertions_merge_components() {
        let pts = pts1(&[0.0, 1.0, 2.0, 9.0]);
        let g = AdjacencyList::from_points_brute_force(&pts, 1.2);
        let dc = summary_of(&g);
        assert_matches_oracle(&dc, &g);
        assert_eq!(dc.count(), 2);
        assert_eq!(dc.largest_size(), 3);
        assert_eq!(dc.ordered_reachable_pairs(), 6);
        assert_eq!(dc.metrics().dsu_merges, 2);
        assert_eq!(dc.metrics().full_rebuilds, 0);
    }

    #[test]
    fn deletion_splits_via_full_relabel() {
        // An 8-node path loses its middle edge: churn 1, and the one
        // removal relabels the whole snapshot.
        let xs: Vec<f64> = (0..8).map(|i| i as f64).collect();
        let mut moved = xs.clone();
        for x in &mut moved[4..] {
            *x += 0.5; // widen only the 3-4 gap past the range
        }
        let old = AdjacencyList::from_points_brute_force(&pts1(&xs), 1.1);
        let new = AdjacencyList::from_points_brute_force(&pts1(&moved), 1.1);
        assert_eq!(old.diff(&new).churn(), 1);
        let mut dc = summary_of(&old);
        assert!(dc.is_connected());
        dc.apply(&old.diff(&new), &new);
        assert_matches_oracle(&dc, &new);
        assert_eq!(dc.count(), 2);
        assert_eq!(dc.sizes_sorted(), vec![4, 4]);
        let m = dc.metrics();
        assert_eq!((m.full_rebuilds, m.full_nodes_relabeled), (1, 8));
        assert_eq!((m.partial_rebuilds, m.partial_nodes_relabeled), (0, 0));
    }

    #[test]
    fn low_churn_removal_in_a_small_component_of_a_fragmented_graph() {
        // A 10-node chain, two 3-node chains and two isolated nodes;
        // the second 3-node chain loses one edge (churn 1) and nothing
        // else moves. The relabel still visits all 18 nodes once.
        let xs = [
            0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, // giant chain
            20.0, 21.0, 22.0, // untouched small chain
            30.0, 31.0, 32.0, // small chain that splits
            40.0, 50.0, // isolated
        ];
        let mut moved = xs;
        moved[15] = 32.5; // widen only the 31-32 gap past the range
        let old = AdjacencyList::from_points_brute_force(&pts1(&xs), 1.1);
        let new = AdjacencyList::from_points_brute_force(&pts1(&moved), 1.1);
        let diff = old.diff(&new);
        assert_eq!((diff.removed.len(), diff.added.len()), (1, 0));
        let mut dc = summary_of(&old);
        assert_matches_oracle(&dc, &old);
        let merges = dc.metrics().dsu_merges;
        dc.apply(&diff, &new);
        assert_matches_oracle(&dc, &new);
        assert_eq!(dc.sizes_sorted(), vec![1, 1, 1, 2, 3, 10]);
        assert_eq!(dc.ordered_reachable_pairs(), 2 + 6 + 90);
        let m = dc.metrics();
        assert_eq!((m.full_rebuilds, m.full_nodes_relabeled), (1, 18));
        assert_eq!((m.partial_rebuilds, m.partial_nodes_relabeled), (0, 0));
        assert_eq!(m.dsu_merges, merges, "a relabel step merges nothing");
    }

    #[test]
    fn simultaneous_deletion_and_insertion_fusing_unaffected_component() {
        // {0..5} loses edge 4-5 while node 5 walks over to the
        // untouched {6..11}: the step's relabel must split the first
        // component and fuse node 5 onto the second in one pass.
        let old_xs: Vec<f64> = (0..6)
            .map(|i| i as f64)
            .chain((0..6).map(|i| 20.0 + i as f64))
            .collect();
        let mut new_xs = old_xs.clone();
        new_xs[5] = 19.0; // node 5: leaves 4's range, enters 6's
        let old = AdjacencyList::from_points_brute_force(&pts1(&old_xs), 1.1);
        let new = AdjacencyList::from_points_brute_force(&pts1(&new_xs), 1.1);
        let diff = old.diff(&new);
        assert_eq!((diff.removed.len(), diff.added.len()), (1, 1));
        let mut dc = summary_of(&old);
        let merges = dc.metrics().dsu_merges;
        dc.apply(&diff, &new);
        assert_matches_oracle(&dc, &new);
        assert_eq!(dc.sizes_sorted(), vec![5, 7]);
        assert_eq!(dc.metrics().full_rebuilds, 1);
        assert_eq!(
            dc.metrics().dsu_merges,
            merges,
            "the added edge is relabelled, not merged"
        );
    }

    #[test]
    fn high_churn_takes_the_full_rebuild_path() {
        // Scatter a 6-node path entirely (churn 5): the same single
        // relabel as a churn-1 removal.
        let old =
            AdjacencyList::from_points_brute_force(&pts1(&[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]), 1.1);
        let new = AdjacencyList::from_points_brute_force(
            &pts1(&[0.0, 10.0, 20.0, 30.0, 40.0, 50.0]),
            1.1,
        );
        let mut dc = summary_of(&old);
        dc.apply(&old.diff(&new), &new);
        assert_matches_oracle(&dc, &new);
        let m = dc.metrics();
        assert_eq!((m.full_rebuilds, m.full_nodes_relabeled), (1, 6));
        assert_eq!(m.partial_rebuilds, 0);
    }

    #[test]
    #[should_panic(expected = "node count changed")]
    fn apply_rejects_mismatched_graph() {
        let mut dc = DynamicComponents::new(3);
        dc.apply(&EdgeDiff::default(), &AdjacencyList::empty(2));
    }

    #[test]
    fn random_teleport_replay_matches_oracle_every_step() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let side = 50.0;
        let r = 8.0;
        let n = 40;
        let mut pts: Vec<Point<2>> = (0..n)
            .map(|_| Point::new([rng.random_range(0.0..side), rng.random_range(0.0..side)]))
            .collect();
        let mut dg = crate::DynamicGraph::new(&pts, side, r);
        let mut dc = DynamicComponents::new(n);
        dc.apply(&dg.initial_diff(), dg.graph());
        assert_matches_oracle(&dc, dg.graph());
        let mut removal_steps = 0;
        for step in 0..60 {
            // Mix small jitters with full teleports every 10th step.
            for p in &mut pts {
                *p = if step % 10 == 9 {
                    Point::new([rng.random_range(0.0..side), rng.random_range(0.0..side)])
                } else {
                    let dx = rng.random_range(-2.0..2.0);
                    let dy = rng.random_range(-2.0..2.0);
                    Point::new([
                        (p.coords()[0] + dx).clamp(0.0, side),
                        (p.coords()[1] + dy).clamp(0.0, side),
                    ])
                };
            }
            dg.step(&pts);
            dc.apply(dg.last_diff(), dg.graph());
            assert_matches_oracle(&dc, dg.graph());
            removal_steps += u64::from(!dg.last_diff().removed.is_empty());
        }
        let m = dc.metrics();
        assert!(m.full_rebuilds > 0, "removal path never exercised");
        assert_eq!(
            m.full_rebuilds, removal_steps,
            "one relabel per removal step"
        );
        assert_eq!(m.partial_rebuilds, 0);
    }

    #[test]
    fn metrics_count_merges_rebuilds_and_affected_regions() {
        // Same 8-node path split as `deletion_splits_via_full_relabel`.
        let xs: Vec<f64> = (0..8).map(|i| i as f64).collect();
        let mut moved = xs.clone();
        for x in &mut moved[4..] {
            *x += 0.5;
        }
        let old = AdjacencyList::from_points_brute_force(&pts1(&xs), 1.1);
        let new = AdjacencyList::from_points_brute_force(&pts1(&moved), 1.1);
        let mut dc = DynamicComponents::new(8);
        assert_eq!(
            *dc.metrics(),
            ComponentMetrics::default(),
            "the constructor must not count"
        );
        dc.apply(&AdjacencyList::empty(8).diff(&old), &old);
        assert_eq!((dc.metrics().applies, dc.metrics().dsu_merges), (1, 7));

        dc.apply(&old.diff(&new), &new);
        let m = *dc.metrics();
        assert_eq!(m.applies, 2);
        assert_eq!((m.full_rebuilds, m.full_nodes_relabeled), (1, 8));
        assert_eq!((m.partial_rebuilds, m.partial_nodes_relabeled), (0, 0));
        assert_eq!(m.dsu_merges, 7);

        // Rejoining the path is pure insertion: one merge, no relabel.
        dc.apply(&new.diff(&old), &old);
        let m = *dc.metrics();
        assert_eq!(m.applies, 3);
        assert_eq!(m.dsu_merges, 8);
        assert_eq!(m.full_rebuilds, 1);

        // A redundant edge (both endpoints already joined) is not a merge.
        let extra = EdgeDiff {
            added: vec![(0, 2)],
            removed: Vec::new(),
        };
        let mut with_extra = old.clone();
        with_extra.insert_edge_sorted(0, 2);
        dc.apply(&extra, &with_extra);
        assert_eq!(dc.metrics().dsu_merges, 8, "same-root union is not a merge");

        // Scattering every node relabels once and counts every node.
        let scattered = AdjacencyList::from_points_brute_force(
            &pts1(&[0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0]),
            1.1,
        );
        dc.apply(&with_extra.diff(&scattered), &scattered);
        let m = *dc.metrics();
        assert_eq!((m.full_rebuilds, m.full_nodes_relabeled), (2, 16));
    }
}
