//! Incremental connected components over an edge-delta stream.
//!
//! [`ComponentSummary::of`](crate::ComponentSummary::of) answers the
//! paper's two per-step questions — *connected?* and *how large is the
//! largest component?* — by a full `O(n + E)` relabeling of the
//! snapshot. Over a mobile trajectory the snapshot barely changes
//! between steps, so the spine of every simulation pipeline is better
//! served by maintaining the answer under the [`EdgeDiff`] stream that
//! [`DynamicGraph`](crate::DynamicGraph) already produces:
//!
//! * **insertions** are plain union-find merges (`O(α)` each);
//! * **deletions** may split a component, which union-find cannot
//!   undo, so they trigger an *epoch-based partial rebuild*: a BFS
//!   over the new snapshot seeded at the removed edges' endpoints
//!   relabels only the affected region (every old component that lost
//!   an edge, plus any component a simultaneous insertion fused onto
//!   it — provably a union of complete old components, see below);
//! * when a step's churn exceeds [`FULL_REBUILD_CHURN_FRACTION`]`·n`,
//!   the partial machinery is abandoned for one amortized full
//!   rebuild, which is cheaper than chasing a mostly-new topology
//!   delta by delta.
//!
//! Correctness of the affected region: for any node `x` of an old
//! component `C` that lost an edge, walk an old path from `x` to a
//! removed edge inside `C`. Either the path survives into the new
//! snapshot (then `x` reaches that edge's endpoint) or it dies at some
//! removed edge `(p, q)` — and then `x` reaches `p`, also a seed. So a
//! BFS from all removed-edge endpoints over the new snapshot visits
//! every node of every edge-losing component; any *unaffected*
//! component the BFS enters through a freshly added edge is connected
//! in the new snapshot, hence fully visited too. The visited set is
//! therefore a union of complete old components, which is what lets
//! the accounting drop exactly those components and insert the BFS
//! trees in their place.
//!
//! The replay contract — after applying each step's diff, `count`,
//! `largest_size` and the full size multiset equal
//! `ComponentSummary::of` on that step's snapshot — is enforced by
//! unit tests here and property tests over every mobility model in
//! `tests/properties.rs` (and again at the simulation layer).

use crate::adjacency::AdjacencyList;
use crate::dynamic::EdgeDiff;
use manet_obs::ComponentMetrics;
use std::collections::BTreeMap;

/// Churn fraction (relative to the node count) above which
/// [`DynamicComponents::apply`] abandons the partial rebuild for one
/// full relabeling of the snapshot.
///
/// Measured by the `apply_strategy` group of the `dynamic_components`
/// Criterion bench (apply strategies timed on a precomputed
/// diff/snapshot stream, n = 500, random waypoint, sparse regime):
/// incremental apply beats one full relabel ~5.9× at churn 0.024·n
/// per step and ~1.2× at 0.157·n, and loses (~1.2× slower) by
/// 0.388·n, where BFS re-exploration of the affected region plus
/// multiset bookkeeping overtakes one clean sweep — an interpolated
/// crossover of ≈ 0.25·n. Teleport-like steps (churn ≈ E ≫ n/4) route
/// straight to the rebuild.
pub const FULL_REBUILD_CHURN_FRACTION: f64 = 0.25;

/// Connected-component summary maintained incrementally under the
/// [`EdgeDiff`] stream of a [`DynamicGraph`](crate::DynamicGraph).
///
/// Tracks the component count, the size multiset, and the largest
/// component size — the quantities every pipeline of `manet-sim`
/// consumes — bit-identically to recomputing
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
    /// Multiset of component sizes: size -> multiplicity. The BTreeMap
    /// keeps `largest_size` an O(log n) last-key lookup and iteration
    /// deterministic.
    size_counts: BTreeMap<u32, u32>,
    /// Number of components.
    count: usize,
    /// Epoch stamps replacing a per-step `visited` clear in the
    /// partial-rebuild BFS.
    visit_epoch: Vec<u32>,
    /// Epoch stamps deduplicating old roots during a partial rebuild.
    root_epoch: Vec<u32>,
    epoch: u32,
    /// Scratch: BFS stack (kept to avoid per-step allocation).
    stack: Vec<u32>,
    /// Scratch: visited nodes of the current partial rebuild, flat.
    tree_nodes: Vec<u32>,
    /// Scratch: offsets into `tree_nodes`, one past each tree's end.
    tree_ends: Vec<u32>,
    /// Deterministic path counters (see [`ComponentMetrics`]); only
    /// [`DynamicComponents::apply`] counts, constructors do not.
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
        let mut size_counts = BTreeMap::new();
        if n > 0 {
            size_counts.insert(1, n as u32);
        }
        DynamicComponents {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
            size_counts,
            count: n,
            visit_epoch: vec![0; n],
            root_epoch: vec![0; n],
            epoch: 0,
            stack: Vec::new(),
            tree_nodes: Vec::new(),
            tree_ends: Vec::new(),
            metrics: ComponentMetrics::default(),
        }
    }

    /// Builds the summary of an existing snapshot directly.
    pub fn from_graph(graph: &AdjacencyList) -> Self {
        let mut dc = DynamicComponents::new(graph.len());
        dc.relabel(graph);
        dc
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
        self.size_counts
            .last_key_value()
            .map(|(&s, _)| s as usize)
            .unwrap_or(0)
    }

    /// Whether the graph is connected (graphs with at most one node
    /// are connected by convention, matching
    /// [`ComponentSummary::is_connected`](crate::ComponentSummary::is_connected)).
    pub fn is_connected(&self) -> bool {
        self.count <= 1
    }

    /// Number of singleton components — equivalently, of isolated
    /// (degree-0) nodes. An O(log n) lookup, versus the O(n) degree
    /// scan of [`AdjacencyList::isolated_nodes`].
    pub fn singleton_count(&self) -> usize {
        self.size_counts.get(&1).copied().unwrap_or(0) as usize
    }

    /// The component sizes as `(size, multiplicity)` pairs in
    /// ascending size order.
    pub fn size_counts(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.size_counts.iter().map(|(&s, &m)| (s, m))
    }

    /// All component sizes, ascending (the oracle-comparison view:
    /// equals `ComponentSummary::of(graph).sizes()` sorted).
    pub fn sizes_sorted(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.count);
        for (&s, &m) in &self.size_counts {
            out.extend(std::iter::repeat_n(s, m as usize));
        }
        out
    }

    /// Number of ordered node pairs joined by some path:
    /// `Σ s·(s−1)` over components. Exact integer arithmetic, so the
    /// derived path-availability is bit-identical to the label-order
    /// sum over [`ComponentSummary::sizes`](crate::ComponentSummary::sizes).
    pub fn ordered_reachable_pairs(&self) -> u64 {
        self.size_counts
            .iter()
            .map(|(&s, &m)| m as u64 * (s as u64 * (s as u64 - 1)))
            .sum()
    }

    /// Partial (epoch) rebuilds performed so far — the deletion path.
    pub fn partial_rebuilds(&self) -> u64 {
        self.metrics.partial_rebuilds
    }

    /// Amortized full rebuilds performed so far — the high-churn path.
    pub fn full_rebuilds(&self) -> u64 {
        self.metrics.full_rebuilds
    }

    /// The full deterministic counter set accumulated over every
    /// [`DynamicComponents::apply`]: per-path rebuild counts, actual
    /// DSU merges, and affected-region sizes. Constructors (including
    /// [`DynamicComponents::from_graph`]'s initial relabel) count as
    /// zero.
    pub fn metrics(&self) -> &ComponentMetrics {
        &self.metrics
    }

    /// Applies one step's edge delta. `graph` must be the snapshot the
    /// delta produces (i.e. [`DynamicGraph::graph`](crate::DynamicGraph::graph)
    /// *after* the corresponding `step`), and deltas must be applied
    /// in stream order.
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
        self.apply_dispatch(diff, graph);
        #[cfg(feature = "strict-invariants")]
        self.debug_validate();
    }

    /// [`DynamicComponents::apply`]'s path selection, factored out so
    /// the strict-invariants checker runs once after whichever path
    /// ran.
    fn apply_dispatch(&mut self, diff: &EdgeDiff, graph: &AdjacencyList) {
        self.metrics.applies += 1;
        if !diff.removed.is_empty() {
            let threshold = FULL_REBUILD_CHURN_FRACTION * self.parent.len() as f64;
            if diff.churn() as f64 >= threshold {
                self.relabel(graph);
                self.metrics.full_rebuilds += 1;
                self.metrics.full_nodes_relabeled += graph.len() as u64;
                return;
            }
            self.partial_rebuild(&diff.removed, graph);
        }
        for &(a, b) in &diff.added {
            self.union(a as usize, b as usize);
        }
    }

    /// DSU forest and accounting coherence: every parent pointer is in
    /// range and reaches a root without cycling, `size[]` at every root
    /// equals the member tally of that root's tree, the component
    /// count equals the number of distinct roots, and the size
    /// multiset both matches the per-root tallies and conserves the
    /// node count (`Σ size · multiplicity = n`). `O(n · height)` — run
    /// after every [`DynamicComponents::apply`] under
    /// `strict-invariants`. Read-only: roots are found without path
    /// halving so the checker cannot mask a broken forest.
    #[cfg(feature = "strict-invariants")]
    fn debug_validate(&self) {
        let n = self.parent.len();
        let mut members: BTreeMap<u32, u32> = BTreeMap::new();
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
            *members.entry(cur).or_insert(0) += 1;
        }
        debug_assert_eq!(
            members.len(),
            self.count,
            "strict-invariants: component count diverged from the forest"
        );
        let mut multiset: BTreeMap<u32, u32> = BTreeMap::new();
        for (&root, &tally) in &members {
            debug_assert_eq!(
                self.size[root as usize], tally,
                "strict-invariants: size[] at root {root} diverged from its member tally"
            );
            *multiset.entry(tally).or_insert(0) += 1;
        }
        debug_assert_eq!(
            multiset, self.size_counts,
            "strict-invariants: size multiset out of sync with the forest"
        );
        let conserved: u64 = self
            .size_counts
            .iter()
            .map(|(&s, &m)| s as u64 * m as u64)
            .sum();
        debug_assert_eq!(
            conserved, n as u64,
            "strict-invariants: size multiset does not conserve the node count"
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

    fn insert_size(&mut self, s: u32) {
        *self.size_counts.entry(s).or_insert(0) += 1;
    }

    fn remove_size(&mut self, s: u32) {
        match self.size_counts.get_mut(&s) {
            Some(m) if *m > 1 => *m -= 1,
            Some(_) => {
                self.size_counts.remove(&s);
            }
            None => unreachable!("size multiset out of sync"),
        }
    }

    /// Union-by-size merge of the components of `a` and `b`, with
    /// multiset/count maintenance.
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
        self.remove_size(self.size[ra]);
        self.remove_size(self.size[rb]);
        self.parent[rb] = ra as u32;
        self.size[ra] += self.size[rb];
        self.insert_size(self.size[ra]);
        self.count -= 1;
    }

    /// Advances the visit/root epoch, resetting stamps on wraparound.
    fn next_epoch(&mut self) -> u32 {
        self.epoch = match self.epoch.checked_add(1) {
            Some(e) => e,
            None => {
                self.visit_epoch.fill(0);
                self.root_epoch.fill(0);
                1
            }
        };
        self.epoch
    }

    /// The deletion path: relabels exactly the affected region (the
    /// union of complete old components touched by `removed` or fused
    /// onto them by this step's insertions) via BFS over the new
    /// snapshot, leaving every other component's forest untouched.
    fn partial_rebuild(&mut self, removed: &[(u32, u32)], graph: &AdjacencyList) {
        let epoch = self.next_epoch();
        self.tree_nodes.clear();
        self.tree_ends.clear();

        // Phase A: collect the BFS trees and the distinct old roots of
        // every visited node (before any re-parenting, so `find` still
        // reports pre-step components).
        let mut old_roots = 0usize;
        let mut dropped_sizes: u64 = 0; // defensive balance check
        for &(a, b) in removed {
            for seed in [a, b] {
                if self.visit_epoch[seed as usize] == epoch {
                    continue;
                }
                self.visit_epoch[seed as usize] = epoch;
                self.stack.push(seed);
                while let Some(v) = self.stack.pop() {
                    self.tree_nodes.push(v);
                    let r = self.find(v as usize);
                    if self.root_epoch[r] != epoch {
                        self.root_epoch[r] = epoch;
                        old_roots += 1;
                        dropped_sizes += self.size[r] as u64;
                        self.remove_size(self.size[r]);
                    }
                    for &w in graph.neighbors(v as usize) {
                        if self.visit_epoch[w as usize] != epoch {
                            self.visit_epoch[w as usize] = epoch;
                            self.stack.push(w);
                        }
                    }
                }
                self.tree_ends.push(self.tree_nodes.len() as u32);
            }
        }
        debug_assert_eq!(
            dropped_sizes,
            self.tree_nodes.len() as u64,
            "partial rebuild visited a strict subset of some old component"
        );
        self.count -= old_roots;

        // Phase B: install each tree as a fresh component rooted at its
        // first-visited node.
        let mut start = 0usize;
        let tree_ends = std::mem::take(&mut self.tree_ends);
        for &end in &tree_ends {
            let end = end as usize;
            let root = self.tree_nodes[start];
            for i in start..end {
                self.parent[self.tree_nodes[i] as usize] = root;
            }
            self.size[root as usize] = (end - start) as u32;
            self.insert_size((end - start) as u32);
            self.count += 1;
            start = end;
        }
        self.tree_ends = tree_ends;
        self.metrics.partial_rebuilds += 1;
        self.metrics.partial_nodes_relabeled += self.tree_nodes.len() as u64;
    }

    /// Full relabeling of `graph` (the amortized high-churn path and
    /// the [`DynamicComponents::from_graph`] constructor).
    fn relabel(&mut self, graph: &AdjacencyList) {
        let n = graph.len();
        let epoch = self.next_epoch();
        self.size_counts.clear();
        self.count = 0;
        for start in 0..n {
            if self.visit_epoch[start] == epoch {
                continue;
            }
            self.visit_epoch[start] = epoch;
            self.stack.push(start as u32);
            let mut members = 0u32;
            while let Some(v) = self.stack.pop() {
                members += 1;
                self.parent[v as usize] = start as u32;
                for &w in graph.neighbors(v as usize) {
                    if self.visit_epoch[w as usize] != epoch {
                        self.visit_epoch[w as usize] = epoch;
                        self.stack.push(w);
                    }
                }
            }
            self.size[start] = members;
            self.insert_size(members);
            self.count += 1;
        }
    }
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

    /// Oracle check: count, largest, and the size multiset agree with
    /// the from-scratch summary.
    fn assert_matches_oracle(dc: &DynamicComponents, graph: &AdjacencyList) {
        let oracle = ComponentSummary::of(graph);
        assert_eq!(dc.count(), oracle.count(), "component count diverged");
        assert_eq!(dc.largest_size(), oracle.largest_size(), "largest diverged");
        let mut oracle_sizes = oracle.sizes().to_vec();
        oracle_sizes.sort_unstable();
        assert_eq!(dc.sizes_sorted(), oracle_sizes, "size multiset diverged");
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
        assert_eq!(dc.singleton_count(), 4);
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
        let mut dc = DynamicComponents::new(4);
        dc.apply(&AdjacencyList::empty(4).diff(&g), &g);
        assert_matches_oracle(&dc, &g);
        assert_eq!(dc.count(), 2);
        assert_eq!(dc.largest_size(), 3);
        assert_eq!(dc.singleton_count(), 1);
        assert_eq!(dc.ordered_reachable_pairs(), 6);
        assert_eq!(dc.partial_rebuilds(), 0);
    }

    #[test]
    fn deletion_splits_via_partial_rebuild() {
        // An 8-node path loses its middle edge: churn 1 stays below
        // the full-rebuild threshold (0.25 * 8 = 2), so the epoch
        // partial rebuild must handle the split.
        let xs: Vec<f64> = (0..8).map(|i| i as f64).collect();
        let mut moved = xs.clone();
        for x in &mut moved[4..] {
            *x += 0.5; // widen only the 3-4 gap past the range
        }
        let old = AdjacencyList::from_points_brute_force(&pts1(&xs), 1.1);
        let new = AdjacencyList::from_points_brute_force(&pts1(&moved), 1.1);
        assert_eq!(old.diff(&new).churn(), 1);
        let mut dc = DynamicComponents::from_graph(&old);
        assert!(dc.is_connected());
        dc.apply(&old.diff(&new), &new);
        assert_matches_oracle(&dc, &new);
        assert_eq!(dc.count(), 2);
        assert_eq!(dc.sizes_sorted(), vec![4, 4]);
        assert_eq!(dc.partial_rebuilds(), 1);
        assert_eq!(dc.full_rebuilds(), 0);
    }

    #[test]
    fn simultaneous_deletion_and_insertion_fusing_unaffected_component() {
        // {0..5} loses edge 4-5 while node 5 walks over to the
        // untouched {6..11}: the partial-rebuild BFS enters the
        // unaffected component through the freshly added edge and must
        // absorb it whole (churn 2 < 0.25 * 12 keeps this off the
        // full-rebuild path).
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
        let mut dc = DynamicComponents::from_graph(&old);
        dc.apply(&diff, &new);
        assert_matches_oracle(&dc, &new);
        assert_eq!(dc.sizes_sorted(), vec![5, 7]);
        assert_eq!(dc.partial_rebuilds(), 1);
        assert_eq!(dc.full_rebuilds(), 0);
    }

    #[test]
    fn high_churn_takes_the_full_rebuild_path() {
        // Scatter a 6-node path entirely: churn 5 (all edges removed)
        // >= 0.25 * 6 = 1.5, so apply must route to the full rebuild.
        let old =
            AdjacencyList::from_points_brute_force(&pts1(&[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]), 1.1);
        let new = AdjacencyList::from_points_brute_force(
            &pts1(&[0.0, 10.0, 20.0, 30.0, 40.0, 50.0]),
            1.1,
        );
        let mut dc = DynamicComponents::from_graph(&old);
        dc.apply(&old.diff(&new), &new);
        assert_matches_oracle(&dc, &new);
        assert_eq!(dc.full_rebuilds(), 1);
        assert_eq!(dc.partial_rebuilds(), 0);
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
        for step in 0..60 {
            // Mix small jitters (deletion/partial path) with full
            // teleports every 10th step (high churn / rebuild path).
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
        }
        assert!(dc.partial_rebuilds() > 0, "deletion path never exercised");
        assert!(dc.full_rebuilds() > 0, "high-churn path never exercised");
    }

    #[test]
    fn metrics_count_merges_rebuilds_and_affected_regions() {
        // Same 8-node path split as `deletion_splits_via_partial_rebuild`:
        // the BFS from the removed edge's endpoints relabels all 8 nodes.
        let xs: Vec<f64> = (0..8).map(|i| i as f64).collect();
        let mut moved = xs.clone();
        for x in &mut moved[4..] {
            *x += 0.5;
        }
        let old = AdjacencyList::from_points_brute_force(&pts1(&xs), 1.1);
        let new = AdjacencyList::from_points_brute_force(&pts1(&moved), 1.1);
        let mut dc = DynamicComponents::from_graph(&old);
        assert_eq!(
            *dc.metrics(),
            ComponentMetrics::default(),
            "constructors must not count"
        );
        dc.apply(&old.diff(&new), &new);
        let m = *dc.metrics();
        assert_eq!(m.applies, 1);
        assert_eq!(m.partial_rebuilds, 1);
        assert_eq!(m.partial_nodes_relabeled, 8);
        assert_eq!((m.full_rebuilds, m.full_nodes_relabeled), (0, 0));
        assert_eq!(m.dsu_merges, 0);

        // Rejoining the path is pure insertion: one merge, no rebuild.
        dc.apply(&new.diff(&old), &old);
        let m = *dc.metrics();
        assert_eq!(m.applies, 2);
        assert_eq!(m.dsu_merges, 1);
        assert_eq!(m.partial_rebuilds, 1);

        // A redundant edge (both endpoints already joined) is not a merge.
        let extra = EdgeDiff {
            added: vec![(0, 2)],
            removed: Vec::new(),
        };
        let mut with_extra = old.clone();
        with_extra.insert_edge_sorted(0, 2);
        dc.apply(&extra, &with_extra);
        assert_eq!(dc.metrics().dsu_merges, 1, "same-root union is not a merge");

        // High churn routes to the full relabel and counts every node.
        let scattered = AdjacencyList::from_points_brute_force(
            &pts1(&[0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0]),
            1.1,
        );
        dc.apply(&with_extra.diff(&scattered), &scattered);
        let m = *dc.metrics();
        assert_eq!(m.full_rebuilds, 1);
        assert_eq!(m.full_nodes_relabeled, 8);
    }

    #[test]
    fn epoch_wraparound_resets_stamps() {
        let old = AdjacencyList::from_points_brute_force(&pts1(&[0.0, 1.0, 2.0]), 1.1);
        let new = AdjacencyList::from_points_brute_force(&pts1(&[0.0, 1.0, 5.0]), 1.1);
        let mut dc = DynamicComponents::from_graph(&old);
        dc.epoch = u32::MAX - 1; // force a wrap on the next two applies
        dc.apply(&old.diff(&new), &new);
        assert_matches_oracle(&dc, &new);
        dc.apply(&new.diff(&old), &old);
        assert_matches_oracle(&dc, &old);
    }
}
