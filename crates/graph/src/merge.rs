//! The Kruskal merge profile: largest component size as a function of
//! the transmitting range.
//!
//! For fixed node positions, raising the range `r` only adds edges, so
//! the size of the largest connected component is a nondecreasing step
//! function of `r`. The components at range `r` are exactly the
//! components of the minimum spanning tree's edges of length `<= r`
//! (the cut property), so [`MergeProfile`] materializes that step
//! function from the `n − 1` edges of
//! [`minimum_spanning_tree`](crate::minimum_spanning_tree) alone:
//! Kruskal's union order over the MST, recording every range at which
//! the maximum component size grows. The same MST that yields the
//! critical range therefore answers every range query.
//!
//! This is the device behind the paper's Figures 4–6: the average size
//! of the largest component at an arbitrary range — and the ranges
//! `rl90`, `rl75`, `rl50` at which it crosses `0.9n`, `0.75n`, `0.5n`
//! — can be evaluated *exactly* from one profile per simulation step,
//! instead of re-simulating for every candidate range.
//!
//! [`FloorProfile`] serves callers that want only the events at or
//! above a floor, one step of a trajectory after another: it skips the
//! steps whose last tree still shows every event lies below the floor,
//! grows the other steps' trees from the last tree's edges below the
//! floor (the warm step), and sorts only the tree edges above it.
//!
//! # Warm step
//!
//! A step whose screen fails still has most of the last tree's work
//! below the floor: the stale edges that are at most `lim` apart at the
//! new positions (`lim` as in [`FloorProfile`]) usually join all but a
//! few fringe nodes. The warm step grows the new tree from them.
//!
//! *Pieces.* The kept tree's edges are re-measured at the new
//! positions, and those with `d² <= lim` union into pieces. Each piece
//! is connected by pairs at most `lim` apart.
//!
//! *Contracted Prim.* Dense Prim then runs over the pieces instead of
//! the nodes. Every node outside the largest piece takes a column
//! slot: its coordinates, a key (its `d²` to the tree so far, `+∞` at
//! the start) and a parent (a node of the largest piece). Each node of
//! the largest piece relaxes every slot. Each round extracts the first
//! slot of smallest key and adds its edge. That node's whole piece
//! joins: its slots are swap-removed, and each of its nodes relaxes the
//! slots left. The loops are dense Prim's own `relax` and
//! `first_minimum` kernels (see [`crate::mst`]'s module docs). The new
//! tree is the kept edges below the floor plus one edge per piece
//! joined.
//!
//! *Exactness.* Let `H` be the graph whose vertices are the pieces,
//! two pieces joined at the smallest `d²` of any pair across them; the
//! contracted Prim builds an MST of `H`. Write `G(t)` for the points'
//! graph on the pairs with `d² <= t`. For every `t >= lim`, two nodes
//! are connected in `G(t)` exactly when their pieces are connected in
//! `H(t)`, since each piece is connected at `lim`; and the MST's edges
//! up to `t` connect exactly the pieces `H(t)` connects. So the new
//! tree's edges up to `t` have the components of `G(t)` at every
//! `t >= lim`, as any MST of the points does. The events at or above
//! the floor, and the largest component at `lim` that the first
//! event's growth counts from, are functions of those components
//! alone, so they are bit-identical to a cold build's. A tie only
//! chooses which tree is kept, which the next screen reads, and never
//! moves an event.
//!
//! *Budget.* Every pair across two pieces is relaxed exactly once, when
//! the earlier of its two pieces joins, so the warm step evaluates
//! `(n² − Σ sᵢ²) / 2` pair distances for piece sizes `sᵢ`, known before
//! the first relax. The step is warm only when that is fewer than the
//! pairs the last cold build examined: `n(n−1)/2` for dense Prim, which
//! any piece of two nodes or more beats, or grid-Kruskal's own count
//! from [`GRID_MST_MIN_NODES`](crate::mst::GRID_MST_MIN_NODES) nodes
//! on, which only large pieces beat. At a tie (no piece of two nodes
//! under dense Prim) the warm step would be dense Prim plus the piece
//! bookkeeping, so the step builds cold.
//!
//! *Two edge cases.* The parent column starts at a node of the largest
//! piece, not at node 0. A pair whose `d²` overflows to `+∞` never
//! relaxes, so a slot whose every pair to the tree overflowed joins
//! through its initial parent, and node 0 may lie in that slot's own
//! piece. And the warm step never reaches the tree builder's
//! finiteness check, so it runs that check itself: a non-finite
//! position still panics naming the node.

use crate::dsu::UnionFind;
use crate::mst::{assert_finite, first_minimum, relax, spanning_edges, MstEdge, RawEdge};
use manet_geom::{covering_range, Point};

/// Step function `r -> size of largest connected component`.
///
/// # Example
///
/// ```
/// use manet_geom::Point;
/// use manet_graph::MergeProfile;
///
/// // Nodes at 0, 1, 3: pairs at distance 1, 2, 3.
/// let pts = vec![Point::new([0.0]), Point::new([1.0]), Point::new([3.0])];
/// let prof = MergeProfile::of(&pts);
/// assert_eq!(prof.largest_component_at(0.5), 1);
/// assert_eq!(prof.largest_component_at(1.0), 2);
/// assert_eq!(prof.largest_component_at(2.0), 3);
/// assert_eq!(prof.critical_range(), Some(2.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct MergeProfile {
    n: usize,
    /// `(range, size)` events, strictly increasing in both coordinates:
    /// at ranges `>= range`, the largest component has at least `size`
    /// nodes.
    events: Vec<(f64, u32)>,
}

impl MergeProfile {
    /// Builds the profile of `points` by union-find over the `n − 1`
    /// `(a, b, d²)` edges of their minimum spanning tree sorted by
    /// `d²`. The cost is one
    /// [`minimum_spanning_tree`](crate::minimum_spanning_tree) (`O(n²)`
    /// dense Prim below its crossover, about `O(n log n)` grid-Kruskal
    /// on spread-out placements above it) without orienting the tree or
    /// taking a per-edge `covering_range`, plus a sort of `n − 1` keys;
    /// `O(n)` memory. `covering_range` runs only at the edges where the
    /// largest component grows. Equal-range edges form one event, so
    /// the profile does not depend on which tied MST the builder
    /// returns.
    ///
    /// # Panics
    ///
    /// Panics naming the first node with a non-finite coordinate (see
    /// [`minimum_spanning_tree`](crate::minimum_spanning_tree)).
    pub fn of<const D: usize>(points: &[Point<D>]) -> Self {
        let mut edges = Vec::new();
        spanning_edges(points, &mut edges);
        Self::from_edges(points.len(), edges, covering_range)
    }

    /// The profile of `n` nodes from any of their minimum spanning
    /// trees; exposed so the oracle tests can compare the profiles of
    /// two MST builders.
    #[doc(hidden)]
    pub fn from_spanning_tree(n: usize, edges: Vec<MstEdge>) -> Self {
        let edges = edges.into_iter().map(|e| (e.a, e.b, e.length)).collect();
        Self::from_edges(n, edges, |length| length)
    }

    /// The profile from tree edges `(a, b, w)`, where `range(w)` is the
    /// range admitting an edge of weight `w` and is nondecreasing in
    /// `w`: [`push_growth`] at floor 0, its growths summed into sizes.
    fn from_edges(n: usize, mut edges: Vec<RawEdge>, range: fn(f64) -> f64) -> Self {
        let mut growth = Vec::new();
        let mut components = UnionFind::new(n);
        push_growth(
            &mut edges,
            f64::NEG_INFINITY,
            range,
            &mut components,
            &mut growth,
        );
        let mut size = 1;
        let events = growth
            .into_iter()
            .map(|(r, g)| {
                size += g as u32;
                (r, size)
            })
            .collect();
        MergeProfile { n, events }
    }

    /// Number of nodes the profile describes.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// The recorded `(range, size)` growth events, one per distinct
    /// range, holding the size once every edge of that length has
    /// merged.
    pub fn events(&self) -> &[(f64, u32)] {
        &self.events
    }

    /// Size of the largest connected component at range `r`.
    ///
    /// For `n = 0` this is 0; for any `n >= 1` and `r` below the first
    /// merge it is 1.
    pub fn largest_component_at(&self, r: f64) -> usize {
        let mut size = if self.n == 0 { 0u32 } else { 1 };
        for &(range, s) in &self.events {
            if range <= r {
                size = s;
            } else {
                break;
            }
        }
        size as usize
    }

    /// The smallest range at which the largest component reaches
    /// `target` nodes, or `None` when `target > n`.
    ///
    /// `target <= 1` yields `Some(0.0)`: a single node needs no range.
    pub fn range_for_size(&self, target: usize) -> Option<f64> {
        if target > self.n {
            return None;
        }
        if target <= 1 {
            return Some(0.0);
        }
        for &(range, s) in &self.events {
            if s as usize >= target {
                return Some(range);
            }
        }
        // target <= n and every merge was recorded, so the last event
        // reaches n >= target; unreachable unless n <= 1 handled above.
        None
    }

    /// The critical transmitting range (range at which all `n` nodes
    /// join one component), or `None` for `n == 0`. Equals
    /// `Some(0.0)` for `n == 1`.
    pub fn critical_range(&self) -> Option<f64> {
        match self.n {
            0 => None,
            1 => Some(0.0),
            n => self.range_for_size(n),
        }
    }
}

/// The one profile loop. `components` holds the tree's `n` nodes as
/// singletons, or with some pairs of weight at most `lim` already
/// joined: the edges up to `lim` join them anyway, since the tree's
/// edges up to `lim` connect whatever its points' pairs up to `lim`
/// connect. Every edge `(a, b, w)` with `w <= lim` unions unsorted;
/// then the edges above `lim` are sorted by `w` and union in that
/// order. Each distinct `range(w)` at which the largest component
/// grows pushes one `(range, growth)` onto `events`, `growth` counted
/// from the largest component before that range, which starts at the
/// largest the edges up to `lim` left. `range` must be nondecreasing
/// in `w`, so sorting by `w` sorts by range.
fn push_growth(
    edges: &mut [RawEdge],
    lim: f64,
    range: fn(f64) -> f64,
    components: &mut UnionFind,
    events: &mut Vec<(f64, u64)>,
) {
    let mut cut = 0;
    for i in 0..edges.len() {
        let (a, b, w) = edges[i];
        if w <= lim {
            components.union(a as usize, b as usize);
            edges.swap(cut, i);
            cut += 1;
        }
    }
    let above = &mut edges[cut..];
    // Non-negative f64s order as their bit patterns. Unstable is
    // enough: a tie group collapses into one event, and the components
    // after the whole group do not depend on the order its edges merge
    // in.
    above.sort_unstable_by_key(|&(_, _, w)| w.to_bits());
    let mut largest = components.largest_component();
    for &(a, b, w) in &*above {
        components.union(a as usize, b as usize);
        let m = components.largest_component();
        if m > largest {
            let growth = (m - largest) as u64;
            largest = m;
            let r = range(w);
            match events.last_mut() {
                Some(last) if last.0 == r => last.1 += growth,
                _ => events.push((r, growth)),
            }
        }
    }
}

/// The largest `d²` whose covering range lies below `floor`:
/// `covering_range(d²) < floor` ⟺ `d² <= below_floor(floor)`, since
/// `covering_range(d²) <= r` ⟺ `d² <= r·r` for `r = floor.next_down()`.
/// At floor 0 no range lies below, not even a coincident pair's 0.
fn below_floor(floor: f64) -> f64 {
    if floor > 0.0 {
        let r = floor.next_down();
        // A `d²` that overflowed to `+∞` has range `+∞`, which no floor
        // exceeds.
        (r * r).min(f64::MAX)
    } else {
        f64::NEG_INFINITY
    }
}

/// The [`MergeProfile`] growth events at or above a floor, for the
/// steps of one trajectory in turn, with the buffers kept from one
/// step to the next.
///
/// [`events_at_or_above`](Self::events_at_or_above) returns, bit for
/// bit, the `(range, growth)` events of [`MergeProfile::of`] whose
/// range is at least `floor`, `growth` being how much the largest
/// component grows at `range`. Let `lim` be the largest `d²` whose
/// covering range is below the floor (`floor.next_down()²`, and `−∞`
/// at floor 0), so no `sqrt` runs except at a growth event. The
/// profiler keeps the last step's spanning tree, each edge's `d²`
/// measured at that step's positions. Each step first re-measures it
/// at the new positions when it spans as many points, then takes one
/// of three paths:
///
/// 1. *Screen.* When every kept edge is at most `lim` apart, the tree
///    connects the graph below the floor. No spanning tree's longest
///    edge is shorter than the MST bottleneck, the step's last event,
///    so the step has no event at or above the floor and no tree is
///    built. A NaN distance fails the test.
/// 2. *Warm.* Otherwise the kept edges up to `lim` are grown into the
///    step's tree by a contracted Prim over the pieces they join, when
///    that costs fewer pair distances than the last cold build (see
///    [the module docs](self#warm-step)). A non-finite position panics
///    here, naming the node, as the tree builder would.
/// 3. *Cold.* Otherwise (and on the first step, or when `n` changed)
///    the step builds its tree from scratch.
///
/// A step that built its tree keeps it for the next screen, unions the
/// edges up to `lim` unsorted and sorts only the edges above it. The
/// first event's growth counts from the largest component the edges
/// below the floor left. Floor 0 takes every edge: coincident points
/// still make an event at range 0.
///
/// [`counts`](Self::counts) reports how many steps took each path and
/// the pair distances the warm and cold builds evaluated.
///
/// # Example
///
/// ```
/// use manet_geom::Point;
/// use manet_graph::FloorProfile;
///
/// // Nodes at 0, 1, 3: events at range 1 (growth 1) and 2 (growth 1).
/// let mut pts = vec![Point::new([0.0]), Point::new([1.0]), Point::new([3.0])];
/// let mut profile = FloorProfile::new();
/// assert_eq!(profile.events_at_or_above(&pts, 0.0), &[(1.0, 1), (2.0, 1)]);
/// // The kept edge 0–1 is below the floor: node 2 joins it warm.
/// assert_eq!(profile.events_at_or_above(&pts, 1.5), &[(2.0, 1)]);
/// // Every edge of the last tree is below 2.5: screened.
/// assert!(profile.events_at_or_above(&pts, 2.5).is_empty());
/// // Node 2 moves away: a warm step again.
/// pts[2] = Point::new([4.0]);
/// assert_eq!(profile.events_at_or_above(&pts, 1.5), &[(3.0, 1)]);
/// // One cold build (the first step) and two warm steps.
/// assert_eq!((profile.trees_built(), profile.warm_steps()), (1, 2));
/// ```
#[derive(Debug, Clone, Default)]
pub struct FloorProfile {
    /// The last step's tree, as `(a, b, d²)` at that step's positions;
    /// its pairs screen the next step and seed its warm tree.
    tree: Vec<RawEdge>,
    components: UnionFind,
    events: Vec<(f64, u64)>,
    /// Pair distances the last cold build examined: the warm step's
    /// budget.
    budget: u64,
    warm: Contracted,
    counts: FloorCounts,
}

/// Deterministic work counters of a [`FloorProfile`]: pure functions
/// of the placements and floors it was fed. Every step is counted in
/// exactly one of `screened`, `warm` and `cold`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct FloorCounts {
    /// Steps profiled.
    pub steps: u64,
    /// Steps the kept tree screened: no event at or above the floor.
    pub screened: u64,
    /// Steps whose tree grew from the kept edges below the floor.
    pub warm: u64,
    /// Steps that built their tree from scratch.
    pub cold: u64,
    /// Pair distances the warm steps relaxed.
    pub warm_pairs: u64,
    /// Pair distances the cold builds evaluated.
    pub cold_pairs: u64,
}

impl FloorCounts {
    /// Adds `other`'s counts into `self` (commutative, associative).
    pub fn merge(&mut self, other: &FloorCounts) {
        self.steps += other.steps;
        self.screened += other.screened;
        self.warm += other.warm;
        self.cold += other.cold;
        self.warm_pairs += other.warm_pairs;
        self.cold_pairs += other.cold_pairs;
    }
}

impl FloorProfile {
    /// A profiler that holds no tree yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// How many steps built their tree from scratch.
    pub fn trees_built(&self) -> u64 {
        self.counts.cold
    }

    /// How many steps grew their tree from the kept edges below the
    /// floor.
    pub fn warm_steps(&self) -> u64 {
        self.counts.warm
    }

    /// Work counters accumulated over every step so far.
    pub fn counts(&self) -> FloorCounts {
        self.counts
    }

    /// The kept spanning tree as `(a, b, d²)`, each `d²` measured at
    /// the last step's positions; exposed for the oracle tests.
    #[doc(hidden)]
    pub fn kept_tree(&self) -> &[(u32, u32, f64)] {
        &self.tree
    }

    /// The growth events of `points`' merge profile whose range is at
    /// least `floor`, in increasing range order (see the [type
    /// docs](Self)).
    ///
    /// # Panics
    ///
    /// As [`MergeProfile::of`], whenever the step is not screened.
    pub fn events_at_or_above<const D: usize>(
        &mut self,
        points: &[Point<D>],
        floor: f64,
    ) -> &[(f64, u64)] {
        self.events.clear();
        self.counts.steps += 1;
        let lim = below_floor(floor);
        let n = points.len();
        let stale = self.tree.len() + 1 == n;
        if stale {
            let mut below = true;
            for (a, b, d2) in &mut self.tree {
                *d2 = points[*a as usize].distance_sq(&points[*b as usize]);
                below &= *d2 <= lim;
            }
            if below {
                self.counts.screened += 1;
                return &self.events;
            }
            assert_finite(points);
        }
        // The warm step leaves its pieces in `components`, whether or
        // not it builds the tree: pairs at most `lim` apart, which
        // `push_growth` may find joined.
        self.components.reset(n);
        let warm = if stale {
            let pieces = &mut self.components;
            self.warm
                .grow(points, lim, pieces, &mut self.tree, self.budget)
        } else {
            None
        };
        if let Some(pairs) = warm {
            self.counts.warm += 1;
            self.counts.warm_pairs += pairs;
        } else {
            let pairs = spanning_edges(points, &mut self.tree);
            self.budget = pairs;
            self.counts.cold += 1;
            self.counts.cold_pairs += pairs;
        }
        push_growth(
            &mut self.tree,
            lim,
            covering_range,
            &mut self.components,
            &mut self.events,
        );
        &self.events
    }
}

/// The empty link of [`Contracted`]'s piece lists.
const NONE: u32 = u32::MAX;

/// The warm step's contracted Prim (see [the module docs](self#warm-step)),
/// its buffers kept from one step to the next.
#[derive(Debug, Clone, Default)]
struct Contracted {
    /// Each node's piece, named by its union-find root.
    piece: Vec<u32>,
    /// Each piece's first node (indexed by its root) and each node's
    /// next node in its piece, [`NONE`]-terminated.
    first: Vec<u32>,
    next: Vec<u32>,
    /// Each node's column slot while it is outside the tree.
    slot: Vec<u32>,
    /// The nodes outside the tree as columns: one coordinate column
    /// per axis, the key (`d²` to the tree), the parent and the node.
    axes: Vec<Vec<f64>>,
    keys: Vec<f64>,
    parent: Vec<u32>,
    node: Vec<u32>,
}

impl Contracted {
    /// Moves `tree`'s edges with `d² <= lim` (current at `points`) to
    /// its front and unions them into `pieces`, which holds `n`
    /// singletons. When the contracted Prim would relax fewer pairs
    /// than `budget`, replaces the other edges with its edges and
    /// returns that pair count; otherwise returns `None` and leaves the
    /// edges for a cold build to replace. Expects finite points.
    fn grow<const D: usize>(
        &mut self,
        points: &[Point<D>],
        lim: f64,
        pieces: &mut UnionFind,
        tree: &mut Vec<RawEdge>,
        budget: u64,
    ) -> Option<u64> {
        let n = points.len();
        let mut below = 0;
        for i in 0..tree.len() {
            let (a, b, d2) = tree[i];
            if d2 <= lim {
                pieces.union(a as usize, b as usize);
                tree.swap(below, i);
                below += 1;
            }
        }
        self.piece.clear();
        self.first.clear();
        self.first.resize(n, NONE);
        self.next.resize(n, NONE);
        let (mut largest, mut largest_size, mut squares) = (0, 0, 0);
        for v in 0..n {
            let root = pieces.find(v);
            self.piece.push(root as u32);
            self.next[v] = self.first[root];
            self.first[root] = v as u32;
            if root == v {
                let size = pieces.component_size(v) as u64;
                squares += size * size;
                if size > largest_size {
                    (largest, largest_size) = (v as u32, size);
                }
            }
        }
        let pairs = ((n as u64).pow(2) - squares) / 2;
        if pairs >= budget {
            return None;
        }
        tree.truncate(below);

        self.axes.resize_with(D, Vec::new);
        for axis in &mut self.axes {
            axis.clear();
        }
        self.keys.clear();
        self.parent.clear();
        self.node.clear();
        self.slot.resize(n, NONE);
        for (v, p) in points.iter().enumerate() {
            if self.piece[v] != largest {
                self.slot[v] = self.node.len() as u32;
                for (axis, column) in self.axes.iter_mut().enumerate() {
                    column.push(p.coord(axis));
                }
                self.keys.push(f64::INFINITY);
                // A node of the largest piece, never one of `v`'s own:
                // a slot whose every pair overflows joins through it.
                self.parent.push(largest);
                self.node.push(v as u32);
            }
        }
        let mut len = self.node.len();
        self.relax_piece(points, largest, len);
        while len > 0 {
            let k = first_minimum(&self.keys[..len]);
            let b = self.node[k];
            tree.push((self.parent[k], b, self.keys[k]));
            let joined = self.piece[b as usize];
            let mut v = self.first[joined as usize];
            while v != NONE {
                len -= 1;
                self.swap_remove(self.slot[v as usize] as usize, len);
                v = self.next[v as usize];
            }
            self.relax_piece(points, joined, len);
        }
        Some(pairs)
    }

    /// Relaxes the first `len` slots against every node of `piece`.
    fn relax_piece<const D: usize>(&mut self, points: &[Point<D>], piece: u32, len: usize) {
        let columns: [&[f64]; D] = std::array::from_fn(|axis| &self.axes[axis][..]);
        let mut v = self.first[piece as usize];
        while v != NONE {
            let p = points[v as usize].coords();
            relax::<D, true, _>(p, v, &columns, &mut self.keys[..len], &mut self.parent);
            v = self.next[v as usize];
        }
    }

    /// Moves slot `last` into slot `k`.
    fn swap_remove(&mut self, k: usize, last: usize) {
        for column in &mut self.axes {
            column[k] = column[last];
        }
        self.keys[k] = self.keys[last];
        self.parent[k] = self.parent[last];
        self.node[k] = self.node[last];
        self.slot[self.node[k] as usize] = k as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjacency::AdjacencyList;
    use crate::components::largest_component_size;
    use crate::mst::{critical_range, minimum_spanning_tree};
    use manet_geom::covering_range;
    use rand::{RngExt, SeedableRng};

    /// The all-pairs oracle: Kruskal over every `i < j` pair sorted by
    /// squared distance, one raw event per growing union at the
    /// smallest range admitting the pair.
    fn all_pairs_events<const D: usize>(points: &[Point<D>]) -> Vec<(f64, u32)> {
        let n = points.len();
        let mut pairs = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                pairs.push((points[i].distance_sq(&points[j]), i, j));
            }
        }
        pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut uf = UnionFind::new(n);
        let mut events = Vec::new();
        let mut current_max = 1u32;
        for (d2, i, j) in pairs {
            uf.union(i, j);
            let m = uf.largest_component() as u32;
            if m > current_max {
                current_max = m;
                events.push((covering_range(d2), m));
            }
        }
        events
    }

    /// Collapses runs of equal-range events into the last (largest)
    /// size of the run.
    fn merge_same_range(events: Vec<(f64, u32)>) -> Vec<(f64, u32)> {
        let mut merged: Vec<(f64, u32)> = Vec::new();
        for (r, m) in events {
            match merged.last_mut() {
                Some(last) if last.0 == r => last.1 = m,
                _ => merged.push((r, m)),
            }
        }
        merged
    }

    /// A sparse integer lattice with holes and duplicate points: many
    /// pairs sit at exactly the same distance.
    fn lattice_with_holes(seed: u64, side: u32, keep: f64) -> Vec<Point<2>> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut pts = Vec::new();
        for x in 0..side {
            for y in 0..side {
                if rng.random_range(0.0..1.0) < keep {
                    let p = Point::new([f64::from(x), f64::from(y)]);
                    pts.push(p);
                    if rng.random_range(0.0..1.0) < 0.1 {
                        pts.push(p);
                    }
                }
            }
        }
        pts
    }

    /// The profile must not depend on the order of the edges inside a
    /// group of equal length: on lattice placements, where most tree
    /// edges tie, every permutation of each tie group (and of the whole
    /// input) yields the profile of the length-sorted tree.
    #[test]
    fn tie_group_order_does_not_change_the_profile() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        let mut shuffle = |edges: &mut [MstEdge]| {
            for i in (1..edges.len()).rev() {
                edges.swap(i, rng.random_range(0..=i));
            }
        };
        let mut widest_tie = 0;
        for seed in 0..4 {
            let pts = lattice_with_holes(seed, 14, 0.5);
            let mut tree = minimum_spanning_tree(&pts);
            tree.sort_by(|a, b| a.length.total_cmp(&b.length));
            let want = MergeProfile::from_spanning_tree(pts.len(), tree.clone());
            for round in 0..6 {
                let mut edges = tree.clone();
                for group in edges.chunk_by_mut(|a, b| a.length == b.length) {
                    widest_tie = widest_tie.max(group.len());
                    match round {
                        0 => group.reverse(),
                        1 => group.rotate_left(1),
                        _ => shuffle(group),
                    }
                }
                if round == 5 {
                    shuffle(&mut edges);
                }
                assert_eq!(
                    MergeProfile::from_spanning_tree(pts.len(), edges),
                    want,
                    "seed {seed} round {round}"
                );
            }
        }
        assert!(
            widest_tie >= 50,
            "the lattice must tie: widest group {widest_tie}"
        );
    }

    /// The `(a, b)` pairs of the profiler's kept tree, each low end
    /// first, sorted.
    fn kept_pairs(profile: &FloorProfile) -> Vec<(u32, u32)> {
        let mut pairs: Vec<_> = profile
            .tree
            .iter()
            .map(|&(a, b, _)| (a.min(b), a.max(b)))
            .collect();
        pairs.sort_unstable();
        pairs
    }

    /// `(cold builds, warm steps)`.
    fn paths(profile: &FloorProfile) -> (u64, u64) {
        (profile.trees_built(), profile.warm_steps())
    }

    #[test]
    fn stale_edge_above_the_floor_fails_the_screen() {
        // The stale tree 0–1–2 has its 0–1 pair 3 apart at the new
        // positions, above the floor 2.8, while the new tree 0–2–1
        // connects at 2.5, below it. The step must grow that tree from
        // the stale edge 1–2 (2.5 apart) and report nothing: profiling
        // the stale tree would report its 0–1 pair as an event at 3.
        let before = vec![Point::new([0.0]), Point::new([1.0]), Point::new([2.0])];
        let after = vec![Point::new([0.0]), Point::new([3.0]), Point::new([0.5])];
        let mut profile = FloorProfile::new();
        profile.events_at_or_above(&before, 0.0);
        assert_eq!(kept_pairs(&profile), [(0, 1), (1, 2)]);
        assert!(profile.events_at_or_above(&after, 2.8).is_empty());
        assert_eq!(paths(&profile), (1, 1));
        assert_eq!(kept_pairs(&profile), [(0, 2), (1, 2)]);
        // The new tree screens the same step, and at the bottleneck
        // itself the tie group at the floor is an event.
        assert!(profile.events_at_or_above(&after, 2.8).is_empty());
        assert_eq!(paths(&profile), (1, 1));
        assert_eq!(profile.events_at_or_above(&after, 2.5), &[(2.5, 1)]);
        assert_eq!(paths(&profile), (1, 2));
        let counts = profile.counts();
        assert_eq!((counts.steps, counts.screened), (4, 1));
        // Prim's 3 pairs, then one piece of 2 and a singleton: 2 pairs
        // per warm step.
        assert_eq!((counts.cold_pairs, counts.warm_pairs), (3, 4));
    }

    #[test]
    fn a_warm_step_that_saves_no_pair_builds_cold() {
        // No kept edge is below the floor: every piece is one node, so
        // the warm step would relax all of Prim's pairs.
        let pts = vec![Point::new([0.0]), Point::new([1.0]), Point::new([3.0])];
        let mut profile = FloorProfile::new();
        profile.events_at_or_above(&pts, 0.0);
        assert_eq!(profile.events_at_or_above(&pts, 0.5), &[(1.0, 1), (2.0, 1)]);
        assert_eq!(paths(&profile), (2, 0));
    }

    #[test]
    #[should_panic(expected = "minimum_spanning_tree: node 3 has a non-finite coordinate")]
    fn non_finite_position_fails_the_screen_and_names_the_node() {
        let pts = [0.0, 0.5, 1.0, 5.0].map(|x| Point::new([x]));
        let mut profile = FloorProfile::new();
        profile.events_at_or_above(&pts, 0.0);
        // The kept edges 0–1 and 1–2 stay below floor 10, so the step
        // goes warm, which never meets the tree builder's check: a NaN
        // key never relaxes, and node 3 would join at `+∞`.
        let nan = [0.0, 0.5, 1.0, f64::NAN].map(|x| Point::new([x]));
        profile.events_at_or_above(&nan, 10.0);
    }

    #[test]
    fn coincident_points_make_an_event_at_floor_zero() {
        let pts = vec![Point::new([1.0]), Point::new([1.0]), Point::new([3.0])];
        let mut profile = FloorProfile::new();
        assert_eq!(profile.events_at_or_above(&pts, 0.0), &[(0.0, 1), (2.0, 1)]);
        // The smallest positive floor leaves the pair below it.
        let tiny = 0.0_f64.next_up();
        assert_eq!(profile.events_at_or_above(&pts, tiny), &[(2.0, 1)]);
    }

    #[test]
    fn overflowed_pairs_stay_above_every_floor() {
        // Coordinates 1e200 apart square to `+∞`: the pair's range is
        // `+∞`, an event at every floor up to `+∞` itself.
        let pts = vec![Point::new([0.0]), Point::new([1e200])];
        let mut profile = FloorProfile::new();
        for floor in [0.0, 1.0, f64::MAX, f64::INFINITY] {
            assert_eq!(
                profile.events_at_or_above(&pts, floor),
                &[(f64::INFINITY, 1)],
                "floor {floor}"
            );
        }
        assert_eq!(profile.trees_built(), 4);
    }

    #[test]
    #[should_panic(expected = "minimum_spanning_tree: node 1 has a non-finite coordinate")]
    fn non_finite_position_names_the_node() {
        let pts = vec![Point::new([0.0]), Point::new([f64::NAN]), Point::new([1.0])];
        MergeProfile::of(&pts);
    }

    #[test]
    fn lattice_ties_match_the_all_pairs_oracle() {
        let mut tied_events = 0;
        let mut sqrt_rounds_below = 0;
        for seed in 0..6 {
            let pts = lattice_with_holes(seed, 14, 0.3);
            let n = pts.len();
            let prof = MergeProfile::of(&pts);
            let raw = all_pairs_events(&pts);
            tied_events += raw.len();
            let oracle = merge_same_range(raw);
            tied_events -= oracle.len();
            assert_eq!(prof.events(), &oracle[..], "seed {seed}");
            for target in 0..=n + 1 {
                let want = if target > n {
                    None
                } else if target <= 1 {
                    Some(0.0)
                } else {
                    oracle.iter().find(|e| e.1 as usize >= target).map(|e| e.0)
                };
                assert_eq!(prof.range_for_size(target), want, "seed {seed}");
            }
            assert_eq!(prof.critical_range(), Some(critical_range(&pts)));
            assert_eq!(prof.critical_range(), oracle.last().map(|e| e.0));

            // Probe at every distinct pair distance of the lattice, each
            // shared by many pairs: at `covering_range(d2)`, where the
            // graph's `d2 <= r * r` test first admits them, and one ulp
            // below it.
            let mut d2s: Vec<f64> = (0..n)
                .flat_map(|i| ((i + 1)..n).map(move |j| (i, j)))
                .map(|(i, j)| pts[i].distance_sq(&pts[j]))
                .collect();
            d2s.sort_by(f64::total_cmp);
            d2s.dedup();
            for d2 in d2s {
                if d2.sqrt() * d2.sqrt() < d2 {
                    sqrt_rounds_below += 1;
                }
                let r = covering_range(d2);
                // `d2 = 0` has no range below it.
                for r in [r, r.next_down()].into_iter().filter(|&r| r >= 0.0) {
                    let g = AdjacencyList::from_points_brute_force(&pts, r);
                    assert_eq!(
                        prof.largest_component_at(r),
                        largest_component_size(&g),
                        "seed {seed}, d2 {d2}, r {r:e}"
                    );
                }
            }
        }
        // The fixtures exercise same-range merging and squared
        // distances whose square root squares below them.
        assert!(tied_events > 0);
        assert!(sqrt_rounds_below > 0);
    }

    #[test]
    fn matches_the_all_pairs_oracle_at_scale() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1000);
        let pts: Vec<Point<2>> = (0..1000)
            .map(|_| Point::new([rng.random_range(0.0..1000.0), rng.random_range(0.0..1000.0)]))
            .collect();
        let raw = all_pairs_events(&pts);
        let prof = MergeProfile::of(&pts);
        assert_eq!(prof.events(), &raw[..]);
        assert_eq!(prof.critical_range(), Some(critical_range(&pts)));
    }

    #[test]
    fn empty_and_singleton() {
        let empty: Vec<Point<1>> = vec![];
        let p0 = MergeProfile::of(&empty);
        assert_eq!(p0.largest_component_at(10.0), 0);
        assert_eq!(p0.critical_range(), None);
        assert_eq!(p0.range_for_size(1), None);

        let one = vec![Point::new([2.0])];
        let p1 = MergeProfile::of(&one);
        assert_eq!(p1.largest_component_at(0.0), 1);
        assert_eq!(p1.critical_range(), Some(0.0));
        assert_eq!(p1.range_for_size(1), Some(0.0));
    }

    #[test]
    fn events_are_monotone() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let pts: Vec<Point<2>> = (0..50)
            .map(|_| Point::new([rng.random_range(0.0..20.0), rng.random_range(0.0..20.0)]))
            .collect();
        let prof = MergeProfile::of(&pts);
        for w in prof.events().windows(2) {
            assert!(w[0].0 < w[1].0, "ranges must strictly increase");
            assert!(w[0].1 < w[1].1, "sizes must strictly increase");
        }
        assert_eq!(prof.events().last().unwrap().1 as usize, pts.len());
    }

    #[test]
    fn profile_matches_direct_component_computation() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let pts: Vec<Point<2>> = (0..40)
            .map(|_| Point::new([rng.random_range(0.0..15.0), rng.random_range(0.0..15.0)]))
            .collect();
        let prof = MergeProfile::of(&pts);
        for r in [0.5, 1.0, 2.0, 3.5, 5.0, 8.0, 20.0] {
            let g = AdjacencyList::from_points_brute_force(&pts, r);
            assert_eq!(
                prof.largest_component_at(r),
                largest_component_size(&g),
                "mismatch at r = {r}"
            );
        }
    }

    #[test]
    fn critical_range_matches_mst_bottleneck() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(29);
        for _ in 0..5 {
            let pts: Vec<Point<2>> = (0..35)
                .map(|_| Point::new([rng.random_range(0.0..25.0), rng.random_range(0.0..25.0)]))
                .collect();
            let from_profile = MergeProfile::of(&pts).critical_range().unwrap();
            assert_eq!(from_profile, critical_range(&pts));
        }
    }

    #[test]
    fn range_for_size_is_inverse_of_largest_at() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        let pts: Vec<Point<2>> = (0..30)
            .map(|_| Point::new([rng.random_range(0.0..12.0), rng.random_range(0.0..12.0)]))
            .collect();
        let prof = MergeProfile::of(&pts);
        for target in 2..=pts.len() {
            let r = prof.range_for_size(target).unwrap();
            assert!(prof.largest_component_at(r) >= target);
            assert!(prof.largest_component_at(r.next_down()) < target);
        }
        assert_eq!(prof.range_for_size(pts.len() + 1), None);
    }

    #[test]
    fn duplicates_merge_at_zero() {
        let pts = vec![Point::new([1.0]); 3];
        let prof = MergeProfile::of(&pts);
        assert_eq!(prof.largest_component_at(0.0), 3);
        assert_eq!(prof.critical_range(), Some(0.0));
    }
}
