//! Euclidean minimum spanning trees and the critical transmitting range.
//!
//! For a fixed point set `P`, the communication graph at range `r` is
//! connected **iff** `r` is at least the longest edge of the Euclidean
//! MST of `P` (the *bottleneck*): every MST edge of length `<= r` is
//! present at range `r`, so the MST connects the graph; conversely, any
//! MST edge of length `> r` corresponds to a cut that no shorter edge
//! crosses. This single number — the **critical transmitting range**
//! (CTR) — is therefore the exact solution of the paper's MTR problem
//! for a known placement, and its per-step time series drives the whole
//! mobile evaluation (see `manet-sim`).
//!
//! Two entry points compute it:
//!
//! * [`critical_range`] — stateless, one [`minimum_spanning_tree`] per
//!   call. The answer for independent placements.
//! * [`CriticalRangeTracker`] — the same value, bit for bit, for a
//!   *sequence* of placements that each moved a little since the last
//!   (one mobility trajectory). It keeps the previous step's spanning
//!   tree and *certifies* the bottleneck instead of recomputing the MST.
//!
//! # The certificate
//!
//! Work with squared distances throughout, and let `b*` be the
//! *bottleneck*: the smallest possible longest edge over all spanning
//! trees, which is the longest edge of every MST. Let `T` be any
//! spanning tree, `e` its longest edge (squared length `L`), and
//! `(A, B)` the two sides of `T` with `e` removed. `T` itself shows
//! `b* <= L`. Every spanning tree crosses the cut `(A, B)`, so every
//! spanning tree has an edge at least as long as `m`, the minimum over
//! the `|A|·|B|` cross pairs; hence `b* >= m`. Since `e` itself crosses
//! the cut, `m <= L`. When `m == L` the bounds meet and `b* = L`
//! exactly (bottleneck min–max duality). `L` is one pair's
//! `distance_sq`, the same value Prim compares (the function is
//! symmetric bit for bit, since `a − b` and `b − a` round to negatives
//! of each other), so `covering_range(L)` is bit-identical to
//! [`critical_range`] whichever tied MST Prim picks.
//!
//! When `m < L`, swapping `e` for the shortest cross pair yields a
//! spanning tree of strictly smaller total weight, and the tracker
//! repeats. Total weight strictly decreases, so no tree repeats and the
//! loop terminates; its cost is bounded explicitly instead: before each
//! cut scan the tracker checks that the step's scans stay within
//! Prim's own `n(n−1)/2` pairs and otherwise *reseeds* from
//! [`minimum_spanning_tree`]. Any step therefore costs at most one
//! budget of scans plus one MST build, which is at most about 1.5
//! Prims (see below) and far less at large `n`. A typical
//! mobility step needs one or two rounds, and its longest edge usually
//! cuts off one node or a few, so each round costs `O(n)`.
//!
//! # One dispatch rule
//!
//! [`minimum_spanning_tree`] runs dense Prim (`n(n−1)/2` pair
//! distances, `O(n)` memory) below [`GRID_MST_MIN_NODES`] nodes, and on
//! any input with a negative coordinate or zero extent. Otherwise it
//! runs an exact incremental grid-Kruskal over a [`MovingCellGrid`] on
//! `[0, side]^D`, `side` the largest coordinate. Pass `k` buckets the
//! points at radius `R_k = 1.3·(A·ln n / (V_D·n))^{1/D}·1.5^k` (`A =
//! side^D`, `V_D` the unit ball's volume, so `R_0` is 1.3 times the
//! connectivity radius of a uniform placement) and collects the pairs
//! with `R_{k−1}² < d² <= R_k²` whose endpoints lie in different
//! components so far. Each pair's `d²` is [`Point::distance_sq`], the
//! value Prim compares. A pass sorts its pairs by `d²` and unions them
//! in that order, until the forest has `n − 1` edges.
//!
//! The result is an exact MST. A pass ends with every pair of length
//! `<= R_k` considered in nondecreasing order after every shorter one,
//! which is Kruskal's order on the complete graph with the pairs it
//! would reject left out. Every MST edge is at most the bottleneck,
//! and the bottleneck is at most the last pass's `R_k`, so no pair the
//! passes never reached can belong to the tree. Every MST has the same
//! sorted edge lengths, so the bottleneck, [`critical_range`] and
//! [`MergeProfile`](crate::MergeProfile) are bit-identical to Prim's.
//! The tree is re-emitted breadth-first from node 0, so each edge's `a`
//! is in the tree before `b`, as in Prim's order.
//!
//! Song, Goeckel and Towsley (cs/0509085) are why the candidate set at
//! `R_0` is `O(n log n)` for a uniform placement; `R_0` does not affect
//! exactness, only the number of passes. A pass is priced from the
//! bucket sizes before it runs: when the passes would examine more
//! than half of Prim's pairs (clustered or coincident points), the grid
//! gives way to Prim, so no input costs more than about 1.5 Prims.

use crate::dsu::UnionFind;
use manet_geom::{covering_range, MovingCellGrid, Point};

/// One edge of a minimum spanning tree.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct MstEdge {
    /// First endpoint (index into the input point slice).
    pub a: u32,
    /// Second endpoint.
    pub b: u32,
    /// The smallest range that admits the edge: [`covering_range`] of
    /// its squared length, so the edge is present at range `r` exactly
    /// when `length <= r`.
    pub length: f64,
}

/// Panics naming the first node with a non-finite coordinate: a NaN or
/// infinite position has no distance to anything.
fn assert_finite<const D: usize>(points: &[Point<D>]) {
    for (i, p) in points.iter().enumerate() {
        assert!(
            p.is_finite(),
            "minimum_spanning_tree: node {i} has a non-finite coordinate {:?}",
            p.coords()
        );
    }
}

/// Number of distinct pairs among `n` nodes: one dense Prim's distance
/// evaluations.
fn pair_count(n: usize) -> u64 {
    let n = n as u64;
    n * n.saturating_sub(1) / 2
}

/// Node count from which [`minimum_spanning_tree`] runs grid-Kruskal
/// instead of dense Prim (see the [module docs](self)). Measured by
/// the `kernels` bench's `mst` rows; DESIGN.md records the table.
pub const GRID_MST_MIN_NODES: usize = 512;

/// `R_0` over the connectivity radius of a uniform placement.
const GRID_MST_FIRST_RADIUS: f64 = 1.3;

/// Growth of the radius from one grid-Kruskal pass to the next.
const GRID_MST_RADIUS_GROWTH: f64 = 1.5;

/// The MST of `points` and the number of pair distances evaluated
/// to build it: the one dispatch rule of the [module docs](self).
fn spanning_tree<const D: usize>(points: &[Point<D>]) -> (Vec<MstEdge>, u64) {
    let n = points.len();
    let mut examined = 0;
    if n >= GRID_MST_MIN_NODES {
        assert_finite(points);
        match grid_kruskal(points) {
            Ok(tree) => return tree,
            Err(spent) => examined = spent,
        }
    }
    (minimum_spanning_tree_prim(points), examined + pair_count(n))
}

/// A vertex outside Prim's tree: its position, its best known squared
/// distance to the tree and the tree vertex achieving it.
#[derive(Clone, Copy)]
struct Candidate<const D: usize> {
    point: Point<D>,
    d2: f64,
    parent: u32,
    index: u32,
}

/// Computes the Euclidean MST: dense Prim below
/// [`GRID_MST_MIN_NODES`] nodes, exact grid-Kruskal at and above it
/// (see the [module docs](self) for the dispatch rule and the
/// exactness argument).
///
/// Returns `n - 1` edges for `n >= 1` points (empty for `n <= 1`).
/// Edges grow one tree from node 0: each edge's `a` is already in the
/// tree when `b` joins. Each length is the exact range at which its
/// edge appears (see [`MstEdge::length`]). Among
/// equal-length candidates the choice is unspecified, so with ties the
/// edge set may be any of the tied MSTs (the bottleneck and the sorted
/// length sequence are the same for all).
///
/// # Panics
///
/// Panics naming the first node with a non-finite coordinate: a NaN
/// or infinite position has no distance to anything.
///
/// # Example
///
/// ```
/// use manet_geom::Point;
/// use manet_graph::minimum_spanning_tree;
///
/// let pts = vec![Point::new([0.0]), Point::new([3.0]), Point::new([1.0])];
/// let mst = minimum_spanning_tree(&pts);
/// assert_eq!(mst.len(), 2);
/// let total: f64 = mst.iter().map(|e| e.length).sum();
/// assert!((total - 3.0).abs() < 1e-12);
/// ```
pub fn minimum_spanning_tree<const D: usize>(points: &[Point<D>]) -> Vec<MstEdge> {
    spanning_tree(points).0
}

/// Grid-Kruskal at any `n`, with the pair distances it evaluated, or
/// `None` where [`minimum_spanning_tree`] would fall back to Prim
/// (a negative coordinate, zero extent, or more than half of Prim's
/// pairs); exposed for the oracle tests and benches.
///
/// # Panics
///
/// As [`minimum_spanning_tree`].
#[doc(hidden)]
pub fn minimum_spanning_tree_grid<const D: usize>(
    points: &[Point<D>],
) -> Option<(Vec<MstEdge>, u64)> {
    assert_finite(points);
    grid_kruskal(points).ok()
}

/// Dense Prim at any `n`, [`minimum_spanning_tree`]'s path below
/// [`GRID_MST_MIN_NODES`]; exposed for the oracle tests and benches.
/// `O(n²)` time and `O(n)` memory — optimal for the complete geometric
/// graph, where just enumerating candidate edges already costs `n²/2`
/// distance evaluations. Edges come in the order Prim adds them,
/// growing one tree from node 0.
///
/// # Panics
///
/// As [`minimum_spanning_tree`].
#[doc(hidden)]
pub fn minimum_spanning_tree_prim<const D: usize>(points: &[Point<D>]) -> Vec<MstEdge> {
    assert_finite(points);
    let n = points.len();
    if n <= 1 {
        return Vec::new();
    }
    // The non-tree vertices, compacted: adding a vertex swap-removes
    // its slot, so the scan streams over non-tree vertices only and
    // needs no membership test.
    let mut rest: Vec<Candidate<D>> = points
        .iter()
        .zip(0u32..)
        .skip(1)
        .map(|(&point, index)| Candidate {
            point,
            d2: f64::INFINITY,
            parent: 0,
            index,
        })
        .collect();
    let mut edges = Vec::with_capacity(n - 1);

    let (mut current, mut p) = (0u32, points[0]);
    while !rest.is_empty() {
        // Relax distances against the vertex just added, then pick the
        // closest non-tree vertex.
        let mut next = 0;
        let mut next_d2 = f64::INFINITY;
        for (k, c) in rest.iter_mut().enumerate() {
            let d2 = p.distance_sq(&c.point);
            if d2 < c.d2 {
                c.d2 = d2;
                c.parent = current;
            }
            if c.d2 < next_d2 {
                next_d2 = c.d2;
                next = k;
            }
        }
        let added = rest.swap_remove(next);
        edges.push(MstEdge {
            a: added.parent,
            b: added.index,
            length: covering_range(added.d2),
        });
        (current, p) = (added.index, added.point);
    }
    edges
}

/// Volume of the unit ball in `d` dimensions (`2`, `π`, `4π/3`, …).
fn unit_ball_volume(d: usize) -> f64 {
    match d {
        0 => 1.0,
        1 => 2.0,
        _ => unit_ball_volume(d - 2) * 2.0 * std::f64::consts::PI / d as f64,
    }
}

/// Exact incremental grid-Kruskal (see the [module docs](self)):
/// `Ok((tree, pairs examined))`, or `Err(pairs examined)` when the
/// input is outside the grid's domain (a negative coordinate, zero
/// extent) or the next pass would take the examined pairs past half
/// of Prim's. Expects finite points.
fn grid_kruskal<const D: usize>(points: &[Point<D>]) -> Result<(Vec<MstEdge>, u64), u64> {
    let n = points.len();
    if n <= 1 {
        return Ok((Vec::new(), 0));
    }
    let mut side = 0.0f64;
    for p in points {
        for c in p.coords() {
            if c < 0.0 {
                return Err(0);
            }
            side = side.max(c);
        }
    }
    if side == 0.0 {
        return Err(0);
    }
    let budget = pair_count(n) / 2;
    let nf = n as f64;
    let mut radius = GRID_MST_FIRST_RADIUS
        * (side.powi(D as i32) * nf.ln() / (unit_ball_volume(D) * nf)).powf(1.0 / D as f64);
    // Cells a hair above the radius, so that rounding in the cell
    // arithmetic cannot push an in-range pair two cells apart.
    let cell_for =
        |radius: f64| MovingCellGrid::<D>::lattice_cell_size(n, side, radius * (1.0 + 1e-9));
    let mut grid = cell_for(radius)
        .and_then(|cell| MovingCellGrid::build(points, side, cell))
        .map_err(|_| 0u64)?;
    let mut components = UnionFind::new(n);
    let mut tree: Vec<(u32, u32, f64)> = Vec::with_capacity(n - 1);
    let mut pass: Vec<(u64, u32, u32)> = Vec::new();
    let mut examined = 0u64;
    let mut done_r2 = f64::NEG_INFINITY;
    loop {
        if examined + grid.forward_pair_count() > budget {
            return Err(examined);
        }
        let r2 = radius * radius;
        pass.clear();
        examined += grid.scan_forward_pairs(r2, |a, b| {
            let d2 = points[a as usize].distance_sq(&points[b as usize]);
            // A pair within the last pass's radius already shares a
            // component: skip it before the two finds.
            if d2 > done_r2 && components.find(a as usize) != components.find(b as usize) {
                pass.push((d2.to_bits(), a, b));
            }
        });
        // Non-negative f64s order as their bit patterns; ties may union
        // in any order, every one of them yields an MST.
        pass.sort_unstable_by_key(|&(bits, _, _)| bits);
        for &(bits, a, b) in &pass {
            if components.union(a as usize, b as usize) {
                tree.push((a, b, f64::from_bits(bits)));
                if tree.len() == n - 1 {
                    return Ok((breadth_first(n, &tree), examined));
                }
            }
        }
        done_r2 = r2;
        radius *= GRID_MST_RADIUS_GROWTH;
        cell_for(radius)
            .and_then(|cell| grid.rebuild_with_cell_size(points, side, cell))
            .map_err(|_| examined)?;
    }
}

/// Re-emits a spanning tree, given as `(a, b, d²)` edges, breadth-first
/// from node 0, oriented so each edge's `a` is already in the tree.
fn breadth_first(n: usize, tree: &[(u32, u32, f64)]) -> Vec<MstEdge> {
    // Compressed adjacency: node v's neighbors are
    // `adj[start[v]..start[v + 1]]`.
    let mut start = vec![0u32; n + 1];
    for &(a, b, _) in tree {
        start[a as usize + 1] += 1;
        start[b as usize + 1] += 1;
    }
    for v in 0..n {
        start[v + 1] += start[v];
    }
    let mut fill = start.clone();
    let mut adj = vec![(0u32, 0.0f64); 2 * tree.len()];
    for &(a, b, d2) in tree {
        for (from, to) in [(a, b), (b, a)] {
            adj[fill[from as usize] as usize] = (to, d2);
            fill[from as usize] += 1;
        }
    }
    let mut seen = vec![false; n];
    seen[0] = true;
    let mut order = Vec::with_capacity(n);
    order.push(0u32);
    let mut edges = Vec::with_capacity(n - 1);
    let mut k = 0;
    while k < order.len() {
        let v = order[k];
        k += 1;
        for &(w, d2) in &adj[start[v as usize] as usize..start[v as usize + 1] as usize] {
            if !seen[w as usize] {
                seen[w as usize] = true;
                order.push(w);
                edges.push(MstEdge {
                    a: v,
                    b: w,
                    length: covering_range(d2),
                });
            }
        }
    }
    edges
}

/// The critical transmitting range of a placement: the longest MST
/// edge, i.e. the minimum common range `r` making the communication
/// graph connected. The answer is exact in floating point: the graph
/// builders' `d² <= r·r` test connects the graph at the returned `c`
/// and disconnects it at `c.next_down()`.
///
/// Returns `0.0` for fewer than two points (a single node is trivially
/// connected).
///
/// # Panics
///
/// Panics naming the first node with a non-finite coordinate (see
/// [`minimum_spanning_tree`]).
///
/// # Example
///
/// ```
/// use manet_geom::Point;
/// use manet_graph::{critical_range, AdjacencyList, ComponentSummary};
///
/// // Nodes at 0, 1 and 4: the MST edges are 1 and 3, so r = 3 connects.
/// let pts = vec![Point::new([0.0]), Point::new([1.0]), Point::new([4.0])];
/// assert_eq!(critical_range(&pts), 3.0);
///
/// // d² = 13, and sqrt(13)² rounds below 13: the answer is one ulp up.
/// let pair = vec![Point::new([0.0, 0.0]), Point::new([2.0, 3.0])];
/// let c = critical_range(&pair);
/// let connected = |r: f64| {
///     ComponentSummary::of(&AdjacencyList::from_points(&pair, 4.0, r)).is_connected()
/// };
/// assert!(connected(c) && !connected(c.next_down()));
/// ```
pub fn critical_range<const D: usize>(points: &[Point<D>]) -> f64 {
    longest(&minimum_spanning_tree(points))
}

/// Length of the longest edge (`0.0` for none).
fn longest(edges: &[MstEdge]) -> f64 {
    edges.iter().map(|e| e.length).fold(0.0, f64::max)
}

/// Deterministic work counters of a [`CriticalRangeTracker`]: pure
/// functions of the placements it was fed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrackerCounts {
    /// Queries answered.
    pub calls: u64,
    /// Queries answered by a certificate, without a reseed.
    pub certified: u64,
    /// Cut scans (certification rounds) run.
    pub rounds: u64,
    /// Queries answered by a from-scratch [`minimum_spanning_tree`]:
    /// the first query, a change of `n`, `n < 2`, or an exhausted
    /// budget.
    pub reseeds: u64,
    /// Candidate pair distances evaluated: every cut scan's `|A|·|B|`
    /// plus each reseed's own count (`n(n−1)/2` for dense Prim, the
    /// pairs its passes examined for grid-Kruskal).
    pub pairs: u64,
}

/// Warm-start critical range along a trajectory: carries the previous
/// placement's spanning tree and certifies the new bottleneck (see the
/// [module docs](self) for the certificate and its proof).
///
/// [`critical_range`](Self::critical_range) returns exactly
/// [`critical_range`](fn@critical_range)'s value, bit for bit, for any
/// sequence of placements. It is fast when consecutive placements are
/// close (one mobility step apart) and never costs more than about 2.5
/// cold Prims, because each query's cut scans are capped at Prim's
/// `n(n−1)/2` pairs before it falls back to a reseed. It holds `O(n)`
/// memory and no state but the last tree, so one tracker per
/// trajectory keeps results independent of how trajectories are
/// scheduled across threads.
///
/// The tree is kept rooted at node 0 with intrusive child lists, so the
/// side of a cut edge below it is enumerated in time proportional to
/// its size, and an edge swap re-roots that side along one path.
///
/// # Example
///
/// ```
/// use manet_geom::Point;
/// use manet_graph::{critical_range, CriticalRangeTracker};
///
/// let mut tracker = CriticalRangeTracker::new();
/// let mut pts = vec![Point::new([0.0]), Point::new([1.0]), Point::new([4.0])];
/// assert_eq!(tracker.critical_range(&pts), 3.0); // reseed: first query
/// pts[2] = Point::new([3.5]);
/// assert_eq!(tracker.critical_range(&pts), critical_range(&pts)); // certified
/// assert_eq!(tracker.counts().reseeds, 1);
/// assert_eq!(tracker.counts().certified, 1);
/// ```
#[derive(Debug, Default)]
pub struct CriticalRangeTracker {
    /// Parent of each node in the last placement's spanning tree, rooted
    /// at node 0 (`parent[0]` is [`NONE`]); empty when there is no tree.
    parent: Vec<u32>,
    /// Each node's children as a doubly linked list through
    /// `next_sibling`/`prev_sibling`, [`NONE`]-terminated.
    first_child: Vec<u32>,
    next_sibling: Vec<u32>,
    prev_sibling: Vec<u32>,
    /// Squared length of each node's edge to its parent at the current
    /// placement; `-inf` for the root, so it is never the longest.
    len2: Vec<f64>,
    /// Scratch: the subtree below the current cut edge, as a list and
    /// as flags.
    subtree: Vec<u32>,
    in_subtree: Vec<bool>,
    counts: TrackerCounts,
}

/// The empty link of the tracker's parent and child lists.
const NONE: u32 = u32::MAX;

impl CriticalRangeTracker {
    /// A tracker with no tree yet: its first query reseeds.
    pub fn new() -> Self {
        Self::default()
    }

    /// Work counters accumulated over every query so far.
    pub fn counts(&self) -> TrackerCounts {
        self.counts
    }

    /// The critical transmitting range of `points`, bit-identical to
    /// [`critical_range`](fn@critical_range), certified against the
    /// tree kept from the previous query when one exists for the same
    /// `n`.
    ///
    /// # Panics
    ///
    /// Panics naming the first node with a non-finite coordinate, with
    /// [`minimum_spanning_tree`]'s message.
    pub fn critical_range<const D: usize>(&mut self, points: &[Point<D>]) -> f64 {
        assert_finite(points);
        self.counts.calls += 1;
        let n = points.len();
        if n < 2 || self.parent.len() != n {
            return self.reseed(points);
        }
        let r = self.certify(points);
        #[cfg(feature = "strict-invariants")]
        debug_assert_eq!(
            r.to_bits(),
            critical_range(points).to_bits(),
            "strict-invariants: certified critical range differs from Prim's"
        );
        r
    }

    /// Replaces the tree with a fresh MST and returns its bottleneck.
    fn reseed<const D: usize>(&mut self, points: &[Point<D>]) -> f64 {
        let n = points.len();
        let (mst, pairs) = spanning_tree(points);
        self.counts.reseeds += 1;
        self.counts.pairs += pairs;
        for list in [
            &mut self.parent,
            &mut self.first_child,
            &mut self.next_sibling,
            &mut self.prev_sibling,
        ] {
            list.clear();
            list.resize(n, NONE);
        }
        // The tree grows from node 0, and each edge's `a` is already in
        // it when `b` joins, so `a` is `b`'s parent.
        for e in &mst {
            self.link(e.b, e.a);
        }
        self.in_subtree.clear();
        self.in_subtree.resize(n, false);
        longest(&mst)
    }

    /// Runs certification rounds on the kept tree (`n >= 2`), swapping
    /// the longest edge for the shortest cut pair until the certificate
    /// holds or the budget runs out.
    fn certify<const D: usize>(&mut self, points: &[Point<D>]) -> f64 {
        let n = points.len();
        let budget = pair_count(n);
        let mut scanned = 0u64;
        self.len2.clear();
        self.len2.push(f64::NEG_INFINITY);
        self.len2
            .extend((1..n).map(|v| points[v].distance_sq(&points[self.parent[v] as usize])));
        loop {
            let (cut, l2) = self.len2.iter().copied().enumerate().fold(
                (0, f64::NEG_INFINITY),
                |best, (v, d2)| if d2 > best.1 { (v, d2) } else { best },
            );
            self.collect_subtree(cut as u32);
            let size = self.subtree.len();
            let pairs = (size * (n - size)) as u64;
            if scanned + pairs > budget {
                return self.reseed(points);
            }
            scanned += pairs;
            self.counts.rounds += 1;
            self.counts.pairs += pairs;

            let (m, [inside, outside]) = self.shortest_cut_pair(points, cut, l2);
            if m == l2 {
                self.counts.certified += 1;
                return covering_range(l2);
            }
            self.rehang(cut as u32, inside, outside, m);
        }
    }

    /// Fills `subtree` with `root` and its descendants.
    fn collect_subtree(&mut self, root: u32) {
        self.subtree.clear();
        self.subtree.push(root);
        let mut k = 0;
        while k < self.subtree.len() {
            let mut child = self.first_child[self.subtree[k] as usize];
            while child != NONE {
                self.subtree.push(child);
                child = self.next_sibling[child as usize];
            }
            k += 1;
        }
    }

    /// The shortest pair across the cut between `subtree` (below edge
    /// `cut`) and the rest, as `(squared length, [inside, outside])`.
    /// The cut edge itself crosses with squared length `l2`, so only a
    /// strictly shorter pair replaces it. The outer loop runs over the
    /// smaller side, so the work stays within twice the pair count.
    fn shortest_cut_pair<const D: usize>(
        &mut self,
        points: &[Point<D>],
        cut: usize,
        l2: f64,
    ) -> (f64, [u32; 2]) {
        let mut best = (l2, [cut as u32, self.parent[cut]]);
        for &v in &self.subtree {
            self.in_subtree[v as usize] = true;
        }
        if 2 * self.subtree.len() <= points.len() {
            for &i in &self.subtree {
                let p = points[i as usize];
                for (j, q) in points.iter().enumerate() {
                    if !self.in_subtree[j] {
                        let d2 = p.distance_sq(q);
                        if d2 < best.0 {
                            best = (d2, [i, j as u32]);
                        }
                    }
                }
            }
        } else {
            for (j, q) in points.iter().enumerate() {
                if !self.in_subtree[j] {
                    for &i in &self.subtree {
                        let d2 = q.distance_sq(&points[i as usize]);
                        if d2 < best.0 {
                            best = (d2, [i, j as u32]);
                        }
                    }
                }
            }
        }
        for &v in &self.subtree {
            self.in_subtree[v as usize] = false;
        }
        best
    }

    /// Swaps edge `cut` (to `cut`'s parent) for the edge `inside`–
    /// `outside` of squared length `len2`: re-roots the subtree below
    /// `cut` at `inside` by reversing the path between them, and hangs
    /// it from `outside`.
    fn rehang(&mut self, cut: u32, inside: u32, outside: u32, len2: f64) {
        let (mut v, mut new_parent, mut new_len2) = (inside, outside, len2);
        loop {
            let (old_parent, old_len2) = (self.parent[v as usize], self.len2[v as usize]);
            self.unlink(v);
            self.link(v, new_parent);
            self.len2[v as usize] = new_len2;
            if v == cut {
                return;
            }
            (v, new_parent, new_len2) = (old_parent, v, old_len2);
        }
    }

    /// Makes `v` the first child of `parent`.
    fn link(&mut self, v: u32, parent: u32) {
        let head = self.first_child[parent as usize];
        self.parent[v as usize] = parent;
        self.next_sibling[v as usize] = head;
        self.prev_sibling[v as usize] = NONE;
        if head != NONE {
            self.prev_sibling[head as usize] = v;
        }
        self.first_child[parent as usize] = v;
    }

    /// Removes `v` from its parent's child list.
    fn unlink(&mut self, v: u32) {
        let (prev, next) = (self.prev_sibling[v as usize], self.next_sibling[v as usize]);
        if prev == NONE {
            self.first_child[self.parent[v as usize] as usize] = next;
        } else {
            self.next_sibling[prev as usize] = next;
        }
        if next != NONE {
            self.prev_sibling[next as usize] = prev;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjacency::AdjacencyList;
    use crate::components::is_connected;
    use rand::{RngExt, SeedableRng};

    #[test]
    fn degenerate_inputs() {
        let empty: Vec<Point<2>> = vec![];
        assert!(minimum_spanning_tree(&empty).is_empty());
        assert_eq!(critical_range(&empty), 0.0);
        let one = vec![Point::new([3.0, 3.0])];
        assert!(minimum_spanning_tree(&one).is_empty());
        assert_eq!(critical_range(&one), 0.0);
    }

    #[test]
    #[should_panic(expected = "minimum_spanning_tree: node 2 has a non-finite coordinate")]
    fn non_finite_position_names_the_node() {
        let pts = vec![
            Point::new([0.0, 0.0]),
            Point::new([1.0, 0.0]),
            Point::new([f64::NAN, 1.0]),
            Point::new([2.0, f64::INFINITY]),
        ];
        critical_range(&pts);
    }

    #[test]
    fn two_points() {
        let pts = vec![Point::new([0.0, 0.0]), Point::new([3.0, 4.0])];
        let mst = minimum_spanning_tree(&pts);
        assert_eq!(mst.len(), 1);
        assert_eq!(mst[0].length, 5.0);
        assert_eq!(critical_range(&pts), 5.0);
    }

    #[test]
    fn collinear_points_mst_is_chain() {
        let pts: Vec<Point<1>> = [0.0, 1.0, 2.0, 3.5]
            .iter()
            .map(|&x| Point::new([x]))
            .collect();
        let mst = minimum_spanning_tree(&pts);
        let total: f64 = mst.iter().map(|e| e.length).sum();
        assert!((total - 3.5).abs() < 1e-12);
        assert_eq!(critical_range(&pts), 1.5);
    }

    #[test]
    fn duplicate_points_zero_edges() {
        let pts = vec![Point::new([1.0, 1.0]); 4];
        let mst = minimum_spanning_tree(&pts);
        assert_eq!(mst.len(), 3);
        assert!(mst.iter().all(|e| e.length == 0.0));
        assert_eq!(critical_range(&pts), 0.0);
    }

    #[test]
    fn square_with_diagonal_avoided() {
        // Unit square: MST uses three sides (total 3), never a diagonal.
        let pts = vec![
            Point::new([0.0, 0.0]),
            Point::new([1.0, 0.0]),
            Point::new([1.0, 1.0]),
            Point::new([0.0, 1.0]),
        ];
        let mst = minimum_spanning_tree(&pts);
        let total: f64 = mst.iter().map(|e| e.length).sum();
        assert!((total - 3.0).abs() < 1e-12);
        assert_eq!(critical_range(&pts), 1.0);
    }

    #[test]
    fn mst_total_matches_kruskal_on_random_inputs() {
        // Independent Kruskal implementation as a test oracle.
        fn kruskal_total<const D: usize>(pts: &[Point<D>]) -> f64 {
            let n = pts.len();
            let mut edges = Vec::new();
            for i in 0..n {
                for j in (i + 1)..n {
                    edges.push((pts[i].distance(&pts[j]), i, j));
                }
            }
            edges.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            let mut uf = crate::dsu::UnionFind::new(n);
            let mut total = 0.0;
            for (d, i, j) in edges {
                if uf.union(i, j) {
                    total += d;
                }
            }
            total
        }

        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        for trial in 0..10 {
            let pts: Vec<Point<2>> = (0..60)
                .map(|_| Point::new([rng.random_range(0.0..10.0), rng.random_range(0.0..10.0)]))
                .collect();
            let prim: f64 = minimum_spanning_tree(&pts).iter().map(|e| e.length).sum();
            let kr = kruskal_total(&pts);
            assert!((prim - kr).abs() < 1e-9, "trial {trial}: {prim} vs {kr}");
        }
    }

    #[test]
    fn critical_range_is_exact_connectivity_threshold() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(55);
        for _ in 0..10 {
            let pts: Vec<Point<2>> = (0..40)
                .map(|_| Point::new([rng.random_range(0.0..30.0), rng.random_range(0.0..30.0)]))
                .collect();
            let ctr = critical_range(&pts);
            let at = AdjacencyList::from_points_brute_force(&pts, ctr);
            let below = AdjacencyList::from_points_brute_force(&pts, ctr.next_down());
            assert!(is_connected(&at), "graph at CTR must be connected");
            assert!(
                !is_connected(&below),
                "graph just below CTR must be disconnected"
            );
        }
    }

    #[test]
    fn mst_edges_span_all_nodes() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let pts: Vec<Point<3>> = (0..30)
            .map(|_| {
                Point::new([
                    rng.random_range(0.0..5.0),
                    rng.random_range(0.0..5.0),
                    rng.random_range(0.0..5.0),
                ])
            })
            .collect();
        let mst = minimum_spanning_tree(&pts);
        let mut uf = crate::dsu::UnionFind::new(pts.len());
        for e in &mst {
            uf.union(e.a as usize, e.b as usize);
        }
        assert!(uf.is_single_component());
    }

    /// Asserts the tracker and the stateless Prim agree bit for bit.
    fn assert_same<const D: usize>(t: &mut CriticalRangeTracker, pts: &[Point<D>], what: &str) {
        let warm = t.critical_range(pts);
        let cold = critical_range(pts);
        assert_eq!(warm.to_bits(), cold.to_bits(), "{what}: {warm} vs {cold}");
    }

    #[test]
    fn tracker_degenerate_sizes() {
        let mut t = CriticalRangeTracker::new();
        let empty: Vec<Point<2>> = vec![];
        assert_eq!(t.critical_range(&empty), 0.0);
        assert_eq!(t.critical_range(&[Point::new([3.0, 3.0])]), 0.0);
        let two = [Point::new([0.0, 0.0]), Point::new([3.0, 4.0])];
        assert_eq!(t.critical_range(&two), 5.0); // reseed: n changed
        assert_eq!(t.critical_range(&two), 5.0); // certified: one pair
        let c = t.counts();
        assert_eq!((c.calls, c.reseeds, c.certified, c.rounds), (4, 3, 1, 1));
        assert_eq!(c.pairs, 1 + 1);
    }

    #[test]
    fn tracker_reseeds_when_n_changes() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let mut t = CriticalRangeTracker::new();
        let mut pts: Vec<Point<2>> = (0..20)
            .map(|_| Point::new([rng.random_range(0.0..10.0), rng.random_range(0.0..10.0)]))
            .collect();
        assert_same(&mut t, &pts, "first");
        assert_same(&mut t, &pts, "same placement");
        assert_eq!(t.counts().reseeds, 1);
        pts.push(Point::new([5.0, 5.0]));
        assert_same(&mut t, &pts, "grown");
        assert_eq!(t.counts().reseeds, 2);
        pts.truncate(7);
        assert_same(&mut t, &pts, "shrunk");
        assert_same(&mut t, &pts, "shrunk again");
        let c = t.counts();
        assert_eq!((c.calls, c.reseeds, c.certified), (5, 3, 2));
    }

    #[test]
    fn tracker_keeps_exact_ties_on_a_moving_lattice() {
        // Integer lattice points with duplicates, moved by integer
        // steps: every squared distance stays an exact integer, so many
        // pairs tie exactly at every step, including at the bottleneck.
        let mut rng = rand::rngs::StdRng::seed_from_u64(14);
        let mut pts: Vec<Point<2>> = Vec::new();
        for x in 0..8u32 {
            for y in 0..8u32 {
                if rng.random_range(0.0..1.0) < 0.5 {
                    let p = Point::new([f64::from(x), f64::from(y)]);
                    pts.push(p);
                    if rng.random_range(0.0..1.0) < 0.15 {
                        pts.push(p);
                    }
                }
            }
        }
        let mut t = CriticalRangeTracker::new();
        for step in 0..300 {
            assert_same(&mut t, &pts, &format!("step {step}"));
            for p in pts.iter_mut() {
                if rng.random_range(0.0..1.0) < 0.2 {
                    let axis = rng.random_range(0..2usize);
                    let delta = if rng.random_range(0.0..1.0) < 0.5 {
                        -1.0
                    } else {
                        1.0
                    };
                    let mut c = p.coords();
                    c[axis] = (c[axis] + delta).clamp(0.0, 7.0);
                    *p = Point::new(c);
                }
            }
        }
        let c = t.counts();
        assert_eq!(c.calls, 300);
        assert!(c.certified > 200, "{c:?}");
        assert!(
            c.rounds > c.certified,
            "the fixture must exercise swaps: {c:?}"
        );
    }

    #[test]
    fn tracker_certifies_a_far_outlier() {
        // A tight cluster plus one far node: the outlier's edge is the
        // bottleneck, its cut is the outlier alone, and the first scan
        // certifies it with n − 1 pairs.
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let mut pts: Vec<Point<2>> = (0..30)
            .map(|_| Point::new([rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)]))
            .collect();
        pts.push(Point::new([100.0, 100.0]));
        let mut t = CriticalRangeTracker::new();
        assert_same(&mut t, &pts, "seed");
        pts[30] = Point::new([90.0, 95.0]);
        assert_same(&mut t, &pts, "outlier moved");
        let c = t.counts();
        assert_eq!((c.reseeds, c.certified, c.rounds), (1, 1, 1));
        assert_eq!(c.pairs, 31 * 30 / 2 + 30);
    }

    #[test]
    fn tracker_matches_prim_along_random_trajectories() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        for (n, step) in [(3usize, 0.5), (12, 0.2), (40, 0.05), (40, 2.0)] {
            let mut pts: Vec<Point<2>> = (0..n)
                .map(|_| Point::new([rng.random_range(0.0..10.0), rng.random_range(0.0..10.0)]))
                .collect();
            let mut t = CriticalRangeTracker::new();
            for s in 0..200 {
                assert_same(&mut t, &pts, &format!("n {n} step {s}"));
                for p in pts.iter_mut() {
                    let c = p.coords();
                    *p = Point::new([
                        (c[0] + rng.random_range(-step..step)).clamp(0.0, 10.0),
                        (c[1] + rng.random_range(-step..step)).clamp(0.0, 10.0),
                    ]);
                }
            }
            let c = t.counts();
            assert_eq!(c.certified + c.reseeds, c.calls);
            assert!(c.pairs <= (c.calls + c.reseeds) * pair_count(n), "{c:?}");
        }
    }

    #[test]
    fn tracker_counts_the_pairs_a_grid_reseed_examined() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let n = GRID_MST_MIN_NODES + 100;
        let pts: Vec<Point<2>> = (0..n)
            .map(|_| Point::new([rng.random_range(0.0..1000.0), rng.random_range(0.0..1000.0)]))
            .collect();
        let Ok((_, examined)) = grid_kruskal(&pts) else {
            panic!("a uniform placement stays on the grid path");
        };
        let mut t = CriticalRangeTracker::new();
        assert_same(&mut t, &pts, "reseed");
        assert_eq!((t.counts().reseeds, t.counts().pairs), (1, examined));
        assert!(examined * 4 < pair_count(n), "{examined} pairs");
    }

    #[test]
    #[should_panic(expected = "minimum_spanning_tree: node 2 has a non-finite coordinate")]
    fn tracker_non_finite_position_names_the_node() {
        let mut pts = vec![
            Point::new([0.0, 0.0]),
            Point::new([1.0, 0.0]),
            Point::new([2.0, 1.0]),
        ];
        let mut t = CriticalRangeTracker::new();
        t.critical_range(&pts);
        pts[2] = Point::new([f64::NAN, 1.0]);
        t.critical_range(&pts);
    }
}
