//! Incremental graph maintenance over a moving point set.
//!
//! Every observer that wants graph structure at each mobility step used
//! to rebuild the adjacency from scratch and diff two full snapshots —
//! `O(n + E)` allocations and work per step even when almost nothing
//! changed. [`DynamicGraph`] is now a **zero-rebuild step kernel**: it
//! keeps a [`MovingCellGrid`] built once and updated per step, and
//! derives each step's [`EdgeDiff`] directly from the nodes that
//! actually moved.
//!
//! # The displacement argument
//!
//! Between two steps, the distance of a pair `(i, j)` changes by at
//! most `d_i + d_j <= 2·dmax`, where `d_i` is node `i`'s displacement
//! and `dmax` the per-step maximum. An edge can therefore appear or
//! disappear only for pairs whose previous distance lay in
//! `[r − 2·dmax, r + 2·dmax]` — and, structurally, only for pairs with
//! at least one *moved* endpoint (an unmoved pair's distance is
//! bit-identical). The kernel exploits the structural half exactly: it
//! rescans only moved nodes' `3^D`-cell neighborhoods, so per-step work
//! is proportional to the moved set and its local density, never to
//! `n + E`, and the result is exact for **any** displacement.
//!
//! The quantitative half is a *contract*: a mobility model may declare
//! a per-step displacement bound (`Mobility::max_step_displacement` in
//! `manet-mobility`, wired through the simulation stream). The kernel
//! measures the true maximum displacement while updating the grid
//! anyway — it is a byproduct of finding the moved set — so the
//! declaration costs nothing to police; if a declared bound
//! is ever exceeded, the model lied about its dynamics, and the kernel
//! routes that step through the full rebuild-and-diff oracle path
//! instead of trusting the incremental machinery — observable via
//! `fallback_steps` in [`DynamicGraph::metrics`], never silent.
//!
//! # Determinism
//!
//! Both paths emit `added`/`removed` sorted lexicographically over
//! `(a, b)` pairs with `a < b`, and the maintained snapshot keeps
//! sorted neighbor lists — bit-identical to
//! [`AdjacencyList::from_points`] followed by [`AdjacencyList::diff`],
//! which property tests enforce for every mobility model in the
//! registry. Every path runs serially on the calling thread.
//!
//! # The Verlet candidate cache
//!
//! In all-moving regimes even the bulk rescan is wasteful: every step
//! re-enumerates the same cell neighborhoods to rediscover a pair set
//! that changed only marginally. Under a *declared* displacement bound
//! the kernel can do better with a classic Verlet (skin-radius) list:
//! cache every pair within `r + skin` once, then serve steps by
//! streaming only the cached candidates against the current positions
//! — no cell traversal at all. Soundness is the displacement argument
//! again: a pair outside `r + skin` at build time needs accumulated
//! motion `> skin` (i.e. `> skin/2` per endpoint) to close within `r`,
//! so as long as every node has drifted at most `skin/2` since the
//! build, the cached arena covers every pair that could possibly be an
//! edge. The kernel tracks the running maximum drift (an `O(moved)`
//! byproduct of the per-step measure pass) and rebuilds the arena the
//! moment the budget is exceeded; steps that violate the declared
//! bound route through the rebuild oracle and mark the arena stale —
//! exactly the fallback contract of the legacy paths. See
//! [`DynamicGraph::with_skin`] for how `skin` is chosen.

use crate::adjacency::{
    fill_sorted_rows, pack_pair, sort_packed_pairs, unpack_pair, AdjacencyList, PairSortScratch,
};
use manet_geom::{MovingCellGrid, Point};
use manet_obs::{GridMetrics, StepKernelMetrics};

/// The symmetric difference between two graph snapshots on the same
/// node set.
///
/// Edges are reported as `(a, b)` with `a < b`, in lexicographic
/// order — a deterministic encoding that downstream consumers (and the
/// byte-identical artifact tests) rely on.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct EdgeDiff {
    /// Edges present in the newer snapshot but not the older.
    pub added: Vec<(u32, u32)>,
    /// Edges present in the older snapshot but not the newer.
    pub removed: Vec<(u32, u32)>,
}

impl EdgeDiff {
    /// Total churn: number of added plus removed edges.
    pub fn churn(&self) -> usize {
        self.added.len() + self.removed.len()
    }

    /// Whether the two snapshots had identical edge sets.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }

    /// Empties both edge lists, keeping their capacity — the step
    /// kernels refill the same `EdgeDiff` every step instead of
    /// allocating fresh vectors.
    pub fn clear(&mut self) {
        self.added.clear();
        self.removed.clear();
    }
}

impl AdjacencyList {
    /// Computes the edge delta from `self` (the older snapshot) to
    /// `newer`.
    ///
    /// Both graphs must have sorted neighbor lists, which every
    /// `from_points*` constructor guarantees; graphs assembled by hand
    /// with [`AdjacencyList::add_edge`] must add edges in sorted order
    /// (checked in debug builds).
    ///
    /// # Panics
    ///
    /// Panics when the node counts differ.
    pub fn diff(&self, newer: &AdjacencyList) -> EdgeDiff {
        let mut diff = EdgeDiff::default();
        self.diff_into(newer, &mut diff);
        diff
    }

    /// [`AdjacencyList::diff`] writing into a caller-owned (cleared,
    /// capacity-reusing) `EdgeDiff`.
    ///
    /// # Panics
    ///
    /// Panics when the node counts differ.
    pub fn diff_into(&self, newer: &AdjacencyList, diff: &mut EdgeDiff) {
        assert_eq!(
            self.len(),
            newer.len(),
            "diff requires snapshots of the same node set"
        );
        diff.clear();
        for a in 0..self.len() {
            merge_row_diff(self.neighbors(a), newer.neighbors(a), a as u32, diff);
        }
    }
}

/// Sorted-merges one node's old and new neighbor rows into `diff`,
/// recording each changed undirected edge only from its lower endpoint
/// (`partner > a`) — so a pass over rows in ascending `a` emits events
/// already in lexicographic order. Shared by [`AdjacencyList::diff_into`]
/// and the step kernel's bulk-rescan path.
fn merge_row_diff(old: &[u32], new: &[u32], a: u32, diff: &mut EdgeDiff) {
    debug_assert!(old.windows(2).all(|w| w[0] < w[1]), "unsorted neighbors");
    debug_assert!(new.windows(2).all(|w| w[0] < w[1]), "unsorted neighbors");
    let (mut i, mut j) = (0usize, 0usize);
    while i < old.len() || j < new.len() {
        match (old.get(i), new.get(j)) {
            (Some(&o), Some(&n)) if o == n => {
                i += 1;
                j += 1;
            }
            (Some(&o), Some(&n)) if o < n => {
                if o > a {
                    diff.removed.push((a, o));
                }
                i += 1;
            }
            (Some(_), Some(&n)) => {
                if n > a {
                    diff.added.push((a, n));
                }
                j += 1;
            }
            (Some(&o), None) => {
                if o > a {
                    diff.removed.push((a, o));
                }
                i += 1;
            }
            (None, Some(&n)) => {
                if n > a {
                    diff.added.push((a, n));
                }
                j += 1;
            }
            (None, None) => unreachable!("loop condition"),
        }
    }
}

/// Relative slack on the declared displacement bound before the kernel
/// treats a step as a contract violation: motion arithmetic (unit
/// vectors, folds, clamps) may overshoot a model's nominal bound by a
/// few ULPs without the model being wrong about its dynamics.
const BOUND_SLACK: f64 = 1.0 + 1e-9;

/// How the step kernel chooses the Verlet-cache skin radius (the
/// margin added to the transmitting range when building the candidate
/// arena); see [`DynamicGraph::with_skin`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Skin {
    /// Never arm the cache: the kernel runs exactly its classic
    /// incremental/bulk/fallback paths.
    Off,
    /// Derive the skin from the observed per-step displacement via the
    /// rebuild-amortization cost model, declining to arm when the
    /// model predicts no win over per-step bulk rescans. The default.
    #[default]
    Auto,
    /// Arm with this skin radius (finite, strictly positive) on the
    /// first eligible step, bypassing the cost model.
    Fixed(f64),
}

impl std::str::FromStr for Skin {
    type Err = String;

    /// Parses the `--skin` flag grammar: `auto`, `off`, or a finite
    /// non-negative radius (`0` means `off`).
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "auto" => Ok(Skin::Auto),
            "off" => Ok(Skin::Off),
            _ => {
                let v: f64 = s.parse().map_err(|_| {
                    format!("invalid skin {s:?}: expected \"auto\", \"off\" or a radius")
                })?;
                if !v.is_finite() || v < 0.0 {
                    return Err(format!("skin must be finite and non-negative, got {v}"));
                }
                Ok(if v == 0.0 { Skin::Off } else { Skin::Fixed(v) })
            }
        }
    }
}

impl std::fmt::Display for Skin {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Skin::Off => write!(f, "off"),
            Skin::Auto => write!(f, "auto"),
            Skin::Fixed(v) => write!(f, "{v}"),
        }
    }
}

/// Cost-model ratio between one candidate's share of an arena rebuild
/// (cell scan at `r + skin`, counting sort, arena fill) and one
/// candidate's share of a verify pass (a single streamed distance
/// check). Measured on the `step_kernel` bench host; only the arming
/// decision and the auto skin depend on it, never correctness.
const SKIN_REBUILD_COST_RATIO: f64 = 3.0;

/// Minimum auto skin, in units of the observed per-step displacement
/// `d`: below it auto-tuning declines to arm. The drift budget `s/2`
/// lasts `s/(2d)` steps, so this rules out only rebuilds more often
/// than every 1.5 steps; a cache that rebuilds every other step still
/// arms.
const SKIN_MIN_REBUILD_STEPS: f64 = 3.0;

/// Single linear merge of two lex-sorted packed edge lists into the
/// diff. Packed order is lexicographic pair order, so `added` and
/// `removed` come out exactly as the per-row oracle emits them.
fn merge_packed_diff(old: &[u64], new: &[u64], diff: &mut EdgeDiff) {
    debug_assert!(
        old.windows(2).all(|w| w[0] < w[1]),
        "unsorted packed edge list"
    );
    debug_assert!(
        new.windows(2).all(|w| w[0] < w[1]),
        "unsorted packed edge list"
    );
    diff.clear();
    let (mut i, mut j) = (0usize, 0usize);
    while i < old.len() && j < new.len() {
        let (o, n) = (old[i], new[j]);
        if o == n {
            i += 1;
            j += 1;
        } else if o < n {
            diff.removed.push(unpack_pair(o));
            i += 1;
        } else {
            diff.added.push(unpack_pair(n));
            j += 1;
        }
    }
    diff.removed
        .extend(old[i..].iter().map(|&p| unpack_pair(p)));
    diff.added.extend(new[j..].iter().map(|&p| unpack_pair(p)));
}

/// Replaces `out` with the packed pairs of `cand` whose endpoints lie
/// within squared distance `r2` of each other, in `cand`'s order.
/// Every candidate is written and the write cursor advances by the
/// range test's outcome, so the distance loop carries no
/// data-dependent branch (the same shape as the grid scan's batched
/// emission). `out` only grows to the candidate count: no pass
/// zero-fills the whole arena.
fn filter_in_range<const D: usize>(cand: &[u64], points: &[Point<D>], r2: f64, out: &mut Vec<u64>) {
    if out.len() < cand.len() {
        out.resize(cand.len(), 0);
    }
    let mut kept = 0;
    for &packed in cand {
        let (a, b) = unpack_pair(packed);
        out[kept] = packed;
        kept += usize::from(points[a as usize].distance_sq(&points[b as usize]) <= r2);
    }
    out.truncate(kept);
}

/// The displacement-tracked Verlet candidate arena: every pair within
/// `r + skin` at the last build, packed (`a < b`) and lex-sorted in
/// one flat buffer that keeps its capacity across rebuilds. A verify
/// pass filters it in arena order, so the survivors come out already
/// in the lex order the bulk path's row fill and diff merge take.
#[derive(Debug, Clone, Default)]
struct VerletCache {
    /// Lex-sorted packed candidate pairs.
    pairs: Vec<u64>,
    /// The arena no longer covers the trajectory (a fallback step
    /// rebuilt the snapshot behind it); forces a rebuild next step.
    stale: bool,
}

/// A communication graph maintained across mobility steps by an
/// incremental, allocation-free step kernel.
///
/// [`DynamicGraph::step`] updates the internal [`MovingCellGrid`] (only
/// boundary-crossing nodes relocate), rescans only the nodes that
/// moved, emits the step's [`EdgeDiff`] into a held, capacity-reusing
/// buffer, and patches the snapshot's sorted neighbor lists in place —
/// after warm-up the hot loop performs no allocation. A declared
/// per-step displacement bound (see
/// [`DynamicGraph::with_displacement_bound`]) is policed every step;
/// violations fall back to the full rebuild-and-diff oracle for that
/// step (bit-identical output, counted by
/// `fallback_steps` in [`DynamicGraph::metrics`]).
///
/// # Example
///
/// ```
/// use manet_geom::Point;
/// use manet_graph::DynamicGraph;
///
/// let mut pts = vec![Point::new([0.0]), Point::new([1.0]), Point::new([5.0])];
/// let mut dg = DynamicGraph::new(&pts, 10.0, 1.5);
/// assert_eq!(dg.last_diff().added, vec![(0, 1)]);
///
/// pts[2] = Point::new([2.0]); // node 2 walks into range of node 1
/// dg.step(&pts);
/// assert_eq!(dg.last_diff().added, vec![(1, 2)]);
/// assert!(dg.last_diff().removed.is_empty());
/// assert_eq!(dg.graph().edge_count(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct DynamicGraph<const D: usize> {
    side: f64,
    range: f64,
    /// Declared per-step displacement bound (squared, slack applied);
    /// `None` disables the contract check.
    bound_sq: Option<f64>,
    graph: AdjacencyList,
    /// The moving index; `None` for degenerate `side`/`range` where no
    /// grid can exist — every step then takes the rebuild path.
    grid: Option<MovingCellGrid<D>>,
    /// The last step's delta, held so capacity is reused every step.
    diff: EdgeDiff,
    /// Scratch: indices of nodes that moved this step, ascending.
    moved: Vec<u32>,
    /// Scratch: epoch stamps marking this step's moved set.
    moved_stamp: Vec<u32>,
    stamp_epoch: u32,
    /// Scratch: per-scan stamps marking the scanned node's old
    /// neighbors (`old_stamp`) and which of them were re-found in
    /// range (`matched_stamp`) — replaces per-node sorting/merging.
    old_stamp: Vec<u32>,
    matched_stamp: Vec<u32>,
    scan_id: u32,
    /// Scratch: next-snapshot neighbor rows for the bulk-rescan path;
    /// swapped wholesale with the live rows so both row sets' capacity
    /// is reused on alternating rescans.
    next_rows: Vec<Vec<u32>>,
    /// The snapshot's edge set as a lex-sorted packed list — the "old"
    /// side of the single-merge diff on the bulk/verify paths. Lazily
    /// re-derived from the snapshot after incremental/fallback steps
    /// (`edge_pairs_valid`).
    edge_pairs: Vec<u64>,
    edge_pairs_valid: bool,
    /// Scratch: the next snapshot's packed edge list.
    new_pairs: Vec<u64>,
    /// Scratch: the counting sort's buffers for the bulk-rescan and
    /// cache-rebuild pair lists.
    pair_sort: PairSortScratch,
    /// How the Verlet-cache skin is chosen (see
    /// [`DynamicGraph::with_skin`]).
    skin_cfg: Skin,
    /// Resolved skin radius once the cache armed; `0.0` while unarmed.
    skin: f64,
    /// `(skin/2)²`: the accumulated-displacement budget between arena
    /// rebuilds.
    drift_limit_sq: f64,
    /// The candidate arena (armed mode).
    cache: VerletCache,
    /// Armed mode: the previous step's positions. The legacy paths
    /// read these off the grid, but armed mode freezes the grid at the
    /// last arena build (its points *are* the drift reference), so the
    /// per-step measure needs its own copy.
    prev: Vec<Point<D>>,
    /// Armed mode: running max squared drift of any node from its
    /// position at the last arena build.
    max_drift_sq: f64,
    /// Deterministic per-path counters (see [`StepKernelMetrics`]):
    /// which path served each step, rescan candidate volumes, and
    /// edge-event magnitudes. The initial build is not counted.
    metrics: StepKernelMetrics,
}

/// Moved-set fraction at and above which [`DynamicGraph::step`]
/// abandons per-moved-node rescans for one bulk rescan of the whole
/// snapshot (still grid-indexed, allocation-free and byte-identical —
/// unlike the from-scratch [`AdjacencyList::from_points`] fallback).
///
/// Per-moved-node scanning examines each moved node's full `3^D`-cell
/// neighborhood and pays stamp bookkeeping per candidate; the bulk
/// rescan enumerates each candidate pair once with a bare `j > i`
/// filter and re-buckets the grid in one pass instead of relocating
/// node by node. Measured on the `step_kernel` bench (uniform 2-D
/// waypoint, sparse regime), the two cross between 40% and 60% of
/// nodes moving per step.
pub const BULK_RESCAN_FRACTION: f64 = 0.5;

impl<const D: usize> DynamicGraph<D> {
    /// Builds the step-0 snapshot for points in `[0, side]^D` at the
    /// given transmitting range; [`DynamicGraph::last_diff`] initially
    /// reports every present edge as added, so feeding it to a delta
    /// consumer makes step 0 uniform with the rest of the stream.
    pub fn new(points: &[Point<D>], side: f64, range: f64) -> Self {
        let graph = AdjacencyList::from_points(points, side, range);
        // Degenerate parameters disable the grid and the kernel
        // rebuilds every step instead.
        let grid = MovingCellGrid::<D>::lattice_cell_size(points.len(), side, range)
            .and_then(|cell_size| MovingCellGrid::build(points, side, cell_size))
            .ok();
        let diff = EdgeDiff {
            added: graph.edges().map(|(a, b)| (a as u32, b as u32)).collect(),
            removed: Vec::new(),
        };
        DynamicGraph {
            side,
            range,
            bound_sq: None,
            graph,
            grid,
            diff,
            moved: Vec::new(),
            moved_stamp: vec![0; points.len()],
            stamp_epoch: 0,
            old_stamp: vec![0; points.len()],
            matched_stamp: vec![0; points.len()],
            scan_id: 0,
            next_rows: Vec::new(),
            edge_pairs: Vec::new(),
            edge_pairs_valid: false,
            new_pairs: Vec::new(),
            pair_sort: PairSortScratch::default(),
            skin_cfg: Skin::default(),
            skin: 0.0,
            drift_limit_sq: 0.0,
            cache: VerletCache::default(),
            prev: Vec::new(),
            max_drift_sq: 0.0,
            metrics: StepKernelMetrics::default(),
        }
    }

    /// Accepts the one intra-step thread count the serial kernel runs
    /// (chainable; a no-op). It stays only until ROADMAP item 1(d)
    /// stops perfbench from passing it.
    ///
    /// # Panics
    ///
    /// Panics when `threads` is not 1: intra-step sharding was
    /// removed.
    pub fn with_step_threads(self, threads: usize) -> Self {
        assert!(
            threads == 1,
            "step_threads must be 1 (intra-step sharding was removed), got {threads}"
        );
        self
    }

    /// Declares the mobility model's per-step displacement bound
    /// (chainable). `None` removes the contract check; a bound must be
    /// non-negative and finite.
    ///
    /// # Panics
    ///
    /// Panics on a NaN, infinite or negative bound.
    pub fn with_displacement_bound(mut self, bound: Option<f64>) -> Self {
        self.bound_sq = bound.map(|b| {
            assert!(
                b.is_finite() && b >= 0.0,
                "displacement bound must be finite and non-negative, got {b}"
            );
            let slacked = b * BOUND_SLACK;
            slacked * slacked
        });
        self
    }

    /// Sets the Verlet candidate cache's skin policy (chainable).
    ///
    /// The cache arms lazily, on the first step where (a) a
    /// displacement bound is declared
    /// ([`DynamicGraph::with_displacement_bound`]) — the drift tracking
    /// that keeps the arena sound is only meaningful under the
    /// `max_step_displacement` contract — (b) the step is in bound,
    /// (c) at least [`BULK_RESCAN_FRACTION`] of the nodes moved (the
    /// regime where the cache pays), and (d) under [`Skin::Auto`] the
    /// cost model predicts a win: it picks `s` minimizing per-step
    /// work `(r+s)²·(1 + 2Kd/s)` — candidate streaming plus a rebuild
    /// amortized over the `s/(2d)` steps the drift budget buys at
    /// observed per-step displacement `d` — and declines when the
    /// budget is too small to amortize anything. Models that never
    /// declare a bound (and degenerate grids) simply keep the classic
    /// paths; [`Skin::Off`] (or `--skin 0`) pins them unconditionally,
    /// byte-identical to a kernel without the cache.
    ///
    /// Reconfiguring disarms an armed cache; it re-arms (or not) under
    /// the new policy on a later eligible step. The widened grid cells
    /// stay — any cell width `>= range` remains correct for every
    /// path.
    ///
    /// # Panics
    ///
    /// Panics on a NaN, infinite or non-positive fixed skin (use
    /// [`Skin::Off`] to disable).
    pub fn with_skin(mut self, skin: Skin) -> Self {
        if let Skin::Fixed(s) = skin {
            assert!(
                s.is_finite() && s > 0.0,
                "fixed skin must be finite and strictly positive, got {s}"
            );
        }
        self.skin_cfg = skin;
        self.skin = 0.0;
        self
    }

    /// The configured skin policy.
    pub fn skin(&self) -> Skin {
        self.skin_cfg
    }

    /// The resolved skin radius, once the cache has armed (`None`
    /// while the kernel is on its classic paths).
    pub fn armed_skin(&self) -> Option<f64> {
        (self.skin > 0.0).then_some(self.skin)
    }

    /// The current snapshot.
    pub fn graph(&self) -> &AdjacencyList {
        &self.graph
    }

    /// The transmitting range every snapshot is built at.
    pub fn range(&self) -> f64 {
        self.range
    }

    /// The delta produced by the most recent [`DynamicGraph::step`]
    /// (or, before any step, the initial delta listing every present
    /// edge as added).
    pub fn last_diff(&self) -> &EdgeDiff {
        &self.diff
    }

    /// The delta that produces the current snapshot from an edgeless
    /// graph — every present edge reported as added.
    pub fn initial_diff(&self) -> EdgeDiff {
        EdgeDiff {
            added: self
                .graph
                .edges()
                .map(|(a, b)| (a as u32, b as u32))
                .collect(),
            removed: Vec::new(),
        }
    }

    /// The full deterministic counter set accumulated since
    /// construction: path decisions per step, moved-set and rescan
    /// candidate volumes, and edge-event magnitudes. Pure event counts
    /// — a function of the position history alone.
    pub fn metrics(&self) -> &StepKernelMetrics {
        &self.metrics
    }

    /// The internal moving grid's commit counters, when a grid exists
    /// (`None` on the degenerate side/range rebuild-every-step path).
    pub fn grid_metrics(&self) -> Option<&GridMetrics> {
        self.grid.as_ref().map(MovingCellGrid::metrics)
    }

    /// Advances to the next step's positions; read the delta off
    /// [`DynamicGraph::last_diff`] and the snapshot off
    /// [`DynamicGraph::graph`]. Allocation-free after warm-up.
    ///
    /// Dispatch: measure the step (moved set + max displacement) on
    /// the moving grid, then (1) police a declared displacement bound —
    /// violations go to the from-scratch oracle; (2) below
    /// [`BULK_RESCAN_FRACTION`] moved, relocate only moved nodes and
    /// rescan their neighborhoods; (3) otherwise re-bucket in one pass
    /// and bulk-rescan the snapshot. All three paths produce
    /// bit-identical snapshots and deltas.
    ///
    /// # Panics
    ///
    /// Panics when `points.len()` differs from the node count the
    /// graph was built with (a driver logic error).
    pub fn step(&mut self, points: &[Point<D>]) {
        assert_eq!(
            points.len(),
            self.graph.len(),
            "node count changed between steps"
        );
        self.step_dispatch(points);
        self.metrics.steps += 1;
        self.metrics.edges_added += self.diff.added.len() as u64;
        self.metrics.edges_removed += self.diff.removed.len() as u64;
        #[cfg(feature = "strict-invariants")]
        {
            self.debug_validate();
            if self.skin > 0.0 && !self.cache.stale {
                self.debug_validate_cache(points);
            }
        }
    }

    /// [`DynamicGraph::step`]'s path selection, factored out so the
    /// strict-invariants checker runs once after whichever path ran.
    fn step_dispatch(&mut self, points: &[Point<D>]) {
        if self.grid.is_none() {
            self.step_rebuild(points);
            return;
        }
        if self.skin > 0.0 {
            self.step_cached(points);
            return;
        }
        #[expect(
            clippy::expect_used,
            reason = "dispatch returns early when no grid exists"
        )]
        let grid = self.grid.as_mut().expect("checked above");
        let max_disp_sq = grid.measure(points, &mut self.moved);
        self.metrics.moved_nodes += self.moved.len() as u64;
        if let Some(bound_sq) = self.bound_sq {
            if max_disp_sq > bound_sq {
                // Contract violation: the model exceeded its declared
                // bound. Resync the grid in bulk and route the
                // snapshot/diff through the oracle path.
                grid.reset(points);
                self.step_rebuild(points);
                return;
            }
        }
        if (self.moved.len() as f64) < BULK_RESCAN_FRACTION * points.len() as f64 {
            grid.relocate(points, &self.moved);
            self.step_incremental();
        } else if self.try_arm(points, max_disp_sq) {
            // Armed: the arming rebuild served this step as its first
            // bulk pass at the inflated radius.
        } else {
            #[expect(
                clippy::expect_used,
                reason = "dispatch returns early when no grid exists"
            )]
            let grid = self.grid.as_mut().expect("checked above");
            grid.reset(points);
            self.step_bulk();
        }
    }

    /// Tries to switch the kernel into Verlet-cache mode on an
    /// in-bound step where at least [`BULK_RESCAN_FRACTION`] of the
    /// nodes moved; returns `true` when the cache armed (the arming
    /// rebuild also serves the current step). See
    /// [`DynamicGraph::with_skin`] for the eligibility conditions.
    fn try_arm(&mut self, points: &[Point<D>], max_disp_sq: f64) -> bool {
        // partial_cmp: a NaN displacement must read as "didn't move",
        // never as an armable drift observation.
        let moved = max_disp_sq.partial_cmp(&0.0) == Some(core::cmp::Ordering::Greater);
        if self.bound_sq.is_none() || !moved {
            return false;
        }
        let s = match self.skin_cfg {
            Skin::Off => return false,
            Skin::Fixed(s) => s,
            Skin::Auto => {
                // Per step the cache streams ~(r+s)² density-units of
                // candidates, plus a rebuild (cell scan, counting sort,
                // arena fill — ~K·(r+s)²) amortized over the s/(2d)
                // steps the drift budget buys at observed per-step
                // displacement d. Minimizing (r+s)²·(1 + 2Kd/s) over s
                // gives s* = (√(K²d² + 4Kdr) − Kd)/2.
                let kd = SKIN_REBUILD_COST_RATIO * max_disp_sq.sqrt();
                let s_star = 0.5 * ((kd * kd + 4.0 * kd * self.range).sqrt() - kd);
                if s_star < SKIN_MIN_REBUILD_STEPS * max_disp_sq.sqrt() {
                    // Budget too small to amortize rebuilds: the cache
                    // would thrash. Stay on the bulk path.
                    return false;
                }
                s_star
            }
        };
        if !s.is_finite() || s <= 0.0 {
            return false;
        }
        // Widen the cells so one forward half-neighborhood still
        // covers the inflated candidate radius, under the same lattice
        // rule as construction. Metrics-preserving: the switch counts
        // as one grid reset.
        #[expect(
            clippy::expect_used,
            reason = "step() dispatches here only when the grid exists"
        )]
        let grid = self.grid.as_mut().expect("caller checked the grid");
        if MovingCellGrid::<D>::lattice_cell_size(points.len(), self.side, self.range + s)
            .and_then(|cell_size| grid.rebuild_with_cell_size(points, self.side, cell_size))
            .is_err()
        {
            return false;
        }
        self.skin = s;
        self.drift_limit_sq = (0.5 * s) * (0.5 * s);
        if self.prev.len() == points.len() {
            self.prev.copy_from_slice(points);
        } else {
            self.prev = points.to_vec();
        }
        self.step_cache_rebuild(points);
        true
    }

    /// Armed-mode dispatch. Between arena builds the grid is frozen at
    /// the last build's positions (they *are* the drift reference), so
    /// one fused `O(n)` pass over `prev` measures the step: per-step
    /// moved count, declared-bound policing, and the running max drift
    /// from the build reference. Then: bound violation → oracle (arena
    /// marked stale); drift budget exceeded or stale arena → rebuild;
    /// otherwise stream the arena (trivially, when nothing moved
    /// bitwise).
    fn step_cached(&mut self, points: &[Point<D>]) {
        #[expect(
            clippy::expect_used,
            reason = "step() dispatches here only when the grid exists"
        )]
        let grid = self.grid.as_ref().expect("caller checked the grid");
        let refs = grid.points();
        let mut moved = 0u64;
        let mut max_step_sq = 0.0f64;
        let mut max_drift_sq = self.max_drift_sq;
        for (i, p) in points.iter().enumerate() {
            if *p == self.prev[i] {
                continue;
            }
            moved += 1;
            let d2 = p.distance_sq(&self.prev[i]);
            if d2 > max_step_sq {
                max_step_sq = d2;
            }
            let dr = p.distance_sq(&refs[i]);
            if dr > max_drift_sq {
                max_drift_sq = dr;
            }
            self.prev[i] = *p;
        }
        self.max_drift_sq = max_drift_sq;
        self.metrics.moved_nodes += moved;
        if let Some(bound_sq) = self.bound_sq {
            if max_step_sq > bound_sq {
                // Contract violation: the drift accounting no longer
                // covers this trajectory. Oracle this step; the next
                // step rebuilds the arena (and resyncs the grid).
                self.cache.stale = true;
                self.step_rebuild(points);
                return;
            }
        }
        if self.cache.stale || self.max_drift_sq > self.drift_limit_sq {
            #[expect(
                clippy::expect_used,
                reason = "step() dispatches here only when the grid exists"
            )]
            let grid = self.grid.as_mut().expect("caller checked the grid");
            grid.reset(points);
            self.step_cache_rebuild(points);
        } else if moved == 0 {
            // Bitwise-identical positions: the snapshot is already
            // exact — an empty verify step.
            self.diff.clear();
            self.metrics.cache_verify_steps += 1;
        } else {
            self.cache_verify_pass(points);
            self.metrics.cache_verify_steps += 1;
            self.metrics.verify_candidates += self.cache.pairs.len() as u64;
        }
    }

    /// (Re)builds the candidate arena from the grid — already synced
    /// to `points` by the caller — at radius `r + skin`, then serves
    /// the step through a verify pass over the fresh arena. Counted as
    /// a bulk rescan *and* a cache rebuild: it is one, at the inflated
    /// radius. Scanned and sorted exactly like
    /// [`DynamicGraph::step_bulk`].
    fn step_cache_rebuild(&mut self, points: &[Point<D>]) {
        #[expect(
            clippy::expect_used,
            reason = "step() dispatches here only when the grid exists"
        )]
        let grid = self.grid.as_ref().expect("caller checked the grid");
        let n = grid.len();
        let rs = self.range + self.skin;
        let pairs = &mut self.cache.pairs;
        pairs.clear();
        let examined = grid.scan_forward_pairs(rs * rs, |a, b| pairs.push(pack_pair(a, b)));
        sort_packed_pairs(pairs, n, &mut self.pair_sort);
        self.cache.stale = false;
        self.max_drift_sq = 0.0;
        self.metrics.bulk_rescan_candidates += 2 * examined + n as u64;
        self.metrics.bulk_rescan_steps += 1;
        self.metrics.cache_rebuilds += 1;
        self.metrics.cached_pairs += self.cache.pairs.len() as u64;
        // The rebuild step still owes its snapshot and diff: stream
        // the fresh arena at the true range.
        self.cache_verify_pass(points);
    }

    /// Filters the cached candidate arena against the current
    /// positions into the next packed edge list, then commits it
    /// through the bulk path's tail ([`DynamicGraph::commit_new_pairs`])
    /// — the armed replacement for any cell neighborhood traversal.
    fn cache_verify_pass(&mut self, points: &[Point<D>]) {
        self.ensure_edge_pairs();
        let r2 = self.range * self.range;
        filter_in_range(&self.cache.pairs, points, r2, &mut self.new_pairs);
        self.commit_new_pairs(points.len());
    }

    /// Re-derives the packed current-edge list from the snapshot after
    /// an incremental or fallback step patched the graph behind it.
    /// Row-major iteration over sorted rows yields lex order directly.
    fn ensure_edge_pairs(&mut self) {
        if self.edge_pairs_valid {
            return;
        }
        debug_assert!(
            (0..self.graph.len()).all(|a| self.graph.neighbors(a).windows(2).all(|w| w[0] < w[1])),
            "unsorted neighbors: snapshot rows must be sorted to derive the packed edge list"
        );
        self.edge_pairs.clear();
        self.edge_pairs.extend(
            self.graph
                .edges()
                .map(|(a, b)| pack_pair(a as u32, b as u32)),
        );
        self.edge_pairs_valid = true;
    }

    /// Structural coherence of the snapshot and the last delta:
    /// neighbor rows strictly ascending (sorted, deduped, no
    /// self-loops) and symmetric; diff halves strictly ascending,
    /// canonically oriented (`a < b`), disjoint, with every added edge
    /// present in — and every removed edge absent from — the snapshot.
    /// `O(m log m)`-ish — run after every step under
    /// `strict-invariants`.
    #[cfg(feature = "strict-invariants")]
    fn debug_validate(&self) {
        let g = &self.graph;
        for a in 0..g.len() {
            let row = g.neighbors(a);
            debug_assert!(
                row.windows(2).all(|w| w[0] < w[1]),
                "strict-invariants: neighbor row of {a} is unsorted or duplicated"
            );
            for &b in row {
                debug_assert!(b as usize != a, "strict-invariants: self-loop on node {a}");
                debug_assert!(
                    g.neighbors(b as usize).binary_search(&(a as u32)).is_ok(),
                    "strict-invariants: edge ({a}, {b}) is not symmetric"
                );
            }
        }
        for (label, half) in [("added", &self.diff.added), ("removed", &self.diff.removed)] {
            debug_assert!(
                half.windows(2).all(|w| w[0] < w[1]),
                "strict-invariants: {label} edges are unsorted or duplicated"
            );
            debug_assert!(
                half.iter().all(|&(a, b)| a < b),
                "strict-invariants: {label} edges are not canonically oriented"
            );
        }
        for &(a, b) in &self.diff.added {
            debug_assert!(
                g.neighbors(a as usize).binary_search(&b).is_ok(),
                "strict-invariants: added edge ({a}, {b}) is missing from the snapshot"
            );
        }
        for &(a, b) in &self.diff.removed {
            debug_assert!(
                g.neighbors(a as usize).binary_search(&b).is_err(),
                "strict-invariants: removed edge ({a}, {b}) is still in the snapshot"
            );
        }
        if let Some(grid) = &self.grid {
            debug_assert_eq!(
                grid.len(),
                g.len(),
                "strict-invariants: grid and snapshot disagree on the node count"
            );
        }
        if self.edge_pairs_valid {
            debug_assert!(
                self.graph
                    .edges()
                    .map(|(a, b)| pack_pair(a as u32, b as u32))
                    .eq(self.edge_pairs.iter().copied()),
                "strict-invariants: packed edge list desynced from the snapshot"
            );
        }
    }

    /// Soundness of the armed Verlet cache, checked against brute
    /// force: every pair currently within range must appear in the
    /// candidate arena (the invariant that lets verify steps skip cell
    /// rescans entirely), and the tracked drift must be inside the
    /// `skin/2` budget whenever the arena was trusted this step.
    /// `O(n²)` — strict-invariants test builds only.
    #[cfg(feature = "strict-invariants")]
    fn debug_validate_cache(&self, points: &[Point<D>]) {
        debug_assert!(
            self.max_drift_sq <= self.drift_limit_sq,
            "strict-invariants: accumulated displacement exceeded skin/2 on a trusted arena"
        );
        let r2 = self.range * self.range;
        for a in 0..points.len() {
            for b in (a + 1)..points.len() {
                if points[a].distance_sq(&points[b]) <= r2 {
                    debug_assert!(
                        self.cache
                            .pairs
                            .binary_search(&pack_pair(a as u32, b as u32))
                            .is_ok(),
                        "strict-invariants: in-range pair ({a}, {b}) missing from the Verlet candidate arena"
                    );
                }
            }
        }
    }

    /// The oracle path: rebuild the snapshot from scratch and diff the
    /// two full snapshots. Taken when no grid exists or a declared
    /// displacement bound was violated.
    fn step_rebuild(&mut self, points: &[Point<D>]) {
        let next = AdjacencyList::from_points(points, self.side, self.range);
        self.graph.diff_into(&next, &mut self.diff);
        self.graph = next;
        self.edge_pairs_valid = false;
        self.metrics.fallback_steps += 1;
    }

    /// The per-moved-node kernel: the grid is already synced to the
    /// new positions and `self.moved` holds the moved set; emit the
    /// delta from moved-node rescans and patch the snapshot in place.
    fn step_incremental(&mut self) {
        #[expect(
            clippy::expect_used,
            reason = "step() dispatches here only when the grid exists"
        )]
        let grid = self.grid.as_ref().expect("caller checked the grid");
        let pts = grid.points();
        let r2 = self.range * self.range;
        self.diff.clear();

        // Stamp the moved set for O(1) membership tests.
        self.stamp_epoch = match self.stamp_epoch.checked_add(1) {
            Some(e) => e,
            None => {
                self.moved_stamp.fill(0);
                1
            }
        };
        let epoch = self.stamp_epoch;
        for &i in &self.moved {
            self.moved_stamp[i as usize] = epoch;
        }

        // Each changed pair has >= 1 moved endpoint; scanning every
        // moved node and skipping moved partners of lower index visits
        // each such pair exactly once, so no deduplication is needed
        // and one final sort restores the oracle's lexicographic order.
        let moved_stamp = &self.moved_stamp;
        let diff = &mut self.diff;
        let old_stamp = &mut self.old_stamp;
        let matched_stamp = &mut self.matched_stamp;
        let graph = &self.graph;
        let mut candidates: u64 = 0;
        for &a_u in &self.moved {
            let a = a_u as usize;
            let pa = pts[a];
            // A fresh scan id distinguishes this node's stamps from
            // every earlier scan without any clearing.
            self.scan_id = match self.scan_id.checked_add(1) {
                Some(s) => s,
                None => {
                    old_stamp.fill(0);
                    matched_stamp.fill(0);
                    1
                }
            };
            let sid = self.scan_id;
            let old = graph.neighbors(a);
            for &b in old {
                old_stamp[b as usize] = sid;
            }
            // Candidate pass: every in-range partner is either a
            // surviving old neighbor (mark it matched) or a new edge.
            grid.for_each_candidate(&pa, |b_u, pb| {
                candidates += 1;
                let b = b_u as usize;
                if b_u == a_u || (moved_stamp[b] == epoch && b_u < a_u) {
                    return;
                }
                if pa.distance_sq(pb) <= r2 {
                    if old_stamp[b] == sid {
                        matched_stamp[b] = sid;
                    } else {
                        diff.added.push((a_u.min(b_u), a_u.max(b_u)));
                    }
                }
            });
            // Any old neighbor not re-found in range has left it — no
            // distance computation needed.
            for &b in old {
                if moved_stamp[b as usize] == epoch && b < a_u {
                    continue;
                }
                if matched_stamp[b as usize] != sid {
                    diff.removed.push((a_u.min(b), a_u.max(b)));
                }
            }
        }
        self.diff.added.sort_unstable();
        self.diff.removed.sort_unstable();

        // Patch the snapshot in place: cost proportional to churn.
        for k in 0..self.diff.removed.len() {
            let (a, b) = self.diff.removed[k];
            self.graph.remove_edge_sorted(a as usize, b as usize);
        }
        for k in 0..self.diff.added.len() {
            let (a, b) = self.diff.added[k];
            self.graph.insert_edge_sorted(a as usize, b as usize);
        }
        self.edge_pairs_valid = false;
        self.metrics.moved_rescan_candidates += candidates;
        self.metrics.incremental_steps += 1;
    }

    /// The bulk-rescan path: most nodes moved, so re-derive the whole
    /// snapshot through the (already reset) grid as one flat packed
    /// pair list, diff it against the snapshot's packed edge list in a
    /// single linear merge, and fill/swap the rows — the
    /// allocation-free equivalent of `from_points` + `diff`, without
    /// per-row sorts or merges.
    ///
    /// The rescan is a forward half-neighborhood sweep (each unordered
    /// same-or-adjacent-cell pair examined exactly once). One counting
    /// sort over node ids ([`sort_packed_pairs`]: two stable
    /// `O(len + n)` passes, by `b` then by `a`) puts the list in lex
    /// order; packed pairs are unique, so the rows, the diff, and all
    /// counters are a function of the pair *set* alone.
    fn step_bulk(&mut self) {
        self.ensure_edge_pairs();
        #[expect(
            clippy::expect_used,
            reason = "step() dispatches here only when the grid exists"
        )]
        let grid = self.grid.as_ref().expect("caller checked the grid");
        let n = grid.len();
        let pairs = &mut self.new_pairs;
        pairs.clear();
        let examined =
            grid.scan_forward_pairs(self.range * self.range, |a, b| pairs.push(pack_pair(a, b)));
        sort_packed_pairs(pairs, n, &mut self.pair_sort);
        self.commit_new_pairs(n);
        // Counter compatibility: the historical bulk counter tallied
        // every occupant visit of every node's 3^D-cell neighborhood,
        // which is one self-visit per node plus both directions of
        // each examined unordered pair: `2·examined + n`.
        self.metrics.bulk_rescan_candidates += 2 * examined + n as u64;
        self.metrics.bulk_rescan_steps += 1;
    }

    /// The bulk and verify paths' shared tail: `new_pairs` holds the
    /// next snapshot's lex-sorted packed edge list and `edge_pairs` the
    /// current one. Fills the next rows, merges the two lists into the
    /// diff, and swaps rows and lists in, so both sides' capacity is
    /// reused on the following step.
    fn commit_new_pairs(&mut self, n: usize) {
        fill_sorted_rows(&mut self.next_rows, n, &self.new_pairs);
        merge_packed_diff(&self.edge_pairs, &self.new_pairs, &mut self.diff);
        let pairs = self.new_pairs.len();
        self.graph.swap_neighbor_rows(&mut self.next_rows, pairs);
        std::mem::swap(&mut self.edge_pairs, &mut self.new_pairs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngExt, SeedableRng};

    fn pts1(xs: &[f64]) -> Vec<Point<1>> {
        xs.iter().map(|&x| Point::new([x])).collect()
    }

    #[test]
    fn diff_of_identical_graphs_is_empty() {
        let pts = pts1(&[0.0, 1.0, 2.0]);
        let g = AdjacencyList::from_points_brute_force(&pts, 1.0);
        let d = g.diff(&g.clone());
        assert!(d.is_empty());
        assert_eq!(d.churn(), 0);
    }

    #[test]
    fn diff_reports_added_and_removed_in_order() {
        let old = AdjacencyList::from_points_brute_force(&pts1(&[0.0, 1.0, 5.0]), 1.0);
        let new = AdjacencyList::from_points_brute_force(&pts1(&[0.0, 4.9, 5.0]), 1.0);
        let d = old.diff(&new);
        assert_eq!(d.removed, vec![(0, 1)]);
        assert_eq!(d.added, vec![(1, 2)]);
        assert_eq!(d.churn(), 2);
    }

    #[test]
    fn diff_into_reuses_capacity() {
        let old = AdjacencyList::from_points_brute_force(&pts1(&[0.0, 1.0, 5.0]), 1.0);
        let new = AdjacencyList::from_points_brute_force(&pts1(&[0.0, 4.9, 5.0]), 1.0);
        let mut d = EdgeDiff::default();
        old.diff_into(&new, &mut d);
        let caps = (d.added.capacity(), d.removed.capacity());
        // A no-change diff into the same buffers keeps the capacity.
        old.diff_into(&old, &mut d);
        assert!(d.is_empty());
        assert_eq!((d.added.capacity(), d.removed.capacity()), caps);
    }

    #[test]
    fn diff_from_empty_lists_every_edge() {
        let pts = pts1(&[0.0, 0.5, 1.0]);
        let g = AdjacencyList::from_points_brute_force(&pts, 0.6);
        let d = AdjacencyList::empty(3).diff(&g);
        assert_eq!(d.added, vec![(0, 1), (1, 2)]);
        assert!(d.removed.is_empty());
        // And the reverse direction removes them all.
        let r = g.diff(&AdjacencyList::empty(3));
        assert_eq!(r.removed, vec![(0, 1), (1, 2)]);
    }

    #[test]
    #[should_panic(expected = "same node set")]
    fn diff_rejects_mismatched_node_counts() {
        let _ = AdjacencyList::empty(2).diff(&AdjacencyList::empty(3));
    }

    #[test]
    fn initial_diff_replays_snapshot() {
        let pts = pts1(&[0.0, 0.5, 1.0, 9.0]);
        let dg = DynamicGraph::new(&pts, 10.0, 0.6);
        let d = dg.initial_diff();
        assert_eq!(d.added.len(), dg.graph().edge_count());
        assert!(d.removed.is_empty());
        assert_eq!(&d, dg.last_diff());
    }

    #[test]
    fn advance_tracks_random_teleports_exactly() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(555);
        let side = 60.0;
        let r = 9.0;
        let mut pts: Vec<Point<2>> = (0..30)
            .map(|_| Point::new([rng.random_range(0.0..side), rng.random_range(0.0..side)]))
            .collect();
        let mut dg = DynamicGraph::new(&pts, side, r);
        for _ in 0..25 {
            for p in &mut pts {
                *p = Point::new([rng.random_range(0.0..side), rng.random_range(0.0..side)]);
            }
            dg.step(&pts);
            assert_eq!(
                dg.graph(),
                &AdjacencyList::from_points_brute_force(&pts, r),
                "snapshot drifted from the from-scratch build"
            );
        }
        assert_eq!(
            dg.metrics().fallback_steps,
            0,
            "no bound declared, no fallback"
        );
        // Every node teleports every step: all steps bulk-rescan.
        assert_eq!(dg.metrics().bulk_rescan_steps, 25);
        assert_eq!(dg.metrics().incremental_steps, 0);
    }

    /// The incremental kernel's delta and snapshot must be bit-identical
    /// to the from_points + diff oracle under mixed motion: paused
    /// nodes, small jitters, teleports.
    #[test]
    fn step_matches_rebuild_oracle_with_partial_movement() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4096);
        let side = 200.0;
        let r = 11.0;
        let n = 120;
        let mut pts: Vec<Point<2>> = (0..n)
            .map(|_| Point::new([rng.random_range(0.0..side), rng.random_range(0.0..side)]))
            .collect();
        let mut dg = DynamicGraph::new(&pts, side, r);
        let mut oracle = AdjacencyList::from_points(&pts, side, r);
        for step in 0..60 {
            // Alternate regimes so both the per-moved-node and the
            // bulk-rescan paths are replayed against the oracle:
            // most steps pause ~70% of nodes, every 5th moves all.
            let p_pause = if step % 5 == 4 { 0.0 } else { 0.7 };
            for p in &mut pts {
                let roll: f64 = rng.random_range(0.0..1.0);
                *p = if roll < p_pause {
                    *p // paused: bitwise identical position
                } else if roll < 0.95 {
                    let q =
                        *p + Point::new([rng.random_range(-3.0..3.0), rng.random_range(-3.0..3.0)]);
                    Point::new([q.coord(0).clamp(0.0, side), q.coord(1).clamp(0.0, side)])
                } else {
                    Point::new([rng.random_range(0.0..side), rng.random_range(0.0..side)])
                };
            }
            dg.step(&pts);
            let next = AdjacencyList::from_points(&pts, side, r);
            let expected = oracle.diff(&next);
            assert_eq!(dg.last_diff(), &expected, "diff diverged at step {step}");
            assert_eq!(dg.graph(), &next, "snapshot diverged at step {step}");
            oracle = next;
        }
        assert!(
            dg.metrics().incremental_steps > 0,
            "moved-node path never taken"
        );
        assert!(dg.metrics().bulk_rescan_steps > 0, "bulk path never taken");
        assert_eq!(dg.metrics().fallback_steps, 0);
    }

    #[test]
    fn declared_bound_violation_falls_back_to_full_diff() {
        let side = 100.0;
        let r = 10.0;
        let mut pts: Vec<Point<2>> = (0..20)
            .map(|i| Point::new([5.0 * i as f64, 50.0]))
            .collect();
        let mut dg = DynamicGraph::new(&pts, side, r).with_displacement_bound(Some(1.0));
        // An in-bound step stays incremental.
        pts[0] = Point::new([0.5, 50.0]);
        dg.step(&pts);
        assert_eq!(
            (dg.metrics().incremental_steps, dg.metrics().fallback_steps),
            (1, 0)
        );
        // A 40-unit teleport violates the declared bound: the kernel
        // must route through the full rebuild-and-diff oracle, still
        // producing the exact snapshot and delta.
        let old = dg.graph().clone();
        pts[0] = Point::new([40.5, 50.0]);
        dg.step(&pts);
        assert_eq!(
            (dg.metrics().incremental_steps, dg.metrics().fallback_steps),
            (1, 1)
        );
        let next = AdjacencyList::from_points(&pts, side, r);
        assert_eq!(dg.graph(), &next);
        assert_eq!(dg.last_diff(), &old.diff(&next));
        // Later in-bound steps return to the incremental path with a
        // consistent grid.
        pts[3] = Point::new([15.2, 50.3]);
        dg.step(&pts);
        assert_eq!(
            (dg.metrics().incremental_steps, dg.metrics().fallback_steps),
            (2, 1)
        );
        assert_eq!(dg.graph(), &AdjacencyList::from_points(&pts, side, r));
    }

    #[test]
    fn zero_displacement_bound_allows_stationary_steps() {
        let pts = pts1(&[0.0, 1.0, 2.0]);
        let mut dg = DynamicGraph::new(&pts, 10.0, 1.5).with_displacement_bound(Some(0.0));
        dg.step(&pts);
        assert!(dg.last_diff().is_empty());
        assert_eq!(dg.metrics().fallback_steps, 0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_bound_rejected() {
        let pts = pts1(&[0.0]);
        let _ = DynamicGraph::new(&pts, 10.0, 1.0).with_displacement_bound(Some(-1.0));
    }

    #[test]
    fn degenerate_range_runs_on_the_rebuild_path() {
        let pts = pts1(&[0.0, 1.0]);
        let mut dg = DynamicGraph::new(&pts, 10.0, f64::NAN);
        assert_eq!(dg.graph().edge_count(), 0); // NaN range: edgeless
        dg.step(&pts1(&[0.0, 0.5]));
        assert_eq!(dg.metrics().fallback_steps, 1);
        assert_eq!(dg.metrics().incremental_steps, 0);
        assert_eq!(dg.graph().edge_count(), 0);
    }

    /// Exact ties through both step paths: nodes on an integer lattice
    /// hop by whole lattice spacings, so hundreds of pairs sit at
    /// exactly `d == r` every step (`r·r` exact). The grid-built
    /// snapshot (n > GRID_CROSSOVER, side >= 14·r), incremental steps
    /// and bulk steps must all keep the brute-force `d² <= r·r` edge
    /// set, edge for edge.
    #[test]
    fn exact_ties_survive_incremental_and_bulk_steps() {
        let (side, r) = (80.0, 5.0);
        let mut pts: Vec<Point<2>> = (0..14)
            .flat_map(|x| (0..14).map(move |y| Point::new([3.0 * x as f64, 4.0 * y as f64])))
            .collect();
        let mut dg = DynamicGraph::new(&pts, side, r);
        let mut oracle = AdjacencyList::from_points_brute_force(&pts, r);
        assert_eq!(dg.graph(), &oracle);
        assert!(oracle.edge_count() >= 500, "ties present");
        for step in 0..6 {
            for (i, p) in pts.iter_mut().enumerate() {
                if step % 2 == 0 {
                    // A seventh of the nodes hop: incremental path.
                    if i % 7 == 0 {
                        *p = *p + Point::new([3.0, 4.0]);
                    }
                } else {
                    // Everyone shifts, a fifth also hop: bulk path.
                    let dy = if i % 5 == 0 { 4.0 } else { 0.0 };
                    *p = *p + Point::new([if step == 3 { -3.0 } else { 3.0 }, dy]);
                }
            }
            dg.step(&pts);
            let next = AdjacencyList::from_points_brute_force(&pts, r);
            assert_eq!(dg.last_diff(), &oracle.diff(&next), "diff at step {step}");
            assert_eq!(dg.graph(), &next, "snapshot at step {step}");
            oracle = next;
        }
        assert_eq!(dg.metrics().incremental_steps, 3);
        assert_eq!(dg.metrics().bulk_rescan_steps, 3);
    }

    /// Exact ties through the armed cache: the same 3-4-5 lattice under
    /// a declared bound and a fixed skin. Every node shifts by 3 along
    /// x each step (all moving, so the cache arms) and a third of them,
    /// rotating every two steps, also sits 4 up, so pairs keep landing
    /// at exactly `d == r`. Drift from the arena's reference is 3, 4 or
    /// 5 — within or beyond the `skin/2 = 4` budget — so verify steps
    /// and rebuilds alternate. Both must keep the brute-force
    /// `d² <= r·r` edge set.
    #[test]
    fn exact_ties_survive_armed_cache_steps() {
        let (side, r) = (80.0, 5.0);
        let at = |step: usize| -> Vec<Point<2>> {
            (0..14)
                .flat_map(|x| (0..14).map(move |y| (x, y)))
                .enumerate()
                .map(|(i, (x, y))| {
                    let dx = if step % 2 == 1 { 3.0 } else { 0.0 };
                    let dy = if (i + step / 2).is_multiple_of(3) {
                        4.0
                    } else {
                        0.0
                    };
                    Point::new([3.0 * x as f64 + dx, 4.0 * y as f64 + dy])
                })
                .collect()
        };
        let mut dg = DynamicGraph::new(&at(0), side, r)
            .with_displacement_bound(Some(5.0))
            .with_skin(Skin::Fixed(8.0));
        let mut oracle = AdjacencyList::from_points_brute_force(&at(0), r);
        assert_eq!(dg.graph(), &oracle);
        assert!(oracle.edge_count() >= 500, "ties present");
        for step in 1..=12 {
            let pts = at(step);
            dg.step(&pts);
            let next = AdjacencyList::from_points_brute_force(&pts, r);
            assert_eq!(dg.last_diff(), &oracle.diff(&next), "diff at step {step}");
            assert_eq!(dg.graph(), &next, "snapshot at step {step}");
            oracle = next;
        }
        let m = *dg.metrics();
        assert_eq!(dg.armed_skin(), Some(8.0));
        assert_eq!(m.fallback_steps, 0);
        assert!(m.cache_verify_steps >= 1, "{m:?}");
        assert!(m.cache_rebuilds >= 1, "{m:?}");
        assert_eq!(m.cache_verify_steps + m.cache_rebuilds, 12, "{m:?}");
    }

    #[test]
    #[should_panic(expected = "node 2 has a non-finite coordinate")]
    fn new_rejects_nan_position() {
        let _ = DynamicGraph::new(&pts1(&[0.0, 1.0, f64::NAN]), 10.0, 1.5);
    }

    #[test]
    #[should_panic(expected = "node 1 has a non-finite coordinate")]
    fn incremental_step_rejects_nan_position() {
        let mut pts = pts1(&[0.0, 1.0, 5.0]);
        let mut dg = DynamicGraph::new(&pts, 10.0, 1.5);
        pts[1] = Point::new([f64::NAN]);
        dg.step(&pts);
    }

    #[test]
    #[should_panic(expected = "node 2 has a non-finite coordinate")]
    fn bulk_step_rejects_infinite_position() {
        let mut pts = pts1(&[0.0, 1.0, 5.0]);
        let mut dg = DynamicGraph::new(&pts, 10.0, 1.5);
        pts = pts1(&[0.5, 1.5, f64::INFINITY]);
        dg.step(&pts);
    }

    #[test]
    fn diff_capacity_is_reused_across_steps() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        let side = 50.0;
        let mut pts: Vec<Point<2>> = (0..40)
            .map(|_| Point::new([rng.random_range(0.0..side), rng.random_range(0.0..side)]))
            .collect();
        let mut dg = DynamicGraph::new(&pts, side, 6.0);
        // A held buffer that is only ever `clear()`ed has monotonically
        // non-decreasing capacity. A kernel that allocated a fresh
        // EdgeDiff each step would report capacity ~= that step's churn,
        // which fluctuates — dipping below an earlier high-water mark.
        let mut prev_cap = (0usize, 0usize);
        let mut churn_varied = false;
        let mut prev_churn = None;
        for step in 0..30 {
            for p in &mut pts {
                let q = *p + Point::new([rng.random_range(-2.0..2.0), rng.random_range(-2.0..2.0)]);
                *p = Point::new([q.coord(0).clamp(0.0, side), q.coord(1).clamp(0.0, side)]);
            }
            dg.step(&pts);
            let cap = (
                dg.last_diff().added.capacity(),
                dg.last_diff().removed.capacity(),
            );
            assert!(
                cap.0 >= prev_cap.0 && cap.1 >= prev_cap.1,
                "held diff buffers shrank at step {step}: {prev_cap:?} -> {cap:?} \
                 (reallocated instead of reused)"
            );
            prev_cap = cap;
            let churn = dg.last_diff().churn();
            churn_varied |= prev_churn.is_some_and(|c| c != churn);
            prev_churn = Some(churn);
        }
        // The monotonicity assertion only has teeth if per-step churn
        // actually fluctuated below its high-water mark.
        assert!(churn_varied, "trajectory produced constant churn");
    }

    #[test]
    fn metrics_partition_steps_and_match_diff_totals() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(321);
        let side = 80.0;
        let r = 8.0;
        let mut pts: Vec<Point<2>> = (0..50)
            .map(|_| Point::new([rng.random_range(0.0..side), rng.random_range(0.0..side)]))
            .collect();
        let mut dg = DynamicGraph::new(&pts, side, r);
        assert_eq!(*dg.metrics(), StepKernelMetrics::default());
        let (mut oracle_added, mut oracle_removed, mut oracle_moved) = (0u64, 0u64, 0u64);
        for step in 0..40 {
            let p_pause = if step % 4 == 3 { 0.0 } else { 0.8 };
            let mut moved_now = 0u64;
            for p in &mut pts {
                if rng.random_range(0.0..1.0) < p_pause {
                    continue;
                }
                let q = *p + Point::new([rng.random_range(-2.0..2.0), rng.random_range(-2.0..2.0)]);
                let q = Point::new([q.coord(0).clamp(0.0, side), q.coord(1).clamp(0.0, side)]);
                if q != *p {
                    moved_now += 1;
                    *p = q;
                }
            }
            dg.step(&pts);
            oracle_moved += moved_now;
            oracle_added += dg.last_diff().added.len() as u64;
            oracle_removed += dg.last_diff().removed.len() as u64;
        }
        let m = *dg.metrics();
        assert_eq!(m.steps, 40);
        assert_eq!(
            m.incremental_steps + m.bulk_rescan_steps + m.cache_verify_steps + m.fallback_steps,
            m.steps,
            "every step commits through exactly one path"
        );
        // No bound declared: the (default-auto) cache must never arm.
        assert_eq!(m.cache_verify_steps, 0);
        assert_eq!(m.cache_rebuilds, 0);
        assert_eq!(dg.armed_skin(), None);
        assert!(m.incremental_steps > 0 && m.bulk_rescan_steps > 0);
        assert_eq!(m.moved_nodes, oracle_moved);
        assert_eq!(m.edges_added, oracle_added);
        assert_eq!(m.edges_removed, oracle_removed);
        assert!(m.moved_rescan_candidates > 0 && m.bulk_rescan_candidates > 0);
        // The grid saw one commit per step, all nodes accounted for.
        let g = dg.grid_metrics().copied().unwrap();
        assert_eq!(g.relocations, m.incremental_steps);
        assert_eq!(g.resets, m.bulk_rescan_steps);
    }

    #[test]
    #[should_panic(expected = "node count changed")]
    fn advance_rejects_resized_point_set() {
        let pts = pts1(&[0.0, 1.0]);
        let mut dg = DynamicGraph::new(&pts, 10.0, 1.0);
        dg.step(&pts1(&[0.0]));
    }

    /// The one accepted intra-step thread count changes no observable.
    #[test]
    fn step_threads_do_not_change_any_observable() {
        let mut pts = pts1(&[0.0, 1.0, 5.0]);
        let mut serial = DynamicGraph::new(&pts, 10.0, 1.5);
        let mut one = DynamicGraph::new(&pts, 10.0, 1.5).with_step_threads(1);
        pts[2] = Point::new([2.0]);
        serial.step(&pts);
        one.step(&pts);
        assert_eq!(one.graph(), serial.graph());
        assert_eq!(one.last_diff(), serial.last_diff());
        assert_eq!(one.metrics(), serial.metrics());
    }

    #[test]
    #[should_panic(expected = "intra-step sharding was removed")]
    fn with_step_threads_rejects_two() {
        let pts = pts1(&[0.0, 1.0]);
        let _ = DynamicGraph::new(&pts, 10.0, 1.5).with_step_threads(2);
    }

    /// The bulk path derives its packed edge list from the snapshot's
    /// sorted rows; the sortedness check in that derivation is the
    /// runtime guard against corrupted input: a row injected out of
    /// order behind the kernel's back must be caught on the next bulk
    /// step.
    #[cfg(feature = "strict-invariants")]
    #[test]
    #[should_panic(expected = "unsorted neighbors")]
    fn strict_invariants_detects_corrupt_shard_merge_input() {
        let side = 30.0;
        let r = 4.0;
        let pts: Vec<Point<2>> = (0..12)
            .map(|i| Point::new([2.5 * i as f64, 15.0]))
            .collect();
        let mut dg = DynamicGraph::new(&pts, side, r);
        // Corrupt one snapshot row out of sorted order behind the
        // kernel's back.
        let mut rows: Vec<Vec<u32>> = (0..pts.len())
            .map(|a| dg.graph().neighbors(a).to_vec())
            .collect();
        rows[5].reverse();
        let edge_count = dg.graph().edge_count();
        dg.graph.swap_neighbor_rows(&mut rows, edge_count);
        // All nodes move: the bulk rescan must notice the unsorted old
        // row while deriving the packed edge list it merges against.
        let moved: Vec<Point<2>> = pts.iter().map(|p| *p + Point::new([0.3, 0.3])).collect();
        dg.step(&moved);
    }

    #[test]
    fn skin_parses_and_displays() {
        assert_eq!("auto".parse::<Skin>(), Ok(Skin::Auto));
        assert_eq!("off".parse::<Skin>(), Ok(Skin::Off));
        assert_eq!("0".parse::<Skin>(), Ok(Skin::Off));
        assert_eq!("12.5".parse::<Skin>(), Ok(Skin::Fixed(12.5)));
        assert!("-1".parse::<Skin>().is_err());
        assert!("nan".parse::<Skin>().is_err());
        assert!("inf".parse::<Skin>().is_err());
        assert!("fast".parse::<Skin>().is_err());
        for s in [Skin::Auto, Skin::Off, Skin::Fixed(7.25)] {
            assert_eq!(s.to_string().parse::<Skin>(), Ok(s), "display round-trip");
        }
        assert_eq!(Skin::default(), Skin::Auto);
    }

    #[test]
    #[should_panic(expected = "finite and strictly positive")]
    fn zero_fixed_skin_rejected() {
        let pts = pts1(&[0.0]);
        let _ = DynamicGraph::new(&pts, 10.0, 1.0).with_skin(Skin::Fixed(0.0));
    }

    /// Drives an all-moving drift trajectory (every node steps by at
    /// most `step_len`) and checks the kernel against the
    /// from-scratch oracle every step. Returns the kernel.
    fn drive_drift(
        mut dg: DynamicGraph<2>,
        side: f64,
        r: f64,
        steps: usize,
        step_len: f64,
        seed: u64,
    ) -> DynamicGraph<2> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut pts = dg.grid.as_ref().unwrap().points().to_vec();
        let mut oracle = AdjacencyList::from_points(&pts, side, r);
        for step in 0..steps {
            for p in &mut pts {
                let q = *p
                    + Point::new([
                        rng.random_range(-step_len..step_len),
                        rng.random_range(-step_len..step_len),
                    ]);
                *p = Point::new([q.coord(0).clamp(0.0, side), q.coord(1).clamp(0.0, side)]);
            }
            dg.step(&pts);
            let next = AdjacencyList::from_points(&pts, side, r);
            assert_eq!(
                dg.last_diff(),
                &oracle.diff(&next),
                "diff diverged at {step}"
            );
            assert_eq!(dg.graph(), &next, "snapshot diverged at {step}");
            oracle = next;
        }
        dg
    }

    /// The armed cache must be bit-identical to the oracle while
    /// actually taking the verify path, and its counters must keep the
    /// four-way partition identity auditable.
    #[test]
    fn verlet_cache_matches_oracle_and_partitions_steps() {
        let side = 100.0;
        let r = 12.0;
        let mut rng = rand::rngs::StdRng::seed_from_u64(2020);
        let pts: Vec<Point<2>> = (0..90)
            .map(|_| Point::new([rng.random_range(0.0..side), rng.random_range(0.0..side)]))
            .collect();
        let step_len = 0.4;
        let bound = (2.0f64 * step_len * step_len).sqrt();
        let dg = DynamicGraph::new(&pts, side, r)
            .with_displacement_bound(Some(bound))
            .with_skin(Skin::Fixed(4.0));
        let dg = drive_drift(dg, side, r, 40, step_len, 2021);
        assert_eq!(dg.armed_skin(), Some(4.0));
        let m = *dg.metrics();
        assert_eq!(m.steps, 40);
        assert_eq!(
            m.incremental_steps + m.bulk_rescan_steps + m.cache_verify_steps + m.fallback_steps,
            m.steps,
            "path partition identity"
        );
        assert!(m.cache_verify_steps > 0, "verify path never taken");
        assert!(m.cache_rebuilds >= 1, "cache never built");
        assert!(
            m.cache_rebuilds <= m.bulk_rescan_steps,
            "rebuilds are a subset of the bulk bucket"
        );
        assert!(m.cached_pairs > 0 && m.verify_candidates > 0);
        assert_eq!(m.fallback_steps, 0);
        // Most steps must ride the cache, not rebuild it: with skin 4
        // and steps <= ~0.57, the drift budget (2.0) buys >= 3 steps.
        assert!(
            m.cache_verify_steps >= 2 * m.cache_rebuilds,
            "cache thrashing: {} rebuilds vs {} verifies",
            m.cache_rebuilds,
            m.cache_verify_steps
        );
    }

    /// Auto skin arms only under a declared bound, and the armed
    /// kernel keeps matching the oracle.
    #[test]
    fn auto_skin_arms_only_with_declared_bound() {
        let side = 100.0;
        let r = 12.0;
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        let pts: Vec<Point<2>> = (0..90)
            .map(|_| Point::new([rng.random_range(0.0..side), rng.random_range(0.0..side)]))
            .collect();
        let unbounded = DynamicGraph::new(&pts, side, r);
        assert_eq!(unbounded.skin(), Skin::Auto, "auto is the default");
        let unbounded = drive_drift(unbounded, side, r, 20, 0.3, 77);
        assert_eq!(unbounded.armed_skin(), None, "no bound, no cache");
        assert_eq!(unbounded.metrics().cache_verify_steps, 0);

        let bound = (2.0f64 * 0.3 * 0.3).sqrt();
        let bounded = DynamicGraph::new(&pts, side, r).with_displacement_bound(Some(bound));
        let bounded = drive_drift(bounded, side, r, 20, 0.3, 77);
        let skin = bounded.armed_skin().expect("auto skin should arm");
        assert!(skin > 0.0 && skin.is_finite());
        assert!(bounded.metrics().cache_verify_steps > 0);
    }

    /// A bound violation while armed must oracle that step, mark the
    /// arena stale, and rebuild on the next in-bound step — snapshots
    /// exact throughout.
    #[test]
    fn armed_bound_violation_falls_back_then_rebuilds() {
        let side = 100.0;
        let r = 10.0;
        let mut pts: Vec<Point<2>> = (0..30)
            .map(|i| Point::new([3.0 * i as f64, 50.0]))
            .collect();
        let mut dg = DynamicGraph::new(&pts, side, r)
            .with_displacement_bound(Some(1.0))
            .with_skin(Skin::Fixed(3.0));
        let shift = |pts: &mut Vec<Point<2>>, dx: f64| {
            for p in pts.iter_mut() {
                *p = Point::new([(p.coord(0) + dx).clamp(0.0, side), p.coord(1)]);
            }
        };
        // Arm on an all-moving in-bound step.
        shift(&mut pts, 0.5);
        dg.step(&pts);
        assert!(dg.armed_skin().is_some());
        assert_eq!(dg.metrics().cache_rebuilds, 1);
        // Violate the declared bound: node 0 teleports.
        let old = dg.graph().clone();
        pts[0] = Point::new([80.0, 50.0]);
        dg.step(&pts);
        assert_eq!(dg.metrics().fallback_steps, 1, "violation must oracle");
        let next = AdjacencyList::from_points(&pts, side, r);
        assert_eq!(dg.graph(), &next);
        assert_eq!(dg.last_diff(), &old.diff(&next));
        // The next in-bound step rebuilds the stale arena and keeps
        // serving exact snapshots.
        shift(&mut pts, 0.5);
        dg.step(&pts);
        assert_eq!(dg.metrics().cache_rebuilds, 2, "stale arena must rebuild");
        assert_eq!(dg.graph(), &AdjacencyList::from_points(&pts, side, r));
        // And a quiet follow-up step verifies off the fresh arena.
        dg.step(&pts.clone());
        assert!(dg.last_diff().is_empty());
        assert!(dg.metrics().cache_verify_steps >= 1);
    }

    /// Corrupting the candidate arena (dropping the pair that covers a
    /// true edge) must be caught by the strict-invariants cache
    /// checker on the next verify step.
    #[cfg(feature = "strict-invariants")]
    #[test]
    #[should_panic(expected = "missing from the Verlet candidate arena")]
    fn strict_invariants_detects_corrupt_candidate_arena() {
        let side = 100.0;
        let r = 4.0;
        let mut pts: Vec<Point<2>> = (0..20)
            .map(|i| Point::new([2.0 * i as f64, 10.0]))
            .collect();
        let mut dg = DynamicGraph::new(&pts, side, r)
            .with_displacement_bound(Some(0.5))
            .with_skin(Skin::Fixed(2.0));
        let shift = |pts: &mut Vec<Point<2>>, dy: f64| {
            for p in pts.iter_mut() {
                *p = Point::new([p.coord(0), p.coord(1) + dy]);
            }
        };
        shift(&mut pts, 0.3);
        dg.step(&pts);
        assert!(dg.armed_skin().is_some(), "cache must arm first");
        // Remove the arena entry covering true edge (0, 1): the arena
        // stays sorted, only the coverage invariant is broken.
        let idx = dg.cache.pairs.binary_search(&pack_pair(0, 1)).unwrap();
        dg.cache.pairs.remove(idx);
        // An in-bound verify step must now trip the coverage check.
        shift(&mut pts, 0.3);
        dg.step(&pts);
    }
}
