//! The workspace's one uniform-grid spatial index.
//!
//! Building the communication graph naively costs `O(n²)` distance
//! checks. [`MovingCellGrid`] buckets nodes into cells at least `r`
//! wide, so every neighbor within `r` of a node lies in its own or one
//! of the `3^D` adjacent cells, and
//! [`MovingCellGrid::scan_forward_pairs`] enumerates each in-range
//! pair once by visiting every adjacent cell pair once. The static
//! graph build (`AdjacencyList::from_points_grid` in `manet-graph`)
//! is one build plus one full scan. Each cell holds its occupants as
//! one array of `(id, position)` entries. The scan gathers each base
//! cell's occupants and its forward cells' occupants into one reused
//! run, so each base occupant tests one contiguous tail of it, and it
//! hands the in-range pairs to its caller in batches. Its emission
//! order (see [`MovingCellGrid::scan_forward_pairs`]) is fixed, but
//! no caller depends on it: the graph builds counting-sort the pairs
//! into lex order, and grid-Kruskal's ties between equal squared
//! distances only choose among spanning trees of the same edge
//! lengths.
//!
//! The step kernels build the index once and commit each step in two
//! calls. [`MovingCellGrid::measure`] reports which nodes moved and the
//! maximum squared displacement without touching the buckets — exactly
//! the information an incremental neighbor kernel needs to scan only
//! moved nodes and to police a mobility model's declared displacement
//! bound. [`MovingCellGrid::relocate`] then commits only the moved
//! nodes (only those that crossed a cell boundary change bucket), or
//! [`MovingCellGrid::reset`] re-buckets every node in one pass.
//!
//! # The lattice rule
//!
//! Every grid-indexed graph build sizes its cells with
//! [`MovingCellGrid::lattice_cell_size`]: width
//! `max(radius, side / ⌈n^{1/D}⌉)`. A width `>= radius` keeps the scan
//! complete, and the floor caps the lattice at about `n` cells, so a
//! tiny radius never demands a `(side/radius)^D`-cell allocation.
//!
//! Bucket membership lists preserve a stable order (relocation removes
//! in place instead of swap-removing), so iteration order — and
//! therefore any downstream tie-breaking — is a deterministic function
//! of the commit history. A node with a non-finite coordinate has no
//! cell: bucketing it panics, naming the node.

use crate::cells::CellLayout;
use crate::{GeomError, Point};
use manet_obs::GridMetrics;

/// A per-cell bucket index over `[0, side]^D`, updated in place as its
/// points move.
///
/// # Example
///
/// ```
/// use manet_geom::{MovingCellGrid, Point};
///
/// let mut pts = vec![Point::new([0.5, 0.5]), Point::new([9.0, 9.0])];
/// let mut grid = MovingCellGrid::build(&pts, 10.0, 1.0)?;
///
/// pts[1] = Point::new([1.2, 0.5]); // node 1 walks next to node 0
/// let mut moved = Vec::new();
/// grid.measure(&pts, &mut moved);
/// grid.relocate(&pts, &moved);
/// assert_eq!(moved, vec![1]);
///
/// let mut near0 = Vec::new();
/// grid.for_each_candidate(&pts[0], |j, _| near0.push(j));
/// near0.sort_unstable();
/// assert_eq!(near0, vec![0, 1]);
///
/// // Every pair within range 1, each once, over the whole lattice.
/// let mut pairs = Vec::new();
/// grid.scan_forward_pairs(1.0, |batch| pairs.extend_from_slice(batch));
/// assert_eq!(pairs, vec![(0, 1)]);
/// # Ok::<(), manet_geom::GeomError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MovingCellGrid<const D: usize> {
    layout: CellLayout,
    /// Occupants per cell as `(node id, position)`, in stable
    /// (insertion) order.
    buckets: Vec<Vec<(u32, Point<D>)>>,
    /// Current cell of each node.
    node_cell: Vec<u32>,
    /// Index of each node within its cell's bucket — O(1) in-cell
    /// position updates and O(shifted) order-preserving removals, no
    /// bucket scans.
    node_slot: Vec<u32>,
    /// Current positions (the *new* positions after a commit).
    points: Vec<Point<D>>,
    /// Deterministic commit counters (see [`GridMetrics`]); the build
    /// itself is not counted, only subsequent commits.
    metrics: GridMetrics,
    /// Scratch for [`MovingCellGrid::scan_forward_pairs`]: one base
    /// cell's occupants followed by its forward cells' occupants.
    run: Vec<(u32, Point<D>)>,
}

impl<const D: usize> MovingCellGrid<D> {
    /// Builds the index over `points` in `[0, side]^D` with cells at
    /// least `cell_size` wide (points outside the region clamp to the
    /// nearest boundary cell).
    ///
    /// # Errors
    ///
    /// Returns [`GeomError::NonPositive`] when `side` or `cell_size`
    /// is not strictly positive, and [`GeomError::NonFinite`] when
    /// either is NaN/infinite.
    ///
    /// # Panics
    ///
    /// Panics when a point has a non-finite coordinate.
    pub fn build(points: &[Point<D>], side: f64, cell_size: f64) -> Result<Self, GeomError> {
        let layout = CellLayout::new(side, cell_size)?;
        let mut grid = MovingCellGrid {
            layout,
            buckets: vec![Vec::new(); layout.n_cells::<D>()],
            node_cell: vec![0; points.len()],
            node_slot: vec![0; points.len()],
            points: points.to_vec(),
            metrics: GridMetrics::default(),
            run: Vec::new(),
        };
        grid.bucket_all(points);
        #[cfg(feature = "strict-invariants")]
        grid.debug_validate();
        Ok(grid)
    }

    /// The lattice rule: the cell size for indexing `n_points` nodes
    /// of `[0, side]^D` at query radius `radius`, which is
    /// `max(radius, side / ⌈n_points^{1/D}⌉)`.
    ///
    /// A width `>= radius` keeps the `3^D`-cell candidate scan
    /// complete, and any coarser lattice stays correct (it only widens
    /// the candidate set), so the lattice is floored at about
    /// `n_points` cells in total.
    ///
    /// # Errors
    ///
    /// Returns the [`MovingCellGrid::build`] errors for `side` and for
    /// `radius` in place of the cell size.
    pub fn lattice_cell_size(n_points: usize, side: f64, radius: f64) -> Result<f64, GeomError> {
        CellLayout::new(side, radius)?;
        let per_axis = (n_points.max(1) as f64).powf(1.0 / D as f64).ceil();
        Ok(radius.max(side / per_axis))
    }

    /// The cell node `i` at position `p` belongs in.
    ///
    /// # Panics
    ///
    /// Panics when `p` has a non-finite coordinate: the cell cast would
    /// otherwise file it in a boundary cell and silently isolate it.
    #[inline]
    fn cell_of_node(&self, i: usize, p: &Point<D>) -> usize {
        assert!(
            p.is_finite(),
            "MovingCellGrid: node {i} has a non-finite coordinate {:?}",
            p.coords()
        );
        self.layout.cell_of(p)
    }

    /// Empties every occupied bucket (at most `n` of them), counting
    /// each as one touched cell.
    fn clear_occupied(&mut self) {
        for &c in &self.node_cell {
            let c = c as usize;
            if !self.buckets[c].is_empty() {
                self.metrics.cells_touched += 1;
                self.buckets[c].clear();
            }
        }
    }

    /// Files every node at `points` into its (emptied) bucket in
    /// ascending id order — the canonical bucket order.
    fn bucket_all(&mut self, points: &[Point<D>]) {
        for (i, p) in points.iter().enumerate() {
            let c = self.cell_of_node(i, p);
            self.node_slot[i] = self.buckets[c].len() as u32;
            self.buckets[c].push((i as u32, *p));
            self.node_cell[i] = c as u32;
            self.points[i] = *p;
        }
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Number of cells along each axis.
    pub fn cells_per_side(&self) -> usize {
        self.layout.cells_per_side
    }

    /// Actual cell width (`>= cell_size` requested at build).
    pub fn cell_width(&self) -> f64 {
        self.layout.cell_width
    }

    /// The current positions (after the most recent commit).
    pub fn points(&self) -> &[Point<D>] {
        &self.points
    }

    /// Deterministic counters accumulated over every commit since the
    /// build ([`MovingCellGrid::relocate`] and
    /// [`MovingCellGrid::reset`] calls; the build itself counts as
    /// zero). Pure event counts — identical for identical commit
    /// histories regardless of timing or thread placement.
    pub fn metrics(&self) -> &GridMetrics {
        &self.metrics
    }

    /// Measures the next step without mutating the index: appends the
    /// indices of every node whose position changed (bitwise coordinate
    /// comparison) to `moved` in ascending order — the vector is
    /// cleared first, so its capacity is reused across steps — and
    /// returns the maximum squared displacement over the moved nodes
    /// (`0.0` when nothing moved).
    ///
    /// Callers then commit the step with [`MovingCellGrid::relocate`]
    /// (cost proportional to the moved set) or
    /// [`MovingCellGrid::reset`] (one bulk re-bucketing pass) — the
    /// split lets an adaptive kernel pick the cheaper commit *after*
    /// seeing how much actually moved.
    ///
    /// # Panics
    ///
    /// Panics when `new_points.len()` differs from the indexed node
    /// count (a driver logic error).
    pub fn measure(&self, new_points: &[Point<D>], moved: &mut Vec<u32>) -> f64 {
        assert_eq!(
            new_points.len(),
            self.points.len(),
            "node count changed between updates"
        );
        moved.clear();
        let mut max_d2 = 0.0f64;
        for (i, (&new_p, &old_p)) in new_points.iter().zip(&self.points).enumerate() {
            if new_p == old_p {
                continue;
            }
            moved.push(i as u32);
            let d2 = old_p.distance_sq(&new_p);
            if d2 > max_d2 {
                max_d2 = d2;
            }
        }
        max_d2
    }

    /// Commits a measured step by relocating exactly the nodes in
    /// `moved` (as produced by [`MovingCellGrid::measure`] for the same
    /// `new_points`); only nodes that crossed a cell boundary touch the
    /// buckets.
    ///
    /// # Panics
    ///
    /// Panics when `new_points.len()` differs from the indexed node
    /// count, a `moved` index is out of range, or a moved node has a
    /// non-finite coordinate.
    pub fn relocate(&mut self, new_points: &[Point<D>], moved: &[u32]) {
        assert_eq!(
            new_points.len(),
            self.points.len(),
            "node count changed between updates"
        );
        self.metrics.relocations += 1;
        self.metrics.nodes_moved += moved.len() as u64;
        for &iu in moved {
            let i = iu as usize;
            let new_p = new_points[i];
            let c = self.cell_of_node(i, &new_p);
            let old_c = self.node_cell[i] as usize;
            let slot = self.node_slot[i] as usize;
            if c != old_c {
                // Source and destination buckets.
                self.metrics.boundary_crossings += 1;
                self.metrics.cells_touched += 2;
                // Order-preserving removal at the recorded slot keeps
                // bucket iteration stable (see module docs); every
                // occupant behind the gap shifts one slot down.
                let bucket = &mut self.buckets[old_c];
                debug_assert_eq!(bucket[slot].0, iu, "node slot desynced from its bucket");
                bucket.remove(slot);
                for &(shifted, _) in &bucket[slot..] {
                    self.node_slot[shifted as usize] -= 1;
                }
                self.node_slot[i] = self.buckets[c].len() as u32;
                self.buckets[c].push((iu, new_p));
                self.node_cell[i] = c as u32;
            } else {
                self.buckets[c][slot].1 = new_p;
            }
            self.points[i] = new_p;
        }
        #[cfg(feature = "strict-invariants")]
        self.debug_validate();
    }

    /// Re-buckets every node from scratch at `new_points`, reusing the
    /// bucket allocations. Restores the canonical ascending-id order
    /// inside each bucket.
    ///
    /// # Panics
    ///
    /// Panics when `new_points.len()` differs from the indexed node
    /// count or a point has a non-finite coordinate.
    pub fn reset(&mut self, new_points: &[Point<D>]) {
        assert_eq!(
            new_points.len(),
            self.points.len(),
            "node count changed between updates"
        );
        self.metrics.resets += 1;
        self.clear_occupied();
        self.bucket_all(new_points);
        #[cfg(feature = "strict-invariants")]
        self.debug_validate();
    }

    /// Re-derives the cell layout at a different `cell_size` (over the
    /// same region `side` the grid was built with) and re-buckets
    /// every node at `new_points`, preserving the accumulated
    /// [`GridMetrics`] — the switch is committed as one
    /// [`MovingCellGrid::reset`]. The step kernel uses this to widen
    /// cells to `r + skin` when it arms its Verlet candidate cache
    /// mid-run, so one forward half-neighborhood still covers the
    /// inflated candidate radius.
    ///
    /// # Errors
    ///
    /// Returns the same [`GeomError`] conditions as
    /// [`MovingCellGrid::build`]; on error the grid is unchanged.
    ///
    /// # Panics
    ///
    /// Panics when `new_points.len()` differs from the indexed node
    /// count or a point has a non-finite coordinate.
    pub fn rebuild_with_cell_size(
        &mut self,
        new_points: &[Point<D>],
        side: f64,
        cell_size: f64,
    ) -> Result<(), GeomError> {
        assert_eq!(
            new_points.len(),
            self.points.len(),
            "node count changed between updates"
        );
        let layout = CellLayout::new(side, cell_size)?;
        let n_cells = layout.n_cells::<D>();
        self.metrics.resets += 1;
        // Drop the old occupancy while the old layout's cell indices
        // are still valid; any bucket truncated below is empty.
        self.clear_occupied();
        self.layout = layout;
        self.buckets.resize_with(n_cells, Vec::new);
        self.bucket_all(new_points);
        #[cfg(feature = "strict-invariants")]
        self.debug_validate();
        Ok(())
    }

    /// Occupancy-vs-position consistency: the buckets partition the
    /// node set, every node's recorded cell matches its position, and
    /// every node is listed in (exactly) its own bucket at its recorded
    /// slot, with its position stored there bitwise. `O(n)` — run after
    /// every commit under `strict-invariants`.
    #[cfg(feature = "strict-invariants")]
    fn debug_validate(&self) {
        let occupancy: usize = self.buckets.iter().map(Vec::len).sum();
        debug_assert_eq!(
            occupancy,
            self.points.len(),
            "strict-invariants: bucket occupancy lost or duplicated nodes"
        );
        debug_assert_eq!(self.node_cell.len(), self.points.len());
        debug_assert_eq!(self.node_slot.len(), self.points.len());
        for (i, p) in self.points.iter().enumerate() {
            let c = self.layout.cell_of(p);
            debug_assert_eq!(
                self.node_cell[i] as usize, c,
                "strict-invariants: node {i} recorded in the wrong cell"
            );
            debug_assert!(
                self.buckets[c].iter().filter(|e| e.0 == i as u32).count() == 1,
                "strict-invariants: node {i} not listed exactly once in its bucket"
            );
            let slot = self.node_slot[i] as usize;
            let entry = self.buckets[c].get(slot);
            debug_assert!(
                entry.is_some_and(|e| e.0 == i as u32),
                "strict-invariants: node {i} slot record points at the wrong occupant"
            );
            debug_assert!(
                entry.is_some_and(|e| e.1.coords().map(f64::to_bits) == p.coords().map(f64::to_bits)),
                "strict-invariants: stored position of node {i} desynced"
            );
        }
    }

    /// Visits every node in the `3^D` cells adjacent to (or containing)
    /// `p`, with its stored position — a superset of all nodes within
    /// [`MovingCellGrid::cell_width`] of `p`, including any node at `p`
    /// itself. Callers filter by exact distance; `p.distance_sq(q)` on
    /// the visited `q` is bitwise the distance to the node's current
    /// position.
    pub fn for_each_candidate<F: FnMut(u32, &Point<D>)>(&self, p: &Point<D>, mut f: F) {
        let base = self.layout.cell_coords(p);
        self.layout.for_each_neighbor_cell(&base, |cell| {
            for (j, q) in &self.buckets[cell] {
                f(*j, q);
            }
        });
    }

    /// Forward half-neighborhood scan over the whole lattice: emits
    /// every unordered node pair `(min, max)` with squared distance
    /// `<= r2` exactly once — intra-cell pairs once (`slot_a < slot_b`),
    /// cross-cell pairs once via the forward cell offsets
    /// (`CellLayout::for_each_forward_neighbor_cell`: first nonzero
    /// component `+1`) — and returns the number of candidate pairs
    /// *examined* (in range or not), which is
    /// [`MovingCellGrid::forward_pair_count`]. Distances are
    /// [`Point::distance_sq`] on the stored positions.
    ///
    /// Each non-empty base cell gathers its own occupants, then each
    /// forward cell's occupants, into one reused run; each base
    /// occupant then tests the contiguous tail of the run behind it.
    /// The emitted sequence is therefore: base cells in linear order;
    /// in each, base occupants by slot; for each, its partners in run
    /// order — the later base occupants by slot, then each forward
    /// cell's occupants by slot, forward cells in offset order. The
    /// range test has no data-dependent branch (every pair is written
    /// and the buffer's end advances by the outcome), and the survivors
    /// reach `emit` in batches: non-empty slices of at most 128 pairs
    /// each, whose concatenation is that sequence.
    ///
    /// # Panics
    ///
    /// Panics when `r2` exceeds the squared cell width on a lattice of
    /// more than one cell — in-range neighbors could then sit beyond
    /// adjacent cells and the scan would miss them. (A single cell
    /// holds every pair, so any radius is complete there; a requested
    /// cell size above `side` lands on it.) Size the cells with
    /// [`MovingCellGrid::lattice_cell_size`].
    ///
    /// # Example
    ///
    /// ```
    /// use manet_geom::{MovingCellGrid, Point};
    ///
    /// let pts = vec![
    ///     Point::new([0.5, 0.5]),
    ///     Point::new([1.0, 0.5]),
    ///     Point::new([9.0, 9.0]),
    /// ];
    /// let mut grid = MovingCellGrid::build(&pts, 10.0, 1.0)?;
    /// let mut pairs = Vec::new();
    /// let examined = grid.scan_forward_pairs(1.0, |batch| pairs.extend_from_slice(batch));
    /// assert_eq!(pairs, vec![(0, 1)]);
    /// assert_eq!(examined, grid.forward_pair_count());
    /// # Ok::<(), manet_geom::GeomError>(())
    /// ```
    pub fn scan_forward_pairs<F: FnMut(&[(u32, u32)])>(&mut self, r2: f64, mut emit: F) -> u64 {
        let w = self.layout.cell_width;
        assert!(
            self.layout.cells_per_side == 1 || r2 <= w * w * (1.0 + 1e-9),
            "squared radius {r2} exceeds the squared cell width {}",
            w * w
        );
        let MovingCellGrid {
            layout,
            buckets,
            run,
            ..
        } = self;
        let mut examined = 0u64;
        let mut out = [(0u32, 0u32); SCAN_BATCH];
        let mut kept = 0usize;
        // Odometer over the per-axis cell coordinates, kept in sync
        // with the row-major linear index.
        let mut base = [0usize; D];
        for bucket in buckets.iter() {
            if !bucket.is_empty() {
                run.clear();
                run.extend_from_slice(bucket);
                layout.for_each_forward_neighbor_cell(&base, |other| {
                    run.extend_from_slice(&buckets[other]);
                });
                let k = bucket.len() as u64;
                examined += k * (k - 1) / 2 + k * (run.len() as u64 - k);
                for (sa, &(a, pa)) in run[..bucket.len()].iter().enumerate() {
                    for chunk in run[sa + 1..].chunks(SCAN_BATCH) {
                        if kept + chunk.len() > SCAN_BATCH {
                            emit(&out[..kept]);
                            kept = 0;
                        }
                        for (b, pb) in chunk {
                            out[kept] = (a.min(*b), a.max(*b));
                            kept += usize::from(pa.distance_sq(pb) <= r2);
                        }
                    }
                }
            }
            // Advance the odometer (least-significant axis is D-1).
            for k in (1..D).rev() {
                base[k] += 1;
                if base[k] < layout.cells_per_side {
                    break;
                }
                base[k] = 0;
                if k == 1 {
                    base[0] += 1;
                }
            }
            if D == 1 {
                base[0] += 1;
            }
        }
        if kept > 0 {
            emit(&out[..kept]);
        }
        examined
    }

    /// The number of candidate pairs a full-lattice
    /// [`MovingCellGrid::scan_forward_pairs`] examines, from the bucket
    /// sizes alone: `O(cells · 3^D)`, no distance evaluated. Callers
    /// use it to price a scan before running it.
    pub fn forward_pair_count(&self) -> u64 {
        let cps = self.layout.cells_per_side;
        let mut total = 0u64;
        for (lin, bucket) in self.buckets.iter().enumerate() {
            let k = bucket.len() as u64;
            if k == 0 {
                continue;
            }
            total += k * (k - 1) / 2;
            let mut base = [0usize; D];
            let mut rest = lin;
            for c in base.iter_mut().rev() {
                *c = rest % cps;
                rest /= cps;
            }
            self.layout.for_each_forward_neighbor_cell(&base, |other| {
                total += k * self.buckets[other].len() as u64;
            });
        }
        total
    }
}

/// The most in-range pairs one [`MovingCellGrid::scan_forward_pairs`]
/// batch holds.
const SCAN_BATCH: usize = 128;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use rand::{RngExt, SeedableRng};

    fn candidates(grid: &MovingCellGrid<2>, p: &Point<2>) -> Vec<u32> {
        let mut out = Vec::new();
        grid.for_each_candidate(p, |j, _| out.push(j));
        out.sort_unstable();
        out
    }

    /// Commits one step the way the step kernel does: measure, then
    /// relocate the moved set. Returns the maximum squared displacement.
    fn commit<const D: usize>(
        grid: &mut MovingCellGrid<D>,
        pts: &[Point<D>],
        moved: &mut Vec<u32>,
    ) -> f64 {
        let max_d2 = grid.measure(pts, moved);
        grid.relocate(pts, moved);
        max_d2
    }

    #[test]
    fn build_validates() {
        let pts = [Point::new([0.5])];
        assert!(MovingCellGrid::build(&pts, 0.0, 1.0).is_err());
        assert!(MovingCellGrid::build(&pts, 1.0, -1.0).is_err());
        assert!(MovingCellGrid::build(&pts, f64::INFINITY, 1.0).is_err());
    }

    #[test]
    fn build_rejects_nan_side() {
        let pts = [Point::new([0.5])];
        assert!(MovingCellGrid::build(&pts, f64::NAN, 1.0).is_err());
        assert!(MovingCellGrid::build(&pts, 1.0, f64::NAN).is_err());
    }

    #[test]
    fn empty_grid() {
        let grid: MovingCellGrid<2> = MovingCellGrid::build(&[], 10.0, 1.0).unwrap();
        assert!(grid.is_empty());
        let mut moved = vec![7u32]; // must be cleared
        assert_eq!(commit(&mut grid.clone(), &[], &mut moved), 0.0);
        assert!(moved.is_empty());
    }

    #[test]
    fn empty_point_set_scans_no_pairs() {
        let mut grid: MovingCellGrid<2> = MovingCellGrid::build(&[], 10.0, 1.0).unwrap();
        assert!(grid.is_empty());
        let examined = grid.scan_forward_pairs(1.0, |_| panic!("an empty grid has no pairs"));
        assert_eq!(examined, 0);
    }

    /// All in-range pairs, each once as `(min, max)`, sorted.
    fn scanned_pairs<const D: usize>(grid: &mut MovingCellGrid<D>, r: f64) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        grid.scan_forward_pairs(r * r, |batch| out.extend_from_slice(batch));
        out.sort_unstable();
        out
    }

    /// The oracle: every pair with `distance_sq <= r·r`.
    fn brute_force_pairs<const D: usize>(pts: &[Point<D>], r: f64) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for i in 0..pts.len() {
            for j in (i + 1)..pts.len() {
                if pts[i].distance_sq(&pts[j]) <= r * r {
                    out.push((i as u32, j as u32));
                }
            }
        }
        out
    }

    #[test]
    fn cell_width_at_least_requested() {
        let grid = MovingCellGrid::build(&[Point::new([0.5, 0.5])], 10.0, 3.0).unwrap();
        assert!(grid.cell_width() >= 3.0);
        assert_eq!(grid.cells_per_side(), 3);
    }

    /// A cell size above the side collapses to one cell narrower than
    /// requested; that cell holds every pair, so the scan accepts the
    /// requested radius.
    #[test]
    fn tiny_region_single_cell() {
        let pts = [Point::new([0.1]), Point::new([0.9])];
        let mut grid = MovingCellGrid::build(&pts, 1.0, 5.0).unwrap();
        assert_eq!(grid.cells_per_side(), 1);
        assert_eq!(scanned_pairs(&mut grid, 5.0), vec![(0, 1)]);
    }

    /// Points on the far boundary (and outside the region) clamp into
    /// the last cell instead of indexing past the lattice.
    #[test]
    fn points_on_boundary_are_indexed() {
        let pts = vec![
            Point::new([0.0, 0.0]),
            Point::new([10.0, 10.0]),
            Point::new([10.5, 9.5]),
            Point::new([-0.5, 0.5]),
        ];
        let mut grid = MovingCellGrid::build(&pts, 10.0, 1.0).unwrap();
        assert_eq!(grid.len(), 4);
        assert_eq!(scanned_pairs(&mut grid, 1.0), brute_force_pairs(&pts, 1.0));
        assert_eq!(scanned_pairs(&mut grid, 1.0), vec![(0, 3), (1, 2)]);
    }

    #[test]
    fn squared_distance_reported() {
        let pts = vec![Point::new([0.0]), Point::new([0.6])];
        let grid = MovingCellGrid::build(&pts, 10.0, 1.0).unwrap();
        let mut seen = Vec::new();
        grid.for_each_candidate(&pts[0], |j, q| seen.push((j, pts[0].distance_sq(q))));
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[0], (0, 0.0));
        assert_eq!(seen[1].0, 1);
        assert!((seen[1].1 - 0.36).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "exceeds the squared cell width")]
    fn radius_larger_than_cell_panics() {
        let pts = [Point::new([0.5, 0.5]), Point::new([3.0, 3.0])];
        let mut grid = MovingCellGrid::build(&pts, 10.0, 1.0).unwrap();
        grid.scan_forward_pairs(25.0, |_| {});
    }

    /// A per-node query (candidates filtered by exact distance) agrees
    /// with the forward scan's pairs.
    #[test]
    fn candidate_query_matches_forward_pairs() {
        let pts = vec![
            Point::new([1.0, 1.0]),
            Point::new([1.5, 1.0]),
            Point::new([5.0, 5.0]),
            Point::new([1.0, 1.4]),
        ];
        let mut grid = MovingCellGrid::build(&pts, 10.0, 1.0).unwrap();
        let mut queried = Vec::new();
        for (i, p) in pts.iter().enumerate() {
            grid.for_each_candidate(p, |j, q| {
                if (j as usize) > i && p.distance_sq(q) <= 1.0 {
                    queried.push((i as u32, j));
                }
            });
        }
        queried.sort_unstable();
        assert_eq!(queried, vec![(0, 1), (0, 3), (1, 3)]);
        assert_eq!(queried, scanned_pairs(&mut grid, 1.0));
    }

    #[test]
    fn forward_scan_matches_brute_force_2d_trials() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        for trial in 0..20 {
            let n = 50 + trial;
            let pts: Vec<Point<2>> = (0..n)
                .map(|_| Point::new([rng.random_range(0.0..100.0), rng.random_range(0.0..100.0)]))
                .collect();
            let r = rng.random_range(2.0..15.0);
            let mut grid = MovingCellGrid::build(&pts, 100.0, r).unwrap();
            assert_eq!(
                scanned_pairs(&mut grid, r),
                brute_force_pairs(&pts, r),
                "trial {trial} r={r}"
            );
        }
    }

    /// The scan's odometer also walks 1-D and 3-D lattices completely.
    #[test]
    fn forward_scan_matches_brute_force_1d_and_3d() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let pts1: Vec<Point<1>> = (0..200)
            .map(|_| Point::new([rng.random_range(0.0..50.0)]))
            .collect();
        let mut grid1 = MovingCellGrid::build(&pts1, 50.0, 2.0).unwrap();
        assert_eq!(
            scanned_pairs(&mut grid1, 2.0),
            brute_force_pairs(&pts1, 2.0)
        );

        let pts3: Vec<Point<3>> = (0..100)
            .map(|_| {
                Point::new([
                    rng.random_range(0.0..20.0),
                    rng.random_range(0.0..20.0),
                    rng.random_range(0.0..20.0),
                ])
            })
            .collect();
        let mut grid3 = MovingCellGrid::build(&pts3, 20.0, 4.0).unwrap();
        assert_eq!(
            scanned_pairs(&mut grid3, 4.0),
            brute_force_pairs(&pts3, 4.0)
        );
    }

    /// The scan's price, read off the bucket sizes, is exactly what the
    /// scan then examines, in 1, 2 and 3 dimensions.
    #[test]
    fn forward_pair_count_prices_the_full_scan() {
        fn check<const D: usize>(rng: &mut rand::rngs::StdRng, n: usize, side: f64, cell: f64) {
            let pts: Vec<Point<D>> = (0..n)
                .map(|_| Point::new(std::array::from_fn(|_| rng.random_range(0.0..side))))
                .collect();
            let mut grid = MovingCellGrid::build(&pts, side, cell).unwrap();
            let examined = grid.scan_forward_pairs(cell * cell, |_| {});
            assert_eq!(grid.forward_pair_count(), examined, "D = {D}, cell {cell}");
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        for cell in [0.7, 3.0, 9.5, 60.0] {
            check::<1>(&mut rng, 150, 50.0, cell);
            check::<2>(&mut rng, 150, 50.0, cell);
            check::<3>(&mut rng, 150, 50.0, cell);
        }
    }

    /// The lattice floor caps a tiny radius at about `n` cells, yet the
    /// cells never shrink below the radius.
    #[test]
    fn lattice_cell_size_floors_the_cell_count() {
        type G2 = MovingCellGrid<2>;
        assert_eq!(G2::lattice_cell_size(400, 1e6, 1e-9).unwrap(), 1e6 / 20.0);
        assert_eq!(G2::lattice_cell_size(400, 1e6, 1e5).unwrap(), 1e5);
        assert_eq!(G2::lattice_cell_size(0, 8.0, 1.0).unwrap(), 8.0);
        assert_eq!(
            MovingCellGrid::<3>::lattice_cell_size(1000, 30.0, 0.5).unwrap(),
            3.0
        );
        for (side, radius) in [(0.0, 1.0), (1.0, 0.0), (1.0, -2.0), (f64::NAN, 1.0)] {
            assert!(G2::lattice_cell_size(10, side, radius).is_err());
        }
        assert!(G2::lattice_cell_size(10, 1.0, f64::NAN).is_err());
        let pts = vec![Point::new([0.0, 0.0]); 400];
        let cell = G2::lattice_cell_size(pts.len(), 1e6, 1e-9).unwrap();
        let grid = MovingCellGrid::build(&pts, 1e6, cell).unwrap();
        assert_eq!(grid.cells_per_side(), 20);
    }

    #[test]
    #[should_panic(expected = "node 0 has a non-finite coordinate")]
    fn rebuild_with_cell_size_rejects_nan_position() {
        let mut pts = [Point::new([0.5, 0.5])];
        let mut grid = MovingCellGrid::build(&pts, 10.0, 1.0).unwrap();
        pts[0] = Point::new([f64::NAN, f64::NAN]);
        let _ = grid.rebuild_with_cell_size(&pts, 10.0, 2.0);
    }

    /// Candidate completeness: after arbitrary updates, every pair
    /// within `cell_width` must be covered by some candidate scan.
    #[test]
    fn candidates_cover_all_in_range_pairs_under_updates() {
        let side = 50.0;
        let r = 4.0;
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let mut pts: Vec<Point<2>> = (0..40)
            .map(|_| Point::new([rng.random_range(0.0..side), rng.random_range(0.0..side)]))
            .collect();
        let mut grid = MovingCellGrid::build(&pts, side, r).unwrap();
        let mut moved = Vec::new();
        for step in 0..30 {
            for p in &mut pts {
                // Mix small moves with occasional teleports.
                *p = if rng.random_range(0.0..1.0) < 0.1 {
                    Point::new([rng.random_range(0.0..side), rng.random_range(0.0..side)])
                } else {
                    let q =
                        *p + Point::new([rng.random_range(-1.0..1.0), rng.random_range(-1.0..1.0)]);
                    Point::new([q.coord(0).clamp(0.0, side), q.coord(1).clamp(0.0, side)])
                };
            }
            commit(&mut grid, &pts, &mut moved);
            assert_eq!(grid.points(), &pts[..]);
            for i in 0..pts.len() {
                let cand = candidates(&grid, &pts[i]);
                for j in 0..pts.len() {
                    if pts[i].distance(&pts[j]) <= r {
                        assert!(
                            cand.binary_search(&(j as u32)).is_ok(),
                            "step {step}: candidate scan of {i} missed in-range node {j}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn update_reports_moved_set_and_max_displacement() {
        let mut pts = vec![
            Point::new([1.0, 1.0]),
            Point::new([5.0, 5.0]),
            Point::new([9.0, 9.0]),
        ];
        let mut grid = MovingCellGrid::build(&pts, 10.0, 1.0).unwrap();
        let mut moved = Vec::new();
        // Nothing moved.
        assert_eq!(commit(&mut grid, &pts.clone(), &mut moved), 0.0);
        assert!(moved.is_empty());
        // Node 1 moves by (3, 4): squared displacement 25.
        pts[1] = Point::new([8.0, 9.0]);
        let d2 = commit(&mut grid, &pts, &mut moved);
        assert_eq!(moved, vec![1]);
        assert!((d2 - 25.0).abs() < 1e-12);
    }

    #[test]
    fn relocation_preserves_stable_bucket_order() {
        // Three nodes share a cell; the middle one leaves and returns.
        let side = 30.0;
        let mut pts = vec![
            Point::new([1.0, 1.0]),
            Point::new([1.2, 1.2]),
            Point::new([1.4, 1.4]),
        ];
        let mut grid = MovingCellGrid::build(&pts, side, 3.0).unwrap();
        let mut moved = Vec::new();
        pts[1] = Point::new([20.0, 20.0]);
        commit(&mut grid, &pts, &mut moved);
        pts[1] = Point::new([1.2, 1.2]);
        commit(&mut grid, &pts, &mut moved);
        // 0 and 2 kept their relative order; 1 re-enters at the back.
        let mut seen = Vec::new();
        grid.for_each_candidate(&pts[0], |j, _| seen.push(j));
        assert_eq!(seen, vec![0, 2, 1]);
    }

    #[test]
    fn reset_restores_canonical_order_and_matches_update_positions() {
        let side = 30.0;
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let mut pts: Vec<Point<2>> = (0..20)
            .map(|_| Point::new([rng.random_range(0.0..side), rng.random_range(0.0..side)]))
            .collect();
        let mut grid = MovingCellGrid::build(&pts, side, 3.0).unwrap();
        let mut moved = Vec::new();
        for _ in 0..10 {
            for p in &mut pts {
                let q = *p + Point::new([rng.random_range(-2.0..2.0), rng.random_range(-2.0..2.0)]);
                *p = Point::new([q.coord(0).clamp(0.0, side), q.coord(1).clamp(0.0, side)]);
            }
            commit(&mut grid, &pts, &mut moved);
        }
        grid.reset(&pts);
        let fresh = MovingCellGrid::build(&pts, side, 3.0).unwrap();
        for p in &pts {
            assert_eq!(candidates(&grid, p), candidates(&fresh, p));
        }
        assert_eq!(grid.points(), fresh.points());
    }

    /// Re-bucketing a held grid at a fresh placement enumerates the
    /// same pairs, and examines the same candidates, as a fresh build.
    #[test]
    fn reset_matches_fresh_build_across_placements() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(515);
        let place = |rng: &mut rand::rngs::StdRng| -> Vec<Point<2>> {
            (0..60)
                .map(|_| Point::new([rng.random_range(0.0..100.0), rng.random_range(0.0..100.0)]))
                .collect()
        };
        let collect = |g: &mut MovingCellGrid<2>| {
            let mut v = Vec::new();
            let examined = g.scan_forward_pairs(25.0, |batch| v.extend_from_slice(batch));
            (v, examined)
        };
        let mut grid = MovingCellGrid::build(&place(&mut rng), 100.0, 5.0).unwrap();
        for trial in 0..12 {
            let pts = place(&mut rng);
            grid.reset(&pts);
            let mut fresh = MovingCellGrid::build(&pts, 100.0, 5.0).unwrap();
            assert_eq!(collect(&mut grid), collect(&mut fresh), "trial {trial}");
            assert_eq!(grid.points(), fresh.points());
            assert_eq!(grid.len(), 60);
        }
    }

    /// Widening (or narrowing) the cells mid-run re-buckets every node
    /// into the new layout — equivalent to a fresh build at the new
    /// cell size — while the commit metrics keep accumulating (the
    /// switch counts as one reset).
    #[test]
    fn rebuild_with_cell_size_matches_fresh_build_and_keeps_metrics() {
        let side = 40.0;
        let (mut grid, pts) = random_walk_grid(17, 50, side, 3.0);
        let before = *grid.metrics();
        assert!(before.relocations > 0);

        for cell in [9.0, 2.0] {
            grid.rebuild_with_cell_size(&pts, side, cell).unwrap();
            let fresh = MovingCellGrid::build(&pts, side, cell).unwrap();
            assert_eq!(grid.cells_per_side(), fresh.cells_per_side());
            assert_eq!(grid.cell_width(), fresh.cell_width());
            assert_eq!(grid.points(), fresh.points());
            for p in &pts {
                assert_eq!(candidates(&grid, p), candidates(&fresh, p));
            }
        }
        let after = *grid.metrics();
        assert_eq!(after.relocations, before.relocations, "history kept");
        assert_eq!(after.resets, before.resets + 2, "each switch is a reset");

        // Invalid layouts leave the grid untouched.
        assert!(grid.rebuild_with_cell_size(&pts, side, 0.0).is_err());
        assert!(grid.rebuild_with_cell_size(&pts, side, f64::NAN).is_err());
        assert_eq!(*grid.metrics(), after);
    }

    /// The strict-invariants checker must actually fire: a grid whose
    /// recorded cells no longer match the positions panics on the next
    /// commit.
    #[cfg(feature = "strict-invariants")]
    #[test]
    #[should_panic(expected = "strict-invariants")]
    fn strict_invariants_detects_stale_occupancy() {
        let pts = [Point::new([0.5, 0.5]), Point::new([9.5, 9.5])];
        let mut grid = MovingCellGrid::build(&pts, 10.0, 1.0).unwrap();
        grid.node_cell.swap(0, 1); // desync recorded cells from positions
        grid.relocate(&pts, &[]);
    }

    #[test]
    fn metrics_count_commits_crossings_and_resets() {
        let mut pts = vec![
            Point::new([0.5, 0.5]),
            Point::new([0.6, 0.6]),
            Point::new([9.5, 9.5]),
        ];
        let mut grid = MovingCellGrid::build(&pts, 10.0, 1.0).unwrap();
        assert_eq!(*grid.metrics(), GridMetrics::default());

        // Node 0 moves within its cell, node 2 crosses a boundary.
        pts[0] = Point::new([0.7, 0.7]);
        pts[2] = Point::new([5.5, 5.5]);
        let mut moved = Vec::new();
        commit(&mut grid, &pts, &mut moved);
        let m = *grid.metrics();
        assert_eq!(m.relocations, 1);
        assert_eq!(m.nodes_moved, 2);
        assert_eq!(m.boundary_crossings, 1);
        assert_eq!(m.cells_touched, 2);
        assert_eq!(m.resets, 0);

        // A reset touches each occupied bucket exactly once: nodes 0
        // and 1 share a cell, node 2 has its own.
        grid.reset(&pts);
        let m = *grid.metrics();
        assert_eq!(m.resets, 1);
        assert_eq!(m.cells_touched, 2 + 2);
        assert_eq!(m.relocations, 1, "reset is not a relocation");
    }

    #[test]
    #[should_panic(expected = "node count changed")]
    fn update_rejects_resized_point_set() {
        let pts = [Point::new([1.0, 1.0])];
        let mut grid = MovingCellGrid::build(&pts, 10.0, 1.0).unwrap();
        grid.relocate(&[], &[]);
    }

    fn random_walk_grid(
        seed: u64,
        n: usize,
        side: f64,
        r: f64,
    ) -> (MovingCellGrid<2>, Vec<Point<2>>) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut pts: Vec<Point<2>> = (0..n)
            .map(|_| Point::new([rng.random_range(0.0..side), rng.random_range(0.0..side)]))
            .collect();
        let mut grid = MovingCellGrid::build(&pts, side, r).unwrap();
        let mut moved = Vec::new();
        for _ in 0..12 {
            for p in &mut pts {
                let q = *p + Point::new([rng.random_range(-2.0..2.0), rng.random_range(-2.0..2.0)]);
                *p = Point::new([q.coord(0).clamp(0.0, side), q.coord(1).clamp(0.0, side)]);
            }
            commit(&mut grid, &pts, &mut moved);
        }
        (grid, pts)
    }

    /// The candidate query hands out each node's current position
    /// bitwise, so squared distances taken from it equal
    /// `Point::distance_sq` against the caller's positions bitwise.
    #[test]
    fn candidate_dist2_matches_point_distance_sq_bitwise() {
        let (grid, pts) = random_walk_grid(11, 50, 40.0, 3.0);
        for p in &pts {
            grid.for_each_candidate(p, |j, q| {
                assert_eq!(
                    p.distance_sq(q).to_bits(),
                    p.distance_sq(&pts[j as usize]).to_bits(),
                    "stored position of candidate {j} differs bitwise"
                );
            });
        }
    }

    /// The forward scan over the whole lattice finds exactly the
    /// brute-force in-range pairs, each once, and examines exactly the
    /// unordered same-or-adjacent-cell pairs.
    #[test]
    fn forward_scan_matches_brute_force_pairs() {
        let side = 40.0;
        let r = 3.0;
        let (mut grid, pts) = random_walk_grid(23, 60, side, r);
        let mut scanned = Vec::new();
        let examined = grid.scan_forward_pairs(r * r, |batch| scanned.extend_from_slice(batch));
        scanned.sort_unstable();
        assert_eq!(
            scanned,
            brute_force_pairs(&pts, r),
            "forward scan missed or duplicated a pair"
        );
        // Examined = unordered pairs sharing a same-or-adjacent cell:
        // cross-check against the full-neighborhood candidate scan,
        // which visits each such pair twice plus every node once.
        let mut visits = 0u64;
        for p in &pts {
            grid.for_each_candidate(p, |_, _| visits += 1);
        }
        assert_eq!(2 * examined + pts.len() as u64, visits);
    }

    /// Reference scan: one range test and one emitted pair per examined
    /// pair, with no gathered run — the specification of the batched
    /// scan's emitted *sequence*, not only its set. Per base cell in
    /// linear order, each occupant by slot meets the later occupants of
    /// its own cell by slot, then each forward cell's occupants by
    /// slot, forward cells in offset order.
    fn scan_forward_pairs_per_pair<const D: usize>(
        grid: &MovingCellGrid<D>,
        r2: f64,
        out: &mut Vec<(u32, u32)>,
    ) -> u64 {
        let cps = grid.layout.cells_per_side;
        let mut examined = 0u64;
        for (lin, bucket) in grid.buckets.iter().enumerate() {
            let mut base = [0usize; D];
            let mut rest = lin;
            for c in base.iter_mut().rev() {
                *c = rest % cps;
                rest /= cps;
            }
            let mut forward = Vec::new();
            grid.layout
                .for_each_forward_neighbor_cell(&base, |other| forward.push(other));
            for (sa, (a, pa)) in bucket.iter().enumerate() {
                let partners = bucket[sa + 1..]
                    .iter()
                    .chain(forward.iter().flat_map(|&other| &grid.buckets[other]));
                for (b, pb) in partners {
                    examined += 1;
                    if pa.distance_sq(pb) <= r2 {
                        out.push((*a.min(b), *a.max(b)));
                    }
                }
            }
        }
        examined
    }

    /// The batched scan emits exactly the per-pair reference's
    /// sequence, in non-empty batches of at most [`SCAN_BATCH`] pairs,
    /// and examines what [`MovingCellGrid::forward_pair_count`] prices.
    fn check_scan_sequence<const D: usize>(
        grid: &mut MovingCellGrid<D>,
        r2: f64,
        at: usize,
    ) -> Result<(), TestCaseError> {
        let mut want = Vec::new();
        let want_examined = scan_forward_pairs_per_pair(grid, r2, &mut want);
        let mut full = Vec::new();
        let mut batch_sizes = Vec::new();
        let examined = grid.scan_forward_pairs(r2, |batch| {
            batch_sizes.push(batch.len());
            full.extend_from_slice(batch);
        });
        prop_assert_eq!(&full, &want, "commit {}: emitted sequence", at);
        prop_assert_eq!(examined, want_examined, "commit {}: examined", at);
        prop_assert_eq!(examined, grid.forward_pair_count(), "commit {}: price", at);
        prop_assert!(
            batch_sizes.iter().all(|&k| (1..=SCAN_BATCH).contains(&k)),
            "commit {}: batch sizes {:?}",
            at,
            batch_sizes
        );
        Ok(())
    }

    /// Builds a grid over a uniform placement in `[0, 100]^D` and
    /// checks the scan's sequence after the build and after each of
    /// `commits` random steps: every node moves with probability
    /// `move_prob` (a jitter, or a teleport one time in ten), and the
    /// step commits by `measure` + `relocate` or by `reset`. With
    /// `widen > 1` the cells are built `widen` times wider than the
    /// range, as when the step kernel arms its Verlet cache.
    fn check_scan_sequence_history<const D: usize>(
        seed: u64,
        n: usize,
        r: f64,
        widen: f64,
        move_prob: f64,
        commits: usize,
    ) -> Result<(), TestCaseError> {
        let side = 100.0;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut pts: Vec<Point<D>> = (0..n)
            .map(|_| Point::new(std::array::from_fn(|_| rng.random_range(0.0..side))))
            .collect();
        let cell = MovingCellGrid::<D>::lattice_cell_size(n, side, r * widen).unwrap();
        let mut grid = MovingCellGrid::build(&pts, side, cell).unwrap();
        check_scan_sequence(&mut grid, r * r, 0)?;
        let mut moved = Vec::new();
        for k in 1..=commits {
            for p in &mut pts {
                if rng.random_range(0.0..1.0) >= move_prob {
                    continue;
                }
                *p = if rng.random_range(0.0..1.0) < 0.1 {
                    Point::new(std::array::from_fn(|_| rng.random_range(0.0..side)))
                } else {
                    Point::new(std::array::from_fn(|axis| {
                        (p.coord(axis) + rng.random_range(-5.0..5.0)).clamp(0.0, side)
                    }))
                };
            }
            if rng.random_range(0.0..1.0) < 0.5 {
                grid.reset(&pts);
            } else {
                commit(&mut grid, &pts, &mut moved);
            }
            check_scan_sequence(&mut grid, r * r, k)?;
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Ranges up to 60 in a side of 100 put up to all `n` nodes in
        /// one cell, so gathered runs routinely span several emission
        /// batches; `widen` stretches the cells past the range, as the
        /// Verlet cache does. Every scan's `examined` must equal
        /// `forward_pair_count()` in 1-D, 2-D and 3-D.
        #[test]
        fn batched_scan_emits_the_per_pair_sequence(
            seed in any::<u64>(),
            n in 1usize..300,
            r in 0.5..60.0,
            widen in 1.0..2.5,
            dim in 1usize..=3,
            move_prob in 0.0..=1.0,
            commits in 0usize..5,
        ) {
            match dim {
                1 => check_scan_sequence_history::<1>(seed, n, r, widen, move_prob, commits)?,
                2 => check_scan_sequence_history::<2>(seed, n, r, widen, move_prob, commits)?,
                _ => check_scan_sequence_history::<3>(seed, n, r, widen, move_prob, commits)?,
            }
        }
    }

    /// One crowded cell pins every batch boundary: 400 occupants give
    /// tails longer than a batch, and each batch mixes in-range and
    /// out-of-range partners.
    #[test]
    fn batched_scan_crosses_chunk_boundaries() {
        let pts: Vec<Point<2>> = (0..400)
            .map(|i| Point::new([0.0025 * i as f64, 0.5 + 0.25 * (i % 3) as f64]))
            .collect();
        let mut grid = MovingCellGrid::build(&pts, 10.0, 2.0).unwrap();
        assert_eq!(grid.buckets[0].len(), 400, "every node shares one cell");
        for r in [0.1, 0.3, 1.5] {
            check_scan_sequence(&mut grid, r * r, 0).unwrap();
        }
        let mut want = Vec::new();
        scan_forward_pairs_per_pair(&grid, 0.3 * 0.3, &mut want);
        assert!(want.len() > 3 * SCAN_BATCH && want.len() < 400 * 399 / 2);
    }

    /// A stored position out of step with the authoritative `points`
    /// must be caught on the next commit.
    #[cfg(feature = "strict-invariants")]
    #[test]
    #[should_panic(expected = "strict-invariants")]
    fn strict_invariants_detects_corrupt_stored_position() {
        let pts = [Point::new([0.5, 0.5]), Point::new([9.5, 9.5])];
        let mut grid = MovingCellGrid::build(&pts, 10.0, 1.0).unwrap();
        let c = grid.node_cell[0] as usize;
        grid.buckets[c][0].1 = Point::new([0.75, 0.5]); // silent drift
        grid.relocate(&pts, &[]);
    }

    /// A stale slot record (node claims the wrong bucket position)
    /// must be caught on the next commit.
    #[cfg(feature = "strict-invariants")]
    #[test]
    #[should_panic(expected = "strict-invariants")]
    fn strict_invariants_detects_stale_slot_record() {
        let pts = [Point::new([0.5, 0.5]), Point::new([0.6, 0.6])];
        let mut grid = MovingCellGrid::build(&pts, 10.0, 1.0).unwrap();
        grid.node_slot.swap(0, 1); // both nodes share a bucket; slots lie
        grid.relocate(&pts, &[]);
    }
}
