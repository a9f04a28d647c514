//! Point-graph construction and adjacency queries.
//!
//! The grid-accelerated build runs on the workspace's one spatial
//! index, [`MovingCellGrid`]: one build at the lattice rule's cell
//! size, one forward half-neighborhood scan into packed pairs, and the
//! same counting sort and row fill the step kernel's bulk rescan uses.

use manet_geom::{GeomError, MovingCellGrid, Point};

/// Packs a canonical pair (`a < b`) into one `u64` whose natural order
/// is the lexicographic `(a, b)` order — the grid builds sort and merge
/// flat `u64` lists instead of per-row neighbor lists.
#[inline]
pub(crate) fn pack_pair(a: u32, b: u32) -> u64 {
    ((a as u64) << 32) | b as u64
}

/// Inverse of [`pack_pair`].
#[inline]
pub(crate) fn unpack_pair(p: u64) -> (u32, u32) {
    ((p >> 32) as u32, p as u32)
}

/// Reusable buffers for [`sort_packed_pairs`] — the scatter target
/// and the two per-node bucket arrays — kept across calls so the step
/// kernel's per-step sorts allocate nothing after warm-up.
#[derive(Debug, Clone, Default)]
pub(crate) struct PairSortScratch {
    buf: Vec<u64>,
    counts: Vec<usize>,
}

/// Sorts packed pairs over nodes `0..n` into lex `(a, b)` order in
/// `O(len + n)`: two stable counting passes, by the low word `b`, then
/// by the high word `a`, each over an `n + 1` bucket array. Packed
/// pairs are unique, so the result equals `sort_unstable`'s — a
/// function of the pair *set* alone, whatever order it arrived in.
///
/// # Panics
///
/// Panics when an endpoint is `>= n`.
pub(crate) fn sort_packed_pairs(pairs: &mut [u64], n: usize, scratch: &mut PairSortScratch) {
    if pairs.len() < 2 {
        return;
    }
    let PairSortScratch { buf, counts } = scratch;
    counts.clear();
    counts.resize(2 * (n + 1), 0);
    let (by_b, by_a) = counts.split_at_mut(n + 1);
    // One read fills both histograms, shifted one slot up so the
    // prefix sums below leave each bucket's start at its own index.
    for &p in pairs.iter() {
        let (a, b) = unpack_pair(p);
        by_b[b as usize + 1] += 1;
        by_a[a as usize + 1] += 1;
    }
    for i in 0..n {
        by_b[i + 1] += by_b[i];
        by_a[i + 1] += by_a[i];
    }
    buf.clear();
    buf.resize(pairs.len(), 0);
    for &p in pairs.iter() {
        let slot = &mut by_b[p as u32 as usize];
        buf[*slot] = p;
        *slot += 1;
    }
    for &p in buf.iter() {
        let slot = &mut by_a[(p >> 32) as usize];
        pairs[*slot] = p;
        *slot += 1;
    }
}

/// Replaces `pairs` with every pair of `grid` within squared distance
/// `r2`, packed, in the scan's emission order; returns the pairs
/// examined.
pub(crate) fn scan_packed_pairs<const D: usize>(
    grid: &mut MovingCellGrid<D>,
    r2: f64,
    pairs: &mut Vec<u64>,
) -> u64 {
    pairs.clear();
    grid.scan_forward_pairs(r2, |batch| {
        pairs.extend(batch.iter().map(|&(a, b)| pack_pair(a, b)));
    })
}

/// Refills `rows` with `n` neighbor rows holding the lex-sorted packed
/// pairs, reusing every row's capacity. The rows come out sorted: for
/// row `x`, every lower partner `a` (from pairs `(a, x)`, keys
/// `a·2³² + x`) is pushed before — and ascending among — every higher
/// partner `b` (from pairs `(x, b)`, keys `x·2³² + b`).
pub(crate) fn fill_sorted_rows(rows: &mut Vec<Vec<u32>>, n: usize, pairs: &[u64]) {
    debug_assert!(
        pairs.windows(2).all(|w| w[0] < w[1]),
        "unsorted packed edge list"
    );
    rows.resize_with(n, Vec::new);
    for row in rows.iter_mut() {
        row.clear();
    }
    for &packed in pairs {
        let (a, b) = unpack_pair(packed);
        rows[a as usize].push(b);
        rows[b as usize].push(a);
    }
}

/// Undirected graph stored as per-node neighbor lists.
///
/// Construction from a point set and a transmitting range builds the
/// paper's communication graph: `(u, v)` is an edge iff
/// `dist(u, v) <= r`. Two construction paths exist — grid-accelerated
/// (expected `O(n + E)`) and brute force (`O(n²)`) — which property
/// tests hold to produce identical graphs.
///
/// # Example
///
/// ```
/// use manet_geom::Point;
/// use manet_graph::AdjacencyList;
///
/// let pts = vec![
///     Point::new([0.0]),
///     Point::new([1.0]),
///     Point::new([5.0]),
/// ];
/// let g = AdjacencyList::from_points_brute_force(&pts, 1.0);
/// assert_eq!(g.degree(0), 1);
/// assert_eq!(g.degree(2), 0);
/// assert_eq!(g.isolated_nodes(), vec![2]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct AdjacencyList {
    neighbors: Vec<Vec<u32>>,
    edge_count: usize,
}

impl AdjacencyList {
    /// Creates an edgeless graph on `n` nodes.
    pub fn empty(n: usize) -> Self {
        AdjacencyList {
            neighbors: vec![Vec::new(); n],
            edge_count: 0,
        }
    }

    /// Builds the communication graph by checking all `O(n²)` pairs.
    ///
    /// Exact and dependency-free; preferred for the small `n` of the
    /// paper's experiments (`n <= 128`) where it also tends to beat the
    /// grid on constant factors.
    pub fn from_points_brute_force<const D: usize>(points: &[Point<D>], range: f64) -> Self {
        let n = points.len();
        let mut g = AdjacencyList::empty(n);
        let r2 = range * range;
        for i in 0..n {
            for j in (i + 1)..n {
                if points[i].distance_sq(&points[j]) <= r2 {
                    g.add_edge(i, j);
                }
            }
        }
        g
    }

    /// Builds the communication graph, choosing between the brute-force
    /// and grid-accelerated paths automatically.
    ///
    /// The brute-force path wins on constant factors for small point
    /// sets (no bucketing, no sort, a tight pair loop), while the grid
    /// pays off only when the range is small relative to the side —
    /// each 3^D-cell neighborhood then holds a small fraction of all
    /// nodes — *and* `n` is large enough to amortize index
    /// construction. Measured on uniform 2-D placements (see the
    /// `traces` bench), the grid starts winning around `n ≈ 200` once
    /// `side >= 14·range` (candidate fraction `9(r/side)² ≲ 5%`), and
    /// never wins below that cell count regardless of `n`; hence the
    /// crossover: grid iff `n > `[`Self::GRID_CROSSOVER`]` && side >=
    /// 14·range`.
    ///
    /// The `kernels` bench's `graph_build` rows at `side = 1024`,
    /// `r = 54` (`side/r ≈ 19`), medians of 8 runs on a 2-vCPU Intel
    /// Xeon: the grid is level with brute force at `n = 192`, 1.9×
    /// ahead at `n = 400` and 3.4× ahead at `n = 2000`. The measured
    /// crossover therefore lies at or just below
    /// [`Self::GRID_CROSSOVER`].
    ///
    /// Degenerate inputs (non-positive or non-finite `side`/`range`)
    /// never error: they fall back to brute force, which treats the
    /// range check exactly (`NaN` compares false, so a `NaN` range
    /// yields an edgeless graph).
    pub fn from_points<const D: usize>(points: &[Point<D>], side: f64, range: f64) -> Self {
        let grid_pays = side.is_finite()
            && range.is_finite()
            && range > 0.0
            && side > 0.0
            && side >= 14.0 * range;
        if points.len() <= Self::GRID_CROSSOVER || !grid_pays {
            return Self::from_points_brute_force(points, range);
        }
        Self::from_points_grid(points, side, range)
            .unwrap_or_else(|_| Self::from_points_brute_force(points, range))
    }

    /// Node count up to which [`AdjacencyList::from_points`] always
    /// prefers the brute-force construction.
    pub const GRID_CROSSOVER: usize = 192;

    /// Builds the communication graph with a [`MovingCellGrid`] index
    /// over `[0, side]^D`, its cells sized by
    /// [`MovingCellGrid::lattice_cell_size`] (so a tiny `range` costs
    /// about `n` cells, never `(side/range)^D`).
    ///
    /// # Errors
    ///
    /// Propagates [`GeomError`] from grid construction (non-positive
    /// `side`/`range`, non-finite values).
    ///
    /// # Panics
    ///
    /// Panics when a point has a non-finite coordinate.
    pub fn from_points_grid<const D: usize>(
        points: &[Point<D>],
        side: f64,
        range: f64,
    ) -> Result<Self, GeomError> {
        let cell_size = MovingCellGrid::<D>::lattice_cell_size(points.len(), side, range)?;
        let mut grid = MovingCellGrid::build(points, side, cell_size)?;
        Ok(Self::from_grid(&mut grid, range))
    }

    /// The graph at `range` over `grid`'s current positions (cells at
    /// least `range` wide): one forward scan into packed pairs, one
    /// counting sort, one row fill.
    pub(crate) fn from_grid<const D: usize>(grid: &mut MovingCellGrid<D>, range: f64) -> Self {
        let n = grid.len();
        let mut pairs = Vec::new();
        scan_packed_pairs(grid, range * range, &mut pairs);
        sort_packed_pairs(&mut pairs, n, &mut PairSortScratch::default());
        let mut neighbors = Vec::new();
        fill_sorted_rows(&mut neighbors, n, &pairs);
        AdjacencyList {
            neighbors,
            edge_count: pairs.len(),
        }
    }

    /// Adds the undirected edge `(a, b)`.
    ///
    /// # Panics
    ///
    /// Panics when `a == b` (self loops are meaningless in a point
    /// graph) or when an endpoint is out of range.
    pub fn add_edge(&mut self, a: usize, b: usize) {
        assert_ne!(a, b, "self loops are not allowed");
        assert!(
            a < self.len() && b < self.len(),
            "edge endpoint out of range"
        );
        self.neighbors[a].push(b as u32);
        self.neighbors[b].push(a as u32);
        self.edge_count += 1;
    }

    /// Removes every edge, keeping each row's capacity for a rebuild.
    pub(crate) fn clear_edges(&mut self) {
        self.neighbors.iter_mut().for_each(Vec::clear);
        self.edge_count = 0;
    }

    /// Inserts the undirected edge `(a, b)` keeping both neighbor
    /// lists sorted — the in-place maintenance path of the incremental
    /// step kernel. Reuses list capacity; `O(deg)` per endpoint.
    pub(crate) fn insert_edge_sorted(&mut self, a: usize, b: usize) {
        debug_assert_ne!(a, b, "self loops are not allowed");
        for (x, y) in [(a, b), (b, a)] {
            let list = &mut self.neighbors[x];
            #[expect(
                clippy::expect_used,
                reason = "the step kernel inserts only edges that its diff reports as new"
            )]
            let pos = list
                .binary_search(&(y as u32))
                .expect_err("edge already present");
            list.insert(pos, y as u32);
        }
        self.edge_count += 1;
    }

    /// Removes the undirected edge `(a, b)` from both sorted neighbor
    /// lists; `O(deg)` per endpoint.
    pub(crate) fn remove_edge_sorted(&mut self, a: usize, b: usize) {
        for (x, y) in [(a, b), (b, a)] {
            let list = &mut self.neighbors[x];
            #[expect(
                clippy::expect_used,
                reason = "undirected symmetry invariant of the representation"
            )]
            let pos = list
                .binary_search(&(y as u32))
                .expect("edge present in both lists");
            list.remove(pos);
        }
        self.edge_count -= 1;
    }

    /// Swaps in a fully rebuilt set of (sorted) neighbor rows with its
    /// edge count — the bulk-rescan path of the step kernel, which
    /// assembles the next snapshot into persistent scratch rows and
    /// exchanges them wholesale so the displaced rows' capacity is
    /// reused on the following rescan.
    ///
    /// # Panics
    ///
    /// Panics when the row count differs from the node count.
    pub(crate) fn swap_neighbor_rows(&mut self, rows: &mut Vec<Vec<u32>>, edge_count: usize) {
        assert_eq!(rows.len(), self.neighbors.len(), "row count must match");
        core::mem::swap(&mut self.neighbors, rows);
        self.edge_count = edge_count;
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.neighbors.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.neighbors.is_empty()
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Neighbors of node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn neighbors(&self, i: usize) -> &[u32] {
        &self.neighbors[i]
    }

    /// Degree of node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn degree(&self, i: usize) -> usize {
        self.neighbors[i].len()
    }

    /// Nodes with no neighbors. The existence of an isolated node is
    /// the disconnection witness used by the earlier lower-bound
    /// analysis the paper improves upon (reference \[11\] there).
    pub fn isolated_nodes(&self) -> Vec<usize> {
        self.neighbors
            .iter()
            .enumerate()
            .filter(|(_, l)| l.is_empty())
            .map(|(i, _)| i)
            .collect()
    }

    /// Minimum degree over all nodes (`None` for the empty graph).
    pub fn min_degree(&self) -> Option<usize> {
        self.neighbors.iter().map(|l| l.len()).min()
    }

    /// Iterates over all undirected edges as `(a, b)` with `a < b`.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.neighbors.iter().enumerate().flat_map(|(a, list)| {
            list.iter()
                .filter(move |&&b| (b as usize) > a)
                .map(move |&b| (a, b as usize))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{RngExt, SeedableRng};

    /// Up to `count` distinct random pairs `a < b < n`, plus (for
    /// `n >= 2`) a few that touch the top node `n − 1`, shuffled.
    fn shuffled_unique_pairs(n: usize, count: usize, seed: u64) -> Vec<u64> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut set = std::collections::BTreeSet::new();
        if n >= 2 {
            let top = n as u32 - 1;
            for _ in 0..count {
                let a = rng.random_range(0..top);
                let b = rng.random_range(a + 1..=top);
                set.insert(pack_pair(a, b));
            }
            set.insert(pack_pair(0, top));
            set.insert(pack_pair(top - 1, top));
            set.insert(pack_pair(rng.random_range(0..top), top));
        }
        let mut pairs: Vec<u64> = set.into_iter().collect();
        for i in (1..pairs.len()).rev() {
            pairs.swap(i, rng.random_range(0..=i));
        }
        pairs
    }

    proptest! {
        #[test]
        fn counting_sort_equals_sort_unstable(
            n in 1usize..=5000,
            count in 0usize..3000,
            seed in any::<u64>(),
        ) {
            let mut pairs = shuffled_unique_pairs(n, count, seed);
            let mut want = pairs.clone();
            want.sort_unstable();
            let mut scratch = PairSortScratch::default();
            sort_packed_pairs(&mut pairs, n, &mut scratch);
            prop_assert_eq!(&pairs, &want);
            // Reused scratch from a larger sort leaves no residue.
            let mut again = shuffled_unique_pairs(n, count / 2, seed ^ 1);
            let mut want = again.clone();
            want.sort_unstable();
            sort_packed_pairs(&mut again, n, &mut scratch);
            prop_assert_eq!(again, want);
        }
    }

    #[test]
    fn counting_sort_edge_cases() {
        let mut scratch = PairSortScratch::default();
        let mut empty: Vec<u64> = Vec::new();
        sort_packed_pairs(&mut empty, 0, &mut scratch);
        assert!(empty.is_empty());
        let mut one = vec![pack_pair(3, 4)];
        sort_packed_pairs(&mut one, 5, &mut scratch);
        assert_eq!(one, vec![pack_pair(3, 4)]);
        let mut desc: Vec<u64> = (0..4u32)
            .flat_map(|a| (a + 1..5).map(move |b| pack_pair(a, b)))
            .rev()
            .collect();
        let mut want = desc.clone();
        want.sort_unstable();
        sort_packed_pairs(&mut desc, 5, &mut scratch);
        assert_eq!(desc, want);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn counting_sort_rejects_an_endpoint_beyond_n() {
        let mut pairs = vec![pack_pair(0, 1), pack_pair(1, 5)];
        sort_packed_pairs(&mut pairs, 5, &mut PairSortScratch::default());
    }

    #[test]
    fn empty_graph() {
        let g = AdjacencyList::empty(3);
        assert_eq!(g.len(), 3);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.isolated_nodes(), vec![0, 1, 2]);
        assert_eq!(g.min_degree(), Some(0));
    }

    #[test]
    fn zero_node_graph() {
        let g = AdjacencyList::empty(0);
        assert!(g.is_empty());
        assert_eq!(g.min_degree(), None);
    }

    #[test]
    fn brute_force_builds_expected_edges() {
        let pts = vec![Point::new([0.0]), Point::new([1.0]), Point::new([2.1])];
        let g = AdjacencyList::from_points_brute_force(&pts, 1.1);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert!(g.isolated_nodes().is_empty());
    }

    #[test]
    fn range_is_inclusive() {
        let pts = vec![Point::new([0.0]), Point::new([1.0])];
        let g = AdjacencyList::from_points_brute_force(&pts, 1.0);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn grid_and_brute_force_agree() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4242);
        for _ in 0..10 {
            let pts: Vec<Point<2>> = (0..80)
                .map(|_| Point::new([rng.random_range(0.0..64.0), rng.random_range(0.0..64.0)]))
                .collect();
            let r = rng.random_range(1.0..12.0);
            let brute = AdjacencyList::from_points_brute_force(&pts, r);
            let grid = AdjacencyList::from_points_grid(&pts, 64.0, r).unwrap();
            assert_eq!(brute, grid);
        }
    }

    #[test]
    fn from_points_agrees_with_both_paths_across_crossover() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1717);
        // Straddle GRID_CROSSOVER so both branches are exercised
        // (side = 200, r < 200/14: the grid branch is eligible).
        for n in [8usize, 160, 193, 400] {
            let pts: Vec<Point<2>> = (0..n)
                .map(|_| Point::new([rng.random_range(0.0..200.0), rng.random_range(0.0..200.0)]))
                .collect();
            let r = rng.random_range(5.0..13.0);
            let auto = AdjacencyList::from_points(&pts, 200.0, r);
            let brute = AdjacencyList::from_points_brute_force(&pts, r);
            assert_eq!(auto, brute, "n={n} r={r}");
        }
    }

    /// A range tiny against the side once sized the grid at
    /// `(side/range)^D` cells (a 4 TB allocation at `r = 1`, a capacity
    /// overflow at `r = 1e-9`); the lattice rule floors it at ~n cells.
    #[test]
    fn tiny_range_in_huge_region_matches_brute_force() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(256);
        let side = 1e6;
        let pts: Vec<Point<2>> = (0..400)
            .map(|_| Point::new([rng.random_range(0.0..side), rng.random_range(0.0..side)]))
            .collect();
        // Two coincident pairs and one pair exactly 1.0 apart give the
        // tiny ranges edges to find.
        let mut pts = pts;
        pts[1] = pts[0];
        pts[3] = pts[2];
        pts[4] = Point::new([1000.0, 2000.0]);
        pts[5] = Point::new([1001.0, 2000.0]);
        for r in [1.0, 1e-9] {
            let brute = AdjacencyList::from_points_brute_force(&pts, r);
            assert_eq!(AdjacencyList::from_points(&pts, side, r), brute, "r={r}");
            assert_eq!(
                AdjacencyList::from_points_grid(&pts, side, r).unwrap(),
                brute,
                "r={r}"
            );
        }
        assert!(AdjacencyList::from_points(&pts, side, 1.0).edge_count() >= 3);
    }

    /// Exact ties: an integer lattice at integer spacing puts hundreds
    /// of pairs at exactly `d == r`, with `r·r` exact. The grid branch
    /// of `from_points` (n > GRID_CROSSOVER) keeps every one, like the
    /// brute-force `d² <= r·r` oracle.
    #[test]
    fn grid_branch_keeps_exact_ties() {
        let pts: Vec<Point<2>> = (0..16)
            .flat_map(|x| (0..16).map(move |y| Point::new([3.0 * x as f64, 4.0 * y as f64])))
            .collect();
        assert!(pts.len() > AdjacencyList::GRID_CROSSOVER);
        let side = 1024.0;
        for r in [3.0, 4.0, 5.0] {
            assert!(side >= 14.0 * r, "the grid branch is eligible");
            let brute = AdjacencyList::from_points_brute_force(&pts, r);
            assert!(brute.edge_count() >= 240, "r={r}: ties present");
            assert_eq!(AdjacencyList::from_points(&pts, side, r), brute, "r={r}");
        }
    }

    #[test]
    #[should_panic(expected = "node 7 has a non-finite coordinate")]
    fn grid_build_rejects_nan_position() {
        let mut pts: Vec<Point<2>> = (0..10).map(|i| Point::new([i as f64, 0.0])).collect();
        pts[7] = Point::new([f64::NAN, 0.0]);
        let _ = AdjacencyList::from_points_grid(&pts, 100.0, 1.0);
    }

    #[test]
    fn from_points_degenerate_inputs_fall_back_to_brute_force() {
        let pts = vec![Point::new([0.0]), Point::new([1.0])];
        // Non-finite side: grid would error; brute force still exact.
        let g = AdjacencyList::from_points(&pts, f64::NAN, 1.0);
        assert_eq!(g.edge_count(), 1);
        // Huge range relative to the side: single-cell grid territory.
        let g = AdjacencyList::from_points(&pts, 2.0, 10.0);
        assert_eq!(g.edge_count(), 1);
        // NaN range: exact comparison yields no edges, no panic.
        let g = AdjacencyList::from_points(&pts, 2.0, f64::NAN);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn edges_iterator_matches_edge_count() {
        let pts = vec![
            Point::new([0.0, 0.0]),
            Point::new([1.0, 0.0]),
            Point::new([0.0, 1.0]),
        ];
        let g = AdjacencyList::from_points_brute_force(&pts, 1.2);
        let listed: Vec<_> = g.edges().collect();
        assert_eq!(listed.len(), g.edge_count());
        assert!(listed.contains(&(0, 1)));
        assert!(listed.contains(&(0, 2)));
    }

    #[test]
    #[should_panic(expected = "self loops")]
    fn self_loop_panics() {
        let mut g = AdjacencyList::empty(2);
        g.add_edge(1, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_endpoint_panics() {
        let mut g = AdjacencyList::empty(2);
        g.add_edge(0, 5);
    }

    #[test]
    #[should_panic(expected = "edge already present")]
    fn inserting_a_present_edge_panics() {
        let mut g = AdjacencyList::empty(3);
        g.insert_edge_sorted(0, 2);
        g.insert_edge_sorted(2, 0);
    }
}
