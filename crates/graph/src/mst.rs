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

use manet_geom::Point;

/// One edge of a minimum spanning tree.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct MstEdge {
    /// First endpoint (index into the input point slice).
    pub a: u32,
    /// Second endpoint.
    pub b: u32,
    /// Euclidean length of the edge.
    pub length: f64,
}

/// Computes the Euclidean MST with dense Prim in `O(n²)` time and
/// `O(n)` memory — optimal for the complete geometric graph, where
/// just enumerating candidate edges already costs `n²/2` distance
/// evaluations.
///
/// Returns `n - 1` edges for `n >= 1` points (empty for `n <= 1`).
/// Edges are returned in the order Prim adds them; lengths are exact
/// Euclidean distances.
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
    for (i, p) in points.iter().enumerate() {
        assert!(
            p.is_finite(),
            "minimum_spanning_tree: node {i} has a non-finite coordinate {:?}",
            p.coords()
        );
    }
    let n = points.len();
    if n <= 1 {
        return Vec::new();
    }
    let mut in_tree = vec![false; n];
    let mut best_d2 = vec![f64::INFINITY; n];
    let mut best_parent = vec![0u32; n];
    let mut edges = Vec::with_capacity(n - 1);

    let mut current = 0usize;
    in_tree[0] = true;
    for _ in 1..n {
        // Relax distances against the vertex just added, then pick the
        // closest non-tree vertex.
        let p = points[current];
        let mut next = usize::MAX;
        let mut next_d2 = f64::INFINITY;
        for j in 0..n {
            if in_tree[j] {
                continue;
            }
            let d2 = p.distance_sq(&points[j]);
            if d2 < best_d2[j] {
                best_d2[j] = d2;
                best_parent[j] = current as u32;
            }
            if best_d2[j] < next_d2 {
                next_d2 = best_d2[j];
                next = j;
            }
        }
        debug_assert!(next != usize::MAX);
        in_tree[next] = true;
        edges.push(MstEdge {
            a: best_parent[next],
            b: next as u32,
            length: next_d2.sqrt(),
        });
        current = next;
    }
    edges
}

/// The critical transmitting range of a placement: the longest MST
/// edge, i.e. the minimum common range `r` making the communication
/// graph connected.
///
/// Returns `0.0` for fewer than two points (a single node is trivially
/// connected).
///
/// # Example
///
/// ```
/// use manet_geom::Point;
/// use manet_graph::critical_range;
///
/// // Nodes at 0, 1 and 4: the MST edges are 1 and 3, so r = 3 connects.
/// let pts = vec![Point::new([0.0]), Point::new([1.0]), Point::new([4.0])];
/// assert_eq!(critical_range(&pts), 3.0);
/// ```
pub fn critical_range<const D: usize>(points: &[Point<D>]) -> f64 {
    minimum_spanning_tree(points)
        .iter()
        .map(|e| e.length)
        .fold(0.0, f64::max)
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
            // `ctr` is a square root; squaring it back inside the range
            // test can round one ulp below the original squared
            // distance, so probe a hair above and below.
            let at = AdjacencyList::from_points_brute_force(&pts, ctr * (1.0 + 1e-12));
            let below = AdjacencyList::from_points_brute_force(&pts, ctr * (1.0 - 1e-9));
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
}
