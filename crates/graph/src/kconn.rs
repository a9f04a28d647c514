//! Vertex connectivity (Menger) via unit-capacity max-flow.
//!
//! The paper evaluates simple (1-)connectivity. As a dependability
//! extension, this module computes the **vertex connectivity** `κ(G)`:
//! the minimum number of node failures that can disconnect the network.
//! `κ >= 2` means no single sensor failure partitions the network — a
//! natural hardening target for the safety-critical scenario the paper
//! motivates with `r100`.
//!
//! The implementation is the classical reduction to max-flow with node
//! splitting: each vertex `v` becomes `v_in -> v_out` with capacity 1,
//! each undirected edge becomes two directed unit edges, and the
//! number of vertex-disjoint `s`–`t` paths equals the max flow.
//! Designed for the modest `n` of ad hoc simulations (hundreds), not
//! for massive graphs. `k = 2` skips the flows: a graph on at least
//! three nodes is 2-connected exactly when it is connected and has no
//! articulation point, one `O(n + E)` depth-first search.
//!
//! [`critical_range_k`] turns the threshold test into one placement's
//! exact k-connectivity threshold, the `k >= 2` analogue of
//! [`crate::critical_range`].

use crate::adjacency::AdjacencyList;
use manet_geom::{covering_range, Point};

/// Maximum number of internally vertex-disjoint paths between two
/// distinct, **non-adjacent** vertices, computed by augmenting BFS
/// paths one unit at a time (Edmonds–Karp on the split graph).
///
/// When `stop_at` is `Some(k)`, the search stops early once `k` paths
/// are found — sufficient for threshold queries like
/// [`is_k_connected`].
///
/// # Panics
///
/// Panics if `s == t`, if either index is out of range, or if `s` and
/// `t` are adjacent (Menger's theorem for vertex cuts is stated for
/// non-adjacent pairs; the direct edge admits no vertex cut).
pub fn disjoint_paths(graph: &AdjacencyList, s: usize, t: usize, stop_at: Option<usize>) -> usize {
    assert!(s < graph.len() && t < graph.len(), "endpoint out of range");
    assert_ne!(s, t, "endpoints must differ");
    assert!(
        !graph.neighbors(s).contains(&(t as u32)),
        "disjoint_paths requires non-adjacent endpoints"
    );

    let n = graph.len();
    // Split graph: node v -> in(v) = 2v, out(v) = 2v + 1.
    let mut flow = FlowNetwork::new(2 * n);
    for v in 0..n {
        // Internal capacity 1, unbounded for the terminals.
        let cap = if v == s || v == t { u32::MAX } else { 1 };
        flow.add_edge(2 * v, 2 * v + 1, cap);
    }
    for (a, b) in graph.edges() {
        flow.add_edge(2 * a + 1, 2 * b, 1);
        flow.add_edge(2 * b + 1, 2 * a, 1);
    }

    let source = 2 * s + 1; // out(s)
    let sink = 2 * t; // in(t)
    let limit = stop_at.unwrap_or(usize::MAX);
    let mut total = 0;
    while total < limit && flow.augment(source, sink) {
        total += 1;
    }
    total
}

/// The vertex connectivity `κ(G)`.
///
/// * Empty or single-node graphs and disconnected graphs have `κ = 0`.
/// * The complete graph on `n` nodes has `κ = n - 1` by convention.
/// * Otherwise `κ = min` over non-adjacent pairs of their disjoint-path
///   count (Menger), evaluated with early termination at the running
///   minimum.
///
/// # Example
///
/// ```
/// use manet_graph::{kconn::vertex_connectivity, AdjacencyList};
///
/// // A 4-cycle: removing any one node leaves a path, κ = 2.
/// let mut g = AdjacencyList::empty(4);
/// g.add_edge(0, 1);
/// g.add_edge(1, 2);
/// g.add_edge(2, 3);
/// g.add_edge(3, 0);
/// assert_eq!(vertex_connectivity(&g), 2);
/// ```
pub fn vertex_connectivity(graph: &AdjacencyList) -> usize {
    let n = graph.len();
    if n <= 1 {
        return 0;
    }
    if !crate::components::is_connected(graph) {
        return 0;
    }
    // Complete graph: no non-adjacent pair exists.
    if graph.edge_count() == n * (n - 1) / 2 {
        return n - 1;
    }
    let mut best = n - 1;
    for s in 0..n {
        // κ <= min degree, a cheap upper bound that tightens early exits.
        best = best.min(graph.degree(s));
    }
    for s in 0..n {
        for t in (s + 1)..n {
            if graph.neighbors(s).contains(&(t as u32)) {
                continue;
            }
            let paths = disjoint_paths(graph, s, t, Some(best));
            best = best.min(paths);
            if best == 0 {
                return 0;
            }
        }
    }
    best
}

/// Whether `κ(G) >= k`. `k = 0` is always true; `k = 1` is
/// connectivity; `k = 2` is one articulation-point search; `k >= 3`
/// runs up to one max-flow per non-adjacent pair.
pub fn is_k_connected(graph: &AdjacencyList, k: usize) -> bool {
    if k == 0 {
        return true;
    }
    if k == 1 {
        return crate::components::is_connected(graph);
    }
    let n = graph.len();
    if n <= k {
        // Fewer than k+1 nodes cannot be k-connected (complete graph
        // K_n has κ = n - 1 < k).
        return false;
    }
    if graph.edge_count() == n * (n - 1) / 2 {
        return true; // complete, κ = n - 1 >= k since n > k
    }
    if graph.min_degree().unwrap_or(0) < k {
        return false;
    }
    if k == 2 {
        return is_biconnected(graph);
    }
    for s in 0..n {
        for t in (s + 1)..n {
            if graph.neighbors(s).contains(&(t as u32)) {
                continue;
            }
            if disjoint_paths(graph, s, t, Some(k)) < k {
                return false;
            }
        }
    }
    true
}

/// Whether a graph on at least three nodes is connected and free of
/// articulation points: one iterative depth-first search with Tarjan's
/// lowlink values. A non-root vertex `v` is an articulation point when
/// some DFS child `u` reaches nothing above `v` (`low[u] >= disc[v]`),
/// and the root when it has two DFS children.
fn is_biconnected(graph: &AdjacencyList) -> bool {
    const UNSEEN: u32 = u32::MAX;
    let n = graph.len();
    let mut disc = vec![UNSEEN; n];
    let mut low = vec![0; n];
    // (vertex, index of its next neighbour to visit)
    let mut stack = vec![(0usize, 0usize)];
    disc[0] = 0;
    let mut visited = 1;
    let mut root_children = 0;
    while let Some(top) = stack.last_mut() {
        let v = top.0;
        if let Some(&u) = graph.neighbors(v).get(top.1) {
            top.1 += 1;
            let u = u as usize;
            if disc[u] == UNSEEN {
                disc[u] = visited;
                low[u] = visited;
                visited += 1;
                root_children += usize::from(v == 0);
                stack.push((u, 0));
            } else {
                low[v] = low[v].min(disc[u]);
            }
        } else {
            stack.pop();
            if let Some(&(parent, _)) = stack.last() {
                low[parent] = low[parent].min(low[v]);
                if parent != 0 && low[v] >= disc[parent] {
                    return false;
                }
            }
        }
    }
    visited as usize == n && root_children == 1
}

/// The exact k-connectivity threshold of one placement: the smallest
/// range `r` whose communication graph (pairs with `d² <= r·r`) is
/// k-vertex-connected, so [`is_k_connected`] holds at `r` and fails at
/// `r.next_down()`. `k = 1` is the MST bottleneck in this convention.
///
/// k-connectivity needs minimum degree `k`, so the threshold is at
/// least `L = max_i` (the distance from `i` to its k-th nearest
/// neighbour), and it is one of the pair distances. The search starts
/// at `L` and gallops, then bisects, over the ranks of the pair
/// distances at or above it; each probe builds the graph of the pairs
/// up to one rank.
///
/// # Example
///
/// ```
/// use manet_geom::Point;
/// use manet_graph::kconn::critical_range_k;
///
/// // A unit square: its sides make a 4-cycle (2-connected), and
/// // 3-connectivity needs the diagonals as well.
/// let square = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]].map(Point::new);
/// assert_eq!(critical_range_k(&square, 2), 1.0);
/// assert_eq!(critical_range_k(&square, 3), 2f64.sqrt());
/// ```
///
/// # Panics
///
/// Panics unless `1 <= k < points.len()`: no range makes `k + 1` or
/// fewer nodes k-connected.
pub fn critical_range_k<const D: usize>(points: &[Point<D>], k: usize) -> f64 {
    let n = points.len();
    assert!(
        0 < k && k < n,
        "k-connectivity needs 1 <= k < n, got k = {k}, n = {n}"
    );
    let mut pairs = Vec::with_capacity(n * (n - 1) / 2);
    let mut row = Vec::with_capacity(n);
    let mut bound = 0.0_f64;
    for (i, p) in points.iter().enumerate() {
        row.clear();
        row.extend(points.iter().map(|q| p.distance_sq(q)));
        pairs.extend((i + 1..n).map(|j| (row[j], i as u32, j as u32)));
        // Index 0 holds a zero (`i` itself), so index k is the k-th
        // nearest neighbour.
        let (_, kth, _) = row.select_nth_unstable_by(k, f64::total_cmp);
        bound = bound.max(*kth);
    }

    // Every pair up to rank `last` is the complete graph, k-connected
    // as `n > k`, and the pair of rank `lo` is the first at `L`.
    let by_d2 = |a: &(f64, u32, u32), b: &(f64, u32, u32)| a.0.total_cmp(&b.0);
    let last = pairs.len() - 1;
    let mut lo = pairs.iter().filter(|p| p.0 < bound).count();
    pairs.select_nth_unstable_by(lo, by_d2);
    // `pairs[..lo]` holds the `lo` shortest pairs, and their graph is
    // not k-connected. A probe at `m >= lo` selects the pair of rank
    // `m` into place, tests the graph of the `m + 1` shortest, and
    // returns its distance if that graph is k-connected: a quickselect
    // per probe instead of one sort of every pair.
    let mut graph = AdjacencyList::empty(n);
    let mut probe = |lo: usize, m: usize| {
        pairs[lo..].select_nth_unstable_by(m - lo, by_d2);
        graph.clear_edges();
        for &(_, a, b) in &pairs[..=m] {
            graph.add_edge(a as usize, b as usize);
        }
        is_k_connected(&graph, k).then_some(pairs[m].0)
    };
    // Gallop from the first pair at `L`, then bisect.
    let (mut hi, mut width) = (lo, 1);
    let mut d2 = loop {
        if let Some(d2) = probe(lo, hi) {
            break d2;
        }
        lo = hi + 1;
        hi = (hi + width).min(last);
        width *= 2;
    };
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        match probe(lo, mid) {
            Some(found) => (hi, d2) = (mid, found),
            None => lo = mid + 1,
        }
    }
    covering_range(d2)
}

/// Minimal adjacency-list max-flow network with unit-ish capacities.
struct FlowNetwork {
    /// For each node, outgoing arcs as (to, capacity, reverse index).
    arcs: Vec<Vec<(u32, u32, u32)>>,
}

impl FlowNetwork {
    fn new(n: usize) -> Self {
        FlowNetwork {
            arcs: vec![Vec::new(); n],
        }
    }

    fn add_edge(&mut self, from: usize, to: usize, cap: u32) {
        let rev_from = self.arcs[to].len() as u32;
        let rev_to = self.arcs[from].len() as u32;
        self.arcs[from].push((to as u32, cap, rev_from));
        self.arcs[to].push((from as u32, 0, rev_to));
    }

    /// Finds one augmenting path by BFS and pushes one unit of flow.
    fn augment(&mut self, source: usize, sink: usize) -> bool {
        let n = self.arcs.len();
        // parent[v] = (prev_node, arc_index)
        let mut parent: Vec<Option<(u32, u32)>> = vec![None; n];
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(source as u32);
        parent[source] = Some((source as u32, u32::MAX));
        while let Some(v) = queue.pop_front() {
            if v as usize == sink {
                break;
            }
            for (idx, &(to, cap, _)) in self.arcs[v as usize].iter().enumerate() {
                if cap > 0 && parent[to as usize].is_none() {
                    parent[to as usize] = Some((v, idx as u32));
                    queue.push_back(to);
                }
            }
        }
        if parent[sink].is_none() {
            return false;
        }
        // Trace back and push one unit.
        let mut v = sink;
        while v != source {
            #[expect(
                clippy::expect_used,
                reason = "parent pointers were set along the augmenting path before tracing"
            )]
            let (prev, arc) = parent[v].expect("path traced from sink");
            let (_, cap, rev) = &mut self.arcs[prev as usize][arc as usize];
            *cap -= 1;
            let rev = *rev;
            self.arcs[v][rev as usize].1 += 1;
            v = prev as usize;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_geom::Point;

    fn cycle(n: usize) -> AdjacencyList {
        let mut g = AdjacencyList::empty(n);
        for i in 0..n {
            g.add_edge(i, (i + 1) % n);
        }
        g
    }

    fn complete(n: usize) -> AdjacencyList {
        let mut g = AdjacencyList::empty(n);
        for i in 0..n {
            for j in (i + 1)..n {
                g.add_edge(i, j);
            }
        }
        g
    }

    #[test]
    fn path_graph_has_connectivity_one() {
        let pts: Vec<Point<1>> = (0..5).map(|i| Point::new([i as f64])).collect();
        let g = AdjacencyList::from_points_brute_force(&pts, 1.0);
        assert_eq!(vertex_connectivity(&g), 1);
        assert!(is_k_connected(&g, 1));
        assert!(!is_k_connected(&g, 2));
    }

    #[test]
    fn cycle_is_two_connected() {
        let g = cycle(6);
        assert_eq!(vertex_connectivity(&g), 2);
        assert!(is_k_connected(&g, 2));
        assert!(!is_k_connected(&g, 3));
    }

    #[test]
    fn complete_graph_connectivity() {
        for n in 2..6 {
            let g = complete(n);
            assert_eq!(vertex_connectivity(&g), n - 1, "K_{n}");
            assert!(is_k_connected(&g, n - 1));
            assert!(!is_k_connected(&g, n));
        }
    }

    #[test]
    fn disconnected_graph_has_zero_connectivity() {
        let mut g = AdjacencyList::empty(4);
        g.add_edge(0, 1);
        g.add_edge(2, 3);
        assert_eq!(vertex_connectivity(&g), 0);
        assert!(!is_k_connected(&g, 1));
        assert!(is_k_connected(&g, 0));
    }

    #[test]
    fn cut_vertex_detected() {
        // Two triangles sharing vertex 2: removing 2 disconnects.
        let mut g = AdjacencyList::empty(5);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 0);
        g.add_edge(2, 3);
        g.add_edge(3, 4);
        g.add_edge(4, 2);
        assert_eq!(vertex_connectivity(&g), 1);
    }

    #[test]
    fn complete_bipartite_k23() {
        // K_{2,3}: κ = 2.
        let mut g = AdjacencyList::empty(5);
        for a in 0..2 {
            for b in 2..5 {
                g.add_edge(a, b);
            }
        }
        assert_eq!(vertex_connectivity(&g), 2);
    }

    #[test]
    fn disjoint_paths_on_known_graph() {
        // Two disjoint 0->3 paths through 1 and 2.
        let mut g = AdjacencyList::empty(4);
        g.add_edge(0, 1);
        g.add_edge(1, 3);
        g.add_edge(0, 2);
        g.add_edge(2, 3);
        assert_eq!(disjoint_paths(&g, 0, 3, None), 2);
        assert_eq!(disjoint_paths(&g, 0, 3, Some(1)), 1);
    }

    #[test]
    #[should_panic(expected = "non-adjacent")]
    fn disjoint_paths_rejects_adjacent() {
        let g = complete(3);
        disjoint_paths(&g, 0, 1, None);
    }

    fn graph(n: usize, edges: &[(usize, usize)]) -> AdjacencyList {
        let mut g = AdjacencyList::empty(n);
        for &(a, b) in edges {
            g.add_edge(a, b);
        }
        g
    }

    #[test]
    fn articulation_check_on_fixtures() {
        let path = graph(4, &[(0, 1), (1, 2), (2, 3)]);
        let star = graph(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        // Two triangles sharing vertex 2, and two disjoint triangles.
        let bowtie = graph(5, &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]);
        let triangles = graph(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]);
        // Articulation point at the DFS root (0), and a cycle whose
        // neighbour lists are out of order.
        let root_cut = graph(5, &[(1, 0), (2, 1), (0, 2), (0, 3), (4, 0), (3, 4)]);
        let shuffled = graph(5, &[(3, 1), (0, 4), (2, 4), (1, 0), (3, 2)]);
        for (name, g, biconnected) in [
            ("K3", complete(3), true),
            ("K5", complete(5), true),
            ("path", path, false),
            ("cycle", cycle(6), true),
            ("star", star, false),
            ("bowtie", bowtie, false),
            ("two triangles", triangles, false),
            ("root cut", root_cut, false),
            ("shuffled cycle", shuffled, true),
        ] {
            assert_eq!(is_biconnected(&g), biconnected, "{name}");
            assert_eq!(is_k_connected(&g, 2), biconnected, "{name}");
            assert_eq!(vertex_connectivity(&g) >= 2, biconnected, "{name}");
        }
        // K2 has κ = 1: two nodes are never 2-connected.
        assert!(!is_k_connected(&complete(2), 2));
        assert_eq!(vertex_connectivity(&complete(2)), 1);
    }

    #[test]
    fn critical_range_k_on_a_row_and_coincident_points() {
        // A row at spacing 1: 2-connectivity closes the row into a
        // cycle through the two ends' second neighbours, at 2.
        let row: Vec<Point<1>> = (0..5).map(|i| Point::new([i as f64])).collect();
        assert_eq!(critical_range_k(&row, 1), 1.0);
        assert_eq!(critical_range_k(&row, 2), 2.0);
        assert_eq!(critical_range_k(&row, 4), 4.0);
        // Coincident points form a complete graph at range 0.
        let stack = vec![Point::new([3.0, 3.0]); 6];
        for k in 1..6 {
            assert_eq!(critical_range_k(&stack, k), 0.0, "k = {k}");
        }
    }

    #[test]
    #[should_panic(expected = "1 <= k < n")]
    fn critical_range_k_rejects_k_at_least_n() {
        critical_range_k(&[Point::new([0.0]), Point::new([1.0])], 2);
    }

    #[test]
    fn small_graphs() {
        assert_eq!(vertex_connectivity(&AdjacencyList::empty(0)), 0);
        assert_eq!(vertex_connectivity(&AdjacencyList::empty(1)), 0);
        assert!(is_k_connected(&AdjacencyList::empty(1), 0));
        assert!(!is_k_connected(&AdjacencyList::empty(2), 1));
    }
}
