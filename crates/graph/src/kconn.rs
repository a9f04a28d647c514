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
//! for massive graphs.

use crate::adjacency::AdjacencyList;

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
/// connectivity.
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

    #[test]
    fn small_graphs() {
        assert_eq!(vertex_connectivity(&AdjacencyList::empty(0)), 0);
        assert_eq!(vertex_connectivity(&AdjacencyList::empty(1)), 0);
        assert!(is_k_connected(&AdjacencyList::empty(1), 0));
        assert!(!is_k_connected(&AdjacencyList::empty(2), 1));
    }
}
