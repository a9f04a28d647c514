//! Breadth-first search: hop distances.
//!
//! Wireless ad hoc networks are *multi-hop*: a message travels through
//! intermediate nodes. Hop distances quantify relay depth — e.g. how
//! many car-to-car hops a congestion warning needs on the paper's
//! freeway scenario (`examples/freeway.rs`).

use crate::adjacency::AdjacencyList;
use std::collections::VecDeque;

/// Hop distance from `src` to every node; `None` for unreachable nodes.
///
/// # Panics
///
/// Panics if `src` is out of range.
///
/// # Example
///
/// ```
/// use manet_geom::Point;
/// use manet_graph::{bfs::hop_distances, AdjacencyList};
///
/// let pts = vec![Point::new([0.0]), Point::new([1.0]), Point::new([2.0])];
/// let g = AdjacencyList::from_points_brute_force(&pts, 1.0);
/// let d = hop_distances(&g, 0);
/// assert_eq!(d, vec![Some(0), Some(1), Some(2)]);
/// ```
pub fn hop_distances(graph: &AdjacencyList, src: usize) -> Vec<Option<u32>> {
    assert!(src < graph.len(), "source {src} out of range");
    let mut dist = vec![None; graph.len()];
    dist[src] = Some(0);
    let mut queue = VecDeque::new();
    queue.push_back(src as u32);
    while let Some(v) = queue.pop_front() {
        #[expect(
            clippy::expect_used,
            reason = "BFS assigns a distance before enqueueing a node"
        )]
        let dv = dist[v as usize].expect("enqueued nodes have distances");
        for &w in graph.neighbors(v as usize) {
            if dist[w as usize].is_none() {
                dist[w as usize] = Some(dv + 1);
                queue.push_back(w);
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_geom::Point;

    fn path(n: usize) -> AdjacencyList {
        let pts: Vec<Point<1>> = (0..n).map(|i| Point::new([i as f64])).collect();
        AdjacencyList::from_points_brute_force(&pts, 1.0)
    }

    #[test]
    fn distances_on_path() {
        let g = path(5);
        let d = hop_distances(&g, 0);
        assert_eq!(d, vec![Some(0), Some(1), Some(2), Some(3), Some(4)]);
        let d2 = hop_distances(&g, 2);
        assert_eq!(d2, vec![Some(2), Some(1), Some(0), Some(1), Some(2)]);
    }

    #[test]
    fn unreachable_nodes_are_none() {
        let mut g = AdjacencyList::empty(4);
        g.add_edge(0, 1);
        g.add_edge(2, 3);
        let d = hop_distances(&g, 0);
        assert_eq!(d[2], None);
        assert_eq!(d[3], None);
    }
}
