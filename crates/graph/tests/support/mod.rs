//! Test support shared by the graph crate's integration tests.

use manet_geom::{covering_range, Point};
use manet_graph::MstEdge;

/// A vertex outside Prim's tree: its position, its best known squared
/// distance to the tree and the tree vertex achieving it.
#[derive(Clone, Copy)]
struct Candidate<const D: usize> {
    point: Point<D>,
    d2: f64,
    parent: u32,
    index: u32,
}

/// The array-of-structs dense Prim that the struct-of-arrays kernel in
/// `manet_graph::mst` replaced, kept verbatim as its oracle: the
/// kernel must return this tree edge for edge (`a`, `b` and `length`
/// bits), including its tie-breaking (the first minimum in
/// swap-remove-compacted order, parents moved only on a strictly
/// shorter pair) and its handling of overflowed `+∞` distances.
pub fn prim_reference<const D: usize>(points: &[Point<D>]) -> Vec<MstEdge> {
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
