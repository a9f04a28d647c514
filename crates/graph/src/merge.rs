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

use crate::dsu::UnionFind;
use crate::mst::{spanning_edges, MstEdge};
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
        Self::from_edges(points.len(), spanning_edges(points), covering_range)
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
    /// `w`, so sorting by `w` sorts by range.
    fn from_edges(n: usize, mut edges: Vec<(u32, u32, f64)>, range: fn(f64) -> f64) -> Self {
        // Non-negative f64s order as their bit patterns. Unstable is
        // enough: a tie group collapses into one event, and the
        // components after the whole group do not depend on the order
        // its edges merge in.
        edges.sort_unstable_by_key(|&(_, _, w)| w.to_bits());

        let mut uf = UnionFind::new(n);
        let mut events: Vec<(f64, u32)> = Vec::new();
        let mut current_max = 1u32;
        for (a, b, w) in edges {
            uf.union(a as usize, b as usize);
            let m = uf.largest_component() as u32;
            if m > current_max {
                current_max = m;
                let r = range(w);
                match events.last_mut() {
                    Some(last) if last.0 == r => last.1 = m,
                    _ => events.push((r, m)),
                }
            }
        }
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
