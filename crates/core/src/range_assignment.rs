//! Per-node range assignment (the Range Assignment problem).
//!
//! The paper's MTR formulation gives every node the **same** range.
//! Its companion work (Santi, Blough & Vainstein, MobiHoc 2001 — \[11\]
//! in the paper) studies the generalization where each node `u` gets
//! its own range `r_u`, minimizing total power `Σ r_u^β` subject to
//! connectivity — the problem "topology control" protocols solve
//! online. This module implements the classical MST-based assignment
//! and the uniform (common-range) baseline so the two can be compared,
//! which is also the natural bridge from this paper to the topology
//! control literature it cites (\[6, 9, 10\]).
//!
//! Model: with per-node ranges, the *symmetric* communication graph has
//! an edge `(u, v)` iff `dist(u, v) <= min(r_u, r_v)` (both endpoints
//! can reach each other, the usual requirement for link-level
//! acknowledgments). The MST assignment sets `r_u` to the longest MST
//! edge incident to `u`; every MST edge then satisfies the mutual
//! reachability condition, so the graph is connected, and since every
//! `r_u` is at most the MST bottleneck, it never costs more than the
//! uniform assignment at the critical range.

use crate::CoreError;
use manet_geom::Point;
use manet_graph::{minimum_spanning_tree, AdjacencyList, ComponentSummary};

/// A per-node transmitting-range assignment.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct RangeAssignment {
    ranges: Vec<f64>,
}

impl RangeAssignment {
    /// Wraps explicit per-node ranges.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Invalid`] when any range is negative or
    /// not finite.
    pub fn from_ranges(ranges: Vec<f64>) -> Result<Self, CoreError> {
        if ranges.iter().any(|r| !r.is_finite() || *r < 0.0) {
            return Err(CoreError::Invalid {
                reason: "ranges must be finite and non-negative".into(),
            });
        }
        Ok(RangeAssignment { ranges })
    }

    /// The MST-based assignment: `r_u` = longest MST edge incident to
    /// `u` (0 for a single node; empty for no nodes).
    pub fn mst_based<const D: usize>(points: &[Point<D>]) -> Self {
        let mut ranges = vec![0.0; points.len()];
        for e in minimum_spanning_tree(points) {
            let (a, b) = (e.a as usize, e.b as usize);
            if e.length > ranges[a] {
                ranges[a] = e.length;
            }
            if e.length > ranges[b] {
                ranges[b] = e.length;
            }
        }
        RangeAssignment { ranges }
    }

    /// The uniform baseline: every node gets the critical transmitting
    /// range (the MST bottleneck).
    pub fn uniform<const D: usize>(points: &[Point<D>]) -> Self {
        let ctr = manet_graph::critical_range(points);
        RangeAssignment {
            ranges: vec![ctr; points.len()],
        }
    }

    /// The per-node ranges.
    pub fn ranges(&self) -> &[f64] {
        &self.ranges
    }

    /// Number of nodes covered by the assignment.
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// Whether the assignment covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// The largest assigned range.
    pub fn max_range(&self) -> f64 {
        self.ranges.iter().copied().fold(0.0, f64::max)
    }

    /// Total transmit power `Σ r_u^β` for a path-loss exponent `β`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Invalid`] for `β` outside the accepted
    /// path-loss range (see [`crate::energy::PATH_LOSS_EXPONENT_RANGE`]).
    pub fn total_power(&self, beta: f64) -> Result<f64, CoreError> {
        let (lo, hi) = crate::energy::PATH_LOSS_EXPONENT_RANGE;
        if !(beta.is_finite() && (lo..=hi).contains(&beta)) {
            return Err(CoreError::Invalid {
                reason: format!("path-loss exponent must be in [{lo}, {hi}], got {beta}"),
            });
        }
        Ok(self.ranges.iter().map(|r| r.powf(beta)).sum())
    }

    /// Builds the symmetric communication graph induced by this
    /// assignment over `points`: edge iff `d² <= reach·reach` for
    /// `reach = min(r_u, r_v)`, the graph builders' range test.
    ///
    /// # Panics
    ///
    /// Panics when `points.len()` differs from the assignment length
    /// (a logic error in the driver).
    pub fn symmetric_graph<const D: usize>(&self, points: &[Point<D>]) -> AdjacencyList {
        assert_eq!(
            points.len(),
            self.ranges.len(),
            "assignment covers a different node count"
        );
        let n = points.len();
        let mut g = AdjacencyList::empty(n);
        for i in 0..n {
            for j in (i + 1)..n {
                let reach = self.ranges[i].min(self.ranges[j]);
                if points[i].distance_sq(&points[j]) <= reach * reach {
                    g.add_edge(i, j);
                }
            }
        }
        g
    }

    /// Whether the symmetric graph induced over `points` is connected.
    ///
    /// # Panics
    ///
    /// Panics when `points.len()` differs from the assignment length.
    pub fn connects<const D: usize>(&self, points: &[Point<D>]) -> bool {
        ComponentSummary::of(&self.symmetric_graph(points)).is_connected()
    }

    /// Power saving of this assignment relative to `baseline`:
    /// `1 - total/total_baseline` (negative when this assignment is
    /// more expensive).
    ///
    /// # Errors
    ///
    /// Propagates the `β` validation of [`RangeAssignment::total_power`]
    /// and returns [`CoreError::Invalid`] when the baseline power is
    /// zero.
    pub fn power_saving_vs(&self, baseline: &RangeAssignment, beta: f64) -> Result<f64, CoreError> {
        let own = self.total_power(beta)?;
        let base = baseline.total_power(beta)?;
        if base == 0.0 {
            return Err(CoreError::Invalid {
                reason: "baseline assignment has zero total power".into(),
            });
        }
        Ok(1.0 - own / base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_geom::Region;
    use rand::SeedableRng;

    fn random_points(n: usize, side: f64, seed: u64) -> Vec<Point<2>> {
        let region: Region<2> = Region::new(side).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        region.place_uniform(n, &mut rng)
    }

    #[test]
    fn mst_assignment_connects() {
        for seed in 0..10 {
            let pts = random_points(30, 100.0, seed);
            let assignment = RangeAssignment::mst_based(&pts);
            assert!(assignment.connects(&pts), "seed {seed}");
        }
    }

    #[test]
    fn mst_assignment_never_exceeds_uniform() {
        for seed in 0..10 {
            let pts = random_points(25, 80.0, seed);
            let mst = RangeAssignment::mst_based(&pts);
            let uniform = RangeAssignment::uniform(&pts);
            // Per node: longest incident MST edge <= bottleneck.
            for (a, b) in mst.ranges().iter().zip(uniform.ranges()) {
                assert!(a <= b, "seed {seed}");
            }
            // Hence total power saving is non-negative.
            let saving = mst.power_saving_vs(&uniform, 2.0).unwrap();
            assert!(saving >= 0.0, "seed {seed}: saving {saving}");
        }
    }

    #[test]
    fn mst_max_range_is_the_ctr() {
        let pts = random_points(20, 60.0, 3);
        let mst = RangeAssignment::mst_based(&pts);
        let ctr = manet_graph::critical_range(&pts);
        assert_eq!(mst.max_range(), ctr);
    }

    #[test]
    fn uniform_assignment_connects_at_ctr() {
        let pts = random_points(15, 50.0, 4);
        let uniform = RangeAssignment::uniform(&pts);
        assert!(uniform.connects(&pts));
    }

    #[test]
    fn savings_grow_with_path_loss_exponent() {
        let pts = random_points(40, 120.0, 5);
        let mst = RangeAssignment::mst_based(&pts);
        let uniform = RangeAssignment::uniform(&pts);
        let s2 = mst.power_saving_vs(&uniform, 2.0).unwrap();
        let s4 = mst.power_saving_vs(&uniform, 4.0).unwrap();
        assert!(s4 >= s2, "higher β should amplify savings: {s2} vs {s4}");
        assert!(s2 > 0.0);
    }

    #[test]
    fn degenerate_inputs() {
        let empty: Vec<Point<2>> = vec![];
        let a = RangeAssignment::mst_based(&empty);
        assert!(a.is_empty());
        assert_eq!(a.max_range(), 0.0);
        assert!(a.connects(&empty));

        let one = vec![Point::new([1.0, 1.0])];
        let a = RangeAssignment::mst_based(&one);
        assert_eq!(a.len(), 1);
        assert_eq!(a.ranges()[0], 0.0);
        assert!(a.connects(&one));
    }

    #[test]
    fn beta_validation() {
        let pts = random_points(5, 10.0, 6);
        let a = RangeAssignment::mst_based(&pts);
        assert!(a.total_power(0.5).is_err());
        assert!(a.total_power(f64::NAN).is_err());
        assert!(a.total_power(2.0).is_ok());
    }

    #[test]
    #[should_panic(expected = "different node count")]
    fn mismatched_points_panic() {
        let pts = random_points(5, 10.0, 7);
        let a = RangeAssignment::mst_based(&pts);
        let other = random_points(6, 10.0, 8);
        a.connects(&other);
    }
}
