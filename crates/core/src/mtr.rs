//! The stationary MINIMUM TRANSMITTING RANGE (MTR) problem.
//!
//! > *Suppose `n` nodes are placed in `[0, l]^d`; what is the minimum
//! > value of `r` such that the resulting communication graph is
//! > connected?* (paper §2)
//!
//! For a **known** placement the answer is exact: the longest edge of
//! the Euclidean MST ([`MtrProblem::critical_range_of`]). For the
//! paper's **random** placements the answer is probabilistic:
//! [`MtrProblem::stationary_analysis`] samples the critical-range
//! distribution and reads off `r_stationary` at a connection
//! probability target.

use crate::CoreError;
use manet_geom::Point;
use manet_sim::StationaryAnalysis;

/// The MTR problem instance: `n` nodes in `[0, l]^D`.
///
/// # Example
///
/// ```
/// use manet_core::MtrProblem;
/// use manet_geom::Point;
///
/// let problem = MtrProblem::<2>::new(3, 100.0)?;
/// let placement = vec![
///     Point::new([0.0, 0.0]),
///     Point::new([30.0, 0.0]),
///     Point::new([30.0, 40.0]),
/// ];
/// // MST edges are 30 and 40; the bottleneck (longest) is 40.
/// assert_eq!(problem.critical_range_of(&placement)?, 40.0);
/// # Ok::<(), manet_core::CoreError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct MtrProblem<const D: usize> {
    nodes: usize,
    side: f64,
    /// Workers for the sampling campaigns (`None`: one per available
    /// CPU); the samples do not depend on it.
    threads: Option<usize>,
}

impl<const D: usize> MtrProblem<D> {
    /// Creates the instance.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Invalid`] when `nodes == 0`, `side <= 0`,
    /// or `D == 0`.
    pub fn new(nodes: usize, side: f64) -> Result<Self, CoreError> {
        if D == 0 {
            return Err(CoreError::Invalid {
                reason: "dimension must be at least 1".into(),
            });
        }
        if nodes == 0 {
            return Err(CoreError::Invalid {
                reason: "nodes must be at least 1".into(),
            });
        }
        if !(side.is_finite() && side > 0.0) {
            return Err(CoreError::Invalid {
                reason: format!("side must be positive, got {side}"),
            });
        }
        Ok(MtrProblem {
            nodes,
            side,
            threads: None,
        })
    }

    /// The same instance, sampled by [`stationary_analysis`] and
    /// [`r_stationary`] on `threads` workers instead of one per
    /// available CPU. The samples are the same at every count.
    ///
    /// [`stationary_analysis`]: Self::stationary_analysis
    /// [`r_stationary`]: Self::r_stationary
    pub fn with_threads(self, threads: usize) -> Self {
        MtrProblem {
            threads: Some(threads),
            ..self
        }
    }

    /// Number of nodes `n`.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Region side `l`.
    pub fn side(&self) -> f64 {
        self.side
    }

    /// Exact MTR for a known placement: the Euclidean-MST bottleneck,
    /// [`manet_graph::critical_range`]. The communication graph is
    /// connected at the returned range `c` and disconnected at
    /// `c.next_down()`, exactly.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Invalid`] when the placement size differs
    /// from the instance's `n` or contains non-finite coordinates.
    ///
    /// # Example
    ///
    /// ```
    /// use manet_core::MtrProblem;
    /// use manet_geom::Point;
    /// use manet_graph::{AdjacencyList, ComponentSummary};
    ///
    /// let problem = MtrProblem::<2>::new(3, 10.0)?;
    /// let placement = vec![
    ///     Point::new([0.0, 0.0]),
    ///     Point::new([2.0, 3.0]),
    ///     Point::new([4.0, 0.0]),
    /// ];
    /// let c = problem.critical_range_of(&placement)?;
    /// let connected = |r: f64| {
    ///     ComponentSummary::of(&AdjacencyList::from_points(&placement, 10.0, r)).is_connected()
    /// };
    /// assert!(connected(c) && !connected(c.next_down()));
    /// # Ok::<(), manet_core::CoreError>(())
    /// ```
    pub fn critical_range_of(&self, placement: &[Point<D>]) -> Result<f64, CoreError> {
        if placement.len() != self.nodes {
            return Err(CoreError::Invalid {
                reason: format!(
                    "placement has {} nodes, problem expects {}",
                    placement.len(),
                    self.nodes
                ),
            });
        }
        if placement.iter().any(|p| !p.is_finite()) {
            return Err(CoreError::Invalid {
                reason: "placement contains non-finite coordinates".into(),
            });
        }
        Ok(manet_graph::critical_range(placement))
    }

    /// The range that suffices for **any** placement: the region
    /// diameter `l·√d` (nodes could sit at opposite corners).
    pub fn worst_case_range(&self) -> f64 {
        self.side * (D as f64).sqrt()
    }

    /// Samples the critical-range distribution over `placements`
    /// uniform random deployments.
    ///
    /// # Errors
    ///
    /// Propagates [`CoreError::Sim`].
    pub fn stationary_analysis(
        &self,
        placements: usize,
        seed: u64,
    ) -> Result<StationaryAnalysis, CoreError> {
        Ok(StationaryAnalysis::run::<D>(
            self.nodes,
            self.side,
            placements,
            seed,
            self.threads,
        )?)
    }

    /// Analytical estimate of the 2-D connectivity probability in the
    /// style of the dense-network results the paper contrasts itself
    /// with (Gupta & Kumar; Penrose): for a Poisson/uniform process,
    /// disconnection is asymptotically driven by isolated nodes, whose
    /// count is approximately Poisson with mean
    /// `n·exp(-n·π·r²/l²)`, so
    ///
    /// ```text
    /// P(connected) ≈ exp(-n·e^{-n π r² / l²}).
    /// ```
    ///
    /// The estimate ignores boundary effects (nodes near the border
    /// have smaller coverage disks), so it **overestimates**
    /// connectivity at the moderate densities of this paper's
    /// experiments — which is precisely the paper's §2 argument for
    /// studying the sparse `[0, l]^d` formulation by simulation rather
    /// than dense-limit analysis. Exposed for that comparison (see the
    /// `stationary` experiment).
    ///
    /// Only meaningful for `D = 2`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Invalid`] for non-positive `r` or when
    /// called with `D != 2`.
    pub fn penrose_connectivity_estimate(&self, r: f64) -> Result<f64, CoreError> {
        if D != 2 {
            return Err(CoreError::Invalid {
                reason: format!("the Penrose estimate is 2-dimensional, got D = {D}"),
            });
        }
        if !(r.is_finite() && r > 0.0) {
            return Err(CoreError::Invalid {
                reason: format!("r must be positive, got {r}"),
            });
        }
        let n = self.nodes as f64;
        let mean_isolated =
            n * (-n * core::f64::consts::PI * r * r / (self.side * self.side)).exp();
        Ok((-mean_isolated).exp())
    }

    /// `r_stationary`: the sampled range connecting a `quantile`
    /// fraction of random placements (the reproduction's denominator
    /// for all mobile ratios; the headline value uses `0.99`).
    ///
    /// # Errors
    ///
    /// Propagates [`CoreError::Sim`] and [`CoreError::Stats`].
    pub fn r_stationary(
        &self,
        quantile: f64,
        placements: usize,
        seed: u64,
    ) -> Result<f64, CoreError> {
        Ok(self
            .stationary_analysis(placements, seed)?
            .r_stationary(quantile)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        assert!(MtrProblem::<2>::new(0, 10.0).is_err());
        assert!(MtrProblem::<2>::new(5, 0.0).is_err());
        assert!(MtrProblem::<2>::new(5, f64::NAN).is_err());
        assert!(MtrProblem::<2>::new(5, 10.0).is_ok());
    }

    #[test]
    fn critical_range_validates_placement() {
        let p = MtrProblem::<1>::new(2, 10.0).unwrap();
        assert!(p.critical_range_of(&[Point::new([1.0])]).is_err());
        assert!(p
            .critical_range_of(&[Point::new([1.0]), Point::new([f64::NAN])])
            .is_err());
        assert_eq!(
            p.critical_range_of(&[Point::new([1.0]), Point::new([4.0])])
                .unwrap(),
            3.0
        );
    }

    #[test]
    fn worst_case_is_diameter() {
        let p = MtrProblem::<2>::new(4, 10.0).unwrap();
        assert!((p.worst_case_range() - 10.0 * 2f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn r_stationary_below_worst_case() {
        let p = MtrProblem::<2>::new(25, 100.0).unwrap();
        let r = p.r_stationary(0.99, 60, 7).unwrap();
        assert!(r > 0.0);
        assert!(r < p.worst_case_range());
    }

    #[test]
    fn stationary_analysis_connectivity_probability() {
        let p = MtrProblem::<2>::new(16, 64.0).unwrap();
        let analysis = p.stationary_analysis(80, 3).unwrap();
        let r90 = analysis.r_stationary(0.9).unwrap();
        assert!(analysis.connectivity_probability(r90) >= 0.9);
        // Far below the smallest CTR nothing connects.
        assert_eq!(analysis.connectivity_probability(1e-9), 0.0);
    }

    #[test]
    fn accessors() {
        let p = MtrProblem::<3>::new(7, 5.0).unwrap();
        assert_eq!(p.nodes(), 7);
        assert_eq!(p.side(), 5.0);
    }

    #[test]
    fn penrose_estimate_is_a_probability_and_monotone() {
        let p = MtrProblem::<2>::new(64, 1024.0).unwrap();
        let mut prev = 0.0;
        for i in 1..=20 {
            let r = i as f64 * 20.0;
            let est = p.penrose_connectivity_estimate(r).unwrap();
            assert!((0.0..=1.0).contains(&est));
            assert!(est >= prev);
            prev = est;
        }
        assert!(prev > 0.999, "large ranges must connect: {prev}");
    }

    #[test]
    fn penrose_estimate_validates() {
        let p3 = MtrProblem::<3>::new(10, 10.0).unwrap();
        assert!(p3.penrose_connectivity_estimate(1.0).is_err());
        let p2 = MtrProblem::<2>::new(10, 10.0).unwrap();
        assert!(p2.penrose_connectivity_estimate(0.0).is_err());
    }

    #[test]
    fn penrose_estimate_overestimates_at_moderate_density() {
        // Boundary effects make real (bounded-region) networks harder
        // to connect than the interior-only estimate suggests.
        let p = MtrProblem::<2>::new(64, 1024.0).unwrap();
        let analysis = p.stationary_analysis(400, 17).unwrap();
        // Pick the range where half the sampled placements connect.
        let r50 = analysis.r_stationary(0.5).unwrap();
        let est = p.penrose_connectivity_estimate(r50).unwrap();
        assert!(
            est > 0.5,
            "estimate {est} should exceed the empirical 0.5 at r50"
        );
    }
}
