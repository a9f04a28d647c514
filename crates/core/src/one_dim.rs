//! Fast 1-dimensional specializations.
//!
//! On a line, the communication graph at range `r` is connected iff no
//! gap between *consecutive* (sorted) nodes exceeds `r`; the critical
//! range is simply the largest such gap, computable in `O(n log n)`
//! instead of the `O(n²)` MST. This module provides those fast paths
//! plus the bridge to the occupancy analysis of §3 (Lemma 1's cell
//! subdivision and the exact disconnection lower bound).

use crate::CoreError;
use manet_occupancy::{patterns, Occupancy};

/// The 1-D critical transmitting range: the largest gap between
/// consecutive sorted positions (0 for fewer than two nodes).
///
/// # Errors
///
/// Returns [`CoreError::Invalid`] when any position is not finite.
///
/// # Example
///
/// ```
/// let r = manet_core::one_dim::critical_range_1d(&[5.0, 1.0, 2.0])?;
/// assert_eq!(r, 3.0); // the 2 -> 5 gap
/// # Ok::<(), manet_core::CoreError>(())
/// ```
pub fn critical_range_1d(positions: &[f64]) -> Result<f64, CoreError> {
    if positions.iter().any(|p| !p.is_finite()) {
        return Err(CoreError::Invalid {
            reason: "positions must be finite".into(),
        });
    }
    if positions.len() < 2 {
        return Ok(0.0);
    }
    let mut sorted = positions.to_vec();
    #[expect(
        clippy::expect_used,
        reason = "comparator is total: positions validated finite before sorting"
    )]
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("positions checked finite"));
    Ok(sorted.windows(2).map(|w| w[1] - w[0]).fold(0.0, f64::max))
}

/// Whether the 1-D communication graph at range `r` is connected.
///
/// # Errors
///
/// Returns [`CoreError::Invalid`] for non-finite positions or
/// non-positive `r`.
pub fn is_connected_1d(positions: &[f64], r: f64) -> Result<bool, CoreError> {
    if !(r.is_finite() && r > 0.0) {
        return Err(CoreError::Invalid {
            reason: format!("r must be positive, got {r}"),
        });
    }
    Ok(critical_range_1d(positions)? <= r)
}

/// Size of the largest connected component of the 1-D graph at range
/// `r` (0 for an empty placement).
///
/// # Errors
///
/// Returns [`CoreError::Invalid`] for non-finite positions or
/// non-positive `r`.
pub fn largest_component_1d(positions: &[f64], r: f64) -> Result<usize, CoreError> {
    if !(r.is_finite() && r > 0.0) {
        return Err(CoreError::Invalid {
            reason: format!("r must be positive, got {r}"),
        });
    }
    if positions.iter().any(|p| !p.is_finite()) {
        return Err(CoreError::Invalid {
            reason: "positions must be finite".into(),
        });
    }
    if positions.is_empty() {
        return Ok(0);
    }
    let mut sorted = positions.to_vec();
    #[expect(
        clippy::expect_used,
        reason = "comparator is total: positions validated finite before sorting"
    )]
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("positions checked finite"));
    let mut best = 1usize;
    let mut run = 1usize;
    for w in sorted.windows(2) {
        if w[1] - w[0] <= r {
            run += 1;
            best = best.max(run);
        } else {
            run = 1;
        }
    }
    Ok(best)
}

/// Lemma 1's sufficient disconnection witness on a concrete placement:
/// `true` when the `C = l/r` cell subdivision contains an empty cell
/// between occupied ones. Re-exported from
/// [`manet_occupancy::patterns`] for discoverability.
///
/// # Panics
///
/// Panics if `l <= 0` or `r <= 0` (see
/// [`manet_occupancy::patterns::occupancy_bits`]).
pub fn lemma1_gap_witness(positions: &[f64], l: f64, r: f64) -> bool {
    patterns::is_disconnected_by_gap(positions, l, r)
}

/// The exact probability that a uniform placement of `n` nodes on
/// `[0, l]` produces a `{10*1}` occupancy gap at range `r` — a lower
/// bound on the probability the communication graph is disconnected
/// (Theorem 4's quantity, computed exactly rather than asymptotically).
///
/// # Errors
///
/// Returns [`CoreError::Invalid`] for invalid `n`, `r`, `l`, and
/// propagates [`CoreError::Occupancy`] when the exact pmf is
/// impractical (`n · l/r` too large).
pub fn disconnection_probability_lower_bound(n: usize, r: f64, l: f64) -> Result<f64, CoreError> {
    if n == 0 {
        return Err(CoreError::Invalid {
            reason: "n must be at least 1".into(),
        });
    }
    if !(r.is_finite() && r > 0.0 && l.is_finite() && l > 0.0) {
        return Err(CoreError::Invalid {
            reason: format!("r and l must be positive, got r={r}, l={l}"),
        });
    }
    let cells = ((l / r).floor() as u64).max(1);
    let occ = Occupancy::new(n as u64, cells)?;
    Ok(patterns::gap_probability(&occ)?)
}

/// Exact probability that `n` uniform nodes on `[0, l]` form a
/// connected graph at range `r`, from the classical law of uniform
/// spacings.
///
/// Sorting the nodes splits `[0, l]` into `n + 1` spacings distributed
/// uniformly on the simplex, and the graph is connected iff every
/// *interior* spacing (the `n - 1` inter-node gaps) is at most `r`.
/// Inclusion–exclusion over which gaps exceed `r`, using
/// `P(gaps in S all > r) = (1 - |S|·r/l)_+^n`, gives
///
/// ```text
/// P(connected) = Σ_{k=0}^{n-1} (-1)^k C(n-1, k) (1 - k·r/l)_+^n .
/// ```
///
/// # Numerical domain
///
/// The alternating sum is evaluated in log space with positive and
/// negative terms separated, which keeps magnitudes under control, but
/// the *cancellation* grows with `n`: results are accurate to ~1e-9
/// for `n ≤ 64` and degrade beyond; callers should prefer Monte Carlo
/// past `n ≈ 200`. The asymptotic regime is Theorem 5's territory
/// anyway ([`crate::theorems`]).
///
/// # Errors
///
/// Returns [`CoreError::Invalid`] when `n == 0`, or `r`/`l` are not
/// positive and finite.
///
/// # Example
///
/// ```
/// // Two nodes: connected iff their distance <= r;
/// // P = 1 - (1 - r/l)^2 for r <= l.
/// let p = manet_core::one_dim::connectivity_probability_exact(2, 25.0, 100.0)?;
/// assert!((p - (1.0 - 0.75f64.powi(2))).abs() < 1e-12);
/// # Ok::<(), manet_core::CoreError>(())
/// ```
pub fn connectivity_probability_exact(n: usize, r: f64, l: f64) -> Result<f64, CoreError> {
    use manet_stats::special::{ln_binomial, log_sum_exp};

    if n == 0 {
        return Err(CoreError::Invalid {
            reason: "n must be at least 1".into(),
        });
    }
    if !(r.is_finite() && r > 0.0 && l.is_finite() && l > 0.0) {
        return Err(CoreError::Invalid {
            reason: format!("r and l must be positive, got r={r}, l={l}"),
        });
    }
    if n == 1 || r >= l {
        return Ok(1.0);
    }
    let ratio = r / l;
    let mut pos = Vec::new();
    let mut neg = Vec::new();
    for k in 0..n {
        let base = 1.0 - k as f64 * ratio;
        if base <= 0.0 {
            break; // (x)_+ = 0 from here on
        }
        let ln_term = ln_binomial((n - 1) as u64, k as u64) + n as f64 * base.ln();
        if k % 2 == 0 {
            pos.push(ln_term);
        } else {
            neg.push(ln_term);
        }
    }
    let p = log_sum_exp(&pos).exp() - log_sum_exp(&neg).exp();
    Ok(p.clamp(0.0, 1.0))
}

/// Whether the 1-D placement contains an **isolated node** at range
/// `r`: a node with no other node within distance `r`.
///
/// The existence of an isolated node is the disconnection witness used
/// by the earlier lower-bound analysis (\[11\] in the paper's
/// references) that the paper's occupancy argument improves upon: every
/// isolated node disconnects the graph, but "the class of disconnected
/// point graphs is much larger than the class of point graphs
/// containing at least one isolated node" (§3). Compare with
/// [`lemma1_gap_witness`]; experiment T5 measures how much tighter the
/// gap witness is.
///
/// # Errors
///
/// Returns [`CoreError::Invalid`] for non-finite positions or
/// non-positive `r`.
pub fn has_isolated_node(positions: &[f64], r: f64) -> Result<bool, CoreError> {
    if !(r.is_finite() && r > 0.0) {
        return Err(CoreError::Invalid {
            reason: format!("r must be positive, got {r}"),
        });
    }
    if positions.iter().any(|p| !p.is_finite()) {
        return Err(CoreError::Invalid {
            reason: "positions must be finite".into(),
        });
    }
    let n = positions.len();
    if n <= 1 {
        return Ok(false);
    }
    let mut sorted = positions.to_vec();
    #[expect(
        clippy::expect_used,
        reason = "comparator is total: positions validated finite before sorting"
    )]
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("positions checked finite"));
    for i in 0..n {
        let left_far = i == 0 || sorted[i] - sorted[i - 1] > r;
        let right_far = i == n - 1 || sorted[i + 1] - sorted[i] > r;
        if left_far && right_far {
            return Ok(true);
        }
    }
    Ok(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_geom::Point;
    use manet_graph::critical_range;
    use rand::{RngExt, SeedableRng};

    #[test]
    fn critical_range_small_cases() {
        assert_eq!(critical_range_1d(&[]).unwrap(), 0.0);
        assert_eq!(critical_range_1d(&[3.0]).unwrap(), 0.0);
        assert_eq!(critical_range_1d(&[1.0, 4.0]).unwrap(), 3.0);
        assert_eq!(critical_range_1d(&[4.0, 1.0, 2.0]).unwrap(), 2.0);
        assert!(critical_range_1d(&[1.0, f64::NAN]).is_err());
    }

    #[test]
    fn max_gap_equals_mst_bottleneck() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(61);
        for _ in 0..20 {
            let xs: Vec<f64> = (0..50).map(|_| rng.random_range(0.0..1000.0)).collect();
            let fast = critical_range_1d(&xs).unwrap();
            let pts: Vec<Point<1>> = xs.iter().map(|&x| Point::new([x])).collect();
            let slow = critical_range(&pts);
            assert!((fast - slow).abs() < 1e-9, "{fast} vs {slow}");
        }
    }

    #[test]
    fn connectivity_threshold_exact() {
        let xs = [0.0, 2.0, 5.0];
        assert!(is_connected_1d(&xs, 3.0).unwrap());
        assert!(!is_connected_1d(&xs, 2.9).unwrap());
        assert!(is_connected_1d(&[], 1.0).unwrap());
        assert!(is_connected_1d(&[7.0], 0.1).unwrap());
        assert!(is_connected_1d(&xs, 0.0).is_err());
    }

    #[test]
    fn largest_component_counts_runs() {
        let xs = [0.0, 1.0, 2.0, 10.0, 11.0];
        assert_eq!(largest_component_1d(&xs, 1.0).unwrap(), 3);
        assert_eq!(largest_component_1d(&xs, 0.5).unwrap(), 1);
        assert_eq!(largest_component_1d(&xs, 10.0).unwrap(), 5);
        assert_eq!(largest_component_1d(&[], 1.0).unwrap(), 0);
        assert_eq!(largest_component_1d(&[4.0], 1.0).unwrap(), 1);
    }

    #[test]
    fn largest_component_matches_graph_path() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(62);
        for _ in 0..10 {
            let xs: Vec<f64> = (0..30).map(|_| rng.random_range(0.0..200.0)).collect();
            let r = rng.random_range(2.0..20.0);
            let fast = largest_component_1d(&xs, r).unwrap();
            let pts: Vec<Point<1>> = xs.iter().map(|&x| Point::new([x])).collect();
            let g = manet_graph::AdjacencyList::from_points_brute_force(&pts, r);
            let slow = manet_graph::components::largest_component_size(&g);
            assert_eq!(fast, slow);
        }
    }

    #[test]
    fn gap_witness_implies_disconnection() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(63);
        let (l, r, n) = (100.0, 5.0, 12);
        let mut witnessed = 0;
        for _ in 0..200 {
            let xs: Vec<f64> = (0..n).map(|_| rng.random_range(0.0..l)).collect();
            if lemma1_gap_witness(&xs, l, r) {
                witnessed += 1;
                assert!(
                    !is_connected_1d(&xs, r).unwrap(),
                    "Lemma 1 witness must imply disconnection"
                );
            }
        }
        assert!(witnessed > 0, "test never exercised the witness");
    }

    #[test]
    fn lower_bound_is_a_lower_bound_empirically() {
        // Estimate P(disconnected) by Monte Carlo and compare.
        let (n, r, l) = (20usize, 4.0, 100.0);
        let bound = disconnection_probability_lower_bound(n, r, l).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(64);
        let trials = 4000;
        let mut disconnected = 0;
        for _ in 0..trials {
            let xs: Vec<f64> = (0..n).map(|_| rng.random_range(0.0..l)).collect();
            if !is_connected_1d(&xs, r).unwrap() {
                disconnected += 1;
            }
        }
        let p_disc = disconnected as f64 / trials as f64;
        // Allow Monte-Carlo noise: bound <= p + 4σ.
        let sigma = (p_disc * (1.0 - p_disc) / trials as f64).sqrt();
        assert!(
            bound <= p_disc + 4.0 * sigma + 1e-9,
            "bound {bound} exceeds empirical disconnection probability {p_disc}"
        );
        assert!(bound > 0.0);
    }

    #[test]
    fn lower_bound_validation() {
        assert!(disconnection_probability_lower_bound(0, 1.0, 10.0).is_err());
        assert!(disconnection_probability_lower_bound(5, 0.0, 10.0).is_err());
        assert!(disconnection_probability_lower_bound(5, 1.0, -1.0).is_err());
    }

    #[test]
    fn isolated_node_small_cases() {
        // Node at 5 is isolated from {0, 1} at r = 2.
        assert!(has_isolated_node(&[0.0, 1.0, 5.0], 2.0).unwrap());
        // At r = 4 it can reach node 1.
        assert!(!has_isolated_node(&[0.0, 1.0, 5.0], 4.0).unwrap());
        // Degenerate placements have no isolated nodes by convention.
        assert!(!has_isolated_node(&[], 1.0).unwrap());
        assert!(!has_isolated_node(&[3.0], 1.0).unwrap());
        assert!(has_isolated_node(&[0.0, 10.0], 1.0).unwrap());
        assert!(has_isolated_node(&[f64::NAN], 1.0).is_err());
        assert!(has_isolated_node(&[1.0], 0.0).is_err());
    }

    #[test]
    fn isolated_node_implies_disconnected() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(65);
        let mut witnessed = 0;
        for _ in 0..200 {
            let xs: Vec<f64> = (0..15).map(|_| rng.random_range(0.0..100.0)).collect();
            if has_isolated_node(&xs, 5.0).unwrap() {
                witnessed += 1;
                assert!(!is_connected_1d(&xs, 5.0).unwrap());
            }
        }
        assert!(witnessed > 0, "witness never exercised");
    }

    #[test]
    fn connectivity_probability_exact_small_cases() {
        // n = 1 always connected; r >= l always connected.
        assert_eq!(connectivity_probability_exact(1, 0.1, 10.0).unwrap(), 1.0);
        assert_eq!(connectivity_probability_exact(5, 10.0, 10.0).unwrap(), 1.0);
        // n = 2: P = 1 - (1 - r/l)^2.
        for r in [1.0, 2.5, 5.0, 9.0] {
            let want = 1.0 - (1.0 - r / 10.0f64).powi(2);
            let got = connectivity_probability_exact(2, r, 10.0).unwrap();
            assert!((got - want).abs() < 1e-12, "r = {r}");
        }
        assert!(connectivity_probability_exact(0, 1.0, 10.0).is_err());
        assert!(connectivity_probability_exact(3, 0.0, 10.0).is_err());
    }

    #[test]
    fn connectivity_probability_exact_matches_monte_carlo() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(67);
        for (n, r, l) in [
            (3usize, 3.0, 10.0),
            (5, 2.0, 10.0),
            (10, 8.0, 50.0),
            (20, 9.0, 100.0),
        ] {
            let exact = connectivity_probability_exact(n, r, l).unwrap();
            let trials = 20_000;
            let mut connected = 0;
            for _ in 0..trials {
                let xs: Vec<f64> = (0..n).map(|_| rng.random_range(0.0..l)).collect();
                if is_connected_1d(&xs, r).unwrap() {
                    connected += 1;
                }
            }
            let emp = connected as f64 / trials as f64;
            let sigma = (exact * (1.0 - exact) / trials as f64).sqrt().max(1e-4);
            assert!(
                (exact - emp).abs() < 5.0 * sigma,
                "n={n}, r={r}: exact {exact} vs MC {emp}"
            );
        }
    }

    #[test]
    fn connectivity_probability_exact_monotone_in_r() {
        let mut prev = 0.0;
        for i in 1..=40 {
            let r = i as f64 * 0.5;
            let p = connectivity_probability_exact(12, r, 20.0).unwrap();
            assert!(p >= prev - 1e-12, "not monotone at r = {r}");
            assert!((0.0..=1.0).contains(&p));
            prev = p;
        }
        assert!((prev - 1.0).abs() < 1e-12);
    }

    #[test]
    fn gap_witness_is_not_weaker_than_isolation_witness() {
        // Both are sufficient conditions; empirically the gap fires at
        // least as often near the threshold (the paper's motivation).
        let mut rng = rand::rngs::StdRng::seed_from_u64(66);
        let (n, l) = (30usize, 120.0);
        let r = 4.0; // C = 30 cells, alpha = 1: inside the window
        let (mut gap, mut isolated) = (0u32, 0u32);
        for _ in 0..500 {
            let xs: Vec<f64> = (0..n).map(|_| rng.random_range(0.0..l)).collect();
            if lemma1_gap_witness(&xs, l, r) {
                gap += 1;
            }
            if has_isolated_node(&xs, r).unwrap() {
                isolated += 1;
            }
        }
        assert!(
            gap >= isolated / 2,
            "gap witness fired {gap}, isolation witness {isolated}"
        );
    }
}
