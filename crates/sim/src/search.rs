//! Bisection over the transmitting range.
//!
//! The paper found its `r_f` values by re-running the simulator at
//! candidate ranges. [`crate::bisect_critical_range`] reproduces that
//! slow path — [`bisect_monotone`] driven by full re-simulation with
//! the *same* seed — so the fast quantile path of [`crate::critical`]
//! can be validated against it (they must agree, because both answer
//! the same monotone threshold question about the same trajectories).

/// Finds the smallest `r` in `[lo, hi]` with `predicate(r) == true`,
/// assuming the predicate is monotone (false below the threshold, true
/// above). Returns `hi` when even `hi` fails, `lo` when `lo` already
/// holds; the result is within `tol` of the true threshold.
///
/// # Panics
///
/// Panics if `lo > hi`, `tol <= 0`, or any bound is not finite.
pub fn bisect_monotone<F: FnMut(f64) -> bool>(lo: f64, hi: f64, tol: f64, mut predicate: F) -> f64 {
    assert!(lo.is_finite() && hi.is_finite(), "bounds must be finite");
    assert!(lo <= hi, "lo {lo} must not exceed hi {hi}");
    assert!(tol > 0.0, "tolerance must be positive");
    if predicate(lo) {
        return lo;
    }
    if !predicate(hi) {
        return hi;
    }
    let (mut lo, mut hi) = (lo, hi);
    while hi - lo > tol {
        let mid = 0.5 * (lo + hi);
        if predicate(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        bisect_critical_range, simulate_critical_ranges, ConnectivityMetric, CriticalRangeSearch,
        SimConfig,
    };
    use manet_mobility::{Mobility, RandomWaypoint, StationaryModel};

    /// The slow-path `r_f`: bisection on the fraction of connected
    /// steps, `tol` wide.
    fn bisected_range_for_fraction<M>(cfg: &SimConfig<2>, model: &M, fraction: f64, tol: f64) -> f64
    where
        M: Mobility<2> + Clone + Send + Sync,
    {
        let search = CriticalRangeSearch::new()
            .with_metric(ConnectivityMetric::KConnectivity(1))
            .with_target(fraction)
            .with_rel_tol(tol / cfg.side());
        bisect_critical_range(cfg, model, &search).unwrap().range
    }

    /// The fast-path `r_f`: the pooled quantile of per-step critical
    /// ranges.
    fn quantile_range_for_fraction<M>(cfg: &SimConfig<2>, model: &M, fraction: f64) -> f64
    where
        M: Mobility<2> + Clone + Send + Sync,
    {
        let pooled = simulate_critical_ranges(cfg, model)
            .unwrap()
            .pooled()
            .unwrap();
        pooled.smallest_covering(fraction).unwrap()
    }

    #[test]
    fn bisection_finds_known_threshold() {
        let root = bisect_monotone(0.0, 10.0, 1e-9, |x| x >= std::f64::consts::PI);
        assert!((root - std::f64::consts::PI).abs() < 1e-8);
    }

    #[test]
    fn bisection_boundary_behaviour() {
        assert_eq!(bisect_monotone(2.0, 5.0, 1e-6, |_| true), 2.0);
        assert_eq!(bisect_monotone(2.0, 5.0, 1e-6, |_| false), 5.0);
    }

    #[test]
    #[should_panic(expected = "must not exceed")]
    fn bisection_rejects_inverted_bounds() {
        bisect_monotone(5.0, 2.0, 1e-6, |_| true);
    }

    #[test]
    fn fast_and_slow_paths_agree() {
        let mut b = SimConfig::<2>::builder();
        b.nodes(10).side(100.0).iterations(3).steps(25).seed(77);
        let cfg = b.build().unwrap();
        let model = RandomWaypoint::new(0.5, 2.0, 1, 0.0).unwrap();
        for fraction in [0.1, 0.5, 0.9, 1.0] {
            let fast = quantile_range_for_fraction(&cfg, &model, fraction);
            let slow = bisected_range_for_fraction(&cfg, &model, fraction, 1e-6);
            // The slow path bisects to within tol of the exact
            // threshold, which IS the fast path's order statistic.
            assert!(
                (fast - slow).abs() < 1e-4,
                "fraction {fraction}: fast={fast}, slow={slow}"
            );
        }
    }

    #[test]
    fn stationary_case_threshold_is_ctr() {
        let mut b = SimConfig::<2>::builder();
        b.nodes(8).side(80.0).iterations(1).steps(1).seed(13);
        let cfg = b.build().unwrap();
        let model = StationaryModel::new();
        let fast = quantile_range_for_fraction(&cfg, &model, 1.0);
        let slow = bisected_range_for_fraction(&cfg, &model, 1.0, 1e-7);
        assert!((fast - slow).abs() < 1e-5);
    }

    #[test]
    fn fraction_validation() {
        let mut b = SimConfig::<2>::builder();
        b.nodes(5).side(50.0);
        let cfg = b.build().unwrap();
        let model = StationaryModel::new();
        for fraction in [-0.1, 1.1] {
            let search = CriticalRangeSearch::new()
                .with_metric(ConnectivityMetric::KConnectivity(1))
                .with_target(fraction);
            assert!(bisect_critical_range(&cfg, &model, &search).is_err());
        }
    }
}
