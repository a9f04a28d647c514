//! Up/down run analysis: MTBF, MTTR and outage structure.
//!
//! The paper's introduction frames connectivity as availability: the
//! network is "up" when connected and "down" otherwise. Availability
//! alone hides the *structure* of the downtime — a network that is up
//! 90% of the time in one contiguous block behaves very differently
//! from one that flaps every few steps. This module analyzes the
//! **time-ordered** connectivity sequence (the critical-range series
//! *before* sorting) into up/down runs, yielding the dependability
//! quantities engineers actually provision against: mean time between
//! failures, mean time to repair, and the longest outage.

use crate::{config::SimConfig, critical::simulate_raw_critical_series, SimError};
use manet_mobility::Mobility;

/// Up/down run statistics of one iteration at a fixed range.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct UptimeReport {
    /// Steps observed.
    pub steps: usize,
    /// Fraction of steps connected ("up").
    pub availability: f64,
    /// Number of up→down transitions (failures).
    pub failures: usize,
    /// Mean length of up runs, in steps (`None` when never up).
    pub mean_up_run: Option<f64>,
    /// Mean length of down runs, in steps (`None` when never down).
    pub mean_down_run: Option<f64>,
    /// Longest contiguous outage, in steps (0 when never down).
    pub longest_outage: usize,
}

impl UptimeReport {
    /// Analyzes a time-ordered critical-range series at range `r`
    /// (step `t` is up iff `series[t] <= r`).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for an empty series or a
    /// non-positive/non-finite range.
    pub fn from_series(series: &[f64], r: f64) -> Result<Self, SimError> {
        if series.is_empty() {
            return Err(SimError::InvalidConfig {
                reason: "uptime analysis requires a non-empty series".into(),
            });
        }
        if !(r.is_finite() && r > 0.0) {
            return Err(SimError::InvalidConfig {
                reason: format!("range must be positive and finite, got {r}"),
            });
        }
        let mut up_runs: Vec<usize> = Vec::new();
        let mut down_runs: Vec<usize> = Vec::new();
        let mut current_up = series[0] <= r;
        let mut run_len = 0usize;
        let mut up_steps = 0usize;
        let mut failures = 0usize;
        for &c in series {
            let up = c <= r;
            if up {
                up_steps += 1;
            }
            if up == current_up {
                run_len += 1;
            } else {
                if current_up {
                    up_runs.push(run_len);
                    failures += 1;
                } else {
                    down_runs.push(run_len);
                }
                current_up = up;
                run_len = 1;
            }
        }
        if current_up {
            up_runs.push(run_len);
        } else {
            down_runs.push(run_len);
        }
        let mean = |runs: &[usize]| {
            if runs.is_empty() {
                None
            } else {
                Some(runs.iter().sum::<usize>() as f64 / runs.len() as f64)
            }
        };
        Ok(UptimeReport {
            steps: series.len(),
            availability: up_steps as f64 / series.len() as f64,
            failures,
            mean_up_run: mean(&up_runs),
            mean_down_run: mean(&down_runs),
            longest_outage: down_runs.iter().copied().max().unwrap_or(0),
        })
    }
}

/// Campaign-level aggregation of [`UptimeReport`]s.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct UptimeSummary {
    /// Mean availability across iterations.
    pub availability: f64,
    /// Mean up-run length (MTBF proxy, steps) over iterations that had
    /// any uptime.
    pub mtbf_steps: Option<f64>,
    /// Mean down-run length (MTTR proxy, steps) over iterations that
    /// had any downtime.
    pub mttr_steps: Option<f64>,
    /// Worst outage across all iterations, in steps.
    pub longest_outage: usize,
    /// Mean number of failures per iteration.
    pub failures_per_iteration: f64,
}

/// Runs the campaign and summarizes up/down structure at range `r`.
///
/// # Errors
///
/// Propagates engine and validation errors.
pub fn simulate_uptime<const D: usize, M>(
    config: &SimConfig<D>,
    model: &M,
    r: f64,
) -> Result<UptimeSummary, SimError>
where
    M: Mobility<D> + Clone + Send + Sync,
{
    let series = simulate_raw_critical_series(config, model)?;
    let reports = series
        .iter()
        .map(|s| UptimeReport::from_series(s, r))
        .collect::<Result<Vec<_>, _>>()?;
    let n = reports.len() as f64;
    let availability = reports.iter().map(|x| x.availability).sum::<f64>() / n;
    let mean_over = |get: fn(&UptimeReport) -> Option<f64>| {
        let vals: Vec<f64> = reports.iter().filter_map(get).collect();
        if vals.is_empty() {
            None
        } else {
            Some(vals.iter().sum::<f64>() / vals.len() as f64)
        }
    };
    Ok(UptimeSummary {
        availability,
        mtbf_steps: mean_over(|x| x.mean_up_run),
        mttr_steps: mean_over(|x| x.mean_down_run),
        longest_outage: reports.iter().map(|x| x.longest_outage).max().unwrap_or(0),
        failures_per_iteration: reports.iter().map(|x| x.failures).sum::<usize>() as f64 / n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_mobility::{RandomWaypoint, StationaryModel};

    #[test]
    fn from_series_validates() {
        assert!(UptimeReport::from_series(&[], 1.0).is_err());
        assert!(UptimeReport::from_series(&[1.0], 0.0).is_err());
        assert!(UptimeReport::from_series(&[1.0], f64::NAN).is_err());
    }

    #[test]
    fn always_up_series() {
        let r = UptimeReport::from_series(&[1.0, 2.0, 1.5], 5.0).unwrap();
        assert_eq!(r.availability, 1.0);
        assert_eq!(r.failures, 0);
        assert_eq!(r.mean_up_run, Some(3.0));
        assert_eq!(r.mean_down_run, None);
        assert_eq!(r.longest_outage, 0);
    }

    #[test]
    fn always_down_series() {
        let r = UptimeReport::from_series(&[10.0, 20.0], 5.0).unwrap();
        assert_eq!(r.availability, 0.0);
        assert_eq!(r.failures, 0);
        assert_eq!(r.mean_up_run, None);
        assert_eq!(r.mean_down_run, Some(2.0));
        assert_eq!(r.longest_outage, 2);
    }

    #[test]
    fn alternating_series_counts_runs() {
        // up, down, down, up, up, down at r = 5.
        let series = [1.0, 9.0, 9.0, 1.0, 1.0, 9.0];
        let r = UptimeReport::from_series(&series, 5.0).unwrap();
        assert!((r.availability - 0.5).abs() < 1e-12);
        assert_eq!(r.failures, 2); // up->down at t=1 and t=5
        assert_eq!(r.mean_up_run, Some(1.5)); // runs of 1 and 2
        assert_eq!(r.mean_down_run, Some(1.5)); // runs of 2 and 1
        assert_eq!(r.longest_outage, 2);
    }

    #[test]
    fn boundary_inclusive() {
        // Exactly at the threshold counts as up (connected iff c <= r).
        let r = UptimeReport::from_series(&[5.0], 5.0).unwrap();
        assert_eq!(r.availability, 1.0);
    }

    fn config() -> SimConfig<2> {
        let mut b = SimConfig::<2>::builder();
        b.nodes(10).side(150.0).iterations(4).steps(60).seed(33);
        b.build().unwrap()
    }

    #[test]
    fn stationary_model_never_transitions() {
        let summary = simulate_uptime(&config(), &StationaryModel::new(), 60.0).unwrap();
        assert_eq!(summary.failures_per_iteration, 0.0);
        // Each iteration is entirely up or entirely down.
        assert!(
            summary.availability == 0.0
                || summary.availability == 1.0
                || (summary.availability * 4.0).fract().abs() < 1e-12
        );
    }

    #[test]
    fn availability_matches_quantile_path() {
        let model = RandomWaypoint::new(0.5, 3.0, 2, 0.0).unwrap();
        let cfg = config();
        let r = 55.0;
        let summary = simulate_uptime(&cfg, &model, r).unwrap();
        let crit = crate::critical::simulate_critical_ranges(&cfg, &model).unwrap();
        assert!(
            (summary.availability - crit.connectivity_fraction_at(r)).abs() < 1e-12,
            "uptime {} vs quantile {}",
            summary.availability,
            crit.connectivity_fraction_at(r)
        );
    }

    #[test]
    fn larger_range_fewer_failures() {
        let model = RandomWaypoint::new(0.5, 3.0, 0, 0.0).unwrap();
        let cfg = config();
        let crit = crate::critical::simulate_critical_ranges(&cfg, &model).unwrap();
        let pooled = crit.pooled().unwrap();
        let r_small = pooled.smallest_covering(0.5).unwrap();
        let r_large = pooled.smallest_covering(0.98).unwrap();
        let small = simulate_uptime(&cfg, &model, r_small).unwrap();
        let large = simulate_uptime(&cfg, &model, r_large).unwrap();
        assert!(large.availability > small.availability);
        assert!(large.longest_outage <= small.longest_outage);
    }

    #[test]
    fn raw_series_is_time_ordered_not_sorted() {
        let model = RandomWaypoint::new(0.5, 3.0, 0, 0.0).unwrap();
        let raw = simulate_raw_critical_series(&config(), &model).unwrap();
        assert_eq!(raw.len(), 4);
        // At least one iteration should NOT be sorted (motion makes the
        // series wander); a sorted result would mean we lost time order.
        let any_unsorted = raw.iter().any(|s| s.windows(2).any(|w| w[0] > w[1]));
        assert!(any_unsorted, "raw series suspiciously sorted");
        for s in &raw {
            assert_eq!(s.len(), 60);
        }
    }
}
