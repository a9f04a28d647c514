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

use crate::SimError;

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

impl UptimeSummary {
    /// Summarizes the up/down structure of a campaign's time-ordered
    /// critical-range series (one per iteration, as returned by
    /// [`crate::simulate_raw_critical_series`]) at range `r`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for an empty campaign, an
    /// empty series or a non-positive/non-finite range.
    pub fn from_series(series: &[Vec<f64>], r: f64) -> Result<Self, SimError> {
        if series.is_empty() {
            return Err(SimError::InvalidConfig {
                reason: "uptime analysis requires at least one iteration".into(),
            });
        }
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
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn summary_aggregates_iterations() {
        // Iteration 0: up, down, down, up (one failure, outage 2);
        // iteration 1: always up.
        let series = vec![vec![1.0, 9.0, 9.0, 1.0], vec![1.0; 4]];
        let s = UptimeSummary::from_series(&series, 5.0).unwrap();
        assert!((s.availability - 0.75).abs() < 1e-12);
        assert_eq!(s.mtbf_steps, Some(2.5)); // means 1 and 4
        assert_eq!(s.mttr_steps, Some(2.0)); // only iteration 0 was down
        assert_eq!(s.longest_outage, 2);
        assert_eq!(s.failures_per_iteration, 0.5);
        assert!(UptimeSummary::from_series(&[], 5.0).is_err());
        assert!(UptimeSummary::from_series(&series, 0.0).is_err());
    }
}
