//! Campaign-level aggregation of per-trajectory temporal records.

use crate::intervals::IntervalSummary;
use crate::recorder::TemporalRecord;
use crate::TraceError;
use manet_obs::KernelMetrics;
use manet_stats::RunningMoments;

/// Repair behavior across a campaign: how quickly the network heals
/// after its first disconnection.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct RepairSummary {
    /// Iterations that disconnected at least once.
    pub disconnected_iterations: usize,
    /// Iterations that never disconnected within the horizon.
    pub never_disconnected: usize,
    /// Iterations that disconnected but never repaired.
    pub never_repaired: usize,
    /// Mean duration of the first outage over iterations that
    /// repaired (`None` when none did).
    pub mean_time_to_repair: Option<f64>,
    /// Worst first-outage duration over iterations that repaired.
    pub max_time_to_repair: Option<f64>,
}

/// Aggregated temporal metrics of one simulation campaign.
///
/// Built by [`TraceSummary::aggregate`] from the per-iteration
/// [`TemporalRecord`]s; this is the JSON artifact the `manet-repro
/// trace` subcommand emits per (model, range) cell.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct TraceSummary {
    /// Iterations aggregated.
    pub iterations: usize,
    /// Node count (identical across iterations).
    pub nodes: usize,
    /// Steps per iteration (identical across iterations).
    pub steps: usize,
    /// Mean fraction of connected steps.
    pub availability: f64,
    /// Mean fraction of node pairs joined by some path.
    pub path_availability: f64,
    /// Mean link up/down events per step — the average edge churn
    /// ([`manet_graph::EdgeDiff::churn`]) over all steps of all
    /// iterations.
    pub link_events_per_step: f64,
    /// Largest single-step edge churn observed in any iteration over
    /// steps `t > 0` (the initial placement's edges are excluded) —
    /// the peak link-dynamics intensity behind the mean.
    pub peak_churn: usize,
    /// Link-lifetime distribution (pooled over iterations).
    pub link_lifetime: IntervalSummary,
    /// Inter-contact-time distribution (pooled).
    pub inter_contact: IntervalSummary,
    /// Per-node isolation-spell distribution (pooled).
    pub isolation: IntervalSummary,
    /// Partition-outage-duration distribution (pooled).
    pub outage: IntervalSummary,
    /// Time-to-repair after the first disconnection.
    pub repair: RepairSummary,
    /// The kernel's deterministic counters summed over all iterations
    /// (`u64` sums commute, so the total is independent of iteration
    /// scheduling and thread count).
    pub kernel: KernelMetrics,
}

impl TraceSummary {
    /// Pools per-iteration records into one campaign summary.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::EmptyCampaign`] for an empty slice and
    /// [`TraceError::MismatchedRecords`] when records disagree on node
    /// count or horizon (they then came from different campaigns).
    pub fn aggregate(records: &[TemporalRecord]) -> Result<Self, TraceError> {
        let first = records.first().ok_or(TraceError::EmptyCampaign)?;
        if records
            .iter()
            .any(|r| r.nodes != first.nodes || r.steps != first.steps)
        {
            return Err(TraceError::MismatchedRecords);
        }

        let mut lifetimes = first.lifetimes.clone();
        let mut intercontacts = first.intercontacts.clone();
        let mut isolation = first.isolation.clone();
        let mut outages = first.outages.clone();
        let mut kernel = first.kernel;
        for r in &records[1..] {
            lifetimes.merge(&r.lifetimes);
            intercontacts.merge(&r.intercontacts);
            isolation.merge(&r.isolation);
            outages.merge(&r.outages);
            kernel.merge(&r.kernel);
        }

        let n = records.len() as f64;
        let availability = records.iter().map(|r| r.availability).sum::<f64>() / n;
        let path_availability = records.iter().map(|r| r.path_availability).sum::<f64>() / n;
        let total_steps: usize = records.iter().map(|r| r.steps).sum();
        let total_events: u64 = records
            .iter()
            .map(|r| r.link_up_events + r.link_down_events)
            .sum();
        let link_events_per_step = total_events as f64 / total_steps.max(1) as f64;
        let peak_churn = records.iter().map(|r| r.peak_churn).max().unwrap_or(0);

        let mut repair_moments = RunningMoments::new();
        let mut disconnected_iterations = 0usize;
        let mut never_repaired = 0usize;
        for r in records {
            if r.first_disconnect_at.is_some() {
                disconnected_iterations += 1;
                match r.time_to_repair {
                    Some(steps) => repair_moments.push(steps as f64),
                    None => never_repaired += 1,
                }
            }
        }
        let repair = RepairSummary {
            disconnected_iterations,
            never_disconnected: records.len() - disconnected_iterations,
            never_repaired,
            mean_time_to_repair: (!repair_moments.is_empty()).then(|| repair_moments.mean()),
            max_time_to_repair: (!repair_moments.is_empty()).then(|| repair_moments.max()),
        };

        Ok(TraceSummary {
            iterations: records.len(),
            nodes: first.nodes,
            steps: first.steps,
            availability,
            path_availability,
            link_events_per_step,
            peak_churn,
            link_lifetime: lifetimes.summarize(),
            inter_contact: intercontacts.summarize(),
            isolation: isolation.summarize(),
            outage: outages.summarize(),
            repair,
            kernel,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceRecorder;
    use manet_geom::Point;
    use manet_graph::{DynamicComponents, DynamicGraph};

    fn record(xs_steps: &[Vec<f64>], range: f64) -> TemporalRecord {
        let pts =
            |xs: &Vec<f64>| -> Vec<Point<1>> { xs.iter().map(|&x| Point::new([x])).collect() };
        let first = pts(&xs_steps[0]);
        let mut dg = DynamicGraph::new(&first, 100.0, range);
        let mut dc = DynamicComponents::new(first.len());
        let mut rec = TraceRecorder::new(first.len(), xs_steps.len());
        dc.apply(dg.last_diff(), dg.graph());
        rec.observe_with(dg.last_diff(), dg.graph(), &dc);
        for xs in &xs_steps[1..] {
            dg.step(&pts(xs));
            dc.apply(dg.last_diff(), dg.graph());
            rec.observe_with(dg.last_diff(), dg.graph(), &dc);
        }
        rec.finish()
    }

    #[test]
    fn aggregate_requires_records() {
        assert_eq!(
            TraceSummary::aggregate(&[]).unwrap_err(),
            TraceError::EmptyCampaign
        );
    }

    #[test]
    fn aggregate_rejects_mixed_campaigns() {
        let a = record(&[vec![0.0, 1.0]], 2.0);
        let b = record(&[vec![0.0, 1.0], vec![0.0, 1.0]], 2.0); // different horizon
        assert_eq!(
            TraceSummary::aggregate(&[a, b]).unwrap_err(),
            TraceError::MismatchedRecords
        );
    }

    #[test]
    fn aggregate_pools_and_averages() {
        // Iteration A: always connected. Iteration B: flaps once.
        let a = record(&[vec![0.0, 1.0], vec![0.0, 1.0], vec![0.0, 1.0]], 2.0);
        let b = record(&[vec![0.0, 1.0], vec![0.0, 50.0], vec![0.0, 1.0]], 2.0);
        let s = TraceSummary::aggregate(&[a, b]).unwrap();
        assert_eq!(s.iterations, 2);
        assert_eq!(s.nodes, 2);
        assert_eq!(s.steps, 3);
        assert!((s.availability - (1.0 + 2.0 / 3.0) / 2.0).abs() < 1e-12);
        assert_eq!(s.link_lifetime.count, 1); // B's first up interval
        assert_eq!(s.link_lifetime.censored, 2); // one open per iteration
        assert_eq!(s.inter_contact.count, 1);
        assert_eq!(s.outage.count, 1);
        assert_eq!(s.repair.disconnected_iterations, 1);
        assert_eq!(s.repair.never_disconnected, 1);
        assert_eq!(s.repair.never_repaired, 0);
        assert_eq!(s.repair.mean_time_to_repair, Some(1.0));
    }

    #[test]
    fn never_repaired_iterations_are_counted_not_averaged() {
        let stuck = record(&[vec![0.0, 50.0], vec![0.0, 50.0]], 1.0);
        let s = TraceSummary::aggregate(&[stuck]).unwrap();
        assert_eq!(s.repair.disconnected_iterations, 1);
        assert_eq!(s.repair.never_repaired, 1);
        assert_eq!(s.repair.mean_time_to_repair, None);
        assert_eq!(s.availability, 0.0);
    }

    #[cfg(feature = "serde")]
    #[test]
    fn summary_serializes_with_stable_keys() {
        let a = record(&[vec![0.0, 1.0], vec![0.0, 50.0], vec![0.0, 1.0]], 2.0);
        let s = TraceSummary::aggregate(&[a]).unwrap();
        let json = serde_json::to_string(&s).unwrap();
        for key in [
            "link_lifetime",
            "inter_contact",
            "outage",
            "repair",
            "path_availability",
            "survival",
        ] {
            assert!(json.contains(key), "missing key `{key}` in {json}");
        }
        // Identical input -> identical bytes (the determinism the
        // artifact tests lean on).
        let again = serde_json::to_string(&s).unwrap();
        assert_eq!(json, again);
    }
}
