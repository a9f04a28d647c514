//! Temporal-trace campaigns: the `manet-trace` subsystem driven by the
//! connectivity stream.
//!
//! [`TraceObserver`] folds each step's [`StepView`] — the edge delta,
//! the snapshot, and the incrementally-maintained components the
//! stream already owns — into a [`manet_trace::TemporalRecord`]. The
//! stream's snapshot reconstruction is grid-accelerated `O(n + E)`
//! per step (never the brute-force `O(n²)`), and everything downstream
//! of it — link bookkeeping and the component summary — is
//! delta-proportional, with no full relabeling. [`simulate_trace`]
//! runs the whole campaign and pools the records into a
//! [`TraceSummary`].

use crate::{
    config::SimConfig,
    stream::{run_connectivity_stream, ConnectivityObserver, StepView},
    SimError,
};
use manet_mobility::Mobility;
use manet_trace::{TemporalRecord, TraceRecorder, TraceSummary};

/// Observer folding one iteration's trajectory into temporal metrics
/// at the stream's transmitting range.
pub struct TraceObserver {
    recorder: TraceRecorder,
}

impl TraceObserver {
    /// Creates an observer for a campaign over `nodes` nodes observed
    /// for `steps` mobility steps. Graph maintenance (side, range) is
    /// owned by the [`run_connectivity_stream`] loop driving it.
    pub fn new(nodes: usize, steps: usize) -> Self {
        TraceObserver {
            recorder: TraceRecorder::new(nodes, steps),
        }
    }
}

impl<const D: usize> ConnectivityObserver<D> for TraceObserver {
    type Output = TemporalRecord;

    fn observe(&mut self, view: &StepView<'_, D>) {
        self.recorder
            .observe_with(view.diff(), view.graph(), view.components());
        // Cumulative roll-up: the last step's value is the iteration's
        // total, which `finish` folds into the record.
        self.recorder.set_kernel_metrics(view.kernel_metrics());
    }

    fn finish(self) -> TemporalRecord {
        self.recorder.finish()
    }
}

/// Runs a campaign and pools every iteration's temporal metrics.
///
/// # Errors
///
/// Returns [`SimError::InvalidConfig`] when `range` is not positive
/// and finite, and propagates engine and aggregation errors.
pub fn simulate_trace<const D: usize, M>(
    config: &SimConfig<D>,
    model: &M,
    range: f64,
) -> Result<TraceSummary, SimError>
where
    M: Mobility<D> + Clone + Send + Sync,
{
    let records = run_connectivity_stream(config, model, Some(range), |_| {
        TraceObserver::new(config.nodes(), config.steps())
    })?;
    TraceSummary::aggregate(&records).map_err(SimError::Trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_mobility::{RandomWaypoint, StationaryModel};

    fn config(iterations: usize, steps: usize, threads: Option<usize>) -> SimConfig<2> {
        let mut b = SimConfig::<2>::builder();
        b.nodes(12)
            .side(120.0)
            .iterations(iterations)
            .steps(steps)
            .seed(2002);
        if let Some(t) = threads {
            b.threads(t);
        }
        b.build().unwrap()
    }

    #[test]
    fn range_is_validated() {
        let cfg = config(1, 1, None);
        let m = StationaryModel::new();
        assert!(simulate_trace(&cfg, &m, 0.0).is_err());
        assert!(simulate_trace(&cfg, &m, f64::NAN).is_err());
        assert!(simulate_trace(&cfg, &m, -3.0).is_err());
    }

    #[test]
    fn stationary_network_has_no_link_events_after_step_zero() {
        let cfg = config(3, 25, None);
        let s = simulate_trace(&cfg, &StationaryModel::new(), 40.0).unwrap();
        assert_eq!(s.iterations, 3);
        assert_eq!(s.steps, 25);
        // Static topology: every link censored, nothing completes.
        assert_eq!(s.link_lifetime.count, 0);
        assert_eq!(s.inter_contact.count, 0);
        assert_eq!(s.outage.count, 0);
        // Availability is all-or-nothing per iteration.
        assert!((s.availability * 3.0).fract().abs() < 1e-12);
        assert_eq!(s.repair.never_repaired, s.repair.disconnected_iterations);
    }

    #[test]
    fn availability_matches_fixed_range_path() {
        let cfg = config(4, 40, None);
        let model = RandomWaypoint::new(0.5, 4.0, 2, 0.0).unwrap();
        for r in [25.0, 45.0, 70.0] {
            let trace = simulate_trace(&cfg, &model, r).unwrap();
            let fixed = crate::fixed::simulate_fixed_range(&cfg, &model, r).unwrap();
            assert!(
                (trace.availability - fixed.connectivity_fraction()).abs() < 1e-12,
                "r={r}: trace {} vs fixed {}",
                trace.availability,
                fixed.connectivity_fraction()
            );
        }
    }

    #[test]
    fn mobile_network_produces_link_events() {
        let cfg = config(3, 60, None);
        let model = RandomWaypoint::new(1.0, 6.0, 0, 0.0).unwrap();
        let s = simulate_trace(&cfg, &model, 35.0).unwrap();
        assert!(s.link_events_per_step > 0.0, "motion must churn edges");
        assert!(
            s.link_lifetime.count > 0,
            "60 fast steps must complete some lifetime"
        );
        assert!(!s.link_lifetime.survival.is_empty());
        assert_eq!(s.link_lifetime.survival[0].survival, 1.0);
    }

    #[test]
    fn larger_range_means_longer_lifetimes_and_higher_availability() {
        let cfg = config(4, 60, None);
        let model = RandomWaypoint::new(1.0, 5.0, 0, 0.0).unwrap();
        let small = simulate_trace(&cfg, &model, 20.0).unwrap();
        let large = simulate_trace(&cfg, &model, 60.0).unwrap();
        assert!(large.availability >= small.availability);
        assert!(large.path_availability >= small.path_availability);
        if let (Some(s), Some(l)) = (small.link_lifetime.mean, large.link_lifetime.mean) {
            assert!(l > s, "lifetime should grow with range: {s} vs {l}");
        }
    }

    #[test]
    fn results_identical_across_thread_counts() {
        let model = RandomWaypoint::new(0.5, 4.0, 1, 0.25).unwrap();
        let single = simulate_trace(&config(6, 30, Some(1)), &model, 45.0).unwrap();
        let multi = simulate_trace(&config(6, 30, Some(4)), &model, 45.0).unwrap();
        assert_eq!(single, multi);
    }
}
