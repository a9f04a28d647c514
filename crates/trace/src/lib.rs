//! Temporal connectivity for mobile ad hoc networks.
//!
//! Santi & Blough (DSN 2002) evaluate connectivity as per-step
//! snapshots: the probability that the communication graph is
//! connected, the size of its largest component, the fraction of
//! *time* the network is up. What the snapshots hide is the
//! *persistence* structure — how long an individual link survives, how
//! long a node pair waits between contacts, how long a partition lasts
//! and how quickly the network heals — the quantities that routing and
//! data-mule protocols actually provision against (cf. Bostelmann 2005
//! on MANET quality measures; Döring, Faraud & König 2015 on
//! connection times).
//!
//! This crate is that missing analysis layer. It sits between the
//! graph/statistics substrates and the simulation engine:
//!
//! * [`manet_graph::DynamicGraph`] (in `manet-graph`) turns a
//!   trajectory into a stream of **edge deltas** — `O(changed edges)`
//!   per step instead of `O(n²)` rebuilds — and
//!   [`manet_graph::DynamicComponents`] maintains the component
//!   summary under that stream (union-find merges on insert-only
//!   steps, one relabel on any step that removes an edge);
//! * [`TraceRecorder`] folds one trajectory's delta stream into link
//!   **events** (edge up/down, plus mean/peak per-step churn) and
//!   connectivity **episodes** (connected/partitioned runs, per-node
//!   isolation spells);
//! * [`IntervalAccumulator`] turns each family of interval durations
//!   into moments + histogram + survival curve (`manet-stats`), with
//!   censoring for intervals still open at the horizon;
//! * [`TemporalRecord`] is one trajectory's folded metrics;
//!   [`TraceSummary::aggregate`] pools them across iterations.
//!
//! `manet-sim`'s `simulate_trace` drives this from its positions-only
//! connectivity stream: its trace observer owns one `DynamicGraph` +
//! `DynamicComponents` kernel per iteration, built from the step-0
//! positions and stepped on every later step, and feeds the recorder
//! from it. `manet-repro trace` sweeps range × mobility model into
//! JSON/CSV artifacts.
//!
//! # Example
//!
//! ```
//! use manet_geom::Point;
//! use manet_graph::{DynamicComponents, DynamicGraph};
//! use manet_trace::{TraceRecorder, TraceSummary};
//!
//! // A two-node network that flaps: up, down, up.
//! let steps = vec![
//!     vec![Point::new([0.0]), Point::new([1.0])],
//!     vec![Point::new([0.0]), Point::new([9.0])],
//!     vec![Point::new([0.0]), Point::new([1.0])],
//! ];
//! let mut dg = DynamicGraph::new(&steps[0], 10.0, 2.0);
//! let mut dc = DynamicComponents::new(2);
//! let mut rec = TraceRecorder::new(2, steps.len());
//! dc.apply(dg.last_diff(), dg.graph());
//! rec.observe_with(dg.last_diff(), dg.graph(), &dc);
//! for pts in &steps[1..] {
//!     dg.step(pts);
//!     dc.apply(dg.last_diff(), dg.graph());
//!     rec.observe_with(dg.last_diff(), dg.graph(), &dc);
//! }
//! let summary = TraceSummary::aggregate(&[rec.finish()])?;
//! assert_eq!(summary.link_lifetime.count, 1);
//! assert_eq!(summary.repair.mean_time_to_repair, Some(1.0));
//! # Ok::<(), manet_trace::TraceError>(())
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod intervals;
pub mod recorder;
pub mod summary;

pub use intervals::{IntervalAccumulator, IntervalSummary, SurvivalPoint};
pub use recorder::{TemporalRecord, TraceRecorder};
pub use summary::{RepairSummary, TraceSummary};

/// Errors produced by the temporal-trace subsystem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceError {
    /// Aggregation was asked for zero iterations.
    EmptyCampaign,
    /// Records with different node counts or horizons were mixed.
    MismatchedRecords,
}

impl core::fmt::Display for TraceError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TraceError::EmptyCampaign => write!(f, "trace aggregation requires >= 1 record"),
            TraceError::MismatchedRecords => {
                write!(f, "temporal records disagree on node count or horizon")
            }
        }
    }
}

impl std::error::Error for TraceError {}

#[cfg(test)]
mod lib_tests {
    use super::*;

    #[test]
    fn error_display_nonempty() {
        assert!(!TraceError::EmptyCampaign.to_string().is_empty());
        assert!(!TraceError::MismatchedRecords.to_string().is_empty());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TraceError>();
    }
}
