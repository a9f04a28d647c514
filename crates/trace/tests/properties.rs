//! Property tests: the delta-stream recorder agrees with a
//! from-scratch oracle that recomputes every temporal metric from the
//! full per-step edge sets.

use manet_geom::Point;
use manet_graph::{AdjacencyList, ComponentSummary, DynamicComponents, DynamicGraph};
use manet_trace::{TraceRecorder, TraceSummary};
use proptest::prelude::*;
use std::collections::BTreeSet;

const SIDE: f64 = 50.0;

/// Chunks a flat coordinate stream into a trajectory of `n`-node steps.
fn trajectory(n: usize, flat: &[(f64, f64)]) -> Vec<Vec<Point<2>>> {
    flat.chunks_exact(n)
        .map(|c| c.iter().map(|&(x, y)| Point::new([x, y])).collect())
        .collect()
}

/// Oracle: recompute lifetimes/inter-contacts/outages/isolation by
/// scanning full edge sets per step, no deltas involved.
struct Oracle {
    lifetimes: Vec<usize>,
    lifetimes_censored: usize,
    intercontacts: Vec<usize>,
    /// Pairs that have linked and are apart at the horizon.
    intercontacts_censored: usize,
    outages: Vec<usize>,
    connected_steps: usize,
    isolation_spells: Vec<usize>,
    isolation_censored: usize,
    time_to_repair: Option<usize>,
}

fn oracle(steps: &[Vec<Point<2>>], r: f64) -> Oracle {
    let n = steps[0].len();
    let graphs: Vec<AdjacencyList> = steps
        .iter()
        .map(|pts| AdjacencyList::from_points_brute_force(pts, r))
        .collect();
    let edge_sets: Vec<BTreeSet<(usize, usize)>> =
        graphs.iter().map(|g| g.edges().collect()).collect();

    let mut lifetimes = Vec::new();
    let mut lifetimes_censored = 0;
    let mut intercontacts = Vec::new();
    let mut intercontacts_censored = 0;
    // Per-pair up/down scan.
    for a in 0..n {
        for b in (a + 1)..n {
            let series: Vec<bool> = edge_sets.iter().map(|s| s.contains(&(a, b))).collect();
            let mut run_start = 0usize;
            for t in 1..=series.len() {
                if t == series.len() || series[t] != series[t - 1] {
                    let len = t - run_start;
                    if series[t - 1] {
                        if t == series.len() {
                            lifetimes_censored += 1;
                        } else {
                            lifetimes.push(len);
                        }
                    } else if run_start > 0 {
                        // A gap after a contact: completed by the next
                        // contact, or still open at the horizon.
                        if t < series.len() {
                            intercontacts.push(len);
                        } else {
                            intercontacts_censored += 1;
                        }
                    }
                    run_start = t;
                }
            }
        }
    }

    // Connectivity episodes.
    let connected: Vec<bool> = graphs
        .iter()
        .map(|g| ComponentSummary::of(g).is_connected())
        .collect();
    let mut outages = Vec::new();
    let mut time_to_repair = None;
    let mut run_start = 0usize;
    for t in 1..=connected.len() {
        if t == connected.len() || connected[t] != connected[t - 1] {
            if !connected[t - 1] && t < connected.len() {
                outages.push(t - run_start);
                if time_to_repair.is_none() {
                    time_to_repair = Some(t - run_start);
                }
            }
            run_start = t;
        }
    }

    // Isolation spells.
    let mut isolation_spells = Vec::new();
    let mut isolation_censored = 0;
    for i in 0..n {
        let series: Vec<bool> = graphs.iter().map(|g| g.degree(i) == 0).collect();
        let mut run_start = 0usize;
        for t in 1..=series.len() {
            if t == series.len() || series[t] != series[t - 1] {
                if series[t - 1] {
                    if t == series.len() {
                        isolation_censored += 1;
                    } else {
                        isolation_spells.push(t - run_start);
                    }
                }
                run_start = t;
            }
        }
    }

    Oracle {
        lifetimes,
        lifetimes_censored,
        intercontacts,
        intercontacts_censored,
        outages,
        connected_steps: connected.iter().filter(|&&c| c).count(),
        isolation_spells,
        isolation_censored,
        time_to_repair,
    }
}

fn record(steps: &[Vec<Point<2>>], r: f64) -> manet_trace::TemporalRecord {
    let mut dg = DynamicGraph::new(&steps[0], SIDE, r);
    let mut dc = DynamicComponents::new(steps[0].len());
    let mut rec = TraceRecorder::new(steps[0].len(), steps.len());
    dc.apply(dg.last_diff(), dg.graph());
    rec.observe_with(dg.last_diff(), dg.graph(), &dc);
    for pts in &steps[1..] {
        dg.step(pts);
        dc.apply(dg.last_diff(), dg.graph());
        rec.observe_with(dg.last_diff(), dg.graph(), &dc);
    }
    rec.finish()
}

fn mean(xs: &[usize]) -> Option<f64> {
    if xs.is_empty() {
        None
    } else {
        Some(xs.iter().sum::<usize>() as f64 / xs.len() as f64)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn recorder_matches_full_rescan_oracle(
        n in 2usize..10,
        flat in prop::collection::vec((0.0..SIDE, 0.0..SIDE), 30..240),
        r in 3.0..25.0f64,
    ) {
        let steps = trajectory(n, &flat);
        prop_assume!(steps.len() >= 2);
        let got = record(&steps, r);
        let want = oracle(&steps, r);

        prop_assert_eq!(got.lifetimes.count() as usize, want.lifetimes.len());
        prop_assert_eq!(got.lifetimes.censored() as usize, want.lifetimes_censored);
        prop_assert_eq!(got.intercontacts.count() as usize, want.intercontacts.len());
        prop_assert_eq!(
            got.intercontacts.censored() as usize,
            want.intercontacts_censored
        );
        prop_assert_eq!(got.outages.count() as usize, want.outages.len());
        prop_assert_eq!(got.isolation.count() as usize, want.isolation_spells.len());
        prop_assert_eq!(got.isolation.censored() as usize, want.isolation_censored);
        prop_assert_eq!(got.connected_steps, want.connected_steps);
        prop_assert_eq!(got.time_to_repair, want.time_to_repair);

        for (label, got_mean, want_mean) in [
            ("lifetime", got.lifetimes.mean(), mean(&want.lifetimes)),
            ("intercontact", got.intercontacts.mean(), mean(&want.intercontacts)),
            ("outage", got.outages.mean(), mean(&want.outages)),
            ("isolation", got.isolation.mean(), mean(&want.isolation_spells)),
        ] {
            match (got_mean, want_mean) {
                (None, None) => {}
                (Some(g), Some(w)) => prop_assert!(
                    (g - w).abs() < 1e-9,
                    "{} mean: recorder {} oracle {}", label, g, w
                ),
                other => prop_assert!(false, "{} mean mismatch: {:?}", label, other),
            }
        }
    }

    #[test]
    fn availability_bounds_and_aggregation(
        n in 2usize..8,
        flat in prop::collection::vec((0.0..SIDE, 0.0..SIDE), 16..160),
        r in 3.0..30.0f64,
    ) {
        let steps = trajectory(n, &flat);
        prop_assume!(!steps.is_empty());
        let rec = record(&steps, r);
        prop_assert!((0.0..=1.0).contains(&rec.availability));
        prop_assert!((0.0..=1.0 + 1e-12).contains(&rec.path_availability));
        // Path availability dominates the connectivity indicator.
        prop_assert!(rec.path_availability >= rec.availability - 1e-12);
        // Every up event is accounted for exactly once.
        prop_assert_eq!(
            rec.link_up_events,
            rec.lifetimes.count() + rec.lifetimes.censored()
        );
        prop_assert_eq!(
            rec.link_down_events,
            rec.intercontacts.count() + rec.intercontacts.censored()
        );
        // Aggregating the single record reproduces its headline values.
        let availability = rec.availability;
        let s = TraceSummary::aggregate(&[rec]).unwrap();
        prop_assert_eq!(s.availability, availability);
        prop_assert_eq!(s.iterations, 1);
    }
}
