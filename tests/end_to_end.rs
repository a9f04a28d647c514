//! Cross-crate integration: the full experiment pipelines at small
//! scale, exercised through the public facade only.

use manet::geom::{Point, Region};
use manet::graph::{components, critical_range, AdjacencyList};
use manet::mobility::{Drunkard, RandomWaypoint};
use manet::occupancy::{patterns, Occupancy};
use manet::sim::{
    bisect_critical_range, simulate_critical_ranges, simulate_fixed_ranges, ConnectivityMetric,
    CriticalRangeSearch, SimConfig, StationaryAnalysis,
};
use manet::{one_dim, theorems, MtrProblem, MtrmProblem};
use rand::SeedableRng;

#[test]
fn figure2_pipeline_miniature() {
    // One cell of Figure 2 end to end: stationary calibration, mobile
    // campaign, ratios. Qualitative invariants only (shape, ordering).
    let (l, n) = (256.0, 16);
    let mtr = MtrProblem::<2>::new(n, l).unwrap();
    let r_stat = mtr.r_stationary(0.99, 300, 1).unwrap();
    assert!(r_stat > 0.0 && r_stat < mtr.worst_case_range());

    let problem = MtrmProblem::new(
        SimConfig::<2>::builder()
            .nodes(n)
            .side(l)
            .iterations(8)
            .steps(400)
            .seed(2)
            .build()
            .unwrap(),
        RandomWaypoint::new(0.1, 2.56, 80, 0.0).unwrap(),
    );
    let sol = problem.solve().unwrap();
    let (r100, r90, r10, r0) = (
        sol.ranges.r100.mean(),
        sol.ranges.r90.mean(),
        sol.ranges.r10.mean(),
        sol.ranges.r0.mean(),
    );
    assert!(r100 > r90 && r90 > r10 && r10 > r0);
    // The mobile "always connected" range is comparable to the
    // stationary calibration — within a factor two at this tiny scale.
    assert!(r100 / r_stat > 0.5 && r100 / r_stat < 2.0);
}

#[test]
fn figure6_pipeline_miniature() {
    let problem = MtrmProblem::new(
        SimConfig::<2>::builder()
            .nodes(16)
            .side(256.0)
            .iterations(5)
            .steps(200)
            .seed(3)
            .build()
            .unwrap(),
        RandomWaypoint::new(0.1, 2.56, 40, 0.0).unwrap(),
    );
    let campaign = problem.campaign().unwrap();
    let rl = campaign
        .ranges_for_component_fractions(&[0.9, 0.75, 0.5])
        .unwrap();
    // rl50 <= rl75 <= rl90 < r100.
    assert!(rl[2].1 <= rl[1].1 && rl[1].1 <= rl[0].1);
    let r100 = campaign.solution().ranges.r100.mean();
    assert!(rl[0].1 < r100);
}

#[test]
fn fast_and_slow_paths_agree_through_facade() {
    let mut b = SimConfig::<2>::builder();
    b.nodes(12).side(128.0).iterations(2).steps(20).seed(4);
    let cfg = b.build().unwrap();
    let model = RandomWaypoint::new(0.1, 1.28, 4, 0.0).unwrap();
    let fast = simulate_critical_ranges(&cfg, &model)
        .unwrap()
        .pooled()
        .unwrap()
        .smallest_covering(0.9)
        .unwrap();
    let search = CriticalRangeSearch::new()
        .with_metric(ConnectivityMetric::KConnectivity(1))
        .with_target(0.9)
        .with_rel_tol(1e-5 / 128.0);
    let slow = bisect_critical_range(&cfg, &model, &search).unwrap().range;
    assert!((fast - slow).abs() < 1e-3, "fast {fast} vs slow {slow}");
}

#[test]
fn one_dim_theory_consistent_with_geometry_stack() {
    // The 1-D fast path, the generic MST path, and the occupancy gap
    // witness must tell one coherent story on the same placement.
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let region: Region<1> = Region::new(1000.0).unwrap();
    let placement = region.place_uniform(40, &mut rng);
    let xs: Vec<f64> = placement.iter().map(|p| p.coord(0)).collect();

    let fast = one_dim::critical_range_1d(&xs).unwrap();
    let generic = critical_range(&placement);
    assert!((fast - generic).abs() < 1e-9);

    // Below the critical range the graph is disconnected; if Lemma 1's
    // witness fires, it must agree.
    let r = fast * 0.8;
    let graph = AdjacencyList::from_points(&placement, 1000.0, r);
    assert!(!components::is_connected(&graph));
    if patterns::is_disconnected_by_gap(&xs, 1000.0, r) {
        assert!(!one_dim::is_connected_1d(&xs, r).unwrap());
    }
}

#[test]
fn theorem5_threshold_brackets_simulation() {
    // At 2x the Theorem 5 threshold the 1-D network is almost always
    // connected; at 0.3x it almost never is.
    let (n, l) = (512usize, 512.0);
    let r_star = theorems::threshold_range(n, l).unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(6);
    let region: Region<1> = Region::new(l).unwrap();
    let trials = 150;
    let mut high = 0;
    let mut low = 0;
    for _ in 0..trials {
        let xs: Vec<f64> = region
            .place_uniform(n, &mut rng)
            .iter()
            .map(|p| p[0])
            .collect();
        if one_dim::is_connected_1d(&xs, 2.0 * r_star).unwrap() {
            high += 1;
        }
        if one_dim::is_connected_1d(&xs, 0.3 * r_star).unwrap() {
            low += 1;
        }
    }
    assert!(
        high as f64 / (trials as f64) > 0.9,
        "connected {high}/{trials} at 2r*"
    );
    assert!(
        low as f64 / (trials as f64) < 0.1,
        "connected {low}/{trials} at 0.3r*"
    );
}

#[test]
fn occupancy_gap_bound_vs_simulated_disconnection() {
    // The exact occupancy gap probability lower-bounds the empirical
    // 1-D disconnection probability through the facade.
    let (n, r, l) = (30usize, 6.0, 120.0);
    let bound = one_dim::disconnection_probability_lower_bound(n, r, l).unwrap();
    let occ = Occupancy::new(n as u64, (l / r) as u64).unwrap();
    let direct = patterns::gap_probability(&occ).unwrap();
    assert!((bound - direct).abs() < 1e-12);

    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let region: Region<1> = Region::new(l).unwrap();
    let trials = 2000;
    let mut disconnected = 0;
    for _ in 0..trials {
        let xs: Vec<f64> = region
            .place_uniform(n, &mut rng)
            .iter()
            .map(|p| p[0])
            .collect();
        if !one_dim::is_connected_1d(&xs, r).unwrap() {
            disconnected += 1;
        }
    }
    let p = disconnected as f64 / trials as f64;
    let sigma = (p * (1.0 - p) / trials as f64).sqrt();
    assert!(bound <= p + 5.0 * sigma, "bound {bound} vs empirical {p}");
}

#[test]
fn paper_simulator_interface_reports_all_fields() {
    let mut b = SimConfig::<2>::builder();
    b.nodes(10).side(100.0).iterations(4).steps(25).seed(8);
    let cfg = b.build().unwrap();
    let model = Drunkard::new(0.1, 0.3, 1.0).unwrap();
    let report = simulate_fixed_ranges(&cfg, &model, &[35.0])
        .unwrap()
        .remove(0);
    assert_eq!(report.iterations.len(), 4);
    for it in &report.iterations {
        assert_eq!(it.steps, 25);
        assert!(it.connected_steps <= it.steps);
        assert!(it.min_largest >= 1 && it.min_largest <= 10);
        assert!(it.avg_largest >= it.min_largest as f64);
    }
    let frac = report.connectivity_fraction();
    assert!((0.0..=1.0).contains(&frac));
}

#[test]
fn stationary_analysis_matches_mtr_facade() {
    let analysis = StationaryAnalysis::run::<2>(20, 200.0, 100, 9, None).unwrap();
    let problem = MtrProblem::<2>::new(20, 200.0).unwrap();
    let via_problem = problem.r_stationary(0.9, 100, 9).unwrap();
    let direct = analysis.r_stationary(0.9).unwrap();
    // Different seed-mixing constants are used internally, so only the
    // scale must agree.
    assert!(via_problem > 0.5 * direct && via_problem < 2.0 * direct);
}

#[test]
fn points_roundtrip_through_public_api() {
    let p = Point::new([1.0, 2.0]);
    let q = Point::new([4.0, 6.0]);
    assert_eq!(p.distance(&q), 5.0);
    let region: Region<2> = Region::new(10.0).unwrap();
    assert!(region.contains(&p));
}
