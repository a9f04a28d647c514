//! The paper's qualitative claims, held as executable assertions at
//! reduced scale. Each test names the claim and the section it comes
//! from; EXPERIMENTS.md records the quantitative versions at full
//! scale.

use manet::mobility::RandomWaypoint;
use manet::{AnyModel, MtrmProblem, SimConfig};

fn solve(model: impl Into<AnyModel<2>>, steps: usize, seed: u64) -> manet::MtrmSolution {
    MtrmProblem::new(
        SimConfig::<2>::builder()
            .nodes(32)
            .side(1024.0)
            .iterations(8)
            .steps(steps)
            .seed(seed)
            .build()
            .unwrap(),
        model,
    )
    .solve()
    .unwrap()
}

/// §4.2: "r90 is far smaller than r100 (about 35-40% smaller) in both
/// mobility models" — at our reduced horizon we require a clear gap,
/// not the exact percentage.
#[test]
fn r90_is_substantially_below_r100() {
    let cases: [(AnyModel<2>, &str); 2] = [
        (
            RandomWaypoint::new(0.1, 10.24, 400, 0.0).unwrap().into(),
            "waypoint",
        ),
        (
            manet::mobility::Drunkard::new(0.1, 0.3, 10.24)
                .unwrap()
                .into(),
            "drunkard",
        ),
    ];
    for (model, name) in cases {
        let sol = solve(model, 1500, 11);
        let ratio = sol.ranges.r90.mean() / sol.ranges.r100.mean();
        assert!(
            ratio < 0.95,
            "{name}: r90/r100 = {ratio} shows no meaningful saving"
        );
    }
}

/// §4.2: "from a strictly statistical view of connectedness [...]
/// there are no major differences between the two mobility models."
#[test]
fn waypoint_and_drunkard_are_similar() {
    let wp = solve(RandomWaypoint::new(0.1, 10.24, 400, 0.0).unwrap(), 1500, 12);
    let dr = solve(
        manet::mobility::Drunkard::new(0.1, 0.3, 10.24).unwrap(),
        1500,
        12,
    );
    for (a, b, what) in [
        (wp.ranges.r100.mean(), dr.ranges.r100.mean(), "r100"),
        (wp.ranges.r90.mean(), dr.ranges.r90.mean(), "r90"),
        (wp.ranges.r10.mean(), dr.ranges.r10.mean(), "r10"),
    ] {
        let ratio = a / b;
        assert!(
            (0.6..1.7).contains(&ratio),
            "{what}: waypoint {a} vs drunkard {b} differ too much"
        );
    }
}

/// §4.3 / Figure 7: with about half the nodes (or more) stationary,
/// the network behaves like a stationary one: r100 drops toward the
/// all-stationary value as p_stationary crosses ~0.5.
#[test]
fn stationary_fraction_threshold() {
    let all_mobile = solve(RandomWaypoint::new(0.1, 10.24, 400, 0.0).unwrap(), 1000, 13)
        .ranges
        .r100
        .mean();
    let mostly_static = solve(RandomWaypoint::new(0.1, 10.24, 400, 0.8).unwrap(), 1000, 13)
        .ranges
        .r100
        .mean();
    let fully_static = solve(RandomWaypoint::new(0.1, 10.24, 400, 1.0).unwrap(), 1000, 13)
        .ranges
        .r100
        .mean();
    assert!(
        mostly_static < all_mobile,
        "freezing nodes must not increase r100: {mostly_static} vs {all_mobile}"
    );
    // And p = 0.8 is already close to fully static (within 20%).
    assert!(
        (mostly_static / fully_static - 1.0).abs() < 0.2,
        "p=0.8 ({mostly_static}) should approximate stationary ({fully_static})"
    );
}

/// §4.2 / Figures 4-5: when disconnection happens near r90, it is
/// caused by a few stragglers — the largest component stays close
/// to n.
#[test]
fn disconnection_near_r90_leaves_giant_component() {
    let problem = MtrmProblem::new(
        SimConfig::<2>::builder()
            .nodes(32)
            .side(1024.0)
            .iterations(8)
            .steps(1000)
            .seed(14)
            .build()
            .unwrap(),
        RandomWaypoint::new(0.1, 10.24, 200, 0.0).unwrap(),
    );
    let campaign = problem.campaign().unwrap();
    let sol = campaign.solution();
    let profiles = campaign.component_profiles();
    let frac_at_r90 = profiles.mean_average_fraction_at(sol.ranges.r90.mean());
    assert!(
        frac_at_r90 > 0.85,
        "largest component at r90 is only {frac_at_r90} of n"
    );
    // And it shrinks substantially by r0.
    let frac_at_r0 = profiles.mean_average_fraction_at(sol.ranges.r0.mean());
    assert!(frac_at_r0 < frac_at_r90);
}

/// §4.2 / Figure 6: the component-target ranges are ordered
/// rl50 < rl75 < rl90 and all sit below r100.
#[test]
fn component_targets_cost_less_than_full_connectivity() {
    let problem = MtrmProblem::new(
        SimConfig::<2>::builder()
            .nodes(32)
            .side(1024.0)
            .iterations(6)
            .steps(800)
            .seed(15)
            .build()
            .unwrap(),
        RandomWaypoint::new(0.1, 10.24, 160, 0.0).unwrap(),
    );
    let campaign = problem.campaign().unwrap();
    let rl = campaign
        .ranges_for_component_fractions(&[0.5, 0.75, 0.9])
        .unwrap();
    let r100 = campaign.solution().ranges.r100.mean();
    assert!(rl[0].1 < rl[1].1 && rl[1].1 < rl[2].1);
    assert!(
        rl[2].1 < r100,
        "rl90 {} should undercut r100 {r100}",
        rl[2].1
    );
    // The paper's punchline: halving the connectivity goal at least
    // halves the *power* (rl50 well below rl90).
    assert!(rl[0].1 / rl[2].1 < 0.95);
}

/// §4.3 / Figure 9: r100 is almost independent of v_max (except at
/// very low speeds).
#[test]
fn r100_insensitive_to_vmax() {
    let slow = solve(
        RandomWaypoint::new(0.1, 0.1 * 1024.0, 400, 0.0).unwrap(),
        1000,
        16,
    )
    .ranges
    .r100
    .mean();
    let fast = solve(
        RandomWaypoint::new(0.1, 0.5 * 1024.0, 400, 0.0).unwrap(),
        1000,
        16,
    )
    .ranges
    .r100
    .mean();
    let ratio = fast / slow;
    assert!(
        (0.75..1.35).contains(&ratio),
        "r100 moved by {ratio}x between vmax = 0.1l and 0.5l"
    );
}

/// Finite-size scaling (PAPERS.md, arXiv:0806.2351): under
/// density-preserving growth the normalized critical range falls as
/// `rho_c ~ n^(-beta)` with an exponent in the physically sane band
/// `0 < beta < 1` (random geometric graphs give an effective
/// `beta ≈ 0.4-0.5` over practical sizes). Held on the committed
/// golden sweep (`tests/goldens/critical_scaling.csv`) through the
/// library fit path, so a regression in either the finder or the fit
/// fails tier-1 rather than only changing artifacts.
#[test]
fn scaling_exponent_on_golden_sweep_is_physically_sane() {
    let golden =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/critical_scaling.csv");
    let text = std::fs::read_to_string(&golden).unwrap();
    let mut per_model: Vec<(String, Vec<(usize, f64)>)> = Vec::new();
    for line in text.lines().skip(1) {
        let cols: Vec<&str> = line.split(',').collect();
        let (model, n, rho) = (
            cols[0].to_string(),
            cols[1].parse::<usize>().unwrap(),
            cols[4].parse::<f64>().unwrap(),
        );
        match per_model.iter_mut().find(|(m, _)| *m == model) {
            Some((_, points)) => points.push((n, rho)),
            None => per_model.push((model, vec![(n, rho)])),
        }
    }
    assert!(per_model.len() >= 2, "golden sweep should cover 2+ models");
    for (model, points) in per_model {
        assert!(points.len() >= 3, "{model}: need 3+ sweep points");
        let fit = manet::sim::fit_scaling_exponent(&points, 0.95).unwrap();
        assert!(
            fit.beta > 0.0 && fit.beta < 1.0,
            "{model}: beta = {} outside the physically sane band (0, 1)",
            fit.beta
        );
        assert!(fit.ci.contains(fit.beta));
        assert!(
            fit.line.r_squared > 0.8,
            "{model}: power law fits poorly (r2 = {})",
            fit.line.r_squared
        );
    }
}
