//! Dimensioning an airborne sensor deployment (paper §1's motivating
//! scenario): sensors dropped from a plane, some snagging in obstacles,
//! a hard energy budget.
//!
//! Answers the designer's questions with the library:
//! * given the radio, how many sensors for a 99%-likely connected
//!   field? (the paper's alternate MTR formulation)
//! * what does the stationary fraction do to the always-connected
//!   range? (Figure 7's threshold phenomenon)
//! * is the field robust to a single sensor failure? (k-connectivity
//!   extension)
//!
//! Run with `cargo run --release --example sensor_deployment`.

use manet::graph::kconn;
use manet::graph::AdjacencyList;
use manet::mobility::RandomWaypoint;
use manet::{MtrProblem, MtrmProblem, SimConfig};
use rand::SeedableRng;

fn main() -> Result<(), manet::CoreError> {
    let l = 1024.0; // 1 km² field
    let radio = 150.0; // fixed transceiver technology

    // --- How many sensors to be 99% sure the field is connected?
    println!("fixed radio range {radio} m over a {l} m square:");
    let mut needed = None;
    for n in [16, 32, 48, 64, 96, 128] {
        let problem = MtrProblem::<2>::new(n, l)?;
        let p = problem
            .stationary_analysis(400, 11)?
            .connectivity_probability(radio);
        println!("  n = {n:3}: P(connected) = {p:.3}");
        if p >= 0.99 && needed.is_none() {
            needed = Some(n);
        }
    }
    match needed {
        Some(n) => println!("-> deploy at least {n} sensors"),
        None => println!("-> even 128 sensors are not enough; a stronger radio is needed"),
    }

    // --- Entangled sensors: the Figure 7 threshold phenomenon.
    // Drop 64 sensors; a fraction p_s lands in bushes and never moves,
    // the rest drift (animals, water) as random waypoints.
    let n = 64;
    println!("\n64 sensors, drifting unless entangled (random waypoint):");
    let mut r100_all_mobile = None;
    for p_stationary in [0.0, 0.25, 0.5, 0.75] {
        let problem = MtrmProblem::new(
            SimConfig::<2>::builder()
                .nodes(n)
                .side(l)
                .iterations(8)
                .steps(800)
                .seed(23)
                .build()?,
            RandomWaypoint::new(0.1, 0.01 * l, 160, p_stationary)?,
        );
        let r100 = problem.solve()?.ranges.r100.mean();
        if p_stationary == 0.0 {
            r100_all_mobile = Some(r100);
        }
        let vs = r100 / r100_all_mobile.expect("first iteration sets the baseline");
        println!("  p_stationary = {p_stationary:.2}: r100 = {r100:6.1} m ({vs:.2}x all-mobile)");
    }
    println!("-> roughly half the nodes being stuck makes mobility harmless (paper Fig. 7)");

    // --- Single-failure robustness of one concrete deployment.
    let problem = MtrProblem::<2>::new(n, l)?;
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    let region = manet::geom::Region::<2>::new(l)?;
    let placement = region.place_uniform(n, &mut rng);
    let ctr = problem.critical_range_of(&placement)?;
    println!("\none concrete drop of {n} sensors: critical range = {ctr:.1} m");
    for factor in [1.0, 1.3, 1.6] {
        let g = AdjacencyList::from_points(&placement, l, ctr * factor);
        let kappa = kconn::vertex_connectivity(&g);
        println!(
            "  at {factor:.1}x the critical range: vertex connectivity = {kappa} \
             ({})",
            if kappa >= 2 {
                "survives any single sensor failure"
            } else {
                "a single failure can split the field"
            }
        );
    }
    Ok(())
}
