//! The energy-versus-quality-of-communication trade-off (paper §4.2)
//! and the "pattern of motion barely matters" headline (§5), on one
//! screen.
//!
//! Compares four mobility models at matched displacement scales, then
//! prices the paper's dependability tiers (always connected / 90% /
//! 10% / half the nodes) in transmit-power terms.
//!
//! Run with `cargo run --release --example mobility_tradeoff`.

use manet::availability::Availability;
use manet::mobility::{Drunkard, RandomDirection, RandomWalk, RandomWaypoint};
use manet::{energy, AnyModel, MtrmProblem, SimConfig};

fn solve(model: AnyModel<2>, l: f64, n: usize) -> Result<(f64, f64, f64), manet::CoreError> {
    let problem = MtrmProblem::new(
        SimConfig::<2>::builder()
            .nodes(n)
            .side(l)
            .iterations(10)
            .steps(1000)
            .seed(31)
            .build()?,
        model,
    );
    let sol = problem.solve()?;
    Ok((
        sol.ranges.r100.mean(),
        sol.ranges.r90.mean(),
        sol.ranges.r10.mean(),
    ))
}

fn main() -> Result<(), manet::CoreError> {
    let (l, n) = (1024.0, 32);
    let step = 0.01 * l; // matched displacement scale for all models
    println!("four mobility models, n = {n}, l = {l}, matched speed {step}/step:");
    println!("{:>18}  {:>8}  {:>8}  {:>8}", "model", "r100", "r90", "r10");
    let models: Vec<(&str, AnyModel<2>)> = vec![
        (
            "random waypoint",
            RandomWaypoint::new(0.1, step, 200, 0.0)?.into(),
        ),
        ("drunkard", Drunkard::new(0.1, 0.3, step)?.into()),
        ("random walk", RandomWalk::new(step, 0.0)?.into()),
        (
            "random direction",
            RandomDirection::new(0.1, step, 200, 0.0)?.into(),
        ),
    ];
    let mut waypoint_r100 = None;
    for (name, model) in models {
        let (r100, r90, r10) = solve(model, l, n)?;
        println!("{name:>18}  {r100:8.1}  {r90:8.1}  {r10:8.1}");
        match waypoint_r100 {
            None => waypoint_r100 = Some(r100),
            Some(baseline) => {
                let ratio = r100 / baseline;
                assert!(
                    (0.5..2.0).contains(&ratio),
                    "models should agree within 2x (paper: pattern barely matters)"
                );
            }
        }
    }
    println!("-> the *pattern* of motion moves the answer far less than its *quantity*\n");

    // Price the dependability tiers in energy.
    let problem = MtrmProblem::new(
        SimConfig::<2>::builder()
            .nodes(n)
            .side(l)
            .iterations(10)
            .steps(1000)
            .seed(31)
            .build()?,
        RandomWaypoint::new(0.1, step, 200, 0.0)?,
    );
    // One fused campaign answers every query below.
    let campaign = problem.campaign()?;
    let sol = campaign.solution();
    let r100 = sol.ranges.r100.mean();
    let tiers = [
        ("life-critical: up 100% of the time", sol.ranges.r100.mean()),
        ("field crew: up 90% of the time", sol.ranges.r90.mean()),
        ("data mule: up 10% of the time", sol.ranges.r10.mean()),
    ];
    println!("dependability tiers priced at path-loss exponent 2:");
    for (what, r) in tiers {
        let saving = energy::energy_saving(r, r100, 2.0)?;
        let availability = Availability::new(sol.availability_at(r))?;
        println!(
            "  {what:<38} r = {r:6.1}  power saving {:>4.0}%  ({availability})",
            saving * 100.0
        );
    }

    // Half-the-nodes tier (the paper's rl50): cheap and often enough.
    let rl = campaign.ranges_for_component_fractions(&[0.5])?;
    let saving = energy::energy_saving(rl[0].1.min(r100), r100, 2.0)?;
    println!(
        "  {:<38} r = {:6.1}  power saving {:>4.0}%",
        "best effort: half the nodes connected",
        rl[0].1,
        saving * 100.0
    );
    Ok(())
}
