//! Quickstart: the two questions the paper answers, in twenty lines.
//!
//! 1. **MTR** — how large must the transmitting range be for `n`
//!    randomly placed nodes to form a connected network?
//! 2. **MTRM** — and if the nodes move, how much larger to *stay*
//!    connected for a required fraction of the time?
//!
//! Run with `cargo run --release --example quickstart`.

use manet::mobility::RandomWaypoint;
use manet::{energy, MtrProblem, MtrmProblem, SimConfig};

fn main() -> Result<(), manet::CoreError> {
    // --- Stationary: 64 sensors scattered over a 4096 x 4096 field.
    let (n, l) = (64, 4096.0);
    let mtr = MtrProblem::<2>::new(n, l)?;
    let analysis = mtr.stationary_analysis(500, 1)?;
    let r_stationary = analysis.r_stationary(0.99)?;
    println!("stationary: n = {n}, l = {l}");
    println!("  r_stationary (99% of placements connected) = {r_stationary:.1}");
    println!(
        "  worst-case (adversarial) placement would need    {:.1}",
        mtr.worst_case_range()
    );

    // --- Mobile: the same network under random waypoint mobility.
    let problem = MtrmProblem::new(
        SimConfig::<2>::builder()
            .nodes(n)
            .side(l)
            .iterations(10)
            .steps(1000)
            .seed(7)
            .build()?,
        RandomWaypoint::new(0.1, 0.01 * l, 200, 0.0)?,
    );
    let solution = problem.solve()?;
    let r100 = solution.ranges.r100.mean();
    let r90 = solution.ranges.r90.mean();
    println!("mobile (random waypoint):");
    println!("  r100 (connected 100% of the time) = {r100:.1}");
    println!("  r90  (connected  90% of the time) = {r90:.1}");

    // --- The paper's punchline: tolerate 10% downtime, save energy.
    let saving = energy::energy_saving(r90, r100, 2.0)?;
    println!(
        "  tolerating 10% disconnection cuts transmit power by {:.0}%",
        saving * 100.0
    );
    Ok(())
}
