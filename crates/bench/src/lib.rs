//! Shared fixtures for the Criterion benches.
//!
//! Everything here is deterministic (fixed seeds) so bench runs are
//! comparable across machines and commits.

use manet_core::geom::{Point, Region};
use manet_core::mobility::{Drunkard, RandomWaypoint};
use manet_core::{AnyModel, ModelRegistry, MtrmProblem, PaperScale, SimConfig};
use rand::SeedableRng;

pub mod step_kernel;

/// Deterministic uniform placement of `n` nodes in `[0, side]^2`.
pub fn placement(n: usize, side: f64, seed: u64) -> Vec<Point<2>> {
    let region: Region<2> = Region::new(side).expect("positive side");
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    region.place_uniform(n, &mut rng)
}

/// A scaled-down paper cell (`l = 256`, `n = 16`) for pipeline benches:
/// small enough for Criterion's sampling, same code path as Figure 2.
pub fn small_problem(model: impl Into<AnyModel<2>>) -> MtrmProblem<2> {
    MtrmProblem::new(
        SimConfig::<2>::builder()
            .nodes(16)
            .side(256.0)
            .iterations(2)
            .steps(50)
            .seed(404)
            .profile_stride(5)
            .threads(1)
            .build()
            .expect("valid bench configuration"),
        model,
    )
}

/// The paper's random waypoint model at bench scale (pause scaled to
/// the 50-step horizon).
pub fn bench_waypoint() -> AnyModel<2> {
    RandomWaypoint::new(0.1, 2.56, 10, 0.0)
        .expect("valid parameters")
        .into()
}

/// The paper's drunkard model at bench scale.
pub fn bench_drunkard() -> AnyModel<2> {
    Drunkard::new(0.1, 0.3, 2.56)
        .expect("valid parameters")
        .into()
}

/// The registry scale matching [`small_problem`]'s bench cell
/// (`l = 256`, pauses scaled to its 50-step horizon).
pub fn bench_scale() -> PaperScale {
    PaperScale::new(256.0).with_pause(10)
}

/// Builds a registry model at [`bench_scale`], panicking on unknown
/// names (bench targets pin their model lists).
pub fn bench_model(name: &str) -> AnyModel<2> {
    ModelRegistry::<2>::with_builtins()
        .build(name, &bench_scale())
        .expect("registered bench model")
}
