//! Differential oracle for the warm-start critical range: along every
//! registry model's trajectories, [`CriticalRangeTracker`] must return
//! exactly the bits of the stateless dense Prim on every step, and its
//! work counters must respect the reseed budget.

use manet_geom::Point;
use manet_graph::{critical_range, CriticalRangeTracker, TrackerCounts};
use manet_mobility::{ModelRegistry, PaperScale};
use manet_sim::{run_connectivity_stream, ConnectivityObserver, SimConfig, StepView};

/// Feeds each step to one tracker per iteration and compares it with
/// `critical_range` on the same positions.
struct OracleObserver {
    tracker: CriticalRangeTracker,
    steps: u64,
    mismatches: Vec<(u64, f64, f64)>,
}

impl<const D: usize> ConnectivityObserver<D> for OracleObserver {
    type Output = (TrackerCounts, Vec<(u64, f64, f64)>);

    fn observe(&mut self, view: &StepView<'_, D>) {
        let pts: &[Point<D>] = view.positions();
        let warm = self.tracker.critical_range(pts);
        let cold = critical_range(pts);
        if warm.to_bits() != cold.to_bits() {
            self.mismatches.push((self.steps, warm, cold));
        }
        self.steps += 1;
    }

    fn finish(self) -> Self::Output {
        (self.tracker.counts(), self.mismatches)
    }
}

/// Runs every registry model at `n` nodes on the paper's side
/// `l = n²` and returns each model's summed tracker counts, after
/// asserting bit-identity on every step.
fn oracle(n: usize, steps: usize, iterations: usize) -> Vec<(String, TrackerCounts)> {
    let side = (n * n) as f64;
    let scale = PaperScale::new(side).with_pause((steps / 5) as u32);
    let registry = ModelRegistry::<2>::with_builtins();
    let mut b = SimConfig::<2>::builder();
    b.nodes(n)
        .side(side)
        .iterations(iterations)
        .steps(steps)
        .seed(0x0C_7A_C4);
    let config = b.build().unwrap();
    let budget = n as u64 * (n as u64 - 1) / 2;
    let mut per_model = Vec::new();
    for name in registry.names() {
        let model = registry.build(name, &scale).unwrap();
        let outs = run_connectivity_stream(&config, &model, None, |_| OracleObserver {
            tracker: CriticalRangeTracker::new(),
            steps: 0,
            mismatches: Vec::new(),
        })
        .unwrap();
        let mut total = TrackerCounts::default();
        for (it, (c, mismatches)) in outs.into_iter().enumerate() {
            assert!(
                mismatches.is_empty(),
                "{name} n={n} iteration {it}: (step, tracker, prim) {:?}",
                &mismatches[..mismatches.len().min(5)]
            );
            assert_eq!(c.calls, steps as u64, "{name} n={n}");
            assert_eq!(c.certified + c.reseeds, c.calls, "{name} n={n}: {c:?}");
            assert!(c.reseeds >= 1, "{name} n={n}: the first step reseeds");
            assert!(
                c.pairs <= (c.calls + c.reseeds) * budget,
                "{name} n={n}: pair budget exceeded: {c:?}"
            );
            total.calls += c.calls;
            total.certified += c.certified;
            total.rounds += c.rounds;
            total.reseeds += c.reseeds;
            total.pairs += c.pairs;
        }
        per_model.push((name.to_string(), total));
    }
    assert_eq!(per_model.len(), 13, "every registry model is covered");
    per_model
}

fn waypoint(counts: &[(String, TrackerCounts)]) -> TrackerCounts {
    counts
        .iter()
        .find(|(name, _)| name == "waypoint")
        .map(|(_, c)| *c)
        .unwrap()
}

#[test]
fn tracker_matches_prim_bit_for_bit_at_n16() {
    oracle(16, 200, 2);
}

#[test]
fn tracker_matches_prim_bit_for_bit_at_n64() {
    let counts = oracle(64, 200, 2);
    let w = waypoint(&counts);
    assert!(
        w.reseeds * 20 <= w.calls,
        "waypoint at n = 64 reseeded on more than 5% of steps: {w:?}"
    );
    // The warm start is the point: it must scan well under one Prim's
    // pairs per step, reseeds included.
    assert!(w.pairs * 2 < w.calls * 64 * 63 / 2, "{w:?}");
}

#[test]
#[ignore = "release-only oracle; run by CI"]
fn tracker_matches_prim_bit_for_bit_at_scale() {
    let counts = oracle(128, 1000, 1);
    let w = waypoint(&counts);
    assert!(w.reseeds * 20 <= w.calls, "n = 128: {w:?}");
    oracle(500, 200, 1);
    // Above `GRID_MST_MIN_NODES`: reseeds build grid-Kruskal trees.
    oracle(1000, 100, 1);
}
