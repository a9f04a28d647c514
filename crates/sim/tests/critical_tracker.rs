//! Differential oracle for the warm-start critical range: along every
//! registry model's trajectories, [`CriticalRangeTracker`] must return
//! exactly the bits of the stateless dense Prim on every step, its
//! ceiling query must answer exactly the steps that raise the running
//! maximum, and its work counters must respect the reseed budget.

use manet_geom::Point;
use manet_graph::{critical_range, CriticalRangeTracker, TrackerCounts};
use manet_mobility::{ModelRegistry, PaperScale};
use manet_sim::{
    run_connectivity_stream, simulate_max_critical_ranges, simulate_raw_critical_series,
    ConnectivityObserver, SimConfig, StepView,
};

/// Feeds each step to one tracker per iteration and compares it with
/// `critical_range` on the same positions; a second tracker answers
/// the same steps with the running maximum as its ceiling.
struct OracleObserver {
    tracker: CriticalRangeTracker,
    ceiling: CriticalRangeTracker,
    max: f64,
    steps: u64,
    mismatches: Vec<(u64, f64, f64)>,
}

impl<const D: usize> ConnectivityObserver<D> for OracleObserver {
    type Output = ([TrackerCounts; 2], Vec<(u64, f64, f64)>);

    fn observe(&mut self, view: &StepView<'_, D>) {
        let pts: &[Point<D>] = view.positions();
        let warm = self.tracker.critical_range(pts);
        let cold = critical_range(pts);
        if warm.to_bits() != cold.to_bits() {
            self.mismatches.push((self.steps, warm, cold));
        }
        let above = self.ceiling.critical_range_above(pts, self.max);
        let want = (cold > self.max).then_some(cold);
        if above.map(f64::to_bits) != want.map(f64::to_bits) {
            self.mismatches
                .push((self.steps, above.unwrap_or(f64::NAN), cold));
        }
        self.max = self.max.max(cold);
        self.steps += 1;
    }

    fn finish(self) -> Self::Output {
        (
            [self.tracker.counts(), self.ceiling.counts()],
            self.mismatches,
        )
    }
}

/// Runs every registry model at `n` nodes on the paper's side
/// `l = n²` and returns each model's summed tracker counts (plain
/// queries, ceiling queries), after asserting bit-identity on every
/// step.
fn oracle(n: usize, steps: usize, iterations: usize) -> Vec<(String, [TrackerCounts; 2])> {
    let (config, scale) = setup(n, steps, iterations, 2);
    let registry = ModelRegistry::<2>::with_builtins();
    let budget = n as u64 * (n as u64 - 1) / 2;
    let mut per_model = Vec::new();
    for name in registry.names() {
        let model = registry.build(name, &scale).unwrap();
        let outs = run_connectivity_stream(&config, &model, |_| OracleObserver {
            tracker: CriticalRangeTracker::new(),
            ceiling: CriticalRangeTracker::new(),
            max: f64::NEG_INFINITY,
            steps: 0,
            mismatches: Vec::new(),
        });
        let mut total = [TrackerCounts::default(); 2];
        for (it, (counts, mismatches)) in outs.into_iter().enumerate() {
            assert!(
                mismatches.is_empty(),
                "{name} n={n} iteration {it}: (step, tracker, prim) {:?}",
                &mismatches[..mismatches.len().min(5)]
            );
            for (c, sum) in counts.iter().zip(total.iter_mut()) {
                assert_eq!(c.calls, steps as u64, "{name} n={n}");
                assert_eq!(
                    c.certified + c.reseeds + c.below_ceiling,
                    c.calls,
                    "{name} n={n}: {c:?}"
                );
                assert!(c.reseeds >= 1, "{name} n={n}: the first step reseeds");
                assert!(
                    c.pairs <= (c.calls + c.reseeds) * budget,
                    "{name} n={n}: pair budget exceeded: {c:?}"
                );
                sum.calls += c.calls;
                sum.certified += c.certified;
                sum.rounds += c.rounds;
                sum.reseeds += c.reseeds;
                sum.below_ceiling += c.below_ceiling;
                sum.pairs += c.pairs;
            }
            assert_eq!(counts[0].below_ceiling, 0, "{name} n={n}: no ceiling");
        }
        per_model.push((name.to_string(), total));
    }
    assert_eq!(per_model.len(), 13, "every registry model is covered");
    per_model
}

/// The oracle's campaign: `n` nodes on side `n²`, pause `steps / 5`.
fn setup(n: usize, steps: usize, iterations: usize, threads: usize) -> (SimConfig<2>, PaperScale) {
    let side = (n * n) as f64;
    let scale = PaperScale::new(side).with_pause((steps / 5) as u32);
    let mut b = SimConfig::<2>::builder();
    b.nodes(n)
        .side(side)
        .iterations(iterations)
        .steps(steps)
        .seed(0x0C_7A_C4)
        .threads(threads);
    (b.build().unwrap(), scale)
}

fn waypoint(counts: &[(String, [TrackerCounts; 2])]) -> [TrackerCounts; 2] {
    counts
        .iter()
        .find(|(name, _)| name == "waypoint")
        .map(|(_, c)| *c)
        .unwrap()
}

/// Each model's plain-query reseeds, in registry order, under a budget
/// of Prim's `n(n−1)/2` pairs per query. Below `GRID_MST_MIN_NODES`
/// (512) a reseed is dense Prim, which evaluates exactly that many
/// pairs, so the budget priced in the last reseed's pairs must reseed
/// exactly as often; from 512 up a grid-Kruskal reseed examines far
/// fewer, and reseeds may only rise.
fn assert_reseeds(counts: &[(String, [TrackerCounts; 2])], n: usize, prim_budget: [u64; 13]) {
    for ((name, [plain, _]), prim) in counts.iter().zip(prim_budget) {
        if n < manet_graph::mst::GRID_MST_MIN_NODES {
            assert_eq!(plain.reseeds, prim, "{name} n={n}: {plain:?}");
        } else {
            assert!(plain.reseeds >= prim, "{name} n={n}: {plain:?}");
        }
    }
}

/// The per-iteration `r100`s of the ceiling pass equal, bit for bit,
/// the maxima of the every-step series, at 1 and 3 threads.
fn assert_r100_matches_the_series(n: usize, steps: usize, iterations: usize) {
    let registry = ModelRegistry::<2>::with_builtins();
    for threads in [1, 3] {
        let (config, scale) = setup(n, steps, iterations, threads);
        for name in registry.names() {
            let model = registry.build(name, &scale).unwrap();
            let want: Vec<u64> = simulate_raw_critical_series(&config, &model)
                .iter()
                .map(|s| {
                    s.iter()
                        .copied()
                        .fold(f64::NEG_INFINITY, f64::max)
                        .to_bits()
                })
                .collect();
            let got: Vec<u64> = simulate_max_critical_ranges(&config, &model)
                .iter()
                .map(|m| m.to_bits())
                .collect();
            assert_eq!(got, want, "{name} n={n} threads={threads}");
        }
    }
}

#[test]
fn tracker_matches_prim_bit_for_bit_at_n16() {
    let counts = oracle(16, 200, 2);
    assert_reseeds(&counts, 16, [2, 7, 2, 3, 6, 18, 115, 10, 11, 15, 3, 5, 19]);
}

#[test]
fn tracker_matches_prim_bit_for_bit_at_n64() {
    let counts = oracle(64, 200, 2);
    assert_reseeds(&counts, 64, [2, 9, 2, 4, 17, 26, 43, 6, 27, 29, 4, 24, 27]);
    let [w, ceiling] = waypoint(&counts);
    assert!(
        w.reseeds * 20 <= w.calls,
        "waypoint at n = 64 reseeded on more than 5% of steps: {w:?}"
    );
    // The warm start is the point: it must scan well under one Prim's
    // pairs per step, reseeds included.
    assert!(w.pairs * 2 < w.calls * 64 * 63 / 2, "{w:?}");
    // And the ceiling is the point of the r100 pass: most steps stay
    // within the running maximum and run no cut scan.
    assert!(ceiling.below_ceiling * 2 > ceiling.calls, "{ceiling:?}");
    assert!(ceiling.pairs < w.pairs, "{ceiling:?} vs {w:?}");
}

#[test]
#[ignore = "release-only oracle; run by CI"]
fn tracker_matches_prim_bit_for_bit_at_scale() {
    let counts = oracle(128, 1000, 1);
    assert_reseeds(
        &counts,
        128,
        [1, 30, 8, 59, 32, 107, 73, 79, 124, 124, 56, 114, 103],
    );
    let [w, _] = waypoint(&counts);
    assert!(w.reseeds * 20 <= w.calls, "n = 128: {w:?}");
    let counts = oracle(500, 200, 1);
    assert_reseeds(
        &counts,
        500,
        [1, 26, 16, 54, 40, 58, 34, 63, 57, 61, 55, 55, 57],
    );
    // Above `GRID_MST_MIN_NODES`: reseeds build grid-Kruskal trees.
    oracle(600, 200, 1);
    let counts = oracle(1000, 100, 1);
    assert_reseeds(
        &counts,
        1000,
        [1, 18, 19, 44, 38, 40, 45, 50, 37, 40, 41, 38, 40],
    );
}

/// Every registry model where grid-Kruskal reseeds price the budget
/// at a few percent of Prim's pairs, at n = 1024 and 4096. The oracle
/// checks the bits of both queries on every step and the pair budget;
/// the reseed counts are not pinned (at n = 4096 most moving models
/// reseed on most steps). Release-only.
#[test]
#[ignore = "release-only oracle; run by CI"]
fn tracker_matches_prim_bit_for_bit_at_large_n() {
    oracle(1024, 60, 1);
    oracle(4096, 20, 1);
}

#[test]
fn r100_pass_matches_the_series_maxima() {
    assert_r100_matches_the_series(16, 200, 4);
    assert_r100_matches_the_series(64, 200, 4);
}

#[test]
#[ignore = "release-only oracle; run by CI"]
fn r100_pass_matches_the_series_maxima_at_scale() {
    assert_r100_matches_the_series(600, 200, 3);
}
