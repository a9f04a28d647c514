//! `StationaryAnalysis` reads each placement through
//! `manet_graph::critical_range`. Its sorted distribution must be the
//! bits of the warm-start tracker campaign it replaced
//! (`simulate_critical_ranges` over one-step iterations) at the CLI's
//! calibration shapes.

use manet_mobility::StationaryModel;
use manet_sim::{simulate_critical_ranges, SimConfig, StationaryAnalysis};

/// The CLI's calibration seed at its default master seed.
const SEED: u64 = 20_020_623 ^ 0x5747;

/// Asserts the two campaigns' sorted distributions are bit-identical.
fn assert_same_distribution(nodes: usize, side: f64, placements: usize) {
    let analysis = StationaryAnalysis::run::<2>(nodes, side, placements, SEED, None).unwrap();
    let mut b = SimConfig::<2>::builder();
    b.nodes(nodes)
        .side(side)
        .iterations(placements)
        .steps(1)
        .seed(SEED);
    let tracker = simulate_critical_ranges(&b.build().unwrap(), &StationaryModel::new()).unwrap();
    let mut expected: Vec<u64> = tracker
        .per_iteration()
        .iter()
        .map(|s| s.min().to_bits())
        .collect();
    expected.sort_unstable();
    let ours: Vec<u64> = analysis
        .ctr_distribution()
        .as_sorted()
        .iter()
        .map(|r| r.to_bits())
        .collect();
    assert_eq!(ours, expected, "n = {nodes}, side = {side}");
}

/// `figs --quick`: the four paper sides `l` at `n = √l`, 200
/// placements each (all below the grid crossover).
#[test]
fn figs_quick_calibrations_are_unchanged() {
    for side in [256.0f64, 1024.0, 4096.0, 16384.0] {
        assert_same_distribution(side.sqrt() as usize, side, 200);
    }
}

/// `trace-large`: n = 2000 on side 1024 over 50 placements, where
/// `critical_range` runs the bottleneck kernel.
#[test]
fn trace_large_calibration_is_unchanged() {
    assert_same_distribution(2000, 1024.0, 50);
}

/// `--threads 1` reaches the calibration: one worker, or any other
/// count, yields the default fan-out's distribution bit for bit.
#[test]
fn thread_count_does_not_change_the_distribution() {
    let bits = |threads: Option<usize>| -> Vec<u64> {
        StationaryAnalysis::run::<2>(64, 4096.0, 120, SEED, threads)
            .unwrap()
            .ctr_distribution()
            .as_sorted()
            .iter()
            .map(|r| r.to_bits())
            .collect()
    };
    let default = bits(None);
    for threads in [1, 2, 3] {
        assert_eq!(bits(Some(threads)), default, "threads = {threads}");
    }
}
