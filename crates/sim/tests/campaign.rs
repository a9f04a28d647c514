//! Differential oracle for the fused campaign: along every registry
//! model's trajectories, [`simulate_campaign`] must return exactly the
//! time-ordered critical-range series of [`simulate_raw_critical_series`]
//! and exactly the component-size profiles of [`simulate_profiles`], at
//! any thread count.

use manet_mobility::{ModelRegistry, PaperScale};
use manet_sim::{simulate_campaign, simulate_profiles, simulate_raw_critical_series, SimConfig};

/// Runs all three campaigns for every registry model at `n` nodes on
/// the paper's side `l = n²` and asserts the fused pass is bit-identical
/// to the two separate ones.
fn fused_matches_separate(n: usize, threads: usize) {
    let side = (n * n) as f64;
    let steps = 100;
    let scale = PaperScale::new(side).with_pause((steps / 5) as u32);
    let registry = ModelRegistry::<2>::with_builtins();
    let mut b = SimConfig::<2>::builder();
    b.nodes(n)
        .side(side)
        .iterations(3)
        .steps(steps)
        .seed(0xCA_4B_A1)
        .threads(threads)
        .profile_stride(5);
    let config = b.build().unwrap();
    let names = registry.names();
    assert_eq!(names.len(), 13, "every registry model is covered");
    for name in names {
        let model = registry.build(name, &scale).unwrap();
        let (critical, profiles) = simulate_campaign(&config, &model).unwrap();
        let critical_alone = simulate_raw_critical_series(&config, &model);
        let profiles_alone = simulate_profiles(&config, &model).unwrap();

        assert_eq!(critical.len(), 3, "{name}");
        for (it, (fused, alone)) in critical.iter().zip(&critical_alone).enumerate() {
            assert_eq!(fused.len(), steps, "{name} iteration {it}");
            let fused: Vec<u64> = fused.iter().map(|v| v.to_bits()).collect();
            let alone: Vec<u64> = alone.iter().map(|v| v.to_bits()).collect();
            assert_eq!(
                fused, alone,
                "{name} n={n} threads={threads} iteration {it}"
            );
        }

        assert_eq!(profiles.per_iteration().len(), 3, "{name}");
        assert!(
            profiles.per_iteration() == profiles_alone.per_iteration(),
            "{name} n={n} threads={threads}: profiles differ"
        );
        for p in profiles.per_iteration() {
            assert_eq!(
                p.samples(),
                steps / 5,
                "{name}: one profile per stride step"
            );
        }
    }
}

#[test]
fn fused_campaign_matches_separate_passes_at_n16() {
    fused_matches_separate(16, 1);
    fused_matches_separate(16, 3);
}

#[test]
fn fused_campaign_matches_separate_passes_at_n64() {
    fused_matches_separate(64, 1);
    fused_matches_separate(64, 3);
}
