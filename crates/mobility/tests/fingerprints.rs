//! Trajectory fingerprints: every model's positions, bit for bit, after
//! every step.
//!
//! Each case drives one model from a seeded placement and folds the
//! `to_bits` of every coordinate after every step into one FNV-1a
//! hash. The committed values pin each trajectory exactly, so a change
//! to how a model draws its randomness (batching, reordering, a
//! different rejection loop) must leave every hash where it is. The
//! CLI goldens pin only waypoint, drunkard, gauss-markov and rpgm;
//! these cases cover all 13 registry models plus the variants the
//! registry does not build: stationary Gauss–Markov nodes, frozen
//! random-walk nodes and an RPGM group size that leaves the last group
//! partial.
//!
//! On a mismatch the test prints the full table of computed values.

use manet_geom::Region;
use manet_mobility::{
    AnyModel, GaussMarkov, Mobility, ModelRegistry, PaperScale, RandomWalk, ReferencePointGroup,
};
use rand::SeedableRng;

const SEEDS: [u64; 2] = [20020623, 7];

/// FNV-1a over the bit patterns of every coordinate after every step.
fn fingerprint(mut model: AnyModel<2>, side: f64, n: usize, steps: usize, seed: u64) -> u64 {
    let region: Region<2> = Region::new(side).unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut pos = region.place_uniform(n, &mut rng);
    model.init(&pos, &region, &mut rng);
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for _ in 0..steps {
        model.step(&mut pos, &region, &mut rng);
        for p in &pos {
            for c in p.coords() {
                for byte in c.to_bits().to_le_bytes() {
                    hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
    }
    hash
}

/// The 13 registry models plus the three non-registry variants, each
/// built at `scale`.
fn models(scale: &PaperScale) -> Vec<(String, AnyModel<2>)> {
    let registry = ModelRegistry::<2>::with_builtins();
    let l = scale.side;
    let mut out: Vec<(String, AnyModel<2>)> = registry
        .names()
        .into_iter()
        .map(|name| (name.to_string(), registry.build(name, scale).unwrap()))
        .collect();
    out.push((
        "gauss-markov-p0.25".into(),
        GaussMarkov::new(0.85, 0.005 * l, 0.0025 * l, 0.25)
            .unwrap()
            .into(),
    ));
    out.push((
        "walk-p0.25".into(),
        RandomWalk::new(0.01 * l, 0.25).unwrap().into(),
    ));
    out.push((
        "rpgm-group5".into(),
        ReferencePointGroup::new(5, 0.05 * l, 0.1, 0.01 * l, scale.pause_steps)
            .unwrap()
            .into(),
    ));
    out
}

/// Computes every case at the given node counts and compares with
/// `expected`, failing with the full computed table on any mismatch.
fn check(
    expected: &[(&str, usize, u64, u64)],
    node_counts: &[usize],
    side_of: fn(usize) -> f64,
    pause: u32,
    steps: usize,
) {
    let mut actual = Vec::new();
    for &n in node_counts {
        let scale = PaperScale::new(side_of(n)).with_pause(pause);
        for &seed in &SEEDS {
            for (name, model) in models(&scale) {
                actual.push((
                    name,
                    n,
                    seed,
                    fingerprint(model, scale.side, n, steps, seed),
                ));
            }
        }
    }
    let table: String = actual
        .iter()
        .map(|(name, n, seed, h)| format!("    (\"{name}\", {n}, {seed}, {h:#018x}),\n"))
        .collect();
    let matches = actual.len() == expected.len()
        && actual
            .iter()
            .zip(expected)
            .all(|((name, n, seed, h), &(en, enn, es, eh))| {
                name == en && *n == enn && *seed == es && *h == eh
            });
    assert!(matches, "trajectory fingerprints moved; computed:\n{table}");
}

/// The critical-scaling sweep's shape: side `64·√n`.
fn scaling_side(n: usize) -> f64 {
    64.0 * (n as f64).sqrt()
}

#[test]
fn every_model_trajectory_is_pinned_at_small_n() {
    check(&SMALL, &[7, 64], scaling_side, 20, 300);
}

/// The trace-large shape: n = 2000 at side 1024 over 60 steps.
#[test]
#[ignore = "release-only: 16 models at n = 2000"]
fn every_model_trajectory_is_pinned_at_trace_large_shape() {
    check(&LARGE, &[2000], |_| 1024.0, 20, 60);
}

const SMALL: [(&str, usize, u64, u64); 64] = [
    ("stationary", 7, 20020623, 0xcc1345ebab24445d),
    ("waypoint", 7, 20020623, 0x346a6da8f254e733),
    ("drunkard", 7, 20020623, 0x7e62cb034853980b),
    ("walk", 7, 20020623, 0x8bcc5f56a730e64e),
    ("direction", 7, 20020623, 0x461279347463f074),
    ("gauss-markov", 7, 20020623, 0x562b6b2984afa5b2),
    ("rpgm", 7, 20020623, 0x942877c63af5a007),
    ("walk-wrap", 7, 20020623, 0x257ed19ec277dd87),
    ("direction-wrap", 7, 20020623, 0xa75c1f8aa94a9c1b),
    ("gauss-markov-wrap", 7, 20020623, 0xc9cb335e91a1e1e6),
    ("walk-bounce", 7, 20020623, 0x507e5b73562db66a),
    ("direction-bounce", 7, 20020623, 0xb44a8ca1061f152a),
    ("gauss-markov-bounce", 7, 20020623, 0x90e758e1688107b6),
    ("gauss-markov-p0.25", 7, 20020623, 0x8ad5770b190dcafc),
    ("walk-p0.25", 7, 20020623, 0x02d4d4700657dd8c),
    ("rpgm-group5", 7, 20020623, 0x4eaa23d42653a9ac),
    ("stationary", 7, 7, 0x8f2d272986f21c7d),
    ("waypoint", 7, 7, 0xa141a168f0a87a3f),
    ("drunkard", 7, 7, 0x5bba802e6921a8b3),
    ("walk", 7, 7, 0xe0205c836cd8d43e),
    ("direction", 7, 7, 0xba98fa314c79cf33),
    ("gauss-markov", 7, 7, 0x3ecd05c83e15ff39),
    ("rpgm", 7, 7, 0xbb9fa40c02dd94bd),
    ("walk-wrap", 7, 7, 0x6ddd09e72e6564f6),
    ("direction-wrap", 7, 7, 0xc3ef5a7c7a069fef),
    ("gauss-markov-wrap", 7, 7, 0xd99b4a5cbdce6606),
    ("walk-bounce", 7, 7, 0xf299c43c61fe4d89),
    ("direction-bounce", 7, 7, 0x33424e66d6054784),
    ("gauss-markov-bounce", 7, 7, 0x8b5449cf0d1aaecb),
    ("gauss-markov-p0.25", 7, 7, 0xc429e4684865728c),
    ("walk-p0.25", 7, 7, 0xd04179b19f535ba2),
    ("rpgm-group5", 7, 7, 0x6110561eeac98247),
    ("stationary", 64, 20020623, 0xf69711982c87e375),
    ("waypoint", 64, 20020623, 0xa681e22005ce8f2e),
    ("drunkard", 64, 20020623, 0xe48d28069361b862),
    ("walk", 64, 20020623, 0x59420c79978b66c1),
    ("direction", 64, 20020623, 0x90f096eb9d2a7251),
    ("gauss-markov", 64, 20020623, 0x3e4dca7d3ab90c27),
    ("rpgm", 64, 20020623, 0x13dd71c3e2a5de0f),
    ("walk-wrap", 64, 20020623, 0xa6c3eadee578248e),
    ("direction-wrap", 64, 20020623, 0xf3a4a3f59ae417a3),
    ("gauss-markov-wrap", 64, 20020623, 0x9474e32df6a0be57),
    ("walk-bounce", 64, 20020623, 0xc9f9f5d2b009cd6f),
    ("direction-bounce", 64, 20020623, 0xb11d668d5b6eeaa2),
    ("gauss-markov-bounce", 64, 20020623, 0xe82281e013aee0ef),
    ("gauss-markov-p0.25", 64, 20020623, 0x525a3e91462098a5),
    ("walk-p0.25", 64, 20020623, 0x22fefdab1b400c20),
    ("rpgm-group5", 64, 20020623, 0x9e12ac16d0dcab3f),
    ("stationary", 64, 7, 0xd648bfc8a8c2ae9d),
    ("waypoint", 64, 7, 0xacd6a58ba4c4391d),
    ("drunkard", 64, 7, 0xaca3b70321064bcf),
    ("walk", 64, 7, 0x52d8617849b8d004),
    ("direction", 64, 7, 0x3154614ecea30a35),
    ("gauss-markov", 64, 7, 0x6b3132d69342e6db),
    ("rpgm", 64, 7, 0xba0d4765a12dce34),
    ("walk-wrap", 64, 7, 0xec25a1e0b14dd345),
    ("direction-wrap", 64, 7, 0x115f3bad7917e3cf),
    ("gauss-markov-wrap", 64, 7, 0xd5ffdec52e9a3f30),
    ("walk-bounce", 64, 7, 0x2b2f521c995177f6),
    ("direction-bounce", 64, 7, 0xaad86c3f0b794547),
    ("gauss-markov-bounce", 64, 7, 0x166d8d26af27dbbe),
    ("gauss-markov-p0.25", 64, 7, 0x0db3a4d52e590cbd),
    ("walk-p0.25", 64, 7, 0x594fd3196a094abb),
    ("rpgm-group5", 64, 7, 0x839a7e1f77a2e058),
];

const LARGE: [(&str, usize, u64, u64); 32] = [
    ("stationary", 2000, 20020623, 0x4216de19dd350c35),
    ("waypoint", 2000, 20020623, 0xadfb53cdd4e473d2),
    ("drunkard", 2000, 20020623, 0xe421072a6154660f),
    ("walk", 2000, 20020623, 0x7b2ac24d40301718),
    ("direction", 2000, 20020623, 0xae314188b929006e),
    ("gauss-markov", 2000, 20020623, 0x498572e5f8d7b8c9),
    ("rpgm", 2000, 20020623, 0x4f2dd0bd1dc621f4),
    ("walk-wrap", 2000, 20020623, 0x1f9e1d7bf52bd83e),
    ("direction-wrap", 2000, 20020623, 0x198937d21982cc2b),
    ("gauss-markov-wrap", 2000, 20020623, 0xf48f370b583edf6a),
    ("walk-bounce", 2000, 20020623, 0x6ad7dc881fae1eef),
    ("direction-bounce", 2000, 20020623, 0x99677a9571d427ce),
    ("gauss-markov-bounce", 2000, 20020623, 0x5d374c45fb0ffb0b),
    ("gauss-markov-p0.25", 2000, 20020623, 0xe6ee1ecaebcf95f7),
    ("walk-p0.25", 2000, 20020623, 0xa4d2769b1ec9ed2b),
    ("rpgm-group5", 2000, 20020623, 0xd755ec930f76ed61),
    ("stationary", 2000, 7, 0x4eba825d11c4eba5),
    ("waypoint", 2000, 7, 0xe321362a5842df0a),
    ("drunkard", 2000, 7, 0x4cb6aaf2cdbd7f85),
    ("walk", 2000, 7, 0x01b991999e30eaea),
    ("direction", 2000, 7, 0xb6f7ebe30c5a3bde),
    ("gauss-markov", 2000, 7, 0x7707069687506795),
    ("rpgm", 2000, 7, 0xd81fbc17d2006da1),
    ("walk-wrap", 2000, 7, 0xe0859fc48ed73a7e),
    ("direction-wrap", 2000, 7, 0x961b6f4abfbaa01a),
    ("gauss-markov-wrap", 2000, 7, 0xf07604c6fcb5a183),
    ("walk-bounce", 2000, 7, 0x9518b6885ef475a2),
    ("direction-bounce", 2000, 7, 0x0bdb708aedf98d01),
    ("gauss-markov-bounce", 2000, 7, 0x41340cf840e6bee6),
    ("gauss-markov-p0.25", 2000, 7, 0x5a1f4709aa3bf56c),
    ("walk-p0.25", 2000, 7, 0x42196b6f6b22c9aa),
    ("rpgm-group5", 2000, 7, 0x61311aa6c16f59cb),
];
