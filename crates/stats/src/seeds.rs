//! Deterministic seed derivation (SplitMix64).
//!
//! The simulation engine runs iterations in parallel. To keep results
//! bit-identical regardless of thread count and scheduling, every
//! iteration's RNG seed is a pure function of a master seed and the
//! iteration index, derived with the SplitMix64 output function.

/// Derives independent child seeds from one master seed.
///
/// # Example
///
/// ```
/// use manet_stats::SeedSequence;
///
/// let seq = SeedSequence::new(42);
/// let a = seq.seed_for(0);
/// let b = seq.seed_for(1);
/// assert_ne!(a, b);
/// // Deterministic: same master + index -> same seed.
/// assert_eq!(a, SeedSequence::new(42).seed_for(0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SeedSequence {
    master: u64,
}

impl SeedSequence {
    /// Creates a sequence rooted at `master`.
    pub fn new(master: u64) -> Self {
        SeedSequence { master }
    }

    /// The master seed.
    pub fn master(&self) -> u64 {
        self.master
    }

    /// The seed for child `index`.
    ///
    /// Children are produced by running the SplitMix64 output function
    /// on `master + (index + 1) * GOLDEN_GAMMA`, so distinct indices
    /// yield statistically independent, well-mixed values.
    pub fn seed_for(&self, index: u64) -> u64 {
        splitmix64(
            self.master
                .wrapping_add(index.wrapping_add(1).wrapping_mul(GOLDEN_GAMMA)),
        )
    }
}

/// 2^64 / φ, the Weyl increment used by SplitMix64.
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 output (finalization) function.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(GOLDEN_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn deterministic() {
        let a = SeedSequence::new(7);
        let b = SeedSequence::new(7);
        for i in 0..32 {
            assert_eq!(a.seed_for(i), b.seed_for(i));
        }
    }

    #[test]
    fn children_are_distinct() {
        let seq = SeedSequence::new(123);
        let seeds: BTreeSet<u64> = (0..10_000).map(|i| seq.seed_for(i)).collect();
        assert_eq!(seeds.len(), 10_000);
    }

    #[test]
    fn different_masters_differ() {
        let a = SeedSequence::new(1).seed_for(0);
        let b = SeedSequence::new(2).seed_for(0);
        assert_ne!(a, b);
    }

    #[test]
    fn splitmix_bit_mixing_smoke() {
        // Flipping one input bit should flip roughly half the output bits.
        let x = splitmix64(0);
        let y = splitmix64(1);
        let flipped = (x ^ y).count_ones();
        assert!(
            (16..=48).contains(&flipped),
            "poor avalanche: {flipped} bits"
        );
    }

    #[test]
    fn zero_master_is_usable() {
        let seq = SeedSequence::new(0);
        assert_ne!(seq.seed_for(0), 0);
        assert_ne!(seq.seed_for(0), seq.seed_for(1));
    }
}
