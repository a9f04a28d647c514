//! Simulation configuration.

use crate::SimError;
use manet_geom::Region;
use manet_graph::Skin;

/// Parameters of one simulation campaign, mirroring the inputs of the
/// paper's simulator (`r` is *not* part of the config: the fixed-range
/// path takes it as an argument, and the critical-range path does not
/// need one).
///
/// Construct with [`SimConfig::builder`].
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SimConfig<const D: usize> {
    nodes: usize,
    side: f64,
    iterations: usize,
    steps: usize,
    seed: u64,
    threads: Option<usize>,
    profile_stride: usize,
    profile_bins: usize,
    profile_max_range: Option<f64>,
    /// Verlet skin policy for the step kernel's candidate cache
    /// (default [`Skin::Auto`]; a performance knob only — every
    /// artifact is byte-identical across settings).
    skin: Skin,
}

impl<const D: usize> SimConfig<D> {
    /// Starts building a configuration. Defaults: 1 iteration, 1 step
    /// (the stationary case), seed 0, automatic thread count, profile
    /// stride 1, 1024 profile bins, profile grid up to `side / 2`.
    pub fn builder() -> SimConfigBuilder<D> {
        SimConfigBuilder::default()
    }

    /// Number of nodes `n`.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Region side `l`.
    pub fn side(&self) -> f64 {
        self.side
    }

    /// The deployment region `[0, l]^D`.
    #[expect(clippy::expect_used, reason = "side validated at build time")]
    pub fn region(&self) -> Region<D> {
        Region::new(self.side).expect("side validated at build time")
    }

    /// Number of independent iterations (fresh placements).
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Mobility steps per iteration (1 = stationary).
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Master RNG seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Worker thread count (`None` = use available parallelism).
    pub fn threads(&self) -> Option<usize> {
        self.threads
    }

    /// Merge profiles are collected every `profile_stride`-th step.
    pub fn profile_stride(&self) -> usize {
        self.profile_stride
    }

    /// Resolution of the range grid used by component profiles.
    pub fn profile_bins(&self) -> usize {
        self.profile_bins
    }

    /// Upper end of the profile range grid (defaults to `side / 2`).
    pub fn profile_max_range(&self) -> f64 {
        self.profile_max_range.unwrap_or(self.side / 2.0)
    }

    /// The step kernel's Verlet skin policy (see
    /// [`DynamicGraph::with_skin`](manet_graph::DynamicGraph::with_skin)).
    /// A performance knob only: every artifact is byte-identical
    /// across settings.
    pub fn skin(&self) -> Skin {
        self.skin
    }

    /// A copy of this config with a different seed — convenient for
    /// sensitivity checks across seeds.
    pub fn with_seed(&self, seed: u64) -> Self {
        let mut c = self.clone();
        c.seed = seed;
        c
    }
}

/// Builder for [`SimConfig`] (non-consuming, per C-BUILDER).
#[derive(Debug, Clone)]
pub struct SimConfigBuilder<const D: usize> {
    nodes: usize,
    side: f64,
    iterations: usize,
    steps: usize,
    seed: u64,
    threads: Option<usize>,
    /// The last [`SimConfigBuilder::step_threads`] value, checked by
    /// [`SimConfigBuilder::build`].
    step_threads: Option<usize>,
    profile_stride: usize,
    profile_bins: usize,
    profile_max_range: Option<f64>,
    skin: Skin,
}

impl<const D: usize> Default for SimConfigBuilder<D> {
    fn default() -> Self {
        SimConfigBuilder {
            nodes: 0,
            side: 0.0,
            iterations: 1,
            steps: 1,
            seed: 0,
            threads: None,
            step_threads: None,
            profile_stride: 1,
            profile_bins: 1024,
            profile_max_range: None,
            skin: Skin::Auto,
        }
    }
}

impl<const D: usize> SimConfigBuilder<D> {
    /// Sets the number of nodes `n` (required, `>= 1`).
    pub fn nodes(&mut self, n: usize) -> &mut Self {
        self.nodes = n;
        self
    }

    /// Sets the region side `l` (required, positive and finite).
    pub fn side(&mut self, l: f64) -> &mut Self {
        self.side = l;
        self
    }

    /// Sets the iteration count (default 1).
    pub fn iterations(&mut self, it: usize) -> &mut Self {
        self.iterations = it;
        self
    }

    /// Sets the mobility steps per iteration (default 1 = stationary).
    pub fn steps(&mut self, steps: usize) -> &mut Self {
        self.steps = steps;
        self
    }

    /// Sets the master seed (default 0).
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.seed = seed;
        self
    }

    /// Pins the worker thread count (default: available parallelism).
    pub fn threads(&mut self, threads: usize) -> &mut Self {
        self.threads = Some(threads);
        self
    }

    /// Accepts the one intra-step thread count the serial step kernel
    /// runs: [`SimConfigBuilder::build`] rejects any value but 1. It
    /// stays only until ROADMAP item 1(d) stops perfbench from passing
    /// it.
    pub fn step_threads(&mut self, threads: usize) -> &mut Self {
        self.step_threads = Some(threads);
        self
    }

    /// Collect merge profiles every `stride` steps (default 1).
    pub fn profile_stride(&mut self, stride: usize) -> &mut Self {
        self.profile_stride = stride;
        self
    }

    /// Range-grid resolution for component profiles (default 1024).
    pub fn profile_bins(&mut self, bins: usize) -> &mut Self {
        self.profile_bins = bins;
        self
    }

    /// Upper end of the profile range grid (default `side / 2`).
    pub fn profile_max_range(&mut self, hi: f64) -> &mut Self {
        self.profile_max_range = Some(hi);
        self
    }

    /// Sets the step kernel's Verlet skin policy (default
    /// [`Skin::Auto`]).
    pub fn skin(&mut self, skin: Skin) -> &mut Self {
        self.skin = skin;
        self
    }

    /// Validates and builds the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when any parameter fails
    /// validation (zero nodes/iterations/steps, non-positive side,
    /// degenerate profile grid, zero thread count or stride, a step
    /// thread count other than 1).
    pub fn build(&self) -> Result<SimConfig<D>, SimError> {
        if D == 0 {
            return Err(SimError::InvalidConfig {
                reason: "dimension must be at least 1".into(),
            });
        }
        if self.nodes == 0 {
            return Err(SimError::InvalidConfig {
                reason: "nodes must be at least 1".into(),
            });
        }
        if !(self.side.is_finite() && self.side > 0.0) {
            return Err(SimError::InvalidConfig {
                reason: format!("side must be positive and finite, got {}", self.side),
            });
        }
        if self.iterations == 0 {
            return Err(SimError::InvalidConfig {
                reason: "iterations must be at least 1".into(),
            });
        }
        if self.steps == 0 {
            return Err(SimError::InvalidConfig {
                reason: "steps must be at least 1".into(),
            });
        }
        if self.threads == Some(0) {
            return Err(SimError::InvalidConfig {
                reason: "threads must be at least 1 when set".into(),
            });
        }
        if let Some(t) = self.step_threads.filter(|&t| t != 1) {
            return Err(SimError::InvalidConfig {
                reason: format!(
                    "step_threads must be 1 (intra-step sharding was removed), got {t}"
                ),
            });
        }
        if self.profile_stride == 0 {
            return Err(SimError::InvalidConfig {
                reason: "profile_stride must be at least 1".into(),
            });
        }
        if self.profile_bins < 2 {
            return Err(SimError::InvalidConfig {
                reason: "profile_bins must be at least 2".into(),
            });
        }
        if let Some(hi) = self.profile_max_range {
            if !(hi.is_finite() && hi > 0.0) {
                return Err(SimError::InvalidConfig {
                    reason: format!("profile_max_range must be positive, got {hi}"),
                });
            }
        }
        if let Skin::Fixed(s) = self.skin {
            if !(s.is_finite() && s > 0.0) {
                return Err(SimError::InvalidConfig {
                    reason: format!("fixed skin must be positive and finite, got {s}"),
                });
            }
        }
        Ok(SimConfig {
            nodes: self.nodes,
            side: self.side,
            iterations: self.iterations,
            steps: self.steps,
            seed: self.seed,
            threads: self.threads,
            profile_stride: self.profile_stride,
            profile_bins: self.profile_bins,
            profile_max_range: self.profile_max_range,
            skin: self.skin,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> SimConfigBuilder<2> {
        let mut b = SimConfig::<2>::builder();
        b.nodes(10).side(100.0);
        b
    }

    #[test]
    fn minimal_build_succeeds_with_defaults() {
        let c = base().build().unwrap();
        assert_eq!(c.nodes(), 10);
        assert_eq!(c.side(), 100.0);
        assert_eq!(c.iterations(), 1);
        assert_eq!(c.steps(), 1);
        assert_eq!(c.seed(), 0);
        assert_eq!(c.threads(), None);
        assert_eq!(c.profile_stride(), 1);
        assert_eq!(c.profile_bins(), 1024);
        assert_eq!(c.profile_max_range(), 50.0);
        assert_eq!(c.skin(), Skin::Auto);
    }

    #[test]
    fn validation_rejects_bad_values() {
        assert!(SimConfig::<2>::builder().side(10.0).build().is_err());
        assert!(SimConfig::<2>::builder().nodes(5).build().is_err());
        assert!(base().iterations(0).build().is_err());
        assert!(base().steps(0).build().is_err());
        assert!(base().threads(0).build().is_err());
        assert!(base().step_threads(0).build().is_err());
        assert!(base().step_threads(1).build().is_ok());
        assert!(base().profile_stride(0).build().is_err());
        assert!(base().profile_bins(1).build().is_err());
        assert!(base().profile_max_range(-1.0).build().is_err());
        assert!(base().skin(Skin::Fixed(0.0)).build().is_err());
        assert!(base().skin(Skin::Fixed(f64::NAN)).build().is_err());
        assert!(base().skin(Skin::Fixed(3.5)).build().is_ok());
        let mut b = SimConfig::<2>::builder();
        b.nodes(5).side(f64::INFINITY);
        assert!(b.build().is_err());
    }

    #[test]
    fn builder_is_chainable_and_reusable() {
        let mut b = base();
        b.iterations(5)
            .steps(100)
            .seed(9)
            .threads(2)
            .step_threads(1);
        let c1 = b.build().unwrap();
        let c2 = b.build().unwrap();
        assert_eq!(c1, c2);
        assert_eq!(c1.iterations(), 5);
        assert_eq!(c1.steps(), 100);
        assert_eq!(c1.threads(), Some(2));
    }

    #[test]
    fn step_threads_other_than_one_is_a_build_error() {
        let err = base().step_threads(2).build().unwrap_err();
        assert!(
            err.to_string().contains("intra-step sharding was removed"),
            "{err}"
        );
    }

    #[test]
    fn with_seed_changes_only_seed() {
        let c = base().build().unwrap();
        let c2 = c.with_seed(99);
        assert_eq!(c2.seed(), 99);
        assert_eq!(c2.nodes(), c.nodes());
        assert_eq!(c2.side(), c.side());
    }

    #[test]
    fn region_matches_side() {
        let c = base().build().unwrap();
        assert_eq!(c.region().side(), 100.0);
        assert_eq!(c.region().dimension(), 2);
    }
}
