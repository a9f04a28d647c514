//! The mobile MINIMUM TRANSMITTING RANGE problem (MTRM).
//!
//! > *Suppose `n` nodes are placed in `[0, l]^d`, and assume that nodes
//! > are allowed to move during a time interval `[0, T]`. What is the
//! > minimum value of `r` such that the resulting communication graph
//! > is connected during some fraction `f` of the interval?* (paper §4)
//!
//! [`MtrmProblem`] bundles a simulation configuration with a mobility
//! model and exposes the paper's metrics: the connectivity ranges
//! `r100/r90/r10/r0`, the component-size targets `rl90/rl75/rl50`, and
//! availability and up/down run structure (MTBF, MTTR, longest outage)
//! at arbitrary ranges.
//!
//! Every simulating `MtrmProblem` method runs exactly one campaign, and every
//! range-free metric is an accessor on its result: [`MtrmProblem::solve`]
//! runs the critical-range pass behind [`MtrmSolution`], and
//! [`MtrmProblem::campaign`] runs one fused pass that also records the
//! component-size profiles behind [`MtrmCampaign`], and
//! [`MtrmProblem::r100_per_iteration`] runs a pass that keeps only each
//! iteration's `r100`, certifying only the steps that could raise it
//! (the paper's Figures 7–9 read nothing else). A solution keeps the
//! time-ordered per-step critical-range series `c_t`, so
//! [`MtrmSolution::uptime_at`] reads outage runs off the same campaign
//! as the quantiles. Query the result as often as needed; nothing
//! re-simulates behind an accessor. Only the two lanes that report at
//! fixed ranges take ranges and run their own campaign:
//! [`MtrmProblem::fixed_range_reports`] (one spanning tree per step,
//! every range at once) and [`MtrmProblem::temporal_trace`] (the step
//! kernel's edge deltas at one range).
//!
//! Models are supplied as [`AnyModel`] handles — either built directly
//! from a concrete type (`RandomWaypoint::new(...)?.into()`) or
//! resolved by name through the
//! [`ModelRegistry`](manet_mobility::ModelRegistry), so new model
//! families reach every MTRM query without changes to this crate.

use crate::CoreError;
use manet_mobility::AnyModel;
use manet_sim::{
    simulate_campaign, simulate_fixed_ranges, simulate_max_critical_ranges,
    simulate_raw_critical_series, CriticalRangeResults, FixedRangeReport, MobileRangeSummary,
    ProfileResults, RangeQuantiles, SimConfig, UptimeSummary,
};

/// An MTRM problem instance: configuration plus mobility model.
#[derive(Debug, Clone)]
pub struct MtrmProblem<const D: usize> {
    config: SimConfig<D>,
    model: AnyModel<D>,
}

/// Solution of an MTRM instance: the paper's range metrics.
#[derive(Debug, Clone)]
pub struct MtrmSolution {
    /// Across-iteration moments of `r100/r90/r10/r0`.
    pub ranges: MobileRangeSummary,
    /// The underlying critical-range results (for further queries).
    pub critical: CriticalRangeResults,
    /// Each iteration's critical-range series in time order, the input
    /// `critical` was frozen from.
    series: Vec<Vec<f64>>,
}

impl MtrmSolution {
    fn new(series: Vec<Vec<f64>>) -> Result<Self, CoreError> {
        let critical = CriticalRangeResults::freeze(series.clone())?;
        let ranges = critical.summary()?;
        Ok(MtrmSolution {
            ranges,
            critical,
            series,
        })
    }

    /// The paper's range metrics over every step of every iteration
    /// pooled into one series (`r100` is the pooled maximum).
    ///
    /// # Errors
    ///
    /// Propagates [`CoreError::Sim`] (defensive; a solution holds at
    /// least one step).
    pub fn pooled_quantiles(&self) -> Result<RangeQuantiles, CoreError> {
        Ok(RangeQuantiles::from_series(&self.critical.pooled()?)?)
    }

    /// Availability estimate: fraction of time the whole network is
    /// connected at range `r`.
    pub fn availability_at(&self, r: f64) -> f64 {
        self.critical.connectivity_fraction_at(r)
    }

    /// Up/down run structure at range `r`: availability, MTBF/MTTR (in
    /// steps), failures per iteration and the worst outage — the
    /// dependability reading of the introduction's availability
    /// framing, read off the time-ordered series.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Sim`] for a non-positive or non-finite `r`.
    pub fn uptime_at(&self, r: f64) -> Result<UptimeSummary, CoreError> {
        Ok(UptimeSummary::from_series(&self.series, r)?)
    }
}

/// One fused campaign of an MTRM instance: the [`MtrmSolution`] plus
/// the component-size profiles read off the same trajectories.
#[derive(Debug, Clone)]
pub struct MtrmCampaign {
    solution: MtrmSolution,
    profiles: ProfileResults,
}

impl MtrmCampaign {
    /// The range metrics (`r100/r90/r10/r0`) and critical-range series.
    pub fn solution(&self) -> &MtrmSolution {
        &self.solution
    }

    /// The raw component-size profiles (Figures 4–5 material).
    pub fn component_profiles(&self) -> &ProfileResults {
        &self.profiles
    }

    /// The ranges at which the **average largest component** reaches
    /// each `fraction·n` (the paper's `rl90/rl75/rl50` for fractions
    /// 0.9/0.75/0.5), as `(fraction, mean range)` pairs.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Sim`] when no iteration reaches a target
    /// on its grid (e.g. `fraction > 1`).
    pub fn ranges_for_component_fractions(
        &self,
        fractions: &[f64],
    ) -> Result<Vec<(f64, f64)>, CoreError> {
        fractions
            .iter()
            .map(|&f| Ok((f, self.profiles.mean_range_for_average_fraction(f)?)))
            .collect()
    }
}

impl<const D: usize> MtrmProblem<D> {
    /// An instance running `model` under `config`: any concrete model
    /// type (via its `Into<AnyModel>` conversion) or an [`AnyModel`]
    /// built by the registry. `config` was validated when it was
    /// built, so every knob — including the profile grid — reaches
    /// the campaigns exactly as set.
    pub fn new(config: SimConfig<D>, model: impl Into<AnyModel<D>>) -> Self {
        MtrmProblem {
            config,
            model: model.into(),
        }
    }

    /// The simulation configuration.
    pub fn config(&self) -> &SimConfig<D> {
        &self.config
    }

    /// The mobility model.
    pub fn model(&self) -> &AnyModel<D> {
        &self.model
    }

    /// Solves for the connectivity ranges (`r100/r90/r10/r0`): one
    /// critical-range pass.
    ///
    /// # Errors
    ///
    /// Propagates [`CoreError::Sim`].
    pub fn solve(&self) -> Result<MtrmSolution, CoreError> {
        MtrmSolution::new(simulate_raw_critical_series(&self.config, &self.model))
    }

    /// Each iteration's `r100`, its largest per-step critical range, in
    /// iteration order: one critical-range pass that certifies only the
    /// steps able to raise the running maximum. Bit for bit the maxima
    /// of [`MtrmProblem::solve`]'s per-iteration series, so their
    /// maximum is its pooled `r100` and their moments its `ranges.r100`.
    pub fn r100_per_iteration(&self) -> Vec<f64> {
        simulate_max_critical_ranges(&self.config, &self.model)
    }

    /// Runs one fused pass recording both the critical range of every
    /// step and the component-size profile of every
    /// `profile_stride`-th step. Its solution is bit-identical to
    /// [`MtrmProblem::solve`]'s.
    ///
    /// # Errors
    ///
    /// Propagates [`CoreError::Sim`].
    pub fn campaign(&self) -> Result<MtrmCampaign, CoreError> {
        let (series, profiles) = simulate_campaign(&self.config, &self.model)?;
        Ok(MtrmCampaign {
            solution: MtrmSolution::new(series)?,
            profiles,
        })
    }

    /// The paper's literal simulator at each of `ranges`, one report
    /// per range in the given order: one positions-only pass whose
    /// steps each build one spanning tree and threshold it at every
    /// range ([`manet_sim::simulate_fixed_ranges`]).
    ///
    /// # Errors
    ///
    /// Propagates [`CoreError::Sim`].
    pub fn fixed_range_reports(&self, ranges: &[f64]) -> Result<Vec<FixedRangeReport>, CoreError> {
        Ok(simulate_fixed_ranges(&self.config, &self.model, ranges)?)
    }

    /// Temporal-connectivity trace at range `r`: link-lifetime,
    /// inter-contact, isolation and partition-outage distributions
    /// plus path availability, time-to-repair, and per-step edge-churn
    /// intensity (mean and peak) — the persistence structure the
    /// snapshot metrics cannot see (`manet-trace`).
    ///
    /// # Errors
    ///
    /// Propagates [`CoreError::Sim`].
    pub fn temporal_trace(&self, r: f64) -> Result<manet_trace::TraceSummary, CoreError> {
        Ok(manet_sim::simulate_trace(&self.config, &self.model, r)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_mobility::{
        Drunkard, Mobility, ModelRegistry, PaperScale, RandomWaypoint, StationaryModel,
    };
    use manet_sim::UptimeReport;

    fn problem(
        iterations: usize,
        steps: usize,
        model: AnyModel<2>,
    ) -> Result<MtrmProblem<2>, CoreError> {
        let config = SimConfig::<2>::builder()
            .nodes(10)
            .side(100.0)
            .iterations(iterations)
            .steps(steps)
            .seed(99)
            .build()?;
        Ok(MtrmProblem::new(config, model))
    }

    fn small_problem(model: AnyModel<2>) -> MtrmProblem<2> {
        problem(3, 25, model).unwrap()
    }

    fn waypoint(pause: u32, p_stationary: f64) -> AnyModel<2> {
        RandomWaypoint::new(0.5, 2.0, pause, p_stationary)
            .unwrap()
            .into()
    }

    /// An empty campaign cannot be set up: `SimConfig` rejects zero
    /// iterations and zero steps, and nothing between it and the
    /// problem clamps them to 1.
    #[test]
    fn empty_campaigns_are_rejected_by_sim_config() {
        for (iterations, steps) in [(0, 25), (3, 0)] {
            let err = problem(iterations, steps, waypoint(0, 0.0));
            assert!(
                matches!(
                    err,
                    Err(CoreError::Sim(manet_sim::SimError::InvalidConfig { .. }))
                ),
                "{iterations} iterations x {steps} steps"
            );
        }
    }

    /// Every profile knob on the config reaches `campaign()`'s
    /// profiles, `profile_max_range` included.
    #[test]
    fn campaign_profiles_use_the_configured_grid() {
        let config = SimConfig::<2>::builder()
            .nodes(10)
            .side(100.0)
            .iterations(2)
            .steps(10)
            .profile_bins(60)
            .profile_max_range(30.0)
            .build()
            .unwrap();
        let campaign = MtrmProblem::new(config, waypoint(0, 0.0))
            .campaign()
            .unwrap();
        let profiles = campaign.component_profiles().per_iteration();
        assert_eq!(profiles.len(), 2);
        for profile in profiles {
            assert_eq!(profile.bin_width(), 0.5);
        }
    }

    #[test]
    fn builder_accepts_concrete_and_registry_models() {
        // Concrete type through Into<AnyModel>.
        let p = small_problem(Drunkard::new(0.1, 0.3, 1.0).unwrap().into());
        assert_eq!(p.model().name(), "drunkard");
        // Registry-resolved handle.
        let registry = ModelRegistry::<2>::with_builtins();
        let model = registry
            .build("rpgm", &PaperScale::new(100.0).with_pause(5))
            .unwrap();
        let p = small_problem(model);
        assert_eq!(p.model().name(), "rpgm");
        assert!(p.solve().is_ok());
    }

    #[test]
    fn solve_produces_ordered_ranges() {
        let p = small_problem(waypoint(2, 0.0));
        let sol = p.solve().unwrap();
        assert!(sol.ranges.r100.mean() >= sol.ranges.r90.mean());
        assert!(sol.ranges.r90.mean() >= sol.ranges.r10.mean());
        assert!(sol.ranges.r10.mean() >= sol.ranges.r0.mean());
        assert_eq!(sol.ranges.r100.count(), 3);
    }

    #[test]
    fn component_fractions_are_ordered() {
        let p = small_problem(Drunkard::new(0.0, 0.2, 2.0).unwrap().into());
        let rl = p
            .campaign()
            .unwrap()
            .ranges_for_component_fractions(&[0.5, 0.75, 0.9])
            .unwrap();
        assert!(rl[0].1 <= rl[1].1 + 1e-12);
        assert!(rl[1].1 <= rl[2].1 + 1e-12);
    }

    #[test]
    fn availability_matches_solution_queries() {
        let p = small_problem(waypoint(0, 0.0));
        let sol = p.solve().unwrap();
        let r = sol.ranges.r90.mean();
        let avail = sol.availability_at(r);
        assert!((0.0..=1.0).contains(&avail));
        // r90 keeps the network up about 90% of the time.
        assert!(avail >= 0.8, "availability at r90 was {avail}");
    }

    #[test]
    fn campaign_solution_matches_solve() {
        let p = small_problem(waypoint(2, 0.0));
        let sol = p.solve().unwrap();
        let campaign = p.campaign().unwrap();
        assert_eq!(
            campaign.solution().critical.per_iteration(),
            sol.critical.per_iteration()
        );
        assert_eq!(campaign.component_profiles().per_iteration().len(), 3);
        assert!(campaign.ranges_for_component_fractions(&[1.5]).is_err());
    }

    #[test]
    fn fixed_range_report_consistent_with_solution() {
        let p = small_problem(waypoint(0, 0.0));
        let sol = p.solve().unwrap();
        let r = sol.ranges.r100.max() * 1.01;
        let reports = p.fixed_range_reports(&[r, 0.5 * r]).unwrap();
        assert_eq!(reports[0].connectivity_fraction(), 1.0);
        assert_eq!(reports[1].range, 0.5 * r);
    }

    #[test]
    fn stationary_model_collapses_metrics() {
        let p = small_problem(StationaryModel::new().into());
        let sol = p.solve().unwrap();
        assert!((sol.ranges.r100.mean() - sol.ranges.r0.mean()).abs() < 1e-9);
    }

    #[test]
    fn zoo_models_run_every_metric() {
        let registry = ModelRegistry::<2>::with_builtins();
        let scale = PaperScale::new(100.0).with_pause(3);
        for name in ["gauss-markov", "rpgm", "walk-wrap", "direction-bounce"] {
            let p = small_problem(registry.build(name, &scale).unwrap());
            let sol = p.solve().unwrap();
            assert!(sol.ranges.r100.mean() >= sol.ranges.r0.mean());
            let reports = p
                .fixed_range_reports(&[sol.ranges.r100.max() * 1.01])
                .unwrap();
            assert_eq!(reports[0].connectivity_fraction(), 1.0, "model {name}");
        }
    }

    /// The campaign the uptime tests below share: 4 iterations of 60
    /// steps, 10 nodes in a 150-unit square.
    fn uptime_problem(model: impl Into<AnyModel<2>>) -> MtrmProblem<2> {
        let config = SimConfig::<2>::builder()
            .nodes(10)
            .side(150.0)
            .iterations(4)
            .steps(60)
            .seed(33)
            .build()
            .unwrap();
        MtrmProblem::new(config, model)
    }

    #[test]
    fn stationary_model_never_transitions() {
        let sol = uptime_problem(StationaryModel::new()).solve().unwrap();
        let summary = sol.uptime_at(60.0).unwrap();
        assert_eq!(summary.failures_per_iteration, 0.0);
        // Each iteration is entirely up or entirely down.
        assert!(
            summary.availability == 0.0
                || summary.availability == 1.0
                || (summary.availability * 4.0).fract().abs() < 1e-12
        );
    }

    #[test]
    fn availability_matches_quantile_path() {
        let sol = uptime_problem(RandomWaypoint::new(0.5, 3.0, 2, 0.0).unwrap())
            .solve()
            .unwrap();
        let r = 55.0;
        let summary = sol.uptime_at(r).unwrap();
        assert!(
            (summary.availability - sol.availability_at(r)).abs() < 1e-12,
            "uptime {} vs quantile {}",
            summary.availability,
            sol.availability_at(r)
        );
    }

    #[test]
    fn larger_range_fewer_failures() {
        let sol = uptime_problem(RandomWaypoint::new(0.5, 3.0, 0, 0.0).unwrap())
            .solve()
            .unwrap();
        let pooled = sol.critical.pooled().unwrap();
        let r_small = pooled.smallest_covering(0.5).unwrap();
        let r_large = pooled.smallest_covering(0.98).unwrap();
        let small = sol.uptime_at(r_small).unwrap();
        let large = sol.uptime_at(r_large).unwrap();
        assert!(large.availability > small.availability);
        assert!(large.longest_outage <= small.longest_outage);
    }

    /// A sorted series is up for one run and then down for one run, so
    /// it fails at most once per iteration; motion makes the
    /// time-ordered series wander across the median several times.
    #[test]
    fn raw_series_is_time_ordered_not_sorted() {
        let sol = uptime_problem(RandomWaypoint::new(0.5, 3.0, 0, 0.0).unwrap())
            .solve()
            .unwrap();
        assert_eq!(sol.critical.per_iteration().len(), 4);
        for s in sol.critical.per_iteration() {
            assert_eq!(s.len(), 60);
        }
        let median = sol
            .critical
            .pooled()
            .unwrap()
            .smallest_covering(0.5)
            .unwrap();
        let summary = sol.uptime_at(median).unwrap();
        assert!(
            summary.failures_per_iteration > 1.0,
            "series suspiciously sorted: {summary:?}"
        );
        // The premise: a sorted copy of a series fails at most once.
        for s in sol.critical.per_iteration() {
            let sorted = UptimeReport::from_series(s.as_sorted(), median).unwrap();
            assert!(sorted.failures <= 1);
        }
    }

    /// `r100_per_iteration()` is the r100-only pass of Figures 7–9: on
    /// every registry model, at n = 16 and 64 and at 1 and 3 threads,
    /// its maxima are bit for bit those of `solve()`'s series, and they
    /// give its pooled `r100` and its `ranges.r100` moments.
    #[test]
    fn r100_per_iteration_matches_solve_on_every_registry_model() {
        let registry = ModelRegistry::<2>::with_builtins();
        assert_eq!(registry.names().len(), 13);
        for n in [16, 64] {
            let side = (n * n) as f64;
            let scale = PaperScale::new(side).with_pause(20);
            for threads in [1, 3] {
                let config = SimConfig::<2>::builder()
                    .nodes(n)
                    .side(side)
                    .iterations(4)
                    .steps(100)
                    .seed(0xA117)
                    .threads(threads)
                    .build()
                    .unwrap();
                for name in registry.names() {
                    let p = MtrmProblem::new(config.clone(), registry.build(name, &scale).unwrap());
                    let at = format!("{name} n={n} threads={threads}");
                    let maxima = p.r100_per_iteration();
                    let sol = p.solve().unwrap();
                    let want: Vec<u64> = sol
                        .critical
                        .per_iteration()
                        .iter()
                        .map(|s| s.max().to_bits())
                        .collect();
                    let got: Vec<u64> = maxima.iter().map(|m| m.to_bits()).collect();
                    assert_eq!(got, want, "{at}");
                    let pooled = maxima.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                    let r100 = sol.pooled_quantiles().unwrap().r100;
                    assert_eq!(pooled.to_bits(), r100.to_bits(), "{at}");
                    let mut moments = manet_stats::RunningMoments::new();
                    moments.extend(maxima);
                    assert_eq!(
                        format!("{moments:?}"),
                        format!("{:?}", sol.ranges.r100),
                        "{at}"
                    );
                }
            }
        }
    }

    /// `solve()` and `campaign()` keep each iteration's series in time
    /// order: on every registry model and at any thread count, their
    /// `uptime_at` equals `UptimeSummary::from_series` on an independent
    /// raw campaign. A solution that kept the sorted series would still
    /// match on availability but not on the run counts.
    #[test]
    fn uptime_reads_the_time_ordered_series_on_every_registry_model() {
        let registry = ModelRegistry::<2>::with_builtins();
        let scale = PaperScale::new(256.0).with_pause(8);
        assert_eq!(registry.names().len(), 13);
        for threads in [1, 3] {
            let config = SimConfig::<2>::builder()
                .nodes(16)
                .side(256.0)
                .iterations(3)
                .steps(40)
                .seed(0x5EED)
                .threads(threads)
                .build()
                .unwrap();
            for name in registry.names() {
                let model = registry.build(name, &scale).unwrap();
                let raw = manet_sim::simulate_raw_critical_series(&config, &model);
                let p = MtrmProblem::new(config.clone(), model);
                let sol = p.solve().unwrap();
                let campaign = p.campaign().unwrap();
                let q = sol.pooled_quantiles().unwrap();
                for r in [q.r100, q.r90, q.r10] {
                    let want = UptimeSummary::from_series(&raw, r).unwrap();
                    let at = format!("{name} threads={threads} r={r}");
                    assert_eq!(sol.uptime_at(r).unwrap(), want, "solve: {at}");
                    assert_eq!(
                        campaign.solution().uptime_at(r).unwrap(),
                        want,
                        "campaign: {at}"
                    );
                }
            }
        }
    }
}
