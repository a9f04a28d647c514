//! Duration accumulators shared by every temporal metric.
//!
//! Link lifetimes, inter-contact times, isolation spells and partition
//! outages are all streams of **interval lengths** (in steps) with a
//! tail of *censored* intervals still open when observation ends. An
//! [`IntervalAccumulator`] folds such a stream into moments plus a
//! fixed-geometry histogram (`manet-stats`), merges across iterations,
//! and summarizes into the distribution record the artifacts carry:
//! mean/extrema, median and p90, and a survival curve.

use manet_stats::{Histogram, RunningMoments};

/// Number of histogram bins an accumulator uses (capped by the
/// horizon, so one-step campaigns still build a valid histogram).
pub const DEFAULT_BINS: usize = 64;

/// Streaming accumulator for one family of interval durations.
///
/// Completed intervals feed the moments and the histogram; intervals
/// still open at the end of observation are *censored* — counted, but
/// excluded from the distribution (their true length is unknown, only
/// bounded below). The histogram spans `[0, steps + 1)` so every
/// possible completed duration lands in a real bin.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct IntervalAccumulator {
    moments: RunningMoments,
    histogram: Histogram,
    censored: u64,
}

impl IntervalAccumulator {
    /// Creates an accumulator for a campaign of `steps` mobility steps.
    pub fn new(steps: usize) -> Self {
        let hi = (steps.max(1) + 1) as f64;
        let bins = steps.clamp(1, DEFAULT_BINS);
        IntervalAccumulator {
            moments: RunningMoments::new(),
            #[expect(clippy::expect_used, reason = "hi > 0 and bins >= 1 by construction")]
            histogram: Histogram::new(0.0, hi, bins).expect("hi > 0 and bins >= 1 by construction"),
            censored: 0,
        }
    }

    /// Records one completed interval of `len` steps.
    pub fn record(&mut self, len: usize) {
        self.moments.push(len as f64);
        self.histogram.record(len as f64);
    }

    /// Counts one interval still open when observation ended.
    pub fn record_censored(&mut self) {
        self.censored += 1;
    }

    /// Completed intervals observed.
    pub fn count(&self) -> u64 {
        self.moments.count()
    }

    /// Censored (still-open) intervals observed.
    pub fn censored(&self) -> u64 {
        self.censored
    }

    /// Mean completed-interval length (`None` when none completed).
    pub fn mean(&self) -> Option<f64> {
        (!self.moments.is_empty()).then(|| self.moments.mean())
    }

    /// Merges another accumulator (same campaign geometry) into this
    /// one.
    ///
    /// # Panics
    ///
    /// Panics when the histogram geometries differ — merging traces of
    /// different horizons is a logic error.
    pub fn merge(&mut self, other: &IntervalAccumulator) {
        self.moments.merge(&other.moments);
        self.histogram.merge(&other.histogram);
        self.censored += other.censored;
    }

    /// Folds the accumulator into the serializable summary record.
    pub fn summarize(&self) -> IntervalSummary {
        let (mean, min, max) = if self.moments.is_empty() {
            (None, None, None)
        } else {
            (
                Some(self.moments.mean()),
                Some(self.moments.min()),
                Some(self.moments.max()),
            )
        };
        // The sample std dev divides by n - 1: defined (and finite,
        // which JSON artifacts require) only from two observations.
        let std_dev = (self.moments.count() >= 2).then(|| self.moments.sample_std_dev());
        let quantile = |q: f64| self.histogram.quantile(q).ok();
        let mut survival = Vec::new();
        if self.count() > 0 {
            // S(0) = 1 by definition; thereafter, `Histogram::survival`
            // evaluated at a bin's left edge is the fraction of
            // intervals outliving that whole bin, i.e. S at its right
            // edge. Truncate once the curve hits zero (every completed
            // interval lands in some bin, so it always does).
            survival.push(SurvivalPoint {
                t: 0.0,
                survival: 1.0,
            });
            for i in 0..self.histogram.bins() {
                let t = self.histogram.bin_right(i);
                let s = self.histogram.survival(self.histogram.bin_left(i));
                survival.push(SurvivalPoint { t, survival: s });
                if s == 0.0 {
                    break;
                }
            }
        }
        IntervalSummary {
            count: self.count(),
            censored: self.censored,
            mean,
            std_dev,
            min,
            max,
            p50: quantile(0.5),
            p90: quantile(0.9),
            survival,
        }
    }
}

/// One point of a survival curve: the fraction of intervals lasting
/// `t` steps or longer.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SurvivalPoint {
    /// Duration, in steps (a histogram bin edge).
    pub t: f64,
    /// Fraction of completed intervals with length exceeding `t`
    /// (at bin resolution).
    pub survival: f64,
}

/// Serializable distribution record of one interval family.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct IntervalSummary {
    /// Completed intervals observed.
    pub count: u64,
    /// Intervals still open when observation ended.
    pub censored: u64,
    /// Mean completed length in steps (`None` when `count == 0`).
    pub mean: Option<f64>,
    /// Sample standard deviation of completed lengths (`None` below
    /// two observations).
    pub std_dev: Option<f64>,
    /// Shortest completed interval.
    pub min: Option<f64>,
    /// Longest completed interval.
    pub max: Option<f64>,
    /// Median completed length (histogram bin edge).
    pub p50: Option<f64>,
    /// 90th-percentile completed length (histogram bin edge).
    pub p90: Option<f64>,
    /// Survival curve, truncated once it reaches zero.
    pub survival: Vec<SurvivalPoint>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_accumulator_summarizes_cleanly() {
        let acc = IntervalAccumulator::new(100);
        let s = acc.summarize();
        assert_eq!(s.count, 0);
        assert_eq!(s.censored, 0);
        assert_eq!(s.mean, None);
        assert_eq!(s.p50, None);
        assert!(s.survival.is_empty());
    }

    #[test]
    fn record_updates_all_views() {
        let mut acc = IntervalAccumulator::new(100);
        for len in [2, 4, 6] {
            acc.record(len);
        }
        acc.record_censored();
        let s = acc.summarize();
        assert_eq!(s.count, 3);
        assert_eq!(s.censored, 1);
        assert_eq!(s.mean, Some(4.0));
        assert_eq!(s.min, Some(2.0));
        assert_eq!(s.max, Some(6.0));
        assert!(s.p50.is_some() && s.p90.is_some());
    }

    #[test]
    fn single_observation_has_finite_summary() {
        let mut acc = IntervalAccumulator::new(20);
        acc.record(7);
        let s = acc.summarize();
        assert_eq!(s.mean, Some(7.0));
        assert_eq!(s.std_dev, None, "n=1 sample std dev is undefined");
        assert!(s.survival.iter().all(|p| p.survival.is_finite()));
    }

    #[test]
    fn survival_curve_is_monotone_from_one() {
        let mut acc = IntervalAccumulator::new(50);
        for len in [1, 1, 5, 20, 45] {
            acc.record(len);
        }
        let s = acc.summarize();
        assert!(!s.survival.is_empty());
        assert_eq!(s.survival[0].survival, 1.0);
        for w in s.survival.windows(2) {
            assert!(w[1].survival <= w[0].survival, "survival must not increase");
        }
        assert_eq!(s.survival.last().unwrap().survival, 0.0);
    }

    #[test]
    fn merge_equals_single_stream() {
        let mut a = IntervalAccumulator::new(30);
        let mut b = IntervalAccumulator::new(30);
        let mut both = IntervalAccumulator::new(30);
        for len in [1, 2, 3] {
            a.record(len);
            both.record(len);
        }
        for len in [10, 20] {
            b.record(len);
            both.record(len);
        }
        b.record_censored();
        both.record_censored();
        a.merge(&b);
        assert_eq!(a.count(), both.count());
        assert_eq!(a.censored(), both.censored());
        assert_eq!(a.summarize().p90, both.summarize().p90);
        assert!((a.mean().unwrap() - both.mean().unwrap()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "differ")]
    fn merge_rejects_different_horizons() {
        let mut a = IntervalAccumulator::new(10);
        let b = IntervalAccumulator::new(500);
        a.merge(&b);
    }

    #[test]
    fn one_step_horizon_is_valid() {
        let mut acc = IntervalAccumulator::new(1);
        acc.record(1);
        assert_eq!(acc.summarize().count, 1);
        // Horizon 0 (degenerate) must not panic either.
        let mut z = IntervalAccumulator::new(0);
        z.record(0);
        assert_eq!(z.count(), 1);
    }
}
