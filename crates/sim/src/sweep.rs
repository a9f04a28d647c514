//! Deterministic batched sweep scheduler: a job pool over independent
//! scenario jobs with checkpoint/resume.
//!
//! Grid experiments (the critical-scaling sweep, and the parameter
//! sweeps ROADMAP items 3–5 plan) all share one shape: a fixed list of
//! independent jobs — each a seeded simulation campaign — whose
//! results must be merged into artifacts that are **byte-identical at
//! every thread count**. [`SweepScheduler`] owns that shape once.
//!
//! # Determinism
//!
//! Pending jobs fan out through `manet_graph::parallel::run_indexed`,
//! the workspace's one thread site, whose results come back in
//! pending (= job-id) order whatever the thread count. Every job owns
//! its inputs and produces an owned result, so the merged
//! [`SweepRun::results`] is a pure function of `(jobs, cached
//! results, job function)` — the thread count never appears.
//! `tests/critical_scaling.rs` pins byte-identity across scheduler
//! thread counts {1, 2, 4, 7} on top of this module's unit tests.
//!
//! # Checkpoint/resume
//!
//! [`SweepCheckpoint`] is the pure-data snapshot of a partially
//! completed grid: a caller-chosen fingerprint (hash of everything
//! that shapes the grid) plus the job-id-indexed result slots. A
//! scheduler given cached slots runs only the missing jobs, and a
//! budget ([`SweepScheduler::with_budget`]) bounds how many jobs one
//! invocation executes — which is how the CLI's `--max-cells` makes an
//! interrupted grid resumable: persist the checkpoint, exit, reload,
//! run the rest. Because jobs are deterministic, a resumed grid's
//! results are bitwise the ones an uninterrupted run produces.

use crate::SimError;
use manet_graph::parallel::run_indexed;

/// A deterministic pool over independent sweep jobs.
///
/// Construct with a thread count, optionally bound the number of jobs
/// one invocation may execute with [`SweepScheduler::with_budget`],
/// then [`SweepScheduler::run`] a job list against cached results.
#[derive(Debug, Clone)]
pub struct SweepScheduler {
    threads: usize,
    budget: Option<usize>,
}

impl SweepScheduler {
    /// Creates a scheduler running jobs on `threads` workers.
    /// Results never depend on the count — it is purely a performance
    /// knob.
    ///
    /// # Panics
    ///
    /// Panics when `threads` is zero.
    pub fn new(threads: usize) -> Self {
        assert!(threads >= 1, "threads must be at least 1");
        SweepScheduler {
            threads,
            budget: None,
        }
    }

    /// Bounds the number of jobs a single [`SweepScheduler::run`] may
    /// execute (chainable). Pending jobs are taken in job-id order, so
    /// a budgeted run completes a deterministic prefix of the missing
    /// work — the checkpoint/resume building block.
    pub fn with_budget(mut self, budget: usize) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Runs the jobs whose `cached` slot is empty (up to the budget)
    /// and merges fresh results into the slots **in job-id order**.
    ///
    /// `run_job(id, &jobs[id])` must be a pure function of its
    /// arguments for the determinism contract to hold; the scheduler
    /// guarantees each missing id is claimed exactly once and that the
    /// returned slots are independent of the thread count.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when `cached` and `jobs`
    /// disagree in length, and propagates the failing job's error with
    /// the smallest job id (deterministic regardless of scheduling)
    /// when any job fails.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any job.
    pub fn run<J, R, F>(
        &self,
        jobs: &[J],
        cached: Vec<Option<R>>,
        run_job: F,
    ) -> Result<SweepRun<R>, SimError>
    where
        J: Sync,
        R: Send,
        F: Fn(usize, &J) -> Result<R, SimError> + Sync,
    {
        if cached.len() != jobs.len() {
            return Err(SimError::InvalidConfig {
                reason: format!(
                    "cached sweep slots ({}) do not match the job list ({})",
                    cached.len(),
                    jobs.len()
                ),
            });
        }
        let mut pending: Vec<usize> = cached
            .iter()
            .enumerate()
            .filter_map(|(id, slot)| slot.is_none().then_some(id))
            .collect();
        if let Some(budget) = self.budget {
            pending.truncate(budget);
        }
        let executed = pending.len();

        let mut slots = cached;
        let results = run_indexed(self.threads, pending, |_, id| (id, run_job(id, &jobs[id])));
        // Results arrive in ascending job id, so `?` surfaces the
        // smallest failing id whatever the scheduling.
        for (id, result) in results {
            slots[id] = Some(result?);
        }
        Ok(SweepRun { slots, executed })
    }
}

/// The outcome of one [`SweepScheduler::run`]: job-id-ordered result
/// slots (cached and fresh alike) plus how many jobs this invocation
/// executed.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRun<R> {
    slots: Vec<Option<R>>,
    executed: usize,
}

impl<R> SweepRun<R> {
    /// The result slots, indexed by job id (`None` = not yet run).
    pub fn results(&self) -> &[Option<R>] {
        &self.slots
    }

    /// Consumes the run, yielding the slots.
    pub fn into_results(self) -> Vec<Option<R>> {
        self.slots
    }

    /// How many jobs this invocation actually executed (fresh work,
    /// excluding cached slots).
    pub fn executed(&self) -> usize {
        self.executed
    }

    /// How many slots are filled (cached + fresh).
    pub fn completed(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Whether every job has a result.
    pub fn is_complete(&self) -> bool {
        self.slots.iter().all(|s| s.is_some())
    }

    /// Unwraps a complete run into plain results.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when any slot is still
    /// empty (a budgeted run that has not finished the grid).
    pub fn into_complete(self) -> Result<Vec<R>, SimError> {
        let (done, total) = (self.completed(), self.slots.len());
        self.slots
            .into_iter()
            .collect::<Option<Vec<R>>>()
            .ok_or_else(|| SimError::InvalidConfig {
                reason: format!("sweep incomplete: {done} of {total} jobs have results"),
            })
    }
}

/// A resumable snapshot of a partially completed sweep grid: the
/// caller's grid fingerprint plus job-id-indexed result slots.
///
/// The fingerprint must encode everything that shapes the grid and its
/// jobs (models, sizes, seed, targets, tolerances…), so a checkpoint
/// can refuse to resume against a different grid
/// ([`SweepCheckpoint::validate`]). With the `serde` feature the type
/// serializes as `{ "fingerprint": …, "results": […] }` for file
/// persistence by CLI layers.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCheckpoint<R> {
    fingerprint: String,
    results: Vec<Option<R>>,
}

impl<R> SweepCheckpoint<R> {
    /// An empty checkpoint for a `jobs`-sized grid.
    pub fn new(fingerprint: impl Into<String>, jobs: usize) -> Self {
        SweepCheckpoint {
            fingerprint: fingerprint.into(),
            results: (0..jobs).map(|_| None).collect(),
        }
    }

    /// The grid fingerprint this checkpoint belongs to.
    pub fn fingerprint(&self) -> &str {
        &self.fingerprint
    }

    /// The result slots, indexed by job id.
    pub fn results(&self) -> &[Option<R>] {
        &self.results
    }

    /// Consumes the checkpoint, yielding the slots (the `cached` input
    /// of [`SweepScheduler::run`]).
    pub fn into_results(self) -> Vec<Option<R>> {
        self.results
    }

    /// How many slots are filled.
    pub fn completed(&self) -> usize {
        self.results.iter().filter(|s| s.is_some()).count()
    }

    /// Whether the grid is fully computed.
    pub fn is_complete(&self) -> bool {
        self.results.iter().all(|s| s.is_some())
    }

    /// Checks that this checkpoint belongs to the `(fingerprint,
    /// jobs)` grid about to run.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] on a fingerprint or length
    /// mismatch — resuming across a changed grid would silently mix
    /// incompatible results.
    pub fn validate(&self, fingerprint: &str, jobs: usize) -> Result<(), SimError> {
        if self.fingerprint != fingerprint {
            return Err(SimError::InvalidConfig {
                reason: format!(
                    "checkpoint fingerprint `{}` does not match this sweep `{fingerprint}`",
                    self.fingerprint
                ),
            });
        }
        if self.results.len() != jobs {
            return Err(SimError::InvalidConfig {
                reason: format!(
                    "checkpoint holds {} job slots but this sweep has {jobs}",
                    self.results.len()
                ),
            });
        }
        Ok(())
    }

    /// Absorbs a run's slots into this checkpoint.
    pub fn absorb(&mut self, run: SweepRun<R>) {
        self.results = run.into_results();
    }
}

// Manual serde impls: the vendored derive does not emit trait bounds
// for type parameters, so the generic checkpoint spells out the
// `R: Serialize` / `R: Deserialize` impls the derive would need.
#[cfg(feature = "serde")]
impl<R: serde::Serialize> serde::Serialize for SweepCheckpoint<R> {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::SerializeStruct;
        let mut st = serializer.serialize_struct("SweepCheckpoint", 2)?;
        st.serialize_field("fingerprint", &self.fingerprint)?;
        st.serialize_field("results", &self.results)?;
        st.end()
    }
}

#[cfg(feature = "serde")]
impl<'de, R: serde::Deserialize<'de>> serde::Deserialize<'de> for SweepCheckpoint<R> {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        struct Visitor<R>(core::marker::PhantomData<R>);
        impl<'de, R: serde::Deserialize<'de>> serde::de::Visitor<'de> for Visitor<R> {
            type Value = SweepCheckpoint<R>;

            fn expecting(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
                f.write_str("a sweep checkpoint map")
            }

            fn visit_map<A: serde::de::MapAccess<'de>>(
                self,
                mut map: A,
            ) -> Result<Self::Value, A::Error> {
                let mut fingerprint: Option<String> = None;
                let mut results: Option<Vec<Option<R>>> = None;
                while let Some(key) = map.next_key::<String>()? {
                    match key.as_str() {
                        "fingerprint" => fingerprint = Some(map.next_value()?),
                        "results" => results = Some(map.next_value()?),
                        _ => {
                            let _ = map.next_value::<serde::de::IgnoredAny>()?;
                        }
                    }
                }
                let fingerprint = fingerprint
                    .ok_or_else(|| serde::de::Error::custom("checkpoint missing `fingerprint`"))?;
                let results = results
                    .ok_or_else(|| serde::de::Error::custom("checkpoint missing `results`"))?;
                Ok(SweepCheckpoint {
                    fingerprint,
                    results,
                })
            }
        }
        deserializer.deserialize_struct(
            "SweepCheckpoint",
            &["fingerprint", "results"],
            Visitor(core::marker::PhantomData),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square_jobs(n: usize) -> Vec<usize> {
        (0..n).collect()
    }

    fn run_squares(
        scheduler: &SweepScheduler,
        jobs: &[usize],
        cached: Vec<Option<usize>>,
    ) -> SweepRun<usize> {
        scheduler.run(jobs, cached, |_, &j| Ok(j * j)).unwrap()
    }

    #[test]
    fn full_run_fills_every_slot_in_job_order() {
        let jobs = square_jobs(9);
        let run = run_squares(&SweepScheduler::new(3), &jobs, vec![None; 9]);
        assert!(run.is_complete());
        assert_eq!(run.executed(), 9);
        let values = run.into_complete().unwrap();
        assert_eq!(values, vec![0, 1, 4, 9, 16, 25, 36, 49, 64]);
    }

    #[test]
    fn cached_slots_are_kept_and_not_recomputed() {
        let jobs = square_jobs(5);
        let mut cached = vec![None; 5];
        cached[1] = Some(999); // deliberately wrong: must be preserved, not re-run
        cached[3] = Some(888);
        let run = run_squares(&SweepScheduler::new(2), &jobs, cached);
        assert_eq!(run.executed(), 3);
        assert_eq!(
            run.into_complete().unwrap(),
            vec![0, 999, 4, 888, 16],
            "cached slots must pass through untouched"
        );
    }

    #[test]
    fn budget_executes_a_deterministic_prefix_and_resume_completes() {
        let jobs = square_jobs(7);
        let budgeted = SweepScheduler::new(4).with_budget(3);
        let first = run_squares(&budgeted, &jobs, vec![None; 7]);
        assert_eq!(first.executed(), 3);
        assert_eq!(first.completed(), 3);
        assert!(!first.is_complete());
        assert_eq!(
            first.results()[..3],
            [Some(0), Some(1), Some(4)],
            "budget must take pending jobs in job-id order"
        );
        assert!(first.clone().into_complete().is_err());

        // Resume from the partial slots: only the tail runs.
        let resumed = run_squares(&SweepScheduler::new(2), &jobs, first.into_results());
        assert_eq!(resumed.executed(), 4);
        let uninterrupted = run_squares(&SweepScheduler::new(1), &jobs, vec![None; 7]);
        assert_eq!(
            resumed.results(),
            uninterrupted.results(),
            "interrupt + resume must reproduce the uninterrupted grid"
        );
    }

    #[test]
    fn zero_budget_runs_nothing() {
        let jobs = square_jobs(4);
        let run = run_squares(&SweepScheduler::new(2).with_budget(0), &jobs, vec![None; 4]);
        assert_eq!(run.executed(), 0);
        assert_eq!(run.completed(), 0);
    }

    #[test]
    fn job_errors_surface_the_smallest_failing_id() {
        let jobs = square_jobs(8);
        for threads in [1, 4] {
            let err = SweepScheduler::new(threads)
                .run(&jobs, vec![None; 8], |id, &j| {
                    if j % 3 == 2 {
                        Err(SimError::InvalidConfig {
                            reason: format!("job {id} failed"),
                        })
                    } else {
                        Ok(j)
                    }
                })
                .unwrap_err();
            assert_eq!(
                err,
                SimError::InvalidConfig {
                    reason: "job 2 failed".into()
                },
                "threads={threads} must report the smallest failing job id"
            );
        }
    }

    #[test]
    fn slot_length_mismatch_is_rejected() {
        let jobs = square_jobs(3);
        let err = SweepScheduler::new(1)
            .run(&jobs, vec![None::<usize>; 2], |_, &j| Ok(j))
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig { .. }));
    }

    #[test]
    #[should_panic(expected = "threads must be at least 1")]
    fn zero_threads_rejected() {
        let _ = SweepScheduler::new(0);
    }

    #[test]
    fn checkpoint_validates_fingerprint_and_length() {
        let cp = SweepCheckpoint::<usize>::new("grid-v1", 4);
        assert_eq!(cp.fingerprint(), "grid-v1");
        assert_eq!(cp.completed(), 0);
        assert!(!cp.is_complete());
        cp.validate("grid-v1", 4).unwrap();
        assert!(cp.validate("grid-v2", 4).is_err());
        assert!(cp.validate("grid-v1", 5).is_err());
    }

    #[test]
    fn checkpoint_absorbs_runs_and_tracks_completion() {
        let jobs = square_jobs(5);
        let mut cp = SweepCheckpoint::new("squares", jobs.len());
        let partial = run_squares(
            &SweepScheduler::new(2).with_budget(2),
            &jobs,
            cp.results().to_vec(),
        );
        cp.absorb(partial);
        assert_eq!(cp.completed(), 2);
        let rest = run_squares(&SweepScheduler::new(2), &jobs, cp.into_results());
        assert!(rest.is_complete());
        assert_eq!(rest.into_complete().unwrap(), vec![0, 1, 4, 9, 16]);
    }

    #[cfg(feature = "serde")]
    #[test]
    fn checkpoint_serde_round_trips() {
        let cp = SweepCheckpoint {
            fingerprint: "grid-v1".to_string(),
            results: vec![Some(7usize), None, Some(9)],
        };
        let json = serde_json::to_string(&cp).unwrap();
        assert_eq!(
            json, "{\"fingerprint\":\"grid-v1\",\"results\":[7,null,9]}",
            "schema is part of the resume contract"
        );
        let back: SweepCheckpoint<usize> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cp);
        assert!(serde_json::from_str::<SweepCheckpoint<usize>>("{\"results\":[]}").is_err());
    }
}
