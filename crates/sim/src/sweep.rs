//! Deterministic sweep scheduler: a job pool over independent scenario
//! jobs whose merged results never depend on the thread count.
//!
//! The critical-scaling sweep (X5) runs a fixed list of independent
//! jobs — one exact critical-range campaign per (model, `n`) cell —
//! whose results must be merged into artifacts that are
//! **byte-identical at every thread count**. [`SweepScheduler`] owns
//! that shape once.
//!
//! # Determinism
//!
//! Pending jobs fan out through [`crate::parallel::run_indexed`],
//! the workspace's one thread site, whose results come back in
//! pending (= job-id) order whatever the thread count. Every job owns
//! its inputs and produces an owned result, so the merged slots are a
//! pure function of `(jobs, cached results, job function)` — the
//! thread count never appears. `tests/critical_scaling.rs` pins
//! byte-identity across scheduler thread counts {1, 2, 4, 7} on top of
//! this module's unit tests.

use crate::parallel::run_indexed;
use crate::SimError;

/// A deterministic pool over independent sweep jobs.
///
/// Construct with a thread count, then [`SweepScheduler::run`] a job
/// list against cached results.
#[derive(Debug, Clone)]
pub struct SweepScheduler {
    threads: usize,
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
        SweepScheduler { threads }
    }

    /// Runs the jobs whose `cached` slot is empty and merges fresh
    /// results into the slots **in job-id order**.
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
        let pending: Vec<usize> = cached
            .iter()
            .enumerate()
            .filter_map(|(id, slot)| slot.is_none().then_some(id))
            .collect();

        let mut slots = cached;
        let results = run_indexed(self.threads, pending, |_, id| (id, run_job(id, &jobs[id])));
        // Results arrive in ascending job id, so `?` surfaces the
        // smallest failing id whatever the scheduling.
        for (id, result) in results {
            slots[id] = Some(result?);
        }
        Ok(SweepRun { slots })
    }
}

/// The outcome of one [`SweepScheduler::run`]: job-id-ordered result
/// slots, cached and fresh alike.
#[derive(Debug)]
pub struct SweepRun<R> {
    slots: Vec<Option<R>>,
}

impl<R> SweepRun<R> {
    /// Unwraps the run into plain results in job-id order.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when any slot is empty.
    pub fn into_complete(self) -> Result<Vec<R>, SimError> {
        let total = self.slots.len();
        let done = self.slots.iter().filter(|s| s.is_some()).count();
        self.slots
            .into_iter()
            .collect::<Option<Vec<R>>>()
            .ok_or_else(|| SimError::InvalidConfig {
                reason: format!("sweep incomplete: {done} of {total} jobs have results"),
            })
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
        assert_eq!(
            run.into_complete().unwrap(),
            vec![0, 999, 4, 888, 16],
            "cached slots must pass through untouched"
        );
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
}
