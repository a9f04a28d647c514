//! Deterministic fan-out: the workspace's one `std::thread` site.
//!
//! [`run_indexed`] runs a vector of owned jobs on a small scoped worker
//! pool and returns their results **in job-index order**. Every
//! parallel layer goes through it: the step kernel's spatial shards
//! (`crate::dynamic`), the engine's per-iteration trajectories and the
//! sweep scheduler's grid cells (`manet-sim`).
//!
//! # Determinism argument
//!
//! Workers race over one shared cursor — a locked iterator over
//! `(index, job)` — so *which* worker runs a job and in *what order*
//! jobs finish is scheduling noise. Nothing a job computes can observe
//! that noise: each job owns its input (moved out of the vector), the
//! job function is shared immutably, each index is claimed exactly
//! once, and the tagged results are sorted by index after the scope
//! joins. The returned vector is therefore a pure function of
//! `(jobs, f)`; the thread count never appears. Callers keep that
//! property by making `f(index, job)` itself a pure function — the
//! engine derives each iteration's RNG seed from the master seed and
//! the index, the step kernel's shards partition the cell lattice,
//! the sweep's cells are seeded campaigns.
//!
//! The contract is pinned by this module's unit tests, the step
//! kernel's thread-invariance proptests, `tests/determinism.rs`,
//! `tests/critical_scaling.rs` and the CLI byte-identity tests. This is
//! the one waiver (an `#[expect(clippy::disallowed_methods)]`) of the
//! root `clippy.toml` threading bans, rule R6 of the determinism
//! contract.

use std::sync::{Mutex, PoisonError};

/// The worker count used when a caller pins none: the host's available
/// parallelism, or 1 when it cannot be queried.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs `f(index, job)` for every job on up to `threads` workers and
/// returns the results in job-index order, whatever the thread count.
///
/// Runs inline on the caller's thread, spawning nothing, when
/// `threads <= 1` or there is at most one job. Otherwise the caller's
/// thread works alongside `min(threads, jobs.len()) - 1` scoped
/// workers, all claiming jobs off one shared cursor, so uneven job
/// costs balance themselves.
///
/// # Panics
///
/// Re-raises a panic from `f` with its original payload, once every
/// worker has stopped.
#[expect(
    clippy::disallowed_methods,
    reason = "run_indexed, the workspace's one fan-out: workers claim owned jobs off one \
              shared cursor and results are sorted back into job-index order after the \
              scope joins, so the step kernel's shards, the engine's iterations and the \
              sweep's cells are byte-identical across thread counts"
)]
pub fn run_indexed<J, R, F>(threads: usize, jobs: Vec<J>, f: F) -> Vec<R>
where
    J: Send,
    R: Send,
    F: Fn(usize, J) -> R + Sync,
{
    let workers = threads.min(jobs.len());
    if workers <= 1 {
        return jobs
            .into_iter()
            .enumerate()
            .map(|(i, job)| f(i, job))
            .collect();
    }
    let cursor = Mutex::new(jobs.into_iter().enumerate());
    let (cursor, f) = (&cursor, &f);
    let work = move || {
        let mut done = Vec::new();
        loop {
            // The lock guards only `next()`, which cannot panic, so a
            // poisoned cursor is still consistent.
            let claimed = cursor.lock().unwrap_or_else(PoisonError::into_inner).next();
            let Some((i, job)) = claimed else {
                return done;
            };
            done.push((i, f(i, job)));
        }
    };
    let mut tagged = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        let mut tagged = work();
        for helper in helpers {
            match helper.join() {
                Ok(done) => tagged.extend(done),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        tagged
    });
    tagged.sort_unstable_by_key(|&(i, _)| i);
    tagged.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Job `i` spins for a cost that varies unevenly with `i`, so a
    /// multi-worker pool finishes jobs out of index order.
    fn uneven(i: usize, job: u64) -> u64 {
        let spins = [40_000, 10, 90_000, 5, 20_000][i % 5];
        let mut acc = job;
        for k in 0..spins {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
        }
        std::hint::black_box(acc);
        job * 10
    }

    #[test]
    fn results_come_back_in_job_order() {
        let want: Vec<u64> = (0..23).map(|j| j * 10).collect();
        for threads in [1, 2, 4, 7] {
            let got = run_indexed(threads, (0..23).collect(), uneven);
            assert_eq!(got, want, "threads={threads} reordered results");
        }
    }

    #[test]
    fn results_identical_across_thread_counts() {
        let reference = run_indexed(1, (0..23usize).collect(), |i, j| (i, j * j));
        // 64 threads for 23 jobs: the pool caps at one worker per job
        // and still runs each job exactly once.
        for threads in [2, 4, 7, 64] {
            assert_eq!(
                run_indexed(threads, (0..23usize).collect(), |i, j| (i, j * j)),
                reference,
                "threads={threads} changed the results"
            );
        }
    }

    #[test]
    fn zero_and_one_job_run_inline() {
        let caller = std::thread::current().id();
        let none: Vec<u32> = run_indexed(4, Vec::<u32>::new(), |_, j| j);
        assert!(none.is_empty());
        let one = run_indexed(4, vec![7u32], |i, j| {
            assert_eq!(
                std::thread::current().id(),
                caller,
                "one job must run inline"
            );
            (i, j)
        });
        assert_eq!(one, vec![(0, 7)]);
        let serial = run_indexed(1, vec![1u32, 2, 3], |_, j| {
            assert_eq!(
                std::thread::current().id(),
                caller,
                "threads=1 must run inline"
            );
            j
        });
        assert_eq!(serial, vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "job 3 failed loudly")]
    fn worker_panics_propagate() {
        let _ = run_indexed(3, (0..6).collect(), |i, j: u32| {
            if i == 3 {
                panic!("job {i} failed loudly");
            }
            j
        });
    }

    #[test]
    fn smallest_index_error_is_first_in_order() {
        for threads in [1, 2, 4, 7] {
            let results = run_indexed(threads, (0..12u32).collect(), |i, j| {
                if j % 5 == 3 {
                    Err(format!("job {i} failed"))
                } else {
                    Ok(uneven(i, u64::from(j)))
                }
            });
            let first = results.into_iter().collect::<Result<Vec<_>, _>>();
            assert_eq!(
                first,
                Err("job 3 failed".to_string()),
                "threads={threads} must surface the smallest failing index"
            );
        }
    }
}
