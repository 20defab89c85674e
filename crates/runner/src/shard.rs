//! The shard executor: a campaign's job list split across several
//! runners in one process.
//!
//! * [`partition`] — [`JobKey::shard_of`] assigns every key to exactly
//!   one shard as a pure function of the key, so the assignment is
//!   deterministic and stable when jobs are added or removed elsewhere
//!   in the campaign;
//! * [`run_partitioned`] — runs each shard on its own runner, shard 0
//!   on the calling thread and every other shard on a scoped thread,
//!   and merges the outcomes back by submission index;
//! * [`workers_per_shard`] — the one rule for splitting a `--jobs`
//!   worker budget across the shards.
//!
//! Every caller (`repro --shards`, `repro profile --shards`, `explore`
//! and the `fig7-sharded` bench scenario) goes through these three, so
//! the shard count never shows in an outcome: the merge is by index,
//! and every job is a pure function of its key.

use serde::{Deserialize, Serialize};

use crate::job::{Job, JobKey};
use crate::runner::Runner;
use crate::SimMetrics;

/// Splits `keys` into `shards` disjoint index lists (an exact cover:
/// every index appears in exactly one shard, in submission order).
///
/// Shard membership comes from [`JobKey::shard_of`], so the partition
/// is deterministic across calls and stable under changes to the rest
/// of the job list. With `shards == 1` every index lands in shard 0.
pub fn partition(keys: &[JobKey], shards: usize) -> Vec<Vec<usize>> {
    let shards = shards.max(1);
    let mut out = vec![Vec::new(); shards];
    for (index, key) in keys.iter().enumerate() {
        out[key.shard_of(shards)].push(index);
    }
    out
}

/// Worker threads each of `shards` runners gets out of a budget of
/// `jobs`, so sharding never oversubscribes the machine: `jobs / shards`,
/// and at least 1.
pub fn workers_per_shard(jobs: usize, shards: usize) -> usize {
    (jobs / shards.max(1)).max(1)
}

/// Runs `jobs` split by [`partition`] into one shard per runner: shard
/// `i` runs on `runners[i]`. Shard 0 runs on the calling thread and
/// shards `1..` each on a scoped thread, so with one runner this is
/// exactly [`Runner::run`] (thread-local state such as the trace memo
/// stays the caller's). Outcomes come back in submission order, so the
/// result is the one a single runner produces, for any number of
/// runners.
///
/// # Panics
///
/// When `runners` is empty, or a shard panics.
pub fn run_partitioned<T>(runners: &[Runner<T>], jobs: Vec<Job<T>>) -> Vec<T>
where
    T: Clone + Send + Serialize + Deserialize + SimMetrics,
{
    let (first, rest) = runners
        .split_first()
        .expect("run_partitioned needs at least one runner");
    let keys: Vec<JobKey> = jobs.iter().map(|job| job.key).collect();
    let parts = partition(&keys, runners.len());
    let mut jobs: Vec<Option<Job<T>>> = jobs.into_iter().map(Some).collect();
    let mut batches = parts.iter().map(|part| {
        part.iter()
            .map(|&index| jobs[index].take().expect("partition is an exact cover"))
            .collect::<Vec<_>>()
    });
    let own = batches.next().expect("one part per runner");
    let batches: Vec<_> = batches.collect();
    let results: Vec<Vec<T>> = std::thread::scope(|scope| {
        let handles: Vec<_> = batches
            .into_iter()
            .zip(rest)
            .map(|(batch, runner)| scope.spawn(move || runner.run(batch)))
            .collect();
        let mut results = vec![first.run(own)];
        results.extend(
            handles
                .into_iter()
                .map(|handle| handle.join().expect("shard thread panicked")),
        );
        results
    });
    let mut outcomes: Vec<Option<T>> = (0..keys.len()).map(|_| None).collect();
    for (part, results) in parts.iter().zip(results) {
        for (&index, outcome) in part.iter().zip(results) {
            outcomes[index] = Some(outcome);
        }
    }
    outcomes
        .into_iter()
        .map(|outcome| outcome.expect("every shard returns one outcome per job"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: usize) -> Vec<JobKey> {
        (0..n)
            .map(|i| JobKey::from_bytes(format!("job-{i}").as_bytes()))
            .collect()
    }

    #[test]
    fn partition_is_an_exact_cover_in_submission_order() {
        let keys = keys(37);
        for shards in [1, 2, 3, 7, 64] {
            let parts = partition(&keys, shards);
            assert_eq!(parts.len(), shards);
            let mut seen: Vec<usize> = parts.iter().flatten().copied().collect();
            for part in &parts {
                assert!(part.windows(2).all(|w| w[0] < w[1]), "order preserved");
            }
            seen.sort_unstable();
            assert_eq!(seen, (0..keys.len()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn one_shard_takes_everything_and_zero_clamps() {
        let keys = keys(9);
        assert_eq!(partition(&keys, 1)[0].len(), 9);
        assert_eq!(partition(&keys, 0).len(), 1);
        assert_eq!(partition(&keys, 0)[0].len(), 9);
    }

    #[test]
    fn assignment_is_stable_under_other_jobs() {
        // Membership depends only on the key: dropping half the batch
        // must not move any surviving job to a different shard.
        let all = keys(40);
        let survivors: Vec<JobKey> = all.iter().copied().step_by(2).collect();
        for shards in [2, 5] {
            for key in &survivors {
                assert_eq!(key.shard_of(shards), key.shard_of(shards));
            }
            let full = partition(&all, shards);
            let half = partition(&survivors, shards);
            for (shard, part) in half.iter().enumerate() {
                for &idx in part {
                    let original = survivors[idx];
                    let pos = all.iter().position(|k| *k == original).expect("subset");
                    assert!(
                        full[shard].contains(&pos),
                        "key moved shards when the batch shrank"
                    );
                }
            }
        }
    }

    /// Whether a job ran on the thread that called `run_partitioned`.
    #[derive(Debug, Clone, PartialEq)]
    struct OnCaller(bool);

    impl Serialize for OnCaller {
        fn to_value(&self) -> serde::value::Value {
            self.0.to_value()
        }
    }

    impl Deserialize for OnCaller {
        fn from_value(v: &serde::value::Value) -> Result<Self, serde::Error> {
            bool::from_value(v).map(OnCaller)
        }
    }

    impl SimMetrics for OnCaller {}

    #[test]
    fn shard_zero_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let jobs = |n: usize| -> Vec<Job<OnCaller>> {
            keys(n)
                .into_iter()
                .enumerate()
                .map(|(i, key)| {
                    Job::new(key, format!("job{i}"), move || {
                        OnCaller(std::thread::current().id() == caller)
                    })
                })
                .collect()
        };
        let one = [Runner::serial()];
        assert!(
            run_partitioned(&one, jobs(12)).iter().all(|o| o.0),
            "one runner runs the whole batch on the caller's thread"
        );
        let two = [Runner::serial(), Runner::serial()];
        let parts = partition(&keys(12), 2);
        assert!(parts.iter().all(|part| !part.is_empty()));
        let outcomes = run_partitioned(&two, jobs(12));
        for (shard, part) in parts.iter().enumerate() {
            for &index in part {
                assert_eq!(
                    outcomes[index].0,
                    shard == 0,
                    "job {index} of shard {shard}"
                );
            }
        }
    }
}
