//! Property tests of the shard partitioner.
//!
//! The shard executor's correctness rests on the partition being an
//! exact, deterministic cover of the batch. These
//! properties pin that down for arbitrary job counts, shard counts and
//! key material — the unit tests in `shard.rs` cover the hand-picked
//! edges, this file covers the space between them.

use hetsim_runner::{partition, run_partitioned, Job, JobKey, Runner, SimMetrics};
use proptest::prelude::*;
use serde::value::Value;

/// Arbitrary key material: keys derive from hashed byte strings, the
/// same way real jobs derive them from canonical configs.
fn keys_from(seeds: &[Vec<u8>]) -> Vec<JobKey> {
    seeds.iter().map(|s| JobKey::from_bytes(s)).collect()
}

/// A job outcome that records which job produced it, so a merge that
/// put outcomes in the wrong slot shows up as a mismatch.
#[derive(Debug, Clone, PartialEq)]
struct Out(u64);

impl serde::Serialize for Out {
    fn to_value(&self) -> Value {
        self.0.to_value()
    }
}

impl serde::Deserialize for Out {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        u64::from_value(v).map(Out)
    }
}

impl SimMetrics for Out {}

/// `n` jobs whose outcomes depend on their index and `salt`.
fn jobs(n: u64, salt: u64) -> Vec<Job<Out>> {
    (0..n)
        .map(|i| {
            Job::keyed(
                &("shard-props-v1", (salt, i)),
                format!("job{i}"),
                move || Out(salt.wrapping_mul(31).wrapping_add(i)),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every index appears in exactly one shard (no loss, no
    /// duplication), and each shard preserves submission order — so
    /// re-concatenating shards is a permutation-free exact cover.
    #[test]
    fn partition_is_an_exact_cover(
        seeds in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..24), 0..80),
        shards in 1usize..12,
    ) {
        let keys = keys_from(&seeds);
        let parts = partition(&keys, shards);
        prop_assert_eq!(parts.len(), shards);
        for part in &parts {
            prop_assert!(part.windows(2).all(|w| w[0] < w[1]));
        }
        let mut all: Vec<usize> = parts.iter().flatten().copied().collect();
        all.sort_unstable();
        let expect: Vec<usize> = (0..keys.len()).collect();
        prop_assert_eq!(all, expect);
    }

    /// The partition is a pure function: computing it twice gives the
    /// identical assignment.
    #[test]
    fn partition_is_deterministic_across_calls(
        seeds in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..24), 0..80),
        shards in 1usize..12,
    ) {
        let keys = keys_from(&seeds);
        prop_assert_eq!(partition(&keys, shards), partition(&keys, shards));
        for key in &keys {
            prop_assert_eq!(key.shard_of(shards), key.shard_of(shards));
        }
    }

    /// One shard degenerates to the whole batch in submission order —
    /// `--shards 1` must behave exactly like a single-process run.
    #[test]
    fn single_shard_is_the_identity(
        seeds in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..24), 0..80),
    ) {
        let keys = keys_from(&seeds);
        let parts = partition(&keys, 1);
        prop_assert_eq!(parts.len(), 1);
        let expect: Vec<usize> = (0..keys.len()).collect();
        prop_assert_eq!(parts[0].clone(), expect);
    }

    /// Shard membership depends only on the key: dropping an arbitrary
    /// subset of the batch never moves a surviving job to a different
    /// shard. (This is what keeps warm caches valid when a campaign
    /// grows or shrinks between runs.)
    #[test]
    fn membership_is_stable_under_batch_changes(
        seeds in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..24), 1..80),
        shards in 1usize..12,
        keep_mask in proptest::collection::vec(any::<bool>(), 80),
    ) {
        let keys = keys_from(&seeds);
        let survivors: Vec<JobKey> = keys
            .iter()
            .zip(&keep_mask)
            .filter(|(_, keep)| **keep)
            .map(|(k, _)| *k)
            .collect();
        for key in &survivors {
            prop_assert_eq!(key.shard_of(shards), key.shard_of(shards));
        }
        // Assignment of a surviving key is identical whether computed
        // against the full batch or the shrunken one.
        let full = partition(&keys, shards);
        let half = partition(&survivors, shards);
        for (shard, part) in half.iter().enumerate() {
            for &idx in part {
                let key = survivors[idx];
                prop_assert_eq!(key.shard_of(shards), shard);
                let pos = keys.iter().position(|k| *k == key).unwrap();
                prop_assert!(full[shard].contains(&pos));
            }
        }
    }

    /// Keys survive the hex round trip (the cache's entry file names):
    /// hex → from_hex is the identity.
    #[test]
    fn keys_round_trip_through_hex(
        seeds in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..24), 0..40),
    ) {
        for key in keys_from(&seeds) {
            prop_assert_eq!(JobKey::from_hex(&key.hex()), Some(key));
        }
    }

    /// The in-process shard executor: splitting a batch across any
    /// number of runners returns exactly what one runner returns, in
    /// submission order.
    #[test]
    fn run_partitioned_equals_a_single_runner(
        n in 0u64..60,
        shards in 1usize..8,
        salt in any::<u64>(),
    ) {
        let single = Runner::serial().run(jobs(n, salt));
        let runners: Vec<Runner<Out>> = (0..shards).map(|_| Runner::serial()).collect();
        prop_assert_eq!(run_partitioned(&runners, jobs(n, salt)), single);
    }
}
