//! Sharded execution must be invisible in the results.
//!
//! The shard executor's headline guarantee is that `--shards N` is a
//! pure throughput knob: the partitioner splits the campaign across N
//! runners, their outcomes merge back by submission index, and the
//! final report — both the headline stdout and the `--stats-out`
//! dump — is what an unsharded run would have produced. These
//! tests run the real `repro` binary on the fig7 + fig14 workload and
//! hold that line byte-for-byte across shard counts, including a
//! shard count (7) that does not divide the job count evenly.
//!
//! One carve-out: the `runner` section of the stats dump is declared
//! nondeterministic by the schema (`RunnerStats::DETERMINISTIC` is
//! false — wall-clock timings and hit provenance legitimately move
//! between runs), so dumps are compared with that key removed. Stdout
//! carries no runner timings and is compared whole.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use serde::value::Value;

/// Instruction budget: small enough that a cold campaign is quick,
/// large enough that every design retires real work.
const INSTS: &str = "2000";

/// Shard counts under test: the degenerate single shard, even splits,
/// and a count that neither divides the CPU nor the GPU job total.
const SHARD_COUNTS: [&str; 4] = ["1", "2", "4", "7"];

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

fn scratch() -> PathBuf {
    std::env::temp_dir().join(format!("hetcore-shard-eq-{}", std::process::id()))
}

/// Parses a stats dump and drops the schema-declared-nondeterministic
/// `runner` section; everything else must match exactly.
fn deterministic_dump(path: &Path) -> Value {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("stats dump at {} readable: {e}", path.display()));
    let mut dump: Value = serde_json::from_str(&text).expect("stats dump parses");
    match &mut dump {
        Value::Object(entries) => entries.retain(|(key, _)| key != "runner"),
        other => panic!("stats dump is not an object: {other:?}"),
    }
    dump
}

#[test]
fn sharded_runs_match_single_process_byte_for_byte() {
    let base = scratch();
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).expect("scratch dir");

    // ---- reference: plain single-process run ----
    let ref_stats = base.join("reference.stats.json");
    let reference = repro(&[
        "--insts",
        INSTS,
        "--format",
        "json",
        "--stats-out",
        &ref_stats.to_string_lossy(),
        "fig7",
        "fig14",
    ]);
    assert!(
        reference.status.success(),
        "reference run fails: {}",
        String::from_utf8_lossy(&reference.stderr)
    );
    let ref_dump = deterministic_dump(&ref_stats);

    // ---- every shard count reproduces it exactly ----
    for shards in SHARD_COUNTS {
        // A fresh cache directory per shard count: each sharded run is
        // a genuinely cold campaign, not a warm read of the last one.
        let cache = base.join(format!("cache-{shards}"));
        let stats = base.join(format!("shards-{shards}.stats.json"));
        let out = repro(&[
            "--insts",
            INSTS,
            "--format",
            "json",
            "--cache-dir",
            &cache.to_string_lossy(),
            "--stats-out",
            &stats.to_string_lossy(),
            "--shards",
            shards,
            "fig7",
            "fig14",
        ]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "--shards {shards} fails: {stderr}");
        assert_eq!(
            reference.stdout, out.stdout,
            "stdout must be byte-identical at --shards {shards}"
        );
        assert_eq!(
            ref_dump,
            deterministic_dump(&stats),
            "stats dump (minus the nondeterministic `runner` section) \
             must match at --shards {shards}"
        );
    }

    let _ = std::fs::remove_dir_all(&base);
}

/// The exploration engine makes a stronger promise than the campaign
/// path: its in-process shards feed deterministic counters, so the
/// frontier dump — `runner` section included — is byte-identical at
/// any shard count. Cold caches per shard count keep the comparison
/// honest (no run reads another's results).
#[test]
fn explore_frontier_dumps_match_across_shard_counts() {
    let base = scratch().with_file_name(format!("hetcore-shard-eq-explore-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).expect("scratch dir");

    let dump_for = |shards: &str| -> String {
        let cache = base.join(format!("cache-{shards}"));
        let out_path = base.join(format!("frontier-{shards}.json"));
        let out = repro(&[
            "explore",
            "--budget",
            "12",
            "--seed",
            "42",
            "--insts",
            INSTS,
            "--shards",
            shards,
            "--cache-dir",
            &cache.to_string_lossy(),
            "--frontier-out",
            &out_path.to_string_lossy(),
        ]);
        assert!(
            out.status.success(),
            "explore --shards {shards} fails: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        std::fs::read_to_string(&out_path).expect("frontier dump written")
    };

    let reference = dump_for("1");
    for shards in ["2", "4"] {
        assert_eq!(
            reference,
            dump_for(shards),
            "frontier dump must be byte-identical at --shards {shards}"
        );
    }

    let _ = std::fs::remove_dir_all(&base);
}
