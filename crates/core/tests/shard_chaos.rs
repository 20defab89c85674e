//! Shared-cache contention and resume tests for sharded runs.
//!
//! Every cache write goes through `write_atomic` as its job finishes,
//! and every job outcome is a pure function of its key. Two promises
//! follow, and these tests drive both through the real `repro` binary:
//!
//! * two processes racing on one `--cache-dir` leave no corrupt
//!   entries, and a warm read of that cache answers every job from
//!   disk;
//! * a run cut short leaves exactly its finished jobs in the cache, so
//!   rerunning it (here with `--shards 2`) simulates only the missing
//!   ones and prints the same report.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

use serde::value::Value;

/// Instruction budget for all runs (small, but real work per design).
const INSTS: &str = "2000";

fn repro_cmd() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn repro(args: &[&str]) -> Output {
    repro_cmd().args(args).output().expect("repro runs")
}

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hetcore-shard-chaos-{}-{name}", std::process::id()))
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = scratch(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// The undisturbed single-process fig7 report every scenario must
/// reproduce.
fn reference_stdout() -> Vec<u8> {
    let out = repro(&["--insts", INSTS, "--format", "json", "fig7"]);
    assert!(
        out.status.success(),
        "reference run fails: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

/// The `runner.cpu` section of the stats dump at `path`.
fn cpu_runner_section(path: &Path) -> Value {
    let text = std::fs::read_to_string(path).expect("stats dump written");
    let dump: Value = serde_json::from_str(&text).expect("stats dump parses");
    dump.get("runner")
        .and_then(|r| r.get("cpu"))
        .cloned()
        .expect("dump has a runner.cpu section")
}

#[test]
fn concurrent_workers_share_a_cache_without_corruption() {
    let cache = fresh_dir("contend-cache");
    let reference = reference_stdout();

    // Two full fig7 runs race every cache entry on the same directory.
    // Both must succeed: cache writes are atomic and last-writer-wins
    // on identical bytes.
    let racers: Vec<_> = (0..2)
        .map(|_| {
            repro_cmd()
                .args([
                    "--insts",
                    INSTS,
                    "--format",
                    "json",
                    "--jobs",
                    "2",
                    "--cache-dir",
                    &cache.to_string_lossy(),
                    "fig7",
                ])
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .expect("racing run spawns")
        })
        .collect();
    for racer in racers {
        let out = racer.wait_with_output().expect("racing run finishes");
        assert!(
            out.status.success(),
            "contending run must still succeed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(reference, out.stdout, "a racing run reproduces the report");
    }

    // The shared cache must now be complete and clean: a warm
    // single-process run answers every CPU job from disk (executed 0,
    // zero corrupt entries) and reproduces the reference bytes.
    let stats = scratch("contend.stats.json");
    let out = repro(&[
        "--insts",
        INSTS,
        "--format",
        "json",
        "--cache-dir",
        &cache.to_string_lossy(),
        "--stats-out",
        &stats.to_string_lossy(),
        "fig7",
    ]);
    assert!(
        out.status.success(),
        "warm read fails: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(reference, out.stdout, "warm read reproduces the report");

    let runner = cpu_runner_section(&stats);
    assert_eq!(
        runner.get("executed").and_then(Value::as_u64),
        Some(0),
        "every job served from cache"
    );
    assert_eq!(
        runner
            .get("cache")
            .and_then(|c| c.get("corrupt_files"))
            .and_then(Value::as_u64),
        Some(0),
        "the racing writers left no corrupt cache entries"
    );

    let _ = std::fs::remove_dir_all(&cache);
    let _ = std::fs::remove_file(&stats);
}

#[test]
fn an_interrupted_cached_run_resumes_where_it_stopped() {
    let cache = fresh_dir("resume-cache");
    let cache_arg = cache.to_string_lossy().into_owned();

    // A complete cold run fills the cache with one entry per job.
    let cold = repro(&[
        "--insts",
        INSTS,
        "--format",
        "json",
        "--cache-dir",
        &cache_arg,
        "fig7",
    ]);
    assert!(
        cold.status.success(),
        "cold run fails: {}",
        String::from_utf8_lossy(&cold.stderr)
    );

    // Take away every third entry: the state a run killed part-way
    // through leaves behind, since each entry is written as its job
    // finishes.
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&cache)
        .expect("cache dir readable")
        .map(|entry| entry.expect("cache entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
        .collect();
    entries.sort();
    assert_eq!(entries.len(), 154, "one entry per fig7 job");
    let mut deleted = 0u64;
    for path in entries.iter().step_by(3) {
        std::fs::remove_file(path).expect("delete cache entry");
        deleted += 1;
    }

    // The rerun, sharded, simulates exactly the missing jobs and
    // prints the cold run's report byte for byte.
    let stats = scratch("resume.stats.json");
    let resumed = repro(&[
        "--insts",
        INSTS,
        "--format",
        "json",
        "--cache-dir",
        &cache_arg,
        "--shards",
        "2",
        "--stats-out",
        &stats.to_string_lossy(),
        "fig7",
    ]);
    assert!(
        resumed.status.success(),
        "resumed run fails: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert_eq!(
        cold.stdout, resumed.stdout,
        "the resumed report matches the cold run"
    );
    let runner = cpu_runner_section(&stats);
    assert_eq!(
        runner.get("executed").and_then(Value::as_u64),
        Some(deleted),
        "only the deleted jobs are simulated again"
    );
    assert_eq!(
        runner.get("jobs").and_then(Value::as_u64),
        Some(154),
        "the resumed run still covers the whole campaign"
    );

    let _ = std::fs::remove_dir_all(&cache);
    let _ = std::fs::remove_file(&stats);
}
