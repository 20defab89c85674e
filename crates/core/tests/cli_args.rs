//! Argument-validation tests for the `repro` subcommands: bad flags must
//! be rejected up front — before any simulation starts — with a named
//! error on stderr, the usage text, and a non-zero exit.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

/// Asserts the invocation is rejected with `expected` somewhere in the
/// error output (plus the usage text) — and fast, proving nothing ran.
fn assert_rejected(args: &[&str], expected: &str) {
    let out = repro(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "{args:?} must exit non-zero; stderr: {stderr}"
    );
    assert!(
        stderr.contains(expected),
        "{args:?}: expected error containing '{expected}', got: {stderr}"
    );
    assert!(stderr.contains("usage: repro"), "usage follows the error");
}

#[test]
fn check_rejects_zero_fuzz_rounds() {
    assert_rejected(
        &["check", "--fuzz", "0"],
        "--fuzz expects an integer >= 1, got '0'",
    );
}

#[test]
fn check_rejects_non_numeric_fuzz_and_seed() {
    assert_rejected(
        &["check", "--fuzz", "lots"],
        "--fuzz expects an integer >= 1, got 'lots'",
    );
    assert_rejected(
        &["check", "--seed", "0x2a"],
        "--seed expects an integer, got '0x2a'",
    );
}

#[test]
fn check_rejects_unknown_format_and_csv() {
    assert_rejected(
        &["check", "--format", "yaml"],
        "--format expects table, json or csv, got 'yaml'",
    );
    // csv is a valid repro format but check does not render it.
    assert_rejected(
        &["check", "--format", "csv"],
        "check supports --format table or json",
    );
}

#[test]
fn check_rejects_unknown_arguments_and_missing_values() {
    assert_rejected(&["check", "--verbose"], "unknown argument '--verbose'");
    assert_rejected(&["check", "fig7"], "unknown argument 'fig7'");
    assert_rejected(&["check", "--seed"], "--seed requires a value");
}

#[test]
fn check_collects_every_error_not_just_the_first() {
    let out = repro(&["check", "--fuzz", "0", "--format", "yaml", "--bogus"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success());
    for expected in [
        "--fuzz expects an integer >= 1",
        "--format expects table, json or csv",
        "unknown argument '--bogus'",
    ] {
        assert!(stderr.contains(expected), "missing '{expected}': {stderr}");
    }
}

#[test]
fn run_rejects_bad_progress_and_missing_trace_out_value() {
    assert_rejected(
        &["--progress=bogus", "fig7"],
        "--progress expects stderr or dashboard, got 'bogus'",
    );
    assert_rejected(&["fig7", "--trace-out"], "--trace-out requires a value");
}

#[test]
fn check_rejects_trace_in_combined_with_campaign_flags() {
    assert_rejected(
        &["check", "--trace-in", "t.jsonl", "--fuzz", "2"],
        "--trace-in validates an existing trace; it cannot be combined with",
    );
}

#[test]
fn check_fails_cleanly_on_missing_trace_file() {
    let out = repro(&["check", "--trace-in", "/nonexistent/t.jsonl"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success());
    assert!(
        stderr.contains("error:") && stderr.contains("/nonexistent/t.jsonl"),
        "names the unreadable file: {stderr}"
    );
}

#[test]
fn trace_export_rejects_wrong_path_count_and_unknown_flags() {
    // At least one input and the output are required; more inputs are
    // fine (per-worker traces of a sharded run stitch before export).
    assert_rejected(
        &["trace-export", "only-in.jsonl"],
        "trace-export expects IN.jsonl [IN2.jsonl]... and OUT.json, got 1 path(s)",
    );
    assert_rejected(
        &["trace-export"],
        "trace-export expects IN.jsonl [IN2.jsonl]... and OUT.json, got 0 path(s)",
    );
    assert_rejected(
        &["trace-export", "--wat", "a.jsonl", "b.json"],
        "unknown flag '--wat'",
    );
}

#[test]
fn explore_rejects_zero_budget_and_bad_counts() {
    assert_rejected(
        &["explore", "--budget", "0"],
        "--budget expects an integer >= 1, got '0'",
    );
    assert_rejected(
        &["explore", "--shards", "0"],
        "--shards expects an integer >= 1, got '0'",
    );
    assert_rejected(
        &["explore", "--insts", "many"],
        "--insts expects an integer >= 1, got 'many'",
    );
}

#[test]
fn explore_rejects_conflicting_output_destinations() {
    // --format json already streams the dump to stdout; adding a file
    // destination would silently pick one. Refuse instead.
    assert_rejected(
        &["explore", "--format", "json", "--frontier-out", "f.json"],
        "--format json writes the frontier dump to stdout; it cannot be combined with",
    );
}

#[test]
fn explore_rejects_unknown_sweep_axes_and_values() {
    assert_rejected(
        &["explore", "--sweep", "depth=5"],
        "--sweep axis 'depth' is not in the fig7 design space (axes: design, cores, vdd, rob)",
    );
    assert_rejected(
        &["explore", "--sweep", "design=Imaginary"],
        "--sweep design value 'Imaginary' is not a Table IV design",
    );
    assert_rejected(
        &["explore", "--sweep", "cores"],
        "--sweep expects AXIS=V1[,V2,...], got 'cores'",
    );
    assert_rejected(
        &["explore", "--sweep", "rob="],
        "--sweep rob= lists no values",
    );
}

#[test]
fn explore_rejects_unknown_arguments_and_spaces() {
    assert_rejected(
        &["explore", "--space", "fig13"],
        "--space expects fig7, got 'fig13'",
    );
    assert_rejected(&["explore", "fig7"], "unknown argument 'fig7'");
    assert_rejected(
        &["explore", "--frontier-out"],
        "--frontier-out requires a value",
    );
}

#[test]
fn explore_collects_every_error_not_just_the_first() {
    let out = repro(&["explore", "--budget", "0", "--sweep", "depth=5", "--bogus"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success());
    for expected in [
        "--budget expects an integer >= 1",
        "--sweep axis 'depth' is not in the fig7 design space",
        "unknown argument '--bogus'",
    ] {
        assert!(stderr.contains(expected), "missing '{expected}': {stderr}");
    }
}

#[test]
fn diff_rejects_wrong_file_count() {
    assert_rejected(
        &["diff", "only-one.json"],
        "diff expects exactly two dump files, got 1",
    );
    assert_rejected(&["diff"], "diff expects exactly two dump files, got 0");
}

#[test]
fn diff_rejects_bad_tolerance_and_unknown_flags() {
    assert_rejected(
        &["diff", "a.json", "b.json", "--rel-tol", "-0.5"],
        "--rel-tol expects a number >= 0, got '-0.5'",
    );
    assert_rejected(
        &["diff", "a.json", "b.json", "--wat"],
        "unknown flag '--wat'",
    );
}

#[test]
fn diff_fails_cleanly_on_missing_files() {
    let out = repro(&["diff", "/nonexistent/a.json", "/nonexistent/b.json"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success());
    assert!(
        stderr.contains("error:") && stderr.contains("/nonexistent/a.json"),
        "names the unreadable file: {stderr}"
    );
}

#[test]
fn subcommand_flags_accept_the_inline_form() {
    assert_rejected(
        &["explore", "--budget=0"],
        "--budget expects an integer >= 1, got '0'",
    );
}

#[test]
fn progress_never_consumes_the_next_word() {
    // A bare --progress takes no value, so `fig99` stays an experiment
    // word and is rejected as one.
    assert_rejected(&["--progress", "fig99"], "unknown experiment 'fig99'");
}

#[test]
fn errors_are_reported_in_argument_order() {
    let out = repro(&["check", "--format", "yaml", "--bogus", "--fuzz", "0"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success());
    let at = |needle: &str| {
        stderr
            .find(needle)
            .unwrap_or_else(|| panic!("missing '{needle}': {stderr}"))
    };
    assert!(at("--format expects") < at("unknown argument '--bogus'"));
    assert!(at("unknown argument '--bogus'") < at("--fuzz expects"));
}

#[test]
fn baseline_rejects_zero_jobs_and_a_missing_directory() {
    assert_rejected(
        &["baseline", "out-dir", "--jobs", "0"],
        "--jobs expects an integer >= 1, got '0'",
    );
    assert_rejected(&["baseline"], "baseline requires an output directory");
    assert_rejected(
        &["baseline", "out-dir", "fig99"],
        "unknown experiment 'fig99'",
    );
}

#[test]
fn ci_gate_requires_a_baseline_directory() {
    assert_rejected(&["ci-gate"], "ci-gate requires --baseline DIR");
    assert_rejected(
        &["ci-gate", "--jobs", "2"],
        "ci-gate requires --baseline DIR",
    );
}

#[test]
fn profile_rejects_unknown_format_and_zero_shards() {
    assert_rejected(
        &["profile", "--format", "yaml"],
        "--format expects table, json or folded, got 'yaml'",
    );
    assert_rejected(
        &["profile", "--shards", "0"],
        "--shards expects an integer >= 1, got '0'",
    );
    assert_rejected(&["profile", "--wat"], "unknown flag '--wat'");
}

#[test]
fn bench_rejects_compare_conflicts() {
    assert_rejected(
        &["bench", "--compare", "a.json", "b.json", "--insts", "5"],
        "comparing two existing dumps runs nothing; it cannot be combined with \
         --out, --insts or --quick",
    );
    assert_rejected(
        &["bench", "--compare", "a.json", "b.json", "--quick"],
        "comparing two existing dumps runs nothing",
    );
    assert_rejected(
        &["bench", "--trend", "--compare", "a.json"],
        "--trend reads the existing BENCH_*.json dumps and runs nothing",
    );
    assert_rejected(
        &["bench", "--compare", "a.json", "b.json", "c.json"],
        "unexpected argument 'c.json'",
    );
}

/// Runs `table1` (no simulation) with `args` and returns stdout, and
/// the `run.insts` the stats dump recorded.
fn table1_run(args: &[&str], dump: &std::path::Path) -> (String, u64) {
    let dump_arg = dump.to_str().expect("utf8 path");
    let mut all = vec!["table1", "--stats-out", dump_arg];
    all.extend_from_slice(args);
    let out = repro(&all);
    assert!(out.status.success(), "{all:?} must succeed");
    let text = std::fs::read_to_string(dump).expect("dump written");
    let value: serde_json::Value = serde_json::from_str(&text).expect("dump parses");
    let insts = value
        .get("run")
        .and_then(|r| r.get("insts"))
        .and_then(serde_json::Value::as_u64)
        .expect("run.insts recorded");
    (String::from_utf8_lossy(&out.stdout).into_owned(), insts)
}

#[test]
fn insts_beats_quick_and_json_aliases_format_in_either_order() {
    let dir = std::env::temp_dir().join(format!("repro-cli-args-{}", std::process::id()));
    let dump = dir.join("table1.json");
    for order in [["--insts", "777", "--quick"], ["--quick", "--insts", "777"]] {
        let (_, insts) = table1_run(&order, &dump);
        assert_eq!(insts, 777, "{order:?}: --insts wins over --quick");
    }
    // `--json` is `--format json`: whichever comes last wins.
    let (json, _) = table1_run(&["--format", "csv", "--json"], &dump);
    assert!(json.starts_with('['), "json output: {json}");
    let (csv, _) = table1_run(&["--json", "--format", "csv"], &dump);
    assert!(!csv.starts_with('['), "csv output: {csv}");
    assert_eq!(
        json,
        table1_run(&["--format=json"], &dump).0,
        "--json and --format=json render the same bytes"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
